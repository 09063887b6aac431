"""Session façade overhead benchmark — the API must be (nearly) free.

The API redesign routes every entry point through
:class:`repro.api.Session`.  The gate here is that the façade costs almost
nothing on the serving hot path: a warm ``Session.run`` (analysis cache
hit, program LRU hit, persistent executor) must stay within **5%** of the
direct pipeline calls it wraps — analyze through the cache, reuse the
prebuilt (transformed nest, execution plan) program, execute through the
same backend — measured end to end on example 4.1 at N=64 with the
vectorized serial backend.

The committed metric is ``direct_vs_session = direct_seconds /
session_seconds`` with threshold 0.95 in ``benchmarks/thresholds.json``
(0.95 ⇔ the session adds at most ~5% overhead).

Run under pytest-benchmark::

    pytest benchmarks/bench_session_overhead.py --benchmark-only

or standalone (CI smoke / regression gate)::

    python benchmarks/bench_session_overhead.py --size 64 \
        --json results.json --require-ratio 0.95
"""

import argparse
import json
import os
import sys
import time

from repro.api import Session, SessionConfig
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.cache import AnalysisCache
from repro.runtime.arrays import store_for_nest
from repro.runtime.executor import ParallelExecutor
from repro.workloads.paper_examples import example_4_1

# The acceptance configuration: example 4.1 at N=64 through the vectorized
# serial backend — the batch-serving hot path.
SPEEDUP_N = 64
BACKEND = "vectorized"
RATIO_TARGET = 0.95  # direct/session >= 0.95  <=>  session overhead <= ~5%


def _measure(n: int, repetitions: int = 7, inner: int = 3):
    """Best-of wall clock of warm direct-pipeline runs vs. warm Session.run.

    Both sides execute the identical (transformed, plan) program with the
    identical backend against a prebuilt store (store *initialization* is
    identical on both paths and an order of magnitude slower than the
    execution itself, so timing it would only add noise).  Direct and
    session bursts are interleaved so clock drift and scheduler noise hit
    both sides equally; the best of ``repetitions`` bursts is kept.
    """
    nest = example_4_1(n)

    # --- direct pipeline: hand-wired cache + program + executor ---------- #
    cache = AnalysisCache()
    report, _ = cache.analyze(nest)
    transformed = TransformedLoopNest.from_report(report)
    plan = transformed.execution_plan()
    direct_store = store_for_nest(nest)
    direct_best = float("inf")
    session_best = float("inf")
    with ParallelExecutor(mode="serial", backend=BACKEND) as executor, Session(
        SessionConfig(mode="serial", backend=BACKEND)
    ) as session:
        session_store = store_for_nest(nest)
        # warm-up both paths: one-time codegen/compile caches, the session's
        # cache miss and program build
        executor.run(transformed, direct_store, plan=plan)
        session.run(nest, store=session_store)
        for _ in range(max(1, repetitions)):
            start = time.perf_counter()
            for _ in range(inner):
                cache.analyze(nest)
                executor.run(transformed, direct_store, plan=plan)
                sum(float(array.data.sum()) for array in direct_store.values())
            direct_best = min(direct_best, (time.perf_counter() - start) / inner)

            start = time.perf_counter()
            for _ in range(inner):
                session.run(nest, store=session_store)
            session_best = min(session_best, (time.perf_counter() - start) / inner)
        stats = session.stats()

    return {
        "workload": nest.name,
        "n": n,
        "backend": BACKEND,
        "iterations": nest.iteration_count(),
        "direct_seconds": direct_best,
        "session_seconds": session_best,
        "direct_vs_session": direct_best / session_best if session_best > 0 else float("inf"),
        "overhead_percent": (session_best / direct_best - 1.0) * 100.0 if direct_best > 0 else 0.0,
        "session_cache_hit_rate": stats.cache_hit_rate,
        "session_executor_creations": stats.executor_creations,
    }


def _check(result, ratio_target=None):
    assert result["session_cache_hit_rate"] > 0, "session never hit its cache"
    assert result["session_executor_creations"] == 1, "session rebuilt its executor"
    if ratio_target is not None:
        ratio = result["direct_vs_session"]
        assert ratio >= ratio_target, (
            f"Session.run is {result['overhead_percent']:.1f}% slower than the "
            f"direct pipeline (direct/session {ratio:.3f}, target {ratio_target:.2f})"
        )


def _json_payload(result):
    return {
        "name": "session_overhead",
        "metrics": {"direct_vs_session": result["direct_vs_session"]},
        "details": result,
    }


def _table(result) -> str:
    return "\n".join(
        [
            f"workload {result['workload']} — {result['iterations']} iterations, "
            f"backend {result['backend']}",
            f"  direct pipeline (warm): {result['direct_seconds'] * 1000.0:.3f} ms",
            f"  Session.run (warm):     {result['session_seconds'] * 1000.0:.3f} ms",
            f"  facade overhead: {result['overhead_percent']:+.1f}% "
            f"(direct/session {result['direct_vs_session']:.3f})",
        ]
    )


def test_session_overhead(benchmark):
    result = benchmark.pedantic(_measure, args=(SPEEDUP_N,), rounds=1, iterations=1)
    _check(result, ratio_target=RATIO_TARGET)
    benchmark.extra_info["direct_vs_session"] = round(result["direct_vs_session"], 3)
    benchmark.extra_info["overhead_percent"] = round(result["overhead_percent"], 1)
    print()
    print(_table(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--size", type=int, default=SPEEDUP_N, help=f"workload size N (default: {SPEEDUP_N})"
    )
    parser.add_argument(
        "--repetitions", type=int, default=7, help="timing bursts (default: 7)"
    )
    parser.add_argument(
        "--require-ratio",
        type=float,
        default=None,
        help="fail unless direct/session wall clock is at least this ratio "
        "(the CI gate uses 0.95, i.e. at most ~5%% facade overhead)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the measurements as machine-readable JSON "
        "(checked against benchmarks/thresholds.json in CI)",
    )
    args = parser.parse_args(argv)
    result = _measure(args.size, repetitions=args.repetitions)
    if args.json:
        os.makedirs(os.path.dirname(args.json) or ".", exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(_json_payload(result), handle, indent=2)
    _check(result, ratio_target=args.require_ratio)
    print(_table(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
