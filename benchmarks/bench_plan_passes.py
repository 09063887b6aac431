"""Plan-pass benchmark — coalescing must shrink the schedule.

The plan optimization pass (:mod:`repro.plan.passes`) is a bit-exact
rewrite; this benchmark gates that it actually buys what it promises.
One committed gate (``benchmarks/thresholds.json``, enforced in CI):

* ``coalesce_chunk_reduction`` — on example 4.1 at N=64 the coalesced
  plan must have at least **2x** fewer chunks than the raw plan (measured
  ~4x: the two partition labels fold into their fronts and adjacent
  fronts merge pairwise, 512 → 129 chunks).

The raw and coalesced plans are executed through the vectorized backend
and cross-checked for bit-identical stores before the ratio is reported —
a wrong rewrite must fail loudly, not gate green.

Run under pytest-benchmark::

    pytest benchmarks/bench_plan_passes.py --benchmark-only

or standalone (CI smoke / regression gate)::

    python benchmarks/bench_plan_passes.py --size 64 \
        --json results.json --require-chunk-reduction 2
"""

import argparse
import json
import os
import sys

from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.plan import optimize_plan
from repro.runtime.arrays import store_for_nest
from repro.runtime.backends import get_backend
from repro.workloads.paper_examples import example_4_1

SIZE_N = 64
CHUNK_REDUCTION_TARGET = 2.0


def _executed(transformed, plan, nest):
    store = store_for_nest(nest)
    get_backend("vectorized").execute_plan(transformed, plan, store)
    return store


def _measure(n: int):
    """Chunk reduction of coalescing, checked bit-identical first."""
    nest = example_4_1(n)
    transformed = TransformedLoopNest.from_report(analyze_nest(nest))
    base = transformed.execution_plan()
    coalesced, _ = optimize_plan(base, transformed, passes=("coalesce",))
    assert _executed(transformed, base, nest).identical(
        _executed(transformed, coalesced, nest)
    ), "raw and coalesced execution disagree — refusing to report"

    return {
        "workload": nest.name,
        "n": n,
        "iterations": base.total_iterations,
        "base_chunks": base.chunk_count,
        "coalesced_chunks": coalesced.chunk_count,
        "coalesce_chunk_reduction": base.chunk_count / coalesced.chunk_count,
    }


def _check(result, chunk_reduction_target=None):
    if chunk_reduction_target is not None:
        assert result["coalesce_chunk_reduction"] >= chunk_reduction_target, (
            f"coalescing only reduced chunks "
            f"{result['coalesce_chunk_reduction']:.2f}x "
            f"(target {chunk_reduction_target:.1f}x)"
        )


def _json_payload(result):
    return {
        "name": "plan_passes",
        "metrics": {"coalesce_chunk_reduction": result["coalesce_chunk_reduction"]},
        "details": result,
    }


def _table(result) -> str:
    return "\n".join(
        [
            f"workload {result['workload']} at N={result['n']} — "
            f"{result['iterations']} iterations",
            f"  coalescing: {result['base_chunks']} -> "
            f"{result['coalesced_chunks']} chunks "
            f"({result['coalesce_chunk_reduction']:.2f}x fewer)",
        ]
    )


def test_plan_passes(benchmark):
    result = benchmark.pedantic(_measure, args=(SIZE_N,), rounds=1, iterations=1)
    _check(result, chunk_reduction_target=CHUNK_REDUCTION_TARGET)
    benchmark.extra_info["coalesce_chunk_reduction"] = round(
        result["coalesce_chunk_reduction"], 2
    )
    print()
    print(_table(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--size", type=int, default=SIZE_N, help=f"workload size N (default: {SIZE_N})"
    )
    parser.add_argument(
        "--require-chunk-reduction",
        type=float,
        default=None,
        help="fail unless coalescing reduces chunks at least this much "
        f"(the CI gate uses {CHUNK_REDUCTION_TARGET:.1f})",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the measurements as machine-readable JSON "
        "(checked against benchmarks/thresholds.json in CI)",
    )
    args = parser.parse_args(argv)
    result = _measure(args.size)
    if args.json:
        os.makedirs(os.path.dirname(args.json) or ".", exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(_json_payload(result), handle, indent=2)
    _check(result, chunk_reduction_target=args.require_chunk_reduction)
    print(_table(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
