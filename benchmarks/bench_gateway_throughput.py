"""Gateway serving throughput — mixed hot/cold traffic vs sequential batch.

The reproduction target here is the serving economics of
:mod:`repro.gateway`: real traffic repeats itself, and the whole pipeline
is deterministic, so a gateway that coalesces identical in-flight jobs and
answers repeats from a bounded response LRU only pays analyze + execute
for the *cold* jobs of a stream.  A sequential ``Session.map`` walk over
the same stream re-executes every job (its analysis cache dedupes
compile-time work, but never execution).  Concretely:

* the stream interleaves ``VARIANTS`` distinct programs over ``ROUNDS``
  rounds (round one is cold, the rest are hot repeats) at N=``SIZE`` —
  the gateway must sustain at least **1.5x** the sequential jobs/s;
* every gateway response is **checksum-identical** to the sequential run
  of the same job (the differential contract: caching is sound because
  the pipeline is deterministic).

Program compilation (the native backend shells out to ``cc``) is warmed
untimed in both sessions first: both paths pay it identically, and it
measures the C compiler, not the serving layer.

Run under pytest-benchmark::

    pytest benchmarks/bench_gateway_throughput.py --benchmark-only

or standalone (CI smoke / regression gate)::

    python benchmarks/bench_gateway_throughput.py --size 128
    python benchmarks/bench_gateway_throughput.py --size 1024 \
        --json results.json --require-ratio 1.5
"""

import argparse
import json
import os
import sys
import time

from repro.api import Session
from repro.codegen import native as native_codegen
from repro.gateway import GatewayConfig, serve
from repro.loopnest.builder import loop_nest

# The acceptance configuration: 4 program variants x 8 rounds (32 jobs,
# 4 cold / 28 hot) at N=1024 — each job runs ~1M iterations over 1024
# row chunks.
SIZE = 1024
VARIANTS = 4
ROUNDS = 8
EXEC_WORKERS = 4
RATIO_TARGET = 1.5


def _backend() -> str:
    """Native when a C engine is available, vectorized otherwise."""
    return "native" if native_codegen.resolve_engine() is not None else "vectorized"


def make_variant(variant: int, n: int):
    """One serving program: a transcendental row recurrence, constant-tweaked.

    The dependence on ``i2 - 1`` serializes rows internally, so the plan's
    chunks are the ``n`` rows — a realistic chunk granularity for the
    balancer (a fully parallel body would chunk per iteration).
    """
    c = 0.8 + 0.01 * variant
    return (
        loop_nest(f"serve_v{variant}")
        .loop("i1", 0, n - 1)
        .loop("i2", 1, n - 1)
        .statement(
            f"A[i1, i2] = sin(A[i1, i2 - 1]) * 0.5 "
            f"+ cos(A[i1, i2]) * {c} + exp(A[i1, i2] * -0.3)"
        )
        .build()
    )


def _measure(
    n: int,
    variants: int = VARIANTS,
    rounds: int = ROUNDS,
    exec_workers: int = EXEC_WORKERS,
):
    backend = _backend()
    warmup = [make_variant(v, n) for v in range(variants)]
    stream = [make_variant(v, n) for _ in range(rounds) for v in range(variants)]

    with Session(mode="serial", backend=backend) as session:
        session.map(warmup)  # untimed: compile every variant
        start = time.perf_counter()
        sequential = session.map(stream)
        sequential_seconds = time.perf_counter() - start
    sequential_checksums = [result.checksum for result in sequential]

    with Session(mode="serial", backend=backend) as session:
        for nest in warmup:  # untimed: compile every variant
            session.run(nest)
        config = GatewayConfig(exec_workers=exec_workers)
        start = time.perf_counter()
        results = serve(session, stream, config=config)
        gateway_seconds = time.perf_counter() - start

    gateway_checksums = [result.checksum for result in results]
    jobs = len(stream)
    return {
        "backend": backend,
        "n": n,
        "jobs": jobs,
        "variants": variants,
        "rounds": rounds,
        "exec_workers": exec_workers,
        "sequential_seconds": sequential_seconds,
        "gateway_seconds": gateway_seconds,
        "sequential_jobs_per_second": jobs / sequential_seconds,
        "gateway_jobs_per_second": jobs / gateway_seconds,
        "gateway_vs_sequential": sequential_seconds / gateway_seconds,
        "identical": gateway_checksums == sequential_checksums,
    }


def _check(result, ratio_target=None):
    assert result["identical"], (
        "gateway responses diverged from the sequential Session.map run"
    )
    if ratio_target is not None:
        ratio = result["gateway_vs_sequential"]
        assert ratio >= ratio_target, (
            f"gateway sustains only {ratio:.2f}x the sequential jobs/s, "
            f"target is {ratio_target:.1f}x"
        )


def _json_payload(result):
    return {
        "name": "gateway_throughput",
        "metrics": {"gateway_vs_sequential": result["gateway_vs_sequential"]},
        "details": result,
    }


def _table(result) -> str:
    return "\n".join(
        [
            f"gateway throughput ({result['backend']} backend, N={result['n']}, "
            f"{result['jobs']} jobs = {result['variants']} variants x "
            f"{result['rounds']} rounds)",
            f"  sequential Session.map:  {result['sequential_seconds']:.3f}s "
            f"({result['sequential_jobs_per_second']:.1f} jobs/s)",
            f"  gateway:                 {result['gateway_seconds']:.3f}s "
            f"({result['gateway_jobs_per_second']:.1f} jobs/s)",
            f"  ratio:                   "
            f"{result['gateway_vs_sequential']:.2f}x",
        ]
    )


def test_gateway_throughput(benchmark):
    result = benchmark.pedantic(_measure, args=(SIZE,), rounds=1, iterations=1)
    _check(result, ratio_target=RATIO_TARGET)
    benchmark.extra_info["gateway_vs_sequential"] = round(
        result["gateway_vs_sequential"], 2
    )
    benchmark.extra_info["gateway_jobs_per_second"] = round(
        result["gateway_jobs_per_second"], 1
    )
    print()
    print(_table(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--size", type=int, default=SIZE, help=f"workload size N (default: {SIZE})"
    )
    parser.add_argument(
        "--variants", type=int, default=VARIANTS,
        help=f"distinct programs in the stream (default: {VARIANTS})",
    )
    parser.add_argument(
        "--rounds", type=int, default=ROUNDS,
        help=f"times the variant list repeats (default: {ROUNDS})",
    )
    parser.add_argument(
        "--exec-workers", type=int, default=EXEC_WORKERS,
        help=f"gateway execution workers (default: {EXEC_WORKERS})",
    )
    parser.add_argument(
        "--require-ratio",
        type=float,
        default=None,
        help="fail unless the gateway sustains this multiple of the "
        "sequential jobs/s (used by the full-size CI gate, not the smoke run)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the measurements as machine-readable JSON "
        "(checked against benchmarks/thresholds.json in CI)",
    )
    args = parser.parse_args(argv)
    result = _measure(
        args.size,
        variants=args.variants,
        rounds=args.rounds,
        exec_workers=args.exec_workers,
    )
    if args.json:
        os.makedirs(os.path.dirname(args.json) or ".", exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(_json_payload(result), handle, indent=2)
    _check(result, ratio_target=args.require_ratio)
    print(_table(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
