"""Parallel native driver benchmark — one in-kernel call vs everything else.

PR 10's tentpole claim is that moving the parallel-for over chunks *into*
the compiled kernel beats both remaining dispatch strategies:

* ``parallel_vs_serial_native`` — the in-kernel driver at 4 OS threads vs
  the serial native kernel on the same warm program (example 4.1 at large
  N).  Gated **>= 2.0x** in CI (4-vCPU runner); meaningless on a 1-core
  host, where the driver degenerates to the serial loop plus a few
  microseconds of OpenMP overhead.
* ``parallel_vs_python_threads`` — one driver call vs dispatching the
  *same* native kernel group-by-group from a Python
  ``ThreadPoolExecutor`` (the pre-PR ``threads`` mode: ctypes releases
  the GIL, so the Python pool does get parallelism — minus a future, a
  key-table gather and a kernel re-entry per group).  Gated **>= 1.5x**
  in CI.

Every measured run is differentially checked: the parallel store must be
bit-identical to the serial native store and to the interpreter reference
before any number is reported.

Run under pytest-benchmark::

    pytest benchmarks/bench_parallel_native.py --benchmark-only

or standalone (CI)::

    python benchmarks/bench_parallel_native.py --json results/parallel_native.json
"""

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.codegen import native as native_codegen
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.runtime.arrays import store_for_nest
from repro.runtime.backends import NativeBackend
from repro.runtime.interpreter import execute_nest
from repro.workloads.paper_examples import example_4_1

#: Example 4.1 at N=256: 257^2 = 66049 iterations over 2048 independent
#: chunks — enough per-call work for 4 threads to amortize the fork/join.
SPEEDUP_N = 256
THREADS = 4
PARALLEL_VS_SERIAL_TARGET = 2.0
PARALLEL_VS_PYTHON_THREADS_TARGET = 1.5


def _static_groups(n_chunks: int, workers: int):
    """Contiguous near-equal chunk groups (the thread-pool dispatch unit)."""
    workers = max(1, min(workers, n_chunks))
    bounds = [round(i * n_chunks / workers) for i in range(workers + 1)]
    return [
        tuple(range(bounds[i], bounds[i + 1]))
        for i in range(workers)
        if bounds[i] < bounds[i + 1]
    ]


def measure(n: int = SPEEDUP_N, threads: int = THREADS, repetitions: int = 5):
    """Warm-kernel timings of the three dispatch strategies on example 4.1."""
    engine = native_codegen.resolve_engine()
    if engine is None:
        return None

    nest = example_4_1(n)
    transformed = TransformedLoopNest.from_report(analyze_nest(nest))
    plan = transformed.execution_plan()
    base = store_for_nest(nest)
    reference = base.copy()
    execute_nest(nest, reference)

    backend = NativeBackend()
    if backend.parallel_plan_refusal(transformed, plan) is not None:
        return {"engine": engine, "parallel_driver": None}
    program = native_codegen.native_program_for(transformed, backend.engine)
    packed = native_codegen.packed_ranges_for(plan)
    n_chunks = packed.n_chunks
    groups = [
        native_codegen.packed_ranges_for(plan, group)
        for group in _static_groups(n_chunks, threads)
    ]

    # Warm every path once before timing.
    serial_store = base.copy()
    backend.execute_plan(transformed, plan, serial_store)
    parallel_store = base.copy()
    driver = backend.execute_plan_parallel(
        transformed, plan, parallel_store, threads=threads, dynamic=True
    )
    assert driver is not None, "support probe passed but the driver refused"
    assert reference.identical(serial_store), "serial native differs from interpreter"
    assert reference.identical(parallel_store), "parallel driver differs from interpreter"

    def _best(run):
        best = float("inf")
        for _ in range(max(1, repetitions)):
            store = base.copy()
            start = time.perf_counter()
            run(store)
            best = min(best, time.perf_counter() - start)
            assert reference.identical(store), "measured run diverged"
        return best

    serial_seconds = _best(
        lambda store: program.execute(store, packed)
    )
    parallel_seconds = _best(
        lambda store: program.execute_parallel(store, packed, threads, True)
    )

    # The pre-PR "threads" dispatch: the same warm kernel, but one Python
    # future + one key-row gather per group.  ctypes releases the GIL inside
    # the kernel, so this is a fair fight about dispatch overhead.
    pool = ThreadPoolExecutor(max_workers=threads)
    try:
        def _python_threads(store):
            futures = [
                pool.submit(program.execute, store, group)
                for group in groups
            ]
            for future in futures:
                assert future.result() == native_codegen.OK
        python_threads_seconds = _best(_python_threads)
    finally:
        pool.shutdown(wait=True)

    return {
        "engine": engine,
        "parallel_driver": driver,
        "size": n,
        "threads": threads,
        "iterations": plan.total_iterations,
        "num_chunks": n_chunks,
        "cpu_count": os.cpu_count() or 1,
        "serial_native_seconds": serial_seconds,
        "parallel_native_seconds": parallel_seconds,
        "python_threads_seconds": python_threads_seconds,
        "parallel_vs_serial_native": (
            serial_seconds / parallel_seconds if parallel_seconds else 0.0
        ),
        "parallel_vs_python_threads": (
            python_threads_seconds / parallel_seconds if parallel_seconds else 0.0
        ),
    }


def test_parallel_native(benchmark):
    if native_codegen.resolve_engine() is None:
        pytest.skip("no native engine (numba or a C compiler) available")
    if (os.cpu_count() or 1) < 2:
        pytest.skip("parallel speedup is meaningless on a single-core host")
    result = benchmark.pedantic(measure, args=(SPEEDUP_N,), rounds=1, iterations=1)
    if result.get("parallel_driver") is None:
        pytest.skip("the active engine exposes no parallel driver")
    assert result["parallel_vs_serial_native"] >= PARALLEL_VS_SERIAL_TARGET, (
        f"in-kernel driver is only {result['parallel_vs_serial_native']:.2f}x "
        f"serial native at {result['threads']} threads, "
        f"target is {PARALLEL_VS_SERIAL_TARGET:.1f}x"
    )
    assert result["parallel_vs_python_threads"] >= PARALLEL_VS_PYTHON_THREADS_TARGET, (
        f"in-kernel driver is only {result['parallel_vs_python_threads']:.2f}x "
        f"the Python thread-pool dispatch, "
        f"target is {PARALLEL_VS_PYTHON_THREADS_TARGET:.1f}x"
    )
    benchmark.extra_info.update(
        {key: round(value, 4) if isinstance(value, float) else value
         for key, value in result.items()}
    )
    print()
    for key, value in result.items():
        print(f"{key:>28}: {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--size", type=int, default=SPEEDUP_N,
        help=f"workload size N (default: {SPEEDUP_N})",
    )
    parser.add_argument(
        "--threads", type=int, default=THREADS,
        help=f"driver thread count (default: {THREADS})",
    )
    parser.add_argument(
        "--repetitions", type=int, default=5,
        help="timing repetitions (default: 5)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the measurements as machine-readable JSON "
        "(checked against benchmarks/thresholds.json in CI)",
    )
    args = parser.parse_args(argv)
    result = measure(args.size, threads=args.threads, repetitions=args.repetitions)
    if result is None:
        # No engine: emit a payload without the gated metrics so
        # check_thresholds.py fails loudly instead of silently passing.
        print("no native engine (numba or a C compiler) available")
        result = {"engine": None}
    if args.json:
        os.makedirs(os.path.dirname(args.json) or ".", exist_ok=True)
        payload = {
            "name": "parallel_native",
            "metrics": {
                key: result[key]
                for key in ("parallel_vs_serial_native", "parallel_vs_python_threads")
                if key in result
            },
            "result": result,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
    for key, value in result.items():
        print(f"{key:>28}: {value}")
    return 0 if result.get("parallel_driver") else 1


if __name__ == "__main__":
    sys.exit(main())
