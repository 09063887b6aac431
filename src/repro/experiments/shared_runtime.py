"""Shared-memory runtime study: persistent pool vs. serial execution.

The paper's partitioning exists so independent chunks can run concurrently;
this experiment measures what the *runtime* gains and costs around that
concurrency.  Two executions of the same transformed plan are timed end to
end, through the same backend:

* ``serial`` — the backend alone, the no-overhead baseline;
* ``shared`` — the persistent zero-copy pool
  (:mod:`repro.runtime.shared` / :mod:`repro.runtime.pool`): workers stay
  alive across runs and execute in place on shared segments, so a steady
  request stream pays two memcpys and a few queue messages per run.

``shared_vs_serial`` (serial wall clock over shared wall clock) is reported
together with ``os.cpu_count()``: the pool can only beat serial execution
when the host has a core per worker, so the ratio carries no threshold.
Every measured run is differentially checked against the interpreter
reference.

``batch_demo`` drives the same runtime through one ``Session.map`` call
for the harness report: repeated suite traffic with analysis dedupe and
throughput numbers.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, Optional

from repro.api import Session
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.loopnest.nest import LoopNest
from repro.runtime.arrays import store_for_nest
from repro.runtime.backends import resolve_backend
from repro.runtime.executor import ParallelExecutor
from repro.runtime.interpreter import execute_nest
from repro.workloads.paper_examples import example_4_1
from repro.workloads.suite import workload_suite

__all__ = [
    "shared_runtime_comparison",
    "shared_runtime_table",
    "batch_demo",
]


def shared_runtime_comparison(
    n: int = 24,
    workers: int = 4,
    backend: str = "vectorized",
    repetitions: int = 3,
    workload: Optional[Callable[[int], LoopNest]] = None,
) -> Dict[str, object]:
    """Best-of-``repetitions`` wall clock of serial and shared-pool runs.

    Both execute the *same* prebuilt plan through the *same* backend; the
    shared executor is warmed with one untimed run first (pool spin-up is a
    one-time cost a persistent runtime amortizes).
    """
    nest = (workload or example_4_1)(n)
    transformed = TransformedLoopNest.from_report(analyze_nest(nest))
    plan = transformed.execution_plan()
    base = store_for_nest(nest)
    reference = base.copy()
    execute_nest(nest, reference)

    serial_backend = resolve_backend(backend)
    serial_best = float("inf")
    store = None
    for _ in range(max(1, repetitions)):
        store = base.copy()
        start = time.perf_counter()
        serial_backend.execute_plan(transformed, plan, store)
        serial_best = min(serial_best, time.perf_counter() - start)
    serial_identical = reference.identical(store)

    shared_best = float("inf")
    shared_result = None
    with ParallelExecutor(mode="shared", workers=workers, backend=backend) as shared:
        warm = base.copy()
        shared.run(transformed, warm, plan=plan)
        shared_identical = reference.identical(warm)
        for _ in range(max(1, repetitions)):
            store = base.copy()
            start = time.perf_counter()
            result = shared.run(transformed, store, plan=plan)
            wall = time.perf_counter() - start
            if wall < shared_best:
                shared_best, shared_result = wall, result
        shared_identical = shared_identical and reference.identical(store)

    return {
        "workload": nest.name,
        "n": n,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "backend": backend,
        "iterations": plan.total_iterations,
        "num_chunks": plan.chunk_count,
        "serial_seconds": serial_best,
        "shared_seconds": shared_best,
        "shared_setup_seconds": shared_result.setup_seconds,
        "shared_execute_seconds": shared_result.elapsed_seconds,
        "shared_vs_serial": serial_best / shared_best if shared_best > 0 else float("inf"),
        "serial_identical": serial_identical,
        "shared_identical": shared_identical,
        "shared_fallback": shared_result.fallback,
    }


def shared_runtime_table(result: Dict[str, object]) -> str:
    """Render one comparison as plain text for the harness report."""
    def _ms(key: str) -> str:
        return f"{float(result[key]) * 1000.0:.2f} ms"

    lines = [
        f"workload {result['workload']} — {result['iterations']} iterations over "
        f"{result['num_chunks']} chunks, {result['workers']} worker(s) on "
        f"{result['cpu_count']} CPU(s), backend {result['backend']}",
        f"  serial:                  {_ms('serial_seconds')}",
        f"  shared pool (zero-copy): {_ms('shared_seconds')} "
        f"(setup {_ms('shared_setup_seconds')}, execute {_ms('shared_execute_seconds')})",
        f"  shared vs serial: {result['shared_vs_serial']:.2f}x, "
        f"bit-identical: "
        f"{'yes' if result['serial_identical'] and result['shared_identical'] else 'NO'}",
    ]
    return "\n".join(lines)


def batch_demo(
    suite_n: int = 6,
    repeat: int = 3,
    mode: str = "serial",
    backend: str = "vectorized",
    workers: int = 2,
) -> Dict[str, object]:
    """Serve ``repeat`` rounds of the workload suite through ``Session.map``.

    Returns throughput numbers and the analysis-dedupe outcome: after the
    first round, every further round's analysis must be a cache hit.
    """
    nests = [case.nest for case in workload_suite(suite_n)]
    with Session(mode=mode, backend=backend, workers=workers) as session:
        start = time.perf_counter()
        results = session.map(nests, repeat=repeat)
        wall = time.perf_counter() - start
    jobs = len(results)
    iterations = sum(result.iterations for result in results)
    hits = sum(result.cache_hit for result in results)
    summary = (
        f"{jobs} job(s), {iterations} iterations in {wall * 1000.0:.2f} ms wall "
        f"({jobs / wall:.1f} jobs/s, {iterations / wall:.0f} iterations/s)\n"
        f"mode: {mode} ({workers} worker(s)); analysis dedupe: {hits} hit(s), "
        f"{jobs - hits} miss(es) ({hits / jobs:.0%} hit rate)"
    )
    return {
        "jobs": jobs,
        "iterations": iterations,
        "wall_seconds": wall,
        "jobs_per_second": jobs / wall,
        "iterations_per_second": iterations / wall,
        "cache_hits": hits,
        "cache_misses": jobs - hits,
        "hit_rate": hits / jobs,
        "mode": mode,
        "summary": summary,
    }
