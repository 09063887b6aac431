"""Parallelism / speedup study.

The paper's claim is structural ("det(S) parallel iterations", Section 3.3);
this experiment quantifies it: for a sweep of loop sizes ``N`` the exploited
parallelism of the transformed loop is measured as

* the ideal speedup (total work / largest chunk) on an unlimited-processor
  machine,
* the simulated speedup on a fixed number of processors, and
* optionally the wall-clock speedup of the thread / process executors
  (GIL-limited, reported for completeness).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.loopnest.nest import LoopNest
from repro.runtime.arrays import store_for_nest
from repro.runtime.executor import ParallelExecutor
from repro.runtime.interpreter import execute_nest
from repro.runtime.simulator import simulate_schedule

__all__ = ["SpeedupPoint", "speedup_sweep", "wallclock_measurement"]


@dataclass(frozen=True)
class SpeedupPoint:
    """One point of the speedup study."""

    workload: str
    size: int
    iterations: int
    parallel_loops: int
    partitions: int
    num_chunks: int
    ideal_speedup: float
    simulated_speedup_4: float
    simulated_speedup_16: float

    def as_row(self) -> List[object]:
        return [
            self.workload,
            self.size,
            self.iterations,
            self.parallel_loops,
            self.partitions,
            self.num_chunks,
            f"{self.ideal_speedup:.1f}",
            f"{self.simulated_speedup_4:.2f}",
            f"{self.simulated_speedup_16:.2f}",
        ]


def speedup_sweep(
    nest_factory: Callable[[int], LoopNest],
    sizes: Sequence[int],
    workload_name: Optional[str] = None,
    placement: str = "outer",
) -> List[SpeedupPoint]:
    """Measure the exploited parallelism of a workload over a size sweep."""
    points: List[SpeedupPoint] = []
    for size in sizes:
        nest = nest_factory(size)
        report = analyze_nest(nest, placement=placement)
        transformed = TransformedLoopNest.from_report(report)
        # Sweep points come from the symbolic plan: closed-form sizes keep
        # the sweep O(#chunks) even at sizes where materializing would not fit.
        plan = transformed.execution_plan()
        stats = plan.statistics()
        views = plan.select_chunks()
        sim4 = simulate_schedule(views, num_processors=4)
        sim16 = simulate_schedule(views, num_processors=16)
        points.append(
            SpeedupPoint(
                workload=workload_name or nest.name,
                size=size,
                iterations=int(stats["total_iterations"]),
                parallel_loops=report.parallel_loop_count,
                partitions=report.partition_count,
                num_chunks=int(stats["num_chunks"]),
                ideal_speedup=float(stats["ideal_speedup"]),
                simulated_speedup_4=sim4.speedup,
                simulated_speedup_16=sim16.speedup,
            )
        )
    return points


def wallclock_measurement(
    nest: LoopNest, modes: Sequence[str] = ("serial", "shared"), workers: int = 4
) -> Dict[str, float]:
    """Wall-clock times of the original loop and the chunk executors.

    Pure-Python loop bodies hold the GIL, so the process pool of ``shared``
    mode is their multi-core path; on small nests its start-up and copies
    outweigh the gain, and the number is reported to document that honestly.
    """
    report = analyze_nest(nest)
    transformed = TransformedLoopNest.from_report(report)
    plan = transformed.execution_plan()
    base_store = store_for_nest(nest)

    timings: Dict[str, float] = {}
    store = base_store.copy()
    start = time.perf_counter()
    execute_nest(nest, store)
    timings["original"] = time.perf_counter() - start

    for mode in modes:
        store = base_store.copy()
        with ParallelExecutor(mode=mode, workers=workers) as executor:
            result = executor.run(transformed, store, plan=plan)
        # total_seconds: runtime overhead (pool spin-up, copies) is part of
        # what this honest end-to-end number documents.
        timings[mode] = result.total_seconds
    return timings
