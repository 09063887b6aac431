#!/usr/bin/env python
"""Parallel execution study: from structural parallelism to speedups.

Sweeps the loop size of both paper examples and a realistic kernel, reports
the exploited parallelism (doall loops x partitions), the ideal and simulated
speedups, and finally runs the serial and shared-memory process-pool
executors to show wall-clock behaviour (the process pool is the multi-core
path for pure-Python loop bodies, which hold the CPython GIL).

Run with:  python examples/parallel_execution.py
"""

from repro.experiments.backends import backend_comparison, backend_comparison_table
from repro.experiments.speedup import speedup_sweep, wallclock_measurement
from repro.utils.formatting import format_table
from repro.workloads.kernels import constant_partitioning_recurrence, strided_scatter
from repro.workloads.paper_examples import example_4_1, example_4_2


def main() -> None:
    headers = [
        "workload", "N", "iterations", "doall loops", "partitions",
        "chunks", "ideal speedup", "speedup p=4", "speedup p=16",
    ]
    rows = []
    for factory, name in (
        (example_4_1, "example-4.1"),
        (example_4_2, "example-4.2"),
        (lambda n: strided_scatter(n, stride=3), "strided-scatter"),
        (lambda n: constant_partitioning_recurrence(n, stride=2), "constant-partition"),
    ):
        for point in speedup_sweep(factory, sizes=(6, 10, 16), workload_name=name):
            rows.append(point.as_row())
    print("Structural parallelism and simulated speedups:")
    print(format_table(headers, rows))
    print()

    nest = example_4_2(12)
    timings = wallclock_measurement(nest, modes=("serial", "shared"))
    print(f"Wall-clock execution of {nest.name} (pure-Python bodies):")
    for mode, seconds in timings.items():
        print(f"  {mode:>8s}: {seconds * 1000:8.1f} ms")
    print(
        "\nNote: pure-Python loop bodies hold the CPython GIL, so the shared-memory\n"
        "process pool is their multi-core path; on a nest this small its start-up\n"
        "and copies outweigh the gain.  The machine-independent parallelism\n"
        "numbers above demonstrate the structural speedup the transformation enables."
    )
    print()

    print("Execution backends (single process, differential-checked):")
    print(backend_comparison_table(backend_comparison(n=32)))
    print(
        "\nThe vectorized backend converts the independent chunks of the\n"
        "schedule into NumPy gather/scatter rounds: its wall-clock speedup\n"
        "is the parallelism the paper's method exposes, GIL-free."
    )


if __name__ == "__main__":
    main()
