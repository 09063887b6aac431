#!/usr/bin/env python
"""Kernel study: apply the PDM method to a set of realistic loop kernels.

For each kernel the script reports the pseudo distance matrix, the chosen
transformation, the exploited parallelism (doall loops x partitions), the
machine-independent speedup, and the result of the dynamic verification —
i.e. the complete workflow a compiler writer would follow when evaluating the
method on real loops.

Run with:  python examples/kernel_study.py
"""

from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.runtime.simulator import simulate_schedule
from repro.runtime.verification import verify_transformation
from repro.utils.formatting import format_table
from repro.workloads.kernels import KERNELS
from repro.workloads.synthetic import three_deep_variable_loop


def main() -> None:
    kernels = {name: factory(10) for name, factory in KERNELS.items()}
    kernels["three-deep"] = three_deep_variable_loop(4)

    rows = []
    for name, nest in kernels.items():
        report = analyze_nest(nest)
        plan = TransformedLoopNest.from_report(report).execution_plan()
        stats = plan.statistics()
        sim = simulate_schedule(plan.select_chunks(), num_processors=8)
        verification = verify_transformation(
            nest, report, check_emitted_code=False, check_executors=("serial",)
        )
        rows.append(
            [
                name,
                nest.depth,
                nest.iteration_count(),
                f"rank {report.pdm.rank}/{nest.depth}",
                report.parallel_loop_count,
                report.partition_count,
                f"{stats['ideal_speedup']:.1f}",
                f"{sim.speedup:.2f}",
                "ok" if verification.passed else "FAIL",
            ]
        )

    headers = [
        "kernel", "depth", "iterations", "PDM", "doall loops",
        "partitions", "ideal speedup", "speedup p=8", "verified",
    ]
    print(format_table(headers, rows))
    print()
    print("Details for each kernel:")
    for name, nest in kernels.items():
        report = analyze_nest(nest)
        print(f"\n--- {name} ---")
        print(nest)
        print(report.summary())


if __name__ == "__main__":
    main()
