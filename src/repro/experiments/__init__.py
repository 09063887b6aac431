"""Experiment drivers that regenerate the paper's figures and table.

Each function returns plain data structures (dataclasses / dicts) so the
benchmark harness and the example scripts can print them;
``python -m repro.experiments.harness`` regenerates every figure and table,
and the ``bench_*.py`` modules in ``benchmarks/`` gate them.
"""

from repro.experiments.figures import (
    FigureResult,
    figure1_unimodular_demo,
    figure2_original_isdg_41,
    figure3_transformed_isdg_41,
    figure4_original_isdg_42,
    figure5_partitioned_isdg_42,
    ALL_FIGURES,
)
from repro.experiments.tables import table1_related_work, table1_measured_rows
from repro.experiments.speedup import SpeedupPoint, speedup_sweep, wallclock_measurement
from repro.experiments.algorithm_cost import algorithm1_cost_sweep, CostPoint
from repro.experiments.shared_runtime import (
    batch_demo,
    shared_runtime_comparison,
    shared_runtime_table,
)
from repro.experiments.harness import run_all_experiments, format_experiment_report

__all__ = [
    "FigureResult",
    "figure1_unimodular_demo",
    "figure2_original_isdg_41",
    "figure3_transformed_isdg_41",
    "figure4_original_isdg_42",
    "figure5_partitioned_isdg_42",
    "ALL_FIGURES",
    "table1_related_work",
    "table1_measured_rows",
    "SpeedupPoint",
    "speedup_sweep",
    "wallclock_measurement",
    "algorithm1_cost_sweep",
    "CostPoint",
    "batch_demo",
    "shared_runtime_comparison",
    "shared_runtime_table",
    "run_all_experiments",
    "format_experiment_report",
]
