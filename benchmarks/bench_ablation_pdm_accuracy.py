"""Ablation — what the PDM buys over coarser dependence abstractions.

The design choice the paper argues for (Section 5) is keeping the *exact*
distance lattice instead of collapsing it into direction vectors or refusing
variable distances outright.  This ablation quantifies that on the workload
suite:

* direction vectors alone find strictly less parallelism than the PDM on the
  partitionable workloads, and
* restricting the analysis to uniform distances (the Banerjee / D'Hollander
  precondition) makes it inapplicable on every variable-distance workload.

It also validates PDM *tightness*: for the standard workloads the lattice
determinant equals the number of realized partitions, i.e. the PDM does not
over-approximate the dependence structure for these loops.
"""

from repro.baselines.comparison import compare_methods
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.utils.formatting import format_table
from repro.workloads.suite import workload_suite


def _run(n):
    cases = workload_suite(n)
    rows = compare_methods(cases)
    tightness = []
    for case in cases:
        report = analyze_nest(case.nest)
        if report.partitioning is None:
            continue
        plan = TransformedLoopNest.from_report(report).execution_plan()
        realized_labels = {key[1] for key in plan.chunk_keys()}
        tightness.append((case.name, report.partition_count, len(realized_labels)))
    return cases, rows, tightness


def test_ablation_pdm_vs_coarser_abstractions(benchmark):
    cases, rows, tightness = benchmark(_run, 8)

    variable = [row for row in rows if row.category == "variable"]
    assert variable

    # 1. uniform-only analyses give up on every variable-distance workload
    for row in variable:
        assert not row.result_of("unimodular").applicable
        assert not row.result_of("constant-partitioning").applicable

    # 2. the PDM method finds strictly more parallelism than direction vectors
    #    on the partition-only workloads (where barrier parallelism is absent)
    partition_only = [r for r in rows if r.workload in ("example-4.2", "strided-scatter", "banded-update")]
    for row in partition_only:
        assert row.speedup_of("pdm") > row.speedup_of("direction-vectors")

    # 3. tightness: predicted det(PDM) partitions are all realized
    for name, predicted, realized in tightness:
        assert realized == predicted, name

    print()
    print(format_table(["workload", "predicted partitions", "realized partitions"], tightness))
