"""Integration tests pinning the paper's headline claims (Sections 3 and 4).

These are the reproduction targets recorded in EXPERIMENTS.md:

* Example 4.1 — variable distances, non-full-rank PDM, Algorithm 1 zeroes one
  column, the remaining block has determinant 2: one ``doall`` loop plus two
  independent partitions, and no dependence crosses a partition (Figure 3).
* Example 4.2 — variable distances, full-rank PDM of determinant 4: four
  independent partitions (Figure 5).
* In both cases the transformation is legal (Theorem 1 / Theorem 2) and the
  transformed loop computes exactly the same result as the original.
"""

import pytest

from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.isdg.build import build_isdg
from repro.isdg.partitions import cross_partition_edges, partition_labels_of_iterations
from repro.runtime.simulator import simulate_schedule
from repro.runtime.verification import verify_transformation
from repro.workloads.paper_examples import example_4_1, example_4_2


def _plan(report):
    return TransformedLoopNest.from_report(report).execution_plan()


class TestExample41Claims:
    def test_full_claim_chain(self, ex41_small, ex41_report):
        report = ex41_report
        # 1. variable distances, rank-deficient PDM
        assert report.pdm.rank == 1 < ex41_small.depth
        # 2. Algorithm 1 creates a zero column -> one doall loop
        assert report.parallel_loop_count == 1
        # 3. remaining block determinant 2 -> 2 partitions
        assert report.partition_count == 2
        # 4. legality
        assert report.transform_is_legal()

    def test_partition_separation_figure3(self, ex41_small, ex41_report):
        isdg = build_isdg(ex41_small)
        transformed = TransformedLoopNest.from_report(ex41_report)
        labels = partition_labels_of_iterations(isdg, transformed)
        assert cross_partition_edges(isdg, labels) == []
        assert len(set(labels.values())) == 2

    def test_semantics_preserved(self, ex41_small, ex41_report):
        result = verify_transformation(ex41_small, ex41_report)
        assert result.passed, result.describe()

    def test_parallelism_grows_linearly_with_n(self):
        small = analyze_nest(example_4_1(4))
        large = analyze_nest(example_4_1(10))
        speedup_small = _plan(small).statistics()["ideal_speedup"]
        speedup_large = _plan(large).statistics()["ideal_speedup"]
        assert speedup_large > speedup_small > 1.0


class TestExample42Claims:
    def test_full_claim_chain(self, ex42_small, ex42_report):
        report = ex42_report
        assert report.pdm.is_full_rank
        assert report.pdm.determinant() == 4
        assert report.partition_count == 4
        assert report.transform_is_legal()

    def test_partition_separation_figure5(self, ex42_small, ex42_report):
        isdg = build_isdg(ex42_small)
        transformed = TransformedLoopNest.from_report(ex42_report)
        labels = partition_labels_of_iterations(isdg, transformed)
        assert cross_partition_edges(isdg, labels) == []
        assert len(set(labels.values())) == 4

    def test_semantics_preserved(self, ex42_small, ex42_report):
        result = verify_transformation(ex42_small, ex42_report)
        assert result.passed, result.describe()

    def test_four_processor_speedup(self, ex42_report):
        sim = simulate_schedule(_plan(ex42_report).select_chunks(), num_processors=4)
        assert sim.speedup > 3.0

    def test_det_parallelism_claim(self):
        # "det(S) parallel iterations": the number of chunks equals det(PDM)
        report = analyze_nest(example_4_2(8))
        assert _plan(report).chunk_count == report.pdm.determinant()
