"""Coverage of unusual loop depths and shapes (1-deep, 4-deep, triangular).

The paper's examples are all 2-deep; the method itself is stated for
arbitrary depth, so the library must handle shallow and deeper nests and
non-rectangular iteration spaces through the same pipeline.
"""

import pytest

from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pdm import PseudoDistanceMatrix
from repro.core.pipeline import analyze_nest
from repro.dependence.graph import realized_distances
from repro.loopnest.builder import loop_nest
from repro.runtime.verification import verify_transformation


class TestOneDeepLoops:
    def test_strided_recurrence(self):
        nest = (
            loop_nest("one-deep")
            .loop("i", 0, 30)
            .statement("A[i] = A[i - 3] + 1.0")
            .build()
        )
        pdm = PseudoDistanceMatrix.from_loop_nest(nest)
        assert pdm.matrix == [[3]]
        report = analyze_nest(nest)
        assert report.partition_count == 3
        assert verify_transformation(nest, report, check_executors=("serial",)).passed

    def test_independent_one_deep(self):
        nest = loop_nest("copy").loop("i", 0, 10).statement("A[i] = B[i] + 1.0").build()
        report = analyze_nest(nest)
        assert report.parallel_levels == (0,)
        assert verify_transformation(nest, report, check_executors=()).passed

    def test_dense_recurrence_is_sequential(self):
        nest = loop_nest("seq").loop("i", 0, 10).statement("A[i] = A[i - 1] + 1.0").build()
        report = analyze_nest(nest)
        assert report.is_fully_sequential


class TestFourDeepLoops:
    @pytest.fixture()
    def nest(self):
        return (
            loop_nest("four-deep")
            .loop("i1", 0, 3)
            .loop("i2", 0, 3)
            .loop("i3", 0, 3)
            .loop("i4", 0, 3)
            .statement(
                "A[i1, i2, i3, i4] = A[i1 - 2, i2, i3 - 2, i4] + B[i1, i2, i3, i4]"
            )
            .build()
        )

    def test_pdm_and_parallelism(self, nest):
        pdm = PseudoDistanceMatrix.from_loop_nest(nest)
        assert pdm.rank == 1
        assert pdm.depth == 4
        report = analyze_nest(nest)
        # rank-1 PDM in a 4-deep nest: three doall loops plus 2 partitions
        assert report.parallel_loop_count == 3
        assert report.partition_count == 2
        assert report.transform_is_legal()

    def test_soundness_and_semantics(self, nest):
        pdm = PseudoDistanceMatrix.from_loop_nest(nest)
        for distance in realized_distances(nest):
            assert pdm.contains_distance(list(distance))
        report = analyze_nest(nest)
        result = verify_transformation(nest, report, check_executors=())
        assert result.passed

    def test_schedule_parallelism(self, nest):
        report = analyze_nest(nest)
        plan = TransformedLoopNest.from_report(report).execution_plan()
        assert plan.statistics()["ideal_speedup"] > 8


class TestTriangularSpaces:
    def test_triangular_partitioned_recurrence(self):
        nest = (
            loop_nest("triangular")
            .loop("i1", 1, 10)
            .loop("i2", 1, "i1")
            .statement("A[i1, i2] = A[i1 - 2, i2] + A[i1, i2 - 2] + 1.0")
            .build()
        )
        report = analyze_nest(nest)
        assert report.partition_count == 4
        result = verify_transformation(nest, report, check_executors=("serial",))
        assert result.passed, result.describe()

    def test_triangular_variable_distance(self):
        nest = (
            loop_nest("triangular-variable")
            .loop("i1", -8, 8)
            .loop("i2", "i1 - 4", "i1 + 4")
            .statement("A[i1, i2] = A[-i1 - 2, 2*i1 + i2 + 2] + 1.0")
            .build()
        )
        pdm = PseudoDistanceMatrix.from_loop_nest(nest)
        assert pdm.matrix == [[2, -2]]
        report = analyze_nest(nest)
        result = verify_transformation(nest, report, check_executors=())
        assert result.passed, result.describe()
        for distance in realized_distances(nest):
            assert pdm.contains_distance(list(distance))
