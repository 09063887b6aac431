"""End-to-end correctness over the whole workload suite and verification API."""

import pytest

from repro.core.pipeline import analyze_nest
from repro.core.pdm import PseudoDistanceMatrix
from repro.dependence.graph import realized_distances
from repro.runtime.arrays import store_for_nest
from repro.runtime.verification import verify_transformation


class TestSuiteEndToEnd:
    def test_every_workload_parallelizes_and_preserves_semantics(self, small_suite):
        for case in small_suite:
            report = analyze_nest(case.nest)
            assert report.transform_is_legal(), case.name
            result = verify_transformation(
                case.nest, report, check_emitted_code=True, check_executors=("serial",)
            )
            assert result.passed, f"{case.name}: {result.describe()}"

    def test_every_workload_pdm_is_sound(self, small_suite):
        for case in small_suite:
            pdm = PseudoDistanceMatrix.from_loop_nest(case.nest)
            for distance in realized_distances(case.nest):
                assert pdm.contains_distance(list(distance)), (case.name, distance)

    def test_inner_placement_also_correct(self, small_suite):
        for case in small_suite[:6]:
            report = analyze_nest(case.nest, placement="inner")
            result = verify_transformation(
                case.nest, report, check_emitted_code=False, check_executors=()
            )
            assert result.passed, case.name


class TestVerificationApi:
    def test_report_structure(self, ex41_small, ex41_report):
        result = verify_transformation(ex41_small, ex41_report)
        assert result.passed
        assert "transformed/lexicographic" in result.checks
        assert "transformed/emitted-code" in result.checks
        assert "executor/serial" in result.checks
        assert "executor/native-parallel" in result.checks
        assert "PASS" in result.describe()

    def test_accepts_prebuilt_store(self, ex41_small, ex41_report):
        store = store_for_nest(ex41_small, initializer="random", seed=3)
        result = verify_transformation(ex41_small, ex41_report, store=store)
        assert result.passed

    def test_random_initial_contents(self, ex42_small, ex42_report):
        store = store_for_nest(ex42_small, initializer="random", seed=11)
        result = verify_transformation(ex42_small, ex42_report, store=store)
        assert result.passed

    def test_detects_an_illegal_execution_order(self, ex41_small):
        """Sanity check that the verifier can actually fail.

        Reversing the outer loop is illegal for example 4.1 (it reverses the
        direction of the dependences); executing the reversed loop must give a
        different result, and the verifier must notice.
        """
        from repro.codegen.transformed_nest import TransformedLoopNest
        from repro.core.transforms import reversal

        wrong = TransformedLoopNest(nest=ex41_small, transform=reversal(2, 0))
        result = verify_transformation(
            ex41_small, wrong, check_emitted_code=False, check_executors=()
        )
        assert not result.passed
