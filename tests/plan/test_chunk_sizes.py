"""Chunk sizes come from the plan's int64 tables, not per-chunk Python.

For separable plans with fixed congruence targets, ``chunk_sizes()``
evaluates the bound table over the key table's columns with NumPy, and
:func:`repro.codegen.native.packed_ranges_for` gathers key rows — neither
evaluates a bound in Python (white-box: a counter on ``_range``).  Every
other plan sizes chunk by chunk with the scan of ``chunk_size``.  These
tests pin both against the per-key Python reference and against plain
enumeration of each chunk, raw and coalesced, over the suite — and the
int64 overflow guard that sends a plan back to the Python paths.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from repro.codegen import native as native_codegen
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.intlin.fourier_motzkin import BoundExpression, VariableBounds
from repro.loopnest.builder import loop_nest
from repro.plan import ExecutionPlan, optimize_plan
from repro.runtime.arrays import store_for_nest
from repro.runtime.backends import NativeBackend
from repro.runtime.interpreter import execute_nest
from repro.workloads.paper_examples import example_4_1, example_4_2
from repro.workloads.suite import workload_suite
from repro.workloads.synthetic import three_deep_variable_loop


def _plan(nest) -> ExecutionPlan:
    return ExecutionPlan.from_transformed(
        TransformedLoopNest.from_report(analyze_nest(nest))
    )


def _enumerated_sizes(plan):
    return [sum(1 for _ in plan.iterations_for(key)) for key in plan.key_list()]


def _fresh(plan: ExecutionPlan) -> ExecutionPlan:
    """The same plan with empty caches."""
    return ExecutionPlan(
        plan.depth, plan.levels, plan.parallel_levels, plan.partition_levels,
        plan.hnf, plan.total_iterations,
    )


class TestNoPythonBoundEvaluation:
    @pytest.mark.parametrize(
        "nest",
        [example_4_1(10), three_deep_variable_loop(6)],
        ids=["example-4.1", "three-deep"],
    )
    def test_sizing_and_packing_evaluate_no_bound(self, nest, monkeypatch):
        plan = _plan(nest)
        num_chunks = len(plan.key_list())  # discovery is not counted
        calls = {"levels": 0}
        bound_range = ExecutionPlan._range

        def counting_levels(self, level, prefix):
            calls["levels"] += 1
            return bound_range(self, level, prefix)

        monkeypatch.setattr(ExecutionPlan, "_range", counting_levels)
        sizes = plan.chunk_sizes()
        assert native_codegen.packed_ranges_for(plan) is not None
        assert len(sizes) == num_chunks
        assert calls["levels"] == 0
        # The per-key Python path is the reference the table path matches.
        assert sizes == [plan.chunk_size(key) for key in plan.key_list()]
        assert calls["levels"] > 0


class TestSizesMatchEnumeration:
    @pytest.mark.parametrize("n", [7, 12])
    def test_suite_raw_and_coalesced(self, n):
        for case in workload_suite(n):
            plan = _plan(case.nest)
            coalesced, _ = optimize_plan(plan, passes=("coalesce",))
            for variant in (plan, coalesced):
                assert variant.chunk_sizes() == _enumerated_sizes(variant), case.name
                assert sum(variant.chunk_sizes()) == variant.total_iterations

    @pytest.mark.parametrize("n", [5, 8, 13])
    def test_table_sizes_match_per_key_reference(self, n):
        for case in workload_suite(n):
            plan = _plan(case.nest)
            coalesced, _ = optimize_plan(plan, passes=("coalesce",))
            for variant in (plan, coalesced):
                reference = [variant.chunk_size(key) for key in variant.key_list()]
                assert _fresh(variant).chunk_sizes() == reference, case.name

    def test_scan_sizes_shifting_targets_without_enumeration(self, monkeypatch):
        # Example 4.2's targets shift with the outer partition value, so
        # its chunks are sized by the scan, which must not enumerate.
        plan = _plan(example_4_2(11))
        assert not plan._fixed_targets
        expected = _enumerated_sizes(plan)
        monkeypatch.setattr(
            ExecutionPlan, "iterations_for",
            lambda self, key: pytest.fail("chunk sizing enumerated a chunk"),
        )
        assert _fresh(plan).chunk_sizes() == expected


# ---------------------------------------------------------------------------
# the int64 overflow guard
# ---------------------------------------------------------------------------

def _triangle(n):
    return (
        loop_nest("guarded-triangle")
        .loop("i1", 0, n)
        .loop("i2", 0, "i1")
        .statement("A[i1, i2] = A[i1, i2 - 1] * 0.5 + 1.0")
        .build()
    )


def _oversized_plan(transformed) -> ExecutionPlan:
    """The triangle's plan with ``i2 <= i1`` spelled with huge numerators.

    ``floor((2**60 + 1) * i1 / 2**60)`` equals ``i1`` for ``0 <= i1 <
    2**60``, so the plan describes the same iterations, but its integer
    numerator times the index range exceeds ``2**62``.
    """
    plan = transformed.execution_plan()
    inner = plan.levels[1]
    huge = BoundExpression((Fraction(2**60 + 1, 2**60),), Fraction(0))
    levels = list(plan.levels)
    levels[1] = replace(
        inner,
        bounds=VariableBounds(variable=1, lowers=inner.bounds.lowers, uppers=(huge,)),
    )
    return ExecutionPlan(
        plan.depth, levels, plan.parallel_levels, plan.partition_levels,
        plan.hnf, plan.total_iterations,
    )


class TestOverflowGuard:
    def test_oversized_numerators_have_no_tables(self, monkeypatch):
        nest = _triangle(7)
        transformed = TransformedLoopNest.from_report(analyze_nest(nest))
        reference = transformed.execution_plan()
        plan = _oversized_plan(transformed)
        assert plan.levels[1].bounds.uppers[0].numerators[0] * 7 > 2**62
        assert [list(plan.iterations_for(k)) for k in plan.key_list()] == [
            list(reference.iterations_for(k)) for k in reference.key_list()
        ]
        assert reference.bound_table() is not None
        assert plan.bound_table() is None and plan.key_table() is None
        assert native_codegen.packed_ranges_for(plan) is None
        assert native_codegen.packed_ranges_for(plan, (0,)) is None

        calls = {"levels": 0}
        bound_range = ExecutionPlan._range

        def counting_levels(self, level, prefix):
            calls["levels"] += 1
            return bound_range(self, level, prefix)

        monkeypatch.setattr(ExecutionPlan, "_range", counting_levels)
        sizes = plan.chunk_sizes()
        assert calls["levels"] > 0  # the Python path sized the chunks
        assert sizes == _enumerated_sizes(plan) == reference.chunk_sizes()

    def test_native_run_falls_back_bit_identically(self):
        nest = _triangle(7)
        transformed = TransformedLoopNest.from_report(analyze_nest(nest))
        plan = _oversized_plan(transformed)
        base = store_for_nest(nest)
        expected = base.copy()
        execute_nest(nest, expected)
        backend = NativeBackend()
        result = base.copy()
        backend.execute_plan(transformed, plan, result)
        assert expected.identical(result)
        assert backend.stats["fallback_runs"] == 1
        assert backend.stats["native_runs"] == 0
        assert backend.parallel_plan_refusal(transformed, plan) in (
            "the plan's tables exceed the int64 overflow guard",
            "no native engine",
        )
