"""Chunk sizes come from the same bound evaluation the native packer reads.

For separable plans with fixed congruence targets, ``chunk_size`` is the
product of the cached per-level ``(start, stop, step)`` ranges, so
``chunk_sizes()`` and :func:`repro.codegen.native.packed_ranges_for` share
one evaluation of every chunk level's bounds.  These tests pin the sharing
(white-box: counters on ``_compute_value_ranges`` and ``_range``) and the
sizes against plain enumeration of each chunk, raw and coalesced, over the
suite.
"""

import pytest

from repro.codegen import native as native_codegen
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.plan import ExecutionPlan, optimize_plan
from repro.workloads.paper_examples import example_4_1
from repro.workloads.suite import workload_suite
from repro.workloads.synthetic import three_deep_variable_loop


def _plan(nest) -> ExecutionPlan:
    return ExecutionPlan.from_transformed(
        TransformedLoopNest.from_report(analyze_nest(nest))
    )


def _enumerated_sizes(plan):
    return [sum(1 for _ in plan.iterations_for(key)) for key in plan.key_list()]


class TestOneBoundEvaluationPerChunk:
    @pytest.mark.parametrize(
        "nest",
        [example_4_1(10), three_deep_variable_loop(6)],
        ids=["example-4.1", "three-deep"],
    )
    def test_sizing_and_packing_share_value_ranges(self, nest, monkeypatch):
        plan = _plan(nest)
        num_chunks = len(plan.key_list())  # discovery is not counted
        calls = {"chunks": 0, "levels": 0}
        compute_value_ranges = ExecutionPlan._compute_value_ranges
        bound_range = ExecutionPlan._range

        def counting_chunks(self, key):
            calls["chunks"] += 1
            return compute_value_ranges(self, key)

        def counting_levels(self, level, prefix):
            calls["levels"] += 1
            return bound_range(self, level, prefix)

        monkeypatch.setattr(ExecutionPlan, "_compute_value_ranges", counting_chunks)
        monkeypatch.setattr(ExecutionPlan, "_range", counting_levels)
        sizes = plan.chunk_sizes()
        assert native_codegen.packed_ranges_for(plan) is not None
        assert len(sizes) == num_chunks
        assert calls["chunks"] == num_chunks
        assert calls["levels"] == num_chunks * plan.depth


class TestSizesMatchEnumeration:
    @pytest.mark.parametrize("n", [7, 12])
    def test_suite_raw_and_coalesced(self, n):
        for case in workload_suite(n):
            plan = _plan(case.nest)
            coalesced, _ = optimize_plan(plan, passes=("coalesce",))
            for variant in (plan, coalesced):
                assert variant.chunk_sizes() == _enumerated_sizes(variant), case.name
                assert sum(variant.chunk_sizes()) == variant.total_iterations
