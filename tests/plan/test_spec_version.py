"""Spec-versioned plan pickling.

Plans cross process boundaries (the worker pool), and the spec version
stamps disk-cache entries that a different build may read back.  The
pickle therefore carries ``ExecutionPlan.SPEC_VERSION`` and unpickling
rejects any other version with a clear error — a silently misinterpreted
spec field would corrupt results without any signal.
"""

import pickle

import pytest

from repro.api import Session
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.exceptions import CodegenError
from repro.plan import ExecutionPlan
from repro.workloads.paper_examples import example_4_1


def _plan(n: int = 8) -> ExecutionPlan:
    report = analyze_nest(example_4_1(n))
    return TransformedLoopNest.from_report(report).execution_plan()


class TestSpecVersion:
    def test_roundtrip_carries_current_version(self):
        plan = _plan()
        state = plan.__getstate__()
        assert state["spec_version"] == ExecutionPlan.SPEC_VERSION
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.chunk_sizes() == plan.chunk_sizes()
        assert [chunk.key for chunk in clone.select_chunks()] == [
            chunk.key for chunk in plan.select_chunks()
        ]

    @pytest.mark.parametrize("bad_version", [0, 2, "1", None])
    def test_mismatched_version_rejected_with_clear_error(self, bad_version):
        plan = _plan()
        state = plan.__getstate__()
        state["spec_version"] = bad_version
        payload = pickle.dumps((type(plan), state))
        cls, state = pickle.loads(payload)
        clone = cls.__new__(cls)
        with pytest.raises(CodegenError, match="spec"):
            clone.__setstate__(state)

    def test_missing_version_field_rejected(self):
        # Pre-versioning pickles have no spec_version at all: they must be
        # refused too (version 0), not silently loaded.
        plan = _plan()
        state = plan.__getstate__()
        del state["spec_version"]
        clone = type(plan).__new__(type(plan))
        with pytest.raises(CodegenError, match="version 0"):
            clone.__setstate__(state)

    def test_optimized_plans_inherit_the_mechanism(self):
        # A session's coalesced plan goes through the same version check.
        with Session(mode="shared", backend="vectorized") as session:
            nest = example_4_1(8)
            analysis = session._analyze_nest(nest, placement=None, name=None)
            _, plan = session._program_for(nest, analysis.report)
        state = plan.__getstate__()
        assert state["spec_version"] == ExecutionPlan.SPEC_VERSION
        state["spec_version"] = 99
        clone = type(plan).__new__(type(plan))
        with pytest.raises(CodegenError, match="99"):
            clone.__setstate__(state)
        # And an untampered roundtrip still works.
        assert pickle.loads(pickle.dumps(plan)).chunk_sizes() == plan.chunk_sizes()
