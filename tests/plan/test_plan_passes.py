"""Property tests: plan optimization passes are bit-exact rewrites.

Every pass in :mod:`repro.plan.passes` must preserve the differential
contract of the plan IR exactly:

* the *multiset* of executed iterations equals the enumeration reference's
  (``build_schedule_by_enumeration``) — every iteration once, none added;
* executing the rewritten plan leaves the store bit-identical to the
  interpreter reference, through every backend and executor mode;
* closed-form totals (``total_iterations``, summed chunk sizes) are
  unchanged.

Checked over the workload suite (both placements) and seeded random nests,
plus targeted tests of coalescing's structural guarantee (it actually
reduces the chunk count on example 4.1).
"""

import os

import numpy as np
import pytest

from repro.codegen.schedule import build_schedule_by_enumeration
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.exceptions import CodegenError
from repro.loopnest.builder import loop_nest
from repro.plan import (
    DEFAULT_PLAN_PASSES,
    CoalesceChunksPass,
    PlanPassManager,
    available_plan_passes,
    build_plan_pipeline,
    get_plan_pass,
    optimize_plan,
)
from repro.runtime.arrays import store_for_nest
from repro.runtime.backends import get_backend
from repro.runtime.executor import ParallelExecutor
from repro.runtime.interpreter import execute_nest
from repro.workloads.paper_examples import example_4_1
from repro.workloads.suite import workload_suite

SUITE = workload_suite(6)
SUITE_IDS = [case.name for case in SUITE]

needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="shared mode needs /dev/shm"
)


def _transformed(nest, placement="outer"):
    return TransformedLoopNest.from_report(analyze_nest(nest, placement=placement))


def _iteration_multiset(transformed, plan):
    iterations = []
    for view in plan.chunks():
        iterations.extend(view.iterations)
    return sorted(iterations)


def _reference_multiset(transformed):
    return sorted(
        iteration
        for chunk in build_schedule_by_enumeration(transformed)
        for iteration in chunk.iterations
    )


def _reference_store(nest):
    store = store_for_nest(nest)
    execute_nest(nest, store)
    return store


def _random_nest(rng: np.random.Generator):
    """Same random family as test_plan_equivalence: the IR's hard corners."""
    n = int(rng.integers(3, 8))
    pattern = int(rng.integers(0, 3))
    if pattern == 0:
        a, b = int(rng.integers(1, 4)), int(rng.integers(0, 4))
        body = f"A[i1, i2] = A[i1 - {a}, i2 - {b}] * 0.5 + 1.0"
    elif pattern == 1:
        p, q = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        body = f"A[{p}*i1 + i2] = A[{p}*i1 + i2 - {q}] + 1.0"
    else:
        a = 2 * int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        body = f"A[i1, i2] = A[-i1 - {a}, {m}*i1 + i2 + {a}] + 1.0"
    lo = int(rng.integers(-3, 1))
    builder = loop_nest(f"random-{pattern}").loop("i1", lo, lo + n)
    if rng.integers(0, 2):
        builder = builder.loop("i2", "i1", lo + n)
    else:
        builder = builder.loop("i2", lo, lo + n)
    builder.statement(body)
    return builder.build()


# --------------------------------------------------------------------------- #
# coalescing
# --------------------------------------------------------------------------- #

class TestCoalesce:
    @pytest.mark.parametrize("case", SUITE, ids=SUITE_IDS)
    @pytest.mark.parametrize("placement", ["outer", "inner"])
    def test_iteration_multiset_preserved(self, case, placement):
        transformed = _transformed(case.nest, placement)
        plan, _ = optimize_plan(
            transformed.execution_plan(), transformed, passes=("coalesce",)
        )
        assert _iteration_multiset(transformed, plan) == _reference_multiset(
            transformed
        )
        assert plan.total_iterations == transformed.iteration_count()
        assert sum(plan.chunk_sizes()) == plan.total_iterations

    def test_reduces_chunks_on_example_41(self):
        transformed = _transformed(example_4_1(64))
        base = transformed.execution_plan()
        coalesced, ctx = optimize_plan(base, transformed, passes=("coalesce",))
        # 2 labels fold, then adjacent fronts merge pairwise: >= 2x fewer.
        assert coalesced.chunk_count * 2 <= base.chunk_count
        assert any(step.name == "coalesce" for step in ctx.steps)

    def test_small_plans_left_alone(self):
        # Below min_chunks there is nothing to trade: the plan is unchanged.
        transformed = _transformed(example_4_1(6))
        base = transformed.execution_plan()
        pass_ = CoalesceChunksPass(min_chunks=10**6)
        ctx = PlanPassManager([pass_]).optimize([base], (transformed,))
        assert ctx.plans[0] is base

    def test_degenerate_options_clamp_to_label_folding(self):
        # Options below 1 clamp to 1 rather than fail; block 1 disables
        # front blocking, so only the partition labels fold: one chunk per
        # parallel front of the raw plan.
        pass_ = CoalesceChunksPass(min_chunks=0, block=0)
        assert (pass_.min_chunks, pass_.block) == (1, 1)
        transformed = _transformed(example_4_1(16))
        base = transformed.execution_plan()
        ctx = PlanPassManager([pass_]).optimize([base], (transformed,))
        [folded] = ctx.plans
        assert base.partition_levels and folded.partition_levels == ()
        assert all(level.block == 1 for level in folded.levels)
        fronts = {parallel_values for parallel_values, _ in base.chunk_keys()}
        assert folded.chunk_count == len(fronts) < base.chunk_count
        [step] = ctx.steps
        assert "folded partition labels" in step.description
        assert "blocked" not in step.description
        assert _iteration_multiset(transformed, folded) == _reference_multiset(
            transformed
        )

    @pytest.mark.parametrize("backend", ["interpreter", "compiled", "vectorized"])
    def test_results_bit_identical(self, backend):
        for case in SUITE:
            transformed = _transformed(case.nest)
            plan, _ = optimize_plan(
                transformed.execution_plan(),
                transformed,
                passes=("coalesce",),
            )
            store = store_for_nest(case.nest)
            get_backend(backend).execute_plan(transformed, plan, store)
            assert _reference_store(case.nest).identical(store), case.name

    def test_random_nests_bit_identical(self):
        rng = np.random.default_rng(20260807)
        backend = get_backend("compiled")
        for _ in range(25):
            nest = _random_nest(rng)
            transformed = _transformed(nest)
            plan, _ = optimize_plan(
                transformed.execution_plan(),
                transformed,
                passes=("coalesce",),
            )
            assert _iteration_multiset(transformed, plan) == _reference_multiset(
                transformed
            )
            store = store_for_nest(nest)
            backend.execute_plan(transformed, plan, store)
            assert _reference_store(nest).identical(store)


# --------------------------------------------------------------------------- #
# the default pipeline, end to end
# --------------------------------------------------------------------------- #

class TestPipeline:
    @pytest.mark.parametrize("case", SUITE, ids=SUITE_IDS)
    def test_default_pipeline_matches_reference(self, case):
        transformed = _transformed(case.nest)
        plan, ctx = optimize_plan(transformed.execution_plan(), transformed)
        assert _iteration_multiset(transformed, plan) == _reference_multiset(
            transformed
        )
        for backend in ("compiled", "vectorized"):
            store = store_for_nest(case.nest)
            get_backend(backend).execute_plan(transformed, plan, store)
            assert _reference_store(case.nest).identical(store)

    def test_timings_and_steps_recorded(self):
        transformed = _transformed(example_4_1(64))
        _, ctx = optimize_plan(transformed.execution_plan(), transformed)
        assert [timing.name for timing in ctx.timings] == list(DEFAULT_PLAN_PASSES)
        assert all(timing.seconds >= 0.0 for timing in ctx.timings)
        assert ctx.steps  # at least the coalesce rewrite fired at N=64

    @pytest.mark.parametrize("mode", ["serial", "native-parallel"])
    def test_executor_modes_match_reference(self, mode):
        transformed = _transformed(example_4_1(24))
        plan, _ = optimize_plan(transformed.execution_plan(), transformed)
        nest = example_4_1(24)
        store = store_for_nest(nest)
        executor = ParallelExecutor(mode=mode, workers=2, backend="compiled")
        executor.run(transformed, store, plan=plan)
        assert _reference_store(nest).identical(store)

    @needs_dev_shm
    def test_shared_mode_matches_reference(self):
        transformed = _transformed(example_4_1(24))
        plan, _ = optimize_plan(transformed.execution_plan(), transformed)
        nest = example_4_1(24)
        store = store_for_nest(nest)
        executor = ParallelExecutor(mode="shared", workers=2, backend="vectorized")
        try:
            executor.run(transformed, store, plan=plan)
        finally:
            executor.close()
        assert _reference_store(nest).identical(store)


# --------------------------------------------------------------------------- #
# the registry
# --------------------------------------------------------------------------- #

class TestRegistry:
    def test_builtin_passes_registered(self):
        names = available_plan_passes()
        assert "coalesce" in names
        assert names == tuple(sorted(names))

    def test_unknown_pass_rejected(self):
        with pytest.raises(CodegenError, match="unknown plan pass"):
            get_plan_pass("definitely-not-a-pass")

    def test_build_pipeline_instantiates_fresh_passes(self):
        first = build_plan_pipeline(("coalesce",))
        second = build_plan_pipeline(("coalesce",))
        assert first.passes[0] is not second.passes[0]

    def test_factory_options_pass_through(self):
        pass_ = get_plan_pass("coalesce", min_chunks=17, block=3)
        assert (pass_.min_chunks, pass_.block) == (17, 3)
