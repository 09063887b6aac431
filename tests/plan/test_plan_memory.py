"""Large-N memory smoke tests: plans stay tiny where schedules explode.

The point of the ExecutionPlan IR is that nothing between analysis and
execution is O(total iterations) anymore.  These tests pin that:

* building the plan for an N>=512, depth-3 nest (>=137M iterations — far
  beyond what a materialized chunk list could hold) stays under
  a fixed tracemalloc budget and returns exact closed-form counts;
* the plan's pickle (what the worker pool ships per program) stays a few
  hundred bytes at sizes where the materialized schedule measures in the
  hundreds of megabytes;
* the worker-pool program payload carries the plan spec, not iteration
  lists.
"""

import pickle
import tracemalloc

from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.plan import ExecutionPlan
from repro.workloads.paper_examples import example_4_1
from repro.workloads.synthetic import three_deep_variable_loop

#: Generous ceiling for plan construction at huge N.  Materializing the
#: same schedule would need hundreds of bytes *per iteration* — orders of
#: magnitude past this budget — so a regression to materialization anywhere
#: on the construction path trips the assert immediately.
_BUDGET_BYTES = 8 * 1024 * 1024


def _traced_plan(nest) -> tuple:
    """(plan, peak tracemalloc bytes) for analysis -> transformed -> plan."""
    report = analyze_nest(nest)
    transformed = TransformedLoopNest.from_report(report)
    tracemalloc.start()
    try:
        plan = ExecutionPlan.from_transformed(transformed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return plan, peak


class TestLargeNConstruction:
    def test_depth3_n512_under_budget(self):
        # depth 3, N=512: (N+1)^2 * (N/2+1) ≈ 67.7M iterations.  At even 16
        # bytes per materialized iteration that would be >1 GB; the plan
        # must stay under the fixed budget.
        nest = three_deep_variable_loop(512)
        plan, peak = _traced_plan(nest)
        assert plan.total_iterations == nest.iteration_count()
        assert plan.total_iterations > 60_000_000
        assert peak < _BUDGET_BYTES, f"plan construction peaked at {peak} bytes"

    def test_example41_n4096_under_budget(self):
        # 16.8M iterations, ~2N chunks; counts and statistics must be
        # closed-form — the budget would not survive an enumeration of the
        # space, let alone a materialization.
        nest = example_4_1(4096)
        plan, peak = _traced_plan(nest)
        assert plan.total_iterations == (2 * 4096 + 1) ** 2
        assert peak < _BUDGET_BYTES, f"plan construction peaked at {peak} bytes"
        assert plan.chunk_count > 4096

    def test_closed_form_counts_match_enumeration_at_small_n(self):
        # The same closed forms that make N=4096 cheap must agree with
        # enumeration where enumeration is feasible.
        for n in (4, 7):
            nest = example_4_1(n)
            transformed = TransformedLoopNest.from_report(analyze_nest(nest))
            plan = transformed.execution_plan()
            assert plan.total_iterations == sum(1 for _ in transformed.iterations())
            assert plan.chunk_count == len(set(
                transformed.chunk_key(it) for it in transformed.iterations()
            ))


class TestPlanPickleSize:
    def test_pickle_stays_small_as_n_grows(self):
        sizes = {}
        for n in (64, 256, 1024):
            transformed = TransformedLoopNest.from_report(analyze_nest(example_4_1(n)))
            sizes[n] = len(pickle.dumps(ExecutionPlan.from_transformed(transformed)))
        # A few hundred bytes, independent of N (up to integer-width jitter
        # in the pickled bound constants).
        assert all(size < 2048 for size in sizes.values()), sizes
        assert max(sizes.values()) - min(sizes.values()) < 64, sizes

    def test_pool_program_payload_is_plan_not_iterations(self):
        # What run_job registers with the pool: the schedule member of the
        # program payload must be the plan spec (no Chunk lists anywhere).
        from repro.runtime.pool import WorkerPool

        transformed = TransformedLoopNest.from_report(analyze_nest(example_4_1(64)))
        plan = transformed.execution_plan()
        pool = WorkerPool(workers=1)
        try:
            program = pool._ensure_program(transformed, object(), plan)
            _, _, schedule = program.payload
            assert isinstance(schedule, ExecutionPlan)
            # The whole shipped schedule is a few hundred bytes while the
            # space holds (2*64+1)^2 = 16641 iterations.
            assert len(pickle.dumps(schedule)) < 2048
            assert plan.total_iterations == 129 * 129
        finally:
            pool.close()
