"""The feedback-driven scheduling loop: telemetry store + cost-aware LPT.

Three contracts pinned here:

* the :class:`ExecutionTelemetry` cost model itself (EWMA folding,
  proportional attribution of group wall clock, cold fallback, LRU bound);
* **bit-identical results across balancing policies**: telemetry-driven
  grouping only changes which worker runs which chunk, so every executor
  mode produces exactly the serial reference store whether the program is
  cold (size-based LPT) or warm with arbitrary measured costs;
* **better makespans on skewed costs**: when measured per-chunk costs
  disagree with the closed-form sizes (a big-but-cheap chunk), cost-aware
  grouping must beat size-based grouping by ≥ 1.2x on the synthetic
  workload below — the acceptance bar of the feedback loop.
"""

import os

import numpy as np
import pytest

from repro.api import Session
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.runtime.arrays import store_for_nest
from repro.runtime.executor import ParallelExecutor
from repro.runtime.interpreter import execute_nest
from repro.runtime.telemetry import ExecutionTelemetry, makespan
from repro.workloads.paper_examples import example_4_1
from repro.workloads.synthetic import no_dependence_loop, variable_distance_loop


needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="shared mode needs /dev/shm"
)


def _transformed(nest):
    return TransformedLoopNest.from_report(analyze_nest(nest))


# --------------------------------------------------------------------------- #
# the cost model
# --------------------------------------------------------------------------- #
class TestExecutionTelemetry:
    def test_cold_program_returns_none(self):
        telemetry = ExecutionTelemetry()
        assert telemetry.chunk_costs("prog:4", (10, 10, 10, 10)) is None

    def test_singleton_observations_are_exact(self):
        telemetry = ExecutionTelemetry(alpha=1.0)
        telemetry.record_group("p:2", (0,), (10,), 0.5)
        telemetry.record_group("p:2", (1,), (10,), 1.5)
        assert telemetry.chunk_costs("p:2", (10, 10)) == [0.5, 1.5]

    def test_ewma_folds_newest_observation(self):
        telemetry = ExecutionTelemetry(alpha=0.5)
        telemetry.record_group("p:1", (0,), (10,), 1.0)
        telemetry.record_group("p:1", (0,), (10,), 3.0)
        # 0.5 * 1.0 + 0.5 * 3.0
        assert telemetry.chunk_costs("p:1", (10,)) == [2.0]

    def test_group_time_split_proportionally_to_size_when_cold(self):
        telemetry = ExecutionTelemetry(alpha=1.0)
        telemetry.record_group("p:2", (0, 1), (30, 10), 4.0)
        assert telemetry.chunk_costs("p:2", (30, 10)) == [3.0, 1.0]

    def test_unobserved_chunk_estimated_at_program_rate(self):
        telemetry = ExecutionTelemetry(alpha=1.0)
        # 20 iterations in 2 s -> 0.1 s/iteration.
        telemetry.record_group("p:3", (0,), (20,), 2.0)
        costs = telemetry.chunk_costs("p:3", (20, 5, 10))
        assert costs == pytest.approx([2.0, 0.5, 1.0])

    def test_known_costs_weight_later_group_splits(self):
        telemetry = ExecutionTelemetry(alpha=1.0)
        telemetry.record_group("p:2", (0,), (10,), 3.0)
        telemetry.record_group("p:2", (1,), (10,), 1.0)
        # A joint observation splits 4 s by the known 3:1 costs, not 1:1.
        telemetry.record_group("p:2", (0, 1), (10, 10), 4.0)
        assert telemetry.chunk_costs("p:2", (10, 10)) == [3.0, 1.0]

    def test_observation_counters(self):
        telemetry = ExecutionTelemetry()
        assert telemetry.observations("p:1") == 0
        telemetry.record_group("p:1", (0,), (5,), 0.1)
        telemetry.record_group("p:1", (0,), (5,), 0.1)
        assert telemetry.observations("p:1") == 2
        snap = telemetry.snapshot()
        assert snap == {"programs": 1, "observations": 2, "chunks_profiled": 1}

    def test_lru_bound_evicts_oldest_program(self):
        telemetry = ExecutionTelemetry(max_programs=2)
        telemetry.record_group("a:1", (0,), (5,), 0.1)
        telemetry.record_group("b:1", (0,), (5,), 0.1)
        telemetry.record_group("c:1", (0,), (5,), 0.1)
        assert len(telemetry) == 2
        assert telemetry.chunk_costs("a:1", (5,)) is None
        assert telemetry.chunk_costs("c:1", (5,)) is not None

    def test_query_refreshes_lru_position(self):
        telemetry = ExecutionTelemetry(max_programs=2)
        telemetry.record_group("a:1", (0,), (5,), 0.1)
        telemetry.record_group("b:1", (0,), (5,), 0.1)
        telemetry.chunk_costs("a:1", (5,))  # touch a -> b is now oldest
        telemetry.record_group("c:1", (0,), (5,), 0.1)
        assert telemetry.chunk_costs("a:1", (5,)) is not None
        assert telemetry.chunk_costs("b:1", (5,)) is None

    def test_clear(self):
        telemetry = ExecutionTelemetry()
        telemetry.record_group("a:1", (0,), (5,), 0.1)
        telemetry.clear()
        assert len(telemetry) == 0

    def test_empty_or_negative_observations_ignored(self):
        telemetry = ExecutionTelemetry()
        telemetry.record_group("a:1", (), (), 1.0)
        telemetry.record_group("a:1", (0,), (5,), -1.0)
        assert telemetry.chunk_costs("a:1", (5,)) is None

    def test_mismatched_lengths_rejected(self):
        telemetry = ExecutionTelemetry()
        with pytest.raises(ValueError):
            telemetry.record_group("a:1", (0, 1), (5,), 1.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
    def test_invalid_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            ExecutionTelemetry(alpha=alpha)

    def test_invalid_max_programs_rejected(self):
        with pytest.raises(ValueError):
            ExecutionTelemetry(max_programs=0)

    def test_invalid_max_chunks_rejected(self):
        with pytest.raises(ValueError):
            ExecutionTelemetry(max_chunks=0)

    def test_plans_beyond_max_chunks_stay_cold(self):
        # Per-chunk attribution over huge plans is noise, and the O(chunks)
        # recording loop would dominate the execution it measures: such
        # plans are never profiled and always read back cold.
        telemetry = ExecutionTelemetry(max_chunks=3)
        telemetry.record_group("big:4", (0, 1, 2, 3), (5, 5, 5, 5), 1.0)
        assert telemetry.chunk_costs("big:4", (5, 5, 5, 5)) is None
        assert telemetry.observations("big:4") == 0
        telemetry.record_group("ok:3", (0, 1, 2), (5, 5, 5), 1.0)
        assert telemetry.chunk_costs("ok:3", (5, 5, 5)) is not None

    def test_makespan_helper(self):
        assert makespan([], [1.0]) == 0.0
        assert makespan([(0, 2), (1,)], [1.0, 5.0, 2.0]) == 5.0


# --------------------------------------------------------------------------- #
# the executor integration
# --------------------------------------------------------------------------- #
class TestGroupsFor:
    def test_cold_key_matches_size_based_grouping(self):
        executor = ParallelExecutor(workers=3)
        sizes = (9, 7, 5, 3)
        assert executor.groups_for(sizes, "cold:4") == executor._balanced_groups(sizes)

    def test_none_key_matches_size_based_grouping(self):
        executor = ParallelExecutor(workers=3)
        sizes = (9, 7, 5, 3)
        assert executor.groups_for(sizes, None) == executor._balanced_groups(sizes)

    def test_warm_key_balances_by_measured_cost(self):
        executor = ParallelExecutor(workers=2)
        key = "warm:3"
        # Chunk 0 is big but cheap; chunks 1 and 2 small but expensive.
        for index, size, cost in [(0, 10, 1.0), (1, 6, 6.0), (2, 5, 5.0)]:
            executor.telemetry.record_group(key, (index,), (size,), cost)
        warm = executor.groups_for((10, 6, 5), key)
        cold = executor._balanced_groups((10, 6, 5))
        assert warm != cold
        loads = sorted(
            sum([1.0, 6.0, 5.0][i] for i in group) for group in warm
        )
        assert loads == [6.0, 6.0]

    def test_telemetry_key_stable_and_chunk_count_scoped(self, ex41_small):
        executor = ParallelExecutor()
        transformed = _transformed(ex41_small)
        key_a = executor.telemetry_key(transformed, 8)
        key_b = executor.telemetry_key(transformed, 8)
        key_c = executor.telemetry_key(transformed, 4)
        assert key_a == key_b
        assert key_a != key_c

    def test_skewed_costs_beat_size_grouping_by_1_2x(self):
        """Acceptance bar: ≥ 1.2x better makespan on skewed per-chunk costs."""
        executor = ParallelExecutor(workers=2)
        key = "skew:3"
        sizes = (10, 6, 5)
        true_costs = [1.0, 6.0, 5.0]
        for index, (size, cost) in enumerate(zip(sizes, true_costs)):
            executor.telemetry.record_group(key, (index,), (size,), cost)
        size_groups = executor._balanced_groups(sizes)
        cost_groups = executor.groups_for(sizes, key)
        size_makespan = makespan(size_groups, true_costs)
        cost_makespan = makespan(cost_groups, true_costs)
        assert size_makespan / cost_makespan >= 1.2


# --------------------------------------------------------------------------- #
# recording through real executions
# --------------------------------------------------------------------------- #
class TestRecordingPaths:
    @pytest.mark.parametrize("backend", ["compiled", "native"])
    @pytest.mark.parametrize("mode", ["serial", "native-parallel"])
    def test_whole_plan_runs_record_nothing(self, mode, backend):
        # One time for every chunk, split by size, would only rescale the
        # sizes the driver's schedule choice already reads: not recorded.
        with Session(mode=mode, backend=backend, workers=2) as session:
            session.run(example_4_1(8))
            session.run(example_4_1(8))
            assert len(session.telemetry) == 0

    @needs_dev_shm
    def test_shared_runs_record_per_group(self, ex41_small):
        transformed = _transformed(ex41_small)
        plan = transformed.execution_plan()
        with ParallelExecutor(mode="shared", workers=2, backend="compiled") as executor:
            executor.run(transformed, store_for_nest(ex41_small), plan=plan)
            key = executor.telemetry_key(transformed, plan.chunk_count)
            # One observation per dispatched group.
            assert executor.telemetry.observations(key) == 2

    @needs_dev_shm
    def test_optimized_plan_runs_feed_their_own_key(self, ex41_small):
        # A coalesced plan orders its chunks differently from the raw plan,
        # so its observations must never land under the raw plan's key.
        from repro.plan import optimize_plan

        transformed = _transformed(ex41_small)
        raw = transformed.execution_plan()
        plan, _ = optimize_plan(raw, transformed, passes=("coalesce",))
        assert plan.chunk_count != raw.chunk_count
        with ParallelExecutor(mode="shared", workers=2, backend="compiled") as executor:
            executor.run(transformed, store_for_nest(ex41_small), plan=plan)
            assert len(executor.telemetry) == 1
            key = executor.telemetry_key(transformed, plan.chunk_count)
            raw_key = executor.telemetry_key(transformed, raw.chunk_count)
            assert executor.telemetry.observations(key) > 0
            assert executor.telemetry.observations(raw_key) == 0

    @needs_dev_shm
    def test_injected_store_is_shared(self, ex41_small):
        telemetry = ExecutionTelemetry()
        transformed = _transformed(ex41_small)
        with ParallelExecutor(mode="shared", workers=2, backend="compiled",
                              telemetry=telemetry) as executor:
            assert executor.telemetry is telemetry
            executor.run(transformed, store_for_nest(ex41_small))
        assert len(telemetry) == 1


# --------------------------------------------------------------------------- #
# bit-identical results across balancing policies, every mode
# --------------------------------------------------------------------------- #
NESTS = [
    ("example_4_1", lambda: example_4_1(8)),
    ("variable_distance", lambda: variable_distance_loop(8)),
    ("independent", lambda: no_dependence_loop(6)),
]


def _skewed_telemetry(executor, transformed, chunk_sizes):
    """Seed measured costs that disagree maximally with the sizes."""
    key = executor.telemetry_key(transformed, len(chunk_sizes))
    for index, size in enumerate(chunk_sizes):
        # Reverse the size order: big chunks get tiny costs and vice versa.
        cost = float(max(chunk_sizes) - size + 1)
        executor.telemetry.record_group(key, (index,), (size,), cost)
    return key


@pytest.mark.parametrize("nest_name,make_nest", NESTS, ids=[n for n, _ in NESTS])
@pytest.mark.parametrize("mode", ["serial", "shared", "native-parallel"])
def test_bit_identical_across_policies_all_modes(nest_name, make_nest, mode):
    """Cold (size-LPT), warm (measured-cost LPT) and adversarially skewed
    telemetry all produce exactly the interpreter reference store."""
    nest = make_nest()
    transformed = _transformed(nest)
    plan = transformed.execution_plan()
    chunk_sizes = tuple(plan.chunk_sizes())

    reference = store_for_nest(nest)
    execute_nest(nest, reference)

    with ParallelExecutor(mode=mode, workers=3, backend="compiled") as executor:
        # Cold run: size-based grouping (the old behavior).
        cold = store_for_nest(nest)
        executor.run(transformed, cold, plan=plan)
        # Warm run: grouping now driven by the costs the cold run recorded.
        warm = store_for_nest(nest)
        executor.run(transformed, warm, plan=plan)
        # Adversarial: measured costs anti-correlated with sizes.
        _skewed_telemetry(executor, transformed, chunk_sizes)
        skewed = store_for_nest(nest)
        executor.run(transformed, skewed, plan=plan)

    for store in (cold, warm, skewed):
        assert set(store.keys()) == set(reference.keys())
        for name in reference.keys():
            np.testing.assert_array_equal(store[name].data, reference[name].data)
