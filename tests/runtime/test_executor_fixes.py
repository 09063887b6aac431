"""Regression tests for the executor's scheduling and dispatch fixes.

Three historical bugs, each pinned here:

* chunk→worker grouping used round-robin, ignoring the loads it had
  already dealt — adversarial size distributions left one group with
  nearly twice the work.  Now greedy least-loaded (LPT);
* cluster payloads shipped ``store.copy()`` — *every* array, once per
  group — even though a worker only touches the arrays its nest
  references.  Now only the referenced arrays cross the boundary;
* a zero-iteration run reported ``ideal_speedup == 1.0`` ("no
  parallelism") instead of 0.0 ("no work").
"""

import pickle

import numpy as np
import pytest

from repro.codegen.schedule import schedule_statistics
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.runtime.arrays import ArrayStore, OffsetArray, store_for_nest
from repro.cluster.client import _payload_store
from repro.runtime.executor import ParallelExecutor
from repro.runtime.interpreter import execute_nest
from repro.workloads.paper_examples import example_4_1


def _transformed(nest):
    return TransformedLoopNest.from_report(analyze_nest(nest))


class TestBalancedGroups:
    def test_adversarial_sizes_balance(self):
        # Round-robin deals 9,5 / 7,3 = 14 vs 10; LPT gives 9,3 / 7,5 = 12 vs 12.
        executor = ParallelExecutor(mode="threads", workers=2)
        groups = executor._balanced_groups([9, 7, 5, 3])
        loads = sorted(sum([9, 7, 5, 3][i] for i in group) for group in groups)
        assert loads == [12, 12]

    def test_descending_runs_do_not_pile_up(self):
        # The classic round-robin killer: strictly descending sizes where
        # consecutive pairs always land on the same worker.
        sizes = [64, 32, 16, 8, 4, 2, 1, 1]
        executor = ParallelExecutor(mode="threads", workers=4)
        groups = executor._balanced_groups(sizes)
        loads = [sum(sizes[i] for i in group) for group in groups]
        # LPT keeps the makespan at the single biggest chunk here.
        assert max(loads) == 64

    def test_every_chunk_assigned_exactly_once(self):
        rng = np.random.default_rng(7)
        sizes = [int(value) for value in rng.integers(1, 100, size=37)]
        executor = ParallelExecutor(mode="threads", workers=5)
        groups = executor._balanced_groups(sizes)
        assigned = sorted(index for group in groups for index in group)
        assert assigned == list(range(len(sizes)))

    def test_deterministic(self):
        sizes = [5, 5, 5, 5, 2, 2]
        executor = ParallelExecutor(mode="threads", workers=3)
        assert executor._balanced_groups(sizes) == executor._balanced_groups(sizes)

    def test_never_worse_than_twice_optimal(self):
        # LPT's 4/3 bound, checked loosely over random instances.
        rng = np.random.default_rng(11)
        for _ in range(20):
            sizes = [int(value) for value in rng.integers(1, 50, size=24)]
            workers = int(rng.integers(2, 6))
            executor = ParallelExecutor(mode="threads", workers=workers)
            groups = executor._balanced_groups(sizes)
            loads = [sum(sizes[i] for i in group) for group in groups]
            lower_bound = max(max(sizes), sum(sizes) / workers)
            assert max(loads) <= 2 * lower_bound


class TestPayloadStore:
    def test_only_referenced_arrays_ship(self):
        nest = example_4_1(12)
        transformed = _transformed(nest)
        store = store_for_nest(nest)
        # An unrelated array the nest never touches must not cross the
        # process boundary.
        store["UNRELATED"] = OffsetArray(origin=(0, 0), shape=(512, 512))
        payload = _payload_store(store, transformed)
        assert set(payload) == set(transformed.nest.array_names())
        assert "UNRELATED" not in payload
        assert len(pickle.dumps(payload)) < len(pickle.dumps(store))

    def test_payload_arrays_are_copies(self):
        nest = example_4_1(8)
        transformed = _transformed(nest)
        store = store_for_nest(nest)
        payload = _payload_store(store, transformed)
        name = next(iter(payload))
        before = store[name].data.copy()
        payload[name].data[...] += 1.0
        assert np.array_equal(store[name].data, before)

    def test_missing_referenced_array_omitted(self):
        nest = example_4_1(8)
        transformed = _transformed(nest)
        payload = _payload_store(ArrayStore(), transformed)
        assert len(payload) == 0  # worker raises the standard error later

    def test_shared_run_still_correct_with_extra_arrays(self):
        nest = example_4_1(10)
        transformed = _transformed(nest)
        reference = store_for_nest(nest)
        execute_nest(nest, reference)
        store = store_for_nest(nest)
        store["UNRELATED"] = OffsetArray(origin=(0, 0), shape=(4, 4), fill=7.0)
        with ParallelExecutor(mode="shared", workers=2, backend="compiled") as executor:
            executor.run(transformed, store, plan=transformed.execution_plan())
        assert (store["UNRELATED"].data == 7.0).all()
        del store["UNRELATED"]
        assert reference.identical(store)


class TestEmptyScheduleSpeedup:
    def test_schedule_statistics_empty(self):
        stats = schedule_statistics([])
        assert stats["ideal_speedup"] == 0.0
        assert stats["num_chunks"] == 0

    def test_plan_statistics_nonempty_consistency(self):
        transformed = _transformed(example_4_1(10))
        stats = transformed.execution_plan().statistics()
        assert stats["ideal_speedup"] == pytest.approx(
            stats["total_iterations"] / stats["max_chunk_size"]
        )
        assert stats["ideal_speedup"] > 0.0
