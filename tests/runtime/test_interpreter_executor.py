"""Tests for the loop interpreter, parallel executors and the simulator."""

import pytest

from repro.codegen.schedule import Chunk, build_schedule
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.exceptions import ExecutionError
from repro.loopnest.builder import loop_nest
from repro.runtime.arrays import store_for_nest
from repro.runtime.executor import ParallelExecutor
from repro.runtime.interpreter import (
    execute_chunk,
    execute_nest,
    execute_schedule,
    execute_transformed,
)
from repro.runtime.simulator import SimulatedMachine, simulate_schedule
from repro.workloads.paper_examples import example_4_1, example_4_2


class TestInterpreter:
    def test_simple_accumulation(self):
        nest = (
            loop_nest("acc")
            .loop("i", 1, 4)
            .statement("A[i] = A[i - 1] + 1.0")
            .build()
        )
        store = store_for_nest(nest, initializer="zeros")
        store["A"][0] = 0.0
        execute_nest(nest, store)
        assert store["A"][4] == pytest.approx(4.0)

    def test_statement_order_within_iteration(self):
        nest = (
            loop_nest("order")
            .loop("i", 0, 3)
            .statement("A[i] = 2.0")
            .statement("B[i] = A[i] * 3.0")
            .build()
        )
        store = store_for_nest(nest, initializer="zeros")
        execute_nest(nest, store)
        assert store["B"][2] == pytest.approx(6.0)

    def test_iteration_budget(self, ex41_small):
        store = store_for_nest(ex41_small)
        with pytest.raises(ExecutionError):
            execute_nest(ex41_small, store, max_iterations=5)

    def test_transformed_orders_agree(self, ex41_report):
        transformed = TransformedLoopNest.from_report(ex41_report)
        base = store_for_nest(ex41_report.nest)
        reference = base.copy()
        execute_nest(ex41_report.nest, reference)
        for order in ("lexicographic", "chunks"):
            result = base.copy()
            execute_transformed(transformed, result, order=order)
            assert reference.allclose(result)

    def test_transformed_unknown_order(self, ex41_report):
        transformed = TransformedLoopNest.from_report(ex41_report)
        with pytest.raises(ExecutionError):
            execute_transformed(transformed, store_for_nest(ex41_report.nest), order="random")

    def test_execute_chunk_writes_in_place(self, ex42_report):
        # A chunk is independent of every other chunk, so running it alone
        # on a fresh store leaves exactly its cells as the full run does.
        transformed = TransformedLoopNest.from_report(ex42_report)
        [chunk] = transformed.execution_plan().select_chunks((0,))
        base = store_for_nest(ex42_report.nest)
        store = base.copy()
        assert execute_chunk(transformed, chunk, store) is None
        full = base.copy()
        execute_nest(ex42_report.nest, full)
        changed = 0
        for name in store.keys():
            touched = store[name].data != base[name].data
            assert (store[name].data[touched] == full[name].data[touched]).all()
            changed += int(touched.sum())
        assert changed > 0

    def test_execute_schedule_equals_reference(self, ex42_report):
        transformed = TransformedLoopNest.from_report(ex42_report)
        chunks = build_schedule(transformed)
        base = store_for_nest(ex42_report.nest)
        reference = base.copy()
        execute_nest(ex42_report.nest, reference)
        result = base.copy()
        execute_schedule(transformed, chunks, result)
        assert reference.allclose(result)


class TestParallelExecutor:
    @pytest.mark.parametrize("mode", ["serial", "threads"])
    def test_modes_match_reference(self, mode, ex41_report):
        nest = ex41_report.nest
        transformed = TransformedLoopNest.from_report(ex41_report)
        base = store_for_nest(nest)
        reference = base.copy()
        execute_nest(nest, reference)
        result = base.copy()
        outcome = ParallelExecutor(mode=mode, workers=4).run(transformed, result)
        assert reference.allclose(result)
        assert outcome.num_chunks > 1
        assert outcome.total_iterations == nest.iteration_count()
        assert outcome.elapsed_seconds >= 0.0

    def test_invalid_mode(self):
        with pytest.raises(ExecutionError):
            ParallelExecutor(mode="gpu")

    def test_explicit_plan(self, ex41_report):
        # An optimized plan of the nest runs instead of the nest's own plan.
        from repro.plan import optimize_plan

        nest = ex41_report.nest
        transformed = TransformedLoopNest.from_report(ex41_report)
        plan, _ = optimize_plan(
            transformed.execution_plan(), transformed, passes=("coalesce",)
        )
        reference = store_for_nest(nest)
        execute_nest(nest, reference)
        store = store_for_nest(nest)
        outcome = ParallelExecutor(mode="serial").run(transformed, store, plan=plan)
        assert outcome.num_chunks == plan.chunk_count
        assert reference.identical(store)


class TestSimulator:
    def _chunks(self, sizes):
        return [Chunk(key=(k,), iterations=[(i,) for i in range(size)]) for k, size in enumerate(sizes)]

    def test_makespan_lpt(self):
        machine = SimulatedMachine(2)
        chunks = self._chunks([5, 3, 3, 1])
        assert machine.makespan(chunks) == 6.0

    def test_speedup_and_efficiency(self):
        result = simulate_schedule(self._chunks([4, 4, 4, 4]), num_processors=4)
        assert result.speedup == pytest.approx(4.0)
        assert result.efficiency == pytest.approx(1.0)

    def test_unlimited_processors_default(self):
        result = simulate_schedule(self._chunks([2, 2, 2]))
        assert result.num_processors == 3
        assert result.speedup == pytest.approx(3.0)

    def test_serial_schedule(self):
        result = simulate_schedule(self._chunks([10]), num_processors=8)
        assert result.speedup == pytest.approx(1.0)

    def test_empty_schedule(self):
        result = simulate_schedule([], num_processors=2)
        assert result.parallel_time == 0.0
        assert result.speedup == 1.0

    def test_chunk_overhead(self):
        with_overhead = simulate_schedule(self._chunks([4, 4]), num_processors=2, chunk_overhead=1.0)
        assert with_overhead.sequential_time == 10.0

    def test_invalid_processor_count(self):
        with pytest.raises(ValueError):
            SimulatedMachine(0)

    def test_describe(self):
        text = simulate_schedule(self._chunks([2, 2]), num_processors=2).describe()
        assert "speedup" in text

    def test_paper_example_speedup_scales_with_partitions(self):
        # example 4.2: 4 partitions -> speedup close to 4 with 4 processors
        report = analyze_nest(example_4_2(8))
        transformed = TransformedLoopNest.from_report(report)
        chunks = build_schedule(transformed)
        result = simulate_schedule(chunks, num_processors=4)
        assert result.speedup > 3.0
