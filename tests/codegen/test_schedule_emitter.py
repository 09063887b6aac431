"""Tests for chunk schedules and the Python source emitter."""

import pytest

from repro.codegen.python_emitter import (
    compile_loop_function,
    emit_original_source,
    emit_transformed_source,
)
from repro.codegen.schedule import schedule_statistics
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.runtime.arrays import store_for_nest
from repro.runtime.interpreter import execute_nest
from repro.workloads.kernels import strided_scatter, wavefront_recurrence
from repro.workloads.paper_examples import example_4_1, example_4_2
from repro.workloads.synthetic import no_dependence_loop


def _chunks(report):
    """The plan's chunks, each as ``(key, iterations)``."""
    plan = TransformedLoopNest.from_report(report).execution_plan()
    return [(view.key, list(view.iterations)) for view in plan.chunks()]


class TestSchedule:
    def test_chunks_partition_the_iteration_space(self, ex41_report):
        transformed = TransformedLoopNest.from_report(ex41_report)
        all_iterations = [it for _, iterations in _chunks(ex41_report) for it in iterations]
        assert len(all_iterations) == transformed.iteration_count()
        assert len(set(all_iterations)) == len(all_iterations)

    def test_chunk_iterations_in_lex_order(self, ex42_report):
        plan = TransformedLoopNest.from_report(ex42_report).execution_plan()
        for view in plan.chunks():
            iterations = list(view.iterations)
            assert iterations == sorted(iterations)
            assert view.size == len(iterations)

    def test_chunk_keys_unique(self, ex42_report):
        keys = [key for key, _ in _chunks(ex42_report)]
        assert len(keys) == len(set(keys))

    def test_example_42_has_four_chunks(self, ex42_report):
        # no doall loops, 4 partitions => exactly 4 chunks
        assert len(_chunks(ex42_report)) == 4

    def test_statistics(self, ex42_report):
        plan = TransformedLoopNest.from_report(ex42_report).execution_plan()
        stats = plan.statistics()
        assert stats["num_chunks"] == 4
        assert stats["total_iterations"] == ex42_report.nest.iteration_count()
        assert stats["max_chunk_size"] >= stats["min_chunk_size"]
        assert stats["ideal_speedup"] == pytest.approx(
            stats["total_iterations"] / stats["max_chunk_size"]
        )

    def test_statistics_empty(self):
        # A zero-iteration schedule has no work: ideal_speedup must read
        # 0.0 ("nothing to parallelize"), not 1.0 ("no parallelism").
        stats = schedule_statistics([])
        assert stats["num_chunks"] == 0
        assert stats["ideal_speedup"] == 0.0

    def test_sequential_loop_single_chunk(self):
        assert len(_chunks(analyze_nest(wavefront_recurrence(5)))) == 1

    def test_fully_parallel_loop_one_chunk_per_iteration(self):
        report = analyze_nest(no_dependence_loop(3))
        transformed = TransformedLoopNest.from_report(report)
        chunks = _chunks(report)
        assert len(chunks) == transformed.iteration_count()
        assert all(len(iterations) == 1 for _, iterations in chunks)


class TestEmitter:
    def test_original_source_executes_like_interpreter(self, ex41_small):
        source = emit_original_source(ex41_small)
        function = compile_loop_function(source, "run_original")
        store_a = store_for_nest(ex41_small)
        store_b = store_a.copy()
        execute_nest(ex41_small, store_a)
        function(store_b)
        assert store_a.allclose(store_b)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: example_4_1(6),
            lambda: example_4_2(6),
            lambda: strided_scatter(6, stride=3),
            lambda: wavefront_recurrence(5),
            lambda: no_dependence_loop(4),
        ],
    )
    def test_transformed_source_matches_original(self, factory):
        nest = factory()
        report = analyze_nest(nest)
        transformed = TransformedLoopNest.from_report(report)
        source = emit_transformed_source(transformed)
        function = compile_loop_function(source, "run_transformed")
        reference = store_for_nest(nest)
        result = reference.copy()
        execute_nest(nest, reference)
        function(result)
        assert reference.allclose(result)

    def test_doall_annotations_present(self, ex41_report):
        transformed = TransformedLoopNest.from_report(ex41_report)
        source = emit_transformed_source(transformed)
        assert "# doall" in source
        assert "partition offset" in source

    def test_strides_in_generated_source(self, ex42_report):
        transformed = TransformedLoopNest.from_report(ex42_report)
        source = emit_transformed_source(transformed)
        assert ", 2)" in source  # stride-2 loops
        assert "range(2)" in source  # partition offsets

    def test_compile_rejects_missing_function(self):
        from repro.exceptions import CodegenError

        with pytest.raises(CodegenError):
            compile_loop_function("x = 1\n", "run_transformed")

    def test_emitted_source_mentions_original_indices(self, ex41_report):
        transformed = TransformedLoopNest.from_report(ex41_report)
        source = emit_transformed_source(transformed)
        assert "i1 =" in source and "i2 =" in source
