"""Emitted-code and executor coverage across the workload suite.

Complements the targeted emitter tests: for *every* suite workload the
generated original source must behave exactly like the interpreter, and the
transformed source / executors must match the original results, including on
integer-valued array data.
"""

import numpy as np
import pytest

from repro.codegen.python_emitter import (
    compile_loop_function,
    emit_original_source,
    emit_transformed_source,
)
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.runtime.arrays import store_for_nest
from repro.runtime.executor import ParallelExecutor
from repro.runtime.interpreter import execute_nest


class TestEmittedOriginalAcrossSuite:
    def test_original_source_matches_interpreter(self, small_suite):
        for case in small_suite:
            source = emit_original_source(case.nest)
            function = compile_loop_function(source, "run_original")
            base = store_for_nest(case.nest)
            expected = base.copy()
            execute_nest(case.nest, expected)
            actual = base.copy()
            function(actual)
            assert expected.allclose(actual), case.name

    def test_sources_are_deterministic(self, ex41_small):
        assert emit_original_source(ex41_small) == emit_original_source(ex41_small)
        report = analyze_nest(ex41_small)
        transformed = TransformedLoopNest.from_report(report)
        assert emit_transformed_source(transformed) == emit_transformed_source(transformed)


class TestExecutorsAcrossSuite:
    def test_thread_executor_on_partitionable_workloads(self, small_suite):
        for case in small_suite:
            if case.category != "variable":
                continue
            report = analyze_nest(case.nest)
            transformed = TransformedLoopNest.from_report(report)
            plan = transformed.execution_plan()
            base = store_for_nest(case.nest)
            expected = base.copy()
            execute_nest(case.nest, expected)
            actual = base.copy()
            # Chunks run concurrently on the in-kernel driver's threads.
            ParallelExecutor(mode="native-parallel", workers=3, backend="native").run(
                transformed, actual, plan=plan
            )
            assert expected.allclose(actual), case.name

    def test_more_workers_than_chunks(self, ex42_small):
        report = analyze_nest(ex42_small)
        transformed = TransformedLoopNest.from_report(report)
        plan = transformed.execution_plan()
        assert plan.chunk_count == 4
        base = store_for_nest(ex42_small)
        expected = base.copy()
        execute_nest(ex42_small, expected)
        actual = base.copy()
        outcome = ParallelExecutor(
            mode="native-parallel", workers=16, backend="native"
        ).run(transformed, actual, plan=plan)
        assert expected.allclose(actual)
        assert outcome.num_chunks == 4
        assert outcome.threads <= 4  # the driver never runs more threads than chunks


class TestIntegerData:
    def test_integer_array_store(self, ex41_small):
        report = analyze_nest(ex41_small)
        transformed = TransformedLoopNest.from_report(report)
        base = store_for_nest(ex41_small, dtype=np.int64, initializer="index_sum")
        expected = base.copy()
        execute_nest(ex41_small, expected)
        source = emit_transformed_source(transformed)
        function = compile_loop_function(source, "run_transformed")
        actual = base.copy()
        function(actual)
        assert expected.allclose(actual)
        assert expected["A"].data.dtype == np.int64
