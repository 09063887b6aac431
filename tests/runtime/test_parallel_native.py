"""The in-kernel parallel driver: packing, ranges, bit-identity, errors.

One native call executes the whole plan: the plan's chunk order is cut
into contiguous ranges of near-equal work and each range runs on its own
OS thread (OpenMP or pthreads).  This suite pins:

* ``packed_ranges_for`` edge cases — empty selections, single-chunk
  plans, group selections spanning the plan — and the packing contract:
  every plan packs, the key table is built once per plan, a selection is
  a row gather from it that evaluates no bound and never grows the plan,
* the range cut — boundaries from 0 to the chunk count, strictly
  increasing, at most one range per thread, no range above ``total/T``
  plus its largest chunk — and the reported thread count,
* the differential contract: the parallel driver is bit-identical to
  serial native and to the interpreter on the workload suite and seeded
  random nests, at 1/2/8 threads, on both driver flavours,
* error parity: window violations, division by zero, domain and overflow
  errors raise the interpreter's exception types through the driver, with
  first-failing-chunk semantics across ranges, at every thread count and
  on both flavours,
* the ``native-parallel`` executor mode and its single serial call when
  the backend (or the kernel) has no parallel driver,
* the derived default worker count (``os.cpu_count()`` clamped,
  ``$REPRO_WORKERS`` override), the rejection of worker counts below 1,
  and the engine/thread reporting in ``ExecutionResult``/``RunResult``,
* the OpenMP compile probe (disk-persisted negative cache) and the
  pthreads flavour, including a helper thread that cannot start, both in
  the walker library of the plan's depth (a kernel is only its body), and
  the driver's default ``OMP_WAIT_POLICY``.
"""

import copy
import itertools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.api import Session
from repro.codegen import native as native_codegen
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.exceptions import ExecutionError
from repro.loopnest.builder import loop_nest
from repro.plan import ExecutionPlan, optimize_plan
from repro.plan.ir import ChunkView
from repro.runtime.arrays import ArrayStore, OffsetArray, store_for_nest
from repro.runtime.backends import NativeBackend
from repro.runtime.executor import (
    EXECUTION_MODES,
    WORKERS_ENV,
    ParallelExecutor,
    _balanced_ranges,
    default_worker_count,
)
from repro.runtime.interpreter import execute_nest
from repro.runtime.telemetry import ExecutionTelemetry
from repro.workloads.paper_examples import example_4_1, example_4_2
from repro.workloads.suite import workload_suite

SRC = str(Path(__file__).resolve().parents[2] / "src")
SUITE = workload_suite(5)
SUITE_IDS = [case.name for case in SUITE]
THREAD_COUNTS = (1, 2, 8)

needs_engine = pytest.mark.skipif(
    native_codegen.resolve_engine() is None, reason="no native engine (a C compiler) available"
)


@pytest.fixture(params=["auto", "pthreads"])
def flavor(request, monkeypatch):
    """The driver flavour a test runs: the toolchain's own (OpenMP where
    ``-fopenmp`` works) or the pthreads driver every toolchain builds.
    The driver lives in the walker of each depth, which is kept per depth,
    not per flavour, and kernels keep the walker they were built with, so
    the pthreads runs start and end with empty caches."""
    if request.param == "auto":
        yield "openmp" if native_codegen.openmp_supported() else "pthreads"
        return
    native_codegen.clear_kernel_cache()
    monkeypatch.setattr(native_codegen, "_OPENMP_CACHED", False)
    yield "pthreads"
    native_codegen.clear_kernel_cache()


def _starts(plan, threads):
    """The driver's range boundaries for ``threads`` workers."""
    return _balanced_ranges(plan.chunk_size_totals(), threads)


def _triangle(n):
    """``A[i1, i2] = A[i1 - 2, i2] + 1.0`` over the triangle ``i2 <= i1``:
    two partitions per column, so chunk sizes fall along the chunk order."""
    return (
        loop_nest("triangle")
        .loop("i1", 0, n - 1)
        .loop("i2", 0, "i1")
        .statement("A[i1, i2] = A[i1 - 2, i2] + 1.0")
        .build()
    )


def _reference_and_transformed(nest):
    transformed = TransformedLoopNest.from_report(analyze_nest(nest))
    base = store_for_nest(nest)
    ref = base.copy()
    execute_nest(nest, ref)
    return base, ref, transformed


def _random_nest(rng: np.random.Generator):
    """Same families as the backend differential suite (seeded)."""
    n = int(rng.integers(4, 8))
    pattern = int(rng.integers(0, 3))
    if pattern == 0:
        a, b = int(rng.integers(1, 3)), int(rng.integers(0, 3))
        body = f"A[i1, i2] = A[i1 - {a}, i2 - {b}] * 0.5 + {float(rng.integers(1, 4))}"
    elif pattern == 1:
        p, q = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        body = f"A[{p}*i1 + i2] = A[{p}*i1 + i2 - {q}] + B[i1, i2]"
    else:
        a = 2 * int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        body = f"A[i1, i2] = A[-i1 - {a}, {m}*i1 + i2 + {a}] + 1.0"
    lo = int(rng.integers(-3, 1))
    builder = loop_nest(f"random-{pattern}").loop("i1", lo, lo + n).loop("i2", lo, lo + n)
    builder.statement(body)
    if rng.integers(0, 2):
        builder.statement("C[i1, i2] = C[i1 - 2, i2] + B[i1, i2] * 0.25")
    return builder.build()


# ---------------------------------------------------------------------------
# packed_ranges_for: row gathers from the plan's key table
# ---------------------------------------------------------------------------

class TestPackedRanges:
    def test_empty_selection_runs_no_chunk(self):
        _, _, transformed = _reference_and_transformed(example_4_1(8))
        plan = transformed.execution_plan()
        packed = native_codegen.packed_ranges_for(plan, chunk_indices=[])
        assert packed.keys.dtype == np.int64 and packed.keys.flags["C_CONTIGUOUS"]
        assert packed.bounds is plan.bound_table()
        program = native_codegen.native_program_for(transformed)
        if program is not None:
            store = store_for_nest(example_4_1(8))
            untouched = store.copy()
            assert program.execute(store, packed) == native_codegen.OK
            assert untouched.identical(store)

    def test_empty_selection_packs_to_zero_chunks(self):
        _, _, transformed = _reference_and_transformed(example_4_1(8))
        plan = transformed.execution_plan()
        n_chunks, flat, _ = native_codegen.packed_ranges_for(plan, chunk_indices=())
        assert n_chunks == 0
        assert flat.size == 0

    def test_single_chunk_plan(self):
        # A fully serial recurrence: the plan has exactly one chunk.
        nest = (
            loop_nest("serial-chain")
            .loop("i1", 0, 7)
            .statement("A[i1] = A[i1 - 1] + 1.0")
            .build()
        )
        _, _, transformed = _reference_and_transformed(nest)
        plan = transformed.execution_plan()
        assert len(plan.select_chunks(None)) == 1
        whole = native_codegen.packed_ranges_for(plan)
        only = native_codegen.packed_ranges_for(plan, chunk_indices=(0,))
        assert whole is not None and only is not None
        assert whole.n_chunks == only.n_chunks == 1
        assert np.array_equal(whole.keys, only.keys)
        assert whole.keys.size == plan.depth

    def test_selection_slices_match_direct_packing(self):
        _, _, transformed = _reference_and_transformed(example_4_1(10))
        plan = transformed.execution_plan()
        views = plan.select_chunks(None)
        indices = tuple(range(0, len(views), 2))
        n_chunks, flat, _ = native_codegen.packed_ranges_for(plan, chunk_indices=indices)
        assert n_chunks == len(indices)
        expected = plan.key_rows([views[i].key for i in indices])
        assert np.array_equal(flat, expected.reshape(-1))

    def test_whole_plan_equals_all_indices_selection(self):
        _, _, transformed = _reference_and_transformed(example_4_1(9))
        plan = transformed.execution_plan()
        total = len(plan.select_chunks(None))
        whole = native_codegen.packed_ranges_for(plan)
        explicit = native_codegen.packed_ranges_for(plan, tuple(range(total)))
        assert whole[0] == explicit[0]
        assert np.array_equal(whole[1], explicit[1])

    @pytest.mark.parametrize("n", [5, 8])
    def test_every_suite_plan_packs(self, n):
        # Shifting partition targets (example 4.2's HNF ((2,1),(0,2))),
        # coupled bounds and coalesced blocks all pack: the kernel scans
        # the bound table instead of requiring strided boxes.
        for case in workload_suite(n):
            plan = TransformedLoopNest.from_report(analyze_nest(case.nest)).execution_plan()
            coalesced, _ = optimize_plan(plan, passes=("coalesce",))
            for variant in (plan, coalesced):
                packed = native_codegen.packed_ranges_for(variant)
                assert packed is not None, case.name
                assert packed.n_chunks == variant.chunk_count, case.name
                assert packed.keys.size == variant.chunk_count * variant.depth

    def test_group_selections_match_direct_packing(self):
        # Balanced groups select scattered chunk indices; each group's
        # packed rows must equal its own chunks' key rows, and the groups
        # together cover the plan exactly once.
        _, _, transformed = _reference_and_transformed(example_4_2(8))
        plan = transformed.execution_plan()
        total = len(plan.select_chunks(None))
        groups = ParallelExecutor(workers=3).groups_for(plan.chunk_sizes())
        seen = 0
        for group in groups:
            packed = native_codegen.packed_ranges_for(plan, group)
            direct = plan.key_rows([view.key for view in plan.select_chunks(group)])
            assert packed.n_chunks == len(group)
            assert np.array_equal(packed.keys, direct.reshape(-1))
            seen += len(group)
        assert seen == total

    @pytest.mark.parametrize(
        "nest", [example_4_1(10), example_4_2(9)], ids=["example-4.1", "example-4.2"]
    )
    def test_packing_evaluates_no_bound(self, nest, monkeypatch):
        """Regression: packing is a row gather, never a bound evaluation.

        The key table is built once, by the NumPy expansion of the bound
        table; the whole plan and any number of selections then pack
        without one ``_range`` call or ``_discover`` scan.
        """
        _, _, transformed = _reference_and_transformed(nest)
        plan = transformed.execution_plan()
        calls = {"range": 0, "discover": 0, "expand": 0}

        def counting(name, attribute):
            original = getattr(ExecutionPlan, attribute)

            def wrapper(self, *args):
                calls[name] += 1
                return original(self, *args)

            monkeypatch.setattr(ExecutionPlan, attribute, wrapper)

        counting("range", "_range")
        counting("discover", "_discover")
        counting("expand", "_expanded_key_table")
        whole = native_codegen.packed_ranges_for(plan)
        native_codegen.packed_ranges_for(plan, tuple(range(0, whole.n_chunks, 2)))
        native_codegen.packed_ranges_for(plan, tuple(range(1, whole.n_chunks, 2)))
        native_codegen.packed_ranges_for(plan, (0,))
        assert calls == {"range": 0, "discover": 0, "expand": 1}
        monkeypatch.undo()
        reference = plan.key_rows([key for key, _ in plan._discover()])
        assert np.array_equal(whole.keys, reference.reshape(-1))

    def test_selections_never_grow_the_plan(self, monkeypatch):
        """Selections gather from the one key table and add no memo.

        Telemetry-driven balancing regroups chunks as costs move, so a
        per-selection memo would grow a long-lived plan without bound.
        """
        _, _, transformed = _reference_and_transformed(example_4_1(8))
        plan = transformed.execution_plan()
        first = native_codegen.packed_ranges_for(plan, (0, 1))
        monkeypatch.setattr(
            ChunkView, "value_ranges",
            lambda self: pytest.fail("packing read a chunk's value ranges"),
        )
        again = native_codegen.packed_ranges_for(plan, (0, 1))
        assert again[0] == first[0] and np.array_equal(again[1], first[1])
        selections = list(itertools.islice(
            itertools.combinations(range(len(plan.select_chunks(None))), 3), 100
        ))
        assert len(set(selections)) == 100

        def footprint():
            return {
                name: len(value) if isinstance(value, (dict, list, tuple)) else id(value)
                for name, value in vars(plan).items()
            }

        before = footprint()
        for selection in selections:
            native_codegen.packed_ranges_for(plan, selection)
        assert footprint() == before


# ---------------------------------------------------------------------------
# default worker count (satellite)
# ---------------------------------------------------------------------------

class TestDefaultWorkerCount:
    def test_derived_from_cpu_count(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        count = default_worker_count()
        assert 1 <= count <= 16
        assert count == max(1, min(os.cpu_count() or 1, 16))

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "6")
        assert default_worker_count() == 6

    def test_invalid_env_ignored(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "zero")
        assert default_worker_count() >= 1
        monkeypatch.setenv(WORKERS_ENV, "-3")
        assert default_worker_count() >= 1

    def test_executor_uses_derived_default(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert ParallelExecutor(mode="native-parallel").workers == 5
        assert ParallelExecutor(mode="native-parallel", workers=2).workers == 2

    @pytest.mark.parametrize("mode", EXECUTION_MODES)
    def test_workers_below_one_rejected(self, mode):
        # SessionConfig rejects them too; 0 is not the derived default.
        for workers in (0, -1):
            with pytest.raises(ExecutionError, match="workers must be >= 1"):
                ParallelExecutor(mode=mode, workers=workers)


# ---------------------------------------------------------------------------
# the range cut: contiguous chunk ranges of near-equal work
# ---------------------------------------------------------------------------

def _assert_balanced(sizes, threads):
    totals = np.cumsum(np.asarray(sizes, dtype=np.int64))
    starts = _balanced_ranges(totals, threads)
    assert starts.dtype == np.int64
    assert starts[0] == 0 and starts[-1] == len(sizes)
    assert np.all(np.diff(starts) > 0)
    assert len(starts) - 1 <= threads
    bound = sum(sizes) / max(1, min(threads, len(sizes))) + max(sizes, default=0)
    for first, end in zip(starts[:-1], starts[1:]):
        assert sum(sizes[first:end]) <= bound, (sizes, threads, starts)
    return starts


class TestBalancedRanges:
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_size_lists(self, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 60, size=int(rng.integers(1, 40))).tolist()
        for index in rng.choice(len(sizes), size=len(sizes) // 3, replace=False):
            sizes[index] = 0
        for threads in (1, 2, 3, 4, 7, 8, 64):
            _assert_balanced(sizes, threads)

    def test_one_dominant_chunk(self):
        sizes = [1] * 20
        sizes[7] = 1000
        for threads in (2, 4, 8):
            # The dominant chunk closes the first range; the ranges its
            # work would leave empty are dropped.
            assert _assert_balanced(sizes, threads).tolist() == [0, 8, 20]

    def test_zero_size_chunks_at_both_ends(self):
        sizes = [0, 0, 4, 4, 4, 4, 0, 0]
        assert _assert_balanced(sizes, 2).tolist() == [0, 4, 8]
        _assert_balanced([0, 0, 0], 2)

    def test_more_threads_than_chunks(self):
        assert _assert_balanced([5, 5, 5], 8).tolist() == [0, 1, 2, 3]

    def test_empty_plan_has_no_range(self):
        assert _balanced_ranges(np.zeros(0, dtype=np.int64), 4).tolist() == [0]

    def test_triangle_split(self):
        # Chunk sizes fall along the chunk order: equal-count halves carry
        # 75% and 25% of the iterations; the cut on the running total
        # leaves at most 52% to the heavier range.
        plan = TransformedLoopNest.from_report(analyze_nest(_triangle(2048))).execution_plan()
        sizes = plan.chunk_sizes()
        total = sum(sizes)
        assert len(sizes) == 4095
        assert sum(sizes[: len(sizes) // 2]) / total > 0.74
        starts = _starts(plan, 2)
        loads = [sum(sizes[first:end]) for first, end in zip(starts[:-1], starts[1:])]
        assert len(loads) == 2 and sum(loads) == total
        assert max(loads) / total <= 0.52

    def test_plan_caches_its_running_total(self):
        plan = TransformedLoopNest.from_report(analyze_nest(example_4_2(8))).execution_plan()
        totals = plan.chunk_size_totals()
        assert totals.dtype == np.int64
        assert totals.tolist() == np.cumsum(plan.chunk_sizes()).tolist()
        assert plan.chunk_size_totals() is totals

    @needs_engine
    @pytest.mark.usefixtures("no_driver_floor")
    def test_driver_call_reads_plan_sizes_not_telemetry(self):
        # Whole-plan runs record no telemetry, so the driver's ranges come
        # from the plan's chunk sizes even when measurements exist.
        telemetry = ExecutionTelemetry()
        executor = ParallelExecutor(
            mode="native-parallel", workers=4, backend="native", telemetry=telemetry
        )
        transformed = _reference_and_transformed(example_4_2(8))[2]
        plan = transformed.execution_plan()
        sizes = tuple(plan.chunk_sizes())
        assert len(sizes) == 4
        # Measured: chunk 0 costs 100x the others.
        key = executor.telemetry_key(transformed, len(sizes))
        for index, size in enumerate(sizes):
            telemetry.record_group(key, (index,), (size,), 10.0 if index == 0 else 0.1)
        assert telemetry.chunk_costs(key, sizes) is not None
        assert executor.backend.parallel_plan_refusal(transformed, plan) is None
        assert executor.driver_ranges(plan).tolist() == [0, 1, 2, 3, 4]
        two = executor.driver_ranges(plan, workers=2)
        assert two.tolist() == _starts(plan, 2).tolist() and len(two) - 1 == 2


# ---------------------------------------------------------------------------
# differential: parallel driver vs serial native vs interpreter
# ---------------------------------------------------------------------------

@needs_engine
class TestParallelDifferential:
    @pytest.mark.parametrize("case", SUITE, ids=SUITE_IDS)
    def test_suite_bit_identical(self, case, flavor):
        base, ref, transformed = _reference_and_transformed(case.nest)
        plan = transformed.execution_plan()
        backend = NativeBackend()
        serial = base.copy()
        backend.execute_plan(transformed, plan, serial)
        assert ref.identical(serial), f"serial native diverged on {case.name!r}"
        for threads in THREAD_COUNTS:
            result = base.copy()
            label = backend.execute_plan_parallel(
                transformed, plan, result, _starts(plan, threads)
            )
            assert label == f"native-cc-{flavor}", case.name
            assert serial.identical(result), (
                f"parallel ({threads} thread(s)) diverged from serial native "
                f"on {case.name!r}"
            )

    def test_driver_refuses_unusable_ranges_without_writing(self):
        base, _, transformed = _reference_and_transformed(example_4_1(8))
        plan = transformed.execution_plan()
        chunks = plan.chunk_count
        for starts in ([0, chunks + 1], [1, chunks], [0, 5, 3, chunks], [0, chunks - 1]):
            result = base.copy()
            label = NativeBackend().execute_plan_parallel(
                transformed, plan, result, np.array(starts, dtype=np.int64)
            )
            assert label is None, starts
            assert base.identical(result), starts

    def test_schedule_arguments_are_gone(self):
        base, _, transformed = _reference_and_transformed(example_4_1(8))
        plan = transformed.execution_plan()
        backend = NativeBackend()
        with pytest.raises(TypeError):
            backend.execute_plan_parallel(transformed, plan, base.copy(), threads=2, dynamic=True)
        with pytest.raises(TypeError):
            backend.execute_plan_parallel(
                transformed, plan, base.copy(), _starts(plan, 2), chunk_indices=None
            )

    @pytest.mark.usefixtures("no_driver_floor")
    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    @pytest.mark.parametrize("seed", range(8))
    def test_random_nests_bit_identical(self, seed, threads, flavor):
        nest = _random_nest(np.random.default_rng(seed))
        base, ref, transformed = _reference_and_transformed(nest)
        result = base.copy()
        outcome = ParallelExecutor(
            mode="native-parallel", workers=threads, backend="native"
        ).run(transformed, result)
        assert ref.identical(result), (seed, nest.name, outcome.backend)
        if threads == 1:
            # One range runs the serial entry point, and says so.
            assert (outcome.engine, outcome.backend, outcome.threads) == (None, "native-cc", 1)
            assert outcome.fallback == "serial run: one chunk range"
        else:
            assert outcome.engine == f"native-cc-{flavor}"

    @pytest.mark.usefixtures("no_driver_floor")
    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_executor_mode_reports_engine_and_threads(self, threads):
        base, ref, transformed = _reference_and_transformed(example_4_1(12))
        result = base.copy()
        outcome = ParallelExecutor(
            mode="native-parallel", workers=threads, backend="native"
        ).run(transformed, result)
        assert ref.identical(result)
        assert 1 <= outcome.threads <= threads
        assert outcome.threads == len(_starts(transformed.execution_plan(), threads)) - 1
        if outcome.threads == 1:
            assert (outcome.engine, outcome.backend) == (None, "native-cc")
        else:
            assert outcome.engine is not None and outcome.engine.startswith("native-")
            assert outcome.backend == outcome.engine
        assert outcome.mode == "native-parallel"

    @pytest.mark.usefixtures("no_driver_floor")
    def test_threads_count_the_ranges_that_ran(self):
        # Three partitions: eight workers get three ranges, one thread each.
        nest = loop_nest("three-chunks").loop("i1", 0, 11).statement(
            "A[i1] = A[i1 - 3] + 1.0"
        ).build()
        base, ref, transformed = _reference_and_transformed(nest)
        result = base.copy()
        with Session(mode="native-parallel", backend="native", workers=8) as session:
            run = session.run(nest)
        outcome = ParallelExecutor(
            mode="native-parallel", workers=8, backend="native"
        ).run(transformed, result)
        assert ref.identical(result)
        assert transformed.execution_plan().chunk_count == 3
        assert outcome.threads == run.threads == 3

    @pytest.mark.parametrize("name", ["wavefront", "figure-1"])
    def test_one_chunk_plans_run_the_serial_kernel(self, name):
        # One chunk is one range: the serial entry point runs it, with no
        # parallel region, and the result names the serial run.
        (nest,) = [case.nest for case in workload_suite(48) if case.name == name]
        with Session(mode="serial", backend="native") as session:
            serial = session.run(nest)
        with Session(mode="native-parallel", backend="native", workers=2) as session:
            run = session.run(nest)
        assert run.num_chunks == 1
        assert run.fallback == "serial run: one chunk range"
        assert (run.backend, run.engine, run.threads, run.workers) == ("native-cc", None, 1, 1)
        assert run.backend == serial.backend
        assert run.store.identical(serial.store)

    @pytest.mark.usefixtures("no_driver_floor")
    def test_cc_driver_reports_its_flavor_without_fallback(self):
        base, ref, transformed = _reference_and_transformed(example_4_1(12))
        result = base.copy()
        outcome = ParallelExecutor(
            mode="native-parallel", workers=2, backend=NativeBackend()
        ).run(transformed, result)
        assert ref.identical(result)
        assert outcome.fallback is None
        assert outcome.backend in ("native-cc-openmp", "native-cc-pthreads")

    def test_driverless_backend_runs_one_serial_call(self):
        base, ref, transformed = _reference_and_transformed(example_4_1(10))
        result = base.copy()
        outcome = ParallelExecutor(
            mode="native-parallel", workers=2, backend="vectorized"
        ).run(transformed, result)
        assert ref.identical(result)
        assert outcome.engine is None
        assert (outcome.workers, outcome.threads) == (1, 0)
        assert outcome.fallback == (
            "serial run: backend 'vectorized' has no in-kernel parallel driver"
        )

    def test_kernel_without_parallel_entry_runs_serial_kernel(self, monkeypatch):
        # A kernel whose walker has no parallel driver runs in one serial
        # call, and the mode says why.
        base, ref, transformed = _reference_and_transformed(example_4_1(12))
        program = native_codegen.native_program_for(transformed)
        stub = copy.copy(program.kernel)
        stub._walker = stub._walker._replace(drive=None)
        assert stub.flavor is None and not stub.supports_parallel
        monkeypatch.setattr(
            native_codegen,
            "native_program_for",
            lambda *args, **kwargs: native_codegen.NativeProgram(
                stub, program.array_order
            ),
        )
        backend = NativeBackend()
        result = base.copy()
        outcome = ParallelExecutor(
            mode="native-parallel", workers=2, backend=backend
        ).run(transformed, result)
        assert ref.identical(result)
        assert outcome.fallback == "serial run: the cc kernel has no parallel entry point"
        assert outcome.backend == "native-cc"
        assert (outcome.workers, outcome.threads, outcome.engine) == (1, 0, None)
        assert backend.stats["fallback_runs"] == 0

    @pytest.mark.usefixtures("no_driver_floor")
    def test_session_run_result_surfaces_engine(self):
        with Session(mode="native-parallel", backend="native", workers=2) as session:
            result = session.run(example_4_1(10))
            payload = result.to_dict()
        assert result.engine is not None and result.engine.startswith("native-cc-")
        assert result.threads >= 1
        assert payload["engine"] == result.engine
        assert payload["threads"] == result.threads

    def test_prepare_plan_charges_compile_to_setup(self):
        native_codegen.clear_kernel_cache()
        backend = NativeBackend()
        transformed = _reference_and_transformed(example_4_1(10))[2]
        plan = transformed.execution_plan()
        backend.prepare_plan(transformed, plan)
        # The build brings the walker and its driver along; a subsequent
        # parallel support probe compiles nothing new.
        compiled = backend.stats["compile_seconds"]
        backend.parallel_plan_refusal(transformed, plan)
        backend.prepare_plan(transformed, plan)
        assert backend.stats["compile_seconds"] - compiled < 0.05


# ---------------------------------------------------------------------------
# error parity through the parallel driver
# ---------------------------------------------------------------------------

@needs_engine
@pytest.mark.usefixtures("flavor")
class TestParallelErrors:
    def _run_parallel(self, nest, store, threads):
        transformed = TransformedLoopNest.from_report(analyze_nest(nest))
        plan = transformed.execution_plan()
        label = NativeBackend().execute_plan_parallel(
            transformed, plan, store, _starts(plan, threads)
        )
        assert label is not None, "the parallel driver refused the plan"

    @pytest.mark.parametrize("threads", (2, 8))
    def test_first_failing_chunk_wins_across_ranges(self, threads):
        # One chunk per row.  Row 3 divides by zero; rows 10-15 take the
        # square root of a negative number, in other threads' ranges.  The
        # interpreter stops at row 3, and so must the driver.
        nest = (
            loop_nest("par-error-order")
            .loop("i1", 0, 15)
            .loop("i2", 1, 64)
            .statement("A[i1, i2] = A[i1, i2 - 1] + 1.0 / (i1 - 3) + sqrt(9 - i1)")
            .build()
        )
        transformed = TransformedLoopNest.from_report(analyze_nest(nest))
        plan = transformed.execution_plan()
        starts = _starts(plan, threads)
        assert plan.chunk_count == 16 and len(starts) - 1 == threads
        assert starts[1] <= 10
        store = store_for_nest(nest)
        with pytest.raises(ZeroDivisionError):
            execute_nest(nest, store.copy())
        with pytest.raises(ZeroDivisionError):
            self._run_parallel(nest, store.copy(), threads)

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_division_by_zero(self, threads):
        nest = (
            loop_nest("par-divzero")
            .loop("i1", 0, 4)
            .loop("i2", -2, 2)
            .statement("A[i1, i2] = B[i1, i2] + 1.0 / (i2)")
            .build()
        )
        store = store_for_nest(nest)
        with pytest.raises(ZeroDivisionError):
            execute_nest(nest, store.copy())
        with pytest.raises(ZeroDivisionError):
            self._run_parallel(nest, store.copy(), threads)

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_math_domain_error(self, threads):
        nest = (
            loop_nest("par-domain")
            .loop("i1", -3, 3)
            .statement("A[i1] = sqrt((i1))")
            .build()
        )
        store = store_for_nest(nest)
        with pytest.raises(ValueError):
            execute_nest(nest, store.copy())
        with pytest.raises(ValueError):
            self._run_parallel(nest, store.copy(), threads)

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_overflow_error(self, threads):
        nest = (
            loop_nest("par-overflow")
            .loop("i1", 0, 4)
            .statement("A[i1] = exp((i1) * 500.0)")
            .build()
        )
        store = store_for_nest(nest)
        with pytest.raises(OverflowError):
            execute_nest(nest, store.copy())
        with pytest.raises(OverflowError):
            self._run_parallel(nest, store.copy(), threads)

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_window_violation(self, threads):
        nest = (
            loop_nest("par-window")
            .loop("i1", 0, 5)
            .statement("A[i1] = A[i1 - 1] + 1.0")
            .build()
        )

        def tight_store():
            store = ArrayStore()
            store["A"] = OffsetArray.from_window([0], [5])
            return store

        with pytest.raises(ExecutionError):
            execute_nest(nest, tight_store())
        with pytest.raises(ExecutionError):
            self._run_parallel(nest, tight_store(), threads)

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_executor_mode_propagates_errors(self, threads):
        nest = (
            loop_nest("par-mode-divzero")
            .loop("i1", 0, 4)
            .loop("i2", -2, 2)
            .statement("A[i1, i2] = B[i1, i2] + 1.0 / (i2)")
            .build()
        )
        transformed = TransformedLoopNest.from_report(analyze_nest(nest))
        executor = ParallelExecutor(
            mode="native-parallel", workers=threads, backend="native"
        )
        with pytest.raises(ZeroDivisionError):
            executor.run(transformed, store_for_nest(nest))


# ---------------------------------------------------------------------------
# OpenMP probe, the pthreads fallback flavor and the walkers that hold them
# ---------------------------------------------------------------------------

@needs_engine
class TestCcFlavors:
    @pytest.fixture()
    def fresh_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(native_codegen.CACHE_DIR_ENV, str(tmp_path))
        native_codegen.clear_kernel_cache()
        yield tmp_path
        native_codegen.clear_kernel_cache()

    def test_probe_persists_verdict_on_disk(self, fresh_cache):
        verdict = native_codegen.openmp_supported()
        suffix = ".ok" if verdict else ".no"
        markers = [
            name
            for name in os.listdir(fresh_cache)
            if name.startswith("openmp_probe_") and name.endswith(suffix)
        ]
        assert markers, "probe verdict was not persisted"
        # A second call (fresh memo) must read the marker, not re-compile.
        native_codegen.clear_kernel_cache()
        assert native_codegen.openmp_supported() is verdict

    def test_negative_cache_marker_wins(self, fresh_cache, monkeypatch):
        import hashlib

        compiler = native_codegen._find_c_compiler()
        tag = hashlib.sha256(compiler.encode("utf-8")).hexdigest()[:16]
        (fresh_cache / f"openmp_probe_{tag}.no").write_text("")
        assert native_codegen.openmp_supported() is False

    def test_pthreads_flavor_bit_identical(self, fresh_cache, monkeypatch):
        monkeypatch.setattr(native_codegen, "_OPENMP_CACHED", False)
        base, ref, transformed = _reference_and_transformed(example_4_1(12))
        program = native_codegen.native_program_for(transformed)
        assert program is not None
        assert program.kernel.flavor == "pthreads"
        assert "pthread" not in program.kernel.source
        (walker,) = fresh_cache.glob("repro_walk_*.c")
        assert walker.read_text() == native_codegen.walker_source(2, "pthreads")
        plan = transformed.execution_plan()
        packed = native_codegen.packed_ranges_for(plan)
        for threads in THREAD_COUNTS:
            result = base.copy()
            code = program.execute_parallel(result, packed, _starts(plan, threads))
            assert code == native_codegen.OK
            assert ref.identical(result), f"pthreads flavor diverged at {threads}"

    @pytest.mark.parametrize(
        "failure",
        ["#define pthread_create(...) 11", "#define calloc(...) 0"],
        ids=["helpers-cannot-start", "no-range-table"],
    )
    def test_pthreads_runs_ranges_itself_when_it_cannot_spread_them(
        self, fresh_cache, monkeypatch, failure
    ):
        # Every pthread_create fails (11 is EAGAIN), or the range table
        # cannot be allocated: the calling thread runs every range, and the
        # first failing chunk's status still wins.
        monkeypatch.setattr(native_codegen, "_OPENMP_CACHED", False)
        nest = (
            loop_nest("helpers-fail")
            .loop("i1", 0, 15)
            .loop("i2", 1, 8)
            .statement("A[i1, i2] = A[i1, i2 - 1] + 1.0 / (i1 - 12)")
            .build()
        )
        transformed = TransformedLoopNest.from_report(analyze_nest(nest))
        base = store_for_nest(nest)
        walker_source = native_codegen.walker_source
        monkeypatch.setattr(
            native_codegen,
            "walker_source",
            lambda depth, flavor: walker_source(depth, flavor).replace(
                "#include <stdlib.h>", f"#include <stdlib.h>\n{failure}", 1
            ),
        )
        assert failure in native_codegen.walker_source(2, "pthreads")
        program = native_codegen.native_program_for(transformed)
        assert program.kernel.flavor == "pthreads"
        plan = transformed.execution_plan()
        starts = _starts(plan, 4)
        assert starts.tolist() == [0, 4, 8, 12, 16]
        expected = base.copy()
        with pytest.raises(ZeroDivisionError):
            execute_nest(nest, expected)
        result = base.copy()
        code = program.execute_parallel(result, native_codegen.packed_ranges_for(plan), starts)
        assert code == native_codegen.ERR_ZERO_DIV
        # Rows 0-11 ran to completion and row 12 failed on its first
        # iteration: the interpreter's partial writes exactly.
        assert expected.identical(result)

    def test_openmp_driver_is_one_parallel_for_over_ranges(self, fresh_cache):
        if not native_codegen.openmp_supported():
            pytest.skip("toolchain lacks OpenMP")
        _, _, transformed = _reference_and_transformed(example_4_2(6))
        program = native_codegen.native_program_for(transformed)
        assert program.kernel.flavor == "openmp"
        assert "#pragma" not in program.kernel.source
        source = native_codegen.walker_source(2, "openmp")
        (walker,) = fresh_cache.glob("repro_walk_*.c")
        assert walker.read_text() == source
        assert source.count("#pragma omp") == 1
        assert "#pragma omp parallel for schedule(static, 1)" in source
        assert "statuses[t] = repro_walk(starts[t + 1] - starts[t]" in source

    def test_kernel_is_the_innermost_loop_of_its_body(self, fresh_cache):
        # One function: the inverse transform, the guards and the
        # statements over one innermost range.  Level walks, chunk entries
        # and drivers live in the walker of the depth.
        _, _, transformed = _reference_and_transformed(example_4_2(6))
        source = native_codegen.native_program_for(transformed).kernel.source
        assert source.count("repro_run(") == 1 and source.count("for (") == 1
        for gone in ("repro_chunk", "repro_kernel", "repro_walk", "bt[", "pthread"):
            assert gone not in source, gone

    def test_openmp_driver_waits_passively_by_default(self):
        # libgomp spin-waits unless told otherwise, and warm driver runs
        # then took several times as long as serial ones on a 2-vCPU host.
        # The walker sets OMP_WAIT_POLICY=PASSIVE, unless the caller set
        # it, before libgomp loads.
        if not native_codegen.openmp_supported():
            pytest.skip("toolchain lacks OpenMP")
        script = textwrap.dedent(
            """
            import json, os, statistics, time
            from repro.api import Session
            from repro.workloads.paper_examples import example_4_1

            nest, medians = example_4_1(256), {}
            for mode in ("serial", "native-parallel"):
                with Session(backend="native", mode=mode, workers=2) as session:
                    samples = []
                    for rep in range(18):
                        started = time.perf_counter()
                        run = session.run(nest)
                        samples.append(time.perf_counter() - started)
                medians[mode] = statistics.median(samples[3:])
            policy = os.environ.get("OMP_WAIT_POLICY")
            print(json.dumps({"policy": policy, "engine": run.engine, **medians}))
            """
        )
        env = {key: value for key, value in os.environ.items() if key != "OMP_WAIT_POLICY"}
        env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        outcome = json.loads(done.stdout.splitlines()[-1])
        assert (outcome["policy"], outcome["engine"]) == ("PASSIVE", "native-cc-openmp")
        assert outcome["native-parallel"] <= 2.0 * outcome["serial"], outcome
