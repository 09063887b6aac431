"""The in-kernel parallel driver: packing, scheduling, bit-identity, errors.

PR 10 moves the parallel-for over chunks *into* the compiled kernel: one
native call executes the whole plan on N OS threads (OpenMP / pthreads /
``numba.prange``).  This suite pins:

* ``packed_ranges_for`` edge cases — empty selections, single-chunk
  plans, group selections spanning the plan — and the packing contract:
  every plan packs, the key table is built once per plan, a selection is
  a row gather from it that evaluates no bound and never grows the plan,
* the differential contract: the parallel driver is bit-identical to
  serial native and to the interpreter on the workload suite and seeded
  random nests, under thread counts 1/2/8 and both schedules,
* error parity: window violations, division by zero, domain and overflow
  errors raise the interpreter's exception types through the driver, with
  first-failing-chunk semantics, at every thread count,
* the ``native-parallel`` executor mode and its single serial call when
  the backend (or the kernel) has no parallel driver,
* the derived default worker count (``os.cpu_count()`` clamped,
  ``$REPRO_WORKERS`` override) and the engine/thread reporting in
  ``ExecutionResult``/``RunResult``,
* the OpenMP compile probe (disk-persisted negative cache) and the
  pthreads work-queue fallback flavor.
"""

import copy
import itertools
import os

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
    WORKERS_ENV,
    ParallelExecutor,
    _schedule_is_dynamic,
    default_worker_count,
)
from repro.runtime.interpreter import execute_nest
from repro.runtime.telemetry import ExecutionTelemetry
from repro.workloads.paper_examples import example_4_1, example_4_2
from repro.workloads.suite import workload_suite

SUITE = workload_suite(5)
SUITE_IDS = [case.name for case in SUITE]
THREAD_COUNTS = (1, 2, 8)

ENGINES = native_codegen.available_engines()
needs_engine = pytest.mark.skipif(
    not ENGINES, reason="no native engine (numba or a C compiler) available"
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

        Discovery evaluates bounds to find the keys; after it, the whole
        plan and any number of selections pack without one ``_range``
        call, and the key table is built exactly once.
        """
        _, _, transformed = _reference_and_transformed(nest)
        plan = transformed.execution_plan()
        num_chunks = len(plan.key_list())  # discovery is not counted
        calls = {"range": 0, "rows": 0}
        bound_range = ExecutionPlan._range
        key_rows = ExecutionPlan.key_rows

        def counting_range(self, level, prefix):
            calls["range"] += 1
            return bound_range(self, level, prefix)

        def counting_rows(self, keys):
            calls["rows"] += 1
            return key_rows(self, keys)

        monkeypatch.setattr(ExecutionPlan, "_range", counting_range)
        monkeypatch.setattr(ExecutionPlan, "key_rows", counting_rows)
        native_codegen.packed_ranges_for(plan)
        native_codegen.packed_ranges_for(plan, tuple(range(0, num_chunks, 2)))
        native_codegen.packed_ranges_for(plan, tuple(range(1, num_chunks, 2)))
        native_codegen.packed_ranges_for(plan, (0,))
        assert calls == {"range": 0, "rows": 1}

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


# ---------------------------------------------------------------------------
# static-vs-dynamic schedule choice
# ---------------------------------------------------------------------------

class TestScheduleChoice:
    def test_uniform_sizes_pick_static(self):
        assert _schedule_is_dynamic((8, 8, 8, 8)) is False

    def test_skewed_sizes_pick_dynamic(self):
        assert _schedule_is_dynamic((32, 2, 2, 2)) is True

    def test_single_chunk_is_static(self):
        assert _schedule_is_dynamic((16,)) is False

    @needs_engine
    def test_driver_call_reads_plan_sizes_not_telemetry(self):
        # Whole-plan runs record no telemetry, so the driver's schedule
        # comes from the plan's chunk sizes even when measurements exist.
        telemetry = ExecutionTelemetry()
        executor = ParallelExecutor(
            mode="native-parallel", workers=4, backend="native", telemetry=telemetry
        )
        transformed = _reference_and_transformed(example_4_2(8))[2]
        plan = transformed.execution_plan()
        sizes = tuple(plan.chunk_sizes())
        assert len(sizes) == 4 and not _schedule_is_dynamic(sizes)  # near-uniform
        # Measured: chunk 0 costs 100x the others.
        key = executor.telemetry_key(transformed, len(sizes))
        for index, size in enumerate(sizes):
            telemetry.record_group(key, (index,), (size,), 10.0 if index == 0 else 0.1)
        assert telemetry.chunk_costs(key, sizes) is not None
        call = executor.driver_call(transformed, plan, sizes)
        assert (call.threads, call.dynamic, call.refusal) == (4, False, None)
        assert executor.driver_call(transformed, plan, sizes, workers=2).threads == 2


# ---------------------------------------------------------------------------
# differential: parallel driver vs serial native vs interpreter
# ---------------------------------------------------------------------------

@needs_engine
class TestParallelDifferential:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("case", SUITE, ids=SUITE_IDS)
    def test_suite_bit_identical(self, case, engine):
        base, ref, transformed = _reference_and_transformed(case.nest)
        plan = transformed.execution_plan()
        backend = NativeBackend(engine=engine)
        serial = base.copy()
        backend.execute_plan(transformed, plan, serial)
        assert ref.identical(serial), f"serial native diverged on {case.name!r}"
        for threads in THREAD_COUNTS:
            for dynamic in (True, False):
                result = base.copy()
                label = backend.execute_plan_parallel(
                    transformed, plan, result, threads=threads, dynamic=dynamic
                )
                if label is None:
                    # Non-packable plan (or no driver): the contract is
                    # that *nothing* was written, so the caller can fall
                    # back — the untouched store must equal the base.
                    assert base.identical(result), (
                        f"driver refused {case.name!r} but wrote to the store"
                    )
                    continue
                assert label.startswith(f"native-{engine}-")
                assert serial.identical(result), (
                    f"parallel ({threads} thread(s), dynamic={dynamic}) diverged "
                    f"from serial native on {case.name!r}"
                )

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    @pytest.mark.parametrize("seed", range(8))
    def test_random_nests_bit_identical(self, seed, threads):
        nest = _random_nest(np.random.default_rng(seed))
        base, ref, transformed = _reference_and_transformed(nest)
        result = base.copy()
        outcome = ParallelExecutor(
            mode="native-parallel", workers=threads, backend="native"
        ).run(transformed, result)
        assert ref.identical(result), (seed, nest.name, outcome.backend)

    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_executor_mode_reports_engine_and_threads(self, threads):
        base, ref, transformed = _reference_and_transformed(example_4_1(12))
        result = base.copy()
        outcome = ParallelExecutor(
            mode="native-parallel", workers=threads, backend="native"
        ).run(transformed, result)
        assert ref.identical(result)
        assert outcome.engine is not None and outcome.engine.startswith("native-")
        assert outcome.backend == outcome.engine
        assert 1 <= outcome.threads <= threads
        assert outcome.mode == "native-parallel"

    @pytest.mark.skipif("cc" not in ENGINES, reason="no C compiler")
    def test_cc_driver_reports_its_flavor_without_fallback(self):
        base, ref, transformed = _reference_and_transformed(example_4_1(12))
        result = base.copy()
        outcome = ParallelExecutor(
            mode="native-parallel", workers=2, backend=NativeBackend(engine="cc")
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
        # A toolchain that cannot build the parallel entry point (numba
        # without parallel=True support) leaves a serial-only kernel: the
        # mode runs it in one serial call and says why.
        base, ref, transformed = _reference_and_transformed(example_4_1(12))
        program = native_codegen.native_program_for(transformed)
        stub = copy.copy(program.kernel)
        stub._par_fn = None
        stub.flavor = None
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
        assert outcome.fallback == (
            f"serial run: the {stub.engine} kernel has no parallel entry point"
        )
        assert outcome.backend == f"native-{stub.engine}"
        assert (outcome.workers, outcome.threads, outcome.engine) == (1, 0, None)
        assert backend.stats["fallback_runs"] == 0

    def test_session_run_result_surfaces_engine(self):
        with Session(mode="native-parallel", backend="native", workers=2) as session:
            result = session.run(example_4_1(10))
            payload = result.to_dict()
        if result.engine is None:
            pytest.skip("driver unavailable for the active engine")
        assert result.engine.startswith("native-")
        assert result.threads >= 1
        assert payload["engine"] == result.engine
        assert payload["threads"] == result.threads

    def test_prepare_plan_charges_compile_to_setup(self):
        native_codegen.clear_kernel_cache()
        backend = NativeBackend()
        transformed = _reference_and_transformed(example_4_1(10))[2]
        plan = transformed.execution_plan()
        backend.prepare_plan(transformed, plan)
        # The (single) build carries both entry points; a subsequent
        # parallel support probe compiles nothing new.
        compiled = backend.stats["compile_seconds"]
        backend.parallel_plan_refusal(transformed, plan)
        backend.prepare_plan(transformed, plan)
        assert backend.stats["compile_seconds"] - compiled < 0.05


# ---------------------------------------------------------------------------
# error parity through the parallel driver
# ---------------------------------------------------------------------------

@needs_engine
class TestParallelErrors:
    def _run_parallel(self, nest, store, threads, engine):
        transformed = TransformedLoopNest.from_report(analyze_nest(nest))
        plan = transformed.execution_plan()
        backend = NativeBackend(engine=engine)
        label = backend.execute_plan_parallel(
            transformed, plan, store, threads=threads, dynamic=True
        )
        if label is None:
            pytest.skip(f"no parallel driver for engine {engine!r}")

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_division_by_zero(self, threads, engine):
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
            self._run_parallel(nest, store.copy(), threads, engine)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_math_domain_error(self, threads, engine):
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
            self._run_parallel(nest, store.copy(), threads, engine)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_overflow_error(self, threads, engine):
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
            self._run_parallel(nest, store.copy(), threads, engine)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("threads", THREAD_COUNTS)
    def test_window_violation(self, threads, engine):
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
            self._run_parallel(nest, tight_store(), threads, engine)

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
# OpenMP probe and the pthreads fallback flavor (cc engine)
# ---------------------------------------------------------------------------

needs_cc = pytest.mark.skipif("cc" not in ENGINES, reason="no C compiler")


@needs_cc
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
        program = native_codegen.native_program_for(transformed, "cc")
        assert program is not None
        assert program.kernel.flavor == "pthreads"
        assert "pthread_create" in program.kernel.source
        plan = transformed.execution_plan()
        packed = native_codegen.packed_ranges_for(plan)
        for threads in THREAD_COUNTS:
            result = base.copy()
            code = program.execute_parallel(result, packed, threads, True)
            assert code == native_codegen.OK
            assert ref.identical(result), f"pthreads flavor diverged at {threads}"

    def test_openmp_source_carries_both_schedules(self, fresh_cache):
        if not native_codegen.openmp_supported():
            pytest.skip("toolchain lacks OpenMP")
        _, _, transformed = _reference_and_transformed(example_4_2(6))
        program = native_codegen.native_program_for(transformed, "cc")
        assert program.kernel.flavor == "openmp"
        assert "schedule(dynamic)" in program.kernel.source
        assert "schedule(static)" in program.kernel.source
