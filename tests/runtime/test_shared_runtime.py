"""Tests for the zero-copy shared-memory runtime.

Covers the contracts the tentpole design rests on:

* ``SharedArrayStore`` round-trips bit-exactly to/from a plain store, and
  attached views alias the owner's memory;
* ``shared`` executor mode is **bit-identical** to the serial interpreter on
  the workload suite and on seeded random nests, with every backend;
* segments are reference-counted honestly: after ``close``/``unlink`` (and
  after every failure path) nothing is left behind in ``/dev/shm``;
* a worker *crash* falls back cleanly to serial execution on the parent's
  untouched store; a worker-*reported* error propagates like a serial run,
  with the loop's own exception type;
* ``ExecutionResult`` reports setup (pool spin-up, copies) and execution
  time separately — the regression tests pinning the timing split.
"""

import glob
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.pipeline import analyze_nest
from repro.exceptions import ExecutionError
from repro.loopnest.builder import loop_nest
from repro.runtime.arrays import OffsetArray, store_for_nest
from repro.runtime.backends import (
    ExecutionBackend,
    InterpreterBackend,
    VectorizedBackend,
    get_backend,
)
from repro.runtime.executor import ParallelExecutor
from repro.runtime.interpreter import execute_nest
from repro.runtime.pool import WorkerPool
from repro.runtime.shared import SharedArrayStore, attach_ndarray, share_ndarray
from repro.workloads.paper_examples import example_4_1, example_4_2
from repro.workloads.suite import workload_suite

# Sibling test module (pytest puts this directory on sys.path): reuse the
# seeded random-nest generator so both differential harnesses draw from the
# same distribution.
from test_backend_differential import _random_nest

SUITE = workload_suite(5)
SUITE_IDS = [case.name for case in SUITE]

needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="segment accounting is checked via /dev/shm"
)


def _segments() -> set:
    return set(glob.glob("/dev/shm/psm_*"))


def _reference_and_transformed(nest):
    transformed = TransformedLoopNest.from_report(analyze_nest(nest))
    base = store_for_nest(nest)
    reference = base.copy()
    execute_nest(nest, reference)
    return base, reference, transformed


# ---------------------------------------------------------------------------
# SharedArrayStore
# ---------------------------------------------------------------------------

class TestSharedArrayStore:
    def test_round_trip_is_bit_exact(self):
        store = store_for_nest(example_4_2(5), initializer="random", seed=3)
        shared = SharedArrayStore.from_store(store)
        try:
            assert shared.to_store().identical(store)
            assert shared.identical(store)
        finally:
            shared.close()
            shared.unlink()

    def test_attached_store_aliases_owner_memory(self):
        store = store_for_nest(example_4_2(4))
        with SharedArrayStore.from_store(store) as owner:
            attached = SharedArrayStore.attach(owner.spec)
            try:
                name = next(iter(store))
                origin = store[name].origin
                attached[name][origin] = 123.5
                assert owner[name][origin] == 123.5
            finally:
                attached.close()

    def test_load_and_copy_back(self):
        store = store_for_nest(example_4_2(4))
        with SharedArrayStore.from_store(store) as shared:
            modified = store.copy()
            name = next(iter(modified))
            modified[name].data[...] = 7.25
            shared.load_from(modified)
            out = store.copy()
            shared.copy_to(out)
            assert out.identical(modified)

    def test_layout_mismatch_rejected(self):
        store = store_for_nest(example_4_2(4))
        with SharedArrayStore.from_store(store) as shared:
            other = store.copy()
            other["EXTRA"] = OffsetArray((0,), (3,))
            assert not shared.matches(other)
            with pytest.raises(ExecutionError):
                shared.load_from(other)

    @needs_dev_shm
    def test_close_and_unlink_leave_no_segments(self):
        before = _segments()
        store = store_for_nest(example_4_1(5))
        shared = SharedArrayStore.from_store(store)
        assert len(_segments()) > len(before)
        shared.close()
        shared.unlink()
        assert _segments() == before

    @needs_dev_shm
    def test_share_ndarray_round_trip(self):
        before = _segments()
        array = np.arange(24, dtype=np.int64).reshape(6, 4)
        segment, spec = share_ndarray(array)
        try:
            attached_segment, view = attach_ndarray(spec)
            assert np.array_equal(view, array)
            attached_segment.close()
        finally:
            segment.close()
            segment.unlink()
        assert _segments() == before


# ---------------------------------------------------------------------------
# differential: shared mode vs. the serial interpreter
# ---------------------------------------------------------------------------

class TestSharedModeDifferential:
    @pytest.mark.parametrize("case", SUITE, ids=SUITE_IDS)
    def test_suite_bit_identical(self, shared_executor_factory, case):
        base, reference, transformed = _reference_and_transformed(case.nest)
        executor = shared_executor_factory("compiled")
        result = base.copy()
        executor.run(transformed, result)
        assert reference.identical(result), case.name

    @pytest.mark.parametrize("backend_name", ["interpreter", "compiled", "vectorized"])
    def test_every_backend_through_one_pool(self, case_nests, backend_name):
        with ParallelExecutor(mode="shared", workers=2, backend=backend_name) as executor:
            for nest in case_nests:
                base, reference, transformed = _reference_and_transformed(nest)
                result = base.copy()
                outcome = executor.run(transformed, result)
                assert outcome.mode == "shared"
                assert reference.identical(result), (backend_name, nest.name)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_nests_bit_identical(self, shared_executor_factory, seed):
        nest = _random_nest(np.random.default_rng(200 + seed))
        base, reference, transformed = _reference_and_transformed(nest)
        executor = shared_executor_factory("vectorized")
        result = base.copy()
        executor.run(transformed, result)
        assert reference.identical(result), (seed, nest.name)

    def test_repeated_runs_reuse_segments(self, shared_executor_factory):
        nest = example_4_1(6)
        base, reference, transformed = _reference_and_transformed(nest)
        executor = shared_executor_factory("compiled")
        first = base.copy()
        executor.run(transformed, first)
        generation = executor._shared.spec.token
        second = base.copy()
        executor.run(transformed, second)
        assert executor._shared.spec.token == generation
        assert reference.identical(first) and reference.identical(second)

    def test_unsupported_body_falls_back_inside_workers(self, shared_executor_factory):
        # A schedule too narrow for the vectorized rounds: every worker must
        # delegate to the compiled engine internally and stay bit-identical.
        nest = example_4_2(5)
        base, reference, transformed = _reference_and_transformed(nest)
        executor = shared_executor_factory(VectorizedBackend(min_parallel_width=10**6))
        result = base.copy()
        outcome = executor.run(transformed, result)
        assert outcome.fallback is None
        assert reference.identical(result)


@pytest.fixture()
def case_nests():
    return [case.nest for case in SUITE[:4]]


@pytest.fixture()
def shared_executor_factory():
    executors = []

    def factory(backend):
        executor = ParallelExecutor(mode="shared", workers=2, backend=backend)
        executors.append(executor)
        return executor

    yield factory
    for executor in executors:
        executor.close()


# ---------------------------------------------------------------------------
# failure paths
# ---------------------------------------------------------------------------

class CrashingBackend(ExecutionBackend):
    """Kills the process when executed inside a pool worker.

    In the parent (the serial fallback path) it behaves like the
    interpreter, so a clean fallback still produces correct results.
    """

    name = "crashing"

    def execute_chunk(self, transformed, chunk, store):
        if multiprocessing.parent_process() is not None:
            os._exit(17)
        InterpreterBackend().execute_chunk(transformed, chunk, store)


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (an unreaped zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestFailurePaths:
    @needs_dev_shm
    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
    def test_workers_exit_when_their_parent_is_killed(self):
        # SIGKILL gives the pool's process no chance to stop its workers:
        # idle workers must notice the lost parent and exit on their own.
        script = (
            "import time\n"
            "from repro.api import Session\n"
            "session = Session(backend='compiled', mode='shared', workers=2)\n"
            "session.run('loop i1 = 0 .. 7\\nloop i2 = 0 .. 7\\n"
            "A[i1, i2] = A[i1, i2 - 1] + 1.0')\n"
            "print(*(p.pid for p in session.executor._pool._processes), flush=True)\n"
            "time.sleep(60)\n"
        )
        package_root = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        child = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, env=env, text=True
        )
        pids = []
        try:
            pids = [int(pid) for pid in child.stdout.readline().split()]
            assert len(pids) == 2 and all(_running(pid) for pid in pids)
            child.kill()
            child.wait()
            deadline = time.monotonic() + 10.0
            while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(_running(pid) for pid in pids)
        finally:
            child.kill()
            child.wait()
            child.stdout.close()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)

    @needs_dev_shm
    def test_worker_crash_falls_back_serially_without_leaks(self):
        before = _segments()
        nest = example_4_2(4)
        base, reference, transformed = _reference_and_transformed(nest)
        with ParallelExecutor(mode="shared", workers=2, backend=CrashingBackend()) as executor:
            result = base.copy()
            outcome = executor.run(transformed, result)
            assert outcome.fallback is not None
            assert "crash" in outcome.fallback
            assert reference.identical(result)
            # The pool was discarded; a later run builds a fresh one and the
            # executor keeps working (here with a healthy backend).
            executor.backend = get_backend("compiled")
            again = base.copy()
            outcome = executor.run(transformed, again)
            assert outcome.fallback is None
            assert reference.identical(again)
        assert _segments() == before

    @needs_dev_shm
    def test_worker_error_propagates_like_serial(self):
        # 1.0 / i2 hits i2 == 0 inside a worker; the parent must raise the
        # exception type a serial run raises, and clean up segments.
        before = _segments()
        nest = (
            loop_nest("divzero")
            .loop("i1", 0, 4)
            .loop("i2", -2, 2)
            .statement("A[i1, i2] = B[i1, i2] + 1.0 / (i2)")
            .build()
        )
        store = store_for_nest(nest)
        transformed = TransformedLoopNest.from_report(analyze_nest(nest))
        with pytest.raises(ZeroDivisionError):
            execute_nest(nest, store.copy())
        with ParallelExecutor(mode="shared", workers=2, backend="interpreter") as executor:
            with pytest.raises(ZeroDivisionError, match=r"group \d+ failed in the worker pool"):
                executor.run(transformed, store.copy())
        assert _segments() == before

    @needs_dev_shm
    def test_other_worker_errors_stay_execution_errors(self):
        # A window violation is an ExecutionError in a serial run, and stays
        # one when a worker reports it; the traceback rides in the message.
        nest = (
            loop_nest("window")
            .loop("i1", 0, 4)
            .loop("i2", 0, 4)
            .statement("A[i1, i2] = B[i1, i2] + 1.0")
            .build()
        )
        store = store_for_nest(nest)
        store["B"] = OffsetArray((0, 0), (5, 3))
        with pytest.raises(ExecutionError):
            execute_nest(nest, store.copy())
        transformed = TransformedLoopNest.from_report(analyze_nest(nest))
        with ParallelExecutor(mode="shared", workers=2, backend="interpreter") as executor:
            with pytest.raises(ExecutionError, match="Traceback") as raised:
                executor.run(transformed, store.copy())
        assert type(raised.value) is ExecutionError

    @needs_dev_shm
    def test_executor_close_is_idempotent_and_clean(self):
        before = _segments()
        nest = example_4_2(4)
        base, _, transformed = _reference_and_transformed(nest)
        executor = ParallelExecutor(mode="shared", workers=2, backend="compiled")
        executor.run(transformed, base.copy())
        executor.close()
        executor.close()
        assert _segments() == before

    def test_pool_rejects_use_after_close(self):
        pool = WorkerPool(workers=1)
        pool.close()
        with pytest.raises(ExecutionError):
            pool.run_job(None, None, [], None, [(0,)])

    def test_run_after_worker_reported_error_is_correct(self):
        # A worker-reported error must leave the executor reusable: run_job
        # drains every group of the failed job before raising, so the next
        # run — which reuses the same store layout and therefore the same
        # shared segments — cannot race stale writes.  Both nests touch the
        # same arrays over the same windows; only the first divides by an
        # index that hits zero.
        def build(name, body):
            return (
                loop_nest(name)
                .loop("i1", 0, 4)
                .loop("i2", -2, 2)
                .statement(body)
                .build()
            )

        failing = build("divzero", "A[i1, i2] = B[i1, i2] + 1.0 / (i2)")
        healthy = build("benign", "A[i1, i2] = B[i1, i2] + 1.0")
        failing_t = TransformedLoopNest.from_report(analyze_nest(failing))
        healthy_t = TransformedLoopNest.from_report(analyze_nest(healthy))
        store = store_for_nest(failing)
        reference = store.copy()
        execute_nest(healthy, reference)
        with ParallelExecutor(mode="shared", workers=2, backend="interpreter") as executor:
            with pytest.raises(ZeroDivisionError):
                executor.run(failing_t, store.copy())
            generation = executor._shared.spec.token
            result = store.copy()
            outcome = executor.run(healthy_t, result)
            assert executor._shared.spec.token == generation  # segments reused
            assert outcome.fallback is None
            assert reference.identical(result)

    def test_program_eviction_resends_to_workers(self):
        # More distinct programs than the parent-side cache holds: evicted
        # programs are explicitly forgotten by the workers and re-registered
        # on their next use, so parent and worker caches never diverge.
        from repro.runtime import pool as pool_module

        nest = example_4_2(3)
        base, reference, _ = _reference_and_transformed(nest)
        programs = [
            (TransformedLoopNest.from_report(analyze_nest(nest)), None)
            for _ in range(pool_module._PARENT_PROGRAM_CACHE + 2)
        ]
        with ParallelExecutor(mode="shared", workers=2, backend="compiled") as executor:
            for transformed, _ in programs:
                result = base.copy()
                executor.run(transformed, result)
                assert reference.identical(result)
            # The first program was evicted along the way; running it again
            # must transparently re-register it.
            result = base.copy()
            executor.run(programs[0][0], result)
            assert reference.identical(result)
            assert len(executor._pool._programs) <= pool_module._PARENT_PROGRAM_CACHE


# ---------------------------------------------------------------------------
# timing split regression
# ---------------------------------------------------------------------------

class TestTimingSplit:
    def test_serial_mode_setup_is_schedule_building_only(self):
        nest = example_4_2(5)
        base, _, transformed = _reference_and_transformed(nest)
        plan = transformed.execution_plan()
        plan.chunk_sizes()  # warm the plan's closed-form sizes
        outcome = ParallelExecutor(mode="serial", backend="compiled").run(
            transformed, base.copy(), plan=plan
        )
        # With a prebuilt plan there is nothing left to set up.
        assert outcome.setup_seconds < outcome.elapsed_seconds + 1e-3
        assert outcome.total_seconds >= outcome.elapsed_seconds

    def test_shared_mode_reports_split(self, shared_executor_factory):
        nest = example_4_1(5)
        base, _, transformed = _reference_and_transformed(nest)
        executor = shared_executor_factory("compiled")
        outcome = executor.run(transformed, base.copy())
        assert outcome.setup_seconds > 0.0  # pool spin-up + segment load
        assert outcome.elapsed_seconds > 0.0
        warm = executor.run(transformed, base.copy())
        # Warm runs only pay copies: setup collapses once the pool is up.
        assert warm.setup_seconds < outcome.setup_seconds
