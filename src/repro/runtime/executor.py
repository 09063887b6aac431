"""Chunk-parallel execution of transformed loop nests.

The chunks described by a nest's symbolic
:class:`~repro.plan.ExecutionPlan` are mutually independent, so they may
execute concurrently.  Runs are plan-driven: the executor ships the compact
plan — never iteration tuples — and every worker enumerates exactly the
chunks it executes, in place.  Three execution modes are provided:

* ``serial`` — one backend call runs every chunk, one after the other
  (baseline and reference),
* ``shared`` — the zero-copy runtime: arrays live in
  ``multiprocessing.shared_memory`` segments
  (:mod:`repro.runtime.shared`) and a persistent
  :class:`~repro.runtime.pool.WorkerPool` executes chunk groups in place.
  Workers attach to the segments once per store generation and stay alive
  across executions, so a steady request stream pays neither fork-per-call
  nor store pickling nor a merge loop.  In-place concurrent writes are legal
  because chunks never access a common cell with a write (Lemma 1 /
  Theorem 2).  This is the multi-core path for Python loop bodies,
* ``native-parallel`` — the in-kernel driver: when the backend exposes a
  compiled parallel entry point (the ``native`` backend's OpenMP or
  pthreads driver), *one* call executes every chunk on ``workers`` OS
  threads with zero per-chunk Python dispatch.  Skewed chunk sizes get
  dynamic chunk assignment, uniform ones static blocks.  When the backend
  has no driver for the plan, the run makes the same single call as
  ``serial`` and ``ExecutionResult.fallback`` names the reason.

Orthogonally to the mode, *how* the iterations of a chunk (or of the whole
schedule, in serial mode) are executed is chosen by an execution backend
(:mod:`repro.runtime.backends`): the AST ``interpreter`` reference, the
``compiled`` backend, the NumPy ``vectorized`` backend or the ``native``
kernels.  Every backend is pinned to the interpreter's semantics by the
differential test-suite.

Timing is reported split: ``ExecutionResult.elapsed_seconds`` is the pure
execution time and ``setup_seconds`` collects everything that is runtime
overhead, not loop work — plan preparation, pool spin-up, shared-segment
loading and the copy back.  Speedup numbers
computed from ``elapsed_seconds`` therefore compare like with like;
``total_seconds`` is the end-to-end wall clock of the call.

The machine-independent parallelism numbers of the experiment harness
(:mod:`repro.experiments`) come from :mod:`repro.runtime.simulator`; the
executors are used for correctness under concurrency and for wall-clock
measurements.
"""

from __future__ import annotations

import heapq
import os
import time
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.codegen.transformed_nest import TransformedLoopNest
from repro.exceptions import ExecutionError
from repro.loopnest.canonical import canonical_hash
from repro.plan import ExecutionPlan
from repro.runtime.arrays import ArrayStore
from repro.runtime.backends import DEFAULT_BACKEND, ExecutionBackend, resolve_backend
from repro.runtime.pool import WorkerCrashed, WorkerPool
from repro.runtime.shared import SharedArrayStore
from repro.runtime.telemetry import ExecutionTelemetry

__all__ = [
    "EXECUTION_MODES",
    "ExecutionResult",
    "ParallelExecutor",
    "default_worker_count",
]

EXECUTION_MODES: Tuple[str, ...] = ("serial", "shared", "native-parallel")

#: Environment override for the default worker count.
WORKERS_ENV = "REPRO_WORKERS"

#: Hosts with very wide sockets get clamped: beyond this the chunk counts of
#: typical plans no longer feed every thread anyway.
_MAX_DEFAULT_WORKERS = 16


def default_worker_count() -> int:
    """Worker threads/processes to use when the caller names no count.

    ``$REPRO_WORKERS`` (a positive integer) wins; otherwise
    ``os.cpu_count()`` clamped to ``[1, 16]``.  The old hardcoded ``4``
    oversubscribed small containers and left big hosts idle.
    """
    override = os.environ.get(WORKERS_ENV, "").strip()
    if override:
        try:
            value = int(override)
        except ValueError:
            value = 0
        if value >= 1:
            return value
    return max(1, min(os.cpu_count() or 1, _MAX_DEFAULT_WORKERS))


class ExecutionResult:
    """Outcome of one (possibly parallel) execution.

    ``elapsed_seconds`` is pure execution; ``setup_seconds`` is runtime
    overhead (plan preparation, pool spin-up, segment loading); their
    sum ``total_seconds`` is the wall clock of the whole call.

    Runs that size their chunks anyway (``shared`` mode, the gateway) pass
    ``chunk_sizes``.  Serial and driver runs never size chunks: they pass
    their ``plan`` instead, ``chunk_sizes`` is computed from it the first
    time it is read, and ``total_iterations`` is the plan's
    ``total_iterations``.
    """

    def __init__(
        self,
        store: ArrayStore,
        mode: str,
        workers: int,
        num_chunks: int,
        elapsed_seconds: float,
        chunk_sizes: Optional[Sequence[int]] = None,
        backend: str = DEFAULT_BACKEND,
        setup_seconds: float = 0.0,
        fallback: Optional[str] = None,
        engine: Optional[str] = None,
        threads: int = 0,
        plan: Optional[ExecutionPlan] = None,
    ):
        self.store = store
        self.mode = mode
        self.workers = workers
        self.num_chunks = num_chunks
        self.elapsed_seconds = elapsed_seconds
        self.backend = backend
        self.setup_seconds = setup_seconds
        #: Why the run left its mode's path — a ``native-parallel`` run without
        #: a driver, a ``shared`` run after a worker crash — ``None`` otherwise.
        self.fallback = fallback
        #: Engine label of an in-kernel parallel run (e.g. ``"native-cc-openmp"``),
        #: ``None`` for every other path.
        self.engine = engine
        #: Effective OS-thread count of an in-kernel parallel run (0 otherwise).
        self.threads = threads
        #: The plan a serial or driver run executed (``None`` otherwise).
        self.plan = plan
        self._chunk_sizes = None if chunk_sizes is None else tuple(chunk_sizes)

    @property
    def chunk_sizes(self) -> Tuple[int, ...]:
        if self._chunk_sizes is None:
            self._chunk_sizes = (
                tuple(self.plan.chunk_sizes()) if self.plan is not None else ()
            )
        return self._chunk_sizes

    @property
    def total_iterations(self) -> int:
        if self.plan is not None:
            return self.plan.total_iterations
        return sum(self.chunk_sizes)

    @property
    def total_seconds(self) -> float:
        return self.setup_seconds + self.elapsed_seconds


class DriverCall(NamedTuple):
    """One in-kernel driver call over a whole plan, or why there is none.

    With ``refusal`` None the backend's driver runs every chunk on
    ``threads`` OS threads, assigning chunks dynamically when ``dynamic``;
    otherwise ``refusal`` names why the backend has no driver for the plan.
    """

    threads: int = 0
    dynamic: bool = False
    refusal: Optional[str] = None


def _schedule_is_dynamic(chunk_sizes: Sequence[int]) -> bool:
    """Static blocks or dynamic chunk assignment for the in-kernel driver?

    A skewed size distribution (largest chunk > 1.25x the mean) gets
    dynamic scheduling — static blocks would leave threads idle behind the
    heavy chunk; uniform work keeps static blocks and their lower
    scheduling overhead.
    """
    if len(chunk_sizes) < 2:
        return False
    mean = sum(chunk_sizes) / len(chunk_sizes)
    return mean > 0 and max(chunk_sizes) > 1.25 * mean


class ParallelExecutor:
    """Execute the chunks of a transformed nest serially or in parallel.

    ``shared`` mode holds persistent state (the worker pool and the current
    generation of shared segments); call :meth:`close` — or use the executor
    as a context manager — when done.  The other modes hold no state.
    """

    def __init__(
        self,
        mode: str = "serial",
        workers: Optional[int] = None,
        backend: object = DEFAULT_BACKEND,
        telemetry: Optional[ExecutionTelemetry] = None,
    ):
        if mode not in EXECUTION_MODES:
            raise ExecutionError(
                f"unknown execution mode {mode!r}; available: {', '.join(EXECUTION_MODES)}"
            )
        self.mode = mode
        self.workers = workers or default_worker_count()
        self.backend: ExecutionBackend = resolve_backend(backend)
        #: Measured per-chunk cost store feeding :meth:`groups_for`; inject
        #: one to share observations across executors (e.g. a gateway and
        #: its session), or leave the default executor-private store.
        self.telemetry: ExecutionTelemetry = (
            telemetry if telemetry is not None else ExecutionTelemetry()
        )
        self._pool: Optional[WorkerPool] = None
        self._shared: Optional[SharedArrayStore] = None

    # ------------------------------------------------------------------ #
    # lifecycle (shared mode)
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release the persistent pool and shared segments (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._release_segments()

    def _release_segments(self) -> None:
        if self._shared is not None:
            self._shared.close()
            self._shared.unlink()
            self._shared = None

    def _discard_pool(self) -> None:
        if self._pool is not None:
            self._pool.close(timeout=0.5)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort safety net
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    def run(
        self,
        transformed: TransformedLoopNest,
        store: ArrayStore,
        plan: Optional[ExecutionPlan] = None,
    ) -> ExecutionResult:
        """Execute the transformed nest on ``store`` (modified in place).

        ``plan`` defaults to the nest's own symbolic
        :class:`~repro.plan.ExecutionPlan`; an optimized plan of the same
        nest (e.g. a coalesced one) runs instead when given.  Every mode
        enumerates only the iterations it executes, when it executes them.
        """
        setup_start = time.perf_counter()
        if plan is None:
            plan = transformed.execution_plan()
        self.backend.prepare_plan(transformed, plan)
        if self.mode == "shared":
            chunk_sizes = tuple(plan.chunk_sizes())
            key = self.telemetry_key(transformed, len(chunk_sizes)) if chunk_sizes else None
            setup = time.perf_counter() - setup_start
            elapsed, extra_setup, fallback, engine = self._run_shared(
                transformed, store, plan, chunk_sizes, key
            )
            # The engine the workers ran when they all agree.
            return ExecutionResult(
                store=store,
                mode=self.mode,
                workers=self.workers,
                num_chunks=len(chunk_sizes),
                elapsed_seconds=elapsed,
                chunk_sizes=chunk_sizes,
                backend=engine or self.backend.name,
                setup_seconds=setup + extra_setup,
                fallback=fallback,
            )
        # Whole-plan runs count chunks on the key table, which the native
        # kernels read anyway (building it here keeps it in the setup
        # window); only the driver's schedule choice sizes them.
        keys = plan.key_table()
        num_chunks = plan.chunk_count if keys is None else len(keys)
        driver = (
            self.driver_call(transformed, plan)
            if self.mode == "native-parallel" and num_chunks
            else None
        )
        setup = time.perf_counter() - setup_start
        start = time.perf_counter()
        label, drove = self.execute_whole_plan(transformed, plan, store, driver)
        elapsed = time.perf_counter() - start
        fallback: Optional[str] = None
        if driver is not None and not drove:
            fallback = f"serial run: {driver.refusal or 'the in-kernel driver declined'}"
        # Report the engine that actually ran: the driver's label, or
        # whatever the serial call fell back to (a narrow schedule, an
        # unvectorizable body, a program without a native kernel).
        return ExecutionResult(
            store=store,
            mode=self.mode,
            workers=self.workers if drove else 1,
            num_chunks=num_chunks,
            elapsed_seconds=elapsed,
            backend=label,
            setup_seconds=setup,
            fallback=fallback,
            engine=label if drove else None,
            threads=driver.threads if drove else 0,
            plan=plan,
        )

    # ------------------------------------------------------------------ #
    # whole-plan execution: the in-kernel driver or one serial call
    # ------------------------------------------------------------------ #
    def driver_call(
        self,
        transformed: TransformedLoopNest,
        plan: ExecutionPlan,
        chunk_sizes: Optional[Sequence[int]] = None,
        workers: Optional[int] = None,
    ) -> DriverCall:
        """The backend's in-kernel driver call for a whole plan.

        Probes whether the backend's driver runs this plan (compiling the
        kernel and building the plan's tables, all cached — call it inside
        a setup window), clamps the thread count to ``workers`` (default:
        the executor's own) and the chunk count, and picks the schedule
        from the chunk sizes (default: the plan's, computed only once the
        driver accepted).  A refused call carries the reason instead.
        """
        refusal = self.backend.parallel_plan_refusal(transformed, plan)
        if refusal is not None:
            return DriverCall(refusal=refusal)
        if chunk_sizes is None:
            chunk_sizes = plan.chunk_sizes()
        return DriverCall(
            threads=max(1, min(workers or self.workers, len(chunk_sizes))),
            dynamic=_schedule_is_dynamic(chunk_sizes),
        )

    def execute_whole_plan(
        self,
        transformed: TransformedLoopNest,
        plan: ExecutionPlan,
        store: ArrayStore,
        driver: Optional[DriverCall],
    ) -> Tuple[str, bool]:
        """Run every chunk of ``plan`` in one backend call, in place.

        Returns ``(label, drove)``: the label of the engine that ran and
        whether it was the in-kernel driver.  The driver runs when
        ``driver`` accepted the plan.  Otherwise — no driver, or the driver
        declined the store's layout before writing anything — the backend's
        serial :meth:`~repro.runtime.backends.ExecutionBackend.execute_plan`
        runs.
        """
        if driver is not None and driver.refusal is None:
            label = self.backend.execute_plan_parallel(
                transformed, plan, store, threads=driver.threads, dynamic=driver.dynamic
            )
            if label is not None:
                return label, True
        return self.backend.execute_plan(transformed, plan, store), False

    # ------------------------------------------------------------------ #
    def telemetry_key(
        self, transformed: TransformedLoopNest, chunk_count: int
    ) -> Optional[str]:
        """The telemetry identity of one (program, chunk space) pair.

        Keyed by the canonical structural hash of the transformed nest —
        renamed copies of one program share their measurements, like the
        native backend shares kernels — plus the plan's chunk count, so a
        coalesced plan never mixes observations with the raw plan of the
        same program (their chunk orders differ).
        """
        try:
            digest = canonical_hash(transformed.nest)
        except Exception:
            return None
        return f"{digest}:{int(chunk_count)}"

    def groups_for(
        self,
        chunk_sizes: Sequence[int],
        key: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> List[Tuple[int, ...]]:
        """Balanced chunk groups, telemetry-driven when the program is warm.

        With a warm ``key`` the LPT weights are the *measured* per-chunk
        costs (:class:`~repro.runtime.telemetry.ExecutionTelemetry`); cold —
        or with ``key=None`` — they are the closed-form chunk sizes, i.e.
        exactly the old behavior.  Either way only the grouping changes,
        never the chunks themselves, so results stay bit-identical across
        policies.  ``workers`` overrides the executor's own worker count
        (the gateway balances for its own pool width).
        """
        costs = (
            self.telemetry.chunk_costs(key, chunk_sizes) if key is not None else None
        )
        return self._balanced_groups(chunk_sizes, costs, workers=workers)

    def _balanced_groups(
        self,
        chunk_sizes: Sequence[int],
        costs: Optional[Sequence[float]] = None,
        workers: Optional[int] = None,
    ) -> List[Tuple[int, ...]]:
        """Greedy least-loaded (LPT) assignment of chunk indices to workers.

        Chunks are taken heaviest first and each goes to the currently
        lightest group — the classic longest-processing-time heuristic
        (4/3-optimal makespan).  The round-robin this replaces ignored the
        loads it had already dealt, so skewed distributions could leave one
        group with nearly twice the work (sizes ``9,7,5,3`` over two
        workers round-robin to 14 vs 10; LPT gives 12 vs 12).  The weights
        are the closed-form chunk sizes by default — balancing never needs
        the iterations themselves — or, when ``costs`` is given, measured
        per-chunk costs (see :meth:`groups_for`); ties break on chunk then
        group id, keeping the grouping deterministic.
        """
        weights: Sequence[float] = costs if costs is not None else chunk_sizes
        group_count = min(workers or self.workers, len(chunk_sizes))
        groups: List[List[int]] = [[] for _ in range(group_count)]
        order = sorted(range(len(weights)), key=lambda i: (-weights[i], i))
        heap: List[Tuple[float, int]] = [(0.0, g) for g in range(group_count)]
        for index in order:
            load, lightest = heapq.heappop(heap)
            groups[lightest].append(index)
            heapq.heappush(heap, (load + float(weights[index]), lightest))
        return [tuple(group) for group in groups if group]

    def _ensure_shared_store(self, store: ArrayStore) -> SharedArrayStore:
        """Reuse the current segment generation when the layout matches."""
        if self._shared is not None and self._shared.matches(store):
            self._shared.load_from(store)
            return self._shared
        self._release_segments()
        self._shared = SharedArrayStore.from_store(store)
        return self._shared

    def _run_shared(
        self,
        transformed: TransformedLoopNest,
        store: ArrayStore,
        plan: ExecutionPlan,
        chunk_sizes: Tuple[int, ...],
        key: Optional[str],
    ) -> Tuple[float, float, Optional[str], Optional[str]]:
        """Run the groups on the pool: ``(elapsed, setup, fallback note,
        engine)``, the engine being the one every worker reported (None
        when they differ).  An error a worker *reported* propagates with
        the type a serial run raises; the segments stay valid for the next
        call."""
        if not chunk_sizes:
            return 0.0, 0.0, None, None
        setup_start = time.perf_counter()
        if self._pool is None:
            self._pool = WorkerPool(workers=self.workers)
        pool = self._pool
        # Spin the workers up inside the setup window (no-op when already
        # running): pool start-up is the one-time cost a persistent runtime
        # amortizes, not execution time.
        pool.start()
        groups = self.groups_for(chunk_sizes, key)
        try:
            shared = self._ensure_shared_store(store)
            setup = time.perf_counter() - setup_start
            start = time.perf_counter()
            # The pool's program cache is keyed by identity, so a repeated
            # run with the same plan object ships the program only once.
            outcomes = pool.run_job(
                transformed, self.backend, plan, shared.spec, groups
            )
            elapsed = time.perf_counter() - start
            if key is not None:
                # Workers time their own group executions (queue latency
                # excluded), so the feedback reflects pure chunk cost.
                for group_index, (seconds, _) in outcomes.items():
                    group = groups[group_index]
                    self.telemetry.record_group(
                        key, group, [chunk_sizes[i] for i in group], seconds
                    )
            post_start = time.perf_counter()
            shared.copy_to(store)
            setup += time.perf_counter() - post_start
            engines = {engine for _, engine in outcomes.values()}
            return elapsed, setup, None, engines.pop() if len(engines) == 1 else None
        except WorkerCrashed as crash:
            # Infrastructure failure: the parent's store is untouched (all
            # writes went to the shared segments), so discard the pool and
            # the segments and execute serially instead.
            self._discard_pool()
            self._release_segments()
            setup = time.perf_counter() - setup_start
            start = time.perf_counter()
            engine = self.backend.execute_plan(transformed, plan, store)
            elapsed = time.perf_counter() - start
            return elapsed, setup, f"worker crash, serial fallback ({crash})", engine
