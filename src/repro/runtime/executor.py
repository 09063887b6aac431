"""Chunk-parallel execution of transformed loop nests.

The chunks described by a nest's symbolic
:class:`~repro.plan.ExecutionPlan` are mutually independent, so they may
execute concurrently.  Runs are plan-driven: the executor ships the compact
plan — never iteration tuples — and every worker enumerates exactly the
chunks it executes, in place.  Four execution modes are provided:

* ``serial`` — chunks run one after the other (baseline and reference),
* ``threads`` — a thread pool; because the chunks never touch the same array
  cell the shared store needs no locking.  Note that CPython's GIL limits the
  achievable wall-clock speedup of pure-Python loop bodies; this mode mainly
  demonstrates correctness under concurrent execution,
* ``shared`` — the zero-copy runtime: arrays live in
  ``multiprocessing.shared_memory`` segments
  (:mod:`repro.runtime.shared`) and a persistent
  :class:`~repro.runtime.pool.WorkerPool` executes chunk groups in place.
  Workers attach to the segments once per store generation and stay alive
  across executions, so a steady request stream pays neither fork-per-call
  nor store pickling nor a merge loop.  In-place concurrent writes are legal
  because chunks never access a common cell with a write (Lemma 1 /
  Theorem 2),
* ``native-parallel`` — the in-kernel driver: when the backend exposes a
  compiled parallel entry point (the ``native`` backend's OpenMP / pthreads
  / ``numba.prange`` driver), *one* call executes every chunk on ``workers``
  OS threads with zero per-chunk Python dispatch.  ``threads`` mode
  auto-upgrades to this driver when it is available — the thread pool
  remains as the fallback for backends (or plans) without one.  The
  telemetry's measured per-chunk costs pick the driver's schedule: skewed
  programs get dynamic chunk assignment, uniform ones static blocks.

Orthogonally to the mode, *how* the iterations of a chunk (or of the whole
schedule, in serial mode) are executed is chosen by an execution backend
(:mod:`repro.runtime.backends`): the AST ``interpreter`` reference, the
``compiled`` backend or the NumPy ``vectorized`` backend.  Every backend is
pinned to the interpreter's semantics by the differential test-suite.

Timing is reported split: ``ExecutionResult.elapsed_seconds`` is the pure
execution time and ``setup_seconds`` collects everything that is runtime
overhead, not loop work — plan preparation, pool spin-up, shared-segment
loading and the copy back.  Speedup numbers
computed from ``elapsed_seconds`` therefore compare like with like;
``total_seconds`` is the end-to-end wall clock of the call.

The machine-independent parallelism numbers reported in EXPERIMENTS.md come
from :mod:`repro.runtime.simulator`; the executors are used for correctness
under concurrency and for wall-clock measurements.
"""

from __future__ import annotations

import heapq
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

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

EXECUTION_MODES: Tuple[str, ...] = (
    "serial",
    "threads",
    "shared",
    "native-parallel",
)

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


@dataclass
class ExecutionResult:
    """Outcome of one (possibly parallel) execution.

    ``elapsed_seconds`` is pure execution; ``setup_seconds`` is runtime
    overhead (plan preparation, pool spin-up, segment loading); their
    sum ``total_seconds`` is the wall clock of the whole call.
    """

    store: ArrayStore
    mode: str
    workers: int
    num_chunks: int
    elapsed_seconds: float
    chunk_sizes: Tuple[int, ...] = field(default=())
    backend: str = DEFAULT_BACKEND
    setup_seconds: float = 0.0
    fallback: Optional[str] = None
    #: Engine label of an in-kernel parallel run (e.g. ``"native-cc-openmp"``),
    #: ``None`` for every other path.
    engine: Optional[str] = None
    #: Effective OS-thread count of an in-kernel parallel run (0 otherwise).
    threads: int = 0

    @property
    def total_iterations(self) -> int:
        return sum(self.chunk_sizes)

    @property
    def total_seconds(self) -> float:
        return self.setup_seconds + self.elapsed_seconds


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
        chunk_sizes = tuple(plan.chunk_sizes())
        self.backend.prepare_plan(transformed, plan)
        key = self.telemetry_key(transformed, len(chunk_sizes)) if chunk_sizes else None
        setup = time.perf_counter() - setup_start
        fallback: Optional[str] = None
        engine: Optional[str] = None
        threads_used = 0
        if self.mode == "serial":
            start = time.perf_counter()
            self.backend.execute_plan(transformed, plan, store)
            elapsed = time.perf_counter() - start
            if key is not None:
                # One group holding every chunk: cold programs get their
                # per-iteration rate from serial runs, which seeds the
                # size-proportional prior without changing any grouping.
                self.telemetry.record_group(
                    key, range(len(chunk_sizes)), chunk_sizes, elapsed
                )
        elif self.mode in ("threads", "native-parallel"):
            # Both modes prefer the in-kernel driver — one native call over
            # all chunks — and fall back to per-chunk thread-pool dispatch.
            # ``threads`` is the compatible spelling (auto-upgrade);
            # ``native-parallel`` the explicit request.  Either way the
            # result's ``engine`` field says which path ran (a label for
            # the driver, ``None`` for the thread pool).
            native = self._try_native_parallel(
                transformed, store, plan, chunk_sizes, key
            )
            if native is not None:
                elapsed, extra_setup, engine, threads_used = native
            else:
                elapsed, extra_setup = self._run_threads(
                    transformed, store, plan, chunk_sizes, key
                )
            setup += extra_setup
        else:
            elapsed, extra_setup, fallback = self._run_shared(
                transformed, store, plan, chunk_sizes, key
            )
            setup += extra_setup
        # Report the engine that actually ran: an in-kernel parallel run
        # reports its driver label; thread mode executes chunk-granularly
        # (where the vectorized backend delegates); a serial run may have
        # fallen back dynamically (narrow schedule, unvectorizable body,
        # failed independence check).  Shared mode reports the requested
        # backend; each worker decides on its own view of the store.
        if engine is not None:
            effective = engine
        elif self.mode in ("threads", "native-parallel"):
            effective = self.backend.per_chunk_name
        elif self.mode == "serial":
            effective = getattr(self.backend, "last_execution_engine", self.backend.name)
        else:
            effective = self.backend.name
        return ExecutionResult(
            store=store,
            mode=self.mode,
            workers=self.workers if self.mode != "serial" else 1,
            num_chunks=len(chunk_sizes),
            elapsed_seconds=elapsed,
            chunk_sizes=chunk_sizes,
            backend=effective,
            setup_seconds=setup,
            fallback=fallback,
            engine=engine,
            threads=threads_used,
        )

    # ------------------------------------------------------------------ #
    # in-kernel parallel driver
    # ------------------------------------------------------------------ #
    def _schedule_is_dynamic(
        self, chunk_sizes: Sequence[int], key: Optional[str]
    ) -> bool:
        """Static blocks or dynamic chunk assignment for the native driver?

        The same signal that feeds :meth:`groups_for`: measured per-chunk
        costs when the program is warm, closed-form sizes when cold.  A
        skewed distribution (heaviest chunk > 1.25x the mean) gets dynamic
        scheduling — static blocks would leave threads idle behind the
        heavy chunk; uniform work keeps static blocks and their lower
        scheduling overhead.
        """
        costs = (
            self.telemetry.chunk_costs(key, chunk_sizes) if key is not None else None
        )
        weights: Sequence[float] = costs if costs is not None else chunk_sizes
        if len(weights) < 2:
            return False
        mean = sum(weights) / len(weights)
        if mean <= 0:
            return False
        return max(weights) > 1.25 * mean

    def _try_native_parallel(
        self,
        transformed: TransformedLoopNest,
        store: ArrayStore,
        plan: ExecutionPlan,
        chunk_sizes: Tuple[int, ...],
        key: Optional[str],
    ) -> Optional[Tuple[float, float, str, int]]:
        """One in-kernel parallel call over the whole plan, if possible.

        Returns ``(elapsed, extra_setup, engine_label, threads)`` or ``None``
        when the backend has no parallel driver for this plan (nothing has
        been written then; the caller falls back to per-chunk dispatch).
        The support probe compiles the kernel / packs the range table, both
        cached — that cost lands in the setup window, like ``prepare_plan``.
        """
        if not chunk_sizes:
            return None
        driver = getattr(self.backend, "execute_plan_parallel", None)
        supports = getattr(self.backend, "supports_parallel_plan", None)
        if driver is None or supports is None:
            return None
        setup_start = time.perf_counter()
        if not supports(transformed, plan):
            return None
        threads = max(1, min(self.workers, len(chunk_sizes)))
        dynamic = self._schedule_is_dynamic(chunk_sizes, key)
        extra_setup = time.perf_counter() - setup_start
        start = time.perf_counter()
        engine = driver(transformed, plan, store, threads=threads, dynamic=dynamic)
        elapsed = time.perf_counter() - start
        if engine is None:  # pragma: no cover - probe said yes, driver said no
            return None
        if key is not None:
            # One group holding every chunk: the driver is a single
            # dispatch, so this is the finest observation it can produce.
            self.telemetry.record_group(
                key, range(len(chunk_sizes)), chunk_sizes, elapsed
            )
        return elapsed, extra_setup, engine, threads

    # ------------------------------------------------------------------ #
    def _run_threads(
        self,
        transformed: TransformedLoopNest,
        store: ArrayStore,
        plan: ExecutionPlan,
        chunk_sizes: Tuple[int, ...],
        key: Optional[str],
    ) -> Tuple[float, float]:
        # Chunks are pairwise independent (they never access a common cell with
        # at least one write), so executing them concurrently on the shared
        # store is safe without locking.  Tasks are lazy chunk views; each
        # enumerates its own iterations when it runs.
        # Every chunk is its own dispatch here, so telemetry gets the finest
        # observations this mode can produce: singleton groups.
        def timed_chunk(index: int, chunk) -> None:
            chunk_start = time.perf_counter()
            self.backend.execute_chunk(transformed, chunk, store)
            self.telemetry.record_group(
                key, (index,), (chunk_sizes[index],),
                time.perf_counter() - chunk_start,
            )

        setup_start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            setup = time.perf_counter() - setup_start
            start = time.perf_counter()
            if key is not None:
                futures = [
                    pool.submit(timed_chunk, index, chunk)
                    for index, chunk in enumerate(plan.chunks())
                ]
            else:
                futures = [
                    pool.submit(self.backend.execute_chunk, transformed, chunk, store)
                    for chunk in plan.chunks()
                ]
            for future in futures:
                future.result()
            elapsed = time.perf_counter() - start
        return elapsed, setup

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
    ) -> Tuple[float, float, Optional[str]]:
        if not chunk_sizes:
            return 0.0, 0.0, None
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
            group_seconds = pool.run_job(
                transformed, self.backend, plan, shared.spec, groups
            )
            elapsed = time.perf_counter() - start
            if key is not None:
                # Workers time their own group executions (queue latency
                # excluded), so the feedback reflects pure chunk cost.
                for group_index, seconds in group_seconds.items():
                    group = groups[group_index]
                    self.telemetry.record_group(
                        key, group, [chunk_sizes[i] for i in group], seconds
                    )
            post_start = time.perf_counter()
            shared.copy_to(store)
            setup += time.perf_counter() - post_start
            return elapsed, setup, None
        except WorkerCrashed as crash:
            # Infrastructure failure: the parent's store is untouched (all
            # writes went to the shared segments), so discard the pool and
            # the segments and execute serially instead.
            self._discard_pool()
            self._release_segments()
            setup = time.perf_counter() - setup_start
            start = time.perf_counter()
            self.backend.execute_plan(transformed, plan, store)
            elapsed = time.perf_counter() - start
            return elapsed, setup, f"worker crash, serial fallback ({crash})"
        except ExecutionError:
            # A worker *reported* the error the loop itself raised (window
            # violation, division by zero, ...): propagate it exactly like a
            # serial run would.  The segments stay valid for the next call.
            raise
