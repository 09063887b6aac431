"""The asyncio serving gateway: concurrent admission over one `Session`.

:class:`~repro.api.session.Session` serves one job at a time: ``run`` walks
analyze → plan → execute synchronously, so while one job computes, the next
one's analysis waits.  The gateway turns the same session into a concurrent
front-end:

* **admission** is asynchronous and bounded — at most
  :attr:`GatewayConfig.max_pending` jobs are in flight; beyond that
  :meth:`Gateway.submit` either waits for capacity (``wait=True``) or
  rejects immediately with :class:`~repro.exceptions.GatewayOverloaded`
  carrying the queue statistics at rejection time;
* **warm jobs are prepared inline, cold ones off the loop** — a job whose
  program the session already holds (its program LRU entry, with the
  in-kernel driver decision made, and its analysis in the analysis cache)
  is prepared on the event loop: a cache hit and two lookups, no thread
  hand-off.  Only a job that would analyze, plan or compile goes to a
  small thread pool *off* the event loop, overlapped with the execution
  of earlier jobs' chunk groups;
* **a job's driver runs on the cores other jobs leave free** — the width
  of an in-kernel driver call is decided on the execution worker as the
  job starts: ``exec_workers`` less the threads the gateway's other
  running jobs hold (one per busy worker, plus a driver call's further
  ranges), at least one.  A job that runs alone gets every core, and
  concurrent jobs split them instead of oversubscribing them (a job left
  with one thread runs the serial kernel);
* **a job's store is built and summed on its execution workers** — the
  first of a job's groups to start builds the store just before its
  kernel, and the last to finish sums the checksum just after, so neither
  the analysis threads nor the event loop, which every job passes through,
  spend time that grows with the arrays (a job without chunks is one group
  too); only hot answers copy a cached store on the event loop;
* **the unit of work is a chunk group, not a job** — a prepared job is
  split by the executor's (telemetry-driven) balancer into per-worker
  chunk groups (a driver job is one group), and each group goes straight
  to the execution pool's FIFO, from which a free worker takes the next
  item without waiting for the event loop.  Big jobs therefore cannot
  convoy small ones: their groups interleave on the execution workers.  A
  done-callback on the event loop counts each finished group and settles
  its job after the last;
* **hot traffic never re-executes** — the whole pipeline is deterministic
  (same source, placement and initializer ⇒ bit-identical result), so the
  gateway *coalesces* concurrent identical jobs onto one execution and
  keeps a small LRU of recent responses
  (:attr:`GatewayConfig.result_cache`); a repeat job is answered with a
  private copy of the cached store instead of re-running its chunks.  This
  is what "mixed hot/cold traffic" serving is about: cold jobs pay
  analyze + execute once, hot repeats cost a store copy;
* **results are bit-identical to** ``Session.run`` — cold jobs execute the
  same plans through the same backend on a per-job store (only *when* and
  *by whom* chunks run changes, which is exactly what Lemma 1 / Theorem 2
  make legal), and cached responses are copies of such an execution.

The execution pool is a thread pool: with the native or vectorized backend
the loop body releases the GIL (ctypes / NumPy), so groups genuinely run in
parallel; with pure-Python backends the gateway still overlaps analysis
with execution and preserves the queueing semantics.

    >>> import asyncio
    >>> from repro.api import Session
    >>> from repro.gateway import Gateway
    >>> async def main():
    ...     with Session(backend="vectorized") as session:
    ...         async with Gateway(session) as gateway:
    ...             result = await gateway.submit("examples/loops/example41.loop")
    ...             return result.mode
    >>> asyncio.run(main())
    'gateway'
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.api.inputs import LoopSource, resolve_source
from repro.api.results import RunResult
from repro.api.session import Session
from repro.exceptions import ExecutionError, GatewayOverloaded, WorkloadError
from repro.loopnest.canonical import canonical_hash
from repro.runtime.arrays import store_for_nest
from repro.runtime.executor import ExecutionResult

__all__ = ["GatewayConfig", "GatewayStats", "Gateway", "serve"]


@dataclass(frozen=True)
class GatewayConfig:
    """Queueing knobs of one :class:`Gateway`.

    ``max_pending`` is the admission bound: the number of jobs admitted but
    not yet finished before :meth:`Gateway.submit` rejects (or waits).  It
    also bounds the execution pool's FIFO: a job has at most
    ``exec_workers`` groups, so at most ``max_pending × exec_workers``
    groups wait there.  ``analysis_workers`` and ``exec_workers`` size the
    two thread pools (analysis/planning vs chunk-group execution).

    ``coalesce`` merges concurrent identical jobs onto one execution, and
    ``result_cache`` bounds the LRU of recent responses served to repeat
    jobs without re-executing (0 disables caching).  Both are sound because
    the pipeline is deterministic; both only matter for hot traffic.

        >>> GatewayConfig().max_pending
        32
        >>> GatewayConfig(max_pending=2, exec_workers=8).exec_workers
        8
        >>> GatewayConfig(result_cache=0).result_cache    # always re-execute
        0
    """

    max_pending: int = 32
    analysis_workers: int = 2
    exec_workers: int = 4
    coalesce: bool = True
    result_cache: int = 16

    def __post_init__(self) -> None:
        for name in ("max_pending", "analysis_workers", "exec_workers"):
            if getattr(self, name) < 1:
                raise WorkloadError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.result_cache < 0:
            raise WorkloadError(
                f"result_cache must be >= 0, got {self.result_cache}"
            )


@dataclass(frozen=True)
class GatewayStats:
    """A snapshot of the gateway's queues and counters.

    Attached to every :class:`~repro.exceptions.GatewayOverloaded`
    rejection, so a rejected caller sees the load it was rejected under.
    ``queued_groups`` counts the work items handed to the execution pool
    that no worker has taken yet.

        >>> stats = GatewayStats(submitted=5, completed=3, failed=0,
        ...                      rejected=1, pending=2, queued_groups=4,
        ...                      max_pending=2)
        >>> stats.pending, stats.rejected
        (2, 1)
        >>> stats.to_dict()["queued_groups"]
        4
    """

    submitted: int
    completed: int
    failed: int
    rejected: int
    pending: int
    queued_groups: int
    max_pending: int
    coalesced: int = 0
    result_hits: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "pending": self.pending,
            "queued_groups": self.queued_groups,
            "max_pending": self.max_pending,
            "coalesced": self.coalesced,
            "result_hits": self.result_hits,
        }

    def describe(self) -> str:
        return (
            f"gateway: {self.pending}/{self.max_pending} pending, "
            f"{self.queued_groups} group(s) queued, "
            f"{self.submitted} submitted, {self.completed} completed, "
            f"{self.failed} failed, {self.rejected} rejected, "
            f"{self.coalesced} coalesced, {self.result_hits} cache hit(s)"
        )

    def __str__(self) -> str:
        return self.describe()


class _Job:
    """One admitted job's in-flight state.

    The event loop owns it, except for what its groups write on the
    execution workers: the store (built by the first group to start, under
    ``lock``), the run interval and ``groups_run`` (under ``lock``), the
    driver's ``threads`` and ``engine``, and the checksum and ``finished``
    (by the last group to finish).
    """

    __slots__ = (
        "future", "analysis", "transformed", "plan", "initializer", "store",
        "key", "result_key", "checksum", "groups_total", "groups_done", "groups_run",
        "lock", "program_seconds", "prepared_at", "run_started", "run_ended",
        "finished", "error", "admitted_at", "driver", "threads", "engine", "labels",
        "backend",
    )

    def __init__(self, future: "asyncio.Future[RunResult]"):
        self.future = future
        self.admitted_at = time.perf_counter()
        self.analysis = None
        self.transformed = None
        self.plan = None
        self.initializer: Optional[str] = None
        self.store = None
        self.key: Optional[str] = None
        self.result_key: Optional[Tuple] = None
        self.checksum = 0.0
        self.groups_total = 0
        self.groups_done = 0
        self.groups_run = 0
        self.lock = threading.Lock()
        self.program_seconds = 0.0
        self.prepared_at = 0.0
        #: First kernel start and last kernel end over the job's groups.
        self.run_started = float("inf")
        self.run_ended = 0.0
        #: When the last group finished the checksum.
        self.finished = 0.0
        #: Why the job failed: its analysis error, or the first exception
        #: one of its groups raised (``None`` while it has not failed).
        self.error: Optional[BaseException] = None
        #: Whether the backend's in-kernel driver runs the whole plan.
        self.driver = False
        #: The chunk ranges the driver ran, one OS thread each (0 otherwise).
        self.threads = 0
        #: The driver's label when the in-kernel driver ran the job.
        self.engine: Optional[str] = None
        #: The engine labels the job's groups returned.
        self.labels: Set[str] = set()
        #: The engine the result reports (set on completion).
        self.backend = ""

    @property
    def workers(self) -> int:
        """The workers that ran the job: a driver job's ranges (at least
        one), or a group job's groups."""
        return max(self.threads, self.groups_total)


class _CachedResponse:
    """A completed response, ready to be copied out to repeat jobs."""

    __slots__ = (
        "analysis", "plan", "backend", "engine", "threads", "workers", "checksum",
        "store",
    )

    def __init__(self, analysis, plan, backend, engine, threads, workers, checksum, store):
        self.analysis = analysis
        self.plan = plan
        self.backend = backend
        self.engine = engine
        self.threads = threads
        self.workers = workers
        self.checksum = checksum
        self.store = store


class Gateway:
    """Bounded, overlapping admission of jobs over one session.

    Wraps an existing :class:`~repro.api.session.Session` — the gateway
    reuses its analysis cache, program LRU, backend and telemetry store, and
    never closes it.  Use as an async context manager (or call
    :meth:`aclose` explicitly): exit drains in-flight jobs, then stops the
    thread pools.

        >>> import asyncio
        >>> from repro.api import Session
        >>> async def demo(session):
        ...     async with Gateway(session) as gateway:
        ...         result = await gateway.submit("loop i = 0 .. 3\\nA[i] = A[i] + 1.0")
        ...         return result.mode, gateway.stats().completed
        >>> with Session(backend="vectorized") as session:
        ...     asyncio.run(demo(session))
        ('gateway', 1)

    See ``docs/architecture.md`` for the queueing model.
    """

    def __init__(self, session: Session, config: Optional[GatewayConfig] = None,
                 **overrides: object):
        if config is None:
            config = GatewayConfig(**overrides)  # type: ignore[arg-type]
        elif overrides:
            import dataclasses

            config = dataclasses.replace(config, **overrides)  # type: ignore[arg-type]
        self.session = session
        self.config = config
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._slot_freed: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._analysis_pool: Optional[ThreadPoolExecutor] = None
        self._exec_pool: Optional[ThreadPoolExecutor] = None
        self._started = False
        self._closed = False
        self._pending = 0
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._rejected = 0
        self._coalesced = 0
        self._result_hits = 0
        # EWMA of executed jobs' admission-to-completion seconds; feeds the
        # retry_after_hint attached to overload rejections.
        self._service_ewma = 0.0
        # Threads held by the execution workers' running jobs: one per
        # worker, plus a driver call's further ranges; and the work items
        # handed to the execution pool that no worker has taken yet.
        self._threads_held = 0
        self._queued = 0
        self._threads_lock = threading.Lock()
        # Event-loop private: response LRU, in-flight leaders, and the
        # followers parked on each leader (all keyed by the response key).
        self._responses: "OrderedDict[Tuple, _CachedResponse]" = OrderedDict()
        self._inflight: Dict[Tuple, _Job] = {}
        self._followers: Dict[Tuple, List[_Job]] = {}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _ensure_started(self) -> None:
        if self._closed:
            raise ExecutionError("the gateway is closed")
        if self._started:
            return
        self._loop = asyncio.get_running_loop()
        self._slot_freed = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._analysis_pool = ThreadPoolExecutor(
            max_workers=self.config.analysis_workers,
            thread_name_prefix="gateway-analysis",
        )
        self._exec_pool = ThreadPoolExecutor(
            max_workers=self.config.exec_workers,
            thread_name_prefix="gateway-exec",
        )
        self._started = True

    async def aclose(self) -> None:
        """Drain in-flight jobs, then stop the pools (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if not self._started:
            return
        # Every admitted job runs to completion before shutdown: new
        # submissions are already rejected (closed flag), so the pending
        # count is monotonically draining, and a settled job has no work
        # item left in either pool.
        await self._idle.wait()
        self._analysis_pool.shutdown(wait=True)
        self._exec_pool.shutdown(wait=True)

    async def __aenter__(self) -> "Gateway":
        self._ensure_started()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------ #
    # the surface
    # ------------------------------------------------------------------ #
    async def submit(
        self,
        source: LoopSource,
        *,
        placement: Optional[str] = None,
        name: Optional[str] = None,
        initializer: Optional[str] = None,
        n: Optional[int] = None,
        wait: bool = True,
    ) -> RunResult:
        """Admit one job and await its :class:`~repro.api.results.RunResult`.

        With ``wait=True`` (the default) a full gateway waits for capacity;
        with ``wait=False`` it rejects immediately with
        :class:`~repro.exceptions.GatewayOverloaded` carrying
        :meth:`stats`.  Accepts the same source spellings and options as
        ``Session.run``.
        """
        self._ensure_started()
        if self._pending >= self.config.max_pending:
            if not wait:
                self._rejected += 1
                raise GatewayOverloaded(
                    f"gateway at admission capacity "
                    f"({self._pending}/{self.config.max_pending} job(s) pending)",
                    stats=self.stats(),
                    retry_after_hint=self.retry_after_hint(),
                )
            while self._pending >= self.config.max_pending:
                self._slot_freed.clear()
                await self._slot_freed.wait()
                if self._closed:
                    raise ExecutionError("the gateway closed while waiting")
        # Admitted: from here on every path settles the job, including a
        # caller that stops waiting (its job runs on, its result dropped).
        self._pending += 1
        self._submitted += 1
        self._idle.clear()
        job = _Job(self._loop.create_future())
        try:
            nest = resolve_source(source, name=name, n=n)
            response_key = self._response_key(nest, placement, initializer)
        except Exception:
            self._finish_job(job, completed=False)
            raise
        if response_key is not None:
            # Hot path 1: a finished identical job is cached — answer with
            # a private copy of its store, no analysis, no execution.
            cached = self._responses.get(response_key)
            if cached is not None:
                self._responses.move_to_end(response_key)
                self._result_hits += 1
                result = self._result_from_response(cached)
                self._finish_job(job, completed=True)
                return result
            # Hot path 2: an identical job is in flight — park on it and
            # share its (bit-identical) outcome.
            if self.config.coalesce:
                leader = self._inflight.get(response_key)
                if leader is not None and leader.error is None:
                    self._coalesced += 1
                    self._followers.setdefault(response_key, []).append(job)
                    return await job.future
            self._inflight[response_key] = job
            job.result_key = response_key
        job.initializer = initializer or self.session.config.initializer
        try:
            prepared = self._prepare_warm(nest, placement, name)
        except Exception as exc:
            job.error = exc
            self._settle(job)
            raise
        if prepared is None:
            # Cold: analysis, planning and compiling run on the analysis
            # pool, never on the event loop.
            self._loop.run_in_executor(
                self._analysis_pool, self._prepare, nest, placement, name
            ).add_done_callback(functools.partial(self._prepared, job))
        else:
            self._dispatch(job, self._start_job(job, prepared))
        return await job.future

    async def map(
        self,
        sources: Sequence[LoopSource],
        *,
        placement: Optional[str] = None,
        names: Optional[Sequence[Optional[str]]] = None,
        initializer: Optional[str] = None,
        repeat: int = 1,
        n: Optional[int] = None,
    ) -> List[RunResult]:
        """Submit every source concurrently; results in input order.

        The admission bound applies: at most ``max_pending`` of the jobs
        are in flight at once, the rest wait inside their ``submit``.
        ``repeat`` replays the whole list (rounds concatenated), modelling
        a sustained traffic stream like ``Session.map``.
        """
        sources = list(sources)
        if names is None:
            names = [None] * len(sources)
        elif len(names) != len(sources):
            raise WorkloadError(
                f"names has {len(names)} entries for {len(sources)} sources"
            )
        jobs = [
            self.submit(
                source, placement=placement, name=job_name,
                initializer=initializer, n=n,
            )
            for _ in range(max(1, int(repeat)))
            for source, job_name in zip(sources, names)
        ]
        return list(await asyncio.gather(*jobs))

    def retry_after_hint(self) -> float:
        """Estimated seconds until an admission slot frees up.

        The queue drains ``exec_workers`` jobs at a time at the measured
        (EWMA) per-job service rate, so a rejected caller sleeping roughly
        ``pending * ewma / exec_workers`` seconds lands when capacity is
        plausibly back instead of blind-retrying into a still-full gateway.
        ``0.0`` while no job has completed yet — with no measurement, an
        immediate retry is the best available guess.
        """
        if self._service_ewma <= 0.0:
            return 0.0
        return self._pending * self._service_ewma / self.config.exec_workers

    def stats(self) -> GatewayStats:
        """A snapshot of the gateway's queues and counters."""
        return GatewayStats(
            submitted=self._submitted,
            completed=self._completed,
            failed=self._failed,
            rejected=self._rejected,
            pending=self._pending,
            queued_groups=self._queued,
            max_pending=self.config.max_pending,
            coalesced=self._coalesced,
            result_hits=self._result_hits,
        )

    # ------------------------------------------------------------------ #
    # stages
    # ------------------------------------------------------------------ #
    def _response_key(self, nest, placement, initializer) -> Optional[Tuple]:
        """The deterministic identity of one job's response.

        Same canonical program, same placement, same initializer ⇒ the
        pipeline produces bit-identical stores, so the response can be
        coalesced with an in-flight twin or served from the LRU.  ``None``
        (hashing failed, or both features off) means always execute.
        """
        if not self.config.coalesce and self.config.result_cache == 0:
            return None
        try:
            digest = canonical_hash(nest)
        except Exception:
            return None
        config = self.session.config
        return (
            digest,
            nest.name,
            placement or config.placement,
            initializer or config.initializer,
        )

    def _prepare(self, nest, placement, name):
        """Cold preparation stage (runs on the analysis thread pool).

        Analyzes through the session's cache, builds or reuses the
        session's program, and makes the program's in-kernel driver
        decision once (the probe compiles the kernel and builds the plan's
        tables — analysis-stage work, exactly where it belongs), then
        groups the job as :meth:`_job_groups` does.  Returns what
        :meth:`_start_job` reads.
        """
        session = self.session
        analysis = session._analyze_nest(nest, placement=placement, name=name)
        program_start = time.perf_counter()
        program = session._program_for(nest, analysis.report)
        program_seconds = time.perf_counter() - program_start
        session._probe_driver(program)
        return analysis, program, program_seconds, self._job_groups(program)

    def _prepare_warm(self, nest, placement, name):
        """Inline preparation of a warm job (on the event loop), or ``None``.

        The session's warm lookup answers without analyzing, planning or
        compiling — the analysis cache's hit plus the program LRU entry
        with its driver decision — or not at all, and the job then goes to
        :meth:`_prepare`.
        """
        warm = self.session._warm_program(nest, placement=placement, name=name)
        if warm is None:
            return None
        analysis, program, program_seconds = warm
        return analysis, program, program_seconds, self._job_groups(program)

    def _job_groups(self, program):
        """``(telemetry key, groups)`` of one job of ``program``.

        A plan the in-kernel driver runs, or one without chunks, is one
        whole-plan group (``None``), so every job reaches an execution
        worker.  Otherwise the executor's balancer splits the chunks into
        per-worker groups for the gateway's execution pool, weighted by
        measured costs once the program's telemetry is warm, so they are
        recomputed for every job.  No cell is touched here: the store is
        built by the job's first group.
        """
        plan = program.plan
        if not plan.chunk_count or program.driver_refusal is None:
            return None, [None]
        executor = self.session.executor
        key = executor.telemetry_key(program.transformed, plan.chunk_count)
        return key, executor.groups_for(
            plan.chunk_sizes(), key, workers=self.config.exec_workers
        )

    def _start_job(self, job: _Job, prepared) -> List[Optional[Tuple[int, ...]]]:
        """Record a prepared job's program on it; returns its groups."""
        job.analysis, program, job.program_seconds, (job.key, groups) = prepared
        job.transformed, job.plan = program.transformed, program.plan
        job.driver = bool(job.plan.chunk_count) and program.driver_refusal is None
        job.prepared_at = time.perf_counter()
        job.groups_total = len(groups)
        return groups

    def _prepared(self, job: _Job, future: "asyncio.Future") -> None:
        """A cold job's preparation ended (on the event loop): dispatch its
        groups, or fail and settle it."""
        try:
            prepared = future.result()
        except Exception as exc:
            job.error = exc
            if not job.future.done():
                job.future.set_exception(exc)
            self._settle(job)
            return
        self._dispatch(job, self._start_job(job, prepared))

    def _dispatch(self, job: _Job, groups) -> None:
        """Hand each of a job's groups to the execution pool's FIFO.

        Any free worker takes the next item without waiting for the event
        loop; :meth:`_group_done` counts each item back on the loop.
        """
        with self._threads_lock:
            self._queued += len(groups)
        for group in groups:
            self._loop.run_in_executor(
                self._exec_pool, self._take, job, group
            ).add_done_callback(functools.partial(self._group_done, job, group))

    def _take(self, job: _Job, group: Optional[Tuple[int, ...]]) -> Optional[Tuple[float, str]]:
        """One work item on the execution worker that took it from the
        pool: :meth:`_execute_group`'s result, or ``None`` when the job has
        already failed and the group is skipped."""
        with self._threads_lock:
            self._queued -= 1
        if job.error is not None:
            return None
        return self._execute_group(job, group)

    def _execute_group(self, job: _Job, group: Optional[Tuple[int, ...]]) -> Tuple[float, str]:
        """Execution stage (runs on the execution thread pool).

        Executes one chunk group of the job's plan (``None``: the whole
        plan, run by the in-kernel driver when the job has one) in place on
        the job's store and returns ``(seconds, engine label)``, the
        seconds being the run alone.  The first of the job's groups to
        start builds the store (the others wait on the job's lock), and
        the last to finish sums the checksum.  Concurrent groups of one
        job share the store without locking — chunks never access a
        common cell with a write.

        A driver job's width is decided here, as its kernel starts:
        ``exec_workers`` less the threads the gateway's other running jobs
        hold, at least one.  Each worker running a job holds one thread
        from its store init to the end of its run, and a driver call one
        more per further range.  The ranges are cut from the plan's cached
        running total of chunk sizes, and a single range runs the serial
        kernel.
        """
        with self._threads_lock:
            self._threads_held += 1
        held = 1
        try:
            with job.lock:
                if job.store is None:
                    job.store = store_for_nest(job.analysis.nest, initializer=job.initializer)
            executor = self.session.executor
            starts = None
            if job.driver:
                with self._threads_lock:
                    # This worker's own thread is already counted.
                    free = self.config.exec_workers - (self._threads_held - 1)
                    starts = executor.driver_ranges(job.plan, max(1, free))
                    self._threads_held += len(starts) - 2
                held += len(starts) - 2
            start = time.perf_counter()
            if group is None:
                # One call, as in the executor's serial and native-parallel modes.
                label, job.threads = executor.execute_whole_plan(
                    job.transformed, job.plan, job.store, starts
                )
                if job.threads > 1:
                    job.engine = label
            else:
                label = executor.backend.execute_plan(
                    job.transformed, job.plan, job.store, chunk_indices=group
                )
            end = time.perf_counter()
        finally:
            with self._threads_lock:
                self._threads_held -= held
        with job.lock:
            job.run_started = min(job.run_started, start)
            job.run_ended = max(job.run_ended, end)
            job.groups_run += 1
            last = job.groups_run == job.groups_total
        if last:
            job.checksum = sum(float(array.data.sum()) for array in job.store.values())
            job.finished = time.perf_counter()
        return end - start, label

    def _group_done(self, job: _Job, group, future: "asyncio.Future") -> None:
        """Count one finished work item on the event loop: its engine
        label, its telemetry and its error.  After the job's last item,
        complete or fail the job and settle it."""
        try:
            outcome = future.result()
            if outcome is not None:
                group_elapsed, label = outcome
                job.labels.add(label)
                if job.key is not None:
                    sizes = job.plan.chunk_sizes()
                    self.session.executor.telemetry.record_group(
                        job.key, group, [sizes[i] for i in group], group_elapsed,
                    )
        except Exception as exc:
            if job.error is None:
                job.error = exc
        job.groups_done += 1
        if job.groups_done == job.groups_total:
            # The job's outcome, success or its first failure, reaches the
            # caller once every group has finished.
            if job.error is None:
                self._complete(job)
            elif not job.future.done():
                job.future.set_exception(job.error)
            self._settle(job)

    def _complete(self, job: _Job) -> None:
        """Assemble the job's RunResult and resolve its future.

        Timed on the workers: ``elapsed_seconds`` spans the job's runs, and
        ``setup_seconds`` is everything else after preparation — the wait
        for a worker, the store init before the first run and the
        checksum after the last.
        """
        end = time.perf_counter()
        elapsed = job.run_ended - job.run_started
        setup = (job.run_started - job.prepared_at) + (job.finished - job.run_ended)
        # The engine every group ran; the backend's own name when they
        # differ, as in the executor's shared mode.
        job.backend = (
            next(iter(job.labels)) if len(job.labels) == 1
            else self.session.executor.backend.name
        )
        execution = ExecutionResult(
            store=job.store,
            mode="gateway",
            workers=job.workers,
            num_chunks=job.plan.chunk_count,
            elapsed_seconds=elapsed,
            backend=job.backend,
            setup_seconds=max(setup, 0.0),
            engine=job.engine,
            threads=job.threads,
            plan=job.plan,
        )
        # Executed jobs only (cache hits would drag the estimate toward 0):
        # admission-to-completion is what a queued job actually occupies a
        # slot for, which is what the retry hint needs.
        service = max(end - job.admitted_at, 0.0)
        self._service_ewma = (
            service if self._service_ewma == 0.0
            else 0.4 * service + 0.6 * self._service_ewma
        )
        result = RunResult(
            analysis=job.analysis,
            execution=execution,
            checksum=job.checksum,
            program_seconds=job.program_seconds,
        )
        if not job.future.done():
            job.future.set_result(result)

    def _response_from_job(self, job: _Job) -> _CachedResponse:
        """Freeze a completed job into a shareable response template.

        The store is copied in: the submitting caller owns the original and
        may mutate it, while the template's copy stays pristine for every
        later hit (which copies it back out).  Hits report the engine, the
        threads and the workers that ran the leader.
        """
        return _CachedResponse(
            analysis=job.analysis,
            plan=job.plan,
            backend=job.backend,
            engine=job.engine,
            threads=job.threads,
            workers=job.workers,
            checksum=job.checksum,
            store=job.store.copy(),
        )

    def _result_from_response(self, response: _CachedResponse) -> RunResult:
        """A fresh RunResult around a private copy of a cached response."""
        execution = ExecutionResult(
            store=response.store.copy(),
            mode="gateway",
            workers=response.workers,
            num_chunks=response.plan.chunk_count,
            elapsed_seconds=0.0,
            backend=response.backend,
            setup_seconds=0.0,
            engine=response.engine,
            threads=response.threads,
            plan=response.plan,
        )
        return RunResult(
            analysis=response.analysis,
            execution=execution,
            checksum=response.checksum,
            program_seconds=0.0,
        )

    def _settle(self, job: _Job) -> None:
        """Close out one leader job: cache, followers, admission slot.

        Runs exactly once per non-coalesced job, on the event loop, and
        never waits, so nothing can cancel it half done.  On
        success the response is (optionally) inserted into the LRU and
        every parked follower resolves with a private copy; on failure the
        followers fail with the leader's exception.
        """
        followers: List[_Job] = []
        if job.result_key is not None:
            if self._inflight.get(job.result_key) is job:
                del self._inflight[job.result_key]
            followers = self._followers.pop(job.result_key, [])
        if job.error is None:
            cacheable = job.result_key is not None and self.config.result_cache > 0
            response = None
            if cacheable or followers:
                response = self._response_from_job(job)
            if cacheable:
                self._responses[job.result_key] = response
                self._responses.move_to_end(job.result_key)
                while len(self._responses) > self.config.result_cache:
                    self._responses.popitem(last=False)
            for follower in followers:
                if not follower.future.done():
                    follower.future.set_result(self._result_from_response(response))
        else:
            for follower in followers:
                if not follower.future.done():
                    follower.future.set_exception(job.error)
        self._finish_job(job, completed=job.error is None)
        for follower in followers:
            self._finish_job(follower, completed=job.error is None)

    def _finish_job(self, job: _Job, *, completed: bool) -> None:
        """Free the job's admission slot and count its outcome."""
        self._pending -= 1
        if completed:
            self._completed += 1
        else:
            self._failed += 1
        if self._pending == 0:
            self._idle.set()
        self._slot_freed.set()


def serve(
    session: Session,
    sources: Sequence[LoopSource],
    *,
    config: Optional[GatewayConfig] = None,
    repeat: int = 1,
    placement: Optional[str] = None,
    initializer: Optional[str] = None,
    n: Optional[int] = None,
) -> List[RunResult]:
    """Run a job stream through a gateway from synchronous code.

    Spins up an event loop, opens a :class:`Gateway` over ``session``,
    submits every source (``repeat`` rounds, concatenated) and drains it —
    the synchronous counterpart of ``async with Gateway(...)``, used by the
    CLI's ``serve`` command and the throughput benchmark.

        >>> from repro.api import Session
        >>> from repro.gateway import serve
        >>> with Session(backend="vectorized") as session:
        ...     results = serve(session, ["examples/loops/example41.loop"])
        >>> [result.mode for result in results]
        ['gateway']
    """

    async def _run() -> List[RunResult]:
        async with Gateway(session, config=config) as gateway:
            return await gateway.map(
                sources, placement=placement, initializer=initializer,
                repeat=repeat, n=n,
            )

    return asyncio.run(_run())
