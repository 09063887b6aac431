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
  small thread pool *off* the event loop, through the session's own
  prepare step, overlapped with the execution of earlier jobs;
* **a job is one work item, run through the session's own execute step**
  — a prepared job goes straight to the execution pool's FIFO, from which
  a free worker takes the next item without waiting for the event loop.
  That worker builds the store, runs the program through the session's
  executor in the session's ``mode``, verifies it when the session's
  policy asks, and sums the checksum, exactly as ``Session.run`` does; so
  the result reports the same backend, engine, threads, workers, chunks
  and fallback, and only ``mode`` reads ``"gateway"``.  Neither the
  analysis threads nor the event loop spend time that grows with the
  arrays; only hot answers copy a cached store on the event loop;
* **a job's driver runs on the cores other jobs leave free** — under
  ``native-parallel``, the width of a job's in-kernel driver call is
  decided on the execution worker as the job starts: ``exec_workers``
  less the threads the gateway's other running jobs hold, at least one.
  From its store init to its checksum a job holds the threads it runs:
  one, plus a driver call's further ranges.  A job that runs alone gets
  every core, and concurrent jobs split them instead of oversubscribing
  them (a job left with one thread runs the serial kernel);
* **hot traffic never re-executes** — the whole pipeline is deterministic
  (same source, placement and initializer ⇒ bit-identical result), so the
  gateway *coalesces* concurrent identical jobs onto one execution and
  keeps a small LRU of recent responses
  (:attr:`GatewayConfig.result_cache`); a repeat job is answered with a
  private copy of the cached store instead of re-running its chunks.  This
  is what "mixed hot/cold traffic" serving is about: cold jobs pay
  analyze + execute once, hot repeats cost a store copy;
* **results are bit-identical to** ``Session.run`` — jobs execute the
  same plans through the same executor on a per-job store (only *when*
  and *on which worker* a plan runs changes, which Lemma 1 / Theorem 2
  make legal: its chunks are independent), and cached responses are
  copies of such an execution.

The execution pool is a thread pool: with the native or vectorized backend
the loop body releases the GIL (ctypes / NumPy), so jobs genuinely run in
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
import copy
import dataclasses
import functools
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.inputs import LoopSource, resolve_source
from repro.api.results import RunResult
from repro.api.session import Session
from repro.exceptions import ExecutionError, GatewayOverloaded, WorkloadError
from repro.loopnest.canonical import canonical_hash

__all__ = ["GatewayConfig", "GatewayStats", "Gateway", "serve"]


@dataclass(frozen=True)
class GatewayConfig:
    """Queueing knobs of one :class:`Gateway`.

    ``max_pending`` is the admission bound: the number of jobs admitted but
    not yet finished before :meth:`Gateway.submit` rejects (or waits).  It
    also bounds the execution pool's FIFO, where each job is one work item.
    ``analysis_workers`` and ``exec_workers`` size the two thread pools
    (analysis/planning vs job execution); ``exec_workers`` is also the
    number of threads the running jobs' in-kernel driver calls share.

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
    ``queued_groups`` counts the jobs handed to the execution pool that no
    worker has taken yet (each job is one work item there).

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
    """One admitted job's in-flight state, owned by the event loop.

    ``analysis``, ``program`` and ``program_seconds`` are what the
    session's prepare step returned, and ``result`` what its execute step
    returned on the execution worker.
    """

    __slots__ = (
        "future", "admitted_at", "result_key", "initializer", "analysis", "program",
        "program_seconds", "result", "error",
    )

    def __init__(self, future: "asyncio.Future[RunResult]"):
        self.future = future
        self.admitted_at = time.perf_counter()
        self.result_key: Optional[Tuple] = None
        self.initializer: Optional[str] = None
        self.analysis = None
        self.program = None
        self.program_seconds = 0.0
        self.result: Optional[RunResult] = None
        #: Why the job failed: its preparation's or its execution's
        #: exception (``None`` while it has not failed).
        self.error: Optional[BaseException] = None


def _served_copy(result: RunResult) -> RunResult:
    """``result`` around a private copy of its store, as a response served
    without running: no program, setup or execution seconds."""
    execution = copy.copy(result.execution)
    execution.store = result.store.copy()
    execution.elapsed_seconds = execution.setup_seconds = 0.0
    return dataclasses.replace(result, execution=execution, program_seconds=0.0)


class Gateway:
    """Bounded, overlapping admission of jobs over one session.

    Wraps an existing :class:`~repro.api.session.Session` — the gateway
    reuses its analysis cache, program LRU and executor, and never closes
    it.  Use as an async context manager (or call
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
        # job, plus a driver call's further ranges; and the jobs handed to
        # the execution pool that no worker has taken yet.
        self._threads_held = 0
        self._queued = 0
        self._threads_lock = threading.Lock()
        # Event-loop private: response LRU, in-flight leaders, and the
        # followers parked on each leader (all keyed by the response key).
        self._responses: "OrderedDict[Tuple, RunResult]" = OrderedDict()
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
                result = _served_copy(cached)
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
        job.initializer = initializer
        try:
            prepared = self.session._warm_program(nest, placement=placement, name=name)
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
            self._dispatch(job, prepared)
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

        The session's prepare step — analysis through its cache, its
        program LRU — plus the program's in-kernel driver decision, made
        once (the probe compiles the kernel and builds the plan's tables:
        analysis-stage work, kept off the execution workers and the event
        loop).  Returns what :meth:`_dispatch` reads.
        """
        prepared = self.session._prepare(nest, placement=placement, name=name)
        self.session._probe_driver(prepared[1])
        return prepared

    def _prepared(self, job: _Job, future: "asyncio.Future") -> None:
        """A cold job's preparation ended (on the event loop): dispatch it,
        or fail and settle it."""
        try:
            prepared = future.result()
        except Exception as exc:
            job.error = exc
            if not job.future.done():
                job.future.set_exception(exc)
            self._settle(job)
            return
        self._dispatch(job, prepared)

    def _dispatch(self, job: _Job, prepared) -> None:
        """Hand a prepared job to the execution pool's FIFO as one work item.

        Any free worker takes it without waiting for the event loop;
        :meth:`_executed` settles the job back on the loop.
        """
        job.analysis, job.program, job.program_seconds = prepared
        with self._threads_lock:
            self._queued += 1
        self._loop.run_in_executor(
            self._exec_pool, self._execute_group, job, time.perf_counter()
        ).add_done_callback(functools.partial(self._executed, job))

    def _execute_group(self, job: _Job, dispatched: float) -> RunResult:
        """Execution stage (runs on the execution worker that took the job).

        Runs the session's execute step for the job and returns its
        result, with ``mode="gateway"`` and the job's wait for a worker
        since ``dispatched`` added to ``setup_seconds``.

        The job's driver width is decided here, as it starts:
        ``exec_workers`` less the threads the gateway's other running jobs
        hold, at least one.  The job holds the threads it runs at that
        width until its checksum is summed.
        """
        started = time.perf_counter()
        with self._threads_lock:
            self._queued -= 1
            width = max(1, self.config.exec_workers - self._threads_held)
            held = self._threads_at(job.program, width)
            self._threads_held += held
        try:
            result = self.session._execute(
                job.analysis, job.program, job.program_seconds,
                initializer=job.initializer, workers=width,
            )
        finally:
            with self._threads_lock:
                self._threads_held -= held
        result.execution.mode = "gateway"
        result.execution.setup_seconds += started - dispatched
        return result

    def _threads_at(self, program, width: int) -> int:
        """The threads a job of ``program`` runs at driver width ``width``:
        the ranges the session's executor cuts for its driver, or one."""
        plan = program.plan
        if (
            self.session.config.mode != "native-parallel"
            or program.driver_refusal is not None
            or not plan.total_iterations
        ):
            return 1
        starts = self.session.executor.driver_ranges(plan, width)
        return 1 if starts is None else len(starts) - 1

    def _executed(self, job: _Job, future: "asyncio.Future") -> None:
        """A job's work item finished (on the event loop): complete or fail
        the job, then settle it."""
        try:
            job.result = future.result()
        except Exception as exc:
            job.error = exc
            if not job.future.done():
                job.future.set_exception(exc)
        else:
            # Executed jobs only (cache hits would drag the estimate toward
            # 0): admission-to-completion is what a queued job actually
            # occupies a slot for, which is what the retry hint needs.
            service = max(time.perf_counter() - job.admitted_at, 0.0)
            self._service_ewma = (
                service if self._service_ewma == 0.0
                else 0.4 * service + 0.6 * self._service_ewma
            )
            if not job.future.done():
                job.future.set_result(job.result)
        self._settle(job)

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
            # The template's store is a copy: the submitting caller owns the
            # original and may mutate it, while every later hit copies the
            # pristine template.
            response = None
            if cacheable or followers:
                response = _served_copy(job.result)
            if cacheable:
                self._responses[job.result_key] = response
                self._responses.move_to_end(job.result_key)
                while len(self._responses) > self.config.result_cache:
                    self._responses.popitem(last=False)
            for follower in followers:
                if not follower.future.done():
                    follower.future.set_result(_served_copy(response))
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
