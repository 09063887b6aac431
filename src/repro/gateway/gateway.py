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
* **analysis/planning overlaps execution** — each admitted job's analysis
  and program construction run on a small thread pool *off* the event loop,
  while previously admitted jobs' chunk groups execute on the execution
  pool; a steady stream keeps both stages busy at once;
* **the unit of queued work is a chunk group, not a job** — a prepared job
  is split by the executor's (telemetry-driven) balancer into per-worker
  chunk groups, and each group is one item on the bounded work queue.  Big
  jobs therefore cannot convoy small ones: their groups interleave on the
  execution workers;
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
from repro.runtime.executor import DriverCall, ExecutionResult

__all__ = ["GatewayConfig", "GatewayStats", "Gateway", "serve"]


@dataclass(frozen=True)
class GatewayConfig:
    """Queueing knobs of one :class:`Gateway`.

    ``max_pending`` is the admission bound: the number of jobs admitted but
    not yet finished before :meth:`Gateway.submit` rejects (or waits).
    ``queue_depth`` bounds the internal chunk-group work queue — a prepared
    job's groups wait for queue space, which in turn throttles the analysis
    stage.  ``analysis_workers`` and ``exec_workers`` size the two thread
    pools (analysis/planning vs chunk-group execution).

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
    queue_depth: int = 128
    analysis_workers: int = 2
    exec_workers: int = 4
    coalesce: bool = True
    result_cache: int = 16

    def __post_init__(self) -> None:
        for name in ("max_pending", "queue_depth", "analysis_workers", "exec_workers"):
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

        >>> stats = GatewayStats(submitted=5, completed=3, failed=0,
        ...                      rejected=1, pending=2, queued_groups=4,
        ...                      max_pending=2, queue_depth=8)
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
    queue_depth: int
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
            "queue_depth": self.queue_depth,
            "coalesced": self.coalesced,
            "result_hits": self.result_hits,
        }

    def describe(self) -> str:
        return (
            f"gateway: {self.pending}/{self.max_pending} pending, "
            f"{self.queued_groups}/{self.queue_depth} group(s) queued, "
            f"{self.submitted} submitted, {self.completed} completed, "
            f"{self.failed} failed, {self.rejected} rejected, "
            f"{self.coalesced} coalesced, {self.result_hits} cache hit(s)"
        )

    def __str__(self) -> str:
        return self.describe()


class _Job:
    """One admitted job's in-flight state (event-loop private)."""

    __slots__ = (
        "future", "analysis", "transformed", "plan", "store", "chunk_sizes",
        "key", "result_key", "checksum", "groups_total", "groups_done",
        "program_seconds", "prepared_at", "exec_started", "exec_elapsed",
        "failed", "admitted_at", "driver", "engine", "labels", "backend",
    )

    def __init__(self, future: "asyncio.Future[RunResult]"):
        self.future = future
        self.admitted_at = time.perf_counter()
        self.analysis = None
        self.transformed = None
        self.plan = None
        self.store = None
        self.chunk_sizes: Tuple[int, ...] = ()
        self.key: Optional[str] = None
        self.result_key: Optional[Tuple] = None
        self.checksum = 0.0
        self.groups_total = 0
        self.groups_done = 0
        self.program_seconds = 0.0
        self.prepared_at = 0.0
        self.exec_started: Optional[float] = None
        self.exec_elapsed = 0.0
        self.failed = False
        self.driver: Optional[DriverCall] = None
        #: The driver's label when the in-kernel driver ran the job.
        self.engine: Optional[str] = None
        #: The engine labels the job's groups returned.
        self.labels: Set[str] = set()
        #: The engine the result reports (set on completion).
        self.backend = ""

    @property
    def threads(self) -> int:
        return self.driver.threads if self.engine else 0


class _CachedResponse:
    """A completed response, ready to be copied out to repeat jobs."""

    __slots__ = (
        "analysis", "chunk_sizes", "backend", "engine", "threads", "checksum", "store",
    )

    def __init__(self, analysis, chunk_sizes, backend, engine, threads, checksum, store):
        self.analysis = analysis
        self.chunk_sizes = chunk_sizes
        self.backend = backend
        self.engine = engine
        self.threads = threads
        self.checksum = checksum
        self.store = store


class Gateway:
    """Bounded, overlapping admission of jobs over one session.

    Wraps an existing :class:`~repro.api.session.Session` — the gateway
    reuses its analysis cache, program LRU, backend and telemetry store, and
    never closes it.  Use as an async context manager (or call
    :meth:`aclose` explicitly): exit drains in-flight jobs, then stops the
    workers and thread pools.

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
        self._queue: Optional[asyncio.Queue] = None
        self._capacity: Optional[asyncio.Condition] = None
        self._idle: Optional[asyncio.Event] = None
        self._workers: List[asyncio.Task] = []
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
        self._queue = asyncio.Queue(maxsize=self.config.queue_depth)
        self._capacity = asyncio.Condition()
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
        self._workers = [
            asyncio.ensure_future(self._exec_worker())
            for _ in range(self.config.exec_workers)
        ]
        self._started = True

    async def aclose(self) -> None:
        """Drain in-flight jobs, then stop workers and pools (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if not self._started:
            return
        # Every admitted job runs to completion before shutdown: new
        # submissions are already rejected (closed flag), so the pending
        # count is monotonically draining.
        await self._idle.wait()
        for _ in self._workers:
            await self._queue.put(None)
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
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
        async with self._capacity:
            if not wait and self._pending >= self.config.max_pending:
                self._rejected += 1
                raise GatewayOverloaded(
                    f"gateway at admission capacity "
                    f"({self._pending}/{self.config.max_pending} job(s) pending)",
                    stats=self.stats(),
                    retry_after_hint=self.retry_after_hint(),
                )
            while self._pending >= self.config.max_pending:
                await self._capacity.wait()
                if self._closed:
                    raise ExecutionError("the gateway closed while waiting")
            self._pending += 1
            self._submitted += 1
            self._idle.clear()
        job = _Job(self._loop.create_future())
        try:
            nest = resolve_source(source, name=name, n=n)
            response_key = self._response_key(nest, placement, initializer)
        except Exception:
            await self._finish_job(job, completed=False)
            raise
        if response_key is not None:
            # Hot path 1: a finished identical job is cached — answer with
            # a private copy of its store, no analysis, no execution.
            cached = self._responses.get(response_key)
            if cached is not None:
                self._responses.move_to_end(response_key)
                self._result_hits += 1
                job.future.set_result(self._result_from_response(cached))
                await self._finish_job(job, completed=True)
                return await job.future
            # Hot path 2: an identical job is in flight — park on it and
            # share its (bit-identical) outcome.
            if self.config.coalesce:
                leader = self._inflight.get(response_key)
                if leader is not None and not leader.failed:
                    self._coalesced += 1
                    self._followers.setdefault(response_key, []).append(job)
                    return await job.future
            self._inflight[response_key] = job
            job.result_key = response_key
        try:
            prepared = await self._loop.run_in_executor(
                self._analysis_pool,
                self._prepare,
                nest, placement, name, initializer,
            )
        except Exception as exc:
            job.failed = True
            await self._settle(job, error=exc)
            raise
        (job.analysis, job.transformed, job.plan, job.store,
         job.chunk_sizes, job.key, groups, job.program_seconds,
         job.driver) = prepared
        job.prepared_at = time.perf_counter()
        job.groups_total = len(groups)
        if not groups:
            self._complete(job)
            await self._settle(job)
            return await job.future
        for group in groups:
            await self._queue.put((job, group))
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
            queued_groups=self._queue.qsize() if self._queue is not None else 0,
            max_pending=self.config.max_pending,
            queue_depth=self.config.queue_depth,
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

    def _prepare(self, nest, placement, name, initializer):
        """Analysis stage (runs on the analysis thread pool).

        Reuses the session's cache and program LRU — a structurally warm
        job costs two dict hits — then either hands the whole plan to the
        backend's in-kernel driver or balances its chunks into per-worker
        groups with the executor's telemetry-driven balancer, sized for the
        gateway's own execution pool.
        """
        session = self.session
        analysis = session._analyze_nest(nest, placement=placement, name=name)
        program_start = time.perf_counter()
        transformed, plan = session._program_for(nest, analysis.report)
        program_seconds = time.perf_counter() - program_start
        executor = session.executor
        executor.backend.prepare_plan(transformed, plan)
        store = store_for_nest(
            nest, initializer=initializer or session.config.initializer
        )
        chunk_sizes = tuple(plan.chunk_sizes())
        driver: Optional[DriverCall] = None
        key: Optional[str] = None
        groups: List[Tuple[int, ...]] = []
        if chunk_sizes:
            # Prefer the in-kernel driver: one native call runs every chunk
            # on exec_workers OS threads, so the job becomes a single group
            # and the per-group Python dispatch disappears.  The probe
            # compiles the kernel and builds the plan's tables — analysis-
            # stage work, exactly where it belongs.
            driver = executor.driver_call(
                transformed, plan, chunk_sizes, workers=self.config.exec_workers
            )
            if driver.refusal is not None:
                driver = None
        if driver is not None:
            groups = [tuple(range(len(chunk_sizes)))]
        elif chunk_sizes:
            key = executor.telemetry_key(transformed, len(chunk_sizes))
            groups = executor.groups_for(
                chunk_sizes, key, workers=self.config.exec_workers
            )
        return (
            analysis, transformed, plan, store, chunk_sizes, key, groups,
            program_seconds, driver,
        )

    def _execute_group(self, job: _Job, group: Tuple[int, ...]) -> Tuple[float, str]:
        """Execution stage (runs on the execution thread pool).

        Executes one chunk group of the job's plan in place on the job's
        store and returns ``(seconds, engine label)``.  Concurrent groups of
        one job share the store without locking — chunks never access a
        common cell with a write.
        """
        start = time.perf_counter()
        if job.driver is not None:
            # The group is the whole plan: one driver call, as in the
            # executor's native-parallel mode.
            label, drove = self.session.executor.execute_whole_plan(
                job.transformed, job.plan, job.store, job.driver
            )
            if drove:
                job.engine = label
        else:
            label = self.session.executor.backend.execute_plan(
                job.transformed, job.plan, job.store, chunk_indices=group
            )
        return time.perf_counter() - start, label

    async def _exec_worker(self) -> None:
        while True:
            item = await self._queue.get()
            if item is None:
                self._queue.task_done()
                return
            job, group = item
            try:
                if not job.failed:
                    if job.exec_started is None:
                        job.exec_started = time.perf_counter()
                    group_elapsed, label = await self._loop.run_in_executor(
                        self._exec_pool, self._execute_group, job, group
                    )
                    job.labels.add(label)
                    if job.key is not None:
                        self.session.executor.telemetry.record_group(
                            job.key, group,
                            [job.chunk_sizes[i] for i in group],
                            group_elapsed,
                        )
            except Exception as exc:
                job.failed = True
                if not job.future.done():
                    job.future.set_exception(exc)
            finally:
                self._queue.task_done()
                job.groups_done += 1
                if job.groups_done >= job.groups_total:
                    if not job.failed:
                        self._complete(job)
                    await self._settle(job)

    def _complete(self, job: _Job) -> None:
        """Assemble the job's RunResult and resolve its future."""
        end = time.perf_counter()
        elapsed = (end - job.exec_started) if job.exec_started is not None else 0.0
        setup = (
            (job.exec_started - job.prepared_at)
            if job.exec_started is not None else 0.0
        )
        # The engine every group ran; the backend's own name when they
        # differ, as in the executor's shared mode.
        job.backend = (
            next(iter(job.labels)) if len(job.labels) == 1
            else self.session.executor.backend.name
        )
        execution = ExecutionResult(
            store=job.store,
            mode="gateway",
            workers=self.config.exec_workers,
            num_chunks=len(job.chunk_sizes),
            elapsed_seconds=elapsed,
            chunk_sizes=job.chunk_sizes,
            backend=job.backend,
            setup_seconds=max(setup, 0.0),
            engine=job.engine,
            threads=job.threads,
        )
        job.checksum = sum(float(array.data.sum()) for array in job.store.values())
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
        later hit (which copies it back out).  Hits report the engine that
        ran the leader.
        """
        return _CachedResponse(
            analysis=job.analysis,
            chunk_sizes=job.chunk_sizes,
            backend=job.backend,
            engine=job.engine,
            threads=job.threads,
            checksum=job.checksum,
            store=job.store.copy(),
        )

    def _result_from_response(self, response: _CachedResponse) -> RunResult:
        """A fresh RunResult around a private copy of a cached response."""
        execution = ExecutionResult(
            store=response.store.copy(),
            mode="gateway",
            workers=self.config.exec_workers,
            num_chunks=len(response.chunk_sizes),
            elapsed_seconds=0.0,
            chunk_sizes=response.chunk_sizes,
            backend=response.backend,
            setup_seconds=0.0,
            engine=response.engine,
            threads=response.threads,
        )
        return RunResult(
            analysis=response.analysis,
            execution=execution,
            checksum=response.checksum,
            program_seconds=0.0,
        )

    async def _settle(self, job: _Job, error: Optional[BaseException] = None) -> None:
        """Close out one leader job: cache, followers, admission slot.

        Runs exactly once per non-coalesced job, on the event loop.  On
        success the response is (optionally) inserted into the LRU and
        every parked follower resolves with a private copy; on failure the
        followers fail with the leader's exception.
        """
        followers: List[_Job] = []
        if job.result_key is not None:
            if self._inflight.get(job.result_key) is job:
                del self._inflight[job.result_key]
            followers = self._followers.pop(job.result_key, [])
        if not job.failed:
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
            if error is None and job.future.done():
                error = job.future.exception()
            for follower in followers:
                if not follower.future.done():
                    follower.future.set_exception(
                        error if error is not None
                        else ExecutionError("the job this one coalesced with failed")
                    )
        await self._finish_job(job, completed=not job.failed)
        for follower in followers:
            await self._finish_job(follower, completed=not job.failed)

    async def _finish_job(self, job: _Job, *, completed: bool) -> None:
        async with self._capacity:
            self._pending -= 1
            if completed:
                self._completed += 1
            else:
                self._failed += 1
            if self._pending == 0:
                self._idle.set()
            self._capacity.notify_all()


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
