"""Batch serving layer: a thin fan-out over :class:`repro.api.Session`.

Production traffic is many small requests: *analyze this nest, execute it,
give me the numbers*.  :class:`BatchService` is the serving loop for that
shape of load.  All the cross-cutting machinery — analysis dedupe through
the memoizing :class:`~repro.core.cache.AnalysisCache`, one persistent
:class:`~repro.runtime.executor.ParallelExecutor` (in ``shared`` mode: one
worker pool attached to one generation of shared segments), the warm LRU of
compiled programs — lives in the :class:`~repro.api.session.Session` the
service owns; the service itself only shapes jobs in and reports out:

* **jobs in** — :class:`BatchJob` rows (name, nest, placement,
  initializer), or :func:`jobs_from_nests` over any uniform loop sources;
* **fan-out** — every job is served through ``Session.run`` against the one
  warm session;
* **reporting** — per-job :class:`JobResult` rows (analysis outcome, split
  setup/execute timings, store checksum) and batch-level throughput
  statistics (jobs/s, iterations/s, cache hit rate).

The CLI front end is ``repro batch *.loop``; the experiment harness uses the
same entry points for the shared-runtime report section.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.api.inputs import LoopSource, resolve_source
from repro.api.session import Session, SessionConfig
from repro.core.cache import AnalysisCache, default_cache
from repro.exceptions import WorkloadError
from repro.loopnest.nest import LoopNest
from repro.utils.formatting import format_table

__all__ = ["BatchJob", "JobResult", "BatchReport", "BatchService", "jobs_from_nests"]


@dataclass(frozen=True)
class BatchJob:
    """One unit of serving work: analyze ``nest`` and execute its schedule.

        >>> from repro.api import resolve_source
        >>> job = BatchJob("tiny", resolve_source("loop i = 0 .. 3\\nA[i] = A[i] + 1.0"))
        >>> job.placement, job.initializer
        ('outer', 'index_sum')
    """

    name: str
    nest: LoopNest
    placement: str = "outer"
    initializer: str = "index_sum"


def jobs_from_nests(
    nests: Sequence[LoopSource], placement: str = "outer", repeat: int = 1
) -> List[BatchJob]:
    """Wrap loop sources into jobs, optionally repeating the list ``repeat`` times.

    Sources may be anything :func:`repro.api.inputs.resolve_source` accepts.
    Repeats model sustained traffic: every copy is a fresh job, but
    structural duplicates resolve through the analysis cache.

        >>> jobs = jobs_from_nests(["loop i = 0 .. 3\\nA[i] = A[i] + 1.0"], repeat=2)
        >>> [job.name for job in jobs]
        ['loop#1', 'loop#2']
    """
    resolved = [resolve_source(source) for source in nests]
    jobs: List[BatchJob] = []
    for round_index in range(max(1, int(repeat))):
        for nest in resolved:
            suffix = f"#{round_index + 1}" if repeat > 1 else ""
            jobs.append(BatchJob(name=f"{nest.name}{suffix}", nest=nest, placement=placement))
    return jobs


@dataclass(frozen=True)
class JobResult:
    """Everything the service derived and measured for one job.

        >>> from repro.service import BatchService, jobs_from_nests
        >>> text = "loop i1 = 0 .. 7\\nloop i2 = 0 .. 7\\nA[i1, i2] = A[i1, i2 - 1] + 1.0"
        >>> with BatchService(mode="serial", backend="vectorized") as service:
        ...     report = service.submit(jobs_from_nests([text]))
        >>> row = report.results[0]
        >>> row.iterations, row.num_chunks, row.parallel_loops
        (64, 8, 1)
    """

    name: str
    iterations: int
    num_chunks: int
    parallel_loops: int
    partitions: int
    cache_hit: bool
    analysis_seconds: float
    setup_seconds: float
    execute_seconds: float
    backend: str
    mode: str
    checksum: float
    fallback: Optional[str] = None
    #: Total work over the largest chunk, derived from the symbolic plan's
    #: closed-form chunk sizes — serving reports parallelism without ever
    #: materializing a schedule.
    ideal_speedup: float = 1.0

    def as_row(self) -> List[object]:
        return [
            self.name,
            self.iterations,
            self.num_chunks,
            self.parallel_loops,
            self.partitions,
            f"{self.ideal_speedup:.1f}",
            "hit" if self.cache_hit else "miss",
            f"{self.analysis_seconds * 1000.0:.2f}",
            f"{self.setup_seconds * 1000.0:.2f}",
            f"{self.execute_seconds * 1000.0:.2f}",
            self.backend,
            f"{self.checksum:.6g}",
        ]


_HEADERS = [
    "job", "iterations", "chunks", "doall", "partitions", "speedup", "analysis",
    "analyze (ms)", "setup (ms)", "execute (ms)", "backend", "checksum",
]


@dataclass(frozen=True)
class BatchReport:
    """Per-job results plus batch-level throughput statistics.

        >>> from repro.service import BatchService, jobs_from_nests
        >>> text = "loop i = 0 .. 3\\nA[i] = A[i] + 1.0"
        >>> with BatchService(mode="serial", backend="vectorized") as service:
        ...     report = service.submit(jobs_from_nests([text], repeat=3))
        >>> report.jobs, report.cache_hits, report.cache_misses
        (3, 2, 1)
        >>> report.hit_rate  # structural duplicates dedupe through the cache
        0.6666666666666666
    """

    results: Tuple[JobResult, ...]
    mode: str
    workers: int
    wall_seconds: float
    analysis_seconds: float
    execute_seconds: float
    cache_hits: int
    cache_misses: int
    cache_summary: str

    @property
    def jobs(self) -> int:
        return len(self.results)

    @property
    def total_iterations(self) -> int:
        return sum(result.iterations for result in self.results)

    @property
    def jobs_per_second(self) -> float:
        return self.jobs / self.wall_seconds if self.wall_seconds > 0 else float("inf")

    @property
    def iterations_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return float("inf")
        return self.total_iterations / self.wall_seconds

    @property
    def hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def table(self) -> str:
        return format_table(_HEADERS, [result.as_row() for result in self.results])

    def describe(self) -> str:
        lines = [self.table(), ""]
        lines.append(
            f"{self.jobs} job(s), {self.total_iterations} iterations in "
            f"{self.wall_seconds * 1000.0:.2f} ms wall "
            f"({self.jobs_per_second:.1f} jobs/s, "
            f"{self.iterations_per_second:.0f} iterations/s)"
        )
        lines.append(
            f"mode: {self.mode} ({self.workers} worker(s)); analysis "
            f"{self.analysis_seconds * 1000.0:.2f} ms total, execution "
            f"{self.execute_seconds * 1000.0:.2f} ms total"
        )
        lines.append(
            f"analysis dedupe: {self.cache_hits} hit(s), {self.cache_misses} miss(es) "
            f"this batch ({self.hit_rate:.0%} hit rate); {self.cache_summary}"
        )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


class BatchService:
    """Submit batches of jobs against one persistent :class:`Session`.

    Either hand in an existing session (the service takes ownership of its
    lifecycle; combining ``session=`` with the other options is an error —
    the session already carries its configuration) or let the constructor
    build one from ``mode`` / ``backend`` / ``workers`` (defaults:
    ``shared`` / ``vectorized`` / 4) — by default joined to the
    process-wide analysis cache so back-to-back services stay warm.  Use as
    a context manager or call :meth:`close`.

        >>> from repro.service import BatchService, jobs_from_nests
        >>> text = "loop i = 0 .. 3\\nA[i] = A[i] + 1.0"
        >>> with BatchService(mode="serial", backend="vectorized") as service:
        ...     report = service.submit(jobs_from_nests([text], repeat=2))
        >>> report.jobs, report.results[0].checksum == report.results[1].checksum
        (2, True)
    """

    def __init__(
        self,
        mode: Optional[str] = None,
        backend: Optional[object] = None,
        workers: Optional[int] = None,
        cache: Optional[AnalysisCache] = None,
        session: Optional[Session] = None,
    ):
        if session is not None:
            if any(option is not None for option in (mode, backend, workers, cache)):
                raise WorkloadError(
                    "pass either session= or mode/backend/workers/cache, not "
                    "both: an injected session already carries its own "
                    "configuration and cache"
                )
        else:
            session = Session(
                SessionConfig(
                    backend=backend if backend is not None else "vectorized",
                    mode=mode if mode is not None else "shared",
                    workers=workers,
                ),
                cache=cache if cache is not None else default_cache(),
            )
        if session.cache is None:
            raise WorkloadError(
                "BatchService needs a caching session: analysis dedupe is the "
                "point of batching (pass a session with use_cache=True)"
            )
        self._session = session

    @property
    def session(self) -> Session:
        return self._session

    @property
    def cache(self) -> AnalysisCache:
        return self._session.cache

    @property
    def mode(self) -> str:
        return self._session.config.mode

    @property
    def workers(self) -> int:
        return self._session.config.resolved_workers()

    @property
    def telemetry(self):
        """The session executor's measured per-chunk cost store.

        Shared with every other consumer of the session (the gateway, the
        CLI): a service batch warms the same feedback the gateway's
        balancer reads.
        """
        return self._session.telemetry

    def stats(self):
        """The owned session's cross-cutting counters (incl. telemetry).

            >>> from repro.service import BatchService
            >>> with BatchService(mode="serial") as service:
            ...     service.stats().runs
            0
        """
        return self._session.stats()

    @property
    def _programs(self):
        """The session's warm program LRU (exposed for white-box tests)."""
        return self._session._programs

    # ------------------------------------------------------------------ #
    def submit(self, jobs: Sequence[BatchJob]) -> BatchReport:
        """Run a batch: dedupe analysis, fan execution out, report throughput."""
        wall_start = time.perf_counter()
        cache = self._session.cache
        hits_before = cache.stats.hits
        misses_before = cache.stats.misses
        results: List[JobResult] = []
        analysis_total = 0.0
        execute_total = 0.0
        for job in jobs:
            run = self._session.run(
                job.nest,
                name=job.name,
                placement=job.placement,
                initializer=job.initializer,
            )
            # Program construction (transformed nest + chunk schedule) counts
            # as analysis for reporting: it is compile-time work a warm
            # program-LRU hit skips, mirroring the analysis cache.
            analysis_seconds = run.analysis_seconds + run.program_seconds
            analysis_total += analysis_seconds
            execute_total += run.execution.total_seconds
            results.append(
                JobResult(
                    name=run.name,
                    iterations=run.iterations,
                    num_chunks=run.num_chunks,
                    parallel_loops=run.report.parallel_loop_count,
                    partitions=run.report.partition_count,
                    cache_hit=run.cache_hit,
                    analysis_seconds=analysis_seconds,
                    setup_seconds=run.setup_seconds,
                    execute_seconds=run.execute_seconds,
                    backend=run.backend,
                    mode=run.mode,
                    checksum=run.checksum,
                    fallback=run.fallback,
                    ideal_speedup=run.ideal_speedup,
                )
            )
        return BatchReport(
            results=tuple(results),
            mode=self.mode,
            workers=self.workers,
            wall_seconds=time.perf_counter() - wall_start,
            analysis_seconds=analysis_total,
            execute_seconds=execute_total,
            cache_hits=cache.stats.hits - hits_before,
            cache_misses=cache.stats.misses - misses_before,
            cache_summary=cache.describe(),
        )

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Tear down the owned session (worker pool, shared segments)."""
        self._session.close()

    def __enter__(self) -> "BatchService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
