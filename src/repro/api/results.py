"""The unified result model of the :mod:`repro.api` surface.

Every :class:`~repro.api.session.Session` method returns one of two
dataclasses composing the existing analysis/runtime artifacts behind stable
field names:

* :class:`AnalysisResult` — the outcome of ``Session.analyze``: the
  underlying :class:`~repro.core.pipeline.ParallelizationReport`, cache
  provenance (``cache_hit``) and wall-clock analysis time, with flat
  accessors for the numbers dashboards ask for (``parallel_loops``,
  ``partitions``, ``depth``);
* :class:`RunResult` — the outcome of ``Session.run``: an
  :class:`AnalysisResult` plus the runtime's
  :class:`~repro.runtime.executor.ExecutionResult`, the store checksum and
  the optional verification outcome.

Both serialize with ``to_dict()`` (JSON-safe built-ins only — matrices as
nested lists, never NumPy arrays or AST nodes) and ``to_json()``, so a
serving layer can put them on the wire directly.  :class:`SessionStats`
reports the session's cross-cutting state (cache counters, executor
lifecycle) in the same style.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.pipeline import ParallelizationReport
from repro.loopnest.nest import LoopNest
from repro.runtime.executor import ExecutionResult

__all__ = ["AnalysisResult", "RunResult", "SessionStats"]


def _matrix(rows) -> List[List[int]]:
    """A matrix as plain nested lists of ints (JSON-safe)."""
    return [[int(value) for value in row] for row in rows]


@dataclass(frozen=True)
class AnalysisResult:
    """Outcome of one ``Session.analyze`` call.

        >>> from repro.api import Session
        >>> text = "loop i1 = 0 .. 7\\nloop i2 = 0 .. 7\\nA[i1, i2] = A[i1, i2 - 1] + 1.0"
        >>> with Session() as session:
        ...     analysis = session.analyze(text)
        >>> analysis.depth, analysis.parallel_loops, analysis.cache_hit
        (2, 1, False)
        >>> analysis.to_dict()["kind"]
        'analysis'
    """

    name: str
    nest: LoopNest = field(repr=False)
    report: ParallelizationReport = field(repr=False)
    cache_hit: bool
    analysis_seconds: float

    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        return self.report.depth

    @property
    def placement(self) -> str:
        return self.report.placement

    @property
    def parallel_loops(self) -> int:
        return self.report.parallel_loop_count

    @property
    def partitions(self) -> int:
        return self.report.partition_count

    @property
    def uses_unimodular_transform(self) -> bool:
        return self.report.uses_unimodular_transform

    @property
    def pass_timings(self):
        return self.report.pass_timings

    def summary(self) -> str:
        return self.report.summary()

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        report = self.report
        return {
            "kind": "analysis",
            "name": self.name,
            "depth": self.depth,
            "placement": self.placement,
            "cache_hit": self.cache_hit,
            "analysis_seconds": self.analysis_seconds,
            "parallel_loops": self.parallel_loops,
            "partitions": self.partitions,
            "parallel_levels": [int(level) for level in report.parallel_levels],
            "sequential_levels": [int(level) for level in report.sequential_levels],
            "uses_unimodular_transform": self.uses_unimodular_transform,
            "uses_partitioning": report.uses_partitioning,
            "pdm": _matrix(report.pdm.matrix),
            "pdm_rank": int(report.pdm.rank),
            "transform": _matrix(report.transform),
            "transformed_pdm": _matrix(report.transformed_pdm),
            "pass_timings": [
                {"name": t.name, "seconds": t.seconds, "skipped": t.skipped}
                for t in report.pass_timings
            ],
        }

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **kwargs)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one ``Session.run`` call: analysis plus execution.

        >>> from repro.api import Session
        >>> text = "loop i1 = 0 .. 3\\nloop i2 = 0 .. 3\\nA[i1, i2] = A[i1, i2 - 1] + 1.0"
        >>> with Session(backend="vectorized", verify="always") as session:
        ...     result = session.run(text)
        >>> result.iterations, result.num_chunks, result.verified
        (16, 4, True)
        >>> sorted(result.store)
        ['A']
    """

    analysis: AnalysisResult
    execution: ExecutionResult = field(repr=False)
    checksum: float
    #: max |difference| against the interpreter reference; ``None`` when the
    #: session's verification policy skipped the check.
    max_abs_difference: Optional[float] = None
    #: wall clock of building the program (transformed nest + symbolic
    #: execution plan); ~0 on a program-LRU hit.
    program_seconds: float = 0.0

    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        return self.analysis.name

    @property
    def report(self) -> ParallelizationReport:
        return self.analysis.report

    @property
    def cache_hit(self) -> bool:
        return self.analysis.cache_hit

    @property
    def store(self):
        return self.execution.store

    @property
    def backend(self) -> str:
        return self.execution.backend

    @property
    def mode(self) -> str:
        return self.execution.mode

    @property
    def workers(self) -> int:
        return self.execution.workers

    @property
    def iterations(self) -> int:
        return self.execution.total_iterations

    @property
    def num_chunks(self) -> int:
        return self.execution.num_chunks

    @property
    def max_chunk_size(self) -> int:
        """Largest chunk — the critical path of an idealized machine."""
        return max(self.execution.chunk_sizes, default=0)

    @property
    def ideal_speedup(self) -> float:
        """Total work over the largest chunk (machine-independent parallelism).

        Derived from the plan's closed-form chunk sizes — the iterations
        themselves were never materialized to produce this.  A
        zero-iteration run reports 0.0 ("no work"), not 1.0 ("no
        parallelism").
        """
        largest = self.max_chunk_size
        return (self.iterations / largest) if largest else 0.0

    @property
    def analysis_seconds(self) -> float:
        return self.analysis.analysis_seconds

    @property
    def setup_seconds(self) -> float:
        """The executor's set-up plus the store init and the checksum (and,
        through the gateway, the job's wait for a worker)."""
        return self.execution.setup_seconds

    @property
    def execute_seconds(self) -> float:
        return self.execution.elapsed_seconds

    @property
    def total_seconds(self) -> float:
        return self.execution.total_seconds

    @property
    def fallback(self) -> Optional[str]:
        return self.execution.fallback

    @property
    def engine(self) -> Optional[str]:
        """In-kernel parallel driver label (e.g. ``"native-cc-openmp"``),
        ``None`` for runs that did not go through the parallel driver."""
        return self.execution.engine

    @property
    def threads(self) -> int:
        """Effective OS-thread count of an in-kernel parallel run (0 otherwise)."""
        return self.execution.threads

    @property
    def verified(self) -> Optional[bool]:
        """True/False when verification ran, ``None`` when it was skipped."""
        if self.max_abs_difference is None:
            return None
        return self.max_abs_difference == 0.0

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        payload = self.analysis.to_dict()
        payload.update(
            {
                "kind": "run",
                "backend": self.backend,
                "mode": self.mode,
                "workers": self.workers,
                "iterations": self.iterations,
                "num_chunks": self.num_chunks,
                "chunk_sizes": [int(size) for size in self.execution.chunk_sizes],
                "max_chunk_size": int(self.max_chunk_size),
                "ideal_speedup": self.ideal_speedup,
                "program_seconds": self.program_seconds,
                "setup_seconds": self.setup_seconds,
                "execute_seconds": self.execute_seconds,
                "total_seconds": self.total_seconds,
                "checksum": self.checksum,
                "max_abs_difference": self.max_abs_difference,
                "verified": self.verified,
                "fallback": self.fallback,
                "engine": self.engine,
                "threads": self.threads,
            }
        )
        return payload

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **kwargs)


@dataclass(frozen=True)
class SessionStats:
    """Cross-cutting counters of one :class:`~repro.api.session.Session`.

        >>> from repro.api import Session
        >>> with Session(backend="vectorized") as session:
        ...     _ = session.run("loop i = 0 .. 3\\nA[i] = A[i] + 1.0")
        ...     stats = session.stats()
        >>> stats.runs, stats.analyses, stats.cache_misses
        (1, 1, 1)
        >>> stats.to_dict()["mode"]
        'serial'
    """

    analyses: int
    runs: int
    mode: str
    backend: str
    workers: int
    cache_enabled: bool
    cache_entries: int
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    cache_hit_rate: float
    executor_live: bool
    executor_creations: int
    pool_workers_alive: int
    programs_cached: int
    #: Feedback-scheduling counters (zero until the executor exists, and
    #: outside ``shared`` mode, the only one that records): how many
    #: canonical programs have measured per-chunk costs, how many group
    #: executions were recorded, how many chunks have a cost estimate.
    telemetry_programs: int = 0
    telemetry_observations: int = 0
    telemetry_chunks_profiled: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "analyses": self.analyses,
            "runs": self.runs,
            "mode": self.mode,
            "backend": self.backend,
            "workers": self.workers,
            "cache_enabled": self.cache_enabled,
            "cache_entries": self.cache_entries,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_hit_rate": self.cache_hit_rate,
            "executor_live": self.executor_live,
            "executor_creations": self.executor_creations,
            "pool_workers_alive": self.pool_workers_alive,
            "programs_cached": self.programs_cached,
            "telemetry_programs": self.telemetry_programs,
            "telemetry_observations": self.telemetry_observations,
            "telemetry_chunks_profiled": self.telemetry_chunks_profiled,
        }

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    def describe(self) -> str:
        lines = [
            f"session: {self.analyses} analysis(es), {self.runs} run(s), "
            f"mode {self.mode} ({self.workers} worker(s)), backend {self.backend}",
            (
                f"  cache: {self.cache_entries} entries, {self.cache_hits} hit(s), "
                f"{self.cache_misses} miss(es), hit rate {self.cache_hit_rate:.1%}"
                if self.cache_enabled
                else "  cache: disabled"
            ),
            f"  executor: {'live' if self.executor_live else 'not created'} "
            f"({self.executor_creations} creation(s), "
            f"{self.pool_workers_alive} pool worker(s) alive), "
            f"{self.programs_cached} cached program(s)",
            f"  telemetry: {self.telemetry_programs} program(s), "
            f"{self.telemetry_observations} group observation(s), "
            f"{self.telemetry_chunks_profiled} chunk(s) profiled",
        ]
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()
