"""The :class:`Session` façade: one configured object for the whole surface.

A session owns every piece of cross-cutting state the library used to wire
ad hoc at each entry point:

* a :class:`SessionConfig` (backend, execution mode, worker count, cache
  size, verification policy, placement),
* one :class:`~repro.core.cache.AnalysisCache` (or none, when caching is
  disabled), so structurally identical requests share one run of the pass
  pipeline,
* exactly one lazily-created :class:`~repro.runtime.executor.ParallelExecutor`
  — in ``shared`` mode that means one persistent worker pool and one
  generation of shared-memory segments serving every call, and
* a small LRU of compiled *programs* (transformed nest + symbolic
  :class:`~repro.plan.ExecutionPlan`) so repeated requests re-dispatch the
  same objects to the worker pool — a warm program is O(depth) memory, not
  O(iterations).

Lifecycle is deterministic: ``with Session(...) as s:`` (or an explicit
:meth:`Session.close`) tears the pool down and unlinks every shared-memory
segment.  All methods accept the uniform source spellings of
:func:`repro.api.inputs.resolve_source` and return the unified result model
of :mod:`repro.api.results`.

    >>> from repro.api import Session
    >>> with Session(mode="serial", backend="vectorized") as s:
    ...     result = s.run("examples/loops/example41.loop")
    ...     result.partitions, result.iterations  # doctest: +SKIP

``VERIFICATION_POLICIES`` names the accepted values of
``SessionConfig.verify``:

    >>> from repro.api import VERIFICATION_POLICIES
    >>> VERIFICATION_POLICIES
    ('never', 'always')

The CLI (``repro batch`` is one ``Session.map`` call), the gateway and the
experiment harness are all thin layers over this class.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.codegen.transformed_nest import TransformedLoopNest
from repro.core.cache import AnalysisCache
from repro.core.diskcache import DiskCache
from repro.core.pipeline import ParallelizationReport, analyze_nest
from repro.exceptions import ExecutionError, WorkloadError
from repro.loopnest.nest import LoopNest
from repro.plan import (
    DEFAULT_PLAN_PASSES,
    ExecutionPlan,
    PlanPassManager,
    available_plan_passes,
    build_plan_pipeline,
)
from repro.runtime.arrays import ArrayStore, store_for_nest
from repro.runtime.backends import DEFAULT_BACKEND, available_backends
from repro.runtime.executor import EXECUTION_MODES, ParallelExecutor, default_worker_count
from repro.runtime.interpreter import execute_nest

from repro.api.inputs import LoopSource, resolve_source
from repro.api.results import AnalysisResult, RunResult, SessionStats

__all__ = ["SessionConfig", "Session", "VERIFICATION_POLICIES"]

VERIFICATION_POLICIES: Tuple[str, ...] = ("never", "always")

#: Distinct programs (transformed nest + execution plan) kept warm; matches
#: the worker pool's parent-side program cache, so a repeated request
#: re-dispatches the *same* objects and per-program shipping is paid once.
_PROGRAM_CACHE_SIZE = 16


@dataclass(frozen=True)
class SessionConfig:
    """Everything a :class:`Session` needs to serve requests.

    ``verify`` is the verification policy: ``"always"`` re-executes every
    run's original nest through the interpreter reference and records the
    maximum absolute difference on the :class:`~repro.api.results.RunResult`;
    ``"never"`` (the default) skips the check.

    ``plan_passes`` names the plan→plan optimization pipeline
    (:mod:`repro.plan.passes`) run over every program's execution plan
    after planning; the optimized plan is what the program LRU caches and
    the executor dispatches.  ``None`` (the default) picks by mode: the
    one dispatch-bound mode, ``shared``, gets ``("coalesce",)`` —
    coalescing trades the round-major chunk structure for fewer chunks to
    group and ship to the pool — while ``serial`` and ``native-parallel``
    run the raw plan: both execute the whole plan in one backend call, so
    neither pays per-chunk dispatch.  Coalesced plans run native like raw
    ones (the kernel scans blocked levels from the plan's bound table).
    An empty tuple disables optimization in every mode.

        >>> SessionConfig().resolved_plan_passes()
        ()
        >>> SessionConfig(mode="shared").resolved_plan_passes()
        ('coalesce',)

    ``disk_cache`` names a directory for the durable analysis-cache tier
    (:class:`~repro.core.diskcache.DiskCache`), letting restarted processes
    skip analysis for traffic the host has already seen.
    """

    backend: str = DEFAULT_BACKEND
    mode: str = "serial"
    workers: Optional[int] = None
    placement: str = "outer"
    cache_size: int = 4096
    use_cache: bool = True
    verify: str = "never"
    initializer: str = "index_sum"
    plan_passes: Optional[Tuple[str, ...]] = None
    disk_cache: Optional[str] = None

    def __post_init__(self) -> None:
        if self.disk_cache is not None:
            object.__setattr__(self, "disk_cache", str(self.disk_cache))
        if self.plan_passes is not None:
            # Normalize early (lists and generators are convenient to pass)
            # so the frozen config hashes and compares by value.
            object.__setattr__(self, "plan_passes", tuple(self.plan_passes))
            known = available_plan_passes()
            for name in self.plan_passes:
                if name not in known:
                    raise WorkloadError(
                        f"unknown plan pass {name!r}; "
                        f"available: {', '.join(known)}"
                    )

        if self.mode not in EXECUTION_MODES:
            raise WorkloadError(
                f"unknown execution mode {self.mode!r}; "
                f"available: {', '.join(EXECUTION_MODES)}"
            )
        # Backend instances pass through (resolve_backend handles them at
        # executor creation); names are checked now so a typo fails at config
        # time like every other field, not at the first run().
        if isinstance(self.backend, str) and self.backend not in available_backends():
            raise WorkloadError(
                f"unknown backend {self.backend!r}; "
                f"available: {', '.join(available_backends())}"
            )
        if self.placement not in ("outer", "inner"):
            raise WorkloadError(f"placement must be 'outer' or 'inner', got {self.placement!r}")
        if self.verify not in VERIFICATION_POLICIES:
            raise WorkloadError(
                f"verify must be one of {', '.join(VERIFICATION_POLICIES)}, got {self.verify!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise WorkloadError(f"workers must be >= 1, got {self.workers}")
        if self.cache_size < 1:
            raise WorkloadError(f"cache_size must be >= 1, got {self.cache_size}")

    def resolved_plan_passes(self) -> Tuple[str, ...]:
        """The pipeline this config actually runs (mode default applied)."""
        if self.plan_passes is not None:
            return self.plan_passes
        # Only the pool groups and ships chunks; serial and native-parallel
        # runs are one backend call, with no per-chunk dispatch to save.
        return DEFAULT_PLAN_PASSES if self.mode == "shared" else ()

    def resolved_workers(self) -> int:
        """The worker count this config actually uses.

        ``workers=None`` (the default) derives the count from the host:
        ``$REPRO_WORKERS`` when set, else ``os.cpu_count()`` clamped —
        see :func:`repro.runtime.executor.default_worker_count`.
        """
        return self.workers if self.workers is not None else default_worker_count()


class Session:
    """A configured, long-lived entry point for analyze / run / map.

    Construct from a :class:`SessionConfig`, from keyword overrides, or
    both (keywords override the config's fields)::

        Session(SessionConfig(mode="shared"))
        Session(mode="shared", workers=8, backend="vectorized")

    ``cache`` injects an existing :class:`AnalysisCache` (e.g. the
    process-wide one) instead of the session-private cache built from
    ``config.cache_size``.

        >>> from repro.api import Session
        >>> text = "loop i1 = 0 .. 7\\nloop i2 = 0 .. 7\\nA[i1, i2] = A[i1, i2 - 1] + 1.0"
        >>> with Session(backend="vectorized") as session:
        ...     first = session.run(text)
        ...     second = session.run(text)
        >>> first.cache_hit, second.cache_hit
        (False, True)
        >>> first.checksum == second.checksum
        True
    """

    def __init__(
        self,
        config: Optional[SessionConfig] = None,
        *,
        cache: Optional[AnalysisCache] = None,
        **overrides: object,
    ):
        if config is None:
            config = SessionConfig(**overrides)  # type: ignore[arg-type]
        elif overrides:
            config = dataclasses.replace(config, **overrides)  # type: ignore[arg-type]
        self.config = config
        if cache is not None:
            self._cache: Optional[AnalysisCache] = cache
        elif config.use_cache:
            disk = DiskCache(config.disk_cache) if config.disk_cache else None
            self._cache = AnalysisCache(maxsize=config.cache_size, disk=disk)
        else:
            self._cache = None
        self._executor: Optional[ParallelExecutor] = None
        self._executor_creations = 0
        plan_passes = config.resolved_plan_passes()
        self._plan_pipeline: Optional[PlanPassManager] = (
            build_plan_pipeline(plan_passes) if plan_passes else None
        )
        self._programs: (
            "OrderedDict[Tuple[str, str], Tuple[TransformedLoopNest, ExecutionPlan]]"
        ) = OrderedDict()
        self._lock = threading.Lock()
        self._analyses = 0
        self._runs = 0
        self._closed = False

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def cache(self) -> Optional[AnalysisCache]:
        """The session's analysis cache (``None`` when caching is disabled)."""
        return self._cache

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def telemetry(self):
        """The executor's measured per-chunk cost store.

        Creates the executor on first access (like :attr:`executor`).  Only
        executions that dispatch chunk groups record into it — ``shared``
        runs and the gateway's per-group jobs — and the gateway and the
        stats surface read the same store, so every grouping decision sees
        those measurements.  Whole-plan runs (``serial``,
        ``native-parallel``) record nothing.

            >>> from repro.api import Session
            >>> with Session() as session:
            ...     session.telemetry.snapshot()["observations"]
            0
        """
        return self.executor.telemetry

    @property
    def executor(self) -> ParallelExecutor:
        """The session's one executor, created on first use."""
        if self._executor is None or self._closed:
            # Under the lock, re-checking closed: concurrent first runs must
            # not each build an executor (the loser's worker pool would leak
            # until GC), and a build racing close() must lose to it.
            with self._lock:
                if self._closed:
                    raise ExecutionError("the session is closed")
                if self._executor is None:
                    self._executor = ParallelExecutor(
                        mode=self.config.mode,
                        workers=self.config.workers,
                        backend=self.config.backend,
                    )  # workers=None lets the executor derive the count
                    self._executor_creations += 1
        return self._executor

    def close(self) -> None:
        """Tear down the executor (worker pool, shared segments); idempotent."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort safety net
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # the surface
    # ------------------------------------------------------------------ #
    def analyze(
        self,
        source: LoopSource,
        *,
        placement: Optional[str] = None,
        name: Optional[str] = None,
        n: Optional[int] = None,
    ) -> AnalysisResult:
        """Analyze one source through the session's cache."""
        nest = resolve_source(source, name=name, n=n)
        return self._analyze_nest(nest, placement=placement, name=name)

    def run(
        self,
        source: LoopSource,
        *,
        store: Optional[ArrayStore] = None,
        placement: Optional[str] = None,
        name: Optional[str] = None,
        initializer: Optional[str] = None,
        n: Optional[int] = None,
        verify: Optional[bool] = None,
    ) -> RunResult:
        """Analyze a source and execute its transformed schedule.

        The store is initialized with the session's ``initializer`` unless
        one is passed in (it is modified in place either way).  ``verify``
        overrides the session's verification policy for this run.
        """
        nest = resolve_source(source, name=name, n=n)
        analysis = self._analyze_nest(nest, placement=placement, name=name)
        program_start = time.perf_counter()
        transformed, plan = self._program_for(nest, analysis.report)
        program_seconds = time.perf_counter() - program_start
        if store is None:
            store = store_for_nest(nest, initializer=initializer or self.config.initializer)
        check = self.config.verify == "always" if verify is None else bool(verify)
        # Snapshot the initial contents before execution mutates them: the
        # reference run must start from the same values.
        reference = store.copy() if check else None
        execution = self.executor.run(transformed, store, plan=plan)
        max_abs_difference: Optional[float] = None
        if reference is not None:
            execute_nest(nest, reference)
            max_abs_difference = reference.max_abs_difference(store)
        # Eager by design: the run just touched every store cell, so one more
        # NumPy reduction is a small constant factor — and a lazy property
        # would snapshot whatever the caller mutated the store into later.
        checksum = sum(float(array.data.sum()) for array in store.values())
        with self._lock:
            self._runs += 1
        return RunResult(
            analysis=analysis,
            execution=execution,
            checksum=checksum,
            max_abs_difference=max_abs_difference,
            program_seconds=program_seconds,
        )

    def map(
        self,
        sources: Sequence[LoopSource],
        *,
        placement: Optional[str] = None,
        names: Optional[Sequence[Optional[str]]] = None,
        initializer: Optional[str] = None,
        repeat: int = 1,
        n: Optional[int] = None,
    ) -> List[RunResult]:
        """Run every source through the session (``repeat`` models traffic).

        All rounds share the session's cache, program LRU and executor, so
        structural duplicates pay one analysis and the worker pool stays
        warm across the whole batch.  Results come back in input order,
        rounds concatenated.
        """
        sources = list(sources)
        if names is None:
            names = [None] * len(sources)
        elif len(names) != len(sources):
            raise WorkloadError(
                f"names has {len(names)} entries for {len(sources)} sources"
            )
        results: List[RunResult] = []
        for _ in range(max(1, int(repeat))):
            for source, name in zip(sources, names):
                results.append(
                    self.run(
                        source,
                        placement=placement,
                        name=name,
                        initializer=initializer,
                        n=n,
                    )
                )
        return results

    def stats(self) -> SessionStats:
        """A snapshot of the session's cross-cutting state."""
        cache = self._cache
        # One read: a concurrent close() may null the attribute between checks.
        executor = self._executor
        pool = executor._pool if executor is not None else None
        telemetry = executor.telemetry.snapshot() if executor is not None else {}
        return SessionStats(
            analyses=self._analyses,
            runs=self._runs,
            mode=self.config.mode,
            backend=str(self.config.backend),
            workers=self.config.resolved_workers(),
            cache_enabled=cache is not None,
            cache_entries=len(cache) if cache is not None else 0,
            cache_hits=cache.stats.hits if cache is not None else 0,
            cache_misses=cache.stats.misses if cache is not None else 0,
            cache_evictions=cache.stats.evictions if cache is not None else 0,
            cache_hit_rate=cache.stats.hit_rate if cache is not None else 0.0,
            executor_live=executor is not None,
            executor_creations=self._executor_creations,
            pool_workers_alive=pool.alive_workers() if pool is not None else 0,
            programs_cached=len(self._programs),
            telemetry_programs=int(telemetry.get("programs", 0)),
            telemetry_observations=int(telemetry.get("observations", 0)),
            telemetry_chunks_profiled=int(telemetry.get("chunks_profiled", 0)),
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _analyze_nest(
        self, nest: LoopNest, *, placement: Optional[str], name: Optional[str]
    ) -> AnalysisResult:
        placement = placement or self.config.placement
        start = time.perf_counter()
        if self._cache is not None:
            report, cache_hit = self._cache.analyze(nest, placement=placement)
        else:
            report = analyze_nest(nest, placement=placement)
            cache_hit = False
        seconds = time.perf_counter() - start
        with self._lock:
            self._analyses += 1
        return AnalysisResult(
            name=name or nest.name,
            nest=nest,
            report=report,
            cache_hit=cache_hit,
            analysis_seconds=seconds,
        )

    def _program_for(
        self, nest: LoopNest, report: ParallelizationReport
    ) -> Tuple[TransformedLoopNest, ExecutionPlan]:
        """The nest's (transformed nest, symbolic plan), warm across calls.

        Keyed by the nest's rendered source + placement: identical text
        means identical names *and* structure, so reusing the transformed
        nest (and its execution plan) is semantically exact — unlike the
        analysis cache's canonical key, which deliberately ignores names.
        The plan replaces the materialized chunk schedule the cache used to
        hold: a warm program is O(depth) memory regardless of N, and
        re-dispatching the *same* plan object lets the worker pool reuse
        its per-program cache.
        """
        key = (str(nest), report.placement)
        with self._lock:
            entry = self._programs.get(key)
            if entry is not None:
                self._programs.move_to_end(key)
                return entry
        transformed = TransformedLoopNest.from_report(report)
        plan = transformed.execution_plan()
        if self._plan_pipeline is not None:
            # The optimized plan is what gets cached and dispatched; the
            # passes are bit-exact rewrites, so consumers need no opt-out.
            plan = self._plan_pipeline.optimize([plan], (transformed,)).plans[0]
        with self._lock:
            self._programs[key] = (transformed, plan)
            self._programs.move_to_end(key)
            while len(self._programs) > _PROGRAM_CACHE_SIZE:
                self._programs.popitem(last=False)
        return transformed, plan
