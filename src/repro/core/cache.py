"""Memoizing analysis cache.

Production traffic re-analyzes the same loop structures over and over: the
same kernel instantiated for many arrays, the same nest parsed from many
requests.  The analysis pipeline is deterministic, and its result depends
only on the *structure* of the nest (never on index/array names), so one
analysis per structure suffices.  :class:`AnalysisCache` is a thread-safe
LRU keyed by the canonical structural identity of the nest plus the
placement::

    (canonical_key_tuple(nest), placement)

``canonical_key_tuple`` is the SHA-256 preimage of
:func:`repro.loopnest.canonical.canonical_hash` — the same structural
identity, hashed at tuple speed for in-process lookups (the hex digest
remains the stable cross-process name of an entry).  A warm lookup is
O(serialize + hash) instead of O(dependence analysis + HNF + Algorithm 1 +
partitioning).

Reports handed out by the cache are *rebound* to the querying nest: the
``nest`` field and the PDM index names always describe the caller's loop,
and the matrices are defensive copies, so a cached report is
indistinguishable from (and compares equal to) a cold run.

:meth:`AnalysisCache.analyze` is the one lookup; sessions, the gateway and
the baselines all go through it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.algorithm1 import Algorithm1Result
from repro.core.partition import PartitioningResult
from repro.core.pdm import PseudoDistanceMatrix
from repro.core.pipeline import ParallelizationReport, analyze_nest
from repro.loopnest.canonical import canonical_hash, canonical_key_tuple
from repro.loopnest.nest import LoopNest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (diskcache imports plan)
    from repro.core.diskcache import DiskCache

__all__ = [
    "CacheKey",
    "CacheStats",
    "AnalysisCache",
    "default_cache",
]

CacheKey = Tuple[object, str]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one :class:`AnalysisCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        return (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.evictions} eviction(s), hit rate {self.hit_rate:.1%}"
        )


def _copy_rows(matrix) -> list:
    """Plain row copy: the cached matrices are already validated integers."""
    return [row[:] for row in matrix]


def _clone_pdm(pdm: PseudoDistanceMatrix, index_names) -> PseudoDistanceMatrix:
    """Clone a cached PDM with new index names, skipping re-validation.

    The cached matrix went through ``__post_init__`` once; cloning it on
    every hit through the regular constructor would re-validate the whole
    matrix on the hot path, so the clone is assembled field by field.
    """
    clone = object.__new__(PseudoDistanceMatrix)
    object.__setattr__(clone, "matrix", _copy_rows(pdm.matrix))
    object.__setattr__(clone, "depth", pdm.depth)
    object.__setattr__(clone, "index_names", tuple(index_names))
    object.__setattr__(clone, "pair_solutions", pdm.pair_solutions)
    return clone


def rebind_report(report: ParallelizationReport, nest: LoopNest) -> ParallelizationReport:
    """A copy of ``report`` describing ``nest`` (same structure assumed).

    The PDM is rebuilt with the nest's index names, and every mutable matrix
    reachable from the report (PDM, transform, transformed PDM, partitioning
    HNF, the Algorithm 1 result, the step matrices) is copied so cache
    entries can never be corrupted through a handed-out report.
    """
    pdm = _clone_pdm(report.pdm, nest.index_names)
    partitioning = report.partitioning
    if partitioning is not None:
        partitioning = PartitioningResult(
            hnf=_copy_rows(partitioning.hnf),
            levels=partitioning.levels,
            depth=partitioning.depth,
            lattice=partitioning.lattice,
        )
    algorithm1 = report.algorithm1
    if algorithm1 is not None:
        algorithm1 = Algorithm1Result(
            transform=_copy_rows(algorithm1.transform),
            transformed=_copy_rows(algorithm1.transformed),
            zero_columns=algorithm1.zero_columns,
            sequential_columns=algorithm1.sequential_columns,
            sequential_block=_copy_rows(algorithm1.sequential_block),
            placement=algorithm1.placement,
            column_operations=algorithm1.column_operations,
        )
    # Steps are shared as-is: TransformationStep is frozen and the pipeline
    # records its matrices as immutable tuples (see PipelineContext.add_step).
    # Direct construction (not dataclasses.replace): this is the warm hot
    # path and replace() pays field introspection on every hit.
    return ParallelizationReport(
        nest=nest,
        pdm=pdm,
        placement=report.placement,
        transform=_copy_rows(report.transform),
        transformed_pdm=_copy_rows(report.transformed_pdm),
        parallel_levels=report.parallel_levels,
        sequential_levels=report.sequential_levels,
        partitioning=partitioning,
        steps=report.steps,
        algorithm1=algorithm1,
        pass_timings=report.pass_timings,
    )


class AnalysisCache:
    """Thread-safe LRU cache of :class:`ParallelizationReport` by structure.

    ``disk`` attaches an optional durable second tier
    (:class:`~repro.core.diskcache.DiskCache`): a memory miss consults the
    disk before analyzing, and every cold analysis is persisted, so a
    restarted process skips analysis for traffic any previous process on
    the host has seen.  Disk entries are version-checked; a stale or
    corrupt entry degrades to a cold analysis.
    """

    def __init__(self, maxsize: int = 4096, disk: Optional["DiskCache"] = None):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self._maxsize = int(maxsize)
        self._disk = disk
        self._entries: "OrderedDict[CacheKey, ParallelizationReport]" = OrderedDict()
        self._lock = threading.Lock()
        self._stats = CacheStats()

    # ------------------------------------------------------------------ #
    @property
    def maxsize(self) -> int:
        return self._maxsize

    @property
    def disk(self) -> Optional["DiskCache"]:
        """The durable second tier (``None`` when memory-only)."""
        return self._disk

    @property
    def stats(self) -> CacheStats:
        return self._stats

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and reset the counters (full invalidation)."""
        with self._lock:
            self._entries.clear()
            self._stats = CacheStats()

    def describe(self) -> str:
        return (
            f"analysis cache: {len(self._entries)}/{self._maxsize} entries, "
            + self._stats.describe()
        )

    # ------------------------------------------------------------------ #
    @staticmethod
    def key_for(nest: LoopNest, placement: str = "outer") -> CacheKey:
        """The cache key: canonical structural identity plus the placement."""
        return (canonical_key_tuple(nest), placement)

    @staticmethod
    def disk_key_for(nest: LoopNest, placement: str = "outer") -> str:
        """The durable spelling of :meth:`key_for`: hex digest plus placement.

        The canonical hash is the stable *cross-process* name of a loop
        structure, so this key means the same thing to every process
        sharing the cache directory.
        """
        return f"{canonical_hash(nest)}:{placement}"

    def analyze(
        self, nest: LoopNest, placement: str = "outer"
    ) -> Tuple[ParallelizationReport, bool]:
        """Memoized :func:`repro.core.pipeline.analyze_nest`: ``(report, was_cache_hit)``.

        The hit flag is the lookup's own outcome, not a counter delta, so it
        stays correct when other threads or sessions use the cache
        concurrently.
        """
        key = self.key_for(nest, placement)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self._stats.hits += 1
        if cached is not None:
            return rebind_report(cached, nest), True
        disk_key: Optional[str] = None
        if self._disk is not None:
            # Memory miss: try the durable tier before paying the analysis.
            # A disk hit skips the pass pipeline, so it reports as a hit.
            disk_key = self.disk_key_for(nest, placement)
            loaded = self._disk.get(disk_key)
            if isinstance(loaded, ParallelizationReport):
                with self._lock:
                    self._stats.hits += 1
                    if key not in self._entries:
                        self._entries[key] = rebind_report(loaded, nest)
                        self._entries.move_to_end(key)
                        while len(self._entries) > self._maxsize:
                            self._entries.popitem(last=False)
                            self._stats.evictions += 1
                return rebind_report(loaded, nest), True
        report = analyze_nest(nest, placement=placement)
        with self._lock:
            self._stats.misses += 1
            if key not in self._entries:
                # The cache owns a private copy; the caller gets the original.
                self._entries[key] = rebind_report(report, nest)
                self._entries.move_to_end(key)
                while len(self._entries) > self._maxsize:
                    self._entries.popitem(last=False)
                    self._stats.evictions += 1
        if self._disk is not None and disk_key is not None:
            self._disk.put(disk_key, rebind_report(report, nest))
        return report, False


_DEFAULT_CACHE = AnalysisCache()


def default_cache() -> AnalysisCache:
    """The process-wide analysis cache shared by the CLI and the harness."""
    return _DEFAULT_CACHE
