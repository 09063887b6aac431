"""Measured per-chunk execution cost, fed back into group balancing.

The executor's group balancing (:meth:`ParallelExecutor.groups_for`) has
always worked from the plan's closed-form chunk *sizes*, implicitly assuming
every iteration costs the same.  That assumption is wrong exactly when it
matters: a chunk that vectorizes into one wide NumPy call is far cheaper per
iteration than a narrow chunk paying per-dispatch overhead, and a body whose
cost varies across the iteration space skews further.  This module closes
the loop: the one execution that dispatches chunks in groups, a ``shared``
run on the worker pool, records the **wall clock of each chunk group** it
ran, the store attributes that time to the group's chunks, and the next
balancing decision for the same program works from the *measured*
per-chunk costs instead of the sizes.  Whole-plan runs (serial, the
in-kernel driver), through ``Session.run`` or the gateway, record nothing:
one time for every chunk, split proportionally to the sizes, would only
rescale them.

Model and contract:

* measurements are keyed by a **program key** — the canonical structural
  hash of the transformed nest plus the plan's chunk count (so a coalesced
  plan never mixes observations with the raw plan of the same program);
* a group observation of ``seconds`` is split over the group's chunks
  proportionally to the best current estimate (known per-chunk costs, or the
  program's measured per-iteration rate for chunks never seen alone, or the
  chunk sizes when the program is brand new) and folded into a per-chunk
  **EWMA** (:attr:`ExecutionTelemetry.alpha`);
* :meth:`ExecutionTelemetry.chunk_costs` returns per-chunk cost estimates
  for a *warm* program and ``None`` for a cold one — callers fall back to
  the closed-form sizes, so cold behavior is exactly the old behavior;
* balancing from costs changes **only the grouping** — which worker runs
  which chunk — never the set of chunks or their intra-chunk iteration
  order, so results stay bit-identical to size-based balancing (chunks are
  pairwise independent by Lemma 1 / Theorem 2).

The store is thread-safe, bounded (LRU beyond ``max_programs``) and cheap:
recording is a dict update per chunk, far below the cost of the execution
it measures.

    >>> from repro.runtime.telemetry import ExecutionTelemetry
    >>> telemetry = ExecutionTelemetry(alpha=1.0)
    >>> telemetry.chunk_costs("prog:3", (10, 10, 10)) is None   # cold
    True
    >>> telemetry.record_group("prog:3", (0, 1), (10, 10), seconds=0.2)
    >>> telemetry.record_group("prog:3", (2,), (10,), seconds=0.4)
    >>> costs = telemetry.chunk_costs("prog:3", (10, 10, 10))   # chunk 2 measured 4x
    >>> [round(cost, 12) for cost in costs]
    [0.1, 0.1, 0.4]
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["ExecutionTelemetry", "ProgramTelemetry", "makespan"]


class ProgramTelemetry:
    """Per-program record: EWMA cost and size of every observed chunk."""

    __slots__ = ("cost", "size", "observations")

    def __init__(self) -> None:
        self.cost: Dict[int, float] = {}
        self.size: Dict[int, int] = {}
        self.observations = 0

    def rate(self) -> Optional[float]:
        """Measured seconds per iteration over every observed chunk."""
        if not self.cost:
            return None
        total_size = sum(self.size.values())
        return sum(self.cost.values()) / max(total_size, 1)


class ExecutionTelemetry:
    """Thread-safe, bounded store of measured per-chunk execution costs.

    ``alpha`` is the EWMA weight of the newest observation (1.0 keeps only
    the latest measurement); ``max_programs`` bounds the number of distinct
    program keys kept (least recently *touched* evicted first).

    ``max_chunks`` bounds the plan granularity worth profiling: a plan with
    more chunks than this is never recorded and always reads back cold.
    Per-chunk attribution at tens of thousands of chunks is pure noise, and
    the O(chunks) recording loop would cost more than the execution it
    measures — the size-based fallback is the right scheduler there.
    """

    def __init__(
        self, alpha: float = 0.25, max_programs: int = 64, max_chunks: int = 4096
    ):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if max_programs < 1:
            raise ValueError(f"max_programs must be >= 1, got {max_programs}")
        if max_chunks < 1:
            raise ValueError(f"max_chunks must be >= 1, got {max_chunks}")
        self.alpha = float(alpha)
        self.max_programs = int(max_programs)
        self.max_chunks = int(max_chunks)
        self._programs: "OrderedDict[str, ProgramTelemetry]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def record_group(
        self,
        program: str,
        chunk_indices: Sequence[int],
        chunk_sizes: Sequence[int],
        seconds: float,
    ) -> None:
        """Fold one measured group execution into the program's cost model.

        ``chunk_indices`` are schedule positions (the plan's chunk order)
        and ``chunk_sizes`` their closed-form sizes, index-aligned; the
        group's wall clock ``seconds`` is attributed to its chunks
        proportionally to the best current estimate and EWMA-folded into
        each chunk's cost.
        """
        if not chunk_indices or seconds < 0.0:
            return
        if len(chunk_indices) > self.max_chunks:
            return
        indices = [int(index) for index in chunk_indices]
        sizes = [int(size) for size in chunk_sizes]
        if len(indices) != len(sizes):
            raise ValueError(
                f"{len(indices)} chunk index(es) but {len(sizes)} size(s)"
            )
        with self._lock:
            entry = self._programs.get(program)
            if entry is None:
                entry = ProgramTelemetry()
                self._programs[program] = entry
            self._programs.move_to_end(program)
            while len(self._programs) > self.max_programs:
                self._programs.popitem(last=False)
            rate = entry.rate()
            weights: List[float] = []
            for index, size in zip(indices, sizes):
                known = entry.cost.get(index)
                if known is not None:
                    weights.append(known)
                elif rate is not None:
                    # Never observed, but the program has a measured
                    # per-iteration rate: a size-scaled prior keeps the
                    # split comparable with the known chunks.
                    weights.append(max(size, 1) * rate)
                else:
                    # Brand-new program: proportional-to-size split (the
                    # absolute scale cancels in the share below).
                    weights.append(float(max(size, 1)))
            total_weight = sum(weights) or 1.0
            alpha = self.alpha
            for index, size, weight in zip(indices, sizes, weights):
                share = seconds * weight / total_weight
                old = entry.cost.get(index)
                entry.cost[index] = (
                    share if old is None else (1.0 - alpha) * old + alpha * share
                )
                entry.size[index] = max(size, 1)
            entry.observations += 1

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def chunk_costs(
        self, program: str, chunk_sizes: Sequence[int]
    ) -> Optional[List[float]]:
        """Per-chunk cost estimates for a warm program, ``None`` when cold.

        Chunks the program never observed get a size-scaled estimate at the
        program's measured per-iteration rate, so a partially warm program
        still yields a complete, comparable cost vector.
        """
        if len(chunk_sizes) > self.max_chunks:
            return None
        with self._lock:
            entry = self._programs.get(program)
            if entry is None or not entry.cost:
                return None
            self._programs.move_to_end(program)
            rate = entry.rate() or 0.0
            return [
                entry.cost.get(index, max(int(size), 1) * rate)
                for index, size in enumerate(chunk_sizes)
            ]

    def observations(self, program: str) -> int:
        """How many group executions have been recorded for ``program``."""
        with self._lock:
            entry = self._programs.get(program)
            return entry.observations if entry is not None else 0

    def __len__(self) -> int:
        return len(self._programs)

    def clear(self) -> None:
        with self._lock:
            self._programs.clear()

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, float]:
        """Aggregate counters for stats surfaces (JSON-safe)."""
        with self._lock:
            observations = sum(e.observations for e in self._programs.values())
            chunks = sum(len(e.cost) for e in self._programs.values())
            return {
                "programs": len(self._programs),
                "observations": observations,
                "chunks_profiled": chunks,
            }

    def describe(self) -> str:
        snap = self.snapshot()
        return (
            f"telemetry: {snap['programs']} program(s), "
            f"{snap['observations']} group observation(s), "
            f"{snap['chunks_profiled']} chunk(s) profiled"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExecutionTelemetry({self.describe()!r})"


def makespan(
    groups: Sequence[Tuple[int, ...]], costs: Sequence[float]
) -> float:
    """The critical-path cost of a grouping under per-chunk ``costs``.

    Used by tests and benchmarks to score a balancing decision: the wall
    clock of a perfectly parallel execution is the cost of its most
    expensive group.

        >>> makespan([(0, 2), (1,)], [1.0, 5.0, 2.0])
        5.0
    """
    if not groups:
        return 0.0
    return max(sum(costs[index] for index in group) for group in groups)
