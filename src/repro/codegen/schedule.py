"""The materialized reference schedule the symbolic plan is pinned to.

The transformed loop's parallelism is made explicit by grouping iterations
into *chunks*: all iterations that share the same values of the parallel
(zero-column) loops and the same partition label.  Iterations in different
chunks never depend on each other (Lemma 1 + Theorem 2), so chunks may be
executed concurrently; iterations inside a chunk are kept in the transformed
lexicographic order, which Theorem 1 guarantees to respect every dependence.

The schedule itself lives in the symbolic :class:`~repro.plan.ExecutionPlan`
(``transformed.execution_plan()``: parametric bounds, lazy chunk views,
closed-form statistics), which every consumer reads.  This module keeps only
the executable specification: :func:`build_schedule_by_enumeration` groups
the iterations of a full lexicographic scan into :class:`Chunk` lists, and
:func:`schedule_statistics` summarizes them.  The plan-equivalence tests
pin the plan to this reference bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.codegen.transformed_nest import TransformedLoopNest

__all__ = [
    "Chunk",
    "build_schedule_by_enumeration",
    "schedule_statistics",
]


@dataclass
class Chunk:
    """A set of mutually-independent-from-other-chunks iterations.

    ``iterations`` are new-space index vectors in lexicographic (legal
    sequential) order.
    """

    key: Tuple
    iterations: List[Tuple[int, ...]] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.iterations)

    def __len__(self) -> int:
        return len(self.iterations)


def build_schedule_by_enumeration(transformed: TransformedLoopNest) -> List[Chunk]:
    """Reference implementation: group iterations by a full lexicographic scan.

    The executable specification of chunk keys, chunk order and intra-chunk
    iteration order: O(total iterations), where the plan enumerates lazily.
    The plan equivalence tests compare ``ExecutionPlan.chunks()`` against
    this, bit for bit.
    """
    chunks: Dict[Tuple, Chunk] = {}
    order: List[Tuple] = []
    for iteration in transformed.iterations():
        key = transformed.chunk_key(iteration)
        chunk = chunks.get(key)
        if chunk is None:
            chunk = Chunk(key=key)
            chunks[key] = chunk
            order.append(key)
        chunk.iterations.append(iteration)
    return [chunks[key] for key in order]


def schedule_statistics(chunks: Sequence[Chunk]) -> Dict[str, float]:
    """Work/critical-path statistics of a materialized schedule.

    ``ideal_speedup`` is the ratio of total work to the largest chunk — the
    speedup on an idealized machine with one processor per chunk (unit cost
    per iteration).  This is the machine-independent parallelism number the
    benchmarks report alongside wall-clock measurements.  For plan-driven
    callers the same numbers come from
    :meth:`repro.plan.ExecutionPlan.statistics` without materializing.
    """
    sizes = [chunk.size for chunk in chunks] or [0]
    total = sum(sizes)
    largest = max(sizes)
    return {
        "num_chunks": len(chunks),
        "total_iterations": total,
        "max_chunk_size": largest,
        "min_chunk_size": min(sizes),
        "mean_chunk_size": total / len(chunks) if chunks else 0.0,
        # Zero iterations means no work to parallelize: 0.0, matching
        # ``ExecutionPlan.statistics`` (1.0 would read as "no parallelism").
        "ideal_speedup": (total / largest) if largest else 0.0,
    }
