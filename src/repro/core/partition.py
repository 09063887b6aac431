"""The partitioning transformation (Section 3.3, Theorem 2).

For a loop whose pseudo distance matrix ``S`` is full rank, every dependence
distance — direct or indirect — lies in the full-rank lattice ``L(S)``.
Hence two iterations can only depend on each other if their difference is a
lattice vector, i.e. if they belong to the same coset of ``L(S)`` in ``Z^n``.
There are exactly ``det(S)`` cosets, so the iteration space splits into
``det(S)`` *independent partitions* that can run fully in parallel
(``doall``); inside a partition the iterations are executed in their original
lexicographic order, which preserves every dependence (Theorem 2).

The partition of an iteration is identified by the canonical residue of its
index vector modulo the row lattice of ``S`` (computed with the HNF basis);
for an upper triangular ``S`` the residue components range over
``[0, S[k][k])``, which is exactly the paper's ``doall`` loops over the
partition offsets with strides ``S[k][k]`` and modulo start expressions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.pdm import PseudoDistanceMatrix
from repro.exceptions import ShapeError, SingularMatrixError
from repro.intlin.hermite import _hermite_normal_form
from repro.intlin.lattice import Lattice
from repro.intlin.matrix import Matrix, leading_index, mat_copy, mat_shape

__all__ = ["PartitioningResult", "partition_full_rank"]


@dataclass(frozen=True)
class PartitioningResult:
    """Description of an iteration-space partitioning.

    Attributes
    ----------
    hnf:
        The full-rank HNF matrix ``S`` over the partitioned levels
        (upper triangular, positive diagonal).
    levels:
        The loop levels (0-based positions in the iteration vector this
        partitioning applies to — for a partitioning applied after a
        unimodular transformation these are levels of the *new* loop).
    depth:
        Total loop depth of the nest the partitioning belongs to.
    lattice:
        Row lattice of ``S`` (dimension ``len(levels)``).
    """

    hnf: Matrix
    levels: Tuple[int, ...]
    depth: int
    lattice: Lattice

    @property
    def num_partitions(self) -> int:
        """``det(S)`` — the number of independent partitions."""
        result = 1
        for row in self.hnf:
            result *= row[leading_index(row)]
        return result

    @property
    def strides(self) -> Tuple[int, ...]:
        """The HNF diagonal: the step of each partitioned loop level."""
        return tuple(row[leading_index(row)] for row in self.hnf)

    def sub_vector(self, iteration: Sequence[int]) -> List[int]:
        """Restrict a full iteration vector to the partitioned levels."""
        if len(iteration) != self.depth:
            raise ShapeError(
                f"iteration vector of length {len(iteration)}, expected {self.depth}"
            )
        return [int(iteration[k]) for k in self.levels]

    def label_of(self, iteration: Sequence[int]) -> Tuple[int, ...]:
        """Partition label of an iteration (canonical residue modulo ``L(S)``).

        Two iterations receive the same label iff their difference, restricted
        to the partitioned levels, is a lattice vector of ``S`` — i.e. iff they
        may depend on each other.
        """
        return self.lattice.residue(self.sub_vector(iteration))

    def partition_labels(self) -> Iterator[Tuple[int, ...]]:
        """All ``det(S)`` partition labels (product of ``range(stride)`` per level)."""
        ranges = [range(s) for s in self.strides]
        yield from itertools.product(*ranges)

    def same_partition(self, iter_a: Sequence[int], iter_b: Sequence[int]) -> bool:
        """True if two iterations belong to the same partition."""
        return self.label_of(iter_a) == self.label_of(iter_b)

    def describe(self) -> str:
        from repro.utils.formatting import format_matrix

        lines = [
            f"Partitioning of levels {list(self.levels)} into {self.num_partitions} "
            f"independent partitions (strides {list(self.strides)})",
            format_matrix(self.hnf, "  "),
        ]
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.describe()


def partition_full_rank(
    pdm: Union[PseudoDistanceMatrix, Sequence[Sequence[int]]],
    levels: Optional[Sequence[int]] = None,
    depth: Optional[int] = None,
) -> PartitioningResult:
    """Build the partitioning transformation for a full-rank (sub-)PDM.

    Parameters
    ----------
    pdm:
        Either the loop's :class:`PseudoDistanceMatrix` or a raw generator
        matrix.  When ``levels`` is given, the generator matrix is first
        restricted to those columns; the restricted matrix must be square and
        nonsingular (full rank over the selected levels).
    levels:
        The loop levels to partition; default: all levels (requires a
        full-rank PDM, the paper's Section 3.3 case).
    depth:
        Total loop depth; inferred from the PDM when omitted.

    Raises
    ------
    SingularMatrixError
        If the restricted generator matrix is not full rank — partitioning
        then does not apply (use Algorithm 1 first).
    """
    if isinstance(pdm, PseudoDistanceMatrix):
        matrix = mat_copy(pdm.matrix)
        total_depth = pdm.depth if depth is None else depth
    else:
        matrix = mat_copy(pdm)
        if depth is None:
            if not matrix:
                raise ShapeError("depth is required for an empty generator matrix")
            total_depth = mat_shape(matrix)[1]
        else:
            total_depth = depth

    if levels is None:
        levels = list(range(total_depth))
    levels = [int(l) for l in levels]
    for level in levels:
        if not 0 <= level < total_depth:
            raise ShapeError(f"level {level} out of range for depth {total_depth}")

    restricted = [[row[c] for c in levels] for row in matrix]
    restricted = [row for row in restricted if any(v != 0 for v in row)]
    hnf = _hermite_normal_form(restricted).hermite if restricted else []
    return _partitioning(hnf, levels, total_depth)


def _partitioning(hnf: Matrix, levels: Sequence[int], depth: int) -> PartitioningResult:
    """The partitioning of ``levels`` by the HNF of their generator block."""
    if len(hnf) != len(levels):
        raise SingularMatrixError(
            f"the generators restricted to levels {list(levels)} have rank {len(hnf)}, "
            f"expected {len(levels)}; partitioning requires a full-rank block"
        )
    # The HNF of an HNF is itself, so the lattice takes ``hnf`` as its basis.
    lattice = Lattice._of([row[:] for row in hnf], len(levels))
    return PartitioningResult(hnf=hnf, levels=tuple(levels), depth=depth, lattice=lattice)
