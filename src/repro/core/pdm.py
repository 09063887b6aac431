"""The pseudo distance matrix (PDM), Section 2.3 of the paper.

The PDM of a loop nest is the Hermite normal form of the stacked
distance-vector generators of every dependent reference pair.  Its defining
property is that **every** direct and indirect dependence distance vector of
the loop lies in the integer lattice generated by its rows.

Three cases drive the parallelization strategy (Section 2.3, item 3):

* zero columns → the corresponding loops are parallel as-is (Lemma 1);
* non-full rank → Algorithm 1 finds a legal unimodular transformation that
  creates ``n - rank`` zero columns (parallel loops);
* full rank → the partitioning transformation extracts ``det(PDM)``
  independent partitions (Theorem 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.dependence.solver import DependenceSolution, analyze_loop_dependences
from repro.exceptions import ShapeError
from repro.intlin.hermite import _hermite_normal_form, hermite_normal_form
from repro.intlin.lattice import Lattice
from repro.intlin.matrix import (
    Matrix,
    _mat_mul,
    is_zero_vector,
    leading_index,
    mat_copy,
    mat_mul,
    mat_shape,
)
from repro.loopnest.nest import LoopNest
from repro.utils.formatting import format_matrix
from repro.utils.validation import trusted_record

__all__ = ["PseudoDistanceMatrix"]


@dataclass(frozen=True)
class PseudoDistanceMatrix:
    """The pseudo distance matrix of a loop nest.

    Attributes
    ----------
    matrix:
        The HNF generator matrix — full row rank, one generator per row,
        one column per loop index.  May have zero rows (i.e. be empty) when
        the loop has no loop-carried dependences at all.
    depth:
        Number of loop indices ``n`` (columns).
    index_names:
        Loop index names (for reporting).
    pair_solutions:
        The per-reference-pair dependence solutions the PDM was built from
        (empty when the PDM was constructed directly from a matrix).
    """

    matrix: Matrix
    depth: int
    index_names: Tuple[str, ...] = ()
    pair_solutions: Tuple[DependenceSolution, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        rows = mat_copy(self.matrix)
        n_rows, n_cols = mat_shape(rows)
        if n_rows and n_cols != self.depth:
            raise ShapeError(
                f"PDM has {n_cols} columns but the loop depth is {self.depth}"
            )
        object.__setattr__(self, "matrix", rows)
        if self.index_names and len(self.index_names) != self.depth:
            raise ShapeError("index_names length must equal the loop depth")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_loop_nest(cls, nest: LoopNest, include_self: bool = True) -> "PseudoDistanceMatrix":
        """Compute the PDM of a loop nest (equations (2.15)-(2.21))."""
        solutions = analyze_loop_dependences(nest, include_self=include_self)
        return cls.from_solutions(solutions, nest)

    @classmethod
    def from_solutions(
        cls, solutions: Sequence[DependenceSolution], nest: LoopNest
    ) -> "PseudoDistanceMatrix":
        """Build the PDM from already-computed dependence solutions.

        Lets the pass pipeline share one dependence analysis between the PDM
        construction and other consumers (e.g. the uniform-distance
        baselines) instead of re-running the solver.
        """
        generators: Matrix = []
        for sol in solutions:
            if sol.consistent:
                generators.extend(sol.lattice_generators)
        return trusted_record(
            cls,
            matrix=_hermite_normal_form(generators).hermite if generators else [],
            depth=nest.depth,
            index_names=tuple(nest.index_names),
            pair_solutions=tuple(solutions),
        )

    @classmethod
    def from_generators(
        cls,
        generators: Sequence[Sequence[int]],
        depth: int,
        index_names: Sequence[str] = (),
    ) -> "PseudoDistanceMatrix":
        """Build a PDM directly from distance-vector generators (HNF is applied)."""
        rows = [row for row in mat_copy(generators) if not is_zero_vector(row)]
        hnf = hermite_normal_form(rows).hermite if rows else []
        return cls(matrix=hnf, depth=depth, index_names=tuple(index_names))

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def rank(self) -> int:
        """Number of generator rows (the HNF is full row rank)."""
        return len(self.matrix)

    @property
    def is_empty(self) -> bool:
        """True when the loop carries no dependence at all."""
        return self.rank == 0

    @property
    def is_full_rank(self) -> bool:
        """True when ``rank == depth`` (partitioning case, Section 3.3)."""
        return self.rank == self.depth

    @property
    def lattice(self) -> Lattice:
        """The lattice of all (direct and indirect) dependence distances."""
        return Lattice(self.matrix, dimension=self.depth)

    def zero_columns(self) -> List[int]:
        """Column indices that are zero in every generator (Lemma 1: parallel loops)."""
        if self.is_empty:
            return list(range(self.depth))
        return [
            j for j in range(self.depth) if all(row[j] == 0 for row in self.matrix)
        ]

    def determinant(self) -> int:
        """Product of the HNF pivots.

        For a full-rank PDM this is the number of independent partitions
        produced by the partitioning transformation (``det(S)`` parallelism in
        the paper's terminology).  For a rank-deficient PDM it is the lattice
        index within its span.
        """
        result = 1
        for row in self.matrix:
            result *= row[leading_index(row)]
        return result

    def pivots(self) -> List[int]:
        """The HNF diagonal (leading element of every generator row)."""
        return [row[leading_index(row)] for row in self.matrix]

    # ------------------------------------------------------------------ #
    # operations
    # ------------------------------------------------------------------ #
    def transformed(self, transform: Sequence[Sequence[int]], canonical: bool = True) -> "PseudoDistanceMatrix":
        """The PDM of the transformed loop: generators map as ``row @ T``.

        With ``canonical=True`` the result is re-reduced to Hermite normal
        form (the lattice is unchanged); with ``canonical=False`` the raw
        product ``PDM @ T`` is kept, which is what Theorem 1's legality check
        inspects.
        """
        trans = mat_copy(transform)
        n_rows, n_cols = mat_shape(trans)
        if n_rows != self.depth:
            raise ShapeError(
                f"transformation has {n_rows} rows, expected {self.depth}"
            )
        product = _mat_mul(self.matrix, trans) if self.matrix else []
        if canonical and product:
            product = _hermite_normal_form(product).hermite
        return trusted_record(
            PseudoDistanceMatrix, matrix=product, depth=n_cols, index_names=(), pair_solutions=()
        )

    def raw_product(self, transform: Sequence[Sequence[int]]) -> Matrix:
        """``PDM @ T`` without canonicalisation (used by the legality check)."""
        if self.is_empty:
            return []
        return mat_mul(self.matrix, mat_copy(transform))

    def contains_distance(self, distance: Sequence[int]) -> bool:
        """True if a distance vector lies in the PDM lattice.

        This is the soundness property validated by the test-suite: every
        realized dependence distance of the nest must satisfy it.
        """
        return self.lattice.contains(list(distance))

    def describe(self) -> str:
        """Multi-line human readable description."""
        header = (
            f"Pseudo distance matrix: rank {self.rank} / depth {self.depth}"
            f"{' (full rank)' if self.is_full_rank else ''}"
        )
        if self.is_empty:
            return header + "\n  (no loop-carried dependences)"
        body = format_matrix(self.matrix, "  ")
        extras = [
            f"  zero columns: {self.zero_columns() or 'none'}",
            f"  determinant (HNF pivot product): {self.determinant()}",
        ]
        return "\n".join([header, body] + extras)

    def __str__(self) -> str:
        return self.describe()
