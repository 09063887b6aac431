"""Integer (row) lattices.

Equation (2.14) of the paper defines the lattice of a matrix ``B`` as the set
of all integer linear combinations of its rows.  The set of *direct and
indirect* dependence distance vectors of a loop is contained in the lattice
generated by the pseudo distance matrix; this module provides the lattice
abstraction used by :mod:`repro.core.pdm` and by the partitioning
transformation of Section 3.3 (lattice cosets = partitions).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import ShapeError
from repro.intlin.gcd import gcd_list
from repro.intlin.hermite import hermite_normal_form, left_kernel_basis
from repro.intlin.matrix import (
    Matrix,
    Vector,
    is_zero_vector,
    leading_index,
    mat_copy,
    mat_shape,
    mat_vstack,
    vec_mat_mul,
)
from repro.utils.formatting import format_matrix
from repro.utils.validation import as_int_list, check_int

__all__ = ["Lattice"]


class Lattice:
    """The integer lattice generated by the rows of a matrix.

    The basis is stored in Hermite Normal Form, which makes equality,
    membership and index computations canonical.

    Parameters
    ----------
    generators:
        Any iterable of integer row vectors (possibly redundant, possibly
        containing zero rows).  May be empty, in which case the lattice is
        the trivial lattice ``{0}``.
    dimension:
        Ambient dimension; required when ``generators`` is empty, inferred
        otherwise.
    """

    def __init__(self, generators: Sequence[Sequence[int]] = (), dimension: Optional[int] = None):
        rows = [as_int_list(row, "generator") for row in generators]
        rows = [row for row in rows if not is_zero_vector(row)]
        if rows:
            width = len(rows[0])
            for row in rows:
                if len(row) != width:
                    raise ShapeError("all lattice generators must have the same length")
            if dimension is not None and dimension != width:
                raise ShapeError(
                    f"dimension {dimension} does not match generator length {width}"
                )
            dimension = width
        elif dimension is None:
            raise ShapeError("dimension is required for a lattice with no generators")
        self._dimension = check_int(dimension, "dimension")
        if self._dimension < 0:
            raise ShapeError("dimension must be non-negative")
        if rows:
            self._basis: Matrix = hermite_normal_form(rows).hermite
        else:
            self._basis = []

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def _of(cls, basis: Matrix, dimension: int) -> "Lattice":
        """The lattice of a validated HNF basis, kept without a copy."""
        lattice = object.__new__(cls)
        lattice._basis, lattice._dimension = basis, dimension
        return lattice

    @classmethod
    def trivial(cls, dimension: int) -> "Lattice":
        """The lattice containing only the zero vector."""
        return cls((), dimension=dimension)

    @classmethod
    def full(cls, dimension: int) -> "Lattice":
        """The full integer lattice ``Z^dimension``."""
        rows = [[1 if i == j else 0 for j in range(dimension)] for i in range(dimension)]
        return cls(rows, dimension=dimension)

    @classmethod
    def from_matrix(cls, mat: Sequence[Sequence[int]], dimension: Optional[int] = None) -> "Lattice":
        """Build a lattice from the rows of ``mat``."""
        rows = mat_copy(mat)
        if dimension is None and not rows:
            raise ShapeError("dimension is required for an empty generator matrix")
        if dimension is None:
            dimension = mat_shape(rows)[1]
        return cls(rows, dimension=dimension)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        """Ambient dimension (length of the vectors)."""
        return self._dimension

    @property
    def rank(self) -> int:
        """Number of independent generators."""
        return len(self._basis)

    @property
    def basis(self) -> Matrix:
        """The canonical (HNF) basis, one generator per row."""
        return [row[:] for row in self._basis]

    @property
    def is_trivial(self) -> bool:
        """True if the lattice is ``{0}``."""
        return self.rank == 0

    @property
    def is_full_rank(self) -> bool:
        """True if the rank equals the ambient dimension."""
        return self.rank == self._dimension

    def determinant(self) -> int:
        """Lattice index in its span: the product of the HNF pivots.

        For a full-rank lattice this is the index ``[Z^n : L]`` — exactly the
        number of independent partitions produced by the paper's partitioning
        transformation (Theorem 2).  For the trivial lattice the value is 1.
        """
        result = 1
        for row in self._basis:
            result *= row[leading_index(row)]
        return result

    def zero_coordinates(self) -> List[int]:
        """Indices of coordinates that are zero in *every* lattice vector.

        These are the zero columns of the PDM: by Lemma 1 of the paper the
        corresponding loops can run in parallel.
        """
        zero_cols = []
        for j in range(self._dimension):
            if all(row[j] == 0 for row in self._basis):
                zero_cols.append(j)
        return zero_cols

    # ------------------------------------------------------------------ #
    # membership and coordinates
    # ------------------------------------------------------------------ #
    def coordinates(self, vector: Sequence[int]) -> Optional[List[int]]:
        """Integer coordinates of ``vector`` in the HNF basis, or None.

        If ``vector = sum_k y_k * basis[k]`` with integer ``y_k`` the list of
        ``y_k`` is returned; otherwise ``None``.
        """
        vec = as_int_list(vector, "vector")
        if len(vec) != self._dimension:
            raise ShapeError(
                f"vector has length {len(vec)}, lattice dimension is {self._dimension}"
            )
        residual = vec[:]
        coords: List[int] = []
        for row in self._basis:
            col = leading_index(row)
            pivot = row[col]
            if residual[col] % pivot != 0:
                return None
            factor = residual[col] // pivot
            coords.append(factor)
            residual = [r - factor * b for r, b in zip(residual, row)]
        if not is_zero_vector(residual):
            return None
        return coords

    def contains(self, vector: Sequence[int]) -> bool:
        """True if ``vector`` belongs to the lattice."""
        return self.coordinates(vector) is not None

    def __contains__(self, vector: Sequence[int]) -> bool:
        return self.contains(vector)

    def residue(self, vector: Sequence[int]) -> Tuple[int, ...]:
        """Canonical representative of ``vector`` modulo the lattice.

        Reduction is performed with the HNF basis; two vectors have equal
        residues iff their difference lies in the lattice.  This is the
        partition label used by the partitioning transformation.
        """
        vec = as_int_list(vector, "vector")
        if len(vec) != self._dimension:
            raise ShapeError(
                f"vector has length {len(vec)}, lattice dimension is {self._dimension}"
            )
        residual = vec[:]
        for row in self._basis:
            col = leading_index(row)
            pivot = row[col]
            factor = residual[col] // pivot  # floor keeps the residue in [0, pivot)
            if factor != 0:
                residual = [r - factor * b for r, b in zip(residual, row)]
        return tuple(residual)

    # ------------------------------------------------------------------ #
    # lattice algebra
    # ------------------------------------------------------------------ #
    def sum(self, other: "Lattice") -> "Lattice":
        """Smallest lattice containing both operands (generated by both bases)."""
        self._check_compatible(other)
        return Lattice(mat_vstack(self.basis, other.basis), dimension=self._dimension)

    def intersection(self, other: "Lattice") -> "Lattice":
        """Intersection of two lattices in the same ambient space."""
        self._check_compatible(other)
        if self.is_trivial or other.is_trivial:
            return Lattice.trivial(self._dimension)
        stacked = mat_vstack(self.basis, [[-x for x in row] for row in other.basis])
        kernel = left_kernel_basis(stacked)
        k1 = self.rank
        vectors = [vec_mat_mul(row[:k1], self.basis) for row in kernel]
        return Lattice(vectors, dimension=self._dimension)

    def is_sublattice_of(self, other: "Lattice") -> bool:
        """True if every vector of this lattice belongs to ``other``."""
        self._check_compatible(other)
        return all(other.contains(row) for row in self._basis)

    def transform(self, matrix: Sequence[Sequence[int]]) -> "Lattice":
        """Image of the lattice under the row action ``v -> v @ matrix``."""
        mat = mat_copy(matrix)
        n_rows, n_cols = mat_shape(mat)
        if n_rows != self._dimension:
            raise ShapeError(
                f"transform has {n_rows} rows, lattice dimension is {self._dimension}"
            )
        new_rows = [vec_mat_mul(row, mat) for row in self._basis]
        return Lattice(new_rows, dimension=n_cols)

    def scaled(self, factor: int) -> "Lattice":
        """The lattice ``factor * L``."""
        factor = check_int(factor, "factor")
        return Lattice([[factor * x for x in row] for row in self._basis], dimension=self._dimension)

    def content(self) -> int:
        """GCD of all entries of the basis (0 for the trivial lattice)."""
        values: List[int] = []
        for row in self._basis:
            values.extend(row)
        return gcd_list(values) if values else 0

    def enumerate_vectors(self, coefficient_bound: int) -> Iterable[Vector]:
        """Yield lattice vectors with basis coefficients in ``[-bound, bound]``.

        Intended for tests and small visualisations only (exponential in rank).
        """
        bound = check_int(coefficient_bound, "coefficient_bound")
        if bound < 0:
            raise ShapeError("coefficient_bound must be non-negative")

        def recurse(index: int, acc: Vector):
            if index == self.rank:
                yield acc[:]
                return
            for c in range(-bound, bound + 1):
                row = self._basis[index]
                yield from recurse(index + 1, [a + c * b for a, b in zip(acc, row)])

        yield from recurse(0, [0] * self._dimension)

    # ------------------------------------------------------------------ #
    # dunder methods
    # ------------------------------------------------------------------ #
    def _check_compatible(self, other: "Lattice") -> None:
        if not isinstance(other, Lattice):
            raise ShapeError(f"expected a Lattice, got {type(other).__name__}")
        if other.dimension != self._dimension:
            raise ShapeError(
                f"lattice dimensions differ: {self._dimension} vs {other.dimension}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Lattice):
            return NotImplemented
        return self._dimension == other._dimension and self._basis == other._basis

    def __hash__(self) -> int:
        return hash((self._dimension, tuple(tuple(row) for row in self._basis)))

    def __repr__(self) -> str:
        return f"Lattice(rank={self.rank}, dimension={self.dimension}, basis={self._basis})"

    def __str__(self) -> str:
        if self.is_trivial:
            return f"Lattice {{0}} in Z^{self._dimension}"
        return f"Lattice of rank {self.rank} in Z^{self._dimension}:\n" + format_matrix(self._basis, "  ")
