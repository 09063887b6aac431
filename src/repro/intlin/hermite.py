"""Hermite normal forms and integer kernels.

The paper uses the (row-style) Hermite Normal Form to canonicalise the
lattice generated by the distance-vector generators: the *pseudo distance
matrix* is ``HNF(B)`` where ``B`` stacks the generators of every dependent
reference pair (equations (2.18) and (2.21)).

The conventions here follow the paper:

* the HNF is a **full row rank** echelon matrix (zero rows dropped),
* every leading element (pivot) is strictly positive,
* entries above a pivot are reduced into ``[0, pivot)``,
* the rows generate exactly the same lattice as the input rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.intlin.echelon import _row_echelon, row_echelon
from repro.intlin.matrix import (
    Matrix,
    is_zero_vector,
    leading_index,
    mat_copy,
    mat_shape,
    mat_transpose,
)
from repro.utils.validation import trusted_record

__all__ = [
    "HermiteResult",
    "hermite_normal_form",
    "is_hermite_normal_form",
    "ColumnEchelonResult",
    "column_echelon",
    "left_kernel_basis",
    "right_kernel_basis",
]


@dataclass(frozen=True)
class HermiteResult:
    """Result of :func:`hermite_normal_form`.

    Attributes
    ----------
    transform:
        Unimodular ``m x m`` matrix ``U`` with ``U @ original == full``.
    full:
        The complete ``m x n`` reduced matrix (zero rows at the bottom).
    hermite:
        Only the nonzero rows of ``full`` — the paper's HNF, full row rank.
    rank:
        Number of nonzero rows.
    pivot_columns:
        Leading-element column of every HNF row (strictly increasing).
    """

    transform: Matrix
    full: Matrix
    hermite: Matrix
    rank: int
    pivot_columns: List[int]


def hermite_normal_form(mat: Sequence[Sequence[int]]) -> HermiteResult:
    """Compute the row-style Hermite Normal Form of an integer matrix.

    The returned ``hermite`` rows generate the same integer (row) lattice as
    the rows of ``mat``.
    """
    return _hermite_normal_form(mat_copy(mat))


def _hermite_normal_form(table: Matrix) -> HermiteResult:
    """:func:`hermite_normal_form` of a validated matrix, reduced in place:
    its rows are replaced, never written to, so they may be shared."""
    ech = _row_echelon(table, positive_pivots=True)
    work, transform, pivots = ech.echelon, ech.transform, ech.pivot_columns

    # Reduce the entries above each pivot into [0, pivot).
    for k in range(ech.rank):
        col = pivots[k]
        pivot = work[k][col]
        for above in range(k):
            entry = work[above][col]
            q = entry // pivot  # floor division puts the remainder in [0, pivot)
            if q != 0:
                work[above] = [a - q * b for a, b in zip(work[above], work[k])]
                transform[above] = [a - q * b for a, b in zip(transform[above], transform[k])]

    hermite = [row[:] for row in work[: ech.rank]]
    return trusted_record(
        HermiteResult,
        transform=transform,
        full=work,
        hermite=hermite,
        rank=ech.rank,
        pivot_columns=pivots,
    )


def is_hermite_normal_form(mat: Sequence[Sequence[int]]) -> bool:
    """Check the paper's HNF properties: full row rank echelon, positive pivots,
    entries above each pivot reduced into ``[0, pivot)``."""
    table = mat_copy(mat)
    previous_level = -1
    for row in table:
        if is_zero_vector(row):
            return False
        level = leading_index(row)
        if level <= previous_level:
            return False
        if row[level] <= 0:
            return False
        previous_level = level
    for k, row in enumerate(table):
        col = leading_index(row)
        pivot = row[col]
        for above in range(k):
            if not (0 <= table[above][col] < pivot):
                return False
    return True


@dataclass(frozen=True)
class ColumnEchelonResult:
    """Result of :func:`column_echelon`: ``original @ transform == echelon``."""

    transform: Matrix
    echelon: Matrix
    rank: int


def column_echelon(mat: Sequence[Sequence[int]], positive_pivots: bool = False) -> ColumnEchelonResult:
    """Column-style echelon reduction: find unimodular ``T`` with ``mat @ T`` echelon by columns.

    Implemented via the row reduction of the transpose.
    """
    table = mat_copy(mat)
    ech = row_echelon(mat_transpose(table), positive_pivots=positive_pivots)
    transform = mat_transpose(ech.transform)
    echelon = mat_transpose(ech.echelon)
    return ColumnEchelonResult(transform=transform, echelon=echelon, rank=ech.rank)


def left_kernel_basis(mat: Sequence[Sequence[int]]) -> Matrix:
    """Basis of the left integer kernel ``{x : x @ mat == 0}``.

    Returns one basis row per kernel dimension; the rows generate the full
    kernel lattice (they are a saturated basis because they come from a
    unimodular transform).  For a matrix with trivial kernel the result is
    an empty list.
    """
    table = mat_copy(mat)
    m, _ = mat_shape(table)
    if m == 0:
        return []
    ech = row_echelon(table)
    return [ech.transform[r][:] for r in range(ech.rank, m)]


def right_kernel_basis(mat: Sequence[Sequence[int]]) -> Matrix:
    """Basis of the right integer kernel ``{v : mat @ v == 0}`` (vectors as rows)."""
    return left_kernel_basis(mat_transpose(mat))
