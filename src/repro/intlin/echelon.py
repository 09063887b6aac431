"""Integer row echelon reduction by unimodular row operations.

The paper (Section 2.2) solves the diophantine dependence equations by
choosing a unimodular matrix ``U`` such that ``U @ A`` is an *echelon*
matrix:

1. only the first ``rank`` rows are nonzero, and
2. the levels (index of the first nonzero element) of the nonzero rows are
   strictly increasing.

This module provides that reduction together with the predicates used by the
legality theory of Section 3 (echelon form with lexicographically positive
rows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.intlin.matrix import (
    Matrix,
    is_lex_positive,
    is_zero_vector,
    leading_index,
    mat_copy,
)
from repro.utils.validation import trusted_record

__all__ = [
    "EchelonResult",
    "row_echelon",
    "is_echelon",
    "is_echelon_lex_positive",
    "matrix_rank",
    "row_levels",
]


@dataclass(frozen=True)
class EchelonResult:
    """Result of :func:`row_echelon`.

    Attributes
    ----------
    transform:
        The unimodular matrix ``U`` (``m x m``) with ``U @ original == echelon``.
    echelon:
        The full ``m x n`` echelon matrix (zero rows kept at the bottom).
    rank:
        Number of nonzero rows of ``echelon``.
    pivot_columns:
        For each nonzero row, the column index of its leading element
        (the row *levels*, strictly increasing).
    """

    transform: Matrix
    echelon: Matrix
    rank: int
    pivot_columns: List[int] = field(default_factory=list)

    @property
    def nonzero_rows(self) -> Matrix:
        """The first ``rank`` (nonzero) rows of the echelon matrix."""
        return [row[:] for row in self.echelon[: self.rank]]


def row_echelon(mat: Sequence[Sequence[int]], positive_pivots: bool = False) -> EchelonResult:
    """Reduce ``mat`` to integer row echelon form with a unimodular transform.

    Parameters
    ----------
    mat:
        Integer matrix (``m x n``), possibly empty.
    positive_pivots:
        If True, additionally negate rows so that every leading element is
        positive (the echelon matrix then has lexicographically positive
        nonzero rows).

    Returns
    -------
    EchelonResult
        With ``transform @ mat == echelon`` (exact integer arithmetic).
    """
    return _row_echelon(mat_copy(mat), positive_pivots)


def _row_echelon(work: Matrix, positive_pivots: bool = False) -> EchelonResult:
    """:func:`row_echelon` of a validated matrix, which becomes the echelon
    matrix: its rows are replaced, never written to, so they may be shared."""
    m = len(work)
    n = len(work[0]) if work else 0
    transform = [[0] * m for _ in range(m)]
    for k in range(m):
        transform[k][k] = 1
    pivot_row = 0
    pivot_columns: List[int] = []
    for col in range(n):
        if pivot_row >= m:
            break
        # Reduce all rows below (and including) pivot_row in this column
        # until at most one nonzero entry remains, using Euclidean steps
        # against the first row of least magnitude.
        while True:
            nonzero = [r for r in range(pivot_row, m) if work[r][col]]
            if len(nonzero) <= 1:
                break
            piv = nonzero[0]
            least = abs(work[piv][col])
            for r in nonzero:
                if abs(work[r][col]) < least:
                    piv, least = r, abs(work[r][col])
            prow, ptrans, pivot = work[piv], transform[piv], work[piv][col]
            for r in nonzero:
                q = work[r][col] // pivot
                if r != piv and q:
                    work[r] = [a - q * b for a, b in zip(work[r], prow)]
                    transform[r] = [a - q * b for a, b in zip(transform[r], ptrans)]
        if not nonzero:
            continue
        src = nonzero[0]
        if src != pivot_row:
            work[pivot_row], work[src] = work[src], work[pivot_row]
            transform[pivot_row], transform[src] = transform[src], transform[pivot_row]
        if positive_pivots and work[pivot_row][col] < 0:
            work[pivot_row] = [-a for a in work[pivot_row]]
            transform[pivot_row] = [-a for a in transform[pivot_row]]
        pivot_columns.append(col)
        pivot_row += 1

    return trusted_record(
        EchelonResult,
        transform=transform,
        echelon=work,
        rank=pivot_row,
        pivot_columns=pivot_columns,
    )


def row_levels(mat: Sequence[Sequence[int]]) -> List[int]:
    """Return the level (index of first nonzero entry, or -1) of every row."""
    return [leading_index(row) for row in mat_copy(mat)]


def is_echelon(mat: Sequence[Sequence[int]]) -> bool:
    """Return True if ``mat`` is an echelon matrix in the sense of the paper.

    Zero rows (if any) must all come after the nonzero rows, and the levels of
    the nonzero rows must be strictly increasing.
    """
    return _is_echelon(mat_copy(mat))


def _is_echelon(table: Matrix) -> bool:
    seen_zero = False
    previous_level = -1
    for row in table:
        if is_zero_vector(row):
            seen_zero = True
            continue
        if seen_zero:
            return False
        level = leading_index(row)
        if level <= previous_level:
            return False
        previous_level = level
    return True


def is_echelon_lex_positive(mat: Sequence[Sequence[int]]) -> bool:
    """True if ``mat`` is echelon and every nonzero row is lexicographically positive.

    This is the condition of Theorem 1 for a legal unimodular transformation:
    ``PDM @ T`` must satisfy this predicate.
    """
    return _is_echelon_lex_positive(mat_copy(mat))


def _is_echelon_lex_positive(table: Matrix) -> bool:
    return _is_echelon(table) and all(is_lex_positive(row) for row in table if any(row))


def matrix_rank(mat: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix."""
    return row_echelon(mat).rank
