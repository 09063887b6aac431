"""Algorithm 1: legal unimodular transformation for a non-full-rank PDM.

Given a pseudo distance matrix ``D`` with ``rank r < n`` (``n`` = loop
depth), Section 3.2 of the paper constructs a legal unimodular matrix ``T``
such that ``D @ T`` has ``n - r`` zero columns; by Lemma 1 the loops
corresponding to those columns can run in parallel (``doall``).

The implementation here produces ``D @ T = [0 | M]`` with ``M`` an ``r x r``
upper triangular matrix with positive diagonal, i.e. an echelon matrix with
lexicographically positive rows — so the final ``T`` is legal by Theorem 1
(only the *final* product needs to satisfy the condition; intermediate column
operations are mere bookkeeping).  With ``placement='outer'`` the zero
columns are the leading (outermost) loops, which yields coarse-grain
parallelism; ``placement='inner'`` appends a cyclic permutation that moves
the zero columns to the innermost positions (fine-grain parallelism), which
is legal by Corollary 3.

The column-operation count is O(n^2 · log M) Euclidean steps (M = largest
PDM entry), matching the complexity remark in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Union

from repro.core.legality import _is_legal
from repro.core.pdm import PseudoDistanceMatrix
from repro.core.transforms import loop_permutation
from repro.exceptions import IllegalTransformationError, ShapeError
from repro.intlin.matrix import Matrix, _mat_mul, identity_matrix, mat_copy, mat_shape

__all__ = ["Algorithm1Result", "transform_non_full_rank"]


@dataclass(frozen=True)
class Algorithm1Result:
    """Outcome of Algorithm 1.

    Attributes
    ----------
    transform:
        The legal unimodular matrix ``T`` (``n x n``).
    transformed:
        ``D @ T`` — the PDM of the transformed loop (not re-canonicalised).
    zero_columns:
        New loop levels whose PDM column is zero (parallel loops, Lemma 1).
    sequential_columns:
        The remaining levels (they form the full-rank block ``M``).
    sequential_block:
        The ``r x r`` matrix ``M`` (rows of ``transformed`` restricted to the
        sequential columns); upper triangular with positive diagonal for
        ``placement='outer'``.
    placement:
        ``'outer'`` or ``'inner'``.
    column_operations:
        Number of elementary column operations performed (cost metric).
    """

    transform: Matrix
    transformed: Matrix
    zero_columns: Tuple[int, ...]
    sequential_columns: Tuple[int, ...]
    sequential_block: Matrix
    placement: str
    column_operations: int = field(default=0, compare=False)

    @property
    def parallel_loop_count(self) -> int:
        return len(self.zero_columns)


def _column_add(matrix: Matrix, dst: int, src: int, factor: int) -> None:
    for row in matrix:
        row[dst] += factor * row[src]


def _column_swap(matrix: Matrix, a: int, b: int) -> None:
    for row in matrix:
        row[a], row[b] = row[b], row[a]


def _column_negate(matrix: Matrix, j: int) -> None:
    for row in matrix:
        row[j] = -row[j]


def transform_non_full_rank(
    pdm: Union[PseudoDistanceMatrix, Sequence[Sequence[int]]],
    depth: int = None,
    placement: str = "outer",
) -> Algorithm1Result:
    """Apply Algorithm 1 to a PDM (works for any rank, including 0 and full).

    Parameters
    ----------
    pdm:
        Either a :class:`PseudoDistanceMatrix` or a raw generator matrix in
        Hermite normal form (full row rank).
    depth:
        Loop depth ``n``; required when a raw matrix with zero rows/columns
        ambiguity is passed, inferred otherwise.
    placement:
        ``'outer'`` (zero columns outermost, coarse-grain parallelism) or
        ``'inner'`` (zero columns innermost, fine-grain parallelism).

    Returns
    -------
    Algorithm1Result

    Raises
    ------
    IllegalTransformationError
        If the produced transformation unexpectedly fails the Theorem 1
        legality check (this would indicate an internal error and is verified
        defensively on every call).
    """
    if placement not in ("outer", "inner"):
        raise ShapeError(f"placement must be 'outer' or 'inner', got {placement!r}")

    if isinstance(pdm, PseudoDistanceMatrix):
        matrix = mat_copy(pdm.matrix)
        n = pdm.depth
    else:
        matrix = mat_copy(pdm)
        rows, cols = mat_shape(matrix)
        if depth is None:
            if rows == 0:
                raise ShapeError("depth is required for an empty PDM matrix")
            n = cols
        else:
            n = depth
            if rows and cols != n:
                raise ShapeError(f"PDM has {cols} columns, expected {n}")

    return _transform(matrix, n, placement)


def _transform(matrix: Matrix, n: int, placement: str) -> Algorithm1Result:
    """:func:`transform_non_full_rank` of a validated ``? x n`` HNF matrix,
    left unchanged."""
    r = len(matrix)
    if r > n:
        raise ShapeError(f"PDM rank {r} exceeds the loop depth {n}")

    work = [row[:] for row in matrix]
    transform = identity_matrix(n)
    operations = 0

    # Process generator rows bottom-up; row i is given the target column
    # n - r + i.  Column operations are restricted to columns 0..target, so
    # the leading structure established for the rows below is never disturbed.
    for i in range(r - 1, -1, -1):
        target = n - r + i
        # Euclidean elimination: gather gcd of work[i][0..target] into a single column.
        while True:
            nonzero = [c for c in range(target + 1) if work[i][c] != 0]
            if len(nonzero) <= 1:
                break
            pivot_col = min(nonzero, key=lambda c: abs(work[i][c]))
            for col in nonzero:
                if col == pivot_col:
                    continue
                q = work[i][col] // work[i][pivot_col]
                if q != 0:
                    _column_add(work, col, pivot_col, -q)
                    _column_add(transform, col, pivot_col, -q)
                    operations += 1
        nonzero = [c for c in range(target + 1) if work[i][c] != 0]
        if not nonzero:
            raise IllegalTransformationError(
                "PDM rows are linearly dependent; expected a full-row-rank (HNF) input"
            )
        col = nonzero[0]
        if col != target:
            _column_swap(work, col, target)
            _column_swap(transform, col, target)
            operations += 1
        if work[i][target] < 0:
            _column_negate(work, target)
            _column_negate(transform, target)
            operations += 1

    zero_columns = list(range(n - r))
    sequential_columns = list(range(n - r, n))

    if placement == "inner":
        # Move the zero columns to the innermost positions (Corollary 3).
        order = sequential_columns + zero_columns
        transform = _mat_mul(transform, loop_permutation(order))
        work = _mat_mul(matrix, transform) if matrix else []
        zero_columns = list(range(r, n))
        sequential_columns = list(range(r))

    sequential_block = [[row[c] for c in sequential_columns] for row in work]

    result = Algorithm1Result(
        transform=transform,
        transformed=work,
        zero_columns=tuple(zero_columns),
        sequential_columns=tuple(sequential_columns),
        sequential_block=sequential_block,
        placement=placement,
        column_operations=operations,
    )

    # Defensive verification of Theorem 1 on the final product.
    if not _is_legal(matrix, transform):
        raise IllegalTransformationError(
            "Algorithm 1 produced a transformation that fails the legality check"
        )
    return result
