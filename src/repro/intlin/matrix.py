"""Exact integer matrix primitives.

Matrices are plain lists of lists of Python integers (row major).  All
functions are pure: they never mutate their inputs unless the name says so
(the ``*_inplace``-style elementary operations used by the reduction
algorithms return a *new* matrix as well, so "in place" here refers to the
mathematical operation, not to Python mutation).

The row-vector convention of the paper is used throughout the library:
index vectors are rows, a transformation maps ``i`` to ``i @ T`` and a
matrix of generators has one generator per row.
"""

from __future__ import annotations

from operator import mul
from typing import List, Sequence, Tuple

from repro.exceptions import NotUnimodularError, ShapeError
from repro.utils.validation import as_int_list, as_int_table, check_int

Matrix = List[List[int]]
Vector = List[int]

__all__ = [
    "identity_matrix",
    "zero_matrix",
    "mat_copy",
    "mat_shape",
    "mat_transpose",
    "mat_mul",
    "mat_vec_mul",
    "vec_mat_mul",
    "mat_add",
    "mat_sub",
    "mat_neg",
    "mat_scale",
    "mat_equal",
    "mat_hstack",
    "mat_vstack",
    "determinant",
    "is_integer_matrix",
    "is_unimodular",
    "unimodular_inverse",
    "swap_rows",
    "swap_columns",
    "add_multiple_of_row",
    "add_multiple_of_column",
    "negate_row",
    "negate_column",
    "permutation_matrix",
    "leading_index",
    "is_zero_vector",
    "is_zero_matrix",
    "is_lex_positive",
    "is_lex_negative",
    "compare_lex",
]


# ---------------------------------------------------------------------------
# construction / shape
# ---------------------------------------------------------------------------

def identity_matrix(n: int) -> Matrix:
    """Return the ``n x n`` identity matrix."""
    n = check_int(n, "n")
    if n < 0:
        raise ShapeError(f"matrix dimension must be non-negative, got {n}")
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zero_matrix(n_rows: int, n_cols: int) -> Matrix:
    """Return an ``n_rows x n_cols`` matrix of zeros."""
    n_rows = check_int(n_rows, "n_rows")
    n_cols = check_int(n_cols, "n_cols")
    if n_rows < 0 or n_cols < 0:
        raise ShapeError(f"matrix dimensions must be non-negative, got {(n_rows, n_cols)}")
    return [[0] * n_cols for _ in range(n_rows)]


def mat_copy(mat: Sequence[Sequence[int]]) -> Matrix:
    """Deep-copy an integer matrix (also normalises entry types)."""
    return as_int_table(mat, "matrix")


def mat_shape(mat: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """Return ``(n_rows, n_cols)``; an empty matrix has shape ``(0, 0)``."""
    rows = list(mat)
    if not rows:
        return (0, 0)
    return (len(rows), len(rows[0]))


def mat_transpose(mat: Sequence[Sequence[int]]) -> Matrix:
    """Return the transpose of ``mat``."""
    return [list(col) for col in zip(*mat_copy(mat))]


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    """Exact matrix product ``a @ b``."""
    ta, tb = mat_copy(a), mat_copy(b)
    ra, ca = mat_shape(ta)
    rb, cb = mat_shape(tb)
    if ra == 0 or rb == 0:
        if ca != rb and not (ra == 0 and ca == 0):
            raise ShapeError(f"cannot multiply matrices of shapes {(ra, ca)} and {(rb, cb)}")
        return [[0] * cb for _ in range(ra)]
    if ca != rb:
        raise ShapeError(f"cannot multiply matrices of shapes {(ra, ca)} and {(rb, cb)}")
    return _mat_mul(ta, tb)


def _mat_mul(ta: Matrix, tb: Matrix) -> Matrix:
    """:func:`mat_mul` of validated, nonempty matrices of matching shapes."""
    tbt = list(zip(*tb))
    return [[sum(map(mul, row, col)) for col in tbt] for row in ta]


def mat_vec_mul(mat: Sequence[Sequence[int]], vec: Sequence[int]) -> Vector:
    """Return the column action ``mat @ vec`` as a flat vector."""
    table = mat_copy(mat)
    v = as_int_list(vec, "vec")
    _, n_cols = mat_shape(table)
    if table and len(v) != n_cols:
        raise ShapeError(f"vector of length {len(v)} incompatible with {mat_shape(table)}")
    return [sum(a * b for a, b in zip(row, v)) for row in table]


def vec_mat_mul(vec: Sequence[int], mat: Sequence[Sequence[int]]) -> Vector:
    """Return the row action ``vec @ mat`` as a flat vector.

    This is the paper's convention for transforming row index vectors.
    """
    table = mat_copy(mat)
    v = as_int_list(vec, "vec")
    if len(v) != len(table):
        raise ShapeError(f"vector of length {len(v)} incompatible with {mat_shape(table)}")
    return _vec_mat_mul(v, table)


def _vec_mat_mul(v: Vector, table: Matrix) -> Vector:
    """:func:`vec_mat_mul` on a validated vector and matrix of matching shape."""
    n_cols = len(table[0]) if table else 0
    result = [0] * n_cols
    for coeff, row in zip(v, table):
        if coeff == 0:
            continue
        for j in range(n_cols):
            result[j] += coeff * row[j]
    return result


def mat_add(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    """Entry-wise sum of two equally shaped matrices."""
    ta, tb = mat_copy(a), mat_copy(b)
    if mat_shape(ta) != mat_shape(tb):
        raise ShapeError(f"shape mismatch: {mat_shape(ta)} vs {mat_shape(tb)}")
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(ta, tb)]


def mat_sub(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    """Entry-wise difference of two equally shaped matrices."""
    return mat_add(a, mat_neg(b))


def mat_neg(mat: Sequence[Sequence[int]]) -> Matrix:
    """Entry-wise negation."""
    return [[-x for x in row] for row in mat_copy(mat)]


def mat_scale(mat: Sequence[Sequence[int]], factor: int) -> Matrix:
    """Multiply every entry by the integer ``factor``."""
    factor = check_int(factor, "factor")
    return [[factor * x for x in row] for row in mat_copy(mat)]


def mat_equal(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> bool:
    """Exact equality of two matrices (shape and entries)."""
    ta, tb = mat_copy(a), mat_copy(b)
    return ta == tb


def mat_hstack(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    """Concatenate two matrices horizontally (same number of rows)."""
    ta, tb = mat_copy(a), mat_copy(b)
    if len(ta) != len(tb):
        raise ShapeError(f"row count mismatch: {len(ta)} vs {len(tb)}")
    return [ra + rb for ra, rb in zip(ta, tb)]


def mat_vstack(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    """Concatenate two matrices vertically (same number of columns)."""
    ta, tb = mat_copy(a), mat_copy(b)
    if ta and tb and len(ta[0]) != len(tb[0]):
        raise ShapeError(f"column count mismatch: {len(ta[0])} vs {len(tb[0])}")
    return ta + tb


# ---------------------------------------------------------------------------
# determinants, unimodularity, inverse
# ---------------------------------------------------------------------------

def determinant(mat: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss algorithm)."""
    table = mat_copy(mat)
    n, m = mat_shape(table)
    if n != m:
        raise ShapeError(f"determinant requires a square matrix, got shape {(n, m)}")
    return _determinant(table)


def _determinant(a: Matrix) -> int:
    """:func:`determinant` of a validated square matrix, reduced in place."""
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_integer_matrix(mat) -> bool:
    """Return True if ``mat`` normalises to a rectangular integer matrix."""
    try:
        mat_copy(mat)
    except ShapeError:
        return False
    return True


def is_unimodular(mat: Sequence[Sequence[int]]) -> bool:
    """Return True if ``mat`` is square, integral and has determinant ±1."""
    return _is_unimodular(mat_copy(mat))


def _is_unimodular(table: Matrix) -> bool:
    """:func:`is_unimodular` of a validated matrix (left unchanged)."""
    if not table or len(table) != len(table[0]):
        return False
    return abs(_determinant([row[:] for row in table])) == 1


def unimodular_inverse(mat: Sequence[Sequence[int]]) -> Matrix:
    """Exact inverse of a unimodular matrix (the inverse is again integral).

    Raises :class:`NotUnimodularError` if the matrix is not unimodular.
    Gauss-Jordan elimination on ``[T | I]`` in integers: the Euclidean steps
    of :func:`repro.intlin.echelon.row_echelon` give ``E = U @ T``, upper
    triangular with unimodular ``U``, so ``|det T|`` is the product of the
    pivots ``|E[k][k]|``.  When every pivot is ±1, back substitution turns
    ``[E | U]`` into ``[I | T^-1]``.
    """
    table = mat_copy(mat)
    n, m = mat_shape(table)
    if n != m or n == 0:
        raise NotUnimodularError(f"expected a square matrix, got shape {(n, m)}")
    return _unimodular_inverse(table)


def _unimodular_inverse(table: Matrix) -> Matrix:
    """:func:`unimodular_inverse` of a validated square matrix (left unchanged)."""
    from repro.intlin.echelon import _row_echelon  # echelon builds on this module

    n = len(table)
    reduced = _row_echelon(list(table))
    if reduced.rank < n or any(abs(reduced.echelon[k][k]) != 1 for k in range(n)):
        det = _determinant([row[:] for row in table])
        raise NotUnimodularError(f"matrix has determinant {det}, expected ±1")
    rows = [e + u for e, u in zip(reduced.echelon, reduced.transform)]
    for col in range(n - 1, -1, -1):
        if rows[col][col] < 0:
            rows[col] = [-a for a in rows[col]]
        for r in range(col):
            q = rows[r][col]
            if q != 0:
                rows[r] = [a - q * b for a, b in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


# ---------------------------------------------------------------------------
# elementary row/column operations (return new matrices)
# ---------------------------------------------------------------------------

def swap_rows(mat: Sequence[Sequence[int]], i: int, j: int) -> Matrix:
    """Return a copy of ``mat`` with rows ``i`` and ``j`` exchanged."""
    table = mat_copy(mat)
    table[i], table[j] = table[j], table[i]
    return table


def swap_columns(mat: Sequence[Sequence[int]], i: int, j: int) -> Matrix:
    """Return a copy of ``mat`` with columns ``i`` and ``j`` exchanged."""
    table = mat_copy(mat)
    for row in table:
        row[i], row[j] = row[j], row[i]
    return table


def add_multiple_of_row(mat: Sequence[Sequence[int]], src: int, dst: int, factor: int) -> Matrix:
    """Return a copy with ``row[dst] += factor * row[src]``."""
    factor = check_int(factor, "factor")
    table = mat_copy(mat)
    table[dst] = [x + factor * y for x, y in zip(table[dst], table[src])]
    return table


def add_multiple_of_column(mat: Sequence[Sequence[int]], src: int, dst: int, factor: int) -> Matrix:
    """Return a copy with ``col[dst] += factor * col[src]``."""
    factor = check_int(factor, "factor")
    table = mat_copy(mat)
    for row in table:
        row[dst] += factor * row[src]
    return table


def negate_row(mat: Sequence[Sequence[int]], i: int) -> Matrix:
    """Return a copy with row ``i`` negated."""
    table = mat_copy(mat)
    table[i] = [-x for x in table[i]]
    return table


def negate_column(mat: Sequence[Sequence[int]], j: int) -> Matrix:
    """Return a copy with column ``j`` negated."""
    table = mat_copy(mat)
    for row in table:
        row[j] = -row[j]
    return table


def permutation_matrix(permutation: Sequence[int]) -> Matrix:
    """Return the permutation matrix ``P`` with ``(i @ P)[k] = i[permutation[k]]``.

    ``permutation[k]`` names which *old* position feeds new position ``k``
    (column convention matching the row-vector transform ``i @ P``).
    """
    perm = [check_int(p, "permutation entry") for p in permutation]
    n = len(perm)
    if sorted(perm) != list(range(n)):
        raise ShapeError(f"not a permutation of 0..{n - 1}: {perm}")
    mat = zero_matrix(n, n)
    for new_pos, old_pos in enumerate(perm):
        mat[old_pos][new_pos] = 1
    return mat


# ---------------------------------------------------------------------------
# lexicographic predicates (Section 2.1 of the paper)
# ---------------------------------------------------------------------------

def leading_index(vec: Sequence[int]) -> int:
    """Return the *level* of ``vec``: index of the first nonzero entry, or -1."""
    for k, v in enumerate(vec):
        if v != 0:
            return k
    return -1


def is_zero_vector(vec: Sequence[int]) -> bool:
    """Return True if every entry of ``vec`` is zero."""
    return all(v == 0 for v in vec)


def is_zero_matrix(mat: Sequence[Sequence[int]]) -> bool:
    """Return True if every entry of ``mat`` is zero (or the matrix is empty)."""
    return all(is_zero_vector(row) for row in mat)


def is_lex_positive(vec: Sequence[int]) -> bool:
    """True if the first nonzero entry of ``vec`` is positive (``vec > 0`` lexicographically)."""
    idx = leading_index(vec)
    return idx >= 0 and vec[idx] > 0


def is_lex_negative(vec: Sequence[int]) -> bool:
    """True if the first nonzero entry of ``vec`` is negative."""
    idx = leading_index(vec)
    return idx >= 0 and vec[idx] < 0


def compare_lex(a: Sequence[int], b: Sequence[int]) -> int:
    """Three-way lexicographic comparison: -1 if ``a < b``, 0 if equal, +1 if ``a > b``."""
    if len(a) != len(b):
        raise ShapeError(f"cannot compare vectors of lengths {len(a)} and {len(b)}")
    for x, y in zip(a, b):
        if x != y:
            return -1 if x < y else 1
    return 0
