"""Systems of linear diophantine equations.

The paper rewrites the dependence equations as ``x @ A = c`` where ``x`` is
the (row) vector of the ``2n`` unknown loop indices ``(i, j)`` and ``A`` is a
``2n x d`` constant matrix built from the array subscripts (equation (2.6)).
The system is solved by reducing ``A`` with a unimodular row transform to an
echelon matrix (equations (2.7)-(2.10)); this module implements exactly that
procedure and returns the general solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.exceptions import InconsistentSystemError, ShapeError
from repro.intlin.echelon import EchelonResult, _row_echelon
from repro.intlin.matrix import (
    Matrix,
    Vector,
    _vec_mat_mul,
    mat_copy,
    mat_shape,
    mat_transpose,
    vec_mat_mul,
)
from repro.utils.validation import as_int_list, trusted_record

__all__ = [
    "DiophantineSolution",
    "solve_row_system",
    "solve_column_system",
    "has_integer_solution",
]


@dataclass(frozen=True)
class DiophantineSolution:
    """General integer solution of ``x @ A = c`` (row-vector unknown).

    Attributes
    ----------
    consistent:
        Whether any integer solution exists.
    particular:
        One solution ``x0`` (length ``m``), or None when inconsistent.
    homogeneous_basis:
        Rows spanning the lattice of homogeneous solutions ``{x : x @ A = 0}``;
        every solution is ``particular + integer combination of these rows``.
    rank:
        Rank of the coefficient matrix.
    n_unknowns:
        Length of the solution vectors.
    """

    consistent: bool
    particular: Optional[Vector]
    homogeneous_basis: Matrix
    rank: int
    n_unknowns: int

    @property
    def n_free(self) -> int:
        """Number of free integer parameters in the general solution."""
        return len(self.homogeneous_basis)

    def sample(self, coefficients: Sequence[int]) -> Vector:
        """Return the solution for a specific choice of free parameters."""
        if not self.consistent:
            raise InconsistentSystemError("the system has no integer solution")
        coeffs = as_int_list(coefficients, "coefficients")
        if len(coeffs) != self.n_free:
            raise ShapeError(f"expected {self.n_free} coefficients, got {len(coeffs)}")
        out = list(self.particular)
        for c, row in zip(coeffs, self.homogeneous_basis):
            out = [o + c * r for o, r in zip(out, row)]
        return out

    def is_solution(self, x: Sequence[int], matrix: Sequence[Sequence[int]], constant: Sequence[int]) -> bool:
        """Verify that ``x @ matrix == constant`` (testing helper)."""
        return vec_mat_mul(as_int_list(x, "x"), matrix) == as_int_list(constant, "constant")


def solve_row_system(matrix: Sequence[Sequence[int]], constant: Sequence[int]) -> DiophantineSolution:
    """Solve ``x @ matrix = constant`` over the integers.

    Parameters
    ----------
    matrix:
        ``m x n`` integer matrix.
    constant:
        Right-hand side of length ``n``.

    Notes
    -----
    Following the paper: choose unimodular ``U`` with ``U @ matrix = E``
    echelon; write ``x = t @ U``; then ``t @ E = c`` is solved for the first
    ``rank`` components of ``t`` by forward substitution (they must be
    integers), the remaining components of ``t`` are free, and the rows of
    ``U`` corresponding to the free components span the homogeneous lattice.
    """
    a = mat_copy(matrix)
    m, n = mat_shape(a)
    c = as_int_list(constant, "constant")
    if len(c) != n:
        raise ShapeError(f"constant has length {len(c)}, expected {n}")

    if m == 0:
        consistent = all(v == 0 for v in c)
        return DiophantineSolution(
            consistent=consistent,
            particular=[] if consistent else None,
            homogeneous_basis=[],
            rank=0,
            n_unknowns=0,
        )

    return _solve_reduced(_row_echelon(a), c)


def _solve_reduced(ech: EchelonResult, c: Vector) -> DiophantineSolution:
    """:func:`solve_row_system` given the echelon reduction of its matrix,
    which it leaves unchanged, so systems with one matrix share it."""
    m = len(ech.transform)
    echelon = ech.echelon
    rank = ech.rank
    pivots = ech.pivot_columns

    # Forward substitution for t_1 .. t_rank.
    t = [0] * m
    residual = list(c)
    consistent = True
    for k in range(rank):
        col = pivots[k]
        pivot = echelon[k][col]
        if residual[col] % pivot != 0:
            consistent = False
            break
        t[k] = residual[col] // pivot
        if t[k] != 0:
            residual = [r - t[k] * e for r, e in zip(residual, echelon[k])]
    if consistent and any(residual):
        consistent = False

    homogeneous = [ech.transform[r][:] for r in range(rank, m)]
    particular = _vec_mat_mul(t, ech.transform) if consistent else None
    return trusted_record(
        DiophantineSolution,
        consistent=consistent,
        particular=particular,
        homogeneous_basis=homogeneous,
        rank=rank,
        n_unknowns=m,
    )


def solve_column_system(matrix: Sequence[Sequence[int]], constant: Sequence[int]) -> DiophantineSolution:
    """Solve ``matrix @ x = constant`` (column-vector unknown) over the integers.

    Implemented by transposing into the row-vector form.
    """
    return solve_row_system(mat_transpose(matrix), constant)


def has_integer_solution(matrix: Sequence[Sequence[int]], constant: Sequence[int]) -> bool:
    """Convenience wrapper: does ``x @ matrix = constant`` admit an integer solution?"""
    return solve_row_system(matrix, constant).consistent
