"""Legality of loop transformations for variable dependence distances.

Section 3.1 of the paper:

* **Lemma 2** — for an echelon matrix with lexicographically positive rows,
  a nonzero integer combination ``y @ E`` is lexicographically positive iff
  the coefficient vector ``y`` is lexicographically positive.
* **Theorem 1** — a unimodular matrix ``T`` is a *legal* loop transformation
  if ``PDM @ T`` is an echelon matrix with lexicographically positive rows:
  every dependence distance ``d = y @ PDM`` with ``y`` lex-positive then maps
  to ``d @ T = y @ (PDM @ T)`` which is again lex-positive, so the execution
  order of dependent iterations is preserved.
"""

from __future__ import annotations

from typing import Sequence, Tuple, Union

from repro.core.pdm import PseudoDistanceMatrix
from repro.exceptions import IllegalTransformationError, NotUnimodularError, ShapeError
from repro.intlin.echelon import _is_echelon_lex_positive
from repro.intlin.matrix import (
    Matrix,
    _is_unimodular,
    _mat_mul,
    is_lex_positive,
    mat_copy,
    vec_mat_mul,
)

__all__ = [
    "is_legal_unimodular",
    "check_legal_unimodular",
    "lemma2_lex_positive_combination",
]


def _pdm_matrix(pdm: Union[PseudoDistanceMatrix, Sequence[Sequence[int]]]) -> Matrix:
    if isinstance(pdm, PseudoDistanceMatrix):
        return mat_copy(pdm.matrix)
    return mat_copy(pdm)


def _tables(pdm, transform) -> Tuple[Matrix, Matrix]:
    """The validated generator matrix and transform of a Theorem 1 check."""
    trans = mat_copy(transform)
    matrix = _pdm_matrix(pdm)
    if matrix and len(matrix[0]) != len(trans):
        raise ShapeError(
            f"a PDM of {len(matrix[0])} columns cannot take a transform of {len(trans)} rows"
        )
    return matrix, trans


def lemma2_lex_positive_combination(
    echelon_matrix: Sequence[Sequence[int]], coefficients: Sequence[int]
) -> bool:
    """Lemma 2: is ``coefficients @ echelon_matrix`` lexicographically positive?

    For an echelon matrix with lex-positive rows the answer equals
    ``is_lex_positive(coefficients)``; this helper computes the product
    directly so tests can verify the lemma.
    """
    product = vec_mat_mul(list(coefficients), _pdm_matrix(echelon_matrix))
    return is_lex_positive(product)


def is_legal_unimodular(
    pdm: Union[PseudoDistanceMatrix, Sequence[Sequence[int]]],
    transform: Sequence[Sequence[int]],
) -> bool:
    """Theorem 1 check: is ``transform`` a legal unimodular transformation?

    The conditions are: ``transform`` is unimodular and ``PDM @ transform``
    is an echelon matrix with lexicographically positive rows.  An empty PDM
    (no dependences) makes every unimodular transformation legal.
    """
    return _is_legal(*_tables(pdm, transform))


def _is_legal(matrix: Matrix, trans: Matrix) -> bool:
    """:func:`is_legal_unimodular` of validated tables, left unchanged."""
    if not _is_unimodular(trans):
        return False
    if not matrix:
        return True
    product = _mat_mul(matrix, trans)
    # A legal transformation must not annihilate a nonzero generator
    # (impossible for a unimodular transform, kept as a defensive check).
    return all(any(row) for row in product) and _is_echelon_lex_positive(product)


def check_legal_unimodular(
    pdm: Union[PseudoDistanceMatrix, Sequence[Sequence[int]]],
    transform: Sequence[Sequence[int]],
) -> None:
    """Raise if ``transform`` is not a legal unimodular transformation.

    Raises
    ------
    NotUnimodularError
        If ``transform`` is not unimodular.
    IllegalTransformationError
        If ``PDM @ transform`` violates the Theorem 1 condition.
    """
    _check_legal(*_tables(pdm, transform))


def _check_legal(matrix: Matrix, trans: Matrix) -> None:
    """:func:`check_legal_unimodular` of validated tables, left unchanged."""
    if not _is_unimodular(trans):
        raise NotUnimodularError("the transformation matrix is not unimodular")
    if matrix and not _is_echelon_lex_positive(_mat_mul(matrix, trans)):
        raise IllegalTransformationError(
            "PDM @ T is not an echelon matrix with lexicographically positive rows; "
            "the transformation may reverse the order of dependent iterations"
        )
