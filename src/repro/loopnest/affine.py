"""Exact affine expressions of loop indices.

An :class:`AffineExpr` is ``constant + sum(coefficients[name] * name)`` with
integer coefficients.  They are used for array subscripts (the paper requires
subscripts to be linear functions of *all* loop indices) and for loop bounds.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.exceptions import SubscriptError
from repro.utils.validation import check_int

__all__ = ["AffineExpr"]


class AffineExpr:
    """An affine integer expression over named variables.

    Instances are immutable and hashable.  Arithmetic is supported with other
    affine expressions and with plain integers; multiplication is only
    allowed by integer constants (anything else would not be affine).
    """

    __slots__ = ("_coeffs", "_constant")

    def __init__(self, coefficients: Mapping[str, int] = None, constant: int = 0):
        coeffs: Dict[str, int] = {}
        if coefficients:
            for name, value in coefficients.items():
                value = check_int(value, f"coefficient of {name}")
                if value != 0:
                    coeffs[str(name)] = value
        self._coeffs: Tuple[Tuple[str, int], ...] = tuple(sorted(coeffs.items()))
        self._constant = check_int(constant, "constant")

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def constant_expr(cls, value: int) -> "AffineExpr":
        """The constant expression ``value``."""
        return cls({}, value)

    @classmethod
    def variable(cls, name: str, coefficient: int = 1) -> "AffineExpr":
        """The expression ``coefficient * name``."""
        return cls({name: coefficient}, 0)

    @classmethod
    def from_coefficients(
        cls, names: Sequence[str], coefficients: Sequence[int], constant: int = 0
    ) -> "AffineExpr":
        """Build from parallel sequences of names and coefficients."""
        if len(names) != len(coefficients):
            raise SubscriptError("names and coefficients must have the same length")
        return cls(dict(zip(names, coefficients)), constant)

    # ------------------------------------------------------------------ #
    # inspection
    # ------------------------------------------------------------------ #
    @property
    def constant(self) -> int:
        """The constant term."""
        return self._constant

    @property
    def coefficients(self) -> Dict[str, int]:
        """A dict of the (nonzero) coefficients."""
        return dict(self._coeffs)

    @property
    def terms(self) -> Tuple[Tuple[str, int], ...]:
        """The (nonzero) coefficients as a name-sorted tuple, allocation-free."""
        return self._coeffs

    def coefficient(self, name: str) -> int:
        """Coefficient of ``name`` (0 if absent)."""
        return dict(self._coeffs).get(name, 0)

    def variables(self) -> Set[str]:
        """Set of variable names with nonzero coefficient."""
        return {name for name, _ in self._coeffs}

    @property
    def is_constant(self) -> bool:
        """True if no variable appears."""
        return not self._coeffs

    def vectorize(self, index_names: Sequence[str]) -> Tuple[List[int], int]:
        """Return ``(coefficient vector over index_names, constant)``.

        Raises :class:`SubscriptError` if the expression involves a variable
        not listed in ``index_names`` (the paper's subscripts may only use
        loop indices).
        """
        lookup = dict(self._coeffs)
        unknown = lookup.keys() - index_names
        if unknown:
            raise SubscriptError(
                f"affine expression uses variables {sorted(unknown)} "
                f"outside the loop indices {list(index_names)}"
            )
        return [lookup.get(name, 0) for name in index_names], self._constant

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate with concrete integer index values."""
        total = self._constant
        for name, coeff in self._coeffs:
            if name not in env:
                raise SubscriptError(f"no value provided for index {name!r}")
            total += coeff * check_int(env[name], name)
        return total

    def substitute(self, mapping: Mapping[str, "AffineExpr"]) -> "AffineExpr":
        """Substitute affine expressions for variables (used by codegen)."""
        result = AffineExpr.constant_expr(self._constant)
        for name, coeff in self._coeffs:
            if name in mapping:
                result = result + mapping[name] * coeff
            else:
                result = result + AffineExpr.variable(name, coeff)
        return result

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #
    def _as_affine(self, other) -> "AffineExpr":
        if isinstance(other, AffineExpr):
            return other
        return AffineExpr.constant_expr(check_int(other, "operand"))

    def __add__(self, other) -> "AffineExpr":
        other = self._as_affine(other)
        coeffs = dict(self._coeffs)
        for name, value in other._coeffs:
            coeffs[name] = coeffs.get(name, 0) + value
        return AffineExpr(coeffs, self._constant + other._constant)

    def __radd__(self, other) -> "AffineExpr":
        return self.__add__(other)

    def __sub__(self, other) -> "AffineExpr":
        return self.__add__(self._as_affine(other).__neg__())

    def __rsub__(self, other) -> "AffineExpr":
        return self._as_affine(other).__sub__(self)

    def __neg__(self) -> "AffineExpr":
        return AffineExpr({name: -value for name, value in self._coeffs}, -self._constant)

    def __mul__(self, factor) -> "AffineExpr":
        factor = check_int(factor, "factor")
        return AffineExpr(
            {name: factor * value for name, value in self._coeffs}, factor * self._constant
        )

    def __rmul__(self, factor) -> "AffineExpr":
        return self.__mul__(factor)

    # ------------------------------------------------------------------ #
    # dunder
    # ------------------------------------------------------------------ #
    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineExpr):
            return NotImplemented
        return self._coeffs == other._coeffs and self._constant == other._constant

    def __hash__(self) -> int:
        return hash((self._coeffs, self._constant))

    def __repr__(self) -> str:
        return f"AffineExpr({dict(self._coeffs)!r}, {self._constant!r})"

    def __str__(self) -> str:
        parts: List[str] = []
        for name, coeff in self._coeffs:
            if coeff == 1:
                term = name
            elif coeff == -1:
                term = f"-{name}"
            else:
                term = f"{coeff}*{name}"
            if parts and not term.startswith("-"):
                parts.append(f"+ {term}")
            elif parts:
                parts.append(f"- {term[1:]}")
            else:
                parts.append(term)
        if self._constant != 0 or not parts:
            if parts:
                sign = "+" if self._constant >= 0 else "-"
                parts.append(f"{sign} {abs(self._constant)}")
            else:
                parts.append(str(self._constant))
        return " ".join(parts)
