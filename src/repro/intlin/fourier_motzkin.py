"""Fourier–Motzkin elimination and loop-bound extraction.

After a unimodular transformation the new loop bounds are obtained by
rewriting the original bound constraints in terms of the new indices and
projecting with Fourier–Motzkin elimination, exactly as the paper does for
the example of Section 4.1 ("The loop limits of the transformed loop are
found by using Fourier-Motzkin elimination").

Elimination uses :class:`fractions.Fraction` and is therefore exact.  The
resulting loop bounds are evaluated on every scanned prefix, so each
:class:`BoundExpression` is normalized once, at construction, to integer
numerators over one positive common denominator ``d`` (the lcm of its
denominators).  On integer prefixes a floor bound is then ``num // d`` and a
ceiling bound ``-((-num) // d)`` on Python ints — exactly the floor and
ceiling of the rational value, with no ``Fraction`` built per evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import BoundsError, ShapeError

__all__ = [
    "LinearInequality",
    "InequalitySystem",
    "fourier_motzkin_eliminate",
    "bounds_for_variable",
    "loop_bounds_from_inequalities",
    "BoundExpression",
    "VariableBounds",
]


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ShapeError("boolean is not a valid coefficient")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**12)
    raise ShapeError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True)
class LinearInequality:
    """The inequality ``sum(coefficients[k] * x[k]) <= constant``."""

    coefficients: Tuple[Fraction, ...]
    constant: Fraction

    @classmethod
    def create(cls, coefficients: Sequence, constant) -> "LinearInequality":
        return cls(tuple(_to_fraction(c) for c in coefficients), _to_fraction(constant))

    @classmethod
    def lower_bound(cls, n_vars: int, var: int, bound) -> "LinearInequality":
        """``x[var] >= bound``  rewritten as ``-x[var] <= -bound``."""
        coeffs = [Fraction(0)] * n_vars
        coeffs[var] = Fraction(-1)
        return cls(tuple(coeffs), -_to_fraction(bound))

    @classmethod
    def upper_bound(cls, n_vars: int, var: int, bound) -> "LinearInequality":
        """``x[var] <= bound``."""
        coeffs = [Fraction(0)] * n_vars
        coeffs[var] = Fraction(1)
        return cls(tuple(coeffs), _to_fraction(bound))

    @property
    def n_vars(self) -> int:
        return len(self.coefficients)

    def involves(self, var: int) -> bool:
        return self.coefficients[var] != 0

    def is_trivially_true(self) -> bool:
        return all(c == 0 for c in self.coefficients) and self.constant >= 0

    def is_trivially_false(self) -> bool:
        return all(c == 0 for c in self.coefficients) and self.constant < 0

    def substitute_row_transform(self, inverse: Sequence[Sequence[int]]) -> "LinearInequality":
        """Rewrite a constraint on old indices ``i`` in terms of new indices ``j``.

        The paper's convention is ``j = i @ T`` (row vectors), hence
        ``i = j @ T^{-1}``.  If this inequality is ``sum_k c_k i_k <= b`` then
        in terms of ``j`` it becomes ``sum_l (sum_k Tinv[l][k] c_k) j_l <= b``.
        """
        n = self.n_vars
        if len(inverse) != n or (inverse and len(inverse[0]) != n):
            raise ShapeError("inverse transform has incompatible shape")
        new_coeffs = []
        for l in range(n):
            acc = Fraction(0)
            for k in range(n):
                acc += Fraction(inverse[l][k]) * self.coefficients[k]
            new_coeffs.append(acc)
        return LinearInequality(tuple(new_coeffs), self.constant)

    def evaluate(self, values: Sequence) -> bool:
        """Check whether the inequality holds for concrete values."""
        total = sum(c * _to_fraction(v) for c, v in zip(self.coefficients, values))
        return total <= self.constant

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coefficients):
            if c != 0:
                terms.append(f"{c}*x{k}")
        lhs = " + ".join(terms) if terms else "0"
        return f"{lhs} <= {self.constant}"


class InequalitySystem:
    """A conjunction of linear inequalities over ``n_vars`` variables."""

    def __init__(self, n_vars: int, inequalities: Iterable[LinearInequality] = ()):
        self.n_vars = int(n_vars)
        self.inequalities: List[LinearInequality] = []
        for ineq in inequalities:
            self.add(ineq)

    def add(self, inequality: LinearInequality) -> None:
        if inequality.n_vars != self.n_vars:
            raise ShapeError(
                f"inequality over {inequality.n_vars} variables added to a system over {self.n_vars}"
            )
        self.inequalities.append(inequality)

    def add_lower(self, var: int, bound) -> None:
        self.add(LinearInequality.lower_bound(self.n_vars, var, bound))

    def add_upper(self, var: int, bound) -> None:
        self.add(LinearInequality.upper_bound(self.n_vars, var, bound))

    def satisfied_by(self, values: Sequence) -> bool:
        return all(ineq.evaluate(values) for ineq in self.inequalities)

    def transformed(self, inverse: Sequence[Sequence[int]]) -> "InequalitySystem":
        """System expressed in the new indices ``j`` with ``i = j @ inverse``."""
        return InequalitySystem(
            self.n_vars,
            (ineq.substitute_row_transform(inverse) for ineq in self.inequalities),
        )

    def __len__(self) -> int:
        return len(self.inequalities)

    def __iter__(self):
        return iter(self.inequalities)

    def __str__(self) -> str:
        return "\n".join(str(ineq) for ineq in self.inequalities)


def _dedupe(inequalities: List[LinearInequality]) -> List[LinearInequality]:
    seen = set()
    out = []
    for ineq in inequalities:
        if ineq.is_trivially_true():
            continue
        key = (ineq.coefficients, ineq.constant)
        if key in seen:
            continue
        seen.add(key)
        out.append(ineq)
    return out


def fourier_motzkin_eliminate(
    inequalities: Sequence[LinearInequality], var: int
) -> List[LinearInequality]:
    """Project out variable ``var`` from a list of inequalities.

    The result is a list of inequalities over the remaining variables (the
    eliminated variable's coefficient is zero in every returned inequality)
    whose solution set is exactly the projection of the input's solution set.
    """
    zero_coeff: List[LinearInequality] = []
    upper: List[LinearInequality] = []  # positive coefficient on var
    lower: List[LinearInequality] = []  # negative coefficient on var
    for ineq in inequalities:
        coeff = ineq.coefficients[var]
        if coeff == 0:
            zero_coeff.append(ineq)
        elif coeff > 0:
            upper.append(ineq)
        else:
            lower.append(ineq)

    combined: List[LinearInequality] = list(zero_coeff)
    for up in upper:
        a = up.coefficients[var]
        for low in lower:
            b = -low.coefficients[var]
            # a * x <= (up rhs stuff)  and  b * x >= (low rhs stuff)
            # combine: b*up + a*low eliminates x.
            coeffs = tuple(
                b * cu + a * cl for cu, cl in zip(up.coefficients, low.coefficients)
            )
            constant = b * up.constant + a * low.constant
            combined.append(LinearInequality(coeffs, constant))
    return _dedupe(combined)


@dataclass(frozen=True)
class BoundExpression:
    """An affine bound ``constant + sum coefficients[k]*x[k]`` (rationals).

    ``coefficients`` only involves variables with index smaller than the
    bounded variable; a *lower* bound is evaluated with ceiling, an *upper*
    bound with floor (integer loop indices).  Construction derives the
    integer form ``(numerator_constant + sum numerators[k]*x[k]) /
    denominator`` with a positive ``denominator``, the lcm of the
    denominators, which the rounded evaluations use on integer inputs:

        >>> expr = BoundExpression((Fraction(1, 2), Fraction(-2, 3)), Fraction(1, 6))
        >>> expr.numerators, expr.numerator_constant, expr.denominator
        ((3, -4), 1, 6)
        >>> expr.evaluate_exact([2, 1]), expr.evaluate_floor([2, 1]), expr.evaluate_ceil([2, 1])
        (Fraction(1, 2), 0, 1)
    """

    coefficients: Tuple[Fraction, ...]
    constant: Fraction

    def __post_init__(self) -> None:
        coefficients = tuple(_to_fraction(c) for c in self.coefficients)
        constant = _to_fraction(self.constant)
        denominator = math.lcm(constant.denominator, *(c.denominator for c in coefficients))
        numerators = tuple(c.numerator * (denominator // c.denominator) for c in coefficients)
        numerator_constant = constant.numerator * (denominator // constant.denominator)
        set_field = object.__setattr__
        set_field(self, "coefficients", coefficients)
        set_field(self, "constant", constant)
        set_field(self, "denominator", denominator)
        set_field(self, "numerators", numerators)
        set_field(self, "numerator_constant", numerator_constant)

    # Only the rational form is pickled (plans ship these bounds to workers
    # and disk caches); the integer form is derived again on load.
    def __getstate__(self):
        return {"coefficients": self.coefficients, "constant": self.constant}

    def __setstate__(self, state) -> None:
        object.__setattr__(self, "coefficients", state["coefficients"])
        object.__setattr__(self, "constant", state["constant"])
        self.__post_init__()

    def evaluate_exact(self, values: Sequence) -> Fraction:
        total = self.constant
        for c, v in zip(self.coefficients, values):
            total += c * _to_fraction(v)
        return total

    def _numerator_at(self, values: Sequence) -> Optional[int]:
        """``denominator * value`` for int inputs; None for any other input."""
        total = self.numerator_constant
        for c, v in zip(self.numerators, values):
            if type(v) is not int:
                return None
            total += c * v
        return total

    def evaluate_floor(self, values: Sequence) -> int:
        numerator = self._numerator_at(values)
        if numerator is None:
            return math.floor(self.evaluate_exact(values))
        return numerator // self.denominator

    def evaluate_ceil(self, values: Sequence) -> int:
        numerator = self._numerator_at(values)
        if numerator is None:
            return math.ceil(self.evaluate_exact(values))
        return -(-numerator // self.denominator)

    def as_source(self, names: Sequence[str], mode: str) -> str:
        """Render as Python source; ``mode`` is ``'floor'`` or ``'ceil'``."""
        terms = []
        if self.constant != 0 or all(c == 0 for c in self.coefficients):
            terms.append(_fraction_source(self.constant))
        for c, name in zip(self.coefficients, names):
            if c == 0:
                continue
            if c == 1:
                terms.append(name)
            else:
                terms.append(f"{_fraction_source(c)}*{name}")
        expr = " + ".join(terms)
        needs_rounding = self.constant.denominator != 1 or any(
            c.denominator != 1 for c in self.coefficients
        )
        if not needs_rounding:
            return expr if len(terms) == 1 else f"({expr})"
        func = "math.floor" if mode == "floor" else "math.ceil"
        return f"{func}({expr})"

    def __str__(self) -> str:
        names = [f"x{k}" for k in range(len(self.coefficients))]
        return self.as_source(names, "floor")


def _fraction_source(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"({value.numerator}/{value.denominator})"


@dataclass(frozen=True)
class VariableBounds:
    """Lower/upper bound expressions for one loop variable.

    The effective bounds are ``max(ceil(lb))`` and ``min(floor(ub))`` over the
    listed expressions, evaluated at the values of the enclosing variables.
    """

    variable: int
    lowers: Tuple[BoundExpression, ...]
    uppers: Tuple[BoundExpression, ...]

    def lower_value(self, outer_values: Sequence) -> Optional[int]:
        if not self.lowers:
            return None
        return max(expr.evaluate_ceil(outer_values) for expr in self.lowers)

    def upper_value(self, outer_values: Sequence) -> Optional[int]:
        if not self.uppers:
            return None
        return min(expr.evaluate_floor(outer_values) for expr in self.uppers)


def bounds_for_variable(
    inequalities: Sequence[LinearInequality], var: int
) -> Tuple[List[BoundExpression], List[BoundExpression]]:
    """Extract lower/upper bound expressions for ``var``.

    Assumes every inequality only involves variables ``<= var`` (i.e. the
    variables after ``var`` have already been eliminated).  Returns
    ``(lowers, uppers)`` where each bound expression involves only variables
    ``< var``.
    """
    lowers: List[BoundExpression] = []
    uppers: List[BoundExpression] = []
    for ineq in inequalities:
        coeff = ineq.coefficients[var]
        if coeff == 0:
            continue
        for later in range(var + 1, ineq.n_vars):
            if ineq.coefficients[later] != 0:
                raise BoundsError(
                    f"inequality {ineq} still involves variable x{later} > x{var}"
                )
        # sum_{k<var} c_k x_k + coeff*x_var <= b
        rest = ineq.coefficients[:var]
        if coeff > 0:
            # x_var <= (b - rest) / coeff
            expr = BoundExpression(
                tuple(-c / coeff for c in rest), ineq.constant / coeff
            )
            uppers.append(expr)
        else:
            # x_var >= (b - rest) / coeff   (division by a negative flips)
            expr = BoundExpression(
                tuple(-c / coeff for c in rest), ineq.constant / coeff
            )
            lowers.append(expr)
    return lowers, uppers


def loop_bounds_from_inequalities(
    system: InequalitySystem,
) -> List[VariableBounds]:
    """Compute nested loop bounds for every variable of an inequality system.

    Variable ``0`` is the outermost loop.  The bounds of variable ``k`` only
    involve variables ``0 .. k-1``.  Raises :class:`BoundsError` if the system
    is detected to be infeasible during elimination.
    """
    n = system.n_vars
    current = _dedupe(list(system.inequalities))
    per_level: Dict[int, Tuple[List[BoundExpression], List[BoundExpression]]] = {}
    for var in range(n - 1, -1, -1):
        for ineq in current:
            if ineq.is_trivially_false():
                raise BoundsError("the loop bound system is infeasible (empty iteration space)")
        per_level[var] = bounds_for_variable(current, var)
        current = fourier_motzkin_eliminate(current, var)
    for ineq in current:
        if ineq.is_trivially_false():
            raise BoundsError("the loop bound system is infeasible (empty iteration space)")
    result = []
    for var in range(n):
        lowers, uppers = per_level[var]
        result.append(VariableBounds(variable=var, lowers=tuple(lowers), uppers=tuple(uppers)))
    return result
