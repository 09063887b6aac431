"""Fourier–Motzkin elimination and loop-bound extraction.

After a unimodular transformation the new loop bounds are obtained by
rewriting the original bound constraints in terms of the new indices and
projecting with Fourier–Motzkin elimination, exactly as the paper does for
the example of Section 4.1 ("The loop limits of the transformed loop are
found by using Fourier-Motzkin elimination").

Elimination is exact and, on the systems of loop nests, runs on Python ints:
a nest's constraints have integer coefficients, substituting ``i = j @
T^{-1}`` with the integer inverse of a unimodular ``T`` keeps them integral,
and combining an upper with a lower row as ``b*up + a*low`` never divides.
(A row built from :class:`fractions.Fraction` values through
:meth:`LinearInequality.create` is combined by the same rule and stays
exact.)  Each :class:`BoundExpression` is built from its row in integer
form: numerators over one positive denominator ``d``, reduced by their gcd,
so ``d`` is the lcm of the reduced denominators of the rational bound.  On
integer prefixes a floor bound is then ``num // d`` and a ceiling bound
``-((-num) // d)`` — exactly the floor and ceiling of the rational value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.exceptions import BoundsError, ShapeError
from repro.utils.validation import as_int_table, check_int, trusted_record

__all__ = [
    "LinearInequality",
    "InequalitySystem",
    "fourier_motzkin_eliminate",
    "bounds_for_variable",
    "loop_bounds_from_inequalities",
    "BoundExpression",
    "VariableBounds",
]


#: An exact coefficient: an ``int``, or a ``Fraction`` on a rational row.
Rational = Union[int, Fraction]


def _exact(value) -> Rational:
    """``value`` as an exact number: an ``int`` if integral, else a ``Fraction``.

    Integers are taken by :func:`~repro.utils.validation.check_int`'s rule
    (NumPy integers and integral floats yes, ``bool`` no); any other float
    is rounded to the nearest fraction with a denominator up to ``10**12``.
    """
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, float) and not value.is_integer():
        return Fraction(value).limit_denominator(10**12)
    return check_int(value, "value")


@dataclass(frozen=True)
class LinearInequality:
    """The inequality ``sum(coefficients[k] * x[k]) <= constant``."""

    coefficients: Tuple[Rational, ...]
    constant: Rational

    @classmethod
    def create(cls, coefficients: Sequence, constant) -> "LinearInequality":
        return cls(tuple(map(_exact, coefficients)), _exact(constant))

    @classmethod
    def lower_bound(cls, n_vars: int, var: int, bound) -> "LinearInequality":
        """``x[var] >= bound``  rewritten as ``-x[var] <= -bound``."""
        coeffs = [0] * n_vars
        coeffs[var] = -1
        return cls(tuple(coeffs), -_exact(bound))

    @classmethod
    def upper_bound(cls, n_vars: int, var: int, bound) -> "LinearInequality":
        """``x[var] <= bound``."""
        coeffs = [0] * n_vars
        coeffs[var] = 1
        return cls(tuple(coeffs), _exact(bound))

    @property
    def n_vars(self) -> int:
        return len(self.coefficients)

    def involves(self, var: int) -> bool:
        return self.coefficients[var] != 0

    def is_trivially_true(self) -> bool:
        return not any(self.coefficients) and self.constant >= 0

    def is_trivially_false(self) -> bool:
        return not any(self.coefficients) and self.constant < 0

    def substitute_row_transform(self, inverse: Sequence[Sequence[int]]) -> "LinearInequality":
        """Rewrite a constraint on old indices ``i`` in terms of new indices ``j``.

        The paper's convention is ``j = i @ T`` (row vectors), hence
        ``i = j @ T^{-1}``.  If this inequality is ``sum_k c_k i_k <= b`` then
        in terms of ``j`` it becomes ``sum_l (sum_k Tinv[l][k] c_k) j_l <= b``.
        """
        return self._substituted(_inverse_table(inverse, self.n_vars))

    def _substituted(self, inverse: List[List[int]]) -> "LinearInequality":
        """:meth:`substitute_row_transform` on an already validated inverse."""
        coeffs = self.coefficients
        coefficients = tuple([sum(map(mul, row, coeffs)) for row in inverse])
        return trusted_record(LinearInequality, coefficients=coefficients, constant=self.constant)

    def evaluate(self, values: Sequence) -> bool:
        """Check whether the inequality holds for concrete values."""
        total = sum(c * _exact(v) for c, v in zip(self.coefficients, values))
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
        return self._transformed(_inverse_table(inverse, self.n_vars))

    def _transformed(self, table: List[List[int]]) -> "InequalitySystem":
        """:meth:`transformed` for an ``n_vars x n_vars`` table of ints."""
        return InequalitySystem(
            self.n_vars, (ineq._substituted(table) for ineq in self.inequalities)
        )

    def __len__(self) -> int:
        return len(self.inequalities)

    def __iter__(self):
        return iter(self.inequalities)

    def __str__(self) -> str:
        return "\n".join(str(ineq) for ineq in self.inequalities)


def _inverse_table(inverse: Sequence[Sequence[int]], n_vars: int) -> List[List[int]]:
    """``inverse`` validated as an ``n_vars x n_vars`` table of ints."""
    table = as_int_table(inverse, "inverse")
    if len(table) != n_vars or (table and len(table[0]) != n_vars):
        raise ShapeError("inverse transform has incompatible shape")
    return table


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
            coeffs = tuple([b * u + a * c for u, c in zip(up.coefficients, low.coefficients)])
            rhs = b * up.constant + a * low.constant
            combined.append(trusted_record(LinearInequality, coefficients=coeffs, constant=rhs))
    return _dedupe(combined)


@dataclass(frozen=True, init=False, repr=False)
class BoundExpression:
    """An affine bound ``constant + sum coefficients[k]*x[k]`` (rationals).

    ``coefficients`` only involves variables with index smaller than the
    bounded variable; a *lower* bound is evaluated with ceiling, an *upper*
    bound with floor (integer loop indices).  The bound is stored in integer
    form ``(numerator_constant + sum numerators[k]*x[k]) / denominator``
    with a positive ``denominator`` and no common factor, so
    ``denominator`` is the lcm of the reduced denominators.  The rounded
    evaluations use that form on integer inputs; ``coefficients`` and
    ``constant`` derive the rational one:

        >>> expr = BoundExpression((Fraction(1, 2), Fraction(-2, 3)), Fraction(1, 6))
        >>> expr.numerators, expr.numerator_constant, expr.denominator
        ((3, -4), 1, 6)
        >>> expr.coefficients, expr.constant
        ((Fraction(1, 2), Fraction(-2, 3)), Fraction(1, 6))
        >>> expr.evaluate_exact([2, 1]), expr.evaluate_floor([2, 1]), expr.evaluate_ceil([2, 1])
        (Fraction(1, 2), 0, 1)
    """

    numerators: Tuple[int, ...]
    numerator_constant: int
    denominator: int

    def __init__(self, coefficients: Sequence, constant) -> None:
        self._store(tuple(map(_exact, coefficients)), _exact(constant), 1)

    @classmethod
    def _from_row(cls, row: Sequence[Rational], constant: Rational) -> "BoundExpression":
        """The bound on the last variable of ``sum(row[k] * x[k]) <= constant``.

        With ``a = row[-1]`` that is ``x[-1] <= (constant - sum(row[k] *
        x[k] for the others)) / a``, or ``>=`` when ``a`` is negative.
        """
        expr = cls.__new__(cls)
        expr._store([-c for c in row[:-1]], constant, row[-1])
        return expr

    def _store(self, numerators, numerator_constant, denominator) -> None:
        """Set the integer form of ``(numerator_constant + sum numerators[k]*x[k]) / denominator``.

        The entries are ints, or on a rational row also Fractions; such a
        row is first scaled by the lcm of their denominators.  The row is
        then divided by its gcd, signed so that the denominator is positive.
        """
        row = (denominator, numerator_constant, *numerators)
        if {*map(type, row)} != {int}:
            scale = math.lcm(*(v.denominator for v in row))
            row = tuple(v.numerator * (scale // v.denominator) for v in row)
        divisor = math.gcd(*row)
        if row[0] < 0:
            divisor = -divisor
        if divisor != 1:
            row = tuple([v // divisor for v in row])
        # The dataclass is frozen: its fields are set through the instance dict.
        vars(self).update(denominator=row[0], numerator_constant=row[1], numerators=row[2:])

    @property
    def coefficients(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(n, self.denominator) for n in self.numerators)

    @property
    def constant(self) -> Fraction:
        return Fraction(self.numerator_constant, self.denominator)

    # Only the rational form is pickled (plans ship these bounds to workers
    # and disk caches); the integer form is derived again on load.
    def __getstate__(self):
        return {"coefficients": self.coefficients, "constant": self.constant}

    def __setstate__(self, state) -> None:
        self.__init__(state["coefficients"], state["constant"])

    def __repr__(self) -> str:
        return f"BoundExpression(coefficients={self.coefficients!r}, constant={self.constant!r})"

    def evaluate_exact(self, values: Sequence) -> Fraction:
        total = self.numerator_constant
        for c, v in zip(self.numerators, values):
            total += c * _exact(v)
        return Fraction(total, self.denominator)

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
        denominator = self.denominator
        terms = []
        if self.numerator_constant != 0 or not any(self.numerators):
            terms.append(_ratio_source(self.numerator_constant, denominator))
        for c, name in zip(self.numerators, names):
            if c == 0:
                continue
            if c == denominator:
                terms.append(name)
            else:
                terms.append(f"{_ratio_source(c, denominator)}*{name}")
        expr = " + ".join(terms)
        if denominator == 1:
            return expr if len(terms) == 1 else f"({expr})"
        func = "math.floor" if mode == "floor" else "math.ceil"
        return f"{func}({expr})"

    def __str__(self) -> str:
        names = [f"x{k}" for k in range(len(self.numerators))]
        return self.as_source(names, "floor")


def _ratio_source(numerator: int, denominator: int) -> str:
    """``numerator / denominator`` in lowest terms, as Python source."""
    divisor = math.gcd(numerator, denominator)
    if divisor == denominator:
        return str(numerator // denominator)
    return f"({numerator // divisor}/{denominator // divisor})"


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
        if any(ineq.coefficients[var + 1 :]):
            later = next(k for k in range(var + 1, ineq.n_vars) if ineq.coefficients[k])
            raise BoundsError(f"inequality {ineq} still involves variable x{later} > x{var}")
        # sum_{k<var} c_k x_k + coeff*x_var <= b bounds x_var from above
        # when coeff > 0 and (dividing by a negative flips) from below.
        expr = BoundExpression._from_row(ineq.coefficients[: var + 1], ineq.constant)
        (uppers if coeff > 0 else lowers).append(expr)
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
        if any(ineq.is_trivially_false() for ineq in current):
            raise BoundsError("the loop bound system is infeasible (empty iteration space)")
        per_level[var] = bounds_for_variable(current, var)
        current = fourier_motzkin_eliminate(current, var)
    if any(ineq.is_trivially_false() for ineq in current):
        raise BoundsError("the loop bound system is infeasible (empty iteration space)")
    result = []
    for var in range(n):
        lowers, uppers = per_level[var]
        result.append(
            trusted_record(VariableBounds, variable=var, lowers=tuple(lowers), uppers=tuple(uppers))
        )
    return result
