"""Tests for repro.intlin.fourier_motzkin."""

import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.exceptions import BoundsError, ShapeError
from repro.intlin.fourier_motzkin import (
    BoundExpression,
    InequalitySystem,
    LinearInequality,
    bounds_for_variable,
    fourier_motzkin_eliminate,
    loop_bounds_from_inequalities,
)


def _box_system(bounds):
    """InequalitySystem for a rectangular box given [(lo, hi), ...]."""
    system = InequalitySystem(len(bounds))
    for var, (lo, hi) in enumerate(bounds):
        system.add_lower(var, lo)
        system.add_upper(var, hi)
    return system


class TestLinearInequality:
    def test_create_and_evaluate(self):
        ineq = LinearInequality.create([1, -2], 3)  # x0 - 2*x1 <= 3
        assert ineq.evaluate([3, 0])
        assert ineq.evaluate([3, 1])
        assert not ineq.evaluate([4, 0])

    def test_bounds_constructors(self):
        lower = LinearInequality.lower_bound(2, 0, -5)  # x0 >= -5
        upper = LinearInequality.upper_bound(2, 1, 7)   # x1 <= 7
        assert lower.evaluate([-5, 0])
        assert not lower.evaluate([-6, 0])
        assert upper.evaluate([0, 7])
        assert not upper.evaluate([0, 8])

    def test_trivial_predicates(self):
        assert LinearInequality.create([0, 0], 1).is_trivially_true()
        assert LinearInequality.create([0, 0], -1).is_trivially_false()
        assert not LinearInequality.create([1, 0], -1).is_trivially_false()

    def test_substitute_row_transform(self):
        # original constraint: i0 <= 4; transform j = i @ T with T = [[1,1],[1,0]]
        # inverse Tinv = [[0,1],[1,-1]]; i0 = j1 (second new var)
        ineq = LinearInequality.create([1, 0], 4)
        new = ineq.substitute_row_transform([[0, 1], [1, -1]])
        assert new.coefficients == (Fraction(0), Fraction(1))
        assert new.constant == 4


class TestElimination:
    def test_projection_of_triangle(self):
        # x0 >= 0, x1 >= 0, x0 + x1 <= 4 : projecting out x1 gives 0 <= x0 <= 4
        system = InequalitySystem(2)
        system.add_lower(0, 0)
        system.add_lower(1, 0)
        system.add(LinearInequality.create([1, 1], 4))
        remaining = fourier_motzkin_eliminate(list(system), 1)
        for ineq in remaining:
            assert ineq.coefficients[1] == 0
        # x0 = 4 must still be feasible, x0 = 5 must not
        assert all(ineq.evaluate([4, 0]) for ineq in remaining)
        assert not all(ineq.evaluate([5, 0]) for ineq in remaining)

    def test_projection_is_exact_for_box(self):
        system = _box_system([(-3, 3), (-2, 5)])
        remaining = fourier_motzkin_eliminate(list(system), 1)
        assert all(ineq.evaluate([x, 0]) for x in range(-3, 4) for ineq in remaining)
        assert not all(ineq.evaluate([-4, 0]) for ineq in remaining)
        assert not all(ineq.evaluate([4, 0]) for ineq in remaining)


class TestBoundsExtraction:
    def test_box_bounds(self):
        system = _box_system([(-3, 3), (-2, 5)])
        bounds = loop_bounds_from_inequalities(system)
        assert bounds[0].lower_value([]) == -3
        assert bounds[0].upper_value([]) == 3
        assert bounds[1].lower_value([0]) == -2
        assert bounds[1].upper_value([0]) == 5

    def test_triangle_bounds_depend_on_outer(self):
        # 0 <= x0 <= 4, 0 <= x1 <= x0
        system = InequalitySystem(2)
        system.add_lower(0, 0)
        system.add_upper(0, 4)
        system.add_lower(1, 0)
        system.add(LinearInequality.create([-1, 1], 0))  # x1 - x0 <= 0
        bounds = loop_bounds_from_inequalities(system)
        assert bounds[1].lower_value([2]) == 0
        assert bounds[1].upper_value([2]) == 2
        assert bounds[1].upper_value([0]) == 0

    def test_scanning_matches_brute_force(self):
        # skewed region: -5 <= x0 <= 5, -5 <= x0 + x1 <= 5
        system = InequalitySystem(2)
        system.add_lower(0, -5)
        system.add_upper(0, 5)
        system.add(LinearInequality.create([1, 1], 5))
        system.add(LinearInequality.create([-1, -1], 5))
        bounds = loop_bounds_from_inequalities(system)
        scanned = set()
        for x0 in range(bounds[0].lower_value([]), bounds[0].upper_value([]) + 1):
            lo = bounds[1].lower_value([x0])
            hi = bounds[1].upper_value([x0])
            for x1 in range(lo, hi + 1):
                scanned.add((x0, x1))
        brute = {
            (x0, x1)
            for x0 in range(-10, 11)
            for x1 in range(-20, 21)
            if -5 <= x0 <= 5 and -5 <= x0 + x1 <= 5
        }
        assert scanned == brute

    def test_infeasible_system_raises(self):
        system = InequalitySystem(1)
        system.add_lower(0, 5)
        system.add_upper(0, 3)
        with pytest.raises(BoundsError):
            loop_bounds_from_inequalities(system)

    def test_bounds_for_variable_rejects_uneliminated(self):
        ineqs = [LinearInequality.create([1, 1], 4)]
        with pytest.raises(BoundsError):
            bounds_for_variable(ineqs, 0)


class TestBoundExpression:
    def test_evaluate_and_rounding(self):
        expr = BoundExpression((Fraction(1, 2),), Fraction(3, 2))
        assert expr.evaluate_exact([3]) == Fraction(3)
        assert expr.evaluate_floor([2]) == 2
        assert expr.evaluate_ceil([2]) == 3

    def test_as_source_integral(self):
        expr = BoundExpression((Fraction(2),), Fraction(-1))
        source = expr.as_source(["j1"], "floor")
        assert eval(source, {"j1": 3}) == 5

    def test_as_source_fractional_uses_rounding(self):
        import math

        expr = BoundExpression((Fraction(1, 2),), Fraction(0))
        source = expr.as_source(["j1"], "ceil")
        assert "ceil" in source
        assert eval(source, {"math": math, "j1": 3}) == 2


_RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.integers(-50, 50).map(Fraction),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**12),
)


class TestIntegerEvaluation:
    """The integer numerator/denominator form rounds exactly like the rationals."""

    @seed(20000821)
    @settings(max_examples=300, deadline=None)
    @given(
        coefficients=st.lists(_RATIONALS, max_size=4),
        constant=_RATIONALS,
        # Independent lengths: prefixes shorter (and longer) than the
        # coefficient vector read only the leading values, like zip.
        values=st.lists(st.integers(-10**9, 10**9), max_size=5),
    )
    def test_floor_and_ceil_match_the_exact_value(self, coefficients, constant, values):
        expr = BoundExpression(tuple(coefficients), constant)
        assert expr.denominator > 0
        assert Fraction(expr.numerator_constant, expr.denominator) == constant
        assert [Fraction(n, expr.denominator) for n in expr.numerators] == coefficients
        exact = expr.evaluate_exact(values)
        assert expr.evaluate_floor(values) == math.floor(exact)
        assert expr.evaluate_ceil(values) == math.ceil(exact)

    def test_non_int_inputs_round_the_exact_value(self):
        expr = BoundExpression((Fraction(1, 2), Fraction(-1, 3)), Fraction(1, 6))
        # 1/2 * 5/2 - 1/3 * 1 + 1/6 = 13/12
        values = [Fraction(5, 2), 1]
        assert expr.evaluate_floor(values) == 1
        assert expr.evaluate_ceil(values) == 2
        assert expr.evaluate_floor([2.5, 1]) == 1
        with pytest.raises(ShapeError):
            expr.evaluate_floor([True, 1])

    def test_equality_and_hash_follow_the_rational_value(self):
        half = BoundExpression((Fraction(1, 2),), Fraction(3, 2))
        assert half == BoundExpression((Fraction(2, 4),), Fraction(6, 4))
        assert hash(half) == hash(BoundExpression((Fraction(2, 4),), Fraction(6, 4)))
        assert half != BoundExpression((Fraction(1, 2), 0), Fraction(3, 2))
        assert repr(half) == (
            "BoundExpression(coefficients=(Fraction(1, 2),), constant=Fraction(3, 2))"
        )

    def test_pickle_carries_the_rational_form_only(self):
        expr = BoundExpression((Fraction(3, 4), Fraction(0)), Fraction(-5, 6))
        clone = pickle.loads(pickle.dumps(expr))
        assert clone == expr
        assert (clone.numerators, clone.numerator_constant, clone.denominator) == (
            (9, 0), -10, 12
        )
        assert set(expr.__getstate__()) == {"coefficients", "constant"}


# NumPy integers are integers to Fourier–Motzkin, as they are to check_int
# and every intlin.matrix function; bool is not.
_INTEGER_TYPES = [int, np.int64, np.int32]


def _array(kind, values):
    """``values`` as a list of ints, or as a NumPy array of the NumPy ``kind``."""
    return list(values) if kind is int else np.array(values, dtype=kind)


@pytest.mark.parametrize("kind", _INTEGER_TYPES, ids=lambda kind: kind.__name__)
class TestNumpyIntegerInputs:
    def test_linear_inequality_create(self, kind):
        ineq = LinearInequality.create([kind(1), kind(-2)], kind(3))
        assert ineq == LinearInequality.create([1, -2], 3)
        assert all(type(c) is int for c in ineq.coefficients + (ineq.constant,))
        assert ineq.evaluate([kind(3), kind(0)]) and not ineq.evaluate([kind(4), kind(0)])

    def test_system_bounds(self, kind):
        system = InequalitySystem(2)
        system.add_lower(0, kind(0))
        system.add_upper(0, kind(5))
        system.add_lower(1, kind(-1))
        system.add(LinearInequality.create([kind(-1), kind(1)], kind(2)))  # x1 <= x0 + 2
        reference = InequalitySystem(2)
        reference.add_lower(0, 0)
        reference.add_upper(0, 5)
        reference.add_lower(1, -1)
        reference.add(LinearInequality.create([-1, 1], 2))
        assert loop_bounds_from_inequalities(system) == loop_bounds_from_inequalities(reference)
        inverse = [_array(kind, row) for row in ([1, 0], [1, 1])]
        assert list(system.transformed(inverse)) == list(
            reference.transformed([[1, 0], [1, 1]])
        )

    def test_bound_expression(self, kind):
        expr = BoundExpression((kind(1),), kind(0))
        assert expr == BoundExpression((1,), 0)
        assert (expr.numerators, expr.numerator_constant, expr.denominator) == ((1,), 0, 1)
        half = BoundExpression((Fraction(1, 2),), Fraction(1, 2))
        values = _array(kind, [4])  # (4 + 1) / 2
        assert half.evaluate_floor(values) == half.evaluate_floor([4]) == 2
        assert half.evaluate_ceil(values) == half.evaluate_ceil([4]) == 3
        assert half.evaluate_exact(values) == Fraction(5, 2)

    def test_variable_bounds(self, kind):
        system = InequalitySystem(2)
        system.add_lower(0, 0)
        system.add_upper(0, 4)
        system.add_lower(1, 0)
        system.add(LinearInequality.create([-1, 2], 3))  # 2*x1 <= x0 + 3
        bounds = loop_bounds_from_inequalities(system)[1]
        for x0 in range(5):
            values = _array(kind, [x0])
            assert bounds.upper_value(values) == bounds.upper_value([x0]) == (x0 + 3) // 2
            assert bounds.lower_value(values) == bounds.lower_value([x0]) == 0


class TestBooleanInputsRaise:
    def test_linear_inequality(self):
        with pytest.raises(ShapeError):
            LinearInequality.create([True], 3)
        with pytest.raises(ShapeError):
            InequalitySystem(1).add_upper(0, np.bool_(True))

    def test_bound_expression(self):
        with pytest.raises(ShapeError):
            BoundExpression((True,), 0)
        with pytest.raises(ShapeError):
            BoundExpression((1,), 0).evaluate_floor(np.array([True]))
