"""Integer Fourier–Motzkin elimination against a ``Fraction`` reference.

The reference below is the elimination as it ran over ``Fraction`` s: every
coefficient a ``Fraction``, each bound term divided by the bounded
variable's coefficient, and the unimodular inverse by Gauss-Jordan over the
rationals.  Over seeded systems — boxes and triangles of depth 1-4, the
same nests skewed by a random unimodular ``T`` the way
``TransformedLoopNest`` does, and rational systems built through
``LinearInequality.create`` — the integer path must give the same bound
lists, in rational and integer form, and raise ``BoundsError`` on the same
infeasible systems.  The integer inverse must invert products of
elementary matrices and refuse matrices whose determinant is not ±1.

The sweep runs ``FME_SWEEP_SEEDS`` seeds (25 by default; CI runs a large
sweep in its own job).
"""

import math
import os
import random
from fractions import Fraction

import pytest

from repro.exceptions import BoundsError, NotUnimodularError
from repro.intlin.fourier_motzkin import (
    InequalitySystem,
    LinearInequality,
    fourier_motzkin_eliminate,
    loop_bounds_from_inequalities,
)
from repro.intlin.matrix import determinant, identity_matrix, mat_mul, unimodular_inverse

SWEEP_SEEDS = int(os.environ.get("FME_SWEEP_SEEDS", "25"))


# --------------------------------------------------------------------------- #
# the Fraction reference
# --------------------------------------------------------------------------- #
def _reference_inverse(matrix):
    """Gauss-Jordan over ``Fraction`` s; the result must come out integral."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot_row = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot_row] = a[pivot_row], a[col]
        inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        pivot = a[col][col]
        a[col] = [x / pivot for x in a[col]]
        inv[col] = [x / pivot for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - factor * y for x, y in zip(inv[r], inv[col])]
    assert all(x.denominator == 1 for row in inv for x in row)
    return [[int(x) for x in row] for row in inv]


def _reference_substitute(rows, inverse):
    """``sum_k c_k i_k <= b`` with ``i = j @ inverse``, term by term in ``Fraction`` s."""
    return [
        (tuple(sum(Fraction(t) * c for t, c in zip(weights, coeffs)) for weights in inverse), b)
        for coeffs, b in rows
    ]


def _reference_dedupe(rows):
    seen, out = set(), []
    for coeffs, constant in rows:
        if all(c == 0 for c in coeffs) and constant >= 0:
            continue
        if (coeffs, constant) not in seen:
            seen.add((coeffs, constant))
            out.append((coeffs, constant))
    return out


def _reference_eliminate(rows, var):
    combined = [row for row in rows if row[0][var] == 0]
    uppers = [row for row in rows if row[0][var] > 0]
    lowers = [row for row in rows if row[0][var] < 0]
    for up_coeffs, up_constant in uppers:
        a = up_coeffs[var]
        for low_coeffs, low_constant in lowers:
            b = -low_coeffs[var]
            coeffs = tuple(b * cu + a * cl for cu, cl in zip(up_coeffs, low_coeffs))
            combined.append((coeffs, b * up_constant + a * low_constant))
    return _reference_dedupe(combined)


def _reference_bounds(rows, n_vars):
    """Per level ``(lowers, uppers)`` of ``(coefficients, constant)`` Fractions."""

    def check_feasible(current):
        if any(all(c == 0 for c in coeffs) and constant < 0 for coeffs, constant in current):
            raise BoundsError("infeasible")

    current = _reference_dedupe(rows)
    levels = [None] * n_vars
    for var in range(n_vars - 1, -1, -1):
        check_feasible(current)
        lowers, uppers = [], []
        for coeffs, constant in current:
            a = coeffs[var]
            if a != 0:
                expr = (tuple(-c / a for c in coeffs[:var]), constant / a)
                (uppers if a > 0 else lowers).append(expr)
        levels[var] = (lowers, uppers)
        current = _reference_eliminate(current, var)
    check_feasible(current)
    return levels


# --------------------------------------------------------------------------- #
# seeded systems
# --------------------------------------------------------------------------- #
def _nest_rows(rng, depth, triangular):
    """Integer rows of ``lower_k(x_<k) <= x_k <= upper_k(x_<k)``, as LoopNest builds them."""
    rows = []
    for level in range(depth):
        for sign in (-1, 1):  # -1: lower bound, +1: upper bound
            terms = [rng.randint(-2, 2) if triangular else 0 for _ in range(level)]
            offset = rng.randint(-4, 3) if sign < 0 else rng.randint(-1, 8)
            # sign * (x_level - sum terms*x - offset) <= 0
            coeffs = [-sign * t for t in terms] + [sign] + [0] * (depth - level - 1)
            rows.append((coeffs, sign * offset))
    return rows


def _random_unimodular(rng, n, steps=None):
    """A product of elementary integer matrices (row swaps, negations, shears)."""
    matrix = identity_matrix(n)
    for _ in range(rng.randint(0, 6) if steps is None else steps):
        op = rng.choice(("swap", "negate", "shear")) if n > 1 else "negate"
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if op == "swap":
            matrix[i], matrix[j] = matrix[j], matrix[i]
        elif op == "negate":
            matrix[i] = [-x for x in matrix[i]]
        else:
            factor = rng.choice((-3, -2, -1, 1, 2, 3))
            matrix[i] = [x + factor * y for x, y in zip(matrix[i], matrix[j])]
    return matrix


def _rational_rows(rng, depth):
    """Rows of small random ``Fraction`` s, some with zero coefficients."""

    def value():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    return [
        ([value() if rng.random() < 0.7 else 0 for _ in range(depth)], value() * 3)
        for _ in range(rng.randint(1, depth + 3))
    ]


def _systems(seed):
    """``(label, rows, unimodular transform or None)`` for one seed."""
    rng = random.Random(seed)
    for depth in range(1, 5):
        for triangular in (False, True):
            rows = _nest_rows(rng, depth, triangular)
            label = f"{'triangle' if triangular else 'box'}-{depth}"
            yield label, rows, None
            yield f"{label}-skewed", rows, _random_unimodular(rng, depth)
        yield f"rational-{depth}", _rational_rows(rng, depth), None


# --------------------------------------------------------------------------- #
# the checks
# --------------------------------------------------------------------------- #
def _integer_form(coefficients, constant):
    """The reference bound's ``(numerators, numerator_constant, denominator)``."""
    denominator = math.lcm(constant.denominator, *(c.denominator for c in coefficients))
    return (
        tuple(int(c * denominator) for c in coefficients),
        int(constant * denominator),
        denominator,
    )


@pytest.mark.parametrize("seed", range(SWEEP_SEEDS))
def test_bounds_match_the_fraction_reference(seed):
    for label, rows, transform in _systems(seed):
        depth = len(rows[0][0])
        system = InequalitySystem(depth)
        for coeffs, constant in rows:
            system.add(LinearInequality.create(coeffs, constant))
        reference_rows = [(tuple(map(Fraction, c)), Fraction(k)) for c, k in rows]
        if transform is not None:
            # i = j @ T^-1, as TransformedLoopNest substitutes.
            system = system.transformed(unimodular_inverse(transform))
            reference_rows = _reference_substitute(reference_rows, _reference_inverse(transform))
        integral = not label.startswith("rational")
        if integral:
            # Substitution and every elimination step stay on Python ints.
            current = list(system)
            for var in range(depth - 1, -1, -1):
                for ineq in current:
                    assert all(type(c) is int for c in ineq.coefficients + (ineq.constant,))
                current = fourier_motzkin_eliminate(current, var)
        try:
            expected = _reference_bounds(reference_rows, depth)
        except BoundsError:
            with pytest.raises(BoundsError):
                loop_bounds_from_inequalities(system)
            continue
        bounds = loop_bounds_from_inequalities(system)
        assert [b.variable for b in bounds] == list(range(depth))
        for level, (lowers, uppers) in enumerate(expected):
            for got, want in ((bounds[level].lowers, lowers), (bounds[level].uppers, uppers)):
                assert [(e.coefficients, e.constant) for e in got] == want, (label, level)
                assert all(
                    type(c) is Fraction for e in got for c in e.coefficients + (e.constant,)
                )
                assert [(e.numerators, e.numerator_constant, e.denominator) for e in got] == [
                    _integer_form(*bound) for bound in want
                ], (label, level)
                if integral:
                    for e in got:
                        row = e.numerators + (e.numerator_constant, e.denominator)
                        assert all(type(v) is int for v in row)


@pytest.mark.parametrize("seed", range(SWEEP_SEEDS))
def test_unimodular_inverse(seed):
    rng = random.Random(10_000 + seed)
    for n in range(1, 5):
        matrix = _random_unimodular(rng, n, steps=rng.randint(0, 12))
        inverse = unimodular_inverse(matrix)
        assert mat_mul(inverse, matrix) == identity_matrix(n)
        assert mat_mul(matrix, inverse) == identity_matrix(n)
        assert inverse == _reference_inverse(matrix)
        assert all(type(v) is int for row in inverse for v in row)
        # Scaling one row scales the determinant: 0, or at least 2 in size.
        scaled = [row[:] for row in matrix]
        row, factor = rng.randrange(n), rng.choice((0, 2, -2, 3))
        scaled[row] = [factor * x for x in scaled[row]]
        det = determinant(scaled)
        assert abs(det) != 1
        with pytest.raises(NotUnimodularError, match=f"determinant {det},"):
            unimodular_inverse(scaled)
        # Small random matrices: the inverse exists exactly when det is ±1.
        random_matrix = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if abs(determinant(random_matrix)) == 1:
            assert mat_mul(unimodular_inverse(random_matrix), random_matrix) == identity_matrix(n)
        else:
            with pytest.raises(NotUnimodularError):
                unimodular_inverse(random_matrix)
