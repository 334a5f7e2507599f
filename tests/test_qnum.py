"""Exact arithmetic in Q(sqrt2, sqrt3)."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcurv.rootsys import Q0, Q1, QNum, SQRT2, SQRT3, SQRT6


def test_radical_products():
    assert SQRT2 * SQRT2 == QNum.of(2)
    assert SQRT3 * SQRT3 == QNum.of(3)
    assert SQRT6 * SQRT6 == QNum.of(6)
    assert SQRT2 * SQRT3 == SQRT6
    assert SQRT2 * SQRT6 == QNum.of(2) * SQRT3
    assert SQRT3 * SQRT6 == QNum.of(3) * SQRT2


def test_inverse_simple():
    x = QNum(Fraction(1), Fraction(1))  # 1 + sqrt2
    assert x * x.inverse() == Q1
    assert (Q1 / x) * x == Q1
    with pytest.raises(ZeroDivisionError):
        Q0.inverse()


def test_float_embedding_monotone():
    vals = [Q0, QNum(Fraction(1, 3)), Q1, SQRT2, SQRT3, QNum.of(2), SQRT6]
    floats = [float(v) for v in vals]
    assert floats == sorted(floats)
    for a, b in zip(vals, vals[1:]):
        assert a < b


def test_sign_near_collisions():
    # sqrt2 + sqrt3 vs sqrt6 differ; exact sign must resolve it
    x = SQRT2 + SQRT3 - SQRT6
    assert x.sign() == 1
    assert (x - x).sign() == 0


def test_sign_is_exact_below_float_resolution():
    # (3363 - 2378 sqrt2)^4 is about +4.9e-16, but its float evaluation
    # cancels to -0.125
    u = QNum(3363, -2378)
    x = u * u * u * u
    assert float(x) < 0
    assert x.sign() == 1
    assert (-x).sign() == -1
    assert Q0 < x


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)
qnums = st.builds(QNum, rationals, rationals, rationals, rationals)
# half of the coefficients zero, so rational and single-surd operands occur
sparse = st.one_of(st.just(Fraction(0)), rationals)
sparse_qnums = st.builds(QNum, rationals, sparse, sparse, sparse)


def _coeffs(x):
    return (x.a, x.b, x.c, x.d)


def _product(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
            a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2)


@settings(max_examples=300, deadline=None)
@given(sparse_qnums, sparse_qnums)
def test_fast_paths_match_general_formulas(x, y):
    p, q = _coeffs(x), _coeffs(y)
    assert _coeffs(x * y) == _product(p, q)
    assert _coeffs(x + y) == tuple(s + t for s, t in zip(p, q))
    assert _coeffs(x - y) == tuple(s - t for s, t in zip(p, q))
    assert _coeffs(-x) == tuple(-s for s in p)
    assert x.is_zero() == (p == (0, 0, 0, 0))
    for z in (x, y, x * y, x + y, x - y, -x):
        assert hash(z) == hash(_coeffs(z))
        assert z == QNum(*_coeffs(z))
    if not x.is_zero():
        assert x * x.inverse() == Q1


def _mp_value(x):
    r2, r3 = mpmath.sqrt(2), mpmath.sqrt(3)
    return (mpmath.mpf(x.a.numerator) / x.a.denominator
            + mpmath.mpf(x.b.numerator) / x.b.denominator * r2
            + mpmath.mpf(x.c.numerator) / x.c.denominator * r3
            + mpmath.mpf(x.d.numerator) / x.d.denominator * r2 * r3)


def _unit(i, j, k, s2, s3, s6):
    """(1 +- sqrt2)^i (2 +- sqrt3)^j (5 +- 2 sqrt6)^k: a unit whose
    coefficients grow like its conjugates while the value may be tiny."""
    out = Q1
    for base, n in ((QNum(1, s2), i), (QNum(2, 0, s3), j), (QNum(5, 0, 0, 2 * s6), k)):
        for _ in range(n):
            out = out * base
    return out


exponents = st.integers(min_value=0, max_value=40)
signs = st.sampled_from((1, -1))


@settings(max_examples=200, deadline=None)
@given(exponents, exponents, exponents, signs, signs, signs,
       exponents, exponents, exponents, signs, signs, signs, signs)
def test_sign_matches_high_precision_oracle(i, j, k, s2, s3, s6,
                                            i2, j2, k2, t2, t3, t6, flip):
    # the difference of two units of large height: an element far below
    # float resolution relative to its coefficients
    x = _unit(i, j, k, s2, s3, s6) - QNum.of(flip) * _unit(i2, j2, k2, t2, t3, t6)
    with mpmath.workdps(400):
        want = mpmath.sign(_mp_value(x))
    assert x.sign() == int(want)


@settings(max_examples=150, deadline=None)
@given(qnums, qnums, qnums)
def test_mul_associative(x, y, z):
    assert (x * y) * z == x * (y * z)


@settings(max_examples=150, deadline=None)
@given(qnums, qnums, qnums)
def test_distributive(x, y, z):
    assert x * (y + z) == x * y + x * z


@settings(max_examples=150, deadline=None)
@given(qnums)
def test_inverse_exact(x):
    if x.is_zero():
        return
    assert x * x.inverse() == Q1


def test_immutable():
    x = QNum(Fraction(1), Fraction(2))
    with pytest.raises(AttributeError):
        x.a = Fraction(3)
    with pytest.raises(AttributeError):
        x.e = 1
    assert x == QNum(1, 2)


def test_json_roundtrip():
    x = QNum(Fraction(3, 7), Fraction(-1, 2), Fraction(5), Fraction(0))
    assert QNum.from_json(x.to_json()) == x
