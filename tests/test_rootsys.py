"""Root systems: cardinalities, membership, reflections and sum status."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagcurv import rootsys
from flagcurv.rootsys import (
    AlgebraSpec,
    QNum,
    angle,
    build_root_system,
    exact_inverse,
    exact_nullspace,
    is_root,
    lift_root,
    root,
    root_sum_status,
    solve_exact,
    t_cap_h_projection,
    tvec_dot,
    tvec_from_parts,
    tvec_to_json,
    weyl_reflect,
)

CARDINALITIES = [
    ("A", 1, 2), ("A", 3, 12), ("A", 7, 56),
    ("B", 2, 8), ("B", 3, 18), ("B", 5, 50),
    ("C", 3, 18), ("C", 5, 50),
    ("D", 4, 24), ("D", 6, 60),
    ("E6", 6, 72), ("E7", 7, 126), ("E8", 8, 240),
    ("F4", 4, 48), ("G2", 2, 12),
]


@pytest.mark.parametrize("family,rank,count", CARDINALITIES)
def test_cardinality_and_negation(family, rank, count):
    rs = build_root_system(family, rank)
    assert len(rs) == count
    for r in rs.roots:
        assert -r in rs


def test_invalid_systems_rejected():
    for family, rank in [("B", 1), ("C", 2), ("D", 3), ("E", 5), ("F", 3), ("X", 2)]:
        with pytest.raises(ValueError):
            build_root_system(family, rank)


def _coords(v):
    """The exact coordinates of a root, read back from its JSON."""
    return [QNum.from_json(x) for x in tvec_to_json(v)["factors"][0]]


def test_a3_roots_are_coordinate_differences():
    rs = build_root_system("A", 3)
    for r in rs.roots:
        nz = [float(c) for c in _coords(r) if not c.is_zero()]
        assert sorted(nz) == [-1.0, 1.0]
    assert root("A", 3, 1, 0, 0, -1) in rs
    assert sum(float(c) for c in _coords(rs.roots[0])) == 0.0


def test_g2_contains_short_vertical_roots():
    rs = build_root_system("G2", 2)
    assert root("G2", 2, 0, 1) in rs and root("G2", 2, 0, -1) in rs


def test_f4_contains_half_sums():
    rs = build_root_system("F4", 4)
    h = Fraction(1, 2)
    assert root("F4", 4, h, h, h, h) in rs
    assert root("F4", 4, h, -h, h, -h) in rs


def test_is_root_examples():
    b3 = build_root_system("B", 3)
    assert is_root(b3, root("B", 3, 1, 1, 0))
    assert not is_root(b3, root("B", 3, 2, 0, 0))
    c3 = build_root_system("C", 3)
    assert is_root(c3, root("C", 3, 2, 0, 0))
    with pytest.raises(ValueError):
        is_root(b3, root("B", 2, 1, 0))


def test_angle_examples():
    assert angle(root("A", 3, 1, -1, 0, 0), root("A", 3, 0, 1, -1, 0)) == "2pi/3"
    assert angle(root("B", 2, 1, 1), root("B", 2, -1, 1)) == "pi/2"
    g2 = build_root_system("G2", 2)
    long_root = root("G2", 2, QNum(0, 0, 1), 0)                      # (sqrt3, 0)
    short_root = root("G2", 2, QNum(0, 0, Fraction(1, 2)), Fraction(1, 2))
    assert is_root(g2, long_root) and is_root(g2, short_root)
    assert angle(long_root, short_root) == "pi/6"
    with pytest.raises(ValueError):
        angle(root("B", 2, 0, 0), root("B", 2, 1, 0))


def test_weyl_reflect_examples():
    a3 = build_root_system("A", 3)
    e1 = root("A", 3, 1, 0, 0, 0)
    assert weyl_reflect(a3, root("A", 3, 1, -1, 0, 0), e1) == root("A", 3, 0, 1, 0, 0)
    alpha = root("A", 3, 1, -1, 0, 0)
    assert weyl_reflect(a3, alpha, alpha) == -alpha
    b3 = build_root_system("B", 3)
    assert weyl_reflect(b3, root("B", 3, 1, 0, 0), root("B", 3, 1, 1, 0)) == root("B", 3, -1, 1, 0)
    with pytest.raises(ValueError):
        weyl_reflect(b3, root("B", 3, 2, 0, 0), root("B", 3, 1, 0, 0))


def test_root_sum_status_examples():
    a3 = build_root_system("A", 3)
    assert root_sum_status(a3, root("A", 3, 1, -1, 0, 0), root("A", 3, 0, 1, -1, 0)) == "plus_only"
    b3 = build_root_system("B", 3)
    assert root_sum_status(b3, root("B", 3, 1, 1, 0), root("B", 3, 1, -1, 0)) == "neither"
    c3 = build_root_system("C", 3)
    assert root_sum_status(c3, root("C", 3, 1, 1, 0), root("C", 3, 1, -1, 0)) == "both"
    with pytest.raises(ValueError):
        root_sum_status(a3, root("A", 3, 1, -1, 0, 0), root("A", 3, -1, 1, 0, 0))


# -- the lattice boundary: vectors of different surd weights do not mix --------

def test_lift_rejects_a_root_of_another_lattice():
    e6 = build_root_system("E6", 6).roots[0]
    with pytest.raises(ValueError, match="not on the lattice"):
        lift_root(AlgebraSpec((("B", 6, Fraction(1)),)), 0, e6)
    # the G2 long root (sqrt3, 0) is not a vector of the A1 block of A1 + G2
    a1_g2 = AlgebraSpec((("A", 1, Fraction(1)), ("G2", 2, Fraction(1))))
    long_root = root("G2", 2, QNum(0, 0, 1), 0)
    with pytest.raises(ValueError, match="not on the lattice"):
        lift_root(a1_g2, 0, long_root)
    assert lift_root(a1_g2, 1, long_root) == (0, 0, 2, 0)


def test_lift_rejects_a_root_of_another_family():
    # A2 and B3 share the surd weights (1, 1, 1), so only the spec tells
    # an A2 root from the B3 vector with the same coordinates
    a2, b3 = root("A", 2, 1, -1, 0), root("B", 3, 1, -1, 0)
    assert a2 == b3 and hash(a2) == hash(b3)
    spec = AlgebraSpec((("B", 3, Fraction(1)),))
    with pytest.raises(ValueError, match="not on the lattice"):
        lift_root(spec, 0, a2)
    assert lift_root(spec, 0, b3) == (2, -2, 0)
    # two spellings of one family name one unit spec
    e6 = build_root_system("E6", 6).roots[0]
    assert lift_root(AlgebraSpec((("e", 6, Fraction(1)),)), 0, e6) == e6


def test_angle_and_is_root_reject_vectors_of_another_lattice():
    b2_root, g2_root = root("B", 2, 0, 1), root("G2", 2, 0, 1)
    with pytest.raises(ValueError, match="different lattices"):
        angle(b2_root, g2_root)
    with pytest.raises(ValueError, match="different lattices"):
        is_root(build_root_system("G2", 2), b2_root)
    assert is_root(build_root_system("B", 2), b2_root)


@pytest.mark.parametrize("family,rank", [
    ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4), ("D", 4), ("F4", 4), ("G2", 2),
])
def test_weyl_reflections_permute_roots(family, rank):
    rs = build_root_system(family, rank)
    for a in rs.roots:
        image = {weyl_reflect(rs, a, v) for v in rs.roots}
        assert image == set(rs.roots)


def test_angles_stay_crystallographic():
    for family, rank in [("B", 3), ("F4", 4), ("G2", 2), ("E6", 6)]:
        rs = build_root_system(family, rank)
        for u in rs.roots[:10]:
            for v in rs.roots:
                angle(u, v)  # raises if outside the allowed set


def test_serialization_roundtrip():
    rs = build_root_system("G2", 2)
    blob = json.dumps(rs.to_json(), sort_keys=True)
    back = json.loads(blob)
    roots = [root(back["family"], back["rank"], *map(QNum.from_json, r)) for r in back["roots"]]
    assert set(roots) == set(rs.roots)
    assert back["family"] == "G2" and back["rank"] == 2


# -- exact linear algebra ------------------------------------------------------

_entries = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _matrices(draw, square=False):
    nrow = draw(st.integers(1, 4))
    ncol = nrow if square else draw(st.integers(1, 4))
    row = st.lists(_entries, min_size=ncol, max_size=ncol)
    return draw(st.lists(row, min_size=nrow, max_size=nrow))


def _apply(rows, x):
    return [sum(a * b for a, b in zip(row, x)) for row in rows]


def _rank(rows):
    return int(np.linalg.matrix_rank(np.array([[float(x) for x in r] for r in rows])))


@settings(max_examples=60, deadline=None)
@given(_matrices(square=True))
def test_exact_inverse_is_a_two_sided_identity(a):
    n = len(a)
    if _rank(a) < n:
        with pytest.raises(ArithmeticError):
            exact_inverse(a)
        return
    inv = exact_inverse(a)
    cols = [[inv[i][j] for i in range(n)] for j in range(n)]
    assert [_apply(a, c) for c in cols] == [[int(i == j) for i in range(n)]
                                           for j in range(n)]


@pytest.mark.parametrize("basis", [
    [],
    [(0, 2, -1, 0, 0)],
    [(1, -1, 0, 0, 0), (0, 0, 0, 1, 1)],
    [(1, -1, 0, 0, 0), (1, 1, -2, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)],
])
def test_projection_kills_t_cap_m_and_scales_its_complement(basis):
    """P(w) = 0 on t cap m = span(basis), P(v) = c v on its orthocomplement,
    and c is the least positive integer that clears the inverse Gram
    matrix (one vector w gives c = D(w, w))."""
    spec = AlgebraSpec((("A", 2, Fraction(1)), ("B", 2, Fraction(2))))
    basis = tuple(spec.tvec(b) for b in basis)
    proj = t_cap_h_projection(spec, basis)
    assert t_cap_h_projection(spec, basis) is proj
    for w in basis:
        assert not any(proj.scaled(w)) and not proj.in_t_h(w)
    units = [spec.tvec(int(i == j) for j in range(spec.dim)) for i in range(spec.dim)]
    rows = [[tvec_dot(spec, w, u) for u in units] for w in basis]
    for v in (units if not basis else
              [spec.tvec(c) for c in exact_nullspace(rows)]):
        assert proj.scaled(v) == tuple(proj.scale * x for x in v) and proj.in_t_h(v)
        assert proj.pr_h(v) == v
    gram = [[sum(g * x * y for g, x, y in zip(spec.gram, a, b)) for b in basis] for a in basis]
    inv = [x for row in exact_inverse(gram) for x in row] if basis else []
    c = proj.scale
    assert all(Fraction(c * x).denominator == 1 for x in inv)
    assert not any(all(Fraction(c // p * x).denominator == 1 for x in inv)
                   for p in range(2, c + 1) if c % p == 0)
    if len(basis) < 2:
        assert c == (gram[0][0] if basis else 1)


def test_one_vector_projection_is_built_without_an_inverse(monkeypatch):
    """One w gives c = D(w, w) and u = w directly, with no exact inverse of
    the 1 x 1 Gram matrix; a zero w is still a dependent basis."""
    spec = AlgebraSpec((("A", 2, Fraction(1)), ("B", 2, Fraction(2))))
    w = spec.tvec((1, -1, 0, 2, 0))
    monkeypatch.setattr(rootsys, "exact_inverse", None)
    proj = t_cap_h_projection.__wrapped__(spec, (w,))
    form = tuple(g * x for g, x in zip(spec.gram, w))
    assert proj.scale == sum(g * x * x for g, x in zip(spec.gram, w))
    assert proj.terms == ((form, (1, -1, 0, 2, 0)),)
    with pytest.raises(ArithmeticError):
        t_cap_h_projection.__wrapped__(spec, (spec.tvec((0,) * spec.dim),))


@settings(max_examples=60, deadline=None)
@given(_matrices(), st.data())
def test_solve_exact_solves_consistent_and_rejects_inconsistent(a, data):
    x = data.draw(st.lists(_entries, min_size=len(a[0]), max_size=len(a[0])))
    b = _apply(a, x)
    sol = solve_exact(a, b)
    assert sol is not None and _apply(a, sol) == b
    # a repeated equation with another right-hand side has no solution
    assert solve_exact(a + [a[0]], b + [b[0] + 1]) is None


@settings(max_examples=60, deadline=None)
@given(_matrices())
def test_exact_nullspace_is_a_basis_of_the_kernel(a):
    null = exact_nullspace(a)
    assert len(null) == len(a[0]) - _rank(a)
    for v in null:
        assert all(y == 0 for y in _apply(a, v))


# (3363 - 2378 sqrt2)^4 is about 5e-16 > 0, but its float is -0.125: the
# float view a + b*sqrt2 of its 16-digit coefficients cancels catastrophically.
TINY = QNum(3363, -2378) * QNum(3363, -2378) * QNum(3363, -2378) * QNum(3363, -2378)


# On the lattice a coordinate is n/2 * sqrt(k) with n rational, so its sign
# is the sign of n: 10^-400 is positive although its float is 0.0.
TINY_Q = Fraction(1, 10 ** 400)


def test_tiny_positive_leading_coordinate_keeps_its_exact_sign():
    assert TINY.sign() == 1 and float(TINY) < 0
    with pytest.raises(ValueError, match="not a rational multiple"):
        root("B", 2, TINY, -1)  # a coordinate mixing 1 and sqrt2 is off the lattice
    assert float(TINY_Q) == 0.0
    v = root("B", 2, TINY_Q, -1)
    assert v.canonical_sign() == v
    assert (-v).canonical_sign() == v
    assert root("B", 2, 0, -TINY_Q).canonical_sign() == root("B", 2, 0, TINY_Q)


def test_lex_order_is_exact():
    # torus vectors sort as their lattice tuples
    spec = AlgebraSpec((("B", 2, Fraction(1)),))
    tv = lambda *c: tvec_from_parts(spec, {0: c})
    lead_tiny, lead_zero, lead_neg = tv(TINY_Q, 0), tv(0, 1), tv(Fraction(-1, 8), 5)
    assert sorted([lead_tiny, lead_zero, lead_neg]) == [lead_neg, lead_zero, lead_tiny]
    assert sorted([tv(1, TINY_Q), tv(1, 0)]) == [tv(1, 0), tv(1, TINY_Q)]
