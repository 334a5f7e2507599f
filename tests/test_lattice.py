"""The integer torus lattice against QNum arithmetic in ambient coordinates.

Torus vectors are drawn as random integer combinations of lifted roots, for
every family up to rank 8 (E6, E7 and G2 with their surd positions), next
to an A1 factor and an abelian coordinate with non-unit scales.  The oracle
reads the roots' coordinates with its own table of position surds,
repeats each combination in Q(sqrt2, sqrt3), and computes the inner
product, the projection along w, the canonical sign and the lexicographic
order there; the lattice results must agree, and so must the engine's
printed and JSON forms of each vector, read back as QNums.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from flagcurv.obstruct import _root_data, make_root_level_space
from flagcurv.rootsys import Q0, AlgebraSpec, QNum, tvec_dot, tvec_from_parts, tvec_to_json

FAMILIES = ([("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 9)]
            + [("C", n) for n in range(3, 9)] + [("D", n) for n in range(4, 9)]
            + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)])
SCALES = [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)]


# The surd of each ambient position, kept apart from the engine's own table:
# sqrt3 at G2's first and E6's last position, sqrt2 at E7's last, 1 elsewhere.
SURDS = {("G2", 0): 3, ("E6", 5): 3, ("E7", 6): 2}


def _ambient(spec, tv):
    """The QNum coordinates of a TVec: a stored n is n/2 times the surd."""
    surds = [SURDS.get((fam, i), 1) for fam, rank, _ in spec.factors
             for i in range(rank + 1 if fam == "A" else rank)]
    surds += [1] * spec.abelian_dim
    assert len(surds) == len(tv)
    return [QNum(*(Fraction(n, 2) if k == j else 0 for j in (1, 2, 3)))
            for n, k in zip(tv, surds)]


def _check_printed(spec, tv, q):
    """The engine's JSON of tv, read back, and its printed blocks (the
    spec has two factors and one abelian coordinate) against the oracle
    coordinates q."""
    n1 = spec.factors[0][1] + (1 if spec.factors[0][0] == "A" else 0)
    b1, b2, ab = q[:n1], q[n1:-1], q[-1]
    js = tvec_to_json(tv)
    assert [[QNum.from_json(x) for x in f] for f in js["factors"]] == [b1, b2]
    assert [QNum.from_json(x) for x in js["abelian"]] == [ab]
    blocks = ["(" + ", ".join(map(str, b)) + ")" for b in (b1, b2)]
    assert repr(tv) == f"TVec(factors=({blocks[0]}, {blocks[1]}), abelian=({ab!r},))"


def _scales(spec):
    return [s for fam, rank, s in spec.factors for _ in range(rank + 1 if fam == "A" else rank)] \
        + list(spec.abelian_scales)


def _dot(spec, u, v):
    out = Q0
    for s, x, y in zip(_scales(spec), u, v):
        out = out + QNum.of(s) * x * y
    return out


@st.composite
def _space_and_vectors(draw):
    fam, rank = draw(st.sampled_from(FAMILIES))
    scale, a1_scale, ab_scale = (draw(st.sampled_from(SCALES)) for _ in range(3))
    spec = AlgebraSpec(((fam, rank, scale), ("A", 1, a1_scale)), 1, (ab_scale,))
    roots = _root_data(spec).g_roots
    unit = tvec_from_parts(spec, abelian=[1])

    def vector():
        picks = draw(st.lists(st.tuples(st.sampled_from(roots), st.integers(-3, 3)),
                              min_size=1, max_size=4))
        ab = draw(st.integers(-2, 2))
        tv, q = unit.scale(ab), [x * ab for x in _ambient(spec, unit)]
        for r, c in picks:
            tv = tv + r.scale(c)
            q = [x + y * c for x, y in zip(q, _ambient(spec, r))]
        return tv, q

    return spec, [vector() for _ in range(3)]


def _lex_less(p, q):
    for x, y in zip(p, q):
        if x != y:
            return x < y
    return False


@settings(max_examples=150, deadline=None)
@given(_space_and_vectors())
def test_lattice_matches_qnum_arithmetic(drawn):
    spec, ((u, uq), (v, vq), (w, wq)) = drawn
    for tv, q in ((u, uq), (v, vq), (w, wq)):
        assert _ambient(spec, tv) == q
        _check_printed(spec, tv, q)
        assert all(type(x) is int for x in tv)
    assert QNum.of(tvec_dot(spec, u, v)) == _dot(spec, uq, vq)
    # canonical sign: the first nonzero QNum coordinate decides
    lead = next((x.sign() for x in uq if not x.is_zero()), 0)
    assert _ambient(spec, u.canonical_sign()) == ([-x for x in uq] if lead < 0 else uq)
    # tuple order is the lexicographic order of the ambient QNum coordinates
    assert (u < v) == _lex_less(uq, vq)
    assert (v < u) == _lex_less(vq, uq)
    ww = _dot(spec, wq, wq)
    if ww.is_zero():
        return
    space = make_root_level_space(spec, w)
    coef = _dot(spec, wq, uq) / ww
    pq = [x - coef * y for x, y in zip(uq, wq)]
    assert _ambient(spec, space.pr_h(u)) == pq
    _check_printed(spec, space.pr_h(u), pq)  # rational coordinates
    assert space.in_t_h(u) == _dot(spec, wq, uq).is_zero()
