"""gram_schmidt against the element-wise loop it replaced, bit for bit.

The oracle is the Gram-Schmidt that built every basis before the stacked
one: it reduces one AlgebraElement at a time, keeps a support row, a
transposed-support row and a zero-sign row per basis element, skips the
projections whose supports do not meet and repairs the signs of zeros with
a signed-zero element.  Modified Gram-Schmidt rounds differently in any
other order, so the comparisons are exact: equal entries and equal sign
bits, -0.0 against +0.0 included, for the ambient, h and m bases and for
Kh, the [h, m] structure tensor that the seeded norms are drawn from.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from flagcurv import coset, liealg
from flagcurv.liealg import DROP_TOL, AlgebraElement, AlgebraSpec, gram_schmidt, realize

# the presets of the flags-normal, flags-finsler and witness-build workloads
BENCH_PRESETS = (
    "sphere_so2n(4)", "sphere_un(3)", "sphere_un(4)", "sphere_spn_u1(2)",
    "sphere_spn_sp1(2)", "sphere_spn_sp1(3)", "berger_sp2", "aloff_wallach(1,2)",
    "bn_excluded_subcase1(2)", "bn_excluded_subcase1(3)", "a1a1_diagonal(1)",
    "a1a1_diagonal(2)", "cn_excluded_subcase1(3)", "cn_excluded_subcase1(4)",
)


def _support(x, transpose=False):
    """Where x is nonzero: the entries of each block (transposed, if asked)
    in row-major order, then the abelian components."""
    return np.concatenate([(b.T if transpose else b).ravel() != 0 for b in x.blocks]
                          + [x.abelian != 0])


def _signed_zero(alg, negative):
    """The zero element that is -0.0 at the components `negative` of the
    flat layout and +0.0 elsewhere."""
    flat = np.where(negative, -0.0, 0.0)
    blocks = [flat[cols].view(f.dtype).reshape(f.size, f.size)
              for f, cols in zip(alg.factors, alg._slices)]
    return AlgebraElement(alg, blocks, flat[len(flat) - alg.spec.abelian_dim:])


def oracle_gram_schmidt(alg, elements):
    elements = list(elements)
    if any(e.algebra is not alg for e in elements):
        raise ValueError("algebra spec mismatch")
    basis = []
    width = sum(f.size ** 2 for f in alg.factors) + alg.spec.abelian_dim
    meets = np.zeros((len(elements), width), dtype=bool)  # row k: basis[k] transposed
    supports = np.zeros((len(elements), width), dtype=bool)  # row k: basis[k]
    # row k: the -0.0 components of 0.0 * basis[k], in the flat layout
    signs = np.zeros((len(elements), alg._flat(alg.zero()).size), dtype=bool)
    for e in elements:
        if len(basis) == alg.dim:
            break
        v, n = e, len(basis)
        mask = _support(v)
        skipped = np.zeros(n, dtype=bool)
        for _ in range(2):
            projected = np.zeros(n, dtype=bool)
            k = 0
            while (hits := np.flatnonzero(meets[k:n] @ mask)).size:
                k += int(hits[0])
                v = v - alg.inner(v, basis[k]) * basis[k]
                mask |= supports[k]
                projected[k] = True
                k += 1
            skipped |= ~projected
        flips = skipped @ signs[:n]
        if flips.any():
            v = v - _signed_zero(alg, flips)
        nv = v.norm()
        if nv > DROP_TOL:
            b = (1.0 / nv) * v
            meets[n], supports[n] = _support(b, transpose=True), _support(b)
            signs[n] = np.signbit(alg._flat(0.0 * b))
            basis.append(b)
    return basis


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(np.ascontiguousarray(got).view(float)),
                          np.signbit(np.ascontiguousarray(want).view(float)))


def assert_same_basis(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        for a, b in zip(x.blocks + [x.abelian], y.blocks + [y.abelian]):
            assert_same_bits(a, b)


def _built_with(monkeypatch, gs, make):
    """The ambient, h and m bases and Kh of make(), every basis built by gs."""
    with monkeypatch.context() as m:
        m.setattr(liealg, "gram_schmidt", gs)
        m.setattr(coset, "gram_schmidt", gs)
        space = make()
    return (space.algebra.ambient_basis, space.h_basis, space.m_basis), space.structure_tensors()[2]


def _assert_builds_alike(monkeypatch, make):
    got, got_kh = _built_with(monkeypatch, gram_schmidt, make)
    want, want_kh = _built_with(monkeypatch, oracle_gram_schmidt, make)
    for g, w in zip(got, want):
        assert_same_basis(g, w)
    assert_same_bits(got_kh, want_kh)
    return got


@pytest.mark.parametrize("text", BENCH_PRESETS)
def test_preset_bases_and_kh_are_the_oracles(monkeypatch, text):
    _assert_builds_alike(monkeypatch, lambda: coset.parse_preset("preset:" + text))


Q = {"a": "0", "b": "0", "c": "0", "d": "0"}


def _q(a):
    return {**Q, "a": str(a)}


SU2_GROUP = {"algebra": {"factors": [{"family": "A", "rank": 1, "scale": "1"}],
                         "abelian_dim": 0}}
# B2 at scale 2^20 and C2 at scale 2^-20, plus R at scale 2^20: h is
# so(3) in B2, sp(1) on the long root 2e1 of C2 and the line of
# e2 (of C2) + the abelian unit
SCALED_TWO_FACTORS = {
    "algebra": {"factors": [{"family": "B", "rank": 2, "scale": "1048576"},
                            {"family": "C", "rank": 2, "scale": "1/1048576"}],
                "abelian_dim": 1, "abelian_scales": ["1048576"]},
    "cartan_h": [
        {"factors": [[Q, _q(1)], [Q, Q]], "abelian": [Q]},
        {"factors": [[Q, Q], [_q(1), Q]], "abelian": [Q]},
        {"factors": [[Q, Q], [Q, _q(1)]], "abelian": [_q(1)]},
    ],
    "h_roots": [{"factor": 0, "root": [Q, _q(1)]}, {"factor": 1, "root": [_q(2), Q]}],
}


@pytest.mark.parametrize("obj", [SU2_GROUP, SCALED_TWO_FACTORS], ids=["su2-h0", "scaled-b2-c2-r"])
def test_space_file_bases_and_kh_are_the_oracles(monkeypatch, obj):
    (_, h, m) = _assert_builds_alike(monkeypatch, lambda: coset.space_from_json(json.loads(
        json.dumps(obj))))
    assert len(h) + len(m) == (3 if obj is SU2_GROUP else 10 + 10 + 1)


def test_the_drop_tolerance_keeps_and_drops_as_the_oracle():
    """DROP_TOL = 1e-10 keeps a residual of 1e-8 and drops one of 1e-12."""
    alg = realize(AlgebraSpec((("B", 2, Fraction(1)),)))
    a, b = alg.factors[0].spanning_set()[:2]
    for eps, kept in ((1e-8, 2), (1e-12, 1)):
        got = gram_schmidt(alg, [a, a + eps * b])
        assert len(got) == kept
        assert_same_basis(got, oracle_gram_schmidt(alg, [a, a + eps * b]))


@pytest.mark.parametrize("fam,rank", [("A", 3), ("C", 2)])
def test_the_stop_at_dim_g_is_the_oracles(random_element, fam, rank):
    """dim g + 2 dense elements: every projection is taken, and both stop
    with dim g elements, so the last two are never reduced."""
    alg = realize(AlgebraSpec(((fam, rank, Fraction(1)),)))
    rng = np.random.default_rng(11)
    dense = [random_element(alg, rng) for _ in range(alg.dim + 2)]
    before = [[b.tobytes() for b in e.blocks + [e.abelian]] for e in dense]
    got = gram_schmidt(alg, dense)
    assert len(got) == alg.dim
    assert [[b.tobytes() for b in e.blocks + [e.abelian]] for e in dense] == before
    assert_same_basis(got, oracle_gram_schmidt(alg, dense))


def test_a_projection_taken_in_both_passes_makes_its_own_sign_changes():
    """v's -0.0 at (2, 2) faces a -0.0 of b, and v is projected on b in both
    passes, with coefficients about -0.81 and -6e-17: c * b is +0.0 there,
    so the -0.0 stays, where a skipped projection (0.0 * b) would turn it
    into +0.0."""
    alg = realize(AlgebraSpec((("B", 1, Fraction(1)),)))
    b = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -0.0]])
    v = np.array([[0.0, -0.8118216247002568, 1.0], [0.8126432428437579, 0.0, 0.0],
                  [-1.0, 0.0, -0.0]])
    elements = [alg.single_block(0, b), alg.single_block(0, v)]
    got = gram_schmidt(alg, elements)
    assert np.signbit(got[1].blocks[0][2, 2]) and got[1].blocks[0][2, 2] == 0
    assert_same_basis(got, oracle_gram_schmidt(alg, elements))
