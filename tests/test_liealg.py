"""Matrix realizations: brackets, the invariant inner product, root planes."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from flagcurv import coset, liealg
from flagcurv.liealg import AlgebraSpec, _eij, gram_schmidt, realize
from flagcurv.rootsys import root, tvec_dot

TOL = 1e-12


@pytest.fixture(scope="module")
def algebras():
    return {
        (fam, rk): realize(AlgebraSpec(((fam, rk, Fraction(1)),)))
        for fam, rk in [("A", 3), ("B", 3), ("C", 3), ("D", 4)]
    }


def test_sp_basis_blocks_are_skew_hermitian_and_symplectic():
    """Every C-factor basis block lies in u(2n) and in sp(2n, C)."""
    for rank in (1, 2, 3):
        alg = realize(AlgebraSpec((("C", rank, Fraction(1)),)))
        n = rank
        J = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
        basis = alg.ambient_basis
        assert len(basis) == rank * (2 * rank + 1)
        for e in basis:
            X = e.blocks[0]
            assert X.shape == (2 * n, 2 * n)
            assert np.abs(X + X.conj().T).max() < TOL
            assert np.abs(X.T @ J + J @ X).max() < TOL


def test_su4_plane_matches_standard_presentation(algebras):
    f = algebras[("A", 3)].factors[0]
    p = f.plane(root("A", 3, 1, -1, 0, 0))
    x = p.x.blocks[0] * np.sqrt(2.0)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1], expected[1, 0] = 1, -1
    assert np.allclose(x, expected, atol=TOL) or np.allclose(x, -expected, atol=TOL)


def test_sp3_long_plane_sits_in_the_j_entries(algebras):
    """The plane of 2e_1 is spanned by j E_11 and k E_11: in the complex
    model only the (0, n) and (n, 0) entries are nonzero, of modulus 1."""
    f = algebras[("C", 3)].factors[0]
    n = f.rank
    p = f.plane(root("C", 3, 2, 0, 0))
    for m in (p.x.blocks[0], p.y.blocks[0]):
        rest = m.copy()
        rest[0, n] = rest[n, 0] = 0
        assert np.abs(rest).max() == 0
        assert abs(abs(m[0, n]) - 1.0) < TOL and abs(abs(m[n, 0]) - 1.0) < TOL
    # one real (j) and one imaginary (k) direction
    assert {abs(p.x.blocks[0][0, n].real) > 0.5, abs(p.y.blocks[0][0, n].real) > 0.5} == {True, False}


def test_so7_cartan_generator(algebras):
    alg = algebras[("B", 3)]
    e1 = alg.cartan_embed([root("B", 3, 1, 0, 0)]).blocks[0]
    expected = np.zeros((7, 7))
    expected[1, 2], expected[2, 1] = 1, -1
    assert np.allclose(e1, expected, atol=TOL)


def test_bracket_examples(algebras, random_element):
    alg = algebras[("A", 3)]
    f = alg.factors[0]
    e12 = alg.single_block(0, np.zeros((4, 4), dtype=complex))
    e12.blocks[0][0, 1], e12.blocks[0][1, 0] = 1, -1
    e23 = alg.single_block(0, np.zeros((4, 4), dtype=complex))
    e23.blocks[0][1, 2], e23.blocks[0][2, 1] = 1, -1
    br = alg.bracket(e12, e23)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2], expected[2, 0] = 1, -1
    assert np.allclose(br.blocks[0], expected, atol=TOL)
    rng = np.random.default_rng(0)
    x = random_element(alg, rng)
    assert alg.bracket(x, x).norm() < TOL
    h1 = alg.cartan_embed([root("A", 3, 1, 0, 0, 0)])
    h2 = alg.cartan_embed([root("A", 3, 0, 1, 0, 0)])
    assert alg.bracket(h1, h2).norm() < TOL


def test_inner_examples():
    su2 = realize(AlgebraSpec((("A", 1, Fraction(1)),)))
    e1 = su2.cartan_embed([root("A", 1, 1, 0)])
    # trace oracle: the traceless part of i E_11 is i diag(1/2, -1/2)
    m = e1.blocks[0]
    oracle = float(-np.trace(m @ m).real)
    assert abs(su2.inner(e1, e1) - oracle) < TOL
    assert abs(oracle - 0.5) < TOL


def test_inner_ad_invariance_and_plane_orthogonality(algebras, random_element):
    rng = np.random.default_rng(1)
    for alg in algebras.values():
        for _ in range(10):
            x, y, z = (random_element(alg, rng) for _ in range(3))
            assert abs(alg.inner(alg.bracket(x, y), z) + alg.inner(y, alg.bracket(x, z))) < TOL
        f = alg.factors[0]
        h = alg.cartan_embed([f.root_system.roots[0]])
        p = f.plane(f.root_system.roots[0])
        assert abs(alg.inner(p.x, h)) < TOL and abs(alg.inner(p.y, h)) < TOL


def test_cartan_embed_examples(algebras):
    alg = algebras[("A", 3)]
    m = alg.cartan_embed([root("A", 3, 1, 1, -1, -1)]).blocks[0]
    assert np.allclose(m, 1j * np.diag([1, 1, -1, -1]), atol=TOL)
    z = alg.cartan_embed([root("A", 3, 0, 0, 0, 0)])
    assert z.norm() < TOL
    b3 = algebras[("B", 3)]
    m = b3.cartan_embed([root("B", 3, 0, 1, 0)]).blocks[0]
    expected = np.zeros((7, 7))
    expected[3, 4], expected[4, 3] = 1, -1
    assert np.allclose(m, expected, atol=TOL)
    # exact coordinates reproduced through the inner product
    for v in (root("A", 3, 1, -1, 0, 0), root("A", 3, 1, 1, -1, -1)):
        for w in (root("A", 3, 1, -1, 0, 0), root("A", 3, 0, 1, -1, 0)):
            got = alg.inner(alg.cartan_embed([v]), alg.cartan_embed([w]))
            assert abs(got - float(tvec_dot(v.spec, v, w))) < TOL


def test_exceptional_factor_rejected():
    with pytest.raises(ValueError, match="root-level only"):
        realize(AlgebraSpec((("G2", 2, Fraction(1)),)))


def test_plane_rejects_a_root_of_another_family(algebras):
    # equal coordinates and surd weights, so the two are one dict key
    a2, b3 = root("A", 2, 1, -1, 0), root("B", 3, 1, -1, 0)
    f = algebras[("B", 3)].factors[0]
    assert f.plane(b3).root == b3
    with pytest.raises(ValueError, match="not a vector of the root lattice"):
        f.plane(a2)


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_jacobi_and_ad_invariance_100_triples(algebras, random_element, fam, rank):
    alg = algebras[(fam, rank)]
    rng = np.random.default_rng(42)
    for _ in range(100):
        x, y, z = (random_element(alg, rng) for _ in range(3))
        jac = alg.bracket(alg.bracket(x, y), z) + alg.bracket(alg.bracket(y, z), x) \
            + alg.bracket(alg.bracket(z, x), y)
        assert jac.norm() < TOL
        assert abs(alg.inner(alg.bracket(x, y), z) + alg.inner(y, alg.bracket(x, z))) < TOL


def _residual_off_span(alg, elem, span):
    v = elem
    for b in span:
        v = v - alg.inner(v, b) * b
    return v.norm()


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_root_plane_bracket_containment(algebras, fam, rank):
    """[g_a, g_b] lies inside g_{a+b} + g_{a-b} for all root pairs."""
    alg = algebras[(fam, rank)]
    f = alg.factors[0]
    planes = [f.plane(k) for k in f.plane_keys]
    for p, q in itertools.combinations(planes, 2):
        targets = []
        for s in (1, -1):
            key = (p.root + q.root.scale(s)).canonical_sign()
            if key in f.plane_keys:
                tp = f.plane(key)
                targets.extend([tp.x, tp.y])
        span = gram_schmidt(alg, targets) if targets else []
        for a in (p.x, p.y):
            for b in (q.x, q.y):
                assert _residual_off_span(alg, alg.bracket(a, b), span) < TOL


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_plane_self_bracket_spans_root_line(algebras, fam, rank):
    alg = algebras[(fam, rank)]
    f = alg.factors[0]
    for p in map(f.plane, f.plane_keys):
        h = alg.cartan_embed([p.root])
        for a, b in [(p.x, p.y)]:
            br = alg.bracket(a, b)
            resid = br - (alg.inner(br, h) / alg.inner(h, h)) * h
            assert resid.norm() < TOL
            assert br.norm() > 1e-6  # nonzero: the bracket spans the line


def test_ad_isomorphism_between_planes(algebras):
    """When exactly one of a+-b is a root, ad(v) maps g_b onto g_{gamma}
    isomorphically for any nonzero v in g_a."""
    alg = algebras[("B", 3)]
    f = alg.factors[0]
    pa = f.plane(root("B", 3, -1, 1, 0))
    pb = f.plane(root("B", 3, 1, 0, 0))
    tgt = f.plane(root("B", 3, 0, 1, 0))
    rng = np.random.default_rng(3)
    for _ in range(5):
        c = rng.standard_normal(2)
        v = float(c[0]) * pa.x + float(c[1]) * pa.y
        m = np.zeros((2, 2))
        for col, b in enumerate((pb.x, pb.y)):
            br = alg.bracket(v, b)
            m[0, col] = alg.inner(br, tgt.x)
            m[1, col] = alg.inner(br, tgt.y)
            # image stays inside the target plane
            resid = br - m[0, col] * tgt.x - m[1, col] * tgt.y
            assert resid.norm() < TOL
        assert abs(np.linalg.det(m)) > 1e-8


# -- gram_schmidt against the loop that takes every projection -------------

def _full_gram_schmidt(alg, elements, tol=1e-10):
    """The two-pass modified Gram-Schmidt that computes every inner
    product: gram_schmidt must reproduce it bit for bit."""
    basis = []
    for e in elements:
        v = e
        for _ in range(2):
            for b in basis:
                v = v - alg.inner(v, b) * b
        nv = v.norm()
        if nv > tol:
            basis.append((1.0 / nv) * v)
    return basis


def _raw(basis):
    return [([b.tobytes() for b in e.blocks], e.abelian.tobytes()) for e in basis]


def _inner_calls(alg, gs, elements):
    """gs(alg, elements) and the number of inner products it took."""
    calls = []
    inner = alg.inner
    alg.inner = lambda x, y: calls.append(1) or inner(x, y)
    try:
        return gs(alg, elements), len(calls)
    finally:
        del alg.inner


SPANNING_SPECS = [AlgebraSpec(((fam, rank, Fraction(1)),))
                  for fam in "ABC" for rank in (1, 2, 3, 4)] \
    + [AlgebraSpec((("D", rank, Fraction(1)),)) for rank in (3, 4)] \
    + [AlgebraSpec((("A", 1, Fraction(1)), ("C", 2, Fraction(2))), abelian_dim=1,
                   abelian_scales=(Fraction(3, 2),))]


@pytest.mark.parametrize("spec", SPANNING_SPECS, ids=lambda s: "+".join(
    f"{fam}{rank}" for fam, rank, _ in s.factors) + "+u1" * s.abelian_dim)
def test_gram_schmidt_is_bit_identical_on_spanning_sets(spec):
    """The natural spanning set (then its first elements again, which
    must be dropped) gives the same bytes with fewer inner products."""
    alg = realize(spec)
    raw = [e for f in alg.factors for e in f.spanning_set()]
    raw += [alg.abelian_unit(k) for k in range(spec.abelian_dim)]
    raw += raw[:3]
    got, fast = _inner_calls(alg, gram_schmidt, raw)
    want, full = _inner_calls(alg, _full_gram_schmidt, raw)
    assert len(got) == alg.dim
    assert _raw(got) == _raw(want)
    assert fast < full


PRESET_TEXTS = [
    "sphere_so2n(4)", "sphere_un(3)", "sphere_un(4)", "sphere_spn_u1(2)",
    "sphere_spn_sp1(2)", "sphere_spn_sp1(3)", "berger_sp2", "aloff_wallach(1,2)",
    "bn_excluded_subcase1(2)", "bn_excluded_subcase1(3)", "a1a1_diagonal(1)",
    "a1a1_diagonal(2)", "cn_excluded_subcase1(3)", "cn_excluded_subcase1(4)",
]


@pytest.mark.parametrize("text", PRESET_TEXTS)
def test_gram_schmidt_is_bit_identical_on_preset_h_and_m(monkeypatch, text):
    """Both calls a preset makes, on its h generators and on the m
    completion, match the full loop byte for byte."""
    calls = []

    def record(alg, elements, *args):
        elements = list(elements)
        calls.append((alg, elements))
        return gram_schmidt(alg, elements, *args)

    with monkeypatch.context() as m:
        m.setattr(coset, "gram_schmidt", record)
        coset.parse_preset("preset:" + text)
    assert len(calls) == 2
    for alg, elements in calls:
        assert _raw(gram_schmidt(alg, elements)) == _raw(_full_gram_schmidt(alg, elements))


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_gram_schmidt_skips_nothing_on_dense_elements(random_element, algebras, fam, rank):
    """Random elements meet every basis element, so every projection is
    taken until the basis holds dim g elements; then it stops, so the two
    extra elements, which the full loop projects in two passes, measures
    and drops, take no inner product."""
    alg = algebras[(fam, rank)]
    rng = np.random.default_rng(5)
    dense = [random_element(alg, rng) for _ in range(alg.dim + 2)]
    got, fast = _inner_calls(alg, gram_schmidt, dense)
    want, full = _inner_calls(alg, _full_gram_schmidt, dense)
    assert len(got) == alg.dim
    assert _raw(got) == _raw(want)
    assert fast == full - 2 * (2 * alg.dim + 1)


def test_gram_schmidt_pairs_each_entry_with_its_transpose():
    """Off the algebra a support need not be symmetric: b and v share no
    entry, but v's (2, 0) meets b's (0, 2), so v must be projected."""
    alg = realize(AlgebraSpec((("B", 1, Fraction(1)),)))

    def element(*entries):
        return alg.single_block(0, sum(c * _eij(3, i, j, float) for i, j, c in entries))

    b = element((0, 1, 1), (1, 0, -1), (0, 2, 1))
    v = element((2, 0, 1), (1, 2, 1), (2, 1, -1))
    assert alg.inner(v, b) == -0.5
    got = gram_schmidt(alg, [b, v])
    assert len(got) == 2 and abs(alg.inner(got[1], got[0])) < TOL
    assert _raw(got) == _raw(_full_gram_schmidt(alg, [b, v]))


def test_gram_schmidt_rejects_an_element_of_another_algebra():
    a, b = (realize(AlgebraSpec((("A", 1, Fraction(1)),))) for _ in range(2))
    with pytest.raises(ValueError, match="algebra spec mismatch"):
        gram_schmidt(a, [a.factors[0].spanning_set()[0], b.factors[0].spanning_set()[1]])


def test_gram_schmidt_keeps_a_residual_of_1e_8_and_drops_one_of_1e_12():
    """The drop tolerance DROP_TOL = 1e-10 sits between the two residuals."""
    alg = realize(AlgebraSpec((("B", 2, Fraction(1)),)))
    a, b = alg.factors[0].spanning_set()[:2]  # orthonormal rotation generators
    assert len(gram_schmidt(alg, [a, a + 1e-8 * b])) == 2
    assert len(gram_schmidt(alg, [a, a + 1e-12 * b])) == 1


# -- root planes, built on first read -----------------------------------------

def test_a_plane_is_built_on_its_first_read_only(monkeypatch):
    """Realizing a factor builds no plane; a root and its negative read one
    plane, built once; a vector that is not a root raises KeyError."""
    built = []
    build = liealg._FactorRealization._build_plane
    monkeypatch.setattr(liealg._FactorRealization, "_build_plane",
                        lambda f, r: built.append(r) or build(f, r))
    f = realize(AlgebraSpec((("B", 3, Fraction(1)),))).factors[0]
    assert built == [] and len(f.plane_keys) == 9
    r = root("B", 3, 0, 1, -1)
    p = f.plane(r)
    assert f.plane(-r) is p and p.root == r and built == [r]
    with pytest.raises(KeyError):
        f.plane(root("B", 3, 2, 0, 0))


def _four_term_span(f, key):
    """The explicit construction of a two-root plane of so(n): one branch of
    four E_pq terms per matrix for each sign of c_i c_j."""
    n, off = f.size, 1 if f.family == "B" else 0
    cf = liealg._floats(key)
    ki, kj = [k for k, c in enumerate(cf) if abs(c) > 0.5]
    (ai, bi), (aj, bj) = ((2 * k + off, 2 * k + off + 1) for k in (ki, kj))

    def e(p, q):
        return _eij(n, p, q, float)

    if cf[ki] * cf[kj] < 0:  # e_i - e_j
        return (e(ai, aj) + e(bi, bj) - e(aj, ai) - e(bj, bi),
                e(ai, bj) - e(bi, aj) + e(aj, bi) - e(bj, ai))
    return (e(ai, aj) - e(bi, bj) - e(aj, ai) + e(bj, bi),
            e(ai, bj) + e(bi, aj) - e(aj, bi) - e(bj, ai))


@pytest.mark.parametrize("fam,rank", [("B", r) for r in range(2, 7)]
                         + [("D", r) for r in range(3, 7)])
def test_two_root_planes_match_the_four_term_construction(monkeypatch, fam, rank):
    """The sign rule x = K(a_i, a_j) - s K(b_i, b_j), y = K(a_i, b_j) +
    s K(b_i, a_j) gives every two-root plane of so(n) byte for byte: its
    spanning matrices and the orthonormal, oriented plane built from them."""
    spec = AlgebraSpec(((fam, rank, Fraction(1)),))
    f, oracle = realize(spec).factors[0], realize(spec).factors[0]
    monkeypatch.setattr(oracle, "_plane_span", lambda key: _four_term_span(oracle, key))
    keys = [k for k in f.plane_keys if sum(map(bool, k)) == 2]
    assert len(keys) == rank * (rank - 1)  # the planes of +-e_i +- e_j
    for key in keys:
        assert [m.tobytes() for m in f._plane_span(key)] \
            == [m.tobytes() for m in _four_term_span(f, key)]
        got, want = f.plane(key), oracle.plane(key)
        assert got.x.blocks[0].tobytes() == want.x.blocks[0].tobytes()
        assert got.y.blocks[0].tobytes() == want.y.blocks[0].tobytes()


@pytest.mark.parametrize("tilt,aligned", [(1e-12, True), (1e-6, False)])
def test_root_plane_alignment_check_from_both_sides(monkeypatch, tilt, aligned):
    """_build_plane's alignment test, 1e-9 max(1, |alpha|^2) = 2e-9 for
    alpha = e1 + e2 of B2: y tilted by `tilt` toward the unit Cartan
    generator H_1, orthogonal to the plane, leaves [h, x] off the line of y
    by sqrt(2) tilt."""
    span = liealg._FactorRealization._plane_span
    monkeypatch.setattr(liealg._FactorRealization, "_plane_span",
                        lambda f, r: (lambda x, y: (x, y + tilt * f.cartan[0]))(*span(f, r)))
    f = realize(AlgebraSpec((("B", 2, Fraction(1)),))).factors[0]
    if aligned:
        f.plane(root("B", 2, 1, 1))
    else:
        with pytest.raises(AssertionError, match="root plane misaligned"):
            f.plane(root("B", 2, 1, 1))
