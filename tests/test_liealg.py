"""Matrix realizations: brackets, the invariant inner product, root planes."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from flagcurv.liealg import (
    AlgebraSpec,
    bracket,
    cartan_embed,
    gram_schmidt,
    inner,
    realize,
)
from flagcurv.rootsys import tvec_dot
from flagcurv.torus import root

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
        basis = alg.ambient_basis()
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
    e1 = cartan_embed(alg, [root("B", 3, 1, 0, 0)]).blocks[0]
    expected = np.zeros((7, 7))
    expected[1, 2], expected[2, 1] = 1, -1
    assert np.allclose(e1, expected, atol=TOL)


def test_bracket_examples(algebras):
    alg = algebras[("A", 3)]
    f = alg.factors[0]
    e12 = alg.single_block(0, np.zeros((4, 4), dtype=complex))
    e12.blocks[0][0, 1], e12.blocks[0][1, 0] = 1, -1
    e23 = alg.single_block(0, np.zeros((4, 4), dtype=complex))
    e23.blocks[0][1, 2], e23.blocks[0][2, 1] = 1, -1
    br = bracket(e12, e23)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2], expected[2, 0] = 1, -1
    assert np.allclose(br.blocks[0], expected, atol=TOL)
    rng = np.random.default_rng(0)
    x = alg.random_element(rng)
    assert bracket(x, x).norm() < TOL
    h1 = alg.cartan_embed([root("A", 3, 1, 0, 0, 0)])
    h2 = alg.cartan_embed([root("A", 3, 0, 1, 0, 0)])
    assert bracket(h1, h2).norm() < TOL


def test_inner_examples():
    su2 = realize(AlgebraSpec((("A", 1, Fraction(1)),)))
    e1 = su2.cartan_embed([root("A", 1, 1, 0)])
    # trace oracle: the traceless part of i E_11 is i diag(1/2, -1/2)
    m = e1.blocks[0]
    oracle = float(-np.trace(m @ m).real)
    assert abs(inner(e1, e1) - oracle) < TOL
    assert abs(oracle - 0.5) < TOL


def test_inner_ad_invariance_and_plane_orthogonality(algebras):
    rng = np.random.default_rng(1)
    for alg in algebras.values():
        for _ in range(10):
            x, y, z = (alg.random_element(rng) for _ in range(3))
            assert abs(inner(bracket(x, y), z) + inner(y, bracket(x, z))) < TOL
        f = alg.factors[0]
        h = alg.cartan_embed([f.root_system.roots[0]])
        p = f.plane(f.root_system.roots[0])
        assert abs(inner(p.x, h)) < TOL and abs(inner(p.y, h)) < TOL


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
            got = inner(alg.cartan_embed([v]), alg.cartan_embed([w]))
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
def test_jacobi_and_ad_invariance_100_triples(algebras, fam, rank):
    alg = algebras[(fam, rank)]
    rng = np.random.default_rng(42)
    for _ in range(100):
        x, y, z = (alg.random_element(rng) for _ in range(3))
        jac = bracket(bracket(x, y), z) + bracket(bracket(y, z), x) \
            + bracket(bracket(z, x), y)
        assert jac.norm() < TOL
        assert abs(inner(bracket(x, y), z) + inner(y, bracket(x, z))) < TOL


def _residual_off_span(alg, elem, span):
    v = elem.copy()
    for b in span:
        v = v - inner(v, b) * b
    return v.norm()


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_root_plane_bracket_containment(algebras, fam, rank):
    """[g_a, g_b] lies inside g_{a+b} + g_{a-b} for all root pairs."""
    alg = algebras[(fam, rank)]
    f = alg.factors[0]
    planes = list(f.planes.values())
    for p, q in itertools.combinations(planes, 2):
        targets = []
        for s in (1, -1):
            key = (p.root + q.root.scale(s)).canonical_sign()
            if key in f.planes:
                tp = f.planes[key]
                targets.extend([tp.x.copy(), tp.y.copy()])
        span = gram_schmidt(alg, targets) if targets else []
        for a in (p.x, p.y):
            for b in (q.x, q.y):
                assert _residual_off_span(alg, bracket(a, b), span) < TOL


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_plane_self_bracket_spans_root_line(algebras, fam, rank):
    alg = algebras[(fam, rank)]
    f = alg.factors[0]
    for p in f.planes.values():
        h = alg.cartan_embed([p.root])
        for a, b in [(p.x, p.y)]:
            br = bracket(a, b)
            resid = br - (inner(br, h) / inner(h, h)) * h
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
            br = bracket(v, b)
            m[0, col] = inner(br, tgt.x)
            m[1, col] = inner(br, tgt.y)
            # image stays inside the target plane
            resid = br - m[0, col] * tgt.x - m[1, col] * tgt.y
            assert resid.norm() < TOL
        assert abs(np.linalg.det(m)) > 1e-8
