"""Minkowski norms: values, Hessians, Cartan tensors, invariance."""

import dataclasses
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from fd_oracles import cartan_matrix, fd_cartan, fd_g_inner
from flagcurv import norms
from flagcurv.coset import parse_preset, preset
from flagcurv.norms import (
    MinkowskiNorm,
    Quadratic,
    Quartic,
    Randers,
    check_invariance,
    invariant_quadratic_space,
    norm_from_json,
    random_invariant_norm,
)

RNG = np.random.default_rng(2024)


def _pd_matrix(d, rng):
    a = rng.standard_normal((d, d))
    return a @ a.T + 0.5 * np.eye(d)


def test_evaluate_examples():
    nq = Quadratic(np.eye(3))
    assert abs(nq.value([1.0, 0.0, 0.0]) - 1.0) < 1e-15
    nr = Randers(np.eye(2), np.array([0.2, 0.0]))
    assert abs(nr.value([1.0, 0.0]) - 1.2) < 1e-15
    n4 = Quartic([1.0, 1.0], [np.eye(2), np.eye(2)])
    assert abs(n4.value([1.0, 0.0]) - 2.0 ** 0.25) < 1e-15
    assert nq.value([0.0, 0.0, 0.0]) == 0.0
    # a Euclidean norm: <u, v>_y = u.v and C_y = 0 at every y
    y, u, v, w = np.arange(1.0, 4.0), np.ones(3), np.eye(3)[0], np.eye(3)[1]
    assert u @ nq.gram(y) @ v == 1.0
    assert u @ nq.cartan_pair(nq.pole(y), v, w) == 0.0


def test_quadratic_gram_cannot_go_stale():
    """A Quadratic inverts q when it is built, so q can be neither rebound
    nor written in place; the inverse it hands out is that of q."""
    q = _pd_matrix(4, RNG)
    n = Quadratic(q)
    with pytest.raises(dataclasses.FrozenInstanceError):
        n.q = 2.0 * q
    with pytest.raises(ValueError, match="read-only"):
        n.q[0, 0] = 2.0
    g = n.pole(RNG.standard_normal(4))[0]
    assert g is n.q and np.allclose(n.inverse(g) @ q, np.eye(4))
    assert Quadratic(-q).inverse(-q) is None  # no Cholesky factor, no inverse


def test_quadratic_gram_is_constant():
    q = _pd_matrix(4, RNG)
    n = Quadratic(q)
    for _ in range(3):
        y = RNG.standard_normal(4)
        assert np.allclose(n.gram(y), q)
        assert RNG.standard_normal(4) @ n.cartan_pair(n.pole(y), y, y) == 0.0


@pytest.mark.parametrize("make", [
    lambda d: Quadratic(_pd_matrix(d, RNG)),
    lambda d: Randers(_pd_matrix(d, RNG), 0.1 * RNG.standard_normal(d)),
    lambda d: Quartic(0.5 + RNG.random(2), [_pd_matrix(d, RNG) for _ in range(2)]),
])
def test_euler_identity_and_homogeneity(make):
    d = 5
    norm = make(d)
    for _ in range(5):
        y = RNG.standard_normal(d)
        assert abs(y @ norm.gram(y) @ y - norm.value(y) ** 2) < 1e-9
        for lam in (0.5, 2.0, 10.0):
            assert abs(norm.value(lam * y) - lam * norm.value(y)) \
                < 1e-12 * lam * norm.value(y)


def test_quartic_gram_against_fd_oracle():
    d = 5
    norm = Quartic([1.0, 0.7], [_pd_matrix(d, RNG) for _ in range(2)])
    for _ in range(8):
        y = RNG.standard_normal(d)
        u = RNG.standard_normal(d)
        v = RNG.standard_normal(d)
        cf = u @ norm.gram(y) @ v
        fd = fd_g_inner(norm, y, u, v)
        assert abs(cf - fd) < 1e-7 * max(1.0, abs(cf))


def test_randers_gram_and_cartan_against_fd():
    d = 4
    norm = Randers(_pd_matrix(d, RNG), 0.15 * RNG.standard_normal(d))
    for _ in range(6):
        y, u, v, w = (RNG.standard_normal(d) for _ in range(4))
        assert abs(u @ norm.gram(y) @ v - fd_g_inner(norm, y, u, v)) < 1e-8
        assert abs(u @ norm.cartan_pair(norm.pole(y), v, w) - fd_cartan(norm, y, u, v, w)) < 1e-6


@pytest.mark.parametrize("make", [
    lambda d, rng: Randers(_pd_matrix(d, rng), 0.15 * rng.standard_normal(d)),
    lambda d, rng: Quartic(0.5 + rng.random(3), [_pd_matrix(d, rng) for _ in range(3)]),
    lambda d, rng: Quadratic(_pd_matrix(d, rng)),
])
def test_cartan_mat_against_fd_oracle(make):
    """C_y(u, v, .) from cartan_pair, and from the matrix cartan_matrix builds
    over the basis with it, against the oracle in every slot."""
    d, rng = 4, np.random.default_rng(7)
    norm = make(d, rng)
    for _ in range(3):
        y, u, v = (rng.standard_normal(d) for _ in range(3))
        want = [fd_cartan(norm, y, u, v, e) for e in np.eye(d)]
        for got in (norm.cartan_pair(norm.pole(y), u, v), u @ cartan_matrix(norm, y, v)):
            assert np.abs(got - want).max() < 1e-6 * max(1.0, np.abs(got).max())


@pytest.mark.parametrize("make", [
    lambda d, rng: Quadratic(_pd_matrix(d, rng)),
    lambda d, rng: Randers(_pd_matrix(d, rng), 0.15 * rng.standard_normal(d)),
    lambda d, rng: Quartic(0.5 + rng.random(3), [_pd_matrix(d, rng) for _ in range(3)]),
], ids=["quadratic", "randers", "quartic"])
def test_pole_and_cartan_take_a_complex_step(make):
    """pole and cartan_pair are analytic in their rows: at y + i h v (and the
    Cartan slots x + i h z and w + i h s) the real part is the real
    evaluation and the imaginary part over h a derivative, here against
    central differences.  A float cast or a conjugation anywhere drops or
    flips the imaginary part.  The real parts agree to rounding: the quartic
    Cartan tensor sums cancelling terms, which complex and real arithmetic
    round apart by up to 5.7e-14 relative over 500 draws."""
    d, rng, h, eps = 5, np.random.default_rng(11), 1e-20, 1e-5
    norm = make(d, rng)

    def pair(t):  # C at y + t v in the slots x + t z and w + t s
        return norm.cartan_pair(norm.pole(y + t * v), x + t * z, w + t * s)

    for _ in range(3):
        y, v, x, z, w, s = (rng.standard_normal(d) for _ in range(6))
        pole = norm.pole(y + 1j * h * v)
        for got, real, plus, minus in (
                (pole[0], norm.gram(y), norm.gram(y + eps * v), norm.gram(y - eps * v)),
                (pair(1j * h), pair(0.0), pair(eps), pair(-eps))):
            assert np.abs(got.real - real).max() <= 1e-13 * max(1.0, np.abs(real).max())
            fd = (plus - minus) / (2.0 * eps)
            assert np.abs(got.imag / h - fd).max() <= 1e-6 * np.abs(fd).max()


def test_cartan_symmetry_and_base_annihilation():
    d = 4
    for norm in (Randers(np.eye(d), np.array([0.2, 0, 0, 0.0])),
                 Quartic([1.0, 1.0], [_pd_matrix(d, RNG) for _ in range(2)])):
        for _ in range(4):
            y, u, v, w = (RNG.standard_normal(d) for _ in range(4))
            pole = norm.pole(y)
            vals = [a @ norm.cartan_pair(pole, b, c)
                    for a, b, c in itertools.permutations((u, v, w))]
            assert max(vals) - min(vals) < 1e-8 * max(1.0, abs(vals[0]))
            assert abs(y @ norm.cartan_pair(pole, v, w)) < 1e-9


def test_positive_definiteness_sampled():
    d = 5
    norms = [
        Quadratic(_pd_matrix(d, RNG)),
        Randers(np.eye(d), np.array([0.4, 0.2, 0, 0, 0.0])),
        Quartic([1.0, 0.3], [_pd_matrix(d, RNG) for _ in range(2)]),
    ]
    for norm in norms:
        for _ in range(100):
            y = RNG.standard_normal(d)
            assert np.linalg.eigvalsh(norm.gram(y)).min() > 0


@pytest.mark.parametrize("make,match", [
    (lambda: Quadratic(np.ones((2, 3))), r"gram has shape \(2, 3\)"),
    (lambda: Quadratic(np.ones(3)), r"gram has shape \(3,\)"),
    (lambda: Randers(np.eye(3, 2), np.zeros(3)), r"gram has shape \(3, 2\)"),
    (lambda: Randers(np.eye(3), np.zeros(2)), r"b has shape \(2,\), not \(3,\)"),
    (lambda: Quartic([1.0, 1.0], [np.eye(5)]), r"weights has shape \(2,\), not \(1,\)"),
    (lambda: Quartic([1.0], np.eye(5)), r"quadratics has shape \(5, 5\)"),
    (lambda: Quartic([1.0], [np.ones((2, 3))]), r"quadratics has shape \(1, 2, 3\)"),
    (lambda: Quartic([1.0, 1.0], [np.eye(5), np.eye(4)]), "quadratics have the shapes"),
    (lambda: Quartic([1.0], []), r"quadratics has shape \(0,\)"),
], ids=["quadratic-not-square", "quadratic-vector", "randers-not-square", "randers-short-b",
        "quartic-long-weights", "quartic-one-matrix", "quartic-not-square",
        "quartic-mismatched", "quartic-empty"])
def test_constructors_reject_mis_shaped_arrays(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("make,match", [
    (lambda: Quadratic(np.diag([1.0, np.nan, 1.0])), "gram has entries that are not finite"),
    (lambda: Randers(np.diag([1.0, np.inf]), np.zeros(2)), "gram has entries that are not finite"),
    (lambda: Randers(np.eye(3), np.array([0.1, np.nan, 0.0])), "b has entries that are not finite"),
    (lambda: Randers(np.eye(2), np.array([-np.inf, 0.0])), "b has entries that are not finite"),
    (lambda: Quartic([1.0, np.nan], [np.eye(3), np.eye(3)]), "weights has entries that are not finite"),
    (lambda: Quartic([1.0], [np.diag([1.0, 1.0, np.inf])]), "quadratics has entries that are not finite"),
], ids=["quadratic-nan", "randers-inf-gram", "randers-nan-b", "randers-inf-b", "quartic-nan-weight",
        "quartic-inf-quadratic"])
def test_constructors_reject_non_finite_entries(make, match):
    with pytest.raises(ValueError, match=match):
        make()


_FAMILIES = {
    "quadratic": lambda q: Quadratic(q),
    "randers": lambda q: Randers(q, np.array([0.1, 0.0, 0.0])),
    "quartic": lambda q: Quartic([1.0, 0.5], [np.eye(3), q]),
}


def _stored(norm):
    return norm.qs[1] if isinstance(norm, Quartic) else norm.q


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_constructors_reject_asymmetric_matrices(family, scale):
    """Asymmetry above 1e-12 max(1, max|a|) raises; below it the matrix
    is stored as its symmetric part, and a symmetric one bit for bit."""
    a = scale * _pd_matrix(3, np.random.default_rng(7))
    assert np.array_equal(_stored(_FAMILIES[family](a)), a)
    skew = np.zeros((3, 3))
    skew[0, 1] = 1e-13 * scale
    near = a + skew
    q = _stored(_FAMILIES[family](near))
    assert np.array_equal(q, q.T) and np.array_equal(q, 0.5 * (near + near.T))
    skew[0, 1] = 1e-11 * scale
    with pytest.raises(ValueError, match="is not symmetric"):
        _FAMILIES[family](a + skew)


def test_randers_bound_enforced():
    with pytest.raises(ValueError, match="positive definiteness"):
        Randers(np.eye(2), np.array([1.1, 0.0]))


def test_reversibility_flags():
    d = 3
    assert Quadratic(np.eye(d)).reversible
    assert Quartic([1.0], [np.eye(d)]).reversible
    nr = Randers(np.eye(d), np.array([0.3, 0, 0.0]))
    assert not nr.reversible
    y = RNG.standard_normal(d)
    assert abs(nr.value(y) - nr.value(-y)) > 1e-3
    n4 = Quartic([1.0, 2.0], [_pd_matrix(d, RNG), _pd_matrix(d, RNG)])
    assert n4.value(y) == n4.value(-y)


@pytest.mark.parametrize("make", [
    lambda d: Quadratic(_pd_matrix(d, RNG)),
    lambda d: Randers(_pd_matrix(d, RNG), 0.1 * RNG.standard_normal(d)),
    lambda d: Quartic(0.5 + RNG.random(3), [_pd_matrix(d, RNG) for _ in range(3)]),
], ids=["Quadratic", "Randers", "Quartic"])
def test_hessian_undefined_at_origin(make):
    d = 5
    norm = make(d)
    y, w, v = (RNG.standard_normal(d) for _ in range(3))
    assert norm.cartan_pair(norm.pole(y), v, w).shape == (d,)
    with pytest.raises(ValueError, match="origin"):
        norm.gram(np.zeros(d))
    with pytest.raises(ValueError, match="origin"):
        norm.pole(np.zeros(d))


def test_fd_oracles_refuse_a_norm_without_an_extended_precision_form():
    class Euclidean(MinkowskiNorm):
        dim, reversible = 3, True

        def value(self, y):
            return float(np.linalg.norm(y))

    y, u, v = np.eye(3)
    with pytest.raises(TypeError, match="Euclidean"):
        fd_g_inner(Euclidean(), y, u, v)
    with pytest.raises(TypeError, match="Euclidean"):
        fd_cartan(Euclidean(), y, u, v, u)


def test_json_roundtrip():
    d = 3
    for norm in (Quadratic(_pd_matrix(d, RNG)),
                 Randers(np.eye(d), np.array([0.1, 0, 0.0])),
                 Quartic([1.0, 2.0], [np.eye(d), _pd_matrix(d, RNG)])):
        back = norm_from_json(json.loads(json.dumps(norm.to_json(), sort_keys=True)))
        y = RNG.standard_normal(d)
        assert abs(back.value(y) - norm.value(y)) < 1e-12


@pytest.fixture(scope="module")
def bn2():
    return preset("bn_excluded_subcase1", 2)


def test_check_invariance_levels(bn2):
    quad = Quadratic(np.eye(bn2.dim_m))
    assert check_invariance(quad, bn2)["max_residual"] < 1e-9
    inv = random_invariant_norm(bn2, 11)
    assert check_invariance(inv, bn2)["max_residual"] < 1e-7
    bad = Quartic([1.0], [np.diag([2.0] + [1.0] * (bn2.dim_m - 1))])
    assert check_invariance(bad, bn2)["max_residual"] > 1e-3


def test_random_invariant_norm_determinism_and_reversibility(bn2):
    n1 = random_invariant_norm(bn2, 42)
    n2 = random_invariant_norm(bn2, 42)
    def text(norm):
        return json.dumps(norm.to_json(), sort_keys=True)

    assert text(n1) == text(n2)
    assert text(random_invariant_norm(bn2, 43)) != text(n1)
    assert n1.reversible
    y = RNG.standard_normal(bn2.dim_m)
    assert n1.value(y) == n1.value(-y)
    assert np.linalg.eigvalsh(n1.gram(y)).min() > 0


@pytest.mark.parametrize("name,params", [
    ("su2_group", None), ("bn_excluded_subcase1", (2,)), ("sphere_un", (3,)),
])
def test_invariant_basis_same_as_full_svd(monkeypatch, name, params):
    """The thin SVD keeps the basis of the full decomposition, including
    the short stack of a space with h = 0."""
    if params is None:
        from fractions import Fraction
        from flagcurv.coset import SubalgebraSpec, build_coset
        from flagcurv.liealg import AlgebraSpec, realize
        space = build_coset(realize(AlgebraSpec((("A", 1, Fraction(1)),))),
                            SubalgebraSpec(), name="su(2) group")
    else:
        space = preset(name, *params)
    thin = invariant_quadratic_space(space)
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, full_matrices=True: svd(a, full_matrices=True))
    full = invariant_quadratic_space(space)
    assert len(thin) == len(full) > 0
    if params is None:
        assert len(full) == 6  # every symmetric form on su(2) is invariant
    for s, t in zip(thin, full):
        assert np.abs(s - t).max() <= 1e-12


def test_invariant_quadratics_commute_with_isotropy(bn2):
    _, _, kh = bn2.structure_tensors()
    for s in invariant_quadratic_space(bn2):
        for a in kh:
            assert np.abs(a @ s - s @ a).max() < 1e-9


def _block_orthogonality(space, norm, u, blocks):
    g = norm.gram(u)
    worst = 0.0
    for (i, bi), (j, bj) in itertools.combinations(list(enumerate(blocks)), 2):
        for x in bi:
            for y in bj:
                worst = max(worst, abs(x @ g @ y))
    return worst


def test_hat_blocks_orthogonal_at_central_pole(bn2):
    """For u in the zero block, the hat decomposition is orthogonal for the
    Hessian inner product of any invariant norm."""
    norm = random_invariant_norm(bn2, 5)
    hat = bn2.hat_decomposition()
    rng = np.random.default_rng(0)
    for _ in range(5):
        c = rng.standard_normal(len(hat[0].basis))
        u = sum(ci * bi for ci, bi in zip(c, hat[0].basis))
        u = u / np.linalg.norm(u)
        worst = _block_orthogonality(bn2, norm, u, [b.basis for b in hat])
        assert worst < 1e-7


def test_hat_block_pole_orthogonal_to_center(bn2):
    """For u inside a nonzero hat block of a reversible invariant norm, the
    block is Hessian-orthogonal to the zero block (odd-multiple rule)."""
    norm = random_invariant_norm(bn2, 9)
    hat = bn2.hat_decomposition()
    g0 = hat[0].basis
    blk = hat[1].basis
    rng = np.random.default_rng(1)
    for _ in range(5):
        c = rng.standard_normal(len(blk))
        u = sum(ci * bi for ci, bi in zip(c, blk))
        u = u / np.linalg.norm(u)
        g = norm.gram(u)
        worst = max(abs(x @ g @ y) for x in blk for y in g0)
        assert worst < 1e-7


def test_even_multiple_blocks_may_couple():
    """On the Berger space the projection ladder has an even multiple; the
    odd-multiple orthogonality applies to the odd levels."""
    sp = preset("berger_sp2")
    norm = random_invariant_norm(sp, 3)
    hat = sp.hat_decomposition()
    # blocks: g0, then levels 1, 2, 3 of the base projection
    lvl = {1: hat[1].basis, 2: hat[2].basis, 3: hat[3].basis}
    rng = np.random.default_rng(2)
    c = rng.standard_normal(2)
    u = sum(ci * bi for ci, bi in zip(c, lvl[1]))
    u = u / np.linalg.norm(u)
    g = norm.gram(u)
    for k in (1, 3):  # odd multiples of the pole's level are orthogonal to g0
        worst = max(abs(x @ g @ y) for x in lvl[k] for y in hat[0].basis)
        assert worst < 1e-7


def _seeded_stack(rows, sv, seed):
    """A rows x len(sv) stack U diag(sv) V' with random orthonormal U and V,
    and V: its column k is the direction of the singular value sv[k]."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((rows, len(sv))))[0]
    v = np.linalg.qr(rng.standard_normal((len(sv), len(sv))))[0]
    return (u * sv) @ v.T, v


@pytest.mark.parametrize("rows", [20, 8])  # the QR path and the plain SVD path
def test_null_tol_splits_1e9_from_1e7(rows):
    """A singular value of 1e-9 is null and one of 1e-7 is not, on both paths
    of _null_rows, so NULL_TOL is pinned from both sides."""
    cols = 6
    assert (rows >= int(norms.MNTHR_RATIO * cols)) == (rows == 20)
    stack, v = _seeded_stack(rows, [1e-9, 1e-7, 1.0, 2.0, 3.0, 4.0], seed=rows)
    null = norms._null_rows(stack)
    assert np.linalg.norm(null @ v[:, 0]) == pytest.approx(1.0, abs=1e-6)
    assert np.linalg.norm(null @ v[:, 1]) < 1e-6


@pytest.mark.parametrize("shape", [(5, 1), (20, 6)])
def test_null_rows_leave_a_stack_they_do_not_own_unchanged(shape):
    """An (m, 1) stack is both C- and F-ordered and a tall C-ordered one is
    its own buffer: neither is factored in place unless owned."""
    stack = np.random.default_rng(3).standard_normal(shape)
    before = stack.copy()
    assert len(stack) >= int(norms.MNTHR_RATIO * shape[1])  # the QR path
    norms._null_rows(stack)
    assert np.array_equal(stack, before)


def test_null_rows_raise_when_the_qr_factorization_fails(monkeypatch):
    class FailingLapack:
        @staticmethod
        def dgeqrf(*args):
            return {"info": -4}

    monkeypatch.setattr(norms, "lapack_lite", FailingLapack)
    with pytest.raises(np.linalg.LinAlgError, match="QR factorization"):
        norms._null_rows(np.ones((20, 6)))


def test_invariant_forms_leave_the_structure_tensors_unchanged():
    """invariant_vectors passes a view of the cached Kh and the invariant
    forms factor their own stack: the cached tensors stay byte for byte."""
    from test_null_space_bits import PRESETS
    for name in PRESETS:
        sp = parse_preset(f"preset:{name}")
        before = [t.tobytes() for t in sp.structure_tensors()]
        norms.invariant_vectors(sp)
        norms.invariant_quadratic_space(sp)
        random_invariant_norm(sp, 0)
        assert [t.tobytes() for t in sp.structure_tensors()] == before, name


def test_invariant_forms_factor_their_stack_in_place():
    """The peak traced memory of invariant_quadratic_space on
    cn_excluded_subcase1(4) stays near its one 6877 x 276 stack (15.2 MB);
    a copy of the stack before the QR would double it."""
    sp = preset("cn_excluded_subcase1", 4)
    _, _, kh = sp.structure_tensors()
    d = sp.dim_m
    stack_bytes = len(kh) * d * d * (d * (d + 1) // 2) * 8
    assert stack_bytes == 6877 * 276 * 8
    tracemalloc.start()
    try:
        invariant_quadratic_space(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * stack_bytes
