"""Row-wise kernels of the curvature engine and the norms' Cartan tensors.

Every kernel, the norms' per-pole call and flag_curvature itself give each
row of a stack the bits that row gets alone, and every kernel equals its
einsum definition over `structure_tensors()` (for the Cartan tensors: the
einsum form of the third derivative) to 1e-13 relative.  The Cartan tensor
of a nearly Riemannian norm is a small difference of terms of the size of
|g_y| |u| |v| / |y|, so its error is taken relative to that.
"""

from fractions import Fraction

import numpy as np
import pytest

from fd_oracles import cartan_matrix
from flagcurv.coset import SubalgebraSpec, build_coset, parse_preset
from flagcurv.curvature import CurvatureEngine
from flagcurv.liealg import AlgebraSpec, realize
from flagcurv.norms import Quadratic, Quartic, Randers, random_invariant_norm

# the flags-finsler presets of the benchmark, and a group (h = 0)
PRESETS = ("sphere_un(3)", "sphere_spn_u1(2)", "sphere_spn_sp1(2)", "aloff_wallach(1,2)",
           "bn_excluded_subcase1(2)", "a1a1_diagonal(1)", "cn_excluded_subcase1(3)", "su(3)")
ROWS = (1, 7, 64)
REL = 1e-13


def _space(name):
    if name == "su(3)":
        return build_coset(realize(AlgebraSpec((("A", 2, Fraction(1)),))), SubalgebraSpec(),
                           name="su(3) group")
    return parse_preset(f"preset:{name}")


@pytest.fixture(scope="module", params=PRESETS)
def engine(request):
    sp = _space(request.param)
    return CurvatureEngine(sp, random_invariant_norm(sp, 0))


def _close(got, want, scale=None):
    assert got.shape == want.shape
    scale = np.abs(want).max(initial=0.0) if scale is None else scale
    assert np.abs(got - want).max(initial=0.0) <= REL * scale


def _quartic_cartan(norm, y, u, v):
    """C_y(u, v, .) = 1/4 D^3[sqrt P](u, v, .) of a Quartic, in einsum form."""
    qs, wk = np.array(norm.qs), norm.weights
    qy, qu, qv = (np.einsum("kij,...j->...ki", qs, t) for t in (y, u, v))
    vals, gu, gv, uqv = (np.einsum("...ki,...i->...k", a, t)
                         for a, t in ((qy, y), (qy, u), (qy, v), (qu, v)))
    p = np.einsum("k,...k->...", wk, vals ** 2)[..., None]
    dp = 4.0 * np.einsum("...k,...ki->...i", wk * vals, qy)
    du, dv = (np.einsum("...i,...i->...", dp, t)[..., None] for t in (u, v))
    d2uv = 4.0 * np.einsum("k,...k->...", wk, 2.0 * gu * gv + vals * uqv)[..., None]
    d2u, d2v = (4.0 * (np.einsum("...k,...ki->...i", 2.0 * wk * g, qy)
                       + np.einsum("...k,...ki->...i", wk * vals, q))
                for g, q in ((gu, qu), (gv, qv)))
    d3 = 8.0 * np.einsum("...k,...ki->...i", wk * uqv, qy) \
        + 8.0 * np.einsum("...k,...ki->...i", wk * gv, qu) \
        + 8.0 * np.einsum("...k,...ki->...i", wk * gu, qv)
    sp = np.sqrt(p)
    return 0.25 * (d3 / (2.0 * sp) - (d2uv * dp + d2u * dv + d2v * du) / (4.0 * p * sp)
                   + 3.0 * du * dv * dp / (8.0 * p ** 2 * sp))


def _draws(engine, rows, seed=0):
    return np.random.default_rng(seed).standard_normal((3, rows, engine.space.dim_m))


def _kernels(engine):
    """name -> (kernel, number of stacked arguments)."""
    norm = engine.norm
    return {"_ad": (engine._ad, 1), "brm": (engine.brm, 2), "brh": (engine.brh, 2),
            "connection_n": (engine.connection_n, 2),
            "cartan_pair": (lambda y, v, w: norm.cartan_pair(norm.pole(y), v, w), 3)}


@pytest.mark.parametrize("rows", ROWS)
def test_kernels_give_each_row_its_own_bits(engine, rows):
    args = _draws(engine, rows, seed=rows)
    for name, (fn, n) in _kernels(engine).items():
        stacked = fn(*args[:n])
        assert len(stacked) == rows, name
        for i in range(rows):
            assert np.array_equal(fn(*(a[i] for a in args[:n])), stacked[i]), (name, i)


@pytest.mark.parametrize("rows", ROWS)
def test_flag_curvature_gives_each_row_its_own_bits(engine, rows):
    u, v, _ = _draws(engine, rows, seed=rows)
    stacked = engine.flag_curvature(u, v)
    assert len(stacked) == rows
    for i in range(rows):
        if isinstance(stacked[i], ValueError):
            with pytest.raises(ValueError, match=str(stacked[i])):
                engine.flag_curvature(u[i], v[i])
        else:
            assert engine.flag_curvature(u[i], v[i]) == stacked[i], i


def test_kernels_match_their_einsum_definitions(engine):
    cm, ch, _ = engine.space.structure_tensors()
    x, y, _ = _draws(engine, 7)
    _close(engine._ad(y), np.einsum("...j,ijk->...ik", y, cm))
    _close(engine.brm(x, y), np.einsum("...i,...j,ijk->...k", x, y, cm))
    _close(engine.brh(x, y), np.einsum("...i,...j,ija->...a", x, y, ch))
    # g_u N(u, w) = ([w, .]_m-term + B g w + g B' w) / 2 - C_u(w, eta, .)
    u, w = y, x
    g = engine.norm.gram(u)
    eta = engine.eta(u)[0]
    bu = np.einsum("...j,ijk->...ik", u, cm)
    rhs = (np.einsum("...j,ijk,...lk,...l->...i", w, cm, g, u)
           + np.einsum("...ik,...kl,...l->...i", bu, g, w)
           + np.einsum("...ik,...jk,...j->...i", g, bu, w))
    want = np.linalg.solve(g, (0.5 * rhs - _quartic_cartan(engine.norm, u, w, eta))[..., None])
    _close(engine.connection_n(u, w), want[..., 0])


def test_cartan_matrices_match_their_einsum_definitions(engine):
    """C_y(u, v, .) from cartan_pair and from the matrix C_y(., ., v) built
    over the basis with it."""
    y, v, u = _draws(engine, 7)
    norm = engine.norm
    size = (np.abs(norm.gram(y)).max(axis=(-1, -2)) * np.linalg.norm(u, axis=-1)
            * np.linalg.norm(v, axis=-1) / np.linalg.norm(y, axis=-1))
    want = _quartic_cartan(norm, y, u, v)
    _close(norm.cartan_pair(norm.pole(y), u, v), want, scale=size.max())
    _close(np.einsum("...i,...ij->...j", u, cartan_matrix(norm, y, v)), want, scale=size.max())


def _pd_matrix(d, rng):
    a = rng.standard_normal((d, d))
    return a @ a.T + 0.5 * np.eye(d)


@pytest.mark.parametrize("family", ["Quadratic", "Randers", "Quartic"])
@pytest.mark.parametrize("rows", ROWS)
def test_norm_kernels_give_each_row_its_own_bits(family, rows):
    d, rng = 6, np.random.default_rng(rows)
    norm = {"Quadratic": lambda: Quadratic(_pd_matrix(d, rng)),
            "Randers": lambda: Randers(_pd_matrix(d, rng), 0.1 * rng.standard_normal(d)),
            "Quartic": lambda: Quartic(0.5 + rng.random(3), [_pd_matrix(d, rng) for _ in range(3)]),
            }[family]()
    y, v, w = rng.standard_normal((3, rows, d))
    pole, gram = norm.pole(y), norm.gram(y)
    cartan = norm.cartan_pair(pole, v, w)
    assert gram.shape == (rows, d, d) and cartan.shape == (rows, d)
    shared = family == "Quadratic"  # its pole is its one Gram matrix, no row axes
    if shared:
        assert len(pole) == 1 and np.array_equal(pole[0], norm.q)
        assert all(np.array_equal(g, pole[0]) for g in gram)
    else:
        assert np.array_equal(pole[0], gram) and all(len(t) == rows for t in pole)
    for i in range(rows):
        want = pole if shared else [t[i] for t in pole]
        assert all(np.array_equal(a, b) for a, b in zip(norm.pole(y[i]), want, strict=True))
        assert np.array_equal(norm.gram(y[i]), gram[i])
        assert np.array_equal(norm.cartan_pair(norm.pole(y[i]), v[i], w[i]), cartan[i])


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("name", PRESETS)
def test_a_shared_gram_matrix_gives_each_row_its_own_bits(name, rows):
    """A Quadratic norm's one Gram matrix (no row axes) is factored once per
    stack and its inverse applied row by row; one vector runs as a one-row
    stack, so eta, connection_n and flag_curvature of one row equal its row
    of the stack bit for bit, the complex step of eta != 0 included."""
    sp = _space(name)
    engine = CurvatureEngine(sp, Quadratic(random_invariant_norm(sp, 0).qs[0]))
    u, v, _ = _draws(engine, rows, seed=rows)
    (eta, resid), nw = engine.eta(u), engine.connection_n(u, v)
    reports = engine.flag_curvature(u, v)
    assert len(reports) == rows and any(r.fd_step > 0 for r in reports)
    for i in range(rows):
        e, r = engine.eta(u[i])
        assert np.array_equal(e, eta[i]) and r == resid[i], i
        assert np.array_equal(engine.connection_n(u[i], v[i]), nw[i]), i
        assert engine.flag_curvature(u[i], v[i]) == reports[i], i
