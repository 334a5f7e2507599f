"""The pairing identities of the curvature engine, against the formula they
replaced, and the work the engine does per flag stack.

The curvature form pairs every Rt term with g_u w, and g_u N(u, x) = A(u) x,
so <N(u, x), w>_u = (A' w) . x and, at an offset pole p,
<N(p, w), w>_u = (A_p w) . g_p^-1 g_u w; the engine applies A and A' to w
and never forms A.  The oracle below evaluates
<R_u w, w>_u one flag at a time without them: eta, then N(u, w),
N(u, N(u, w)), N(u, [w, u]_m) and N(p, w) at both poles, each its own
connection_n call with a frame built at its pole, and D_eta N(u, w) by
central differences between the real poles u +- h eta/|eta|.  The engine
sums in another order and takes a complex step at u + i h eta/|eta|, so K
agrees to 1e-9 relative, not bit for bit.
"""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from fd_oracles import cartan_matrix
from flagcurv.coset import SubalgebraSpec, build_coset, parse_preset
from flagcurv.curvature import (ETA_ZERO_TOL, CurvatureEngine, CurvatureReport,
                                exclusion_witness_pair, verify_exclusion_witness)
from flagcurv.liealg import AlgebraSpec, realize
from flagcurv.norms import (Quadratic, Quartic, Randers, _mv, _vm, invariant_vectors,
                            random_invariant_norm)

# the flags-finsler and flags-normal presets of the benchmark
FINSLER = ("sphere_un(3)", "sphere_spn_u1(2)", "sphere_spn_sp1(2)", "aloff_wallach(1,2)",
           "bn_excluded_subcase1(2)", "a1a1_diagonal(1)", "cn_excluded_subcase1(3)")
NORMAL = ("sphere_so2n(4)", "sphere_un(4)", "sphere_spn_u1(2)", "sphere_spn_sp1(3)",
          "berger_sp2", "aloff_wallach(1,2)", "cn_excluded_subcase1(3)")
# (preset, norm seed or None for Quadratic(I))
CASES = ([(p, s) for p in FINSLER for s in (0, 1)] + [(p, None) for p in NORMAL]
         + [("su(3)", 0), ("su(3)", None)])
FLAGS = 8
REL = 1e-9
# relative step of the oracle's central difference, its own so that the
# engine's complex step can shrink without moving it
CENTRAL_STEP = 1e-5


def _space(name):
    if name == "su(3)":
        return build_coset(realize(AlgebraSpec((("A", 2, Fraction(1)),))), SubalgebraSpec(),
                           name="su(3) group")
    return parse_preset(f"preset:{name}")


def _engine(name, seed):
    sp = _space(name)
    norm = Quadratic(np.eye(sp.dim_m)) if seed is None else random_invariant_norm(sp, seed)
    return CurvatureEngine(sp, norm)


def _five_solve_k(eng, u, w):
    """Flag curvature of one flag from the connection terms of Rt(u)w, each
    solved on its own, D_eta N by a central difference of step
    CENTRAL_STEP |u|."""
    g = eng.norm.gram(u)
    eta, _ = eng.eta(u)
    speed = np.linalg.norm(eta)
    nw = eng.connection_n(u, w)
    rt = -eng.connection_n(u, nw) - eng.connection_n(u, eng.brm(w, u)) + eng.brm(nw, u)
    if speed >= ETA_ZERO_TOL:
        h = CENTRAL_STEP * np.linalg.norm(u)
        off = h * eta / speed
        rt = rt + speed * (eng.connection_n(u + off, w) - eng.connection_n(u - off, w)) / (2.0 * h)
    zh = np.einsum("a,i,aij->j", eng.brh(w, u), w, eng.space.structure_tensors()[2])
    gu, gw = g @ u, g @ w
    return (zh @ gu + rt @ gw) / ((u @ gu) * (w @ gw) - (w @ gu) ** 2)


@pytest.mark.parametrize("name,seed", CASES, ids=[f"{p}-{s}" for p, s in CASES])
def test_engine_agrees_with_the_five_solve_formula(name, seed):
    eng = _engine(name, seed)
    u, v = np.random.default_rng(3).standard_normal((2, FLAGS, eng.space.dim_m))
    reps = eng.flag_curvature(u, v)
    assert all(isinstance(r, CurvatureReport) for r in reps)
    assert any(r.fd_step > 0 for r in reps) == (seed is not None)  # Quadratic(I): eta = 0
    for i, rep in enumerate(reps):
        want = _five_solve_k(eng, u[i], v[i])
        assert abs(rep.k - want) <= REL * abs(want), (i, rep.k, want)


@pytest.mark.parametrize("name,seed", [("bn_excluded_subcase1(2)", 0), ("sphere_un(3)", "randers"),
                                       ("su(3)", 1)])
def test_connection_pairs_through_the_operator(name, seed):
    """<N(u, x), w>_u = (A' w) . x, with A' w as the engine applies it (S -
    T w / 2) and from the connection operator A = (T + B g + g B' -
    2 C_u(., eta, .)) / 2 built here from the structure tensors."""
    sp = _space(name)
    if seed == "randers":
        b = sp.to_m(sp.embed(sp.t_m[0]))
        norm = Randers(np.eye(sp.dim_m), 0.25 * b / np.linalg.norm(b))
    else:
        norm = random_invariant_norm(sp, seed)
    eng = CurvatureEngine(sp, norm)
    u, x, w = np.random.default_rng(5).standard_normal((3, 16, sp.dim_m))
    pole = eng._positive_pole(u)
    g = pole[0]
    _, gu, bu, eta, _ = eng.eta(u, _g=g, _parts=True)
    gw = _mv(g, w)
    engine_atw = (eng._sym_w(pole, bu, eta, w, gw, _vm(w, bu))
                  - 0.5 * _mv(eng._ad(w), gu))
    cm = sp.structure_tensors()[0]
    t = np.einsum("ijk,nk->nij", cm, gu)
    bmat = np.einsum("nj,ijk->nik", u, cm)
    a = 0.5 * (t + bmat @ g + g @ np.swapaxes(bmat, -1, -2)) - cartan_matrix(norm, u, eta)
    got = np.einsum("ni,nij,nj->n", eng.connection_n(u, x), g, w)
    for atw in (engine_atw, np.einsum("ni,nij->nj", w, a)):
        want = np.einsum("nj,nj->n", atw, x)
        scale = np.linalg.norm(atw, axis=-1) * np.linalg.norm(x, axis=-1)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


LINALG = ("cholesky", "inv", "solve")


@pytest.mark.parametrize("name,seed,linalg,rows", [
    # spray: one Cholesky gate and three real LU solves with g_u, the last for
    # the imaginary parts at the complex poles; one Cartan pair, at the poles:
    # the frame at u is their real part
    ("bn_excluded_subcase1(2)", 0, {"cholesky": 1, "solve": 3, "cartan_pair": 1}, [16, 16]),
    # Quadratic(I): eta = 0, no poles, one Gram matrix for every row, C = 0,
    # gated and inverted when the norm was built
    ("berger_sp2", None, {}, [16]),
], ids=["spray", "no-spray"])
def test_one_flag_stack_counts_its_solves_and_norm_calls(monkeypatch, name, seed, linalg, rows):
    """Tooling guard: a flag stack solves for eta and N(u, w) at u and once,
    two real columns with g_u, for the imaginary parts at the complex poles
    (their real parts are eta and w), and evaluates the norm once at u and
    once at the poles, n rows each, with one Cartan pair C(., eta, w), at
    the poles: the frame at u is their real part; a norm whose Gram matrix
    every row shares was factored when it was built, so a stack makes no
    Cholesky gate, inverse or LU solve and asks for no Cartan pair.  A
    per-term solve or norm call, a factorization per stack of a shared Gram
    matrix, a complex solve, a return to 2n real finite-difference poles or
    to a real Cartan pair at u fails this."""
    eng = _engine(name, seed)
    u, v = np.random.default_rng(7).standard_normal((2, 16, eng.space.dim_m))
    calls = Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            # a linear-algebra call on a complex array counts apart
            kind = "complex " if key in LINALG and any(map(np.iscomplexobj, args)) else ""
            calls[kind + key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key in LINALG:
        monkeypatch.setattr(np.linalg, key, counting(key, getattr(np.linalg, key)))
    cls = type(eng.norm)
    pole_rows, norm_pole = [], cls.pole

    def pole(norm, y):
        pole_rows.append(len(y))
        return norm_pole(norm, y)

    monkeypatch.setattr(cls, "pole", pole)
    monkeypatch.setattr(cls, "cartan_pair", counting("cartan_pair", cls.cartan_pair))
    reps = eng.flag_curvature(u, v)
    assert all(isinstance(r, CurvatureReport) for r in reps)
    assert any(r.fd_step > 0 for r in reps) == (len(rows) == 2)
    assert calls == linalg
    assert pole_rows == rows


@pytest.mark.parametrize("seed,linalg", [
    (0, {"cholesky": 1, "solve": 2}),  # random_invariant_norm: Quartic, g per row
    (None, {}),  # Quadratic(I): gated and inverted when it was built
], ids=["quartic", "quadratic"])
def test_the_commutative_route_inverts_no_gram_matrix_of_its_own(monkeypatch, seed, linalg):
    """Tooling guard: flag_curvature_commutative evaluates the norm once, at u
    as a one-row stack, and gates it once, so a per-row Gram matrix gets one
    Cholesky gate and two LU solves (eta, then U(u, v)), never an inverse;
    the shared g of a Quadratic was gated and inverted when the norm was
    built, so the route factors and solves nothing."""
    eng = _engine("bn_excluded_subcase1(2)", seed)
    u, v = exclusion_witness_pair(eng.space, random_invariant_norm(eng.space, 0))
    calls, poles = Counter(), []

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key in LINALG:
        monkeypatch.setattr(np.linalg, key, counting(key, getattr(np.linalg, key)))
    cls = type(eng.norm)
    norm_pole = cls.pole
    monkeypatch.setattr(cls, "pole",
                        lambda norm, y: poles.append(np.shape(y)) or norm_pole(norm, y))
    rep = eng.flag_curvature_commutative(u, v, cross_check=False)
    assert calls == linalg
    assert poles == [(1, eng.space.dim_m)]
    assert rep.u_norm == pytest.approx(np.sqrt(rep.k * _area2(eng, u, v)), rel=1e-9, abs=1e-12)


def _area2(eng, u, v):
    g = eng.norm.gram(u)
    return (u @ g @ u) * (v @ g @ v) - (u @ g @ v) ** 2


@pytest.mark.parametrize("name", ["bn_excluded_subcase1(2)", "a1a1_diagonal(1)",
                                  "cn_excluded_subcase1(3)"])
def test_the_witness_evaluates_the_norm_at_u_twice_before_its_cross_check(monkeypatch, name):
    """Tooling guard: verify_exclusion_witness evaluates the norm at u once to
    pick v and once on the commutative route, which hands it |U(u, v)|_u; the
    cross-check (flag_curvature) is stubbed out here."""
    sp, poles, norm_pole = _space(name), [], Quartic.pole  # random_invariant_norm's family
    monkeypatch.setattr(Quartic, "pole",
                        lambda norm, y: poles.append(np.shape(y)) or norm_pole(norm, y))
    monkeypatch.setattr(CurvatureEngine, "flag_curvature",
                        lambda eng, u, v: CurvatureReport(0.0, "stub"))
    rep = verify_exclusion_witness(sp, 0)
    assert poles == [(sp.dim_m,), (1, sp.dim_m)]
    assert rep["u_map_norm"] < 1e-7 and rep["K_general"] == 0.0


def test_a_stack_mixing_zero_and_nonzero_spray_gives_each_row_its_own_k():
    """On aloff_wallach(1,2) under Randers(I, 0.3 b), b an Ad(H)-fixed unit
    vector, a pole u parallel to b has eta = 0 exactly (g_b(b, [w, b]_m) is
    proportional to <b, [w, b]_m> = 0), a generic one eta != 0.  A stack of
    both takes the complex step, so its h = 0 rows read the frame at u off
    the real part at p = u: every row must give a finite K, equal to that of
    its one-row stack (which builds the frame at u when eta = 0).  The step
    term must be masked to h > 0; 0/0 there gives NaN."""
    sp = _space("aloff_wallach(1,2)")
    b = invariant_vectors(sp)[0]
    eng = CurvatureEngine(sp, Randers(np.eye(sp.dim_m), 0.3 * b))
    rng = np.random.default_rng(11)
    generic = rng.standard_normal((3, sp.dim_m))
    u = np.array([generic[0], b, generic[1], -2.0 * b, generic[2]])
    v = rng.standard_normal((5, sp.dim_m))
    reps = eng.flag_curvature(u, v)
    assert [r.fd_step > 0 for r in reps] == [True, False, True, False, True]
    for i, rep in enumerate(reps):
        one = eng.flag_curvature(u[i], v[i])
        assert np.isfinite(rep.k) and abs(rep.k - one.k) <= 1e-13 * abs(one.k), (i, rep.k, one.k)


# K of four flags (rng 9) under Quadratic(Q), Q the first quadratic of
# random_invariant_norm(space, 0): eta != 0, recorded when the engine
# still broadcast a Quadratic's Gram matrix to every row and LU-solved it
# there, with the complex step at 1e-5 |u|
SHARED_PINNED = {
    "bn_excluded_subcase1(2)": [0.22887282491334213, 0.3274949956073209, 0.5094659069494747,
                                0.3378578563787056],
    "a1a1_diagonal(1)": [0.524421388311487, 0.6043789962160993, 0.4083816213361197,
                         0.37503911722773214],
    "sphere_spn_u1(2)": [1.185828911606875, 1.0099428687653902, 1.7940013581394216,
                         0.7499842796605574],
}


@pytest.mark.parametrize("name", SHARED_PINNED)
def test_a_shared_gram_matrix_takes_the_complex_step(name):
    """A Quadratic(Q) with eta != 0 reaches the complex step through its one
    Gram matrix (the inverse of g_u serves g_p, the same matrix), and K
    agrees with the per-row LU route and with the recorded values to
    rounding: for a quadratic norm t(p) is linear in p, so the step size
    does not enter."""
    sp = _space(name)
    q = random_invariant_norm(sp, 0).qs[0]

    class PerRow(Quadratic):  # the same norm, its Gram matrix on every row
        def pole(self, y):
            return (np.broadcast_to(self.q, y.shape + y.shape[-1:]),)

    u, v = np.random.default_rng(9).standard_normal((2, 4, sp.dim_m))
    shared = CurvatureEngine(sp, Quadratic(q)).flag_curvature(u, v)
    per_row = CurvatureEngine(sp, PerRow(q)).flag_curvature(u, v)
    assert all(r.eta_norm > 0.3 and r.fd_step > 0 for r in shared)
    for rep, row, want in zip(shared, per_row, SHARED_PINNED[name]):
        assert abs(rep.k - row.k) <= 1e-14 * abs(want)
        assert abs(rep.k - want) <= 1e-14 * abs(want)
