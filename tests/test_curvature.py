"""Flag curvature: implicit operators, oracles, the commutative fast path."""

from fractions import Fraction

import numpy as np
import pytest

from flagcurv.liealg import AlgebraSpec, realize
from flagcurv.coset import SubalgebraSpec, build_coset, preset
from flagcurv.norms import Quadratic, Quartic, Randers, random_invariant_norm
from flagcurv.rootsys import root
from flagcurv.curvature import (
    CurvatureEngine,
    CurvatureReport,
    bi_invariant_oracle,
    exclusion_witness_pair,
    flag_curvature,
    flag_curvature_commutative,
    normal_homogeneous_oracle,
    sample_flags,
    verify_exclusion_witness,
)


@pytest.fixture(scope="module")
def su2_group():
    alg = realize(AlgebraSpec((("A", 1, Fraction(1)),)))
    return build_coset(alg, SubalgebraSpec(), name="su(2) group")


@pytest.fixture(scope="module")
def su3_group():
    alg = realize(AlgebraSpec((("A", 2, Fraction(1)),)))
    return build_coset(alg, SubalgebraSpec(), name="su(3) group")


@pytest.fixture(scope="module")
def bn2():
    return preset("bn_excluded_subcase1", 2)


@pytest.fixture(scope="module")
def un3():
    return preset("sphere_un", 3)


def test_eta_vanishes_for_bi_invariant_metric(su3_group):
    norm = Quadratic(np.eye(su3_group.dim_m))
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = rng.standard_normal(su3_group.dim_m)
        assert np.linalg.norm(CurvatureEngine(su3_group, norm).eta(u)[0]) < 1e-10


def test_eta_vanishes_on_central_pole_with_invariant_norm(un3):
    norm = random_invariant_norm(un3, 4)
    u = un3.to_m(un3.embed(un3.t_m[0]))
    assert np.linalg.norm(CurvatureEngine(un3, norm).eta(u)[0]) < 1e-8


def test_eta_nonzero_for_generic_randers(un3):
    b = un3.to_m(un3.embed(un3.t_m[0]))
    norm = Randers(np.eye(un3.dim_m), 0.25 * b / np.linalg.norm(b))
    rng = np.random.default_rng(1)
    u = rng.standard_normal(un3.dim_m)
    assert np.linalg.norm(CurvatureEngine(un3, norm).eta(u)[0]) > 1e-4


def test_connection_equals_u_map_on_eligible_pair(bn2):
    norm = random_invariant_norm(bn2, 7)
    u, v = exclusion_witness_pair(bn2, norm)
    eng = CurvatureEngine(bn2, norm)
    assert np.linalg.norm(eng.connection_n(u, v) - eng.u_map(u, v)) < 1e-9


def test_connection_vanishes_on_commuting_cartan_pair(su3_group):
    norm = Quadratic(np.eye(su3_group.dim_m))
    t1 = su3_group.to_m(su3_group.embed(su3_group.t_m[0]))
    t2 = su3_group.to_m(su3_group.embed(su3_group.t_m[1]))
    assert np.linalg.norm(CurvatureEngine(su3_group, norm).connection_n(t1, t2)) < 1e-9


def test_connection_is_linear_in_the_direction(bn2):
    norm = random_invariant_norm(bn2, 3)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(bn2.dim_m)
    w1 = rng.standard_normal(bn2.dim_m)
    w2 = rng.standard_normal(bn2.dim_m)
    a, b = 0.7, -1.3
    eng = CurvatureEngine(bn2, norm)
    lhs = eng.connection_n(u, a * w1 + b * w2)
    rhs = a * eng.connection_n(u, w1) + b * eng.connection_n(u, w2)
    assert np.linalg.norm(lhs - rhs) < 1e-9


def _riemann_quadratic(eng, u, w):
    """<R_u(w), w>_u through the stacked path that flag_curvature runs."""
    q, *_ = eng._riemann_quadratic(u[None], w[None], eng._positive_pole(u[None]))
    return float(q[0])


def test_riemann_quadratic_vanishes_on_pole(su3_group, bn2):
    for sp, seed in ((su3_group, 0), (bn2, 1)):
        norm = random_invariant_norm(sp, seed)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(sp.dim_m)
        assert abs(_riemann_quadratic(CurvatureEngine(sp, norm), u, u)) < 1e-8


def test_riemann_quadratic_bi_invariant_oracle(su3_group):
    norm = Quadratic(np.eye(su3_group.dim_m))
    alg = su3_group.algebra
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = rng.standard_normal(su3_group.dim_m)
        w = rng.standard_normal(su3_group.dim_m)
        q = _riemann_quadratic(CurvatureEngine(su3_group, norm), u, w)
        br = alg.bracket(su3_group.from_m(u), su3_group.from_m(w))
        assert abs(q - 0.25 * alg.inner(br, br)) < 1e-9 * max(1.0, abs(q))


def test_round_sphere_quadratic_form_and_positivity():
    sp = preset("sphere_so2n", 3)
    norm = Quadratic(np.eye(sp.dim_m))
    rng = np.random.default_rng(4)
    for _ in range(10):
        u = rng.standard_normal(sp.dim_m)
        w = rng.standard_normal(sp.dim_m)
        q = _riemann_quadratic(CurvatureEngine(sp, norm), u, w)
        uu, ww, uw = u @ u, w @ w, u @ w
        assert abs(q - (uu * ww - uw ** 2)) < 1e-8 * max(1.0, abs(q))
        assert q >= -1e-8


@pytest.mark.parametrize("seed", [0, 1])
def test_flag_curvature_oracles(su2_group, su3_group, seed):
    rng = np.random.default_rng(seed)
    for sp in (su2_group, su3_group):
        norm = Quadratic(np.eye(sp.dim_m))
        for _ in range(20):
            u = rng.standard_normal(sp.dim_m)
            v = rng.standard_normal(sp.dim_m)
            try:
                rep = flag_curvature(sp, norm, u, v)
            except ValueError:
                continue
            oracle = bi_invariant_oracle(sp, u, v)
            assert abs(rep.k - oracle) <= 1e-6 * max(abs(oracle), 1e-9)


def test_normal_homogeneous_oracle_agreement(un3):
    sp2 = preset("sphere_so2n", 3)
    rng = np.random.default_rng(5)
    for sp in (un3, sp2):
        norm = Quadratic(np.eye(sp.dim_m))
        for _ in range(15):
            u = rng.standard_normal(sp.dim_m)
            v = rng.standard_normal(sp.dim_m)
            try:
                rep = flag_curvature(sp, norm, u, v)
            except ValueError:
                continue
            oracle = normal_homogeneous_oracle(sp, u, v)
            assert abs(rep.k - oracle) <= 1e-6 * max(abs(oracle), 1e-9)


def test_flag_curvature_well_defined(bn2):
    norm = random_invariant_norm(bn2, 6)
    rng = np.random.default_rng(6)
    u = rng.standard_normal(bn2.dim_m)
    v = rng.standard_normal(bn2.dim_m)
    k0 = flag_curvature(bn2, norm, u, v).k
    for c in (0.5, -2.0):
        k1 = flag_curvature(bn2, norm, u, v + c * u).k
        assert abs(k1 - k0) < 1e-8 * max(1.0, abs(k0))
    for lam in (0.5, 3.0):
        k2 = flag_curvature(bn2, norm, u, lam * v).k
        assert abs(k2 - k0) < 1e-8 * max(1.0, abs(k0))


def test_flag_curvature_scale_covariance(bn2):
    norm = random_invariant_norm(bn2, 8)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(bn2.dim_m)
    v = rng.standard_normal(bn2.dim_m)
    k0 = flag_curvature(bn2, norm, u, v).k
    for lam in (2.0, 5.0):
        k1 = flag_curvature(bn2, Quartic(lam ** 4 * norm.weights, norm.qs), u, v).k
        assert abs(k1 - k0 / lam ** 2) < 1e-8 * max(1.0, abs(k0))


def test_degenerate_flag_rejected(bn2):
    norm = Quadratic(np.eye(bn2.dim_m))
    u = np.zeros(bn2.dim_m)
    u[0] = 1.0
    with pytest.raises(ValueError, match="degenerate"):
        flag_curvature(bn2, norm, u, 2.0 * u)


def test_a_nearly_dependent_flag_is_rejected_by_the_tolerance_alone(bn2):
    """v = u + 1e-6 w spans a flag of area^2 about 1e-12 |u|^2 |w|^2, positive
    but below DEGENERATE_TOL |u|^2 |v|^2: only that tolerance rejects it, alone
    and as one row of a stack."""
    eng = CurvatureEngine(bn2, Quadratic(np.eye(bn2.dim_m)))
    u, w, x, y = np.random.default_rng(41).standard_normal((4, bn2.dim_m))
    v = u + 1e-6 * w
    assert (u @ u) * (v @ v) - (u @ v) ** 2 > 0
    with pytest.raises(ValueError, match="degenerate"):
        eng.flag_curvature(u, v)
    out = eng.flag_curvature(np.array([x, u]), np.array([y, v]))
    assert isinstance(out[0], CurvatureReport) and "degenerate" in str(out[1])


def test_a_thin_flag_above_the_degeneracy_tolerance_is_kept(bn2):
    """v = u + 1e-4 w spans a flag of area^2 about 1e-8 |u|^2 |v|^2, a hundred
    times DEGENERATE_TOL: it is evaluated, alone and as a row of a stack, so
    the tolerance is pinned from above as the 1e-6 flag pins it from below."""
    eng = CurvatureEngine(bn2, Quadratic(np.eye(bn2.dim_m)))
    u, w, x, y = np.random.default_rng(41).standard_normal((4, bn2.dim_m))
    v = u + 1e-4 * w
    area = ((u @ u) * (v @ v) - (u @ v) ** 2) / ((u @ u) * (v @ v))
    assert 1e-9 < area < 1e-7
    assert isinstance(eng.flag_curvature(u, v), CurvatureReport)
    out = eng.flag_curvature(np.array([x, u]), np.array([y, v]))
    assert all(isinstance(r, CurvatureReport) for r in out)


def test_a_quadratic_norm_not_positive_definite_rejects_every_row(bn2):
    """A Quadratic's Cholesky gate runs once, when it is built: every row of
    a stack is rejected as not positive definite, and eta, connection_n and
    u_map raise."""
    q = np.eye(bn2.dim_m)
    q[-1, -1] = -1.0  # indefinite, but invertible
    eng = CurvatureEngine(bn2, Quadratic(q))
    u, v = np.random.default_rng(43).standard_normal((2, 5, bn2.dim_m))
    out = eng.flag_curvature(u, v)
    assert all(isinstance(r, ValueError) and "not positive definite" in str(r) for r in out)
    for call in (eng.eta, lambda x: eng.connection_n(x, v), lambda x: eng.u_map(x, v)):
        with pytest.raises(ValueError, match="not positive definite"):
            call(u)


def test_u_map_examples(bn2):
    norm = random_invariant_norm(bn2, 9)
    u, v = exclusion_witness_pair(bn2, norm)
    # eta(u) = 0 forces U(u, u) = 0
    eng = CurvatureEngine(bn2, norm)
    assert np.linalg.norm(eng.u_map(u, u)) < 1e-9
    assert np.linalg.norm(eng.u_map(u, v)) < 1e-7


def test_commutative_formula_gates(bn2):
    norm = random_invariant_norm(bn2, 10)
    rng = np.random.default_rng(8)
    u = rng.standard_normal(bn2.dim_m)
    v = rng.standard_normal(bn2.dim_m)
    with pytest.raises(ValueError, match="inapplicable"):
        flag_curvature_commutative(bn2, norm, u, v)


def test_commutative_formula_nonnegative_and_cross_checked(bn2):
    for seed in range(4):
        rep = verify_exclusion_witness(bn2, seed)
        assert rep["u_map_norm"] < 1e-7
        assert rep["K_commutative"] >= -1e-8
        assert abs(rep["K_commutative"]) < 1e-6
        assert abs(rep["K_general"]) < 1e-6


@pytest.mark.parametrize("name,params", [
    ("bn_excluded_subcase1", (2,)),
    ("bn_excluded_subcase1", (3,)),
    ("a1a1_diagonal", (1,)),
    ("a1a1_diagonal", (2,)),
    ("cn_excluded_subcase1", (3,)),
])
def test_zero_curvature_witnesses(name, params):
    sp = preset(name, *params)
    rep = verify_exclusion_witness(sp, 0)
    assert rep["u_map_norm"] < 1e-7
    assert abs(rep["K_commutative"]) < 1e-6
    assert abs(rep["K_general"]) < 1e-6


def test_a_split_witness_plane_is_refused():
    """A witness plane must lie in m: the plane of the long root 2e1 of
    Sp(2)Sp(1)/Sp(1)Sp(1) is split (both m-norms 1/sqrt 2), so it spans no
    pole of the exclusion argument, though its m-part has rank 2."""
    sp = preset("sphere_spn_sp1", 2)
    long1, mixed = root("C", 2, 2, 0), root("C", 2, 1, 1)
    assert sp.plane_kind(0, long1) == "split" and sp.plane_kind(0, mixed) == "m"
    assert np.allclose(np.linalg.norm(sp.plane_m(0, long1), axis=1), np.sqrt(0.5))
    norm = Quadratic(np.eye(sp.dim_m))
    sp.witness_planes = {"u": (0, mixed), "v": (0, root("C", 2, 1, -1))}
    u, v = exclusion_witness_pair(sp, norm)
    assert abs(np.linalg.norm(u) - 1.0) < 1e-12 and abs(np.linalg.norm(v) - 1.0) < 1e-12
    for planes in ({"u": (0, long1), "v": (0, mixed)}, {"u": (0, mixed), "v": (0, long1)}):
        sp.witness_planes = planes
        with pytest.raises(AssertionError, match="not fully contained in m"):
            exclusion_witness_pair(sp, norm)


def test_witness_holds_for_any_pole_in_the_plane(bn2):
    """The exclusion argument allows any pole in the first witness plane,
    with the direction re-gauged against it."""
    rng = np.random.default_rng(13)
    norm = random_invariant_norm(bn2, 31)
    eng = CurvatureEngine(bn2, norm)
    ub = bn2.plane_m(*bn2.witness_planes["u"])
    vb = bn2.plane_m(*bn2.witness_planes["v"])
    for _ in range(5):
        c = rng.standard_normal(2)
        u = c[0] * ub[0] + c[1] * ub[1]
        u = u / np.linalg.norm(u)
        uprime = -c[1] * ub[0] + c[0] * ub[1]
        g = norm.gram(u)
        a = float(uprime @ g @ vb[0])
        b = float(uprime @ g @ vb[1])
        v = b * vb[0] - a * vb[1]
        if np.linalg.norm(v) < 1e-12:
            v = vb[0]
        rep = eng.flag_curvature_commutative(u, v / np.linalg.norm(v))
        assert abs(rep.k) < 1e-6 and abs(rep.cross_check_k) < 1e-6


def test_sampling_report_shape(bn2):
    norm = random_invariant_norm(bn2, 12)
    rep = sample_flags(bn2, norm, 15, seed=1)
    assert rep["flags"] == 15
    assert rep["K_min"] <= rep["K_max"]
    # independent rebuild: the same seeded pairs through flag_curvature,
    # keeping the first 15 that pass
    eng = CurvatureEngine(bn2, norm)
    rng = np.random.default_rng(1)
    kept, tried, rejected = [], 0, 0
    while len(kept) < 15:
        u, v = rng.standard_normal(bn2.dim_m), rng.standard_normal(bn2.dim_m)
        tried += 1
        try:
            kept.append(eng.flag_curvature(u, v))
        except ValueError:
            rejected += 1
    ks = [r.k for r in kept]
    assert rep == {
        "flags": 15,
        "K_min": min(ks),
        "K_max": max(ks),
        "zero_flags": [],
        "method_agreement_max_rel_err": None,
        "candidates_evaluated": tried,
        "rejected": rejected,
        "max_solve_residual": max(r.solve_residual for r in kept),
        "max_eta_norm": max(r.eta_norm for r in kept),
        "max_fd_step": max(r.fd_step for r in kept),
    }
    assert rep["max_eta_norm"] > 0 and rep["max_fd_step"] > 0


def test_sampling_counts_rejected_flags(su2_group):
    # every other pole evaluation (one per stack of candidates) returns a
    # negative definite Gram matrix, so every other stack fails the
    # Cholesky factorization
    class Flaky(Quadratic):
        calls = 0

        def pole(self, y):
            Flaky.calls += 1
            if Flaky.calls % 2:
                return (-self.q,)
            return super().pole(y)

    rep = sample_flags(su2_group, Flaky(np.eye(3)), 4, seed=0)
    assert rep["flags"] == 4
    assert rep["rejected"] == rep["candidates_evaluated"] - 4 > 0
    for q in (-np.eye(3), np.zeros((3, 3))):  # a singular g is rejected, not inverted
        with pytest.raises(ValueError, match="all 10 candidate flags were rejected"):
            sample_flags(su2_group, Quadratic(q), 1, seed=0)


@pytest.mark.parametrize("n", [0, -3])
def test_sampling_needs_a_positive_count(bn2, n):
    with pytest.raises(ValueError, match="at least one"):
        sample_flags(bn2, Quadratic(np.eye(bn2.dim_m)), n, seed=0)


def test_connection_matches_scalar_cartan_loop(bn2, un3):
    """The Cartan term C_u(., eta, w) of connection_n agrees with the
    right-hand side built from the d values C_u(w, e_k, eta), each
    cartan_pair(pole, e_k, eta) contracted with w, so the two leave
    different slots of the tensor open."""
    b = un3.to_m(un3.embed(un3.t_m[0]))
    cases = [(bn2, random_invariant_norm(bn2, 5)), (un3, random_invariant_norm(un3, 2)),
             (un3, Randers(np.eye(un3.dim_m), 0.25 * b / np.linalg.norm(b)))]
    rng = np.random.default_rng(21)
    for sp, norm in cases:
        eng = CurvatureEngine(sp, norm)
        for _ in range(3):
            u, w = rng.standard_normal(sp.dim_m), rng.standard_normal(sp.dim_m)
            g = eng._gram(u)
            e, _ = eng.eta(u, _g=g)
            assert np.linalg.norm(e) > 1e-6
            cm = sp.structure_tensors()[0]
            Bu = np.einsum("j,ijk->ik", u, cm)
            Bw = np.einsum("j,ijk->ik", w, cm)
            pole = norm.pole(u)
            cart = np.array([w @ norm.cartan_pair(pole, ek, e) for ek in np.eye(sp.dim_m)])
            rhs = Bw @ (g @ u) + Bu @ (g @ w) + g @ eng.brm(w, u) - 2.0 * cart
            want = np.linalg.solve(g, 0.5 * rhs)
            got = eng.connection_n(u, w)
            assert np.linalg.norm(got - want) <= 1e-12 * max(np.linalg.norm(want), 1.0)


def test_engine_requires_matching_dimension(bn2):
    with pytest.raises(ValueError, match="dim m"):
        CurvatureEngine(bn2, Quadratic(np.eye(3)))


@pytest.mark.parametrize("name,params", [
    ("berger_sp2", ()), ("sphere_spn_sp1", (2,)), ("sphere_spn_u1", (2,)),
    ("aloff_wallach", (1, 1)), ("sphere_un", (3,)), ("sphere_so2n", (3,)),
])
def test_surviving_spaces_positively_curved_under_normal_metric(name, params):
    """Sampled flag curvature of the normal homogeneous metric stays
    strictly positive on every surviving preset."""
    sp = preset(name, *params)
    rep = sample_flags(sp, Quadratic(np.eye(sp.dim_m)), 60, seed=0)
    assert rep["K_min"] > 1e-3, (sp.name, rep["K_min"])
    assert not rep["zero_flags"]


def test_scaled_inner_product_consistency():
    from fractions import Fraction
    from flagcurv.coset import lift_root, root, tvec_dot
    spec = AlgebraSpec((("B", 2, Fraction(3, 2)),))
    alg = realize(spec)
    v = lift_root(spec, 0, root("B", 2, 1, 1))
    w = lift_root(spec, 0, root("B", 2, 1, 0))
    got = alg.inner(alg.cartan_embed(list(v.factors)), alg.cartan_embed(list(w.factors)))
    assert abs(got - float(tvec_dot(spec, v, w))) < 1e-12


# The 14 benchmark presets: Quadratic(I) (normal homogeneous, eta = 0) on the
# first seven, random_invariant_norm (eta != 0) on the second seven.
NORMAL_PRESETS = ("sphere_so2n(4)", "sphere_un(4)", "sphere_spn_u1(2)", "sphere_spn_sp1(3)",
                  "berger_sp2", "aloff_wallach(1,2)", "cn_excluded_subcase1(3)")
FINSLER_PRESETS = ("sphere_un(3)", "sphere_spn_u1(2)", "sphere_spn_sp1(2)", "aloff_wallach(1,2)",
                   "bn_excluded_subcase1(2)", "a1a1_diagonal(1)", "cn_excluded_subcase1(3)")


@pytest.mark.parametrize("name,finsler", [(p, False) for p in NORMAL_PRESETS]
                         + [(p, True) for p in FINSLER_PRESETS])
def test_sampling_is_independent_of_the_batch(name, finsler):
    """sample_flags evaluates candidates in stacks (64 rows, then the
    shortfall); its report equals, bit for bit, the one built from the same
    seeded candidates sent one at a time through flag_curvature."""
    from flagcurv.coset import parse_preset
    sp = parse_preset(f"preset:{name}")
    norm = random_invariant_norm(sp, 1) if finsler else Quadratic(np.eye(sp.dim_m))
    n = 70
    rep = sample_flags(sp, norm, n, seed=3)
    eng = CurvatureEngine(sp, norm)
    rng = np.random.default_rng(3)
    kept, tried = [], 0
    while len(kept) < n:
        u, v = rng.standard_normal(sp.dim_m), rng.standard_normal(sp.dim_m)
        tried += 1
        try:
            kept.append(eng.flag_curvature(u, v))
        except ValueError:
            pass
    ks = [r.k for r in kept]
    assert rep == {
        "flags": n, "K_min": min(ks), "K_max": max(ks), "zero_flags": [],
        "method_agreement_max_rel_err": None, "candidates_evaluated": tried,
        "rejected": tried - n,
        "max_solve_residual": max(r.solve_residual for r in kept),
        "max_eta_norm": max(r.eta_norm for r in kept),
        "max_fd_step": max(r.fd_step for r in kept),
    }
    assert (rep["max_fd_step"] > 0) == finsler


def test_stacked_gates_reject_exactly_the_failing_rows(bn2):
    """One stack holds a degenerate flag and a pole whose Gram matrix fails
    Cholesky; exactly those rows are rejected, and every other row equals
    its single-flag evaluation bit for bit."""
    base = random_invariant_norm(bn2, 2)
    rng = np.random.default_rng(17)
    u = rng.standard_normal((9, bn2.dim_m))
    v = rng.standard_normal((9, bn2.dim_m))
    v[2] = 2.0 * u[2]
    bad_pole = u[4]

    class Gated(type(base)):
        def pole(self, y):
            g, *terms = super().pole(y)
            hit = np.all(np.atleast_2d(y) == bad_pole, axis=-1)
            return (np.where(hit.reshape(g.shape[:-2] + (1, 1)), -g, g), *terms)

    eng = CurvatureEngine(bn2, Gated(base.weights, base.qs))
    out = eng.flag_curvature(u, v)
    rejected = {i: str(r) for i, r in enumerate(out) if isinstance(r, ValueError)}
    assert sorted(rejected) == [2, 4]
    assert "degenerate" in rejected[2]
    assert "not positive definite" in rejected[4]
    for i, rep in enumerate(out):
        if i not in rejected:
            assert rep == eng.flag_curvature(u[i], v[i])


# -- the gates of the commutative-pair route, pinned on each side -----------------

def _commuting_pair(bn2):
    """The witness pair of bn2 under the bi-invariant metric: [u, v] = 0."""
    return exclusion_witness_pair(bn2, Quadratic(np.eye(bn2.dim_m)))


@pytest.mark.parametrize("level,raises", [(0.99e-10, False), (1.01e-10, True)])
def test_the_commute_gate_sits_at_commute_tol(bn2, level, raises):
    """COMMUTE_TOL = 1e-10: v + t x with |[u/2, t x]| = level and
    |u/2| |v + t x| < 1, so the bound is COMMUTE_TOL itself; eta = 0 under
    the normal metric."""
    u, v = _commuting_pair(bn2)
    eng = CurvatureEngine(bn2, Quadratic(np.eye(bn2.dim_m)))
    x = np.random.default_rng(3).standard_normal(bn2.dim_m)
    x -= (x @ v) * v
    t = level / eng.br_full_norm(0.5 * u, x)
    u, v = 0.5 * u, v + t * x
    assert np.linalg.norm(u) * np.linalg.norm(v) < 1.0
    assert eng.br_full_norm(u, v) == pytest.approx(level, rel=1e-4)
    if raises:
        with pytest.raises(ValueError, match=r"\[u,v\] != 0"):
            eng.flag_curvature_commutative(u, v, cross_check=False)
    else:
        eng.flag_curvature_commutative(u, v, cross_check=False)


@pytest.mark.parametrize("level,raises", [(0.99e-8, False), (1.01e-8, True)])
def test_the_spray_gate_sits_at_eta_hyp_tol(bn2, level, raises):
    """ETA_HYP_TOL = 1e-8: under Quadratic(I + eps S), S symmetric and not
    Ad(H)-invariant, eta(u) = eps (I + eps S)^-1 B_u S u, linear in eps to
    1e-8 relative; eps puts |eta(u)| at level with |u| < 1, and [u, v] = 0
    holds for every norm."""
    u, v = _commuting_pair(bn2)
    u = 0.5 * u
    s = np.random.default_rng(4).standard_normal((bn2.dim_m,) * 2)
    s += s.T

    def engine(eps):
        return CurvatureEngine(bn2, Quadratic(np.eye(bn2.dim_m) + eps * s))

    slope = np.linalg.norm(engine(1e-8).eta(u)[0]) / 1e-8
    eng = engine(level / slope)
    assert np.linalg.norm(eng.eta(u)[0]) == pytest.approx(level, rel=1e-4)
    if raises:
        with pytest.raises(ValueError, match=r"eta\(u\) != 0"):
            eng.flag_curvature_commutative(u, v, cross_check=False)
    else:
        eng.flag_curvature_commutative(u, v, cross_check=False)


@pytest.mark.parametrize("scale,zero", [(1e7, False), (1e9, True)])
def test_zero_flags_are_those_below_the_zero_k_tolerance(scale, zero):
    """The round sphere under Quadratic(scale I) has K = 1/scale on every
    flag: 1e-7 is not a zero flag and 1e-9 is, so ZERO_K_TOL (1e-8) is pinned
    from both sides."""
    sp = preset("sphere_so2n", 3)
    rep = sample_flags(sp, Quadratic(scale * np.eye(sp.dim_m)), 5, seed=0)
    assert rep["K_min"] == pytest.approx(1.0 / scale, rel=1e-12)
    assert rep["K_max"] == pytest.approx(1.0 / scale, rel=1e-12)
    assert len(rep["zero_flags"]) == (rep["flags"] if zero else 0) == (5 if zero else 0)
