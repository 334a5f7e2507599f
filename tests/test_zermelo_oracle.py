"""An exact oracle for the Finsler engine with eta != 0: Randers norms from
Zermelo navigation.

W = r w0, w0 an Ad(H)-fixed unit vector of m, generates the right action
of exp(tW), which normalizes H and preserves the normal metric h =
Quadratic(I); so W is a G-invariant Killing field, and the navigation norm
F(y) = (sqrt(lam |y|^2 + <W, y>^2) - <W, y>) / lam, lam = 1 - |W|^2, is the
invariant Randers((lam I + W W') / lam^2, -W / lam) (Bao, Robles & Shen,
J. Differential Geom. 66, 2004).  For a Killing W,
K_F(y, v) = K_h(y - F(y) W, v - (g_y(y, v) / F(y)) W) (Huang & Mo,
Proc. AMS 139, 2011), and K_h comes from normal_homogeneous_oracle, whose
matrix brackets share no code with the engine's structure tensors.  Unlike
the mpmath five-solve oracle (tests/test_curvature_pairing.py), this one
takes no difference of its own, so the bound is 1e-12 relative; the
Quartic family has no navigation form and keeps that oracle.  At r = 1e-6,
|eta| is about 1e-6, so the spray gates ETA_ZERO_TOL and the floor of the
pole direction sit far below it, as they must.  The spaces are the
flags-finsler presets of the benchmark with an Ad(H)-fixed vector (all but
sphere_spn_sp1(2)) and the groups SU(3) and SU(2) (h = 0, from a space
file), where the normal metric is bi-invariant; on SU(2) it has K = 1/2 on
every flag, and so has F.
"""

import numpy as np
import pytest

from flagcurv.coset import parse_preset, space_from_json
from flagcurv.curvature import CurvatureEngine, normal_homogeneous_oracle, sample_flags
from flagcurv.norms import Randers, invariant_vectors

SPACES = ("aloff_wallach(1,2)", "sphere_un(3)", "bn_excluded_subcase1(2)", "sphere_un(4)",
          "sphere_spn_u1(2)", "a1a1_diagonal(1)", "cn_excluded_subcase1(3)", "su(3)")
SPEEDS = (1e-6, 0.05, 0.4, 0.9)  # |W|
SAMPLE_SPEED = 0.3
FLAGS = 30
REL = 1e-12


def _space(name):
    """A preset, or the group SU(n + 1) = A_n with empty h from a space file."""
    if name.startswith("su("):
        rank = int(name[3:-1]) - 1
        return space_from_json({"algebra": {"factors": [{"family": "A", "rank": rank,
                                                         "scale": "1"}]}})
    return parse_preset(f"preset:{name}")


def navigation_norm(space, r):
    """The Zermelo navigation norm of h = Quadratic(I) under W = r w0, and W."""
    w = r * invariant_vectors(space)[0]
    lam = 1.0 - r * r
    return Randers((lam * np.eye(space.dim_m) + np.outer(w, w)) / lam ** 2, -w / lam), w


def navigation_k(space, norm, w, u, v):
    """K_h(y~, v~) of the flags (rows of u, v) under the navigation norm."""
    g = norm.gram(u)
    out = []
    for i in range(len(u)):
        f = norm.value(u[i])
        ut = u[i] - f * w
        vt = v[i] - (u[i] @ g[i] @ v[i] / f) * w
        out.append(normal_homogeneous_oracle(space, ut, vt))
    return np.array(out)


def _sampled_flags(space, seed):
    """The candidates of sample_flags(space, norm, FLAGS, seed): one stack of
    FLAGS (u, v) draws from its seeded stream, when it rejects none."""
    return np.moveaxis(np.random.default_rng(seed).standard_normal((FLAGS, 2, space.dim_m)), 1, 0)


@pytest.fixture(scope="module", params=SPACES)
def space(request):
    return _space(request.param)


@pytest.mark.parametrize("r", SPEEDS)
def test_navigation_norm_curvature_matches_the_normal_metric(space, r):
    norm, w = navigation_norm(space, r)
    u, v = np.random.default_rng(17).standard_normal((2, FLAGS, space.dim_m))
    reps = CurvatureEngine(space, norm).flag_curvature(u, v)
    speeds = [rep.eta_norm for rep in reps]
    assert all(rep.fd_step > 0 for rep in reps) and min(speeds) > 1e-3 * r
    want = navigation_k(space, norm, w, u, v)
    for i, rep in enumerate(reps):
        assert abs(rep.k - want[i]) <= REL * abs(want[i]), (i, rep.k, want[i])


def test_sample_flags_extremes_match_the_normal_metric(space):
    norm, w = navigation_norm(space, SAMPLE_SPEED)
    rep = sample_flags(space, norm, FLAGS, seed=23)
    assert rep["flags"] == rep["candidates_evaluated"] == FLAGS and rep["zero_flags"] == []
    want = navigation_k(space, norm, w, *_sampled_flags(space, 23))
    assert abs(rep["K_min"] - want.min()) <= REL * want.min()
    assert abs(rep["K_max"] - want.max()) <= REL * want.max()
    assert rep["max_fd_step"] > 0


@pytest.mark.parametrize("r", SPEEDS)
def test_su2_has_k_one_half_on_every_flag(r):
    """The normal metric of SU(2) is round, K = 1/2, so every navigation
    norm of it has K = 1/2 on every flag: no oracle enters."""
    space = _space("su(2)")
    norm, _ = navigation_norm(space, r)
    u, v = np.random.default_rng(29).standard_normal((2, FLAGS, space.dim_m))
    ks = [rep.k for rep in CurvatureEngine(space, norm).flag_curvature(u, v)]
    rep = sample_flags(space, norm, FLAGS, seed=31)
    assert np.all(np.abs(np.array(ks + [rep["K_min"], rep["K_max"]]) - 0.5) <= REL * 0.5), ks
