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
pole direction sit far below it, as they must.
"""

import numpy as np
import pytest

from flagcurv.coset import parse_preset
from flagcurv.curvature import CurvatureEngine, normal_homogeneous_oracle
from flagcurv.norms import Randers, invariant_vectors

PRESETS = ("aloff_wallach(1,2)", "sphere_un(3)", "bn_excluded_subcase1(2)")
SPEEDS = (1e-6, 0.05, 0.4, 0.9)  # |W|
FLAGS = 30
REL = 1e-12


def navigation_norm(space, r):
    """The Zermelo navigation norm of h = Quadratic(I) under W = r w0, and W."""
    w = r * invariant_vectors(space)[0]
    lam = 1.0 - r * r
    return Randers((lam * np.eye(space.dim_m) + np.outer(w, w)) / lam ** 2, -w / lam), w


@pytest.fixture(scope="module", params=PRESETS)
def space(request):
    return parse_preset(f"preset:{request.param}")


@pytest.mark.parametrize("r", SPEEDS)
def test_navigation_norm_curvature_matches_the_normal_metric(space, r):
    norm, w = navigation_norm(space, r)
    u, v = np.random.default_rng(17).standard_normal((2, FLAGS, space.dim_m))
    reps = CurvatureEngine(space, norm).flag_curvature(u, v)
    speeds = [rep.eta_norm for rep in reps]
    assert all(rep.fd_step > 0 for rep in reps) and min(speeds) > 1e-3 * r
    g = norm.gram(u)
    for i, rep in enumerate(reps):
        f = norm.value(u[i])
        ut = u[i] - f * w
        vt = v[i] - (u[i] @ g[i] @ v[i] / f) * w
        want = normal_homogeneous_oracle(space, ut, vt)
        assert abs(rep.k - want) <= REL * abs(want), (i, rep.k, want)
