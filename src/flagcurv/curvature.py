"""Flag curvature of invariant Finsler metrics on coset spaces.

Everything is computed in coordinates over the bi-invariant orthonormal
m-basis of a CosetSpace.  The two evaluation routes are

  * the general invariant-frame route: spray vector eta(u), connection
    operator N(u, .), and the curvature quadratic form
      <R_u w, w>_u = <[[w,u]_h, w], u>_u + <Rt(u)w, w>_u,
      Rt(u)w = D_{eta(u)}N(u,w) - N(u,N(u,w)) + N(u,[u,w]_m) - [u,N(u,w)]_m,
    with D_{eta(u)}N by a complex step in the pole (and exactly zero when
    eta(u) = 0);

  * the commutative-pair route for flags with [u,v] = 0 and eta(u) = 0:
      K = <U(u,v), U(u,v)>_u / (<u,u>_u <v,v>_u - <u,v>_u^2),
    where U is the bilinear map solved from
      <U(u,v), w>_u = (1/2)(<[w,u]_m, v>_u + <[w,v]_m, u>_u).

Every CurvatureEngine operator takes one vector (run as a one-row stack) or
a stack of them (one pole or flag per row), and sample_flags reduces the
arrays that the stacked core _flags returns for the accepted rows.  All
contractions are row-wise: the structure tensors are reshaped once per
space into matrices that each row multiplies on its own (_vm), and
products and solves are stacked, so no row's result depends on the size
of its stack.  The connection operator
A(u) = (T + B g_u + g_u B' - 2 C_u(., eta, .)) / 2 (B the matrix of [., u]_m,
T[i,j] = sum_k Cm[i,j,k] (g_u u)_k), with g_u N(u, x) = A(u) x, is never
formed: T is antisymmetric, so A w = S + T w / 2 and A' w = S - T w / 2 with
S = (B g_u w + g_u [w,u]_m) / 2 - C_u(., eta, w) and T w = ad(w) g_u u, one
real ad(w) serving u and the complex poles.  The quadratic form pairs every
Rt term with g_u w:

  <N(u, x), w>_u = (A(u)' w) . x,   <N(p, w), w>_u = (A(p) w) . g_p^{-1} g_u w.

So at u only eta and N(u, w) are solved for, and D_eta N is a complex step
(Squire & Trapp, SIAM Rev. 40, 1998): |eta| Im t(p) / h with t(p) =
<N(p, w), w>_u at the one complex pole p = u + i h eta/|eta| of every row.
Its n-row frame is one norm evaluation (norm.pole, which also carries what
its Cartan tensor needs; pole and cartan_pair are analytic in p, never
conjugated) and one real 2-column solve with g_u for the imaginary parts of
eta_p and g_p^{-1} g_u w, whose real parts are eta and w up to O(h^2); g_p is
never factored, so only the real frame at u has a Cholesky gate.  With Gram
matrices per row (Quartic, Randers) a flag stack with eta != 0 makes three
real LU solve calls, two norm evaluations and one cartan_pair call (at p; the
frame at u is its real part), one with eta = 0 two solves, one norm evaluation
and no cartan_pair.  A Gram matrix that every row shares (Quadratic; then g_p =
g_u and C = 0) is gated and inverted once per norm (norm.inverse), no LU solve.
The commutative-pair route evaluates and gates the norm once, at u as a
one-row stack, and solves eta and U(u, v) with one solver: one Cholesky gate
and two LU solves with Gram matrices per row, none with a shared one.

The linear-solve residual and the agreement of the two routes (commutative
pair against invariant frame) are reported, not gated; the complex step is
h = FD_POLE_STEP |u| = 1e-20 |u|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coset import CosetSpace
from .norms import MinkowskiNorm, _dot, _factors, _mv, _swap, _vm, random_invariant_norm

ETA_ZERO_TOL = 1e-10
COMMUTE_TOL = 1e-10
ETA_HYP_TOL = 1e-8
DEGENERATE_TOL = 1e-10
FD_POLE_STEP = 1e-20
ZERO_K_TOL = 1e-8  # |K| below which sample_flags reports a zero flag
CHUNK = 64  # most candidate flags sample_flags evaluates as one stack
REASONS = ("", "Hessian Gram matrix not positive definite",
           "degenerate flag: pole and direction nearly dependent")
NOT_POSITIVE, DEGENERATE = 1, 2  # the rejection codes of _flags (0: accepted)


@dataclass
class CurvatureReport:
    k: float
    method: str
    eta_norm: float = 0.0
    solve_residual: float = 0.0
    fd_step: float = 0.0
    cross_check_k: Optional[float] = None
    cross_check_rel_err: Optional[float] = None
    u_norm: Optional[float] = None  # |U(u, v)|_u, on the commutative-pair route


class CurvatureEngine:
    """Curvature computations for one (space, norm) pair."""

    def __init__(self, space: CosetSpace, norm: MinkowskiNorm):
        if norm.dim != space.dim_m:
            raise ValueError("norm dimension does not match dim m")
        self.space = space
        self.norm = norm
        # u -> the matrices of [., u]_m and [., u]_h, c -> sum_a c_a Kh[a]
        self._ad_m, self._ad_h, self._kh = space.bracket_matrices()

    # -- brackets in m-coordinates ---------------------------------------
    def brm(self, x, y):
        return _vm(x, self._ad(y))

    def brh(self, x, y):
        return _vm(x, _vm(y, self._ad_h).reshape(y.shape + (self.space.dim_h,)))

    def br_full_norm(self, x, y):
        """Bi-invariant norm of the full bracket [x, y]."""
        bm, bh = self.brm(x, y), self.brh(x, y)
        return np.sqrt(_dot(bm, bm) + _dot(bh, bh))

    def _ad(self, u):
        """The matrix of w -> [w, u]_m: row i is [e_i, u]_m."""
        return _vm(u, self._ad_m).reshape(u.shape + u.shape[-1:])

    # -- the implicit operators -------------------------------------------
    def _factored(self, g) -> np.ndarray:
        """Mask of the Gram matrices g with a Cholesky factor (shared: if the norm inverts it)."""
        return _factors(g) if g.ndim > 2 else self.norm.inverse(g) is not None

    def _solver(self, g):
        """b -> g^-1 b, rows b (n, d) or row blocks (n, k, d): LU per row or the norm's inverse."""
        if g.ndim > 2:
            return lambda b: _swap(np.linalg.solve(g, _swap(b.reshape(len(g), -1, g.shape[-1])))
                                   ).reshape(b.shape)
        inv = _swap(self.norm.inverse(g))
        return lambda b: _vm(b, inv)  # each row applies it

    def _positive_pole(self, u):
        """The pole data at u; ValueError unless every Gram matrix has a
        Cholesky factor."""
        pole = self.norm.pole(u)
        if not np.all(self._factored(pole[0])):
            raise ValueError(REASONS[NOT_POSITIVE])
        return pole

    def _gram(self, u):
        return self._positive_pole(u)[0]

    def eta(self, u: np.ndarray, _g=None, _gu=None, _parts=False):
        """Spray vector: <eta(u), w>_u = <u, [w,u]_m>_u for all w, and the
        residual of its solve (_g, _gu: g_u, g_u u if known; _parts: b -> g^-1 b,
        g u and B = the matrix of [., u]_m first).  One vector: one-row stack."""
        u = np.asarray(u, dtype=float)
        if u.ndim == 1:
            return tuple(x[0] for x in self.eta(u[None], None if _g is None else _g[None]))
        g = self._gram(u) if _g is None else _g
        solve, gu, bu = self._solver(g), _mv(g, u) if _gu is None else _gu, self._ad(u)
        rhs = _mv(bu, gu)
        eta = solve(rhs)
        out = eta, np.linalg.norm(_mv(g, eta) - rhs, axis=-1)
        return (solve, gu, bu, *out) if _parts else out

    def _sym_w(self, pole, bx, eta, w, gw, bw):
        """S = (B g w + g [w, x]_m) / 2 - C_x(., eta, w) at the poles x (B = bx,
        the matrix of [., x]_m; gw, bw: g w and [w, x]_m), the symmetric part
        of A(x) applied to w: A w = S + T w / 2 and A' w = S - T w / 2."""
        g = pole[0]
        s = 0.5 * (_mv(bx, gw) + _mv(g, bw))
        if np.any(eta) and g.ndim > 2:  # a shared g is constant in y, so C = 0
            s = s - self.norm.cartan_pair(pole, eta, w)
        return s

    def connection_n(self, u: np.ndarray, w: np.ndarray, _solved=None) -> np.ndarray:
        """Connection operator N(u, w) = g_u^-1 A(u) w as an m-coordinate
        vector (_solved: b -> g_u^-1 b and A(u) w when already known)."""
        if _solved is None:
            u, w = np.asarray(u, dtype=float), np.asarray(w, dtype=float)
            if u.ndim == 1:  # a one-row stack, as in eta
                return self.connection_n(u[None], w[None])[0]
            pole = self._positive_pole(u)
            solve, gu, bu, eta, _ = self.eta(u, _g=pole[0], _parts=True)
            s = self._sym_w(pole, bu, eta, w, _mv(pole[0], w), _vm(w, bu))
            _solved = solve, s + 0.5 * _mv(self._ad(w), gu)
        return _solved[0](_solved[1])

    def _d_eta_term(self, u, w, gw, adw, eta, speed, h, solve):
        """<D_eta N(., w), w>_u as the complex step speed Im t(p) / h at p = u + i h
        eta/|eta|, t(p) = <N(p, w), w>_u = (A_p w) . z, zero where h = 0 (adw: the
        matrix of [., w]_m; [eta_p, z] = g_p^-1 [B_p g_p p, g_u w] = g_p^-1 b has the real
        parts x = [eta, w], and solve (g_u^-1) gives the rest from Im b - Im(g_p) x), then S,
        [w, u]_m and T w / 2 at u as the real parts of the frame at p: Re f(u + i h e) =
        f(u) + O(h^2), f analytic (and p = u where h = 0)."""
        p = u + 1j * (h[:, None] * (eta / np.maximum(speed, ETA_ZERO_TOL)[:, None]))
        pole = self.norm.pole(p)
        gp, bp = _mv(pole[0], p), self._ad(p)  # g_p p, the matrix of [., p]_m
        x = np.stack([eta, w], axis=-2)  # the real parts of g_p^-1 b, b = [B_p g_p p, g_u w]
        sol = x + 1j * solve(np.stack([_mv(bp, gp), gw], axis=-2).imag - x @ _swap(pole[0].imag))
        bw, tw = _vm(w, bp), 0.5 * _mv(adw, gp)
        apw = self._sym_w(pole, bp, sol[..., 0, :], w, _mv(pole[0], w), bw)
        t = _dot(apw + tw, sol[..., 1, :])
        return (np.divide(speed * t.imag, h, out=np.zeros_like(h), where=h > 0),
                apw.real, bw.real, tw.real)

    def _riemann_quadratic(self, u, w, pole, gu=None, gw=None):
        """<R_u(w), w>_u for stacks u, w (pole data at u; gu, gw: g_u u and
        g_u w if known), then |eta|, the eta residual, h (0 where |eta| <
        ETA_ZERO_TOL) and |[w, u]|; the frame at u is the real part of p's, O(h^2)
        off, if a row has |eta| >= ETA_ZERO_TOL, else built at u."""
        solve, gu, bu, eta, resid = self.eta(u, _g=pole[0], _gu=gu, _parts=True)
        gw, speed = _mv(pole[0], w) if gw is None else gw, np.linalg.norm(eta, axis=-1)
        h, adw = np.zeros_like(speed), self._ad(w)  # one real ad(w) for the frames at u and p
        if np.any(step := speed >= ETA_ZERO_TOL):  # else no row needs |u|
            h = np.where(step, FD_POLE_STEP * np.linalg.norm(u, axis=-1), 0.0)
            rt, s, bm, tw = self._d_eta_term(u, w, gw, adw, eta, speed, h, solve)
        else:  # bm = [w,u]_m
            rt, bm = 0.0, _vm(w, bu)
            s, tw = self._sym_w(pole, bu, eta, w, gw, bm), 0.5 * _mv(adw, gu)
        # -N(u, N(u,w)) + N(u, [u,w]_m) - [u, N(u,w)]_m against g_u w, the
        # connection terms through <N(u, x), w>_u = (A' w) . x, so that only
        # N(u, w) needs a solve
        nw = self.connection_n(u, w, _solved=(solve, s + tw))
        rt = rt + _dot(_vm(nw, bu), gw) - _dot(s - tw, nw + bm)
        # h-term: <[[w,u]_h, w], u>_u
        bh = self.brh(w, u)
        zh = _vm(w, _vm(bh, self._kh).reshape(bu.shape))
        return _dot(zh, gu) + rt, speed, resid, h, np.sqrt(_dot(bm, bm) + _dot(bh, bh))

    # -- flags ---------------------------------------------------------------
    def _flag_gate(self, u, v, gu, gv):
        """(area^2 of the flag, whether it passes the degeneracy gate); gu, gv: g u, g v."""
        uu, vv = _dot(u, gu), _dot(v, gv)
        denom = uu * vv - _dot(v, gu) ** 2
        return denom, denom > DEGENERATE_TOL * uu * vv

    def _flags(self, u, v):
        """The stacked core of flag_curvature for the rows (n, d) of u and v:
        the code of the gate that rejected each row (0 where none; NOT_POSITIVE:
        the Cholesky gate of g_u, then DEGENERATE), the accepted rows (a slice if
        all are, so that selecting them copies nothing), then their arrays K,
        |eta|, eta residual, h and |[v, u]|."""
        pole = self.norm.pole(u)
        gu, gv = _mv(pole[0], u), _mv(pole[0], v)
        denom, ok = self._flag_gate(u, v, gu, gv)
        why = np.where(self._factored(pole[0]), np.where(ok, 0, DEGENERATE), NOT_POSITIVE)
        rows = slice(None) if not why.any() else np.flatnonzero(why == 0)
        if why.all():  # no row accepted: a shared g may not even be invertible
            return (why, rows, *np.empty((5, 0)))
        if pole[0].ndim > 2:  # per-row pole data; a shared Gram matrix is every row's
            pole = [t[rows] for t in pole]
        k, *out = self._riemann_quadratic(u[rows], v[rows], pole, gu[rows], gv[rows])
        return (why, rows, k / denom[rows], *out)

    def flag_curvature(self, u: np.ndarray, v: np.ndarray):
        """Flag curvature of the flag (pole u, direction v); raises
        ValueError when a gate rejects the flag.  For stacks (rows of u and
        v) returns one entry per row: its CurvatureReport, or the ValueError
        of the first gate it failed (Cholesky of g_u, then degeneracy)."""
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        why, _, *arrays = self._flags(np.atleast_2d(u), np.atleast_2d(v))
        accepted = (CurvatureReport(float(k), "invariant-frame", *map(float, x))
                    for k, *x, _ in zip(*arrays))  # x: |eta|, residual, h
        out = [ValueError(REASONS[r]) if r else next(accepted) for r in why]
        if u.ndim == 1 and isinstance(out[0], ValueError):
            raise out[0]
        return out[0] if u.ndim == 1 else out

    def _u(self, solve, bu, gu, gv, v):
        """U(u, v) = g_u^-1 (B_u g_u v + B_v g_u u) / 2 from g_u^-1 (solve), B_u, g_u u, g_u v."""
        return solve(0.5 * (_mv(bu, gv) + _mv(self._ad(v), gu)))

    def u_map(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The bilinear map U(u, v), solved against the basis."""
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        if u.ndim == 1:  # a one-row stack, as in eta
            return self.u_map(u[None], v[None])[0]
        g = self._gram(u)
        return self._u(self._solver(g), self._ad(u), _mv(g, u), _mv(g, v), v)

    def flag_curvature_commutative(self, u: np.ndarray, v: np.ndarray,
                                   cross_check: bool = True) -> CurvatureReport:
        """Commutative-pair flag curvature K = |U(u,v)|_u^2 / area^2; needs
        [u, v] = 0 and eta(u) = 0 (within tolerances), raises otherwise.  The
        norm is evaluated and gated once, at u as a one-row stack, and eta
        and U(u, v) share its solver."""
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        br = self.br_full_norm(u, v)
        scale = float(np.linalg.norm(u) * np.linalg.norm(v))
        if br > COMMUTE_TOL * max(scale, 1.0):
            raise ValueError("commutative-pair formula inapplicable: [u,v] != 0")
        u, v = u[None], v[None]
        g = self._gram(u)
        solve, gu, bu, eta, resid = self.eta(u, _g=g, _parts=True)
        speed = float(np.linalg.norm(eta))
        if speed > ETA_HYP_TOL * max(float(np.linalg.norm(u)), 1.0):
            raise ValueError("commutative-pair formula inapplicable: eta(u) != 0")
        gv = _mv(g, v)
        denom, ok = self._flag_gate(u, v, gu, gv)
        if not ok[0]:
            raise ValueError(REASONS[DEGENERATE])
        uv = self._u(solve, bu, gu, gv, v)
        unorm2 = _dot(uv, _mv(g, uv))[0]
        rep = CurvatureReport(float(unorm2 / denom[0]), "commutative-pair", speed,
                              float(resid[0]), u_norm=float(np.sqrt(unorm2)))
        if cross_check:
            general = self.flag_curvature(u[0], v[0])
            rep.cross_check_k = general.k
            rep.cross_check_rel_err = abs(general.k - rep.k) / max(abs(rep.k), abs(general.k), 1.0)
        return rep


# ---------------------------------------------------------------------------
# Module-level API
# ---------------------------------------------------------------------------

def flag_curvature(space: CosetSpace, norm: MinkowskiNorm, u, v) -> CurvatureReport:
    return CurvatureEngine(space, norm).flag_curvature(u, v)


def flag_curvature_commutative(space: CosetSpace, norm: MinkowskiNorm, u, v,
                               cross_check: bool = True) -> CurvatureReport:
    return CurvatureEngine(space, norm).flag_curvature_commutative(u, v, cross_check)


# ---------------------------------------------------------------------------
# Independent classical oracles
# ---------------------------------------------------------------------------

def bi_invariant_oracle(space: CosetSpace, u, v) -> float:
    """K = |[u,v]|^2 / (4 area^2) for the bi-invariant metric on a group
    (trivial isotropy), computed directly from matrices."""
    if space.dim_h != 0:
        raise ValueError("bi-invariant oracle needs trivial h")
    alg = space.algebra
    X, Y = space.from_m(np.asarray(u, float)), space.from_m(np.asarray(v, float))
    br = alg.bracket(X, Y)
    area2 = alg.inner(X, X) * alg.inner(Y, Y) - alg.inner(X, Y) ** 2
    return 0.25 * alg.inner(br, br) / area2


def normal_homogeneous_oracle(space: CosetSpace, u, v) -> float:
    """K = (|[u,v]_m|^2/4 + |[u,v]_h|^2) / area^2 for the metric induced by
    the bi-invariant inner product, computed directly from matrices."""
    alg = space.algebra
    X, Y = space.from_m(np.asarray(u, float)), space.from_m(np.asarray(v, float))
    br = alg.bracket(X, Y)
    bm = space.pr_m(br)
    bh = br - bm
    area2 = alg.inner(X, X) * alg.inner(Y, Y) - alg.inner(X, Y) ** 2
    return (0.25 * alg.inner(bm, bm) + alg.inner(bh, bh)) / area2


# ---------------------------------------------------------------------------
# Zero-curvature witnesses
# ---------------------------------------------------------------------------

def exclusion_witness_pair(space: CosetSpace, norm: MinkowskiNorm):
    """The (u, v) pair of the space's exclusion argument: u is the x of the
    first witness plane, v is picked in the second with <y, v>_u = 0.  Both
    planes must lie in m (plane_kind 'm'), else AssertionError."""
    if not space.witness_planes:
        raise ValueError(f"space {space.name!r} has no exclusion witness")
    planes = (space.witness_planes["u"], space.witness_planes["v"])
    if any(space.plane_kind(*p) != "m" for p in planes):
        raise AssertionError("witness planes are not fully contained in m")
    (u, uprime), vb = (space.plane_m(*p) for p in planes)
    g = norm.gram(u)
    a = float(uprime @ g @ vb[0])
    b = float(uprime @ g @ vb[1])
    v = b * vb[0] - a * vb[1]
    if np.linalg.norm(v) < 1e-12:
        v = vb[0]
    v = v / np.linalg.norm(v)
    return u, v


def verify_exclusion_witness(space: CosetSpace, seed: int = 0) -> dict:
    """Check |U(u,v)| and both curvature evaluations on the witness pair
    under a random reversible invariant norm."""
    nrm = random_invariant_norm(space, seed)
    eng = CurvatureEngine(space, nrm)
    u, v = exclusion_witness_pair(space, nrm)
    rep = eng.flag_curvature_commutative(u, v)
    return {
        "space": space.name,
        "seed": seed,
        "u_map_norm": rep.u_norm,
        "K_commutative": rep.k,
        "K_general": rep.cross_check_k,
        "eta_norm": rep.eta_norm,
    }


def sample_flags(space: CosetSpace, norm: MinkowskiNorm, n: int, seed: int) -> dict:
    """Random-flag curvature sampling report, deterministic for a given
    seed.  Candidate pairs come from one seeded stream, at most 2n+8 of
    them.  They are evaluated in stacks of the current shortfall (at most
    CHUNK rows), so evaluation stops exactly once n flags are accepted."""
    if n < 1:
        raise ValueError(f"need at least one flag to sample, got {n}")
    rng = np.random.default_rng(seed)
    eng = CurvatureEngine(space, norm)
    budget = 2 * n + 8
    kept, flags, evaluated = [], 0, 0  # kept: the accepted rows of u, v and _flags
    while flags < n and evaluated < budget:
        m = min(n - flags, CHUNK, budget - evaluated)
        # rows (u_i, v_i) in the order of one u, v draw per candidate
        u, v = np.moveaxis(rng.standard_normal((m, 2, space.dim_m)), 1, 0).copy()
        evaluated += m
        _, rows, *arrays = eng._flags(u, v)
        kept.append((u[rows], v[rows], *arrays))
        flags += len(kept[-1][0])
    if not flags:
        raise ValueError(f"all {evaluated} candidate flags were rejected")
    us, vs, ks, speed, resid, h, br = (np.concatenate(x) for x in zip(*kept))
    agree = []
    for i in np.flatnonzero(br < COMMUTE_TOL):
        k2 = eng.flag_curvature_commutative(us[i], vs[i], cross_check=False).k
        agree.append(abs(k2 - ks[i]) / max(abs(ks[i]), abs(k2), 1.0))
    return {
        "flags": flags,
        "K_min": float(ks.min()),
        "K_max": float(ks.max()),
        "zero_flags": [{"u": us[i].tolist(), "v": vs[i].tolist(), "K": float(ks[i])}
                       for i in np.flatnonzero(np.abs(ks) < ZERO_K_TOL)],
        "method_agreement_max_rel_err": float(max(agree)) if agree else None,
        "candidates_evaluated": evaluated,
        "rejected": evaluated - flags,
        "max_solve_residual": float(resid.max()),
        "max_eta_norm": float(speed.max()),
        "max_fd_step": float(h.max()),
    }
