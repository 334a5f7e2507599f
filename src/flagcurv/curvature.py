"""Flag curvature of invariant Finsler metrics on coset spaces.

Everything is computed in coordinates over the bi-invariant orthonormal
m-basis of a CosetSpace.  The two evaluation routes are

  * the general invariant-frame route: spray vector eta(u), connection
    operator N(u, .), and the curvature quadratic form
      <R_u w, w>_u = <[[w,u]_h, w], u>_u + <Rt(u)w, w>_u,
      Rt(u)w = D_{eta(u)}N(u,w) - N(u,N(u,w)) + N(u,[u,w]_m) - [u,N(u,w)]_m,
    with D_{eta(u)}N by central differences in the pole (and exactly zero
    when eta(u) = 0);

  * the commutative-pair route for flags with [u,v] = 0 and eta(u) = 0:
      K = <U(u,v), U(u,v)>_u / (<u,u>_u <v,v>_u - <u,v>_u^2),
    where U is the bilinear map solved from
      <U(u,v), w>_u = (1/2)(<[w,u]_m, v>_u + <[w,v]_m, u>_u).

Tolerance ladder: exactness 1e-12, linear-solve residual 1e-10, stacked
finite-difference comparisons 1e-5 relative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coset import CosetSpace
from .norms import MinkowskiNorm

ETA_ZERO_TOL = 1e-10
COMMUTE_TOL = 1e-10
ETA_HYP_TOL = 1e-8
DEGENERATE_TOL = 1e-10
FD_POLE_STEP = 1e-5


@dataclass
class CurvatureReport:
    k: float
    method: str
    eta_norm: float = 0.0
    solve_residual: float = 0.0
    fd_step: float = 0.0
    cross_check_k: Optional[float] = None
    cross_check_rel_err: Optional[float] = None

    def to_json(self):
        out = {
            "K": self.k,
            "method": self.method,
            "eta_norm": self.eta_norm,
            "solve_residual": self.solve_residual,
            "fd_step": self.fd_step,
        }
        if self.cross_check_k is not None:
            out["cross_check_K"] = self.cross_check_k
            out["cross_check_rel_err"] = self.cross_check_rel_err
        return out


class CurvatureEngine:
    """Curvature computations for one (space, norm) pair."""

    def __init__(self, space: CosetSpace, norm: MinkowskiNorm):
        if norm.dim != space.dim_m:
            raise ValueError("norm dimension does not match dim m")
        self.space = space
        self.norm = norm
        self.Cm, self.Ch, self.Kh = space.structure_tensors()

    # -- brackets in m-coordinates ---------------------------------------
    def brm(self, x, y):
        return np.einsum("i,j,ijk->k", x, y, self.Cm)

    def brh(self, x, y):
        return np.einsum("i,j,ija->a", x, y, self.Ch)

    def br_full_norm(self, x, y) -> float:
        """Bi-invariant norm of the full bracket [x, y]."""
        bm = self.brm(x, y)
        bh = self.brh(x, y)
        return float(np.sqrt(bm @ bm + bh @ bh))

    # -- the implicit operators -------------------------------------------
    def _gram(self, u):
        """The Gram matrix g_u, gated on positive definiteness by its
        Cholesky factorization."""
        g = self.norm.gram(u)
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError as exc:
            raise ValueError("Hessian Gram matrix not positive definite") from exc
        return g

    def eta(self, u: np.ndarray, _g=None):
        """Spray vector: <eta(u), w>_u = <u, [w,u]_m>_u for all w."""
        u = np.asarray(u, dtype=float)
        if np.linalg.norm(u) == 0:
            raise ValueError("eta undefined at the origin")
        g = _g if _g is not None else self._gram(u)
        Bu = np.einsum("j,ijk->ik", u, self.Cm)  # Bu[i] = [e_i, u]_m
        rhs = Bu @ (g @ u)
        eta = np.linalg.solve(g, rhs)
        resid = float(np.linalg.norm(g @ eta - rhs))
        return eta, resid

    def connection_n(self, u: np.ndarray, w: np.ndarray, _g=None,
                     _eta=None) -> np.ndarray:
        """Connection operator N(u, w) as an m-coordinate vector."""
        u = np.asarray(u, dtype=float)
        w = np.asarray(w, dtype=float)
        g = _g if _g is not None else self._gram(u)
        eta = _eta if _eta is not None else self.eta(u, _g=g)[0]
        Bu = np.einsum("j,ijk->ik", u, self.Cm)   # [e_i, u]_m
        Bw = np.einsum("j,ijk->ik", w, self.Cm)   # [e_i, w]_m
        rhs = Bw @ (g @ u) + Bu @ (g @ w) + g @ self.brm(w, u)
        if np.linalg.norm(eta) > 0:
            rhs = rhs - 2.0 * self.norm.cartan_vec(u, w, eta)
        return np.linalg.solve(g, 0.5 * rhs)

    def _d_eta_n(self, u, w, eta, step_scale=FD_POLE_STEP):
        """Directional derivative of N(., w) at u along eta(u); exactly zero
        when eta(u) vanishes."""
        speed = float(np.linalg.norm(eta))
        if speed < ETA_ZERO_TOL:
            return np.zeros_like(u), 0.0
        h = step_scale * float(np.linalg.norm(u))
        direction = eta / speed
        np_ = self.connection_n(u + h * direction, w)
        nm_ = self.connection_n(u - h * direction, w)
        return speed * (np_ - nm_) / (2.0 * h), h

    def riemann_quadratic(self, u: np.ndarray, w: np.ndarray) -> float:
        """<R_u(w), w>_u via the invariant-frame curvature formula."""
        u = np.asarray(u, dtype=float)
        w = np.asarray(w, dtype=float)
        g = self._gram(u)
        eta, _ = self.eta(u, _g=g)
        return self._riemann_quadratic(u, w, g, eta)[0]

    def _riemann_quadratic(self, u, w, g, eta):
        """(<R_u(w), w>_u, finite-difference pole step) given the Gram
        matrix and eta at u."""
        nw = self.connection_n(u, w, _g=g, _eta=eta)
        rt, h = self._d_eta_n(u, w, eta)
        rt = rt - self.connection_n(u, nw, _g=g, _eta=eta)
        rt = rt + self.connection_n(u, self.brm(u, w), _g=g, _eta=eta)
        rt = rt - self.brm(u, nw)
        # h-term: <[[w,u]_h, w], u>_u
        hpart = self.brh(w, u)
        zh = np.einsum("a,akl,k->l", hpart, self.Kh, w)
        return float(zh @ g @ u + rt @ g @ w), h

    # -- flags ---------------------------------------------------------------
    def _flag_gate(self, u, v, g):
        denom = (u @ g @ u) * (v @ g @ v) - (u @ g @ v) ** 2
        if denom <= DEGENERATE_TOL * (u @ g @ u) * (v @ g @ v):
            raise ValueError("degenerate flag: pole and direction nearly dependent")
        return denom

    def flag_curvature(self, u: np.ndarray, v: np.ndarray) -> CurvatureReport:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        g = self._gram(u)
        denom = self._flag_gate(u, v, g)
        eta, resid = self.eta(u, _g=g)
        q, h = self._riemann_quadratic(u, v, g, eta)
        return CurvatureReport(
            k=q / denom, method="invariant-frame",
            eta_norm=float(np.linalg.norm(eta)), solve_residual=resid, fd_step=h,
        )

    def u_map(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The bilinear map U(u, v), solved against the basis."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        g = self._gram(u)
        Bu = np.einsum("j,ijk->ik", u, self.Cm)
        Bv = np.einsum("j,ijk->ik", v, self.Cm)
        rhs = 0.5 * (Bu @ (g @ v) + Bv @ (g @ u))
        return np.linalg.solve(g, rhs)

    def flag_curvature_commutative(self, u: np.ndarray, v: np.ndarray,
                                   cross_check: bool = True) -> CurvatureReport:
        """Commutative-pair flag curvature K = |U(u,v)|_u^2 / area^2.

        Requires [u, v] = 0 and eta(u) = 0 (within tolerances); raises
        otherwise.
        """
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        br = self.br_full_norm(u, v)
        scale = float(np.linalg.norm(u) * np.linalg.norm(v))
        if br > COMMUTE_TOL * max(scale, 1.0):
            raise ValueError("commutative-pair formula inapplicable: [u,v] != 0")
        g = self._gram(u)
        eta, resid = self.eta(u, _g=g)
        if np.linalg.norm(eta) > ETA_HYP_TOL * max(float(np.linalg.norm(u)), 1.0):
            raise ValueError("commutative-pair formula inapplicable: eta(u) != 0")
        denom = self._flag_gate(u, v, g)
        uu = self.u_map(u, v)
        k = float(uu @ g @ uu) / denom
        rep = CurvatureReport(k=k, method="commutative-pair",
                              eta_norm=float(np.linalg.norm(eta)),
                              solve_residual=resid)
        if cross_check:
            general = self.flag_curvature(u, v)
            rep.cross_check_k = general.k
            rep.cross_check_rel_err = abs(general.k - k) / max(abs(k), abs(general.k), 1.0)
        return rep


# ---------------------------------------------------------------------------
# Module-level API
# ---------------------------------------------------------------------------

def eta(space: CosetSpace, norm: MinkowskiNorm, u) -> np.ndarray:
    return CurvatureEngine(space, norm).eta(np.asarray(u, dtype=float))[0]


def connection_n(space: CosetSpace, norm: MinkowskiNorm, u, w) -> np.ndarray:
    return CurvatureEngine(space, norm).connection_n(
        np.asarray(u, dtype=float), np.asarray(w, dtype=float))


def riemann_quadratic(space: CosetSpace, norm: MinkowskiNorm, u, w) -> float:
    return CurvatureEngine(space, norm).riemann_quadratic(
        np.asarray(u, dtype=float), np.asarray(w, dtype=float))


def flag_curvature(space: CosetSpace, norm: MinkowskiNorm, u, v) -> CurvatureReport:
    return CurvatureEngine(space, norm).flag_curvature(
        np.asarray(u, dtype=float), np.asarray(v, dtype=float))


def u_map(space: CosetSpace, norm: MinkowskiNorm, u, v) -> np.ndarray:
    return CurvatureEngine(space, norm).u_map(
        np.asarray(u, dtype=float), np.asarray(v, dtype=float))


def flag_curvature_commutative(space: CosetSpace, norm: MinkowskiNorm, u, v,
                               cross_check: bool = True) -> CurvatureReport:
    return CurvatureEngine(space, norm).flag_curvature_commutative(
        np.asarray(u, dtype=float), np.asarray(v, dtype=float), cross_check)


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
    """The (u, v) pair of the space's exclusion argument: u spans the first
    witness plane, v is picked in the second with <u', v>_u = 0."""
    if not space.witness_planes:
        raise ValueError(f"space {space.name!r} has no exclusion witness")
    fu, ru = space.witness_planes["u"]
    fv, rv_ = space.witness_planes["v"]
    ub = space.plane_m_part(fu, ru)
    vb = space.plane_m_part(fv, rv_)
    if len(ub) != 2 or len(vb) != 2:
        raise AssertionError("witness planes are not fully contained in m")
    u, uprime = ub
    g = norm.gram(u)
    a = float(uprime @ g @ vb[0])
    b = float(uprime @ g @ vb[1])
    v = b * vb[0] - a * vb[1]
    if np.linalg.norm(v) < 1e-12:
        v = vb[0]
    v = v / np.linalg.norm(v)
    return u, v


def verify_exclusion_witness(space: CosetSpace, seed: int = 0,
                             norm: Optional[MinkowskiNorm] = None) -> dict:
    """Check |U(u,v)| and both curvature evaluations on the witness pair
    under a random reversible invariant norm (or a supplied one)."""
    from .norms import random_invariant_norm

    nrm = norm if norm is not None else random_invariant_norm(space, seed)
    eng = CurvatureEngine(space, nrm)
    u, v = exclusion_witness_pair(space, nrm)
    uu = eng.u_map(u, v)
    g = nrm.gram(u)
    rep = eng.flag_curvature_commutative(u, v)
    return {
        "space": space.name,
        "seed": seed,
        "u_map_norm": float(np.sqrt(uu @ g @ uu)),
        "K_commutative": rep.k,
        "K_general": rep.cross_check_k,
        "eta_norm": rep.eta_norm,
    }


def sample_flags(space: CosetSpace, norm: MinkowskiNorm, n: int, seed: int,
                 zero_tol: float = 1e-8) -> dict:
    """Random-flag curvature sampling report, deterministic for a given
    seed.  Candidate pairs come from one seeded stream, at most 2n+8 of
    them, and evaluation stops once n flags are accepted."""
    if n < 1:
        raise ValueError(f"need at least one flag to sample, got {n}")
    rng = np.random.default_rng(seed)
    eng = CurvatureEngine(space, norm)
    d = space.dim_m
    ks, zero_flags, agree = [], [], []
    evaluated = rejected = 0
    resid = eta_norm = fd_step = 0.0
    for _ in range(2 * n + 8):
        if len(ks) >= n:
            break
        u, v = rng.standard_normal(d), rng.standard_normal(d)
        evaluated += 1
        try:
            rep = eng.flag_curvature(u, v)
        except ValueError:  # degenerate flag or failed Cholesky
            rejected += 1
            continue
        ks.append(rep.k)
        resid = max(resid, rep.solve_residual)
        eta_norm = max(eta_norm, rep.eta_norm)
        fd_step = max(fd_step, rep.fd_step)
        if abs(rep.k) < zero_tol:
            zero_flags.append({"u": u.tolist(), "v": v.tolist(), "K": rep.k})
        if eng.br_full_norm(u, v) < COMMUTE_TOL:
            rep2 = eng.flag_curvature_commutative(u, v, cross_check=False)
            agree.append(abs(rep2.k - rep.k) / max(abs(rep.k), abs(rep2.k), 1.0))
    if not ks:
        raise ValueError(f"all {evaluated} candidate flags were rejected")
    return {
        "flags": len(ks),
        "K_min": float(np.min(ks)),
        "K_max": float(np.max(ks)),
        "zero_flags": zero_flags,
        "method_agreement_max_rel_err": float(np.max(agree)) if agree else None,
        "candidates_evaluated": evaluated,
        "rejected": rejected,
        "max_solve_residual": resid,
        "max_eta_norm": eta_norm,
        "max_fd_step": fd_step,
    }
