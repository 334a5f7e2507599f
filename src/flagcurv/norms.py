"""Minkowski norms on m: values, Hessian inner products, Cartan tensors.

Three built-in families, all with closed-form derivatives:

  Quadratic(Q)            F(y) = sqrt(y'Qy)                  (Riemannian)
  Randers(Q, b)           F(y) = sqrt(y'Qy) + b'y            (non-reversible)
  Quartic(w_k, Q_k)       F(y) = (sum_k w_k (y'Q_k y)^2)^(1/4)  (reversible)

The Quartic family is positive definite whenever every Q_k is; it is this
library's reversible non-Riemannian test family.  A GenericNorm wrapper
provides finite-difference derivatives (central differences, relative step
eps^(1/4), one Richardson level) for user-supplied norm callables; the same
machinery doubles as an independent cross-check oracle in the tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

FD_REL_STEP = 1e-5
# float64 second differences of F^2 carry roundoff of about eps F^2 / h^2;
# balancing it against the O(h^2) truncation of one central difference
# gives a relative step of eps^(1/4) (about 1.2e-4).
GENERIC_REL_STEP = float(np.finfo(float).eps) ** 0.25
# singular values below this bound span the Ad(h)-invariant null spaces
NULL_TOL = 1e-8
INVARIANCE_SAMPLES = 20  # (y, u, v) draws of check_invariance
QUARTIC_TERMS = 3  # quadratics of a random_invariant_norm


class MinkowskiNorm:
    """Interface: value, gram (Hessian inner product matrix), cartan_vec;
    cartan3 contracts cartan_vec with its last argument.  gram and
    cartan_vec take one vector or a stack of them (leading axes), one
    independent point per row."""

    dim: int
    reversible: bool

    def value(self, y: np.ndarray) -> float:
        raise NotImplementedError

    def gram(self, y: np.ndarray) -> np.ndarray:
        """Matrix of <u,v>_y over the declared m-basis, (..., d, d)."""
        raise NotImplementedError

    def cartan_vec(self, y, u, v) -> np.ndarray:
        """The vector (C_y(u,v,e_k))_k over the declared m-basis."""
        raise NotImplementedError

    def cartan3(self, y, u, v, w) -> float:
        """Cartan tensor C_y(u,v,w), linear in w."""
        return float(self.cartan_vec(y, u, v) @ np.asarray(w, dtype=float))


def _check_nonzero(y: np.ndarray):
    if not np.all(np.any(np.abs(y) > 0, axis=-1)):
        raise ValueError("Hessian undefined at the origin")


def _dot(x, y):
    """Row-wise inner products of stacks of vectors."""
    return np.einsum("...i,...i->...", x, y)


def _outer(x, y):
    return x[..., :, None] * y[..., None, :]


def _comb(c, x):
    """Row-wise sum_k c_k x_k for stacks c (..., k) and x (..., k, d)."""
    return np.einsum("...k,...ki->...i", c, x)


@dataclass
class Quadratic(MinkowskiNorm):
    q: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.dim = self.q.shape[0]
        self.reversible = True

    def value(self, y) -> float:
        y = np.asarray(y, dtype=float)
        return float(np.sqrt(max(y @ self.q @ y, 0.0)))

    def gram(self, y) -> np.ndarray:
        _check_nonzero(np.asarray(y))
        return np.broadcast_to(self.q, np.shape(y)[:-1] + self.q.shape).copy()

    def cartan_vec(self, y, u, v) -> np.ndarray:
        _check_nonzero(np.asarray(y))
        return np.zeros(np.broadcast_shapes(np.shape(y), np.shape(u), np.shape(v)))

    def to_json(self):
        return {"family": "quadratic", "gram": self.q.tolist()}


@dataclass
class Randers(MinkowskiNorm):
    q: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.dim = self.q.shape[0]
        self.reversible = bool(np.allclose(self.b, 0.0))
        qinv = np.linalg.solve(self.q, self.b)
        if self.b @ qinv >= 1.0:
            raise ValueError("Randers norm needs |b|_Q < 1 for positive definiteness")

    def value(self, y) -> float:
        y = np.asarray(y, dtype=float)
        return float(np.sqrt(max(y @ self.q @ y, 0.0)) + self.b @ y)

    def gram(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        _check_nonzero(y)
        qy = np.einsum("ij,...j->...i", self.q, y)
        alpha = np.sqrt(_dot(y, qy))[..., None]
        a = qy / alpha
        r = (_dot(self.b, y)[..., None] / alpha)[..., None]  # beta / alpha
        # b b' appears once, in (a + b) b'
        g = (1.0 + r) * self.q - r * _outer(a, a) + _outer(a + self.b, self.b) + _outer(self.b, a)
        return 0.5 * (g + np.swapaxes(g, -1, -2))

    def cartan_vec(self, y, u, v) -> np.ndarray:
        # C = 1/4 D^3[F^2] with F^2 = alpha^2 + 2 alpha beta + beta^2,
        # last slot left open
        y, u, v = (np.asarray(t, dtype=float) for t in (y, u, v))
        _check_nonzero(y)
        qy, qu, qv = (np.einsum("ij,...j->...i", self.q, t) for t in (y, u, v))
        alpha = np.sqrt(_dot(y, qy))[..., None]
        a = qy / alpha
        au, av, uqv = (_dot(x, z)[..., None] for x, z in ((a, u), (a, v), (u, qv)))
        d3 = (-(uqv * a + av * qu + au * qv) + 3.0 * au * av * a) / alpha ** 2
        d2u = (qu - au * a) / alpha
        d2v = (qv - av * a) / alpha
        d2uv = (uqv - au * av) / alpha
        by, bu, bv = (_dot(self.b, t)[..., None] for t in (y, u, v))
        val = 2.0 * (by * d3 + d2uv * self.b + d2u * bv + d2v * bu)
        return 0.25 * val

    def to_json(self):
        return {"family": "randers", "gram": self.q.tolist(), "b": self.b.tolist()}


@dataclass
class Quartic(MinkowskiNorm):
    weights: np.ndarray
    qs: Sequence[np.ndarray]

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.qs = [np.asarray(q, dtype=float) for q in self.qs]
        if np.any(self.weights < 0):
            raise ValueError("Quartic weights must be nonnegative")
        if not np.any(self.weights > 0):
            raise ValueError("Quartic needs at least one positive weight")
        self.dim = self.qs[0].shape[0]
        self.reversible = True
        self._qstack = np.array(self.qs)

    def value(self, y) -> float:
        vals = np.array([y @ q @ y for q in self.qs])
        return float((self.weights @ vals ** 2) ** 0.25)

    def _derivs(self, y):
        """Rows Q_k y and y'Q_k y over the quadratics, P and dP, row-wise."""
        y = np.asarray(y, dtype=float)
        _check_nonzero(y)
        qy = np.einsum("kij,...j->...ki", self._qstack, y)
        vals = np.einsum("...ki,...i->...k", qy, y)
        return qy, vals, _dot(self.weights, vals ** 2)[..., None], 4.0 * _comb(self.weights * vals, qy)

    def gram(self, y) -> np.ndarray:
        qy, vals, p, dp = self._derivs(y)
        wk = self.weights
        d2p = 4.0 * (np.einsum("k,...ki,...kj->...ij", 2.0 * wk, qy, qy)
                     + np.einsum("...k,kij->...ij", wk * vals, self._qstack))
        p = p[..., None]
        sp = np.sqrt(p)
        # half the Hessian of F^2 = sqrt(P)
        g = d2p / (4.0 * sp) - _outer(dp, dp) / (8.0 * p * sp)
        return 0.5 * (g + np.swapaxes(g, -1, -2))

    def cartan_vec(self, y, u, v) -> np.ndarray:
        # C = 1/4 D^3[sqrt P], last slot left open
        qy, vals, p, dp = self._derivs(y)
        u, v, wk = np.asarray(u, dtype=float), np.asarray(v, dtype=float), self.weights
        qu, qv = (np.einsum("kij,...j->...ki", self._qstack, t) for t in (u, v))
        gu, gv, uqv = (np.einsum("...ki,...i->...k", a, t) for a, t in ((qy, u), (qy, v), (qu, v)))
        sp = np.sqrt(p)
        du, dv = _dot(dp, u)[..., None], _dot(dp, v)[..., None]
        d2uv = 4.0 * _dot(wk, 2.0 * gu * gv + vals * uqv)[..., None]
        d2u = 4.0 * (_comb(2.0 * wk * gu, qy) + _comb(wk * vals, qu))
        d2v = 4.0 * (_comb(2.0 * wk * gv, qy) + _comb(wk * vals, qv))
        d3 = 8.0 * (_comb(wk * uqv, qy) + _comb(wk * gv, qu) + _comb(wk * gu, qv))
        term = d3 / (2.0 * sp)
        term -= (d2uv * dp + d2u * dv + d2v * du) / (4.0 * p * sp)
        term += 3.0 * du * dv * dp / (8.0 * p ** 2 * sp)
        return 0.25 * term

    def to_json(self):
        return {
            "family": "quartic",
            "weights": self.weights.tolist(),
            "quadratics": [q.tolist() for q in self.qs],
        }


class GenericNorm(MinkowskiNorm):
    """Wrap a positively 1-homogeneous callable; derivatives by central
    finite differences with one Richardson extrapolation level."""

    def __init__(self, fn: Callable[[np.ndarray], float], dim: int,
                 reversible: bool = False, rel_step: float = GENERIC_REL_STEP):
        self.fn = fn
        self.dim = dim
        self.reversible = reversible
        self.rel_step = rel_step

    def value(self, y) -> float:
        return float(self.fn(np.asarray(y, dtype=float)))

    def _f2(self, y):
        v = self.fn(y)
        return v * v

    def _d2(self, y, u, v, h):
        f = self._f2
        return (
            f(y + h * u + h * v) - f(y + h * u - h * v)
            - f(y - h * u + h * v) + f(y - h * u - h * v)
        ) / (4.0 * h * h)

    def g_fd(self, y, u, v) -> float:
        y = np.asarray(y, dtype=float)
        _check_nonzero(y)
        h = self.rel_step * np.linalg.norm(y)
        a = self._d2(y, u, v, h)
        b = self._d2(y, u, v, h / 2.0)
        return 0.5 * (4.0 * b - a) / 3.0

    def gram(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.ndim > 1:  # one point per row
            return np.array([self.gram(r) for r in y]).reshape(y.shape + (self.dim,))
        e = np.eye(self.dim)
        g = np.zeros((self.dim, self.dim))
        for i in range(self.dim):
            for j in range(i, self.dim):
                g[i, j] = g[j, i] = self.g_fd(y, e[i], e[j])
        return g

    def cartan3(self, y, u, v, w) -> float:
        y = np.asarray(y, dtype=float)
        _check_nonzero(y)
        u, v, w = (np.asarray(t, dtype=float) for t in (u, v, w))
        # direct 8-point stencil; nesting two central differences at the
        # gram step would lose everything to roundoff
        h = max(self.rel_step, 1e-3) * np.linalg.norm(y)
        tot = 0.0
        for su in (1.0, -1.0):
            for sv in (1.0, -1.0):
                for sw in (1.0, -1.0):
                    tot += su * sv * sw * self._f2(y + h * (su * u + sv * v + sw * w))
        return tot / (32.0 * h ** 3)

    def cartan_vec(self, y, u, v) -> np.ndarray:
        y, u, v = np.broadcast_arrays(*(np.asarray(t, dtype=float) for t in (y, u, v)))
        if y.ndim > 1:  # one point per row
            return np.array([self.cartan_vec(*r) for r in zip(y, u, v)]).reshape(y.shape)
        return np.array([self.cartan3(y, u, v, e) for e in np.eye(self.dim)])


# ---------------------------------------------------------------------------
# Finite-difference oracles (also used as the fallback path above).  For the
# built-in families the oracle evaluates F^2 in extended precision so the
# documented step FD_REL_STEP is not drowned by float64 cancellation;
# other norms get the float64 path of GenericNorm at its own step
# GENERIC_REL_STEP, since 1e-5 would leave float64 roundoff near 1e-5.
# ---------------------------------------------------------------------------

def _mp_f2(norm: MinkowskiNorm):
    import mpmath
    if isinstance(norm, Quadratic):
        q = norm.q

        def f2(z):
            return sum(z[i] * sum(mpmath.mpf(q[i, j]) * z[j] for j in range(len(z)))
                       for i in range(len(z)))
        return f2
    if isinstance(norm, Randers):
        q, b = norm.q, norm.b

        def f2(z):
            quad = sum(z[i] * sum(mpmath.mpf(q[i, j]) * z[j] for j in range(len(z)))
                       for i in range(len(z)))
            lin = sum(mpmath.mpf(b[i]) * z[i] for i in range(len(z)))
            return (mpmath.sqrt(quad) + lin) ** 2
        return f2
    if isinstance(norm, Quartic):
        ws, qs = norm.weights, norm.qs

        def f2(z):
            p = mpmath.mpf(0)
            for w, q in zip(ws, qs):
                quad = sum(z[i] * sum(mpmath.mpf(q[i, j]) * z[j] for j in range(len(z)))
                           for i in range(len(z)))
                p += mpmath.mpf(w) * quad ** 2
            return mpmath.sqrt(p)
        return f2
    return None


def fd_g_inner(norm: MinkowskiNorm, y, u, v) -> float:
    """Independent FD evaluation of <u,v>_y from norm values only."""
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    f2 = _mp_f2(norm)
    if f2 is None:
        return GenericNorm(norm.value, norm.dim, norm.reversible).g_fd(y, u, v)
    import mpmath
    with mpmath.workdps(40):
        h0 = mpmath.mpf(FD_REL_STEP) * mpmath.mpf(float(np.linalg.norm(y)))
        ym = [mpmath.mpf(t) for t in y]

        def d2(h):
            def at(su, sv):
                z = [ym[i] + h * (su * mpmath.mpf(u[i]) + sv * mpmath.mpf(v[i]))
                     for i in range(len(ym))]
                return f2(z)
            return (at(1, 1) - at(1, -1) - at(-1, 1) + at(-1, -1)) / (4 * h * h)

        a, b = d2(h0), d2(h0 / 2)
        return float(0.5 * (4 * b - a) / 3)


def fd_cartan(norm: MinkowskiNorm, y, u, v, w) -> float:
    """Independent FD evaluation of C_y(u,v,w) from norm values only."""
    y = np.asarray(y, dtype=float)
    f2 = _mp_f2(norm)
    if f2 is None:
        return GenericNorm(norm.value, norm.dim, norm.reversible).cartan3(y, u, v, w)
    import mpmath
    u, v, w = (np.asarray(t, dtype=float) for t in (u, v, w))
    with mpmath.workdps(40):
        h = mpmath.mpf(FD_REL_STEP) * mpmath.mpf(float(np.linalg.norm(y)))
        ym = [mpmath.mpf(t) for t in y]
        tot = mpmath.mpf(0)
        for su in (1, -1):
            for sv in (1, -1):
                for sw in (1, -1):
                    z = [ym[i] + h * (su * mpmath.mpf(u[i]) + sv * mpmath.mpf(v[i])
                                      + sw * mpmath.mpf(w[i]))
                         for i in range(len(ym))]
                    tot += su * sv * sw * f2(z)
        return float(tot / (32 * h ** 3))


def norm_from_json(obj) -> MinkowskiNorm:
    fam = obj["family"]
    if fam == "quadratic":
        return Quadratic(np.array(obj["gram"]))
    if fam == "randers":
        return Randers(np.array(obj["gram"]), np.array(obj["b"]))
    if fam == "quartic":
        return Quartic(np.array(obj["weights"]), [np.array(q) for q in obj["quadratics"]])
    raise ValueError(f"unknown norm family {fam!r}")


def norm_to_json_str(norm: MinkowskiNorm) -> str:
    return json.dumps(norm.to_json(), sort_keys=True)


# ---------------------------------------------------------------------------
# Invariance
# ---------------------------------------------------------------------------

def check_invariance(norm: MinkowskiNorm, space) -> dict:
    """Infinitesimal invariance of the norm under the h-action on m.

    Verifies <[h,u],v>_y + <u,[h,v]>_y + 2 C_y([h,y],u,v) = 0 over the
    h-basis and random y, u, v; returns the max residual (scale-normalized).
    """
    rng = np.random.default_rng(0)
    _, _, Kh = space.structure_tensors()
    # one (y, u, v) draw per sample, y normalized; rows a run over the h-basis
    y, u, v = np.moveaxis(rng.standard_normal((INVARIANCE_SAMPLES, 3, space.dim_m)), 1, 0)
    y = y / np.linalg.norm(y, axis=-1, keepdims=True)
    g = norm.gram(y)
    hy, hu, hv = (np.einsum("akl,nl->nak", Kh, t) for t in (y, u, v))
    r = (np.einsum("nak,nkl,nl->na", hu, g, v) + np.einsum("nk,nkl,nal->na", u, g, hv)
         + 2.0 * np.einsum("nk,nak->na", norm.cartan_vec(y, u, v), hy))
    scale = np.maximum(np.abs(g).max(axis=(1, 2)), 1.0)[:, None]
    return {"max_residual": float(np.max(np.abs(r) / scale, initial=0.0)),
            "samples": INVARIANCE_SAMPLES}


def invariant_quadratic_space(space) -> list:
    """Basis of Ad(h)-invariant symmetric forms on m: symmetric matrices
    commuting with every ad(h)|_m (the m-basis is bi-invariant orthonormal,
    so ad(h)|_m is skew and invariance reads [ad(h), S] = 0)."""
    _, _, Kh = space.structure_tensors()
    d = space.dim_m
    iu, ju = np.triu_indices(d)  # the pairs i <= j, row by row
    units = np.zeros((len(iu), d, d))  # S_ij = E_ij + E_ji (E_ii when i = j)
    units[np.arange(len(iu)), iu, ju] = units[np.arange(len(iu)), ju, iu] = 1.0
    # the map S -> A S - S A on the units, one d*d block of rows per A
    rows = [(A @ units - units @ A).transpose(1, 2, 0).reshape(d * d, -1) for A in Kh]
    stack = np.vstack(rows) if rows else np.zeros((1, len(iu)))
    # thin SVD unless the stack is short (h = 0), where only the full one
    # returns the null-space rows of vt
    _, sv, vt = np.linalg.svd(stack, full_matrices=stack.shape[0] < stack.shape[1])
    null = vt[[k for k in range(vt.shape[0]) if (sv[k] if k < len(sv) else 0.0) < NULL_TOL]]
    S = np.zeros((len(null), d, d))
    S[:, iu, ju] += null
    S[:, ju, iu] += np.where(iu != ju, null, 0.0)
    return list(0.5 * (S + np.swapaxes(S, 1, 2)))


def invariant_vectors(space) -> np.ndarray:
    """Orthonormal rows spanning the Ad(h)-fixed vectors of m: the common
    null space of every ad(h)|_m."""
    _, _, Kh = space.structure_tensors()
    d = space.dim_m
    if not len(Kh):
        return np.eye(d)
    _, sv, vt = np.linalg.svd(Kh.reshape(-1, d))
    return vt[sv < NULL_TOL]


def random_invariant_norm(space, seed: int) -> Quartic:
    """Deterministic reversible quartic norm built from QUARTIC_TERMS random
    positive combinations of Ad(h)-invariant quadratics (each made positive
    definite by an identity shift)."""
    rng = np.random.default_rng(seed)
    basis = invariant_quadratic_space(space)
    d = space.dim_m
    qs = []
    for _ in range(QUARTIC_TERMS):
        coeffs = rng.standard_normal(len(basis))
        S = sum(c * B for c, B in zip(coeffs, basis))
        S = 0.5 * (S + S.T)
        lo = float(np.linalg.eigvalsh(S).min())
        S = S + (abs(lo) + 0.35 + 0.4 * rng.random()) * np.eye(d)
        qs.append(S)
    weights = 0.25 + rng.random(QUARTIC_TERMS)
    return Quartic(weights, qs)
