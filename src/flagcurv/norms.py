"""Minkowski norms on m: values, Hessian inner products, Cartan tensors.

Three built-in families, all with closed-form derivatives:

  Quadratic(Q)            F(y) = sqrt(y'Qy)                  (Riemannian)
  Randers(Q, b)           F(y) = sqrt(y'Qy) + b'y            (non-reversible)
  Quartic(w_k, Q_k)       F(y) = (sum_k w_k (y'Q_k y)^2)^(1/4)  (reversible)

The Quartic family is positive definite whenever every Q_k is; it is this
library's reversible non-Riemannian test family.  The module also checks
Ad(H)-invariance, builds the Ad(h)-invariant symmetric forms on m, draws
seeded invariant norms from them and reads and writes norm JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

# singular values below this bound span the Ad(h)-invariant null spaces
NULL_TOL = 1e-8
MNTHR_RATIO = Fraction(11, 6)  # LAPACK dgesdd's MNTHR = INT(MINMN * 11 / 6)
INVARIANCE_SAMPLES = 20  # (y, u, v) draws of check_invariance
QUARTIC_TERMS = 3  # quadratics of a random_invariant_norm


class MinkowskiNorm:
    """Interface of the norm families: value(y); gram(y), the matrix of
    <u,v>_y over the declared m-basis, (..., d, d); cartan_vec(y, u, v),
    the vector (C_y(u,v,e_k))_k.  gram and cartan_vec take one vector or a
    stack of them (leading axes), one independent point per row, and raise
    ValueError at the origin."""

    dim: int
    reversible: bool


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


def norm_from_json(obj) -> MinkowskiNorm:
    """Norm from its JSON form; ValueError on a malformed one (fails closed)."""
    try:
        fam = obj["family"]
        if fam not in ("quadratic", "randers", "quartic"):
            raise ValueError(f"unknown norm family {fam!r}")
        qkey, vkey = ("quadratics", "weights") if fam == "quartic" else ("gram", "b")
        qs = np.array(obj[qkey], dtype=float)
        if qs.ndim != 2 + (fam == "quartic") or qs.shape[-1] != qs.shape[-2]:
            raise ValueError(f"{qkey} has shape {qs.shape}, not that of square matrices")
        if fam == "quadratic":
            return Quadratic(qs)
        vec = np.array(obj[vkey], dtype=float)
        if vec.shape != (len(qs),):
            raise ValueError(f"{vkey} has shape {vec.shape}, not ({len(qs)},)")
        return Quartic(vec, list(qs)) if fam == "quartic" else Randers(qs, vec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed norm file: {type(exc).__name__}: {exc}") from None


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
    if norm.dim != space.dim_m:
        raise ValueError(f"norm acts on R^{norm.dim}, but dim m = {space.dim_m}")
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


def _null_rows(stack: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the null space of stack (singular values below
    NULL_TOL), all of R^n for no rows.  From MNTHR_RATIO rows per column on,
    dgesdd decomposes the R of stack = QR and then forms Q U_R; taking R here
    skips Q and U and keeps the plain SVD's vt, so the seeded norms, bit for bit."""
    if not len(stack):
        return np.eye(stack.shape[1])
    if len(stack) >= int(MNTHR_RATIO * stack.shape[1]):
        stack = np.linalg.qr(stack, mode="r")
    _, sv, vt = np.linalg.svd(stack, full_matrices=False)
    return vt[sv < NULL_TOL]


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
    stack = np.empty((len(Kh), d, d, len(iu)))
    for A, block in zip(Kh, stack):
        block[...] = (A @ units - units @ A).transpose(1, 2, 0)
    return list(np.tensordot(_null_rows(stack.reshape(-1, len(iu))), units, 1))


def invariant_vectors(space) -> np.ndarray:
    """Orthonormal rows spanning the Ad(h)-fixed vectors of m: the common
    null space of every ad(h)|_m."""
    _, _, Kh = space.structure_tensors()
    return _null_rows(Kh.reshape(-1, space.dim_m))


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
        S = sum(c * B for c, B in zip(coeffs, basis))  # symmetric, as every B
        lo = float(np.linalg.eigvalsh(S).min())
        S = S + (abs(lo) + 0.35 + 0.4 * rng.random()) * np.eye(d)
        qs.append(S)
    weights = 0.25 + rng.random(QUARTIC_TERMS)
    return Quartic(weights, qs)
