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

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from numpy.linalg import lapack_lite  # private but present, per numpy's test_public_api

# singular values below this bound span the Ad(h)-invariant null spaces
NULL_TOL = 1e-8
MNTHR_RATIO = Fraction(11, 6)  # LAPACK dgesdd's MNTHR = INT(MINMN * 11 / 6)
INVARIANCE_SAMPLES = 20  # (y, u, v) draws of check_invariance
QUARTIC_TERMS = 3  # quadratics of a random_invariant_norm


class MinkowskiNorm:
    """Interface of the norm families: value(y); pole(y), one evaluation of
    the norm at the poles y: a tuple of the Gram matrices g_y (the matrices of
    <u,v>_y over the declared m-basis, (..., d, d)) and then the family's own
    terms, every entry with the rows of y as leading axes, so that a row mask
    selects from each (a norm whose Gram matrix does not depend on y returns
    it once, (d, d), as its only entry, and inverse(g) inverts it: a Quadratic
    once, when built); cartan_pair(pole, v, w), the vector C_y(., v, w),
    (..., d), so that C_y(u, v, w) is u . cartan_pair(pole, v, w).  gram(y) is
    the one-off form.  All take one vector or a stack of them (leading axes),
    one independent point per row, and raise ValueError at the origin; pole
    and cartan_pair also take complex rows, analytic in y, v and w (no float
    casts, no conjugation), as a complex step needs.  The constructors raise
    ValueError on arrays of the wrong shape, with entries that are not finite
    or, for matrices, not symmetric."""

    dim: int
    reversible: bool

    def gram(self, y) -> np.ndarray:
        return self.pole(y)[0]

    def inverse(self, g):
        """g^-1 for a Gram matrix g (d, d) that a pole's rows share, None unless it factors."""
        return np.linalg.inv(g) if _factors(g) else None


def _factors(g) -> np.ndarray:
    """Mask of the matrices of the stack g with a Cholesky factorization."""
    try:
        np.linalg.cholesky(g)
        return np.ones(g.shape[:-2], dtype=bool)
    except np.linalg.LinAlgError:
        return np.array([_factors(x) for x in g], dtype=bool) if g.ndim > 2 else np.False_


def _check_nonzero(y: np.ndarray):
    if not np.all(np.any(np.abs(y) > 0, axis=-1)):
        raise ValueError("Hessian undefined at the origin")


def _finite(a, name: str) -> np.ndarray:
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has entries that are not finite")
    return a


def _square(a, name: str, ndim: int = 2) -> np.ndarray:
    """a as a finite float array of ndim axes whose last two are equal,
    stored as 0.5 (a + a'), which is a bit for bit when a is symmetric; an
    asymmetry above 1e-12 max(1, max|a|) raises (g and C assume symmetric
    matrices, while the value of the norm sees only their symmetric part)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{name} has shape {a.shape}, not that of square matrices")
    a, at = _finite(a, name), _swap(a)
    skew = np.abs(a - at).max(initial=0.0)
    if skew > 1e-12 * max(1.0, np.abs(a).max(initial=0.0)):
        raise ValueError(f"{name} is not symmetric: |a - a'| reaches {skew:.3g}")
    return 0.5 * (a + at)


def _vector(a, name: str, n: int) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape != (n,):
        raise ValueError(f"{name} has shape {a.shape}, not ({n},)")
    return _finite(a, name)


def _dot(x, y):
    """Row-wise inner products of stacks of vectors."""
    return np.einsum("...i,...i->...", x, y)


def _outer(x, y):
    return x[..., :, None] * y[..., None, :]


def _mv(a, x):
    """Row-wise a x for stacks a (..., n, d) and x (..., d)."""
    return (a @ x[..., None])[..., 0]


def _vm(x, a):
    """Row-wise x a, x a row vector, for stacks x (..., n) and a (..., n, d).
    A 2-D a is shared by every row; each row is still its own product, so
    no row's result depends on the size of its stack (x @ a over a 2-D x
    would be one matrix product, whose rows may not)."""
    return (x[..., None, :] @ a)[..., 0, :]


def _swap(a):
    return np.swapaxes(a, -1, -2)


@dataclass(frozen=True)
class Quadratic(MinkowskiNorm):
    q: np.ndarray

    def __post_init__(self):
        q = _square(self.q, "gram")
        q.flags.writeable = False  # frozen and read-only, so that its inverse cannot go stale
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "dim", len(q))
        object.__setattr__(self, "reversible", True)
        object.__setattr__(self, "_inv", super().inverse(q))  # gate and inverse of every pole

    def value(self, y) -> float:
        y = np.asarray(y, dtype=float)
        return float(np.sqrt(max(y @ self.q @ y, 0.0)))

    def gram(self, y) -> np.ndarray:
        return np.broadcast_to(self.pole(y)[0], np.shape(y)[:-1] + self.q.shape).copy()

    def pole(self, y) -> tuple:
        _check_nonzero(np.asarray(y))
        return (self.q,)  # g is constant: one (d, d) for every row; C = 0

    def inverse(self, g):  # a subclass whose pole returns another g gets it inverted anew
        return self._inv if g is self.q else super().inverse(g)

    def cartan_pair(self, pole, v, w) -> np.ndarray:
        return np.zeros(np.broadcast_shapes(np.shape(v), np.shape(w)))

    def to_json(self):
        return {"family": "quadratic", "gram": self.q.tolist()}


@dataclass
class Randers(MinkowskiNorm):
    q: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.q = _square(self.q, "gram")
        self.b = _vector(self.b, "b", len(self.q))
        self.dim = self.q.shape[0]
        self.reversible = bool(np.allclose(self.b, 0.0))
        qinv = np.linalg.solve(self.q, self.b)
        if self.b @ qinv >= 1.0:
            raise ValueError("Randers norm needs |b|_Q < 1 for positive definiteness")

    def value(self, y) -> float:
        y = np.asarray(y, dtype=float)
        return float(np.sqrt(max(y @ self.q @ y, 0.0)) + self.b @ y)

    def pole(self, y) -> tuple:
        """(g, y, alpha = sqrt(y'Qy) with an axis kept, a = Q y / alpha)."""
        y = np.asarray(y)
        _check_nonzero(y)
        qy = np.einsum("ij,...j->...i", self.q, y)
        alpha = np.sqrt(_dot(y, qy))[..., None]
        a = qy / alpha
        r = (_dot(self.b, y)[..., None] / alpha)[..., None]  # beta / alpha
        # b b' appears once, in (a + b) b'
        g = (1.0 + r) * self.q - r * _outer(a, a) + _outer(a + self.b, self.b) + _outer(self.b, a)
        return 0.5 * (g + _swap(g)), y, alpha, a

    def cartan_pair(self, pole, v, w) -> np.ndarray:
        # C = 1/4 D^3[F^2] = 1/2 D^3[alpha beta], D^2 alpha(x, .) = (Q x - (a.x) a) / alpha,
        # D^3 alpha(., v, w) = (3 (a.v)(a.w) a - (a.w) Q v - (a.v) Q w - (v'Qw) a) / alpha^2
        _, y, alpha, a = pole
        v, w = np.asarray(v), np.asarray(w)
        qv, qw = (np.einsum("ij,...j->...i", self.q, t) for t in (v, w))
        av, aw, vqw = _dot(a, v)[..., None], _dot(a, w)[..., None], _dot(v, qw)[..., None]
        d3 = (3.0 * av * aw * a - aw * qv - av * qw - vqw * a) / alpha ** 2
        by, bv, bw = (_dot(self.b, t)[..., None] for t in (y, v, w))
        return 0.5 * (by * d3 + (bv * (qw - aw * a) + bw * (qv - av * a)
                                 + (vqw - av * aw) * self.b) / alpha)

    def to_json(self):
        return {"family": "randers", "gram": self.q.tolist(), "b": self.b.tolist()}


@dataclass
class Quartic(MinkowskiNorm):
    weights: np.ndarray
    qs: Sequence[np.ndarray]

    def __post_init__(self):
        shapes = {np.shape(q) for q in self.qs}
        if len(shapes) > 1:
            raise ValueError(f"quadratics have the shapes {sorted(shapes)}, not one")
        stack = _square(self.qs, "quadratics", ndim=3)
        self.weights = _vector(self.weights, "weights", len(stack))
        if np.any(self.weights < 0):
            raise ValueError("Quartic weights must be nonnegative")
        if not np.any(self.weights > 0):
            raise ValueError("Quartic needs at least one positive weight")
        self.qs = list(stack)
        k, self.dim = stack.shape[:2]
        self.reversible = True
        # the quadratics as matrices that row vectors multiply (_vm):
        # y -> the rows Q_k y, and c -> sum_k c_k Q_k
        self._q_rows = np.ascontiguousarray(stack.transpose(2, 0, 1).reshape(self.dim, -1))
        self._q_comb = stack.reshape(k, -1)

    def value(self, y) -> float:
        vals = np.array([y @ q @ y for q in self.qs])
        return float((self.weights @ vals ** 2) ** 0.25)

    def _rows(self, x):
        """The rows Q_k x, (..., k, d)."""
        return _vm(x, self._q_rows).reshape(x.shape[:-1] + (len(self.qs), self.dim))

    def _comb(self, c):
        """sum_k c_k Q_k, (..., d, d), for stacks c (..., k)."""
        return _vm(c, self._q_comb).reshape(c.shape[:-1] + (self.dim, self.dim))

    def pole(self, y) -> tuple:
        """(g, the rows Q_k y, P, dP, d^2P) of P = sum_k w_k (y'Q_k y)^2 at
        the rows y, P with two axes kept."""
        y = np.asarray(y)
        _check_nonzero(y)
        qy = self._rows(y)
        vals = _mv(qy, y)
        wv = self.weights * vals
        d2p = 8.0 * (_swap(qy) @ (self.weights[:, None] * qy)) + 4.0 * self._comb(wv)
        p, dp = _dot(wv, vals)[..., None, None], 4.0 * _vm(wv, qy)
        sp = np.sqrt(p)
        # half the Hessian of F^2 = sqrt(P)
        g = d2p / (4.0 * sp) - _outer(dp, dp) / (8.0 * p * sp)
        return 0.5 * (g + _swap(g)), qy, p, dp, d2p

    def cartan_pair(self, pole, v, w) -> np.ndarray:
        # C = 1/4 D^3[sqrt P], where D^3 P(., v, w) = 8 sum_k w_k ((y'Q_k w) Q_k v
        # + (y'Q_k v) Q_k w + (v'Q_k w) Q_k y)
        _, qy, p, dp, d2p = pole
        v, w = np.asarray(v), np.asarray(w)
        wk = self.weights
        qv, qw = self._rows(v), self._rows(w)
        d3p = 8.0 * (_vm(wk * _mv(qy, w), qv) + _vm(wk * _mv(qy, v), qw)
                     + _vm(wk * _mv(qv, w), qy))
        d2v, d2w = _mv(d2p, v), _mv(d2p, w)
        dpv, dpw, d2vw = (_dot(a, b)[..., None] for a, b in ((dp, v), (dp, w), (d2v, w)))
        p, sp = p[..., 0], np.sqrt(p[..., 0])
        return 0.25 * (d3p / (2.0 * sp) - (d2vw * dp + d2v * dpw + d2w * dpv) / (4.0 * p * sp)
                       + 3.0 * dpv * dpw * dp / (8.0 * p ** 2 * sp))

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
        if fam == "quadratic":
            return Quadratic(obj["gram"])
        if fam == "randers":
            return Randers(obj["gram"], obj["b"])
        if fam == "quartic":
            return Quartic(obj["weights"], obj["quadratics"])
        raise ValueError(f"unknown norm family {fam!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed norm file: {type(exc).__name__}: {exc}") from None


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
         + 2.0 * np.einsum("nl,nal->na", norm.cartan_pair(norm.pole(y), u, v), hy))
    scale = np.maximum(np.abs(g).max(axis=(1, 2)), 1.0)[:, None]
    return {"max_residual": float(np.max(np.abs(r) / scale, initial=0.0)),
            "samples": INVARIANCE_SAMPLES}


def _null_rows(stack: np.ndarray, owned: bool = False) -> np.ndarray:
    """Orthonormal rows spanning the null space of stack (singular values below
    NULL_TOL), all of R^n for no rows.  From MNTHR_RATIO rows per column on,
    dgesdd decomposes the R of stack = QR and then forms Q U_R; taking R here
    skips Q and U and keeps the plain SVD's vt, so the seeded norms, bit for bit.
    R comes from the dgeqrf that np.linalg.qr calls, with its workspace, from
    numpy.linalg.lapack_lite: it factors stack.T as a C-ordered array (LAPACK's
    column-major stack) in place, the buffer itself when the caller built it for
    this call (owned, an F-ordered stack passed as its only reference, so that it
    is freed once R is read off, before the SVD), else one copy (np.linalg.qr
    takes two)."""
    if not len(stack):
        return np.eye(stack.shape[1])
    m, n = stack.shape
    if m >= int(MNTHR_RATIO * n):
        a = stack.T if owned else np.array(stack.T, float, order="C")
        tau, query = np.empty(n), np.zeros(1)
        lapack_lite.dgeqrf(m, n, a, m, tau, query, -1, 0)  # workspace query
        lwork = max(1, n, int(query[0]))  # np.linalg.qr's workspace, so its blocking
        if lapack_lite.dgeqrf(m, n, a, m, tau, np.empty(lwork), lwork, 0)["info"]:
            raise np.linalg.LinAlgError("QR factorization of the invariance stack failed")
        stack = np.triu(a[:, :n].T)
        del a
    _, sv, vt = np.linalg.svd(stack, full_matrices=False)
    return vt[sv < NULL_TOL]


def _commutator_stack(Kh: np.ndarray, d: int) -> np.ndarray:
    """The F-ordered (dim h * d * d, d(d+1)/2) stack of S -> A S - S A, a d*d block
    of rows per A in Kh, one column per S_ij = E_ij + E_ji (E_ii when i = j), the
    pairs i <= j row by row, written in place one i at a time through views, with
    no gathered copy of Kh: column i of A S_ij is A[:, j] and column j is A[:, i],
    then row i of S_ij A is taken off A[j] and row j off A[i] (once for i = j);
    + 0.0 as the +0.0 a product sums from."""
    cols = np.zeros((d * (d + 1) // 2, len(Kh), d, d))  # column n of the stack is cols[n]
    plus, n0 = Kh + 0.0, 0
    for i in range(d):
        blk, n0 = cols[n0:n0 + d - i], n0 + d - i  # the pairs (i, j), j = i, ..., d - 1
        blk[:, :, :, i] = plus[:, :, i:].transpose(2, 0, 1)
        np.einsum("nakn->nak", blk[:, :, :, i:])[...] = plus[:, :, i]
        blk[:, :, i, :] -= Kh[:, i:, :].transpose(1, 0, 2)
        np.einsum("nanl->nal", blk[1:, :, i + 1:, :])[...] -= Kh[:, i, :]
    return cols.reshape(len(cols), -1).T


def invariant_quadratic_space(space) -> list:
    """Basis of Ad(h)-invariant symmetric forms on m: symmetric matrices
    commuting with every ad(h)|_m (the m-basis is bi-invariant orthonormal,
    so ad(h)|_m is skew and invariance reads [ad(h), S] = 0)."""
    _, _, Kh = space.structure_tensors()
    d = space.dim_m
    iu, ju = np.triu_indices(d)
    # the stack is built inside the call, so _null_rows holds its one reference
    null = _null_rows(_commutator_stack(Kh, d), owned=True) + 0.0
    forms = np.zeros((len(null), d, d))
    forms[:, iu, ju] = forms[:, ju, iu] = null
    return list(forms)


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
