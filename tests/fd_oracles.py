"""Finite-difference oracles for the closed-form Hessians and Cartan tensors.

Each oracle evaluates F^2 of a built-in norm family in extended precision
(40 digits), so the relative step FD_REL_STEP is not drowned by float64
cancellation, and differentiates it by central differences: the Hessian
inner product with one Richardson level, the Cartan tensor by the direct
8-point stencil.  Only norm values enter, so the oracles are independent of
the closed forms in `flagcurv.norms`.  A norm type without an
extended-precision form here raises TypeError.  cartan_matrix lays the
closed-form Cartan tensor out as a matrix, for checks that need one.
"""

import mpmath
import numpy as np

from flagcurv.norms import Quadratic, Quartic, Randers

FD_REL_STEP = 1e-5


def _mp_quad(q, z):
    return sum(z[i] * sum(mpmath.mpf(q[i, j]) * z[j] for j in range(len(z)))
               for i in range(len(z)))


def _mp_f2(norm):
    """F^2 of norm as a function of a list of mpf coordinates."""
    if isinstance(norm, Quadratic):
        return lambda z: _mp_quad(norm.q, z)
    if isinstance(norm, Randers):
        def f2(z):
            lin = sum(mpmath.mpf(norm.b[i]) * z[i] for i in range(len(z)))
            return (mpmath.sqrt(_mp_quad(norm.q, z)) + lin) ** 2
        return f2
    if isinstance(norm, Quartic):
        def f2(z):
            p = mpmath.mpf(0)
            for w, q in zip(norm.weights, norm.qs):
                p += mpmath.mpf(w) * _mp_quad(q, z) ** 2
            return mpmath.sqrt(p)
        return f2
    raise TypeError(f"no extended-precision form for {type(norm).__name__}")


def fd_g_inner(norm, y, u, v) -> float:
    """Independent FD evaluation of <u,v>_y from norm values only."""
    y, u, v = (np.asarray(t, dtype=float) for t in (y, u, v))
    f2 = _mp_f2(norm)
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


def fd_cartan(norm, y, u, v, w) -> float:
    """Independent FD evaluation of C_y(u,v,w) from norm values only."""
    y, u, v, w = (np.asarray(t, dtype=float) for t in (y, u, v, w))
    f2 = _mp_f2(norm)
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


def cartan_matrix(norm, y, v) -> np.ndarray:
    """M[..., i, j] = C_y(e_i, e_j, v), one norm.cartan_pair per basis vector e_j."""
    pole, v = norm.pole(y), np.asarray(v)
    return np.stack([norm.cartan_pair(pole, np.broadcast_to(e, v.shape), v)
                     for e in np.eye(norm.dim)], axis=-1)
