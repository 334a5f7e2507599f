"""Matrix realizations of the classical compact Lie algebras.

su(n+1), so(m) and sp(n) are realized with the standard Cartan generators
and root-plane bases, all as plain matrices: su(n+1) complex, so(m) real,
and sp(n) as complex 2n x 2n matrices inside su(2n), the quaternion matrix
a + b j being [[a, b], [-conj b, conj a]].  The bi-invariant inner product
is -Re tr(xy) per factor, normalized so that the Cartan generators realize
the root-system coordinates isometrically (factor 1/2 for the orthogonal
and symplectic families), with an optional positive scale per factor and
the Euclidean product on the abelian part.  Coordinates over the
orthonormal ambient basis are one product with its cached dual matrix, and
the brackets of many pairs are one broadcast matmul per factor, taken in
chunks of bounded size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .rootsys import RootVector, build_root_system
from .torus import AlgebraSpec

# entries per batched bracket temporary (about 1 MB of float64)
PAIR_CHUNK = 1 << 17


class AlgebraElement:
    """Element of a realized algebra: one matrix block per factor, plus an
    abelian component vector."""

    __slots__ = ("algebra", "blocks", "abelian")

    def __init__(self, algebra: "RealizedAlgebra", blocks, abelian=None):
        self.algebra = algebra
        self.blocks = list(blocks)
        self.abelian = (
            np.zeros(algebra.spec.abelian_dim)
            if abelian is None
            else np.asarray(abelian, dtype=float)
        )

    def copy(self) -> "AlgebraElement":
        return AlgebraElement(
            self.algebra,
            [b.copy() for b in self.blocks],
            self.abelian.copy(),
        )

    def __add__(self, o: "AlgebraElement") -> "AlgebraElement":
        self._check(o)
        return AlgebraElement(
            self.algebra,
            [a + b for a, b in zip(self.blocks, o.blocks)],
            self.abelian + o.abelian,
        )

    def __sub__(self, o: "AlgebraElement") -> "AlgebraElement":
        self._check(o)
        return AlgebraElement(
            self.algebra,
            [a - b for a, b in zip(self.blocks, o.blocks)],
            self.abelian - o.abelian,
        )

    def __rmul__(self, c: float) -> "AlgebraElement":
        return AlgebraElement(
            self.algebra, [c * b for b in self.blocks], c * self.abelian
        )

    def __neg__(self) -> "AlgebraElement":
        return (-1.0) * self

    def _check(self, o: "AlgebraElement"):
        if o.algebra is not self.algebra:
            raise ValueError("algebra spec mismatch")

    def norm(self) -> float:
        return float(np.sqrt(max(self.algebra.inner(self, self), 0.0)))


@dataclass
class RootPlanePair:
    """Root plane of a realized factor: two orthonormal basis matrices.

    Orientation is normalized so that bracketing with a Cartan element h
    sends x to <alpha, h>*y and y to -<alpha, h>*x.
    """

    factor: int
    root: RootVector
    x: AlgebraElement
    y: AlgebraElement


def _eij(n: int, i: int, j: int, dtype) -> np.ndarray:
    m = np.zeros((n, n), dtype=dtype)
    m[i, j] = 1
    return m


def quat_block(a, b) -> np.ndarray:
    """The complex 2n x 2n block of the quaternion matrix a + b j, where
    a = w + x i and b = y + z i are complex n x n."""
    return np.block([[a, b], [-np.conj(b), np.conj(a)]])


_QUAT_UNITS = {"w": (1, 0), "x": (1j, 0), "y": (0, 1), "z": (0, 1j)}


def quat_unit(n: int, part: str, entries) -> np.ndarray:
    """Complex block of the quaternion n x n matrix with c times the unit
    `part` (w, x, y or z) at each (i, j, c) of entries."""
    ca, cb = _QUAT_UNITS[part]
    e = np.zeros((n, n), dtype=complex)
    for i, j, c in entries:
        e[i, j] += c
    return quat_block(ca * e, cb * e)


class RealizedAlgebra:
    """Concrete matrix model of an AlgebraSpec with root-plane bases."""

    def __init__(self, spec: AlgebraSpec):
        for fam, rank, _ in spec.factors:
            if fam not in ("A", "B", "C", "D"):
                raise ValueError(
                    f"no matrix realization for factor {fam}{rank}; root-level only"
                )
        self.spec = spec
        self.factors = []
        for idx, (fam, rank, scale) in enumerate(spec.factors):
            self.factors.append(_FactorRealization(self, idx, fam, rank, scale))
        for f in self.factors:
            f.init_planes()
        self.dim = sum(f.dim for f in self.factors) + spec.abelian_dim
        self._ambient_basis: Optional[list] = None
        self._dual: Optional[np.ndarray] = None
        self._slices = []  # column range of each factor in the flat layout
        start = 0
        for f in self.factors:
            self._slices.append(slice(start, start + f.flat_len))
            start += f.flat_len

    # -- element constructors -------------------------------------------
    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, [f.zero_block() for f in self.factors])

    def from_blocks(self, blocks, abelian=None) -> AlgebraElement:
        return AlgebraElement(self, blocks, abelian)

    def single_block(self, factor: int, block, abelian=None) -> AlgebraElement:
        blocks = [f.zero_block() for f in self.factors]
        blocks[factor] = block
        return AlgebraElement(self, blocks, abelian)

    def abelian_unit(self, k: int) -> AlgebraElement:
        v = np.zeros(self.spec.abelian_dim)
        v[k] = 1.0 / float(self.spec.abelian_scales[k]) ** 0.5
        return AlgebraElement(self, [f.zero_block() for f in self.factors], v)

    # -- core operations --------------------------------------------------
    def bracket(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        x._check(y)
        blocks = []
        for f, a, b in zip(self.factors, x.blocks, y.blocks):
            blocks.append(f.commutator(a, b))
        return AlgebraElement(self, blocks)  # abelian part of a bracket is zero

    def inner(self, x: AlgebraElement, y: AlgebraElement) -> float:
        x._check(y)
        out = 0.0
        for s, xa, ya in zip(self.spec.abelian_scales, x.abelian, y.abelian):
            out += float(s) * float(xa) * float(ya)
        for f, a, b in zip(self.factors, x.blocks, y.blocks):
            out += f.weight * f.re_trace_product(a, b)
        return out

    def cartan_embed(self, vectors: Sequence[Optional[RootVector]], abelian=None) -> AlgebraElement:
        """Element of t whose inner products against Cartan generators
        reproduce the given exact per-factor coordinates."""
        blocks = []
        for f, v in zip(self.factors, vectors):
            blocks.append(f.cartan_block(v))
        return AlgebraElement(self, blocks, abelian)

    def random_element(self, rng: np.random.Generator) -> AlgebraElement:
        basis = self.ambient_basis()
        coeff = rng.standard_normal(len(basis))
        out = self.zero()
        for c, b in zip(coeff, basis):
            out = out + float(c) * b
        return out

    def ambient_basis(self) -> list:
        """Orthonormal basis of the whole algebra under the bi-invariant
        inner product (cached, together with its dual matrix)."""
        if self._ambient_basis is None:
            raw = []
            for f in self.factors:
                raw.extend(f.spanning_set())
            for k in range(self.spec.abelian_dim):
                raw.append(self.abelian_unit(k))
            basis = gram_schmidt(self, raw)
            assert len(basis) == self.dim
            # row k pairs with flat(x) to give inner(x, basis[k]):
            # -Re tr(x b) = -Re sum(x * b^T), with the abelian weights
            scales = np.array([float(s) for s in self.spec.abelian_scales])
            self._dual = np.array([
                np.concatenate([-f.weight * f.flat(np.conj(b.T))
                                for f, b in zip(self.factors, e.blocks)]
                               + [scales * e.abelian])
                for e in basis
            ])
            self._ambient_basis = basis
        return self._ambient_basis

    def _flat(self, x: AlgebraElement) -> np.ndarray:
        return np.concatenate([f.flat(b) for f, b in zip(self.factors, x.blocks)]
                              + [x.abelian])

    def coords(self, x: AlgebraElement) -> np.ndarray:
        """Coordinates of x over the orthonormal ambient basis."""
        self.ambient_basis()
        return self._dual @ self._flat(x)

    def off_algebra(self, x: AlgebraElement) -> float:
        """Distance of x's matrices from the realized algebra, relative to
        their size: x minus its re-expansion from coords(x)."""
        basis = self.ambient_basis()
        flat = self._flat(x)
        rebuilt = np.array([self._flat(b) for b in basis]).T @ (self._dual @ flat)
        return float(np.linalg.norm(flat - rebuilt) / max(np.linalg.norm(flat), 1e-300))

    def bracket_coords(self, xs: Sequence[AlgebraElement],
                       ys: Sequence[AlgebraElement], rows: np.ndarray) -> np.ndarray:
        """rows @ coords([x_i, y_j]) for every pair, shape
        (len(xs), len(ys), len(rows)).  The xs go through in chunks, each
        with one broadcast matmul per factor and one product with the dual,
        so no temporary holds more than about PAIR_CHUNK entries."""
        self.ambient_basis()
        rows = np.asarray(rows).reshape(-1, self.dim)
        out = np.zeros((len(xs), len(ys), len(rows)))
        if not (len(xs) and len(ys)):
            return out
        width = max([self.dim] + [f.flat_len for f in self.factors])
        step = max(1, PAIR_CHUNK // (len(ys) * width))
        bs = [np.stack([y.blocks[k] for y in ys])[None] for k in range(len(self.factors))]
        for i in range(0, len(xs), step):
            chunk = xs[i:i + step]
            co = np.zeros((len(chunk), len(ys), self.dim))
            for k, (f, cols, b) in enumerate(zip(self.factors, self._slices, bs)):
                a = np.stack([x.blocks[k] for x in chunk])[:, None]
                co += f.flat(a @ b - b @ a) @ self._dual[:, cols].T
            out[i:i + step] = co @ rows.T
        return out


class _FactorRealization:
    """One classical factor: Cartan generators and root planes."""

    def __init__(self, algebra: RealizedAlgebra, index: int, fam: str, rank: int, scale: Fraction):
        self.algebra = algebra
        self.index = index
        self.family = fam
        self.rank = rank
        self.scale = scale
        self.root_system = build_root_system(fam, rank, _relaxed=True)
        if fam == "A":
            self.dtype = complex
            self.size = rank + 1
            self.dim = (rank + 1) ** 2 - 1
            self.kappa = Fraction(1)
        elif fam in ("B", "D"):
            self.dtype = float
            self.size = 2 * rank + 1 if fam == "B" else 2 * rank
            self.dim = self.size * (self.size - 1) // 2
            self.kappa = Fraction(1, 2)
        else:  # C: sp(n) inside su(2n), where -Re tr doubles the quaternion trace
            self.dtype = complex
            self.size = 2 * rank
            self.dim = rank * (2 * rank + 1)
            self.kappa = Fraction(1, 2)
        self.weight = float(self.kappa * scale)
        # length of a flattened block: complex entries as (re, im) pairs
        self.flat_len = self.size ** 2 * (2 if self.dtype is complex else 1)
        ncart = rank + 1 if fam == "A" else rank  # A uses ambient coordinates
        self.cartan = [self._cartan_matrix(i) for i in range(ncart)]
        self.planes = {}

    def init_planes(self):
        for root in self.root_system.roots:
            key = root.canonical_sign()
            if key not in self.planes:
                self.planes[key] = self._build_plane(key)

    # -- block-level helpers ----------------------------------------------
    def zero_block(self):
        return np.zeros((self.size, self.size), dtype=self.dtype)

    def commutator(self, a, b):
        return a @ b - b @ a

    def re_trace_product(self, a, b) -> float:
        """-Re tr(a b), without forming the product."""
        return float(-(a * b.T).real.sum())

    def flat(self, m) -> np.ndarray:
        """Real flattening of a block, or of a stack of blocks along the
        leading axes: row-major entries, complex ones as (re, im) pairs."""
        m = np.ascontiguousarray(m, dtype=self.dtype)
        if self.dtype is complex:
            m = m.view(float)
        return m.reshape(m.shape[:-2] + (-1,))

    def _cartan_matrix(self, i: int):
        n = self.size
        if self.family == "A":
            return 1j * _eij(n, i, i, complex)
        if self.family == "B":
            # rows 2i+1, 2i+2 in zero-based indexing (row 0 is the extra axis)
            a, b = 2 * i + 1, 2 * i + 2
            return _eij(n, a, b, float) - _eij(n, b, a, float)
        if self.family == "D":
            a, b = 2 * i, 2 * i + 1
            return _eij(n, a, b, float) - _eij(n, b, a, float)
        return quat_unit(self.rank, "x", [(i, i, 1)])  # sp: i*E_ii

    def cartan_block(self, v: Optional[RootVector]):
        if v is None:
            return self.zero_block()
        if self.family == "A":
            if v.ambient_dim != self.rank + 1:
                raise ValueError("dimension mismatch for A-factor Cartan vector")
        elif v.ambient_dim != self.rank:
            raise ValueError("dimension mismatch for Cartan vector")
        out = self.zero_block()
        for coef, h in zip(v.coords, self.cartan):
            out = out + float(coef) * h
        if self.family == "A":
            tr = np.trace(out) / self.size
            out = out - tr * np.eye(self.size)
        return out

    def spanning_set(self) -> list:
        """Natural spanning elements of the factor, as AlgebraElements."""
        out = []
        n = self.size
        alg = self.algebra

        def put(block):
            out.append(alg.single_block(self.index, block))

        if self.family == "A":
            for i in range(n - 1):
                d = np.zeros((n, n), dtype=complex)
                d[i, i] = 1j
                d[i + 1, i + 1] = -1j
                put(d)
            for i in range(n):
                for j in range(i + 1, n):
                    put(_eij(n, i, j, complex) - _eij(n, j, i, complex))
                    put(1j * (_eij(n, i, j, complex) + _eij(n, j, i, complex)))
        elif self.family in ("B", "D"):
            for i in range(n):
                for j in range(i + 1, n):
                    put(_eij(n, i, j, float) - _eij(n, j, i, float))
        else:
            r = self.rank
            for i in range(r):
                for part in ("x", "y", "z"):
                    put(quat_unit(r, part, [(i, i, 1)]))
            for i in range(r):
                for j in range(i + 1, r):
                    put(quat_unit(r, "w", [(i, j, 1), (j, i, -1)]))
                    for part in ("x", "y", "z"):
                        put(quat_unit(r, part, [(i, j, 1), (j, i, 1)]))
        return out

    # -- root planes --------------------------------------------------------
    def _plane_span(self, root: RootVector) -> tuple:
        """Raw spanning matrices of the root plane, straight from the
        standard presentations."""
        f = self.family
        n = self.size
        cf = root.floats()
        if f == "A":
            idx = [k for k, c in enumerate(cf) if abs(c) > 0.5]
            i, j = idx
            if cf[i] < 0:
                i, j = j, i
            return (
                _eij(n, i, j, complex) - _eij(n, j, i, complex),
                1j * (_eij(n, i, j, complex) + _eij(n, j, i, complex)),
            )
        if f in ("B", "D"):
            off = 1 if f == "B" else 0

            def rows(k):  # zero-based row pair carrying e_{k+1}
                return 2 * k + off, 2 * k + off + 1

            nz = [k for k, c in enumerate(cf) if abs(c) > 0.5]
            if len(nz) == 1:
                k = nz[0]
                a, b = rows(k)
                return (
                    _eij(n, a, 0, float) - _eij(n, 0, a, float),
                    _eij(n, b, 0, float) - _eij(n, 0, b, float),
                )
            ki, kj = nz
            ai, bi = rows(ki)
            aj, bj = rows(kj)
            same = cf[ki] * cf[kj] < 0  # e_i - e_j type
            if same:
                x = (
                    _eij(n, ai, aj, float) + _eij(n, bi, bj, float)
                    - _eij(n, aj, ai, float) - _eij(n, bj, bi, float)
                )
                y = (
                    _eij(n, ai, bj, float) - _eij(n, bi, aj, float)
                    + _eij(n, aj, bi, float) - _eij(n, bj, ai, float)
                )
            else:
                x = (
                    _eij(n, ai, aj, float) - _eij(n, bi, bj, float)
                    - _eij(n, aj, ai, float) + _eij(n, bj, bi, float)
                )
                y = (
                    _eij(n, ai, bj, float) + _eij(n, bi, aj, float)
                    - _eij(n, aj, bi, float) - _eij(n, bj, ai, float)
                )
            return x, y
        # sp(n): quaternion units of the rank x rank presentation
        r = self.rank
        nz = [k for k, c in enumerate(cf) if abs(c) > 0.5]
        if len(nz) == 1:
            i = nz[0]
            return quat_unit(r, "y", [(i, i, 1)]), quat_unit(r, "z", [(i, i, 1)])
        i, j = nz
        if cf[i] * cf[j] < 0:
            if cf[i] < 0:
                i, j = j, i
            return (quat_unit(r, "w", [(i, j, 1), (j, i, -1)]),
                    quat_unit(r, "x", [(i, j, 1), (j, i, 1)]))
        return (quat_unit(r, "y", [(i, j, 1), (j, i, 1)]),
                quat_unit(r, "z", [(i, j, 1), (j, i, 1)]))

    def _build_plane(self, root: RootVector) -> RootPlanePair:
        alg = self.algebra
        xr, yr = self._plane_span(root)
        x = alg.single_block(self.index, xr)
        y = alg.single_block(self.index, yr)
        nx = x.norm()
        x = (1.0 / nx) * x
        y = y - alg.inner(y, x) * x
        y = (1.0 / y.norm()) * y
        # orientation: [h, x] = <root, h> y for Cartan elements h
        h = alg.cartan_embed(
            [root if k == self.index else None for k in range(len(alg.factors))]
        )
        speed = float(root.dot(root)) * float(self.scale)
        bx = alg.bracket(h, x)
        if alg.inner(bx, y) < 0:
            y = -1.0 * y
        resid = (bx - alg.inner(bx, y) * y).norm()
        if resid > 1e-9 * max(1.0, speed):
            raise AssertionError(f"root plane misaligned for {self.family}{self.rank} root {root}")
        return RootPlanePair(self.index, root, x, y)

    def plane(self, root: RootVector) -> RootPlanePair:
        return self.planes[root.canonical_sign()]


def realize(spec: AlgebraSpec) -> RealizedAlgebra:
    """Realize all classical factors of the spec as matrices."""
    return RealizedAlgebra(spec)


def bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return x.algebra.bracket(x, y)


def inner(x: AlgebraElement, y: AlgebraElement) -> float:
    return x.algebra.inner(x, y)


def cartan_embed(algebra: RealizedAlgebra, vectors, abelian=None) -> AlgebraElement:
    """Cartan element whose inner products against the generators reproduce
    the given exact per-factor coordinates (su blocks made traceless)."""
    return algebra.cartan_embed(vectors, abelian)


def gram_schmidt(alg: RealizedAlgebra, elements: Iterable[AlgebraElement],
                 tol: float = 1e-10) -> list:
    """Orthonormalize under the bi-invariant inner product, dropping
    numerically dependent elements."""
    basis: list = []
    for e in elements:
        v = e.copy()
        for _ in range(2):  # two passes for numerical stability
            for b in basis:
                v = v - alg.inner(v, b) * b
        nv = v.norm()
        if nv > tol:
            basis.append((1.0 / nv) * v)
    return basis
