"""Matrix realizations of the classical compact Lie algebras.

su(n+1), so(m) and sp(n) are realized with the standard Cartan generators
and root-plane bases, all as plain matrices: su(n+1) complex, so(m) real,
and sp(n) as complex 2n x 2n matrices inside su(2n), the quaternion matrix
a + b j being [[a, b], [-conj b, conj a]].  The bi-invariant inner product
is -Re tr(xy) per factor, normalized so that the Cartan generators realize
the root-system coordinates isometrically (factor 1/2 for the orthogonal
and symplectic families), with an optional positive scale per factor and
the Euclidean product on the abelian part.  A factor knows the canonical
root of each of its planes (`plane_keys`, in root order) and builds a plane
on its first lookup, so a space builds only the planes it reads.
Coordinates over the orthonormal ambient basis, built with the algebra,
are one product with its dual matrix, and the brackets of many pairs are
one broadcast matmul per factor, taken in chunks of bounded size.
Gram-Schmidt holds its basis as one array, a row per element, and skips
each projection whose inner product is exactly zero because the nonzero
components of the two elements never meet (entry (i, j) of one against
entry (j, i) of the other, plus the abelian parts); its output is bit for
bit that of the loop that takes every projection, and it stops once it
holds dim g elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Iterable, Optional, Sequence

import numpy as np

from .rootsys import AlgebraSpec, TVec, build_root_system, tvec_dot

# entries per batched bracket temporary (about 1 MB of float64)
PAIR_CHUNK = 1 << 17
# bound on |n| of a lattice coordinate n/2 * sqrt(k): its float value stays
# below 2**501, so every sum of squares the matrices take stays finite
MAX_LATTICE_COORD = 2 ** 501
MAX_SCALE = 2 ** 20  # factor and abelian scales s: 1/MAX_SCALE <= s <= MAX_SCALE
DROP_TOL = 1e-10  # norm of the residual below which gram_schmidt drops an element


def _floats(v: TVec) -> tuple:
    """The float coordinates n/2 * sqrt(k) of a lattice vector (ValueError
    from |n| = MAX_LATTICE_COORD on)."""
    if any(abs(x) >= MAX_LATTICE_COORD for x in v):
        raise ValueError("a lattice coordinate does not fit a float")
    return tuple(float(x) / 2 * sqrt(k) for x, k in zip(v, v.spec.weights))


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
    root: TVec  # a root of the factor's unit spec
    x: AlgebraElement
    y: AlgebraElement


def _eij(n: int, i: int, j: int, dtype) -> np.ndarray:
    m = np.zeros((n, n), dtype=dtype)
    m[i, j] = 1
    return m


def _rot(n: int, i: int, j: int, dtype=float) -> np.ndarray:
    """E_ij - E_ji, the generator of the rotations of the (i, j) plane."""
    return _eij(n, i, j, dtype) - _eij(n, j, i, dtype)


def quat_block(a, b) -> np.ndarray:
    """The complex 2n x 2n block of the quaternion matrix a + b j, where
    a = w + x i and b = y + z i are complex n x n."""
    n = len(a)
    out = np.empty((2 * n, 2 * n), dtype=complex)
    out[:n, :n], out[:n, n:], out[n:, :n], out[n:, n:] = a, b, -np.conj(b), np.conj(a)
    return out


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
        scales = [s for *_, s in spec.factors] + list(spec.abelian_scales)
        if not all(1 / MAX_SCALE <= s <= MAX_SCALE for s in scales):
            raise ValueError("a factor or abelian scale lies outside [2^-20, 2^20]")
        self.spec = spec
        self.factors = [_FactorRealization(self, idx, *f) for idx, f in enumerate(spec.factors)]
        self.dim = sum(f.dim for f in self.factors) + spec.abelian_dim
        self._slices = []  # column range of each factor in the flat layout
        start = 0
        for f in self.factors:
            self._slices.append(slice(start, start + f.flat_len))
            start += f.flat_len
        # the orthonormal ambient basis and its dual, whose row k pairs with
        # flat(x) to give inner(x, basis[k]): -Re tr(x b) = -Re sum(x * b^T),
        # with the abelian weights
        raw = [e for f in self.factors for e in f.spanning_set()]
        raw += [self.abelian_unit(k) for k in range(spec.abelian_dim)]
        self.ambient_basis = gram_schmidt(self, raw)
        assert len(self.ambient_basis) == self.dim
        scales = np.array([float(s) for s in spec.abelian_scales])
        self._dual = np.array([
            np.concatenate([-f.weight * f.flat(np.conj(b.T))
                            for f, b in zip(self.factors, e.blocks)] + [scales * e.abelian])
            for e in self.ambient_basis
        ])

    # -- element constructors -------------------------------------------
    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, [f.zero_block() for f in self.factors])

    def from_blocks(self, blocks, abelian=None) -> AlgebraElement:
        return AlgebraElement(self, blocks, abelian)

    def single_block(self, factor: int, block) -> AlgebraElement:
        blocks = [f.zero_block() for f in self.factors]
        blocks[factor] = block
        return AlgebraElement(self, blocks)

    def abelian_unit(self, k: int) -> AlgebraElement:
        v = np.zeros(self.spec.abelian_dim)
        v[k] = 1.0 / float(self.spec.abelian_scales[k]) ** 0.5
        return AlgebraElement(self, [f.zero_block() for f in self.factors], v)

    # -- core operations --------------------------------------------------
    def bracket(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        x._check(y)  # a bracket has no abelian part
        return AlgebraElement(self, [a @ b - b @ a for a, b in zip(x.blocks, y.blocks)])

    def inner(self, x: AlgebraElement, y: AlgebraElement) -> float:
        x._check(y)
        out = 0.0
        for s, xa, ya in zip(self.spec.abelian_scales, x.abelian, y.abelian):
            out += float(s) * float(xa) * float(ya)
        for f, a, b in zip(self.factors, x.blocks, y.blocks):
            out += f.weight * float(-(a * b.T).real.sum())  # -Re tr(a b), no product formed
        return out

    def cartan_embed(self, vectors: Sequence[Optional[TVec]], abelian=None) -> AlgebraElement:
        """Element of t whose inner products against Cartan generators
        reproduce the given exact per-factor coordinates."""
        blocks = []
        for f, v in zip(self.factors, vectors):
            blocks.append(f.cartan_block(v))
        return AlgebraElement(self, blocks, abelian)

    def _flat(self, x: AlgebraElement) -> np.ndarray:
        return np.concatenate([f.flat(b) for f, b in zip(self.factors, x.blocks)]
                              + [x.abelian])

    def coords(self, x: AlgebraElement) -> np.ndarray:
        """Coordinates of x over the orthonormal ambient basis."""
        return self._dual @ self._flat(x)

    def off_algebra(self, x: AlgebraElement) -> float:
        """Distance of x's matrices from the realized algebra, relative to
        their size: x minus its re-expansion from coords(x)."""
        flat = self._flat(x)
        rebuilt = np.array([self._flat(b) for b in self.ambient_basis]).T @ (self._dual @ flat)
        return float(np.linalg.norm(flat - rebuilt) / max(np.linalg.norm(flat), 1e-300))

    def bracket_coords(self, xs: Sequence[AlgebraElement], ys: Sequence[AlgebraElement],
                       rows: np.ndarray, upper: bool = False) -> np.ndarray:
        """rows @ coords([x_i, y_j]) for every pair, shape
        (len(xs), len(ys), len(rows)).  The xs go through in chunks, each
        with one broadcast matmul per factor and one product with the dual,
        so no temporary holds more than about PAIR_CHUNK entries.  With
        upper (xs = ys), a chunk starting at x_i brackets the ys past y_i
        only, so every pair i < j is taken and the pairs j <= i outside the
        chunks read 0; the product with rows keeps its full shape, whose
        gemm rounds as in the full pass."""
        rows = np.asarray(rows).reshape(-1, self.dim)
        out = np.zeros((len(xs), len(ys), len(rows)))
        if not (len(xs) and len(ys)):
            return out
        width = max([self.dim] + [f.flat_len for f in self.factors])
        step = max(1, PAIR_CHUNK // (len(ys) * width))
        bs = [np.stack([y.blocks[k] for y in ys])[None] for k in range(len(self.factors))]
        for i in range(0, len(xs), step):
            chunk, lo = xs[i:i + step], i + 1 if upper else 0
            co = np.zeros((len(chunk), len(ys), self.dim))
            for k, (f, cols, b) in enumerate(zip(self.factors, self._slices, bs)):
                a, b = np.stack([x.blocks[k] for x in chunk])[:, None], b[:, lo:]
                co[:, lo:] += f.flat(a @ b - b @ a) @ self._dual[:, cols].T
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
        # canonical root of each plane -> the plane, built when first read
        self._planes = dict.fromkeys(r.canonical_sign() for r in self.root_system.roots)
        self.plane_keys = tuple(self._planes)  # in root order, by first appearance

    # -- block-level helpers ----------------------------------------------
    def zero_block(self):
        return np.zeros((self.size, self.size), dtype=self.dtype)

    def flat(self, m) -> np.ndarray:
        """Real flattening of a block, or of a stack of blocks along the
        leading axes: row-major entries, complex ones as (re, im) pairs."""
        m = np.ascontiguousarray(m, dtype=self.dtype)
        if self.dtype is complex:
            m = m.view(float)
        return m.reshape(m.shape[:-2] + (m.shape[-2] * m.shape[-1],))

    def _cartan_matrix(self, i: int):
        n = self.size
        if self.family == "A":
            return 1j * _eij(n, i, i, complex)
        if self.family in ("B", "D"):  # rows 2i, 2i+1, one higher in B (row 0: the extra axis)
            a = 2 * i + (self.family == "B")
            return _rot(n, a, a + 1)
        return quat_unit(self.rank, "x", [(i, i, 1)])  # sp: i*E_ii

    def cartan_block(self, v: Optional[TVec]):
        if v is None:
            return self.zero_block()
        if len(v) != len(self.cartan):
            raise ValueError("dimension mismatch for Cartan vector")
        out = self.zero_block()
        for coef, h in zip(_floats(v), self.cartan):
            out = out + coef * h
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
                    put(_rot(n, i, j, complex))
                    put(1j * (_eij(n, i, j, complex) + _eij(n, j, i, complex)))
        elif self.family in ("B", "D"):
            for i in range(n):
                for j in range(i + 1, n):
                    put(_rot(n, i, j))
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
    def _plane_span(self, root: TVec) -> tuple:
        """Raw spanning matrices of the plane of a canonical root (first
        nonzero coordinate positive), straight from the standard presentations."""
        f = self.family
        n = self.size
        cf = _floats(root)
        nz = [k for k, c in enumerate(cf) if abs(c) > 0.5]  # the coordinates the root uses
        if f == "A":
            i, j = nz
            return _rot(n, i, j, complex), 1j * (_eij(n, i, j, complex) + _eij(n, j, i, complex))
        if f in ("B", "D"):
            off = 1 if f == "B" else 0

            def rows(k):  # zero-based row pair carrying e_{k+1}
                return 2 * k + off, 2 * k + off + 1

            if len(nz) == 1:
                a, b = rows(nz[0])
                return _rot(n, a, 0), _rot(n, b, 0)
            (ai, bi), (aj, bj) = rows(nz[0]), rows(nz[1])
            s = float(np.sign(cf[nz[0]] * cf[nz[1]]))  # -1 for e_i - e_j, +1 for e_i + e_j
            return _rot(n, ai, aj) - s * _rot(n, bi, bj), _rot(n, ai, bj) + s * _rot(n, bi, aj)
        # sp(n): quaternion units of the rank x rank presentation
        r = self.rank
        if len(nz) == 1:
            i = nz[0]
            return quat_unit(r, "y", [(i, i, 1)]), quat_unit(r, "z", [(i, i, 1)])
        i, j = nz
        if cf[i] * cf[j] < 0:
            return (quat_unit(r, "w", [(i, j, 1), (j, i, -1)]),
                    quat_unit(r, "x", [(i, j, 1), (j, i, 1)]))
        return (quat_unit(r, "y", [(i, j, 1), (j, i, 1)]),
                quat_unit(r, "z", [(i, j, 1), (j, i, 1)]))

    def _build_plane(self, root: TVec) -> RootPlanePair:
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
        speed = float(tvec_dot(root.spec, root, root)) * float(self.scale)
        bx = alg.bracket(h, x)
        if alg.inner(bx, y) < 0:
            y = -1.0 * y
        resid = (bx - alg.inner(bx, y) * y).norm()
        if resid > 1e-9 * max(1.0, speed):
            raise AssertionError(f"root plane misaligned for {self.family}{self.rank} root {root}")
        return RootPlanePair(self.index, root, x, y)

    def plane(self, root: TVec) -> RootPlanePair:
        """The plane of a root of this factor's unit spec, built on first
        read (ValueError for a vector of any other spec, even one with the
        same coordinates; KeyError for a vector that is not a root)."""
        if root.spec != self.root_system.spec:
            raise ValueError(f"{root!r} is not a vector of the root lattice of "
                             f"factor {self.family}{self.rank}")
        key = root.canonical_sign()
        if self._planes[key] is None:
            self._planes[key] = self._build_plane(key)
        return self._planes[key]


def realize(spec: AlgebraSpec) -> RealizedAlgebra:
    """Realize all classical factors of the spec as matrices."""
    return RealizedAlgebra(spec)


def gram_schmidt(alg: RealizedAlgebra, elements: Iterable[AlgebraElement]) -> list:
    """Orthonormalize under the bi-invariant inner product, dropping
    numerically dependent elements (residual norm at most DROP_TOL):
    modified Gram-Schmidt in two passes, up to dim g.  The elements are the
    rows of one array, in the flat layout of `RealizedAlgebra._flat`; the
    basis fills its first rows, each element is reduced in place in the
    next one, and the elements returned are views into it.

    A projection whose inner product is zero by support is skipped, and the
    output is bit for bit that of the loop that takes every projection.
    inner(v, b) pairs each part (real, imaginary) of v's entry (i, j) with
    that of b's entry (j, i), plus the abelian parts.  Where no nonzero
    component of v meets one of b, inner returns +0.0 (its sum starts at
    0.0), and v - 0.0 * b only turns a -0.0 of v facing a -0.0 of 0.0 * b
    into +0.0.  No update makes a -0.0, and these sign changes commute with
    the updates, so they are made once, after the two passes, in the
    elements that hold a -0.0.
    """
    elements = list(elements)
    if any(e.algebra is not alg for e in elements):
        raise ValueError("algebra spec mismatch")
    if not elements:
        return []
    width = sum(f.flat_len for f in alg.factors)
    rows = np.concatenate([f.flat(np.array([e.blocks[i] for e in elements]))
                           for i, f in enumerate(alg.factors)]
                          + [np.array([e.abelian for e in elements])], axis=1)
    stacks = [rows[:, cols].view(f.dtype).reshape(len(rows), f.size, f.size)
              for f, cols in zip(alg.factors, alg._slices)]
    meets = np.arange(rows.shape[1])  # the component each meets in a transposed block
    for f, cols in zip(alg.factors, alg._slices):
        meets[cols] = meets[cols].reshape(f.size, f.size, -1).transpose(1, 0, 2).ravel()
    basis: list = []
    for i, negative_zero in enumerate((np.signbit(rows) & (rows == 0)).any(1).tolist()):
        n = len(basis)
        if n == alg.dim:  # an orthonormal set cannot outgrow the algebra
            break
        if n < i:  # an element was dropped: this one goes to the next free row
            rows[n] = rows[i]
        row = rows[n]
        v = AlgebraElement(alg, [stack[n] for stack in stacks], row[width:])
        taken = ([], [])
        for p in range(2):  # two passes for numerical stability
            k = 0  # hits: the basis rows from k on that v's nonzero components meet
            while (hits := rows[k:n, meets[row.nonzero()[0]]].nonzero()[0]).size:
                k += int(hits[0])
                c = alg.inner(v, basis[k])
                for x, y in zip(v.blocks + [v.abelian], basis[k].blocks + [basis[k].abelian]):
                    x -= c * y
                taken[p].append(k)
                k += 1
            if not taken[0]:  # v met no row, so a second pass would take none either
                break
        if negative_zero:  # the sign changes of the projections skipped in a pass
            ks = np.arange(len(rows)) < n  # the basis rows not taken in both passes
            ks[list(set(taken[0]) & set(taken[1]))] = False
            flips = np.signbit(np.concatenate([f.flat(0.0 * stack[ks])
                                               for f, stack in zip(alg.factors, stacks)]
                                              + [0.0 * rows[ks, width:]], axis=1)).any(0)
            np.add(row, 0.0, out=row, where=flips)  # v - (-0.0) there
        nv = v.norm()
        if nv > DROP_TOL:
            for x in v.blocks + [v.abelian]:
                np.multiply(1.0 / nv, x, out=x)
            basis.append(v)
    return basis
