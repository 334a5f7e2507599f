"""Homogeneous-space construction: reductive decompositions g = h + m.

A CosetSpace pairs a realized matrix algebra with an orthonormal basis of a
verified subalgebra h and of its bi-invariant orthogonal complement m.
Exact Cartan data in the coordinate field Q(sqrt2, sqrt3) is carried
alongside the floating matrices; all projections of Cartan vectors, and the
grouping, order and sign of the hat blocks they label, are exact (no float
pass), matrix projections are numeric with a fixed tolerance ladder
(closure gate 1e-8, reductivity 1e-10, orthogonality 1e-12, membership of
file-given generators in g 1e-10).  Every factor, sp(n) included, is a
plain matrix block (sp(n) inside su(2n)), so the closure, reductivity and
structure-tensor checks take the coordinates of all bracket pairs at once
from RealizedAlgebra.bracket_coords.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .rootsys import (
    RootVector,
    exact_nullspace,
    lex_sorted,
    rv,
    solve_exact,
)
from .torus import (
    AlgebraSpec,
    TVec,
    lift_root,
    tvec_dot,
    tvec_from_json,
    tvec_from_parts,
    zero_tvec,
)
from .liealg import (
    AlgebraElement,
    RealizedAlgebra,
    _eij,
    gram_schmidt,
    quat_block,
    quat_unit,
    realize,
)

CLOSURE_TOL = 1e-8
REDUCTIVE_TOL = 1e-10
ORTHO_TOL = 1e-12
MEMBER_TOL = 1e-10


# ---------------------------------------------------------------------------
# Exact subspaces of the Cartan subalgebra
# ---------------------------------------------------------------------------

def cartan_coordinate_basis(spec: AlgebraSpec) -> list:
    """Exact basis of t (sum-zero differences for A factors)."""
    out = []
    for idx, (fam, rank, _) in enumerate(spec.factors):
        for i in range(rank):
            coords = _coords_unit(rank + 1 if fam == "A" else rank, i)
            if fam == "A":
                coords[i + 1] = -1
            out.append(tvec_from_parts(spec, {idx: coords}))
    return out + [tvec_from_parts(spec, abelian=[0] * k + [1]) for k in range(spec.abelian_dim)]


def orthocomplement_in_t(spec: AlgebraSpec, vectors: Sequence[TVec]) -> list:
    """Exact basis of the orthocomplement of span(vectors) inside t."""
    basis = cartan_coordinate_basis(spec)
    if not vectors:
        return basis
    rows = [[tvec_dot(spec, b, v) for b in basis] for v in vectors]
    return [_combination(spec, coeffs, basis) for coeffs in exact_nullspace(rows)]


def project_to_span(spec: AlgebraSpec, span: Sequence[TVec], v: TVec) -> TVec:
    """Exact orthogonal projection of v onto span(span)."""
    if not span:
        return zero_tvec(spec)
    gram = [[tvec_dot(spec, a, b) for b in span] for a in span]
    rhs = [tvec_dot(spec, a, v) for a in span]
    sol = solve_exact(gram, rhs)
    if sol is None:
        raise ArithmeticError("degenerate span in exact projection")
    return _combination(spec, sol, span)


def _combination(spec: AlgebraSpec, coeffs, vectors: Sequence[TVec]) -> TVec:
    """sum of c v over the nonzero exact coefficients c."""
    out = zero_tvec(spec)
    for c, v in zip(coeffs, vectors):
        if not c.is_zero():
            out = out + v.scale(c)
    return out


def in_span(spec: AlgebraSpec, span: Sequence[TVec], v: TVec) -> bool:
    return (v - project_to_span(spec, span, v)).is_zero()


# ---------------------------------------------------------------------------
# Subalgebra specification and coset spaces
# ---------------------------------------------------------------------------

@dataclass
class SubalgebraSpec:
    """Data defining h: exact Cartan vectors, root planes assigned to h,
    and optional explicit extra generators (diagonal embeddings)."""

    cartan_h: tuple = ()
    h_roots: tuple = ()  # of (factor_index, RootVector)
    extra_generators: tuple = ()  # of AlgebraElement


class CosetSpace:
    """Verified bi-invariant orthogonal decomposition g = h + m."""

    def __init__(self, algebra: RealizedAlgebra, name: str,
                 h_basis: list, cartan_h: Sequence[TVec],
                 h_root_vectors: Sequence[TVec] = (),
                 witness_planes: Optional[dict] = None,
                 case_label: Optional[str] = None):
        self.algebra = algebra
        self.name = name
        self.h_basis = h_basis
        self.cartan_h = tuple(cartan_h)
        self.h_root_vectors = tuple(h_root_vectors)
        self.witness_planes = witness_planes
        self.case_label = case_label

        alg = algebra
        self.dim_g = alg.dim
        self.dim_h = len(h_basis)
        ambient = alg.ambient_basis()
        full = gram_schmidt(alg, list(h_basis) + [b.copy() for b in ambient])
        if len(full) != self.dim_g:
            raise AssertionError("basis completion failed")
        self.m_basis = full[self.dim_h:]
        self.dim_m = len(self.m_basis)

        self._h_co = np.array([alg.coords(b) for b in h_basis]).reshape(-1, self.dim_g)
        self._m_co = np.array([alg.coords(b) for b in self.m_basis])

        self.t_m = orthocomplement_in_t(alg.spec, self.cartan_h)

        self._verify()
        self._hat = None
        self._tensors = None

    # -- verification -----------------------------------------------------
    def _verify(self):
        if self.dim_h and np.abs(self._h_co @ self._m_co.T).max() > ORTHO_TOL:
            raise AssertionError("h and m are not orthogonal")
        hm = self.algebra.bracket_coords(self.h_basis, self.m_basis, self._h_co)
        worst = float(np.linalg.norm(hm, axis=-1).max()) if hm.size else 0.0
        if worst > REDUCTIVE_TOL:
            raise AssertionError(f"reductive condition violated: {worst:.2e}")
        for tv in self.t_m:
            e = self.embed(tv)
            resid = e - self.pr_m(e)
            if resid.norm() > 1e-9 * max(1.0, e.norm()):
                raise AssertionError("exact t cap m does not match matrix complement")

    # -- coordinates --------------------------------------------------------
    def embed(self, tv: TVec) -> AlgebraElement:
        return self.algebra.cartan_embed(list(tv.factors), np.array([float(x) for x in tv.abelian]))

    def to_m(self, x: AlgebraElement) -> np.ndarray:
        return self._m_co @ self.algebra.coords(x)

    def from_m(self, v: np.ndarray) -> AlgebraElement:
        out = self.algebra.zero()
        for c, b in zip(v, self.m_basis):
            out = out + float(c) * b
        return out

    def to_h(self, x: AlgebraElement) -> np.ndarray:
        return self._h_co @ self.algebra.coords(x)

    def pr_m(self, x: AlgebraElement) -> AlgebraElement:
        return self.from_m(self.to_m(x))

    # -- exact projections --------------------------------------------------
    def pr_h_exact(self, tv: TVec) -> TVec:
        return project_to_span(self.algebra.spec, self.cartan_h, tv)

    # -- structure tensors for the curvature engine -------------------------
    def structure_tensors(self):
        """(Cm, Ch, Kh): m-m brackets onto m and h, and h-m brackets onto m."""
        if self._tensors is None:
            alg = self.algebra
            mm = alg.bracket_coords(self.m_basis, self.m_basis,
                                    np.vstack([self._m_co, self._h_co]))
            # keep the i < j brackets and mirror them, so Cm and Ch are
            # exactly antisymmetric in their first two slots
            upper = np.triu(np.ones((self.dim_m, self.dim_m), dtype=bool), 1)
            mm = np.where(upper[:, :, None], mm, 0.0)
            mm = mm - mm.transpose(1, 0, 2)
            Cm = np.ascontiguousarray(mm[..., :self.dim_m])
            Ch = np.ascontiguousarray(mm[..., self.dim_m:])
            Kh = alg.bracket_coords(self.h_basis, self.m_basis, self._m_co)
            self._tensors = (Cm, Ch, Kh)
        return self._tensors

    # -- decompositions -------------------------------------------------------
    def hat_decomposition(self) -> "HatDecomposition":
        """The m-parts of the torus-isotypic decomposition of g, grouped by
        exact projections of the roots to t cap h (cached)."""
        if self._hat is None:
            self._hat = _build_hat(self)
        return self._hat

    def hathat_decomposition(self, alpha_prime: TVec) -> list:
        """The coarser decomposition of m by projections to the
        orthocomplement of alpha_prime inside t cap h."""
        return _build_hathat(self, alpha_prime)

    def plane_assignment(self) -> dict:
        """Where each root plane of g lies, read off the matrices: 'h', 'm'
        or 'split', keyed by the canonical sign of its lifted root."""
        out = {}
        spec = self.algebra.spec
        for f in self.algebra.factors:
            for root, p in f.planes.items():
                xin, yin = (np.linalg.norm(self.to_m(v)) for v in (p.x, p.y))
                if xin < 1e-9 and yin < 1e-9:
                    kind = "h"
                elif abs(xin - 1.0) < 1e-9 and abs(yin - 1.0) < 1e-9:
                    kind = "m"
                else:
                    kind = "split"
                out[lift_root(spec, f.index, root).canonical_sign()] = kind
        return out

    def plane_m_part(self, factor: int, root: RootVector) -> list:
        """Orthonormal m-coordinates spanned by the m-part of a root plane."""
        f = self.algebra.factors[factor]
        p = f.plane(root)
        vecs = [self.to_m(p.x), self.to_m(p.y)]
        return _orthonormal_rows(vecs)

    def __repr__(self):
        return f"CosetSpace({self.name}: dim g={self.dim_g}, dim h={self.dim_h}, dim m={self.dim_m})"


def _orthonormal_rows(vecs: list, tol: float = 1e-9) -> list:
    out = []
    for v in vecs:
        w = v.copy()
        for b in out:
            w = w - (w @ b) * b
        n = np.linalg.norm(w)
        if n > tol:
            out.append(w / n)
    return out


@dataclass
class HatBlock:
    alpha_prime: TVec  # canonical sign; zero vector for the g0 block
    roots: tuple       # (factor, root) pairs contributing m-directions
    basis: list        # orthonormal m-coordinate vectors


@dataclass
class HatDecomposition:
    blocks: list  # of HatBlock; blocks[0] is the g0 block


def _plane_classes(space: CosetSpace, project) -> tuple:
    """The root planes of g by the exact projection of their roots: the
    planes projecting to zero, then (canonical projection, planes) pairs in
    the exact lexicographic order.  Planes are (factor, root) pairs."""
    zero, groups = [], {}
    for f in space.algebra.factors:
        for root in f.planes:
            pr = project(lift_root(space.algebra.spec, f.index, root))
            if pr.is_zero():
                zero.append((f.index, root))
            else:
                groups.setdefault(pr.canonical_sign(), []).append((f.index, root))
    return zero, [(pr, groups[pr]) for pr in lex_sorted(groups)]


def _m_rows(space: CosetSpace, planes, t_vecs=()) -> list:
    """Orthonormal m-coordinates spanned by the Cartan vectors t_vecs and the
    given root planes."""
    vecs = [space.to_m(space.embed(tv)) for tv in t_vecs]
    for factor, root in planes:
        p = space.algebra.factors[factor].plane(root)
        vecs.extend([space.to_m(p.x), space.to_m(p.y)])
    return _orthonormal_rows(vecs)


def _build_hat(space: CosetSpace) -> HatDecomposition:
    zero, classes = _plane_classes(space, space.pr_h_exact)
    blocks = [HatBlock(zero_tvec(space.algebra.spec), tuple(zero),
                       _m_rows(space, zero, space.t_m))]
    for pr, planes in classes:
        basis = _m_rows(space, planes)
        if basis:
            blocks.append(HatBlock(pr, tuple(planes), basis))
    return HatDecomposition(blocks)


def _build_hathat(space: CosetSpace, alpha_prime: TVec) -> list:
    if alpha_prime.is_zero():
        raise ValueError("hat-hat decomposition needs a nonzero projection vector")
    spec = space.algebra.spec
    # t' is the orthocomplement of alpha' inside t cap h
    t_prime = orthocomplement_in_t(spec, list(space.t_m) + [alpha_prime])
    zero, classes = _plane_classes(space, lambda v: project_to_span(spec, t_prime, v))
    out = [(zero_tvec(spec), _m_rows(space, zero, space.t_m))]
    for pr, planes in classes:
        basis = _m_rows(space, planes)
        if basis:
            out.append((pr, basis))
    return out


# ---------------------------------------------------------------------------
# Construction and checks
# ---------------------------------------------------------------------------

def build_coset(algebra: RealizedAlgebra, spec: SubalgebraSpec,
                name: str = "custom", **kw) -> CosetSpace:
    """Build and verify a coset space from a subalgebra specification."""
    gens = []
    for tv in spec.cartan_h:
        gens.append(algebra.cartan_embed(list(tv.factors),
                                         np.array([float(x) for x in tv.abelian])))
    for factor, root in spec.h_roots:
        p = algebra.factors[factor].plane(root)
        gens.extend([p.x.copy(), p.y.copy()])
    gens.extend(g.copy() for g in spec.extra_generators)

    h_basis = gram_schmidt(algebra, gens)
    if len(h_basis) == algebra.dim:
        raise ValueError("h = g: degenerate coset space")
    h_co = np.array([algebra.coords(b) for b in h_basis]).reshape(-1, algebra.dim)
    # the part of each [h_i, h_j] outside h, over an orthonormal complement
    comp = np.linalg.svd(h_co)[2][len(h_basis):]
    off = algebra.bracket_coords(h_basis, h_basis, comp)
    worst = float(np.linalg.norm(off, axis=-1).max()) if off.size else 0.0
    if worst > CLOSURE_TOL:
        raise ValueError(f"not a subalgebra: bracket closure residual {worst:.2e}")
    return CosetSpace(algebra, name, h_basis, spec.cartan_h, **kw)


def rank_check(space: CosetSpace):
    """(rk g, rk h, passes) with passes iff rk g = rk h + 1."""
    spec = space.algebra.spec
    rk_g = spec.abelian_dim + sum(r for _, r, _ in spec.factors)
    rk_h = len(space.cartan_h)
    return rk_g, rk_h, rk_g == rk_h + 1


# ---------------------------------------------------------------------------
# Diagonal A1 normalization (two commuting A1 factors)
# ---------------------------------------------------------------------------

def diagonal_a1_frame(algebra: RealizedAlgebra):
    """Standard bases {u1,u2,u3}, {v1,v2,v3} of the two A1 factors.

    Each triple is orthogonal with common length c and satisfies
    [a1,a2]=a3 cyclically; u* spans factor one, v* factor two.
    """
    if len(algebra.factors) != 2 or algebra.spec.abelian_dim != 0:
        raise ValueError("diagonal A1 normalization needs exactly two simple factors")
    frames = []
    for f in algebra.factors:
        if (f.family, f.rank) not in (("A", 1), ("C", 1)):
            raise ValueError("both factors must be of type A1")
        if f.family == "A":
            t_dir = algebra.single_block(f.index, f.cartan_block(rv(1, -1)))
            root = rv(1, -1)
        else:
            t_dir = algebra.single_block(f.index, f.cartan[0])
            root = rv(2)
        plane = f.plane(root)
        x = (1.0 / t_dir.norm()) * t_dir
        y = plane.x
        z = algebra.bracket(x, y)
        c = 1.0 / z.norm()  # scale making the triple standard
        a1, a2 = c * x, c * y
        a3 = algebra.bracket(a1, a2)
        assert abs(a3.norm() - c) < 1e-9
        frames.append([a1, a2, a3])
    return frames[0], frames[1]


def _factor_component(algebra: RealizedAlgebra, x: AlgebraElement, idx: int) -> AlgebraElement:
    blocks = [b.copy() if k == idx else algebra.factors[k].zero_block()
              for k, b in enumerate(x.blocks)]
    return algebra.from_blocks(blocks)


def _diagonal_a1_phase(algebra: RealizedAlgebra, h_list: list,
                       u_basis: list, v_basis: list):
    """Verify the diagonal-A1 conditions for h_list and return (hb, a, phase):
    the orthonormal basis, the Cartan mixing ratio a and the rotation phase
    of the factor-two off-Cartan component."""
    hb = gram_schmidt(algebra, [x.copy() for x in h_list])
    if len(hb) != 3:
        raise ValueError("not a diagonal A1 of the required form: dim != 3")
    co = np.array([algebra.coords(b) for b in hb])

    def combo_kernel(rows):
        # combinations c with sum c_i rows_i = 0
        _, s, vt = np.linalg.svd(np.asarray(rows).T)
        return [vt[k] for k in range(vt.shape[0]) if (s[k] if k < len(s) else 0.0) < 1e-8]

    u1, v1 = u_basis[0], v_basis[0]
    c1, c2 = u1.norm(), v1.norm()
    # condition (2): no nonzero intersection with a single factor
    for idx in range(2):
        comps = [algebra.coords(_factor_component(algebra, b, 1 - idx)) for b in hb]
        if combo_kernel(comps):
            raise ValueError("not a diagonal A1 of the required form: intersects a simple factor")
    # condition (1): Cartan intersection is the line R(u1 + a v1)
    g = np.array([
        [algebra.inner(u1, u1), 0.0],
        [0.0, algebra.inner(v1, v1)],
    ])
    proj = np.array([[algebra.inner(b, u1), algebra.inner(b, v1)] for b in hb])
    M = co - proj @ np.linalg.inv(g) @ np.array([algebra.coords(u1), algebra.coords(v1)])
    kern = combo_kernel(M)
    if len(kern) != 1:
        raise ValueError("not a diagonal A1 of the required form: Cartan intersection not 1-dimensional")
    t_int = algebra.zero()
    for cc, b in zip(kern[0], hb):
        t_int = t_int + float(cc) * b
    cu = algebra.inner(t_int, u1) / c1 ** 2
    cv = algebra.inner(t_int, v1) / c2 ** 2
    if abs(cu) < 1e-8 or abs(cv) < 1e-8:
        raise ValueError("not a diagonal A1 of the required form: Cartan part lies in one factor")
    a = cv / cu
    # off-Cartan part: solve for the h element whose factor-one component
    # is a positive multiple of u2, then read off the factor-two phase
    u2, u3 = u_basis[1], u_basis[2]
    rows = np.array([
        [algebra.inner(b, u1) for b in hb],
        [algebra.inner(b, v1) for b in hb],
        [algebra.inner(b, u3) for b in hb],
    ])
    rhs_fix = np.array([algebra.inner(b, u2) for b in hb])
    # want z = sum l_i hb_i with <z,u1>=<z,v1>=<z,u3>=0 and <z,u2>=c1^2
    A = np.vstack([rows, rhs_fix])
    sol, *_ = np.linalg.lstsq(A, np.array([0.0, 0.0, 0.0, c1 ** 2]), rcond=None)
    z = algebra.zero()
    for cc, b in zip(sol, hb):
        z = z + float(cc) * b
    z1 = _factor_component(algebra, z, 0)
    if (z1 - u2).norm() > 1e-8 * max(1.0, u2.norm()):
        raise ValueError("not a diagonal A1 of the required form: off-Cartan part misaligned")
    z2 = _factor_component(algebra, z, 1)
    b_par = z2.norm() / c2
    if abs(b_par - 1.0) > 1e-8:
        raise ValueError("not a diagonal A1 of the required form: scale b != 1")
    # condition (3) holds implicitly: z2 is orthogonal to v1 by the solve
    if abs(algebra.inner(z2, v1)) > 1e-8 * c2 ** 2:
        raise ValueError("not a diagonal A1 of the required form: off-Cartan part not orthogonal to t")
    v2, v3 = v_basis[1], v_basis[2]
    phase = math.atan2(algebra.inner(z2, v3) / c2 ** 2, algebra.inner(z2, v2) / c2 ** 2)
    return hb, a, phase


def normalize_diagonal_a1(algebra: RealizedAlgebra, h_prime: list,
                          reference: list, tol: float = 1e-10) -> float:
    """Conjugation parameter aligning a diagonal A1 with a reference one.

    Both h_prime and reference are bases of diagonal A1 subalgebras of an
    A1+A1 algebra satisfying: one-dimensional intersection with the Cartan,
    zero intersection with each simple factor, off-Cartan part orthogonal
    to the Cartan.  Returns t with Ad(exp(t*v1)) h_prime = reference,
    where v1 is the first factor-two vector of diagonal_a1_frame.
    """
    u_basis, v_basis = diagonal_a1_frame(algebra)
    hb1, a1, ph1 = _diagonal_a1_phase(algebra, h_prime, u_basis, v_basis)
    hb2, a2, ph2 = _diagonal_a1_phase(algebra, reference, u_basis, v_basis)
    if abs(a1 - a2) > 1e-8:
        raise ValueError("not a diagonal A1 of the required form: Cartan lines differ")
    # Ad(exp(s v1)) rotates (v2, v3) with unit angular speed: v2 -> cos s v2 + sin s v3
    t_par = ph2 - ph1
    t_par = math.atan2(math.sin(t_par), math.cos(t_par))
    conj = _ad_exp(algebra, t_par, v_basis[0])
    co_ref = np.array([algebra.coords(b) for b in hb2])
    worst = 0.0
    for b in hb1:
        c = algebra.coords(conj(b))
        worst = max(worst, np.linalg.norm(c - co_ref.T @ (co_ref @ c)))
    if worst > tol:
        raise ValueError(f"diagonal A1 normalization failed to verify: {worst:.2e}")
    return t_par


# ---------------------------------------------------------------------------
# Named presets
# ---------------------------------------------------------------------------

def _so_generators(algebra: RealizedAlgebra, factor: int, rows: list) -> list:
    f = algebra.factors[factor]
    out = []
    for ia, a in enumerate(rows):
        for b in rows[ia + 1:]:
            m = np.zeros((f.size, f.size))
            m[a, b] = 1.0
            m[b, a] = -1.0
            out.append(algebra.single_block(factor, m))
    return out


def _negclose(vectors: Iterable[TVec]) -> tuple:
    """The vectors and their negatives, each once, in order of appearance."""
    return tuple(dict.fromkeys(w for v in vectors for w in (v, -v)))


def preset_sphere_so2n(n: int) -> CosetSpace:
    """S^{2n-1} = SO(2n)/SO(2n-1), n >= 3 (the n=3 model uses D3 = A3)."""
    if n < 3:
        raise ValueError("sphere_so2n needs n >= 3")
    spec = AlgebraSpec((("D", n, Fraction(1)),))
    alg = realize(spec)
    gens = _so_generators(alg, 0, list(range(1, 2 * n)))
    cart = [lift_root(spec, 0, _unit(n, i)) for i in range(1, n)]
    h_roots = []
    for i in range(1, n):
        h_roots.append(lift_root(spec, 0, _unit(n, i)))
        for j in range(i + 1, n):
            h_roots.append(lift_root(spec, 0, _unit(n, i) + _unit(n, j)))
            h_roots.append(lift_root(spec, 0, _unit(n, i) - _unit(n, j)))
    sub = SubalgebraSpec(cartan_h=tuple(cart), extra_generators=tuple(gens))
    return build_coset(
        alg, sub, name=f"S^{2*n-1} = SO({2*n})/SO({2*n-1})",
        h_root_vectors=_negclose(h_roots), case_label="III",
    )


def preset_sphere_un(n: int) -> CosetSpace:
    """S^{2n-1} = U(n)/U(n-1), n >= 2."""
    if n < 2:
        raise ValueError("sphere_un needs n >= 2")
    spec = AlgebraSpec((("A", n - 1, Fraction(1)),), abelian_dim=1,
                       abelian_scales=(Fraction(n),))
    alg = realize(spec)
    cart = []
    for j in range(1, n):
        coords = [Fraction(-1, n)] * n
        coords[j] = Fraction(n - 1, n)
        cart.append(tvec_from_parts(spec, {0: coords}, abelian=[Fraction(1, n)]))
    block = [_unit(n, i) - _unit(n, j) for i in range(1, n) for j in range(i + 1, n)]
    sub = SubalgebraSpec(cartan_h=tuple(cart), h_roots=tuple((0, r) for r in block))
    return build_coset(
        alg, sub, name=f"S^{2*n-1} = U({n})/U({n-1})",
        h_root_vectors=_negclose(lift_root(spec, 0, r) for r in block),
        case_label="I",
    )


def _sp_subblock_roots(n: int, lo: int) -> list:
    out = []
    for i in range(lo, n):
        out.append(_unit(n, i).scale(2))
        for j in range(i + 1, n):
            out.append(_unit(n, i) + _unit(n, j))
            out.append(_unit(n, i) - _unit(n, j))
    return out


def preset_sphere_spn_u1(n: int) -> CosetSpace:
    """S^{4n-1} = Sp(n)U(1)/Sp(n-1)U(1), n >= 2."""
    if n < 2:
        raise ValueError("sphere_spn_u1 needs n >= 2")
    spec = AlgebraSpec((("C", n, Fraction(1)),), abelian_dim=1)
    alg = realize(spec)
    cart = [tvec_from_parts(spec, {0: _coords_unit(n, 0)}, abelian=[1])]
    cart += [lift_root(spec, 0, _unit(n, i)) for i in range(1, n)]
    block = _sp_subblock_roots(n, 1)
    sub = SubalgebraSpec(cartan_h=tuple(cart), h_roots=tuple((0, r) for r in block))
    return build_coset(
        alg, sub, name=f"S^{4*n-1} = Sp({n})U(1)/Sp({n-1})U(1)",
        h_root_vectors=_negclose(lift_root(spec, 0, r) for r in block),
        case_label="I",
    )


def preset_sphere_spn_sp1(n: int) -> CosetSpace:
    """S^{4n-1} = Sp(n)Sp(1)/Sp(n-1)Sp(1), n >= 2."""
    if n < 2:
        raise ValueError("sphere_spn_sp1 needs n >= 2")
    spec = AlgebraSpec((("C", n, Fraction(1)), ("C", 1, Fraction(1))))
    alg = realize(spec)
    gens = []
    for part in ("x", "y", "z"):
        gens.append(alg.from_blocks([
            quat_unit(n, part, [(0, 0, 1)]),
            quat_unit(1, part, [(0, 0, 1)]),
        ]))
    cart = [tvec_from_parts(spec, {0: _coords_unit(n, 0), 1: [1]})]
    cart += [lift_root(spec, 0, _unit(n, i)) for i in range(1, n)]
    block = _sp_subblock_roots(n, 1)
    sub = SubalgebraSpec(cartan_h=tuple(cart), h_roots=tuple((0, r) for r in block),
                         extra_generators=tuple(gens))
    hvecs = [cart[0]] + [lift_root(spec, 0, r) for r in block]
    return build_coset(
        alg, sub, name=f"S^{4*n-1} = Sp({n})Sp(1)/Sp({n-1})Sp(1)",
        h_root_vectors=_negclose(hvecs), case_label="II",
    )


def preset_aloff_wallach(k: int, l: int) -> CosetSpace:
    """Aloff-Wallach space U(3)/T^2 with torus parameters (k, l)."""
    if k * l * (k + l) == 0:
        raise ValueError("aloff_wallach needs kl(k+l) != 0")
    spec = AlgebraSpec((("A", 2, Fraction(1)),), abelian_dim=1,
                       abelian_scales=(Fraction(3),))
    alg = realize(spec)
    v1 = tvec_from_parts(spec, {0: [k, l, -k - l]})
    v2 = tvec_from_parts(spec, {0: [k + 2 * l, -2 * k - l, k - l]}, abelian=[1])
    sub = SubalgebraSpec(cartan_h=(v1, v2))
    return build_coset(
        alg, sub, name=f"Aloff-Wallach U(3)/T^2 (k={k}, l={l})",
        h_root_vectors=(), case_label="I",
    )


def preset_berger_sp2() -> CosetSpace:
    """Berger space Sp(2)/SU(2) = SO(5)/SO(3)_irr: the 5-dimensional
    irreducible orthogonal representation of so(3) inside so(5)."""
    spec = AlgebraSpec((("B", 2, Fraction(1)),))
    alg = realize(spec)
    # so(3) acting on traceless symmetric 3x3 matrices: rho(X)S = XS - SX
    s6 = 1.0 / np.sqrt(6.0)
    s2 = 1.0 / np.sqrt(2.0)
    sym_basis = [
        s6 * np.diag([-1.0, -1.0, 2.0]),                     # weight 0
        s2 * (_eij(3, 1, 2, float) + _eij(3, 2, 1, float)),  # weight-1 pair
        s2 * (_eij(3, 0, 2, float) + _eij(3, 2, 0, float)),
        s2 * (_eij(3, 0, 0, float) - _eij(3, 1, 1, float)),  # weight-2 pair
        s2 * (_eij(3, 0, 1, float) + _eij(3, 1, 0, float)),
    ]
    def rho(X):
        m = np.zeros((5, 5))
        for j, S in enumerate(sym_basis):
            img = X @ S - S @ X
            for i, T in enumerate(sym_basis):
                m[i, j] = float((img * T).sum())
        return m
    Lz = _eij(3, 0, 1, float) - _eij(3, 1, 0, float)
    Lx = _eij(3, 1, 2, float) - _eij(3, 2, 1, float)
    Ly = _eij(3, 2, 0, float) - _eij(3, 0, 2, float)
    target = np.zeros((5, 5))  # embed of the exact Cartan direction (-1, 2)
    target[1, 2], target[2, 1] = -1.0, 1.0
    target[3, 4], target[4, 3] = 2.0, -2.0
    rz = rho(Lz)
    # flip basis orientations so rho(Lz) matches the target exactly
    flips = np.ones(5)
    if rz[2, 1] * target[2, 1] < 0:
        flips[2] = -1.0
    if rz[4, 3] * target[4, 3] < 0:
        flips[4] = -1.0
    F = np.diag(flips)
    def rho_f(X):
        return F @ rho(X) @ F
    rz = rho_f(Lz)
    if np.abs(rz - target).max() > 1e-12:
        raise AssertionError("spin-2 Cartan alignment failed")
    gens = [alg.single_block(0, rho_f(X)) for X in (Lx, Ly, Lz)]
    alpha_prime = tvec_from_parts(spec, {0: [Fraction(-1, 5), Fraction(2, 5)]})
    cart = [tvec_from_parts(spec, {0: [-1, 2]})]
    sub = SubalgebraSpec(cartan_h=tuple(cart), extra_generators=tuple(gens))
    return build_coset(
        alg, sub, name="Sp(2)/SU(2) (Berger)",
        h_root_vectors=_negclose([alpha_prime]), case_label="III",
    )


def preset_bn_excluded_subcase1(n: int) -> CosetSpace:
    """so(2n+1)/so(2n-1) witness space: m = R e1 + g_{+-e1}
    + sum_{i>=2} (g_{+-(e_i+e_1)} + g_{+-(e_i-e_1)})."""
    if n < 2:
        raise ValueError("bn_excluded_subcase1 needs n >= 2")
    spec = AlgebraSpec((("B", n, Fraction(1)),))
    alg = realize(spec)
    cart = [lift_root(spec, 0, _unit(n, i)) for i in range(1, n)]
    block = []
    for i in range(1, n):
        block.append(_unit(n, i))
        for j in range(i + 1, n):
            block.append(_unit(n, i) + _unit(n, j))
            block.append(_unit(n, i) - _unit(n, j))
    sub = SubalgebraSpec(cartan_h=tuple(cart), h_roots=tuple((0, r) for r in block))
    return build_coset(
        alg, sub, name=f"SO({2*n+1})/SO({2*n-1}) zero-curvature witness",
        h_root_vectors=_negclose(lift_root(spec, 0, r) for r in block),
        case_label="III",
        witness_planes={"u": (0, _unit(n, 0) + _unit(n, 1)),
                        "v": (0, _unit(n, 1) - _unit(n, 0))},
    )


def preset_a1a1_diagonal(c) -> CosetSpace:
    """SU(2) x SU(2)/U(1)_c with slope parameter |c| >= 1 on the torus."""
    c = Fraction(c)
    if abs(c) < 1:
        raise ValueError("a1a1_diagonal needs |c| >= 1 (reorder the factors)")
    spec = AlgebraSpec((("A", 1, Fraction(1)), ("A", 1, Fraction(1))))
    alg = realize(spec)
    cart = [tvec_from_parts(spec, {0: [-c, c], 1: [1, -1]})]
    sub = SubalgebraSpec(cartan_h=tuple(cart))
    return build_coset(
        alg, sub, name=f"SU(2)xSU(2)/U(1) (c={c})",
        h_root_vectors=(), case_label="I",
        witness_planes={"u": (0, rv(1, -1)), "v": (1, rv(1, -1))},
    )


def preset_cn_excluded_subcase1(n: int) -> CosetSpace:
    """sp(n) witness space with h = A1(e1+e2) + sp(n-2)."""
    if n < 3:
        raise ValueError("cn_excluded_subcase1 needs n >= 3")
    spec = AlgebraSpec((("C", n, Fraction(1)),))
    alg = realize(spec)
    block = [_unit(n, 0) + _unit(n, 1)] + _sp_subblock_roots(n, 2)
    cart = [lift_root(spec, 0, _unit(n, 0) + _unit(n, 1))]
    cart += [lift_root(spec, 0, _unit(n, i)) for i in range(2, n)]
    sub = SubalgebraSpec(cartan_h=tuple(cart), h_roots=tuple((0, r) for r in block))
    return build_coset(
        alg, sub, name=f"Sp({n})/Sp(1)Sp({n-2})-type zero-curvature witness",
        h_root_vectors=_negclose(lift_root(spec, 0, r) for r in block),
        case_label="III",
        witness_planes={"u": (0, _unit(n, 0).scale(2)),
                        "v": (0, _unit(n, 1).scale(2))},
    )


def _unit(n: int, i: int) -> RootVector:
    return rv(*_coords_unit(n, i))


def _coords_unit(n: int, i: int) -> list:
    coords = [0] * n
    coords[i] = 1
    return coords


# Cap on the rank n of the ranked presets: it bounds the algebra a preset
# builds, and the invariant-form stack of random_invariant_norm with it.
MAX_PRESET_RANK = 6
_PRESETS = {  # name -> (builder, parameter count, first parameter is the rank n)
    "sphere_so2n": (preset_sphere_so2n, 1, True),
    "sphere_un": (preset_sphere_un, 1, True),
    "sphere_spn_u1": (preset_sphere_spn_u1, 1, True),
    "sphere_spn_sp1": (preset_sphere_spn_sp1, 1, True),
    "aloff_wallach": (preset_aloff_wallach, 2, False),
    "berger_sp2": (preset_berger_sp2, 0, False),
    "bn_excluded_subcase1": (preset_bn_excluded_subcase1, 1, True),
    "a1a1_diagonal": (preset_a1a1_diagonal, 1, False),
    "cn_excluded_subcase1": (preset_cn_excluded_subcase1, 1, True),
}


def preset(name: str, *params) -> CosetSpace:
    """Build a named preset coset space."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; know {sorted(_PRESETS)}")
    fn, nargs, ranked = _PRESETS[name]
    if len(params) != nargs:
        raise ValueError(f"preset {name} takes {nargs} parameter(s)")
    if ranked and abs(params[0]) > MAX_PRESET_RANK:
        raise ValueError(f"preset {name} takes n <= {MAX_PRESET_RANK}, got {params[0]}")
    return fn(*params)


def space_from_json(obj: dict, name: str = "from file") -> CosetSpace:
    """Build a coset space from the space-definition JSON schema.

    Fails closed with ValueError on a malformed schema, on a block whose
    kind or shape does not fit its factor, and on an extra generator that
    does not lie in g (off_algebra residual above MEMBER_TOL).  A "real"
    block fits every factor and a "complex" one the su and sp factors; an
    sp(n) block may also be given as "quaternion" ([w, x, y, z], each
    n x n)."""
    try:
        spec = AlgebraSpec.from_json(obj["algebra"])
        alg = realize(spec)
        cartan_h = tuple(tvec_from_json(spec, tv) for tv in obj.get("cartan_h", []))
        h_roots = []
        for entry in obj.get("h_roots", []):
            factor, root = int(entry["factor"]), RootVector.from_json(entry["root"])
            if not (0 <= factor < len(alg.factors)
                    and root.canonical_sign() in alg.factors[factor].planes):
                raise ValueError(f"h_roots: {root} is not a root of factor {factor}")
            h_roots.append((factor, root))
        extra = [_generator_from_json(alg, gen) for gen in obj.get("extra_generators", [])]
        more = obj.get("h_root_vectors")
        if more is not None:
            hvecs = _negclose([tvec_from_json(spec, tv) for tv in more])
        else:
            hvecs = _negclose([lift_root(spec, f, r) for f, r in h_roots])
        name = obj.get("name", name)
    except (KeyError, TypeError, AttributeError, IndexError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed space file: {type(exc).__name__}: {exc}") from None
    for k, x in enumerate(extra):
        resid = alg.off_algebra(x)
        if not resid <= MEMBER_TOL:
            raise ValueError(f"extra generator {k} does not lie in g: residual {resid:.2e}")
    sub = SubalgebraSpec(cartan_h=cartan_h, h_roots=tuple(h_roots),
                         extra_generators=tuple(extra))
    return build_coset(alg, sub, name=name, h_root_vectors=hvecs)


def _generator_from_json(alg: RealizedAlgebra, gen: dict) -> AlgebraElement:
    if len(gen["blocks"]) != len(alg.factors):
        raise ValueError(f"extra generator has {len(gen['blocks'])} blocks "
                         f"for {len(alg.factors)} factors")
    blocks = []
    for blk, f in zip(gen["blocks"], alg.factors):
        kind, data = blk["kind"], blk["data"]
        if kind == "real":
            blocks.append(_json_matrix(data, f.size).astype(f.dtype))
        elif kind == "complex" and f.dtype is complex and len(data) == 2:
            blocks.append(_json_matrix(data[0], f.size) + 1j * _json_matrix(data[1], f.size))
        elif kind == "quaternion" and f.family == "C" and len(data) == 4:
            w, x, y, z = (_json_matrix(c, f.rank) for c in data)
            blocks.append(quat_block(w + 1j * x, y + 1j * z))
        else:
            raise ValueError(f"a {kind!r} block does not fit factor {f.family}{f.rank}")
    abelian = np.array(gen.get("abelian") or np.zeros(alg.spec.abelian_dim), dtype=float)
    if abelian.shape != (alg.spec.abelian_dim,) or not np.isfinite(abelian).all():
        raise ValueError(f"extra generator needs {alg.spec.abelian_dim} finite abelian entries")
    return alg.from_blocks(blocks, abelian)


def _json_matrix(data, n: int) -> np.ndarray:
    m = np.array(data, dtype=float)
    if m.shape != (n, n) or not np.isfinite(m).all():
        raise ValueError(f"block of shape {m.shape} where a finite {n} x {n} matrix belongs")
    return m


def parse_preset(text: str) -> CosetSpace:
    """Parse 'preset:name(p1,p2)' or 'preset:name' strings."""
    if not text.startswith("preset:"):
        raise ValueError("expected a 'preset:...' string")
    body = text[len("preset:"):]
    if "(" in body:
        name, rest = body.split("(", 1)
        if not rest.endswith(")"):
            raise ValueError("malformed preset parameters")
        args = [a.strip() for a in rest[:-1].split(",") if a.strip()]
        params = [Fraction(a) for a in args]
        params = [int(p) if p.denominator == 1 else p for p in params]
    else:
        name, params = body, []
    return preset(name.strip(), *params)


def _expm_skew(x: np.ndarray) -> np.ndarray:
    """exp(x) of a skew-Hermitian matrix x through the eigendecomposition of
    the Hermitian -i x (Higham, Functions of Matrices, 2008, ch. 10)."""
    lam, q = np.linalg.eigh(-1j * np.asarray(x, dtype=complex))
    return (q * np.exp(1j * lam)) @ q.conj().T


def _ad_exp(algebra: RealizedAlgebra, t: float, v: AlgebraElement):
    """Ad(exp(t v)) as a map on algebra elements (matrix conjugation)."""
    exps = [_expm_skew(t * np.asarray(b)) for b in v.blocks]

    def apply(x: AlgebraElement) -> AlgebraElement:
        blocks = []
        for e, bx in zip(exps, x.blocks):
            out = e @ np.asarray(bx, dtype=complex) @ np.conj(e.T)
            blocks.append(out if np.iscomplexobj(bx) else out.real)
        return algebra.from_blocks(blocks, x.abelian.copy())

    return apply
