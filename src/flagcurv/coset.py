"""Homogeneous-space construction: reductive decompositions g = h + m.

A CosetSpace pairs a realized matrix algebra with an orthonormal basis of a
verified subalgebra h and of its bi-invariant orthogonal complement m.
Exact Cartan data on the integer torus lattice (`rootsys`) is carried
alongside the floating matrices; all projections of Cartan vectors, and the
grouping, order and sign of the hat blocks they label, are exact (no float
pass), matrix projections are numeric with a fixed tolerance ladder
(closure gate 1e-8, reductivity 1e-10, orthogonality 1e-12, membership of
file-given generators in g 1e-10).  Every factor, sp(n) included, is a
plain matrix block (sp(n) inside su(2n)), so the closure, reductivity and
structure-tensor checks take the coordinates of all bracket pairs at once
from RealizedAlgebra.bracket_coords: one pass each over [h, h], [h, m]
(Kh and the reductivity residual together) and [m, m].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .rootsys import (
    AlgebraSpec,
    QNum,
    TVec,
    _frac,
    exact_nullspace,
    lattice_block,
    lift_root,
    root,
    sparse_tvec,
    t_cap_h_projection,
    tvec_dot,
    tvec_from_json,
    tvec_from_parts,
    zero_tvec,
)
from .liealg import (
    AlgebraElement,
    RealizedAlgebra,
    _floats,
    _rot,
    gram_schmidt,
    quat_block,
    quat_unit,
    realize,
)

CLOSURE_TOL = 1e-8
REDUCTIVE_TOL = 1e-10
ORTHO_TOL = 1e-12
MEMBER_TOL = 1e-10
ROW_TOL = 1e-9  # singular value below which _m_rows drops a direction


# ---------------------------------------------------------------------------
# Exact subspaces of the Cartan subalgebra
# ---------------------------------------------------------------------------

def cartan_coordinate_basis(spec: AlgebraSpec) -> list:
    """Exact basis of t (sum-zero differences for A factors)."""
    out = []
    for idx, (fam, rank, _) in enumerate(spec.factors):
        for i in range(rank):
            tail = ((i + 1, -1),) if fam == "A" else ()
            out.append(lift_root(spec, idx, sparse_tvec(fam, rank, (i, 1), *tail)))
    return out + [tvec_from_parts(spec, abelian=[0] * k + [1]) for k in range(spec.abelian_dim)]


def orthocomplement_in_t(spec: AlgebraSpec, vectors: Sequence[TVec]) -> list:
    """Exact basis of the orthocomplement of span(vectors) inside t."""
    basis = cartan_coordinate_basis(spec)
    if not vectors:
        return basis
    rows = [[tvec_dot(spec, b, v) for b in basis] for v in vectors]
    return [_combination(spec, coeffs, basis) for coeffs in exact_nullspace(rows)]


def _combination(spec: AlgebraSpec, coeffs, vectors: Sequence[TVec]) -> TVec:
    """sum of c v over the nonzero exact coefficients c."""
    out = zero_tvec(spec)
    for c, v in zip(coeffs, vectors):
        if c:
            out = out + v.scale(c)
    return out


# ---------------------------------------------------------------------------
# Subalgebra specification and coset spaces
# ---------------------------------------------------------------------------

@dataclass
class SubalgebraSpec:
    """Data defining h: exact Cartan vectors, root planes assigned to h,
    and optional explicit extra generators (diagonal embeddings)."""

    cartan_h: tuple = ()
    h_roots: tuple = ()  # of (factor_index, root of the factor's unit spec)
    extra_generators: tuple = ()  # of AlgebraElement


class CosetSpace:
    """Verified bi-invariant orthogonal decomposition g = h + m."""

    def __init__(self, algebra: RealizedAlgebra, name: str,
                 h_basis: list, cartan_h: Sequence[TVec],
                 h_root_vectors: Sequence[TVec] = (),
                 witness_planes: Optional[dict] = None):
        self.algebra = algebra
        self.name = name
        self.h_basis = h_basis
        self.cartan_h = tuple(cartan_h)
        self.h_root_vectors = tuple(h_root_vectors)
        self.witness_planes = witness_planes

        alg = algebra
        self.dim_g = alg.dim
        self.dim_h = len(h_basis)
        full = gram_schmidt(alg, list(h_basis) + alg.ambient_basis)
        if len(full) != self.dim_g:
            raise AssertionError("basis completion failed")
        self.m_basis = full[self.dim_h:]
        self.dim_m = len(self.m_basis)

        self._h_co = np.array([alg.coords(b) for b in h_basis]).reshape(-1, self.dim_g)
        self._m_co = np.array([alg.coords(b) for b in self.m_basis])

        self.t_m = orthocomplement_in_t(alg.spec, self.cartan_h)
        self.projection = t_cap_h_projection(alg.spec, tuple(self.t_m))

        self._kh = self._verify()
        self._hat = None
        self._tensors = self._brackets = None
        self._plane_ms = {}

    # -- verification -----------------------------------------------------
    def _verify(self) -> np.ndarray:
        """Check closure, orthogonality, reductivity and t cap m; returns Kh, the
        m-part of the one [h, m] pass, whose h-part is the reductivity residual."""
        off = self.algebra.bracket_coords(self.h_basis, self.h_basis, self._m_co, upper=True)
        worst = float(np.linalg.norm(off, axis=-1).max()) if off.size else 0.0
        if worst > CLOSURE_TOL:  # the part of each [h_i, h_j] in m
            raise ValueError(f"not a subalgebra: bracket closure residual {worst:.2e}")
        if self.dim_h and np.abs(self._h_co @ self._m_co.T).max() > ORTHO_TOL:
            raise AssertionError("h and m are not orthogonal")
        hm = self.algebra.bracket_coords(self.h_basis, self.m_basis,
                                         np.vstack([self._m_co, self._h_co]))
        worst = float(np.linalg.norm(hm[..., self.dim_m:], axis=-1).max()) if hm.size else 0.0
        if worst > REDUCTIVE_TOL:
            raise AssertionError(f"reductive condition violated: {worst:.2e}")
        for tv in self.t_m:  # the h-part of each t cap m vector vanishes
            c = self.algebra.coords(self.embed(tv))
            if np.linalg.norm(self._h_co @ c) > 1e-9 * max(1.0, np.linalg.norm(c)):
                raise AssertionError("exact t cap m does not match matrix complement")
        return np.ascontiguousarray(hm[..., :self.dim_m])

    # -- coordinates --------------------------------------------------------
    def embed(self, tv: TVec) -> AlgebraElement:
        return _embed(self.algebra, tv)

    def to_m(self, x: AlgebraElement) -> np.ndarray:
        return self._m_co @ self.algebra.coords(x)

    def from_m(self, v: np.ndarray) -> AlgebraElement:
        out = self.algebra.zero()
        for c, b in zip(v, self.m_basis):
            out = out + float(c) * b
        return out

    def pr_m(self, x: AlgebraElement) -> AlgebraElement:
        return self.from_m(self.to_m(x))

    # -- structure tensors for the curvature engine -------------------------
    def structure_tensors(self):
        """(Cm, Ch, Kh): m-m brackets onto m and h, and h-m brackets onto m."""
        if self._tensors is None:
            mm = self.algebra.bracket_coords(self.m_basis, self.m_basis,
                                             np.vstack([self._m_co, self._h_co]))
            # keep the i < j brackets and mirror them, so Cm and Ch are
            # exactly antisymmetric in their first two slots
            upper = np.triu(np.ones((self.dim_m, self.dim_m), dtype=bool), 1)
            mm = np.where(upper[:, :, None], mm, 0.0)
            mm = mm - mm.transpose(1, 0, 2)
            Cm = np.ascontiguousarray(mm[..., :self.dim_m])
            Ch = np.ascontiguousarray(mm[..., self.dim_m:])
            self._tensors = (Cm, Ch, self._kh)  # Kh from the [h, m] pass of _verify
        return self._tensors

    def bracket_matrices(self):
        """The structure tensors as matrices that row vectors multiply, built
        once: u -> the matrices of [., u]_m and [., u]_h, c -> sum_a c_a Kh[a]."""
        if self._brackets is None:
            (cm, ch, kh), d = self.structure_tensors(), self.dim_m
            self._brackets = (*(np.ascontiguousarray(t.transpose(1, 0, 2).reshape(d, -1))
                                for t in (cm, ch)), kh.reshape(self.dim_h, d * d))
        return self._brackets

    # -- decompositions -------------------------------------------------------
    def hat_decomposition(self) -> list:
        """The HatBlocks of the torus-isotypic decomposition of g, grouped by
        exact projections of the roots to t cap h; the g0 block first (cached)."""
        if self._hat is None:
            self._hat = _build_hat(self)
        return self._hat

    def plane_m(self, factor: int, root: TVec) -> np.ndarray:
        """The (2, dim m) m-coordinates of the x and y of a root plane, read-only
        and computed once per (factor, root); root is a root of the factor's unit spec."""
        p = self.algebra.factors[factor].plane(root)  # raises for any other vector
        if (factor, root) not in self._plane_ms:
            self._plane_ms[factor, root] = rows = np.stack([self.to_m(p.x), self.to_m(p.y)])
            rows.flags.writeable = False
        return self._plane_ms[factor, root]

    def plane_kind(self, factor: int, root: TVec) -> str:
        """Where a root plane lies: 'h' (both m-norms 0), 'm' (both 1) or
        'split', each to within 1e-9."""
        xin, yin = np.linalg.norm(self.plane_m(factor, root), axis=1)
        if xin < 1e-9 and yin < 1e-9:
            return "h"
        if abs(xin - 1.0) < 1e-9 and abs(yin - 1.0) < 1e-9:
            return "m"
        return "split"

    def plane_assignment(self) -> dict:
        """plane_kind of every root plane of g, keyed by the canonical sign
        of its lifted root."""
        spec = self.algebra.spec
        return {lift_root(spec, f.index, r).canonical_sign(): self.plane_kind(f.index, r)
                for f in self.algebra.factors for r in f.plane_keys}

    def __repr__(self):
        return f"CosetSpace({self.name}: dim g={self.dim_g}, dim h={self.dim_h}, dim m={self.dim_m})"


@dataclass
class HatBlock:
    alpha_prime: TVec  # canonical sign; zero vector for the g0 block
    roots: tuple       # (factor, root) pairs contributing m-directions
    basis: np.ndarray  # orthonormal m-coordinate rows


def _m_rows(space: CosetSpace, planes, t_vecs=()) -> np.ndarray:
    """Orthonormal m-coordinate rows spanning the Cartan vectors t_vecs and
    the given root planes, (factor, root) pairs: the right singular vectors
    of their stacked rows whose singular values pass ROW_TOL."""
    rows = [space.to_m(space.embed(tv)) for tv in t_vecs]
    rows += [r for factor, root in planes for r in space.plane_m(factor, root)]
    _, sv, vt = np.linalg.svd(np.reshape(rows, (-1, space.dim_m)), full_matrices=False)
    return vt[sv > ROW_TOL]


def _build_hat(space: CosetSpace) -> list:
    """The g0 block (t cap m and the planes whose roots project to zero in
    t cap h), then one block per nonzero canonical projection, in the exact
    lexicographic order."""
    zero, groups = [], {}
    for f in space.algebra.factors:
        for root in f.plane_keys:
            pr = space.projection.pr_h(lift_root(space.algebra.spec, f.index, root))
            group = zero if pr.is_zero() else groups.setdefault(pr.canonical_sign(), [])
            group.append((f.index, root))
    blocks = [HatBlock(zero_tvec(space.algebra.spec), tuple(zero),
                       _m_rows(space, zero, space.t_m))]
    for pr in sorted(groups):
        basis = _m_rows(space, groups[pr])
        if len(basis):
            blocks.append(HatBlock(pr, tuple(groups[pr]), basis))
    return blocks


# ---------------------------------------------------------------------------
# Construction and checks
# ---------------------------------------------------------------------------

def build_coset(algebra: RealizedAlgebra, spec: SubalgebraSpec, name: str = "custom",
                h_root_vectors: Optional[Sequence[TVec]] = None, **kw) -> CosetSpace:
    """Build and verify a coset space from a subalgebra specification.  The
    h-root vectors default to the lifted h_roots and their negatives."""
    gens = [_embed(algebra, tv) for tv in spec.cartan_h]
    for factor, root in spec.h_roots:
        p = algebra.factors[factor].plane(root)
        gens.extend([p.x, p.y])
    gens.extend(spec.extra_generators)

    h_basis = gram_schmidt(algebra, gens)
    if len(h_basis) == algebra.dim:
        raise ValueError("h = g: degenerate coset space")
    if h_root_vectors is None:
        h_root_vectors = _negclose(lift_root(algebra.spec, f, r) for f, r in spec.h_roots)
    return CosetSpace(algebra, name, h_basis, spec.cartan_h, h_root_vectors, **kw)


def _embed(algebra: RealizedAlgebra, tv: TVec) -> AlgebraElement:
    """The matrix element of a Cartan vector."""
    abelian = _floats(tv)[len(tv) - tv.spec.abelian_dim:]
    return algebra.cartan_embed(list(tv.factors), np.array(abelian))


def rank_check(space: CosetSpace):
    """(rk g, rk h, passes) with passes iff rk g = rk h + 1.  rk h is the
    dimension of t cap h, rk g - dim(t cap m), however many (possibly
    dependent) vectors span it in `cartan_h`."""
    spec = space.algebra.spec
    rk_g = spec.abelian_dim + sum(r for _, r, _ in spec.factors)
    rk_h = rk_g - len(space.t_m)
    return rk_g, rk_h, rk_g == rk_h + 1


# ---------------------------------------------------------------------------
# Named presets
# ---------------------------------------------------------------------------

def _negclose(vectors: Iterable[TVec]) -> tuple:
    """The vectors and their negatives, each once, in order of appearance."""
    return tuple(dict.fromkeys(w for v in vectors for w in (v, -v)))


def preset_sphere_so2n(n: int) -> CosetSpace:
    """S^{2n-1} = SO(2n)/SO(2n-1), n >= 3 (the n=3 model uses D3 = A3)."""
    if n < 3:
        raise ValueError("sphere_so2n needs n >= 3")
    spec = AlgebraSpec((("D", n, Fraction(1)),))
    alg = realize(spec)
    gens = [alg.single_block(0, _rot(2 * n, a, b))  # so(2n-1) on the rows 1, ..., 2n-1
            for a in range(1, 2 * n) for b in range(a + 1, 2 * n)]
    cart = [lift_root(spec, 0, sparse_tvec("D", n, (i, 1))) for i in range(1, n)]
    h_roots = [lift_root(spec, 0, r) for r in _subblock_roots("D", n, 1)]
    sub = SubalgebraSpec(cartan_h=tuple(cart), extra_generators=tuple(gens))
    return build_coset(
        alg, sub, name=f"S^{2*n-1} = SO({2*n})/SO({2*n-1})",
        h_root_vectors=_negclose(h_roots),
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
    block = [sparse_tvec("A", n - 1, (i, 1), (j, -1))
             for i in range(1, n) for j in range(i + 1, n)]
    sub = SubalgebraSpec(cartan_h=tuple(cart), h_roots=tuple((0, r) for r in block))
    return build_coset(alg, sub, name=f"S^{2*n-1} = U({n})/U({n-1})")


def _subblock_roots(family: str, n: int, lo: int) -> list:
    """The vectors e_i (2 e_i for C) and e_i +- e_j, lo <= i < j < n, of the
    root lattice of (family, n), in that order for each i."""
    out = []
    for i in range(lo, n):
        out.append(sparse_tvec(family, n, (i, 2 if family == "C" else 1)))
        for j in range(i + 1, n):
            out += [sparse_tvec(family, n, (i, 1), (j, s)) for s in (1, -1)]
    return out


def preset_sphere_spn_u1(n: int) -> CosetSpace:
    """S^{4n-1} = Sp(n)U(1)/Sp(n-1)U(1), n >= 2."""
    if n < 2:
        raise ValueError("sphere_spn_u1 needs n >= 2")
    spec = AlgebraSpec((("C", n, Fraction(1)),), abelian_dim=1)
    alg = realize(spec)
    cart = [lift_root(spec, 0, sparse_tvec("C", n, (0, 1))) + tvec_from_parts(spec, abelian=[1])]
    cart += [lift_root(spec, 0, sparse_tvec("C", n, (i, 1))) for i in range(1, n)]
    block = _subblock_roots("C", n, 1)
    sub = SubalgebraSpec(cartan_h=tuple(cart), h_roots=tuple((0, r) for r in block))
    return build_coset(alg, sub, name=f"S^{4*n-1} = Sp({n})U(1)/Sp({n-1})U(1)")


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
    cart = [tvec_from_parts(spec, {0: [1] + [0] * (n - 1), 1: [1]})]
    cart += [lift_root(spec, 0, sparse_tvec("C", n, (i, 1))) for i in range(1, n)]
    block = _subblock_roots("C", n, 1)
    sub = SubalgebraSpec(cartan_h=tuple(cart), h_roots=tuple((0, r) for r in block),
                         extra_generators=tuple(gens))
    hvecs = [cart[0]] + [lift_root(spec, 0, r) for r in block]
    return build_coset(
        alg, sub, name=f"S^{4*n-1} = Sp({n})Sp(1)/Sp({n-1})Sp(1)",
        h_root_vectors=_negclose(hvecs),
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
    return build_coset(alg, sub, name=f"Aloff-Wallach U(3)/T^2 (k={k}, l={l})")


def preset_berger_sp2() -> CosetSpace:
    """Berger space Sp(2)/SU(2) = SO(5)/SO(3)_irr: the 5-dimensional
    irreducible orthogonal representation of so(3) (on the traceless
    symmetric 3 x 3 matrices, X.S = XS - SX) inside so(5)."""
    spec = AlgebraSpec((("B", 2, Fraction(1)),))
    alg = realize(spec)
    # L_x, L_y, L_z over the basis (weight 0; weight-1 pair; weight-2 pair)
    # of the traceless symmetric matrices; L_z embeds the Cartan direction (-1, 2)
    r3 = np.sqrt(3.0)
    gens = [alg.single_block(0, L) for L in (r3 * _rot(5, 1, 0) + _rot(5, 1, 3) + _rot(5, 4, 2),
                                             r3 * _rot(5, 0, 2) + _rot(5, 1, 4) + _rot(5, 2, 3),
                                             _rot(5, 2, 1) + 2 * _rot(5, 3, 4))]
    alpha_prime = tvec_from_parts(spec, {0: [Fraction(-1, 5), Fraction(2, 5)]})
    cart = [tvec_from_parts(spec, {0: [-1, 2]})]
    sub = SubalgebraSpec(cartan_h=tuple(cart), extra_generators=tuple(gens))
    return build_coset(
        alg, sub, name="Sp(2)/SU(2) (Berger)",
        h_root_vectors=_negclose([alpha_prime]),
    )


def preset_bn_excluded_subcase1(n: int) -> CosetSpace:
    """so(2n+1)/so(2n-1) witness space: m = R e1 + g_{+-e1}
    + sum_{i>=2} (g_{+-(e_i+e_1)} + g_{+-(e_i-e_1)})."""
    if n < 2:
        raise ValueError("bn_excluded_subcase1 needs n >= 2")
    spec = AlgebraSpec((("B", n, Fraction(1)),))
    alg = realize(spec)
    cart = [lift_root(spec, 0, sparse_tvec("B", n, (i, 1))) for i in range(1, n)]
    block = _subblock_roots("B", n, 1)
    sub = SubalgebraSpec(cartan_h=tuple(cart), h_roots=tuple((0, r) for r in block))
    return build_coset(
        alg, sub, name=f"SO({2*n+1})/SO({2*n-1}) zero-curvature witness",
        witness_planes={"u": (0, sparse_tvec("B", n, (0, 1), (1, 1))),
                        "v": (0, sparse_tvec("B", n, (0, -1), (1, 1)))},
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
        witness_planes={"u": (0, root("A", 1, 1, -1)), "v": (1, root("A", 1, 1, -1))},
    )


def preset_cn_excluded_subcase1(n: int) -> CosetSpace:
    """sp(n) witness space with h = A1(e1+e2) + sp(n-2)."""
    if n < 3:
        raise ValueError("cn_excluded_subcase1 needs n >= 3")
    spec = AlgebraSpec((("C", n, Fraction(1)),))
    alg = realize(spec)
    block = [sparse_tvec("C", n, (0, 1), (1, 1))] + _subblock_roots("C", n, 2)
    cart = [lift_root(spec, 0, block[0])]
    cart += [lift_root(spec, 0, sparse_tvec("C", n, (i, 1))) for i in range(2, n)]
    sub = SubalgebraSpec(cartan_h=tuple(cart), h_roots=tuple((0, r) for r in block))
    return build_coset(
        alg, sub, name=f"Sp({n})/Sp(1)Sp({n-2})-type zero-curvature witness",
        witness_planes={"u": (0, sparse_tvec("C", n, (0, 2))),
                        "v": (0, sparse_tvec("C", n, (1, 2)))},
    )


# Cap on the rank n of the ranked presets: it bounds the algebra a preset
# builds, and the invariant-form stack of random_invariant_norm with it.
MAX_PRESET_RANK = 6
# Cap on |numerator| and denominator of every preset parameter (k, l of
# aloff_wallach, c of a1a1_diagonal), so their float coordinates stay exact.
MAX_PRESET_PARAM = 10 ** 6
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
    if ranked and not isinstance(params[0], int):
        raise ValueError(f"preset {name} takes an integer n, got {params[0]}")
    if ranked and abs(params[0]) > MAX_PRESET_RANK:
        raise ValueError(f"preset {name} takes n <= {MAX_PRESET_RANK}, got {params[0]}")
    if any(max(abs(p.numerator), p.denominator) > MAX_PRESET_PARAM
           for p in map(Fraction, params)):
        raise ValueError(f"preset {name} takes numerators and denominators of at most "
                         f"{MAX_PRESET_PARAM}")
    return fn(*params)


def space_from_json(obj: dict) -> CosetSpace:
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
            factor = int(entry["factor"])
            if not 0 <= factor < len(spec.factors):
                raise ValueError(f"h_roots: no factor {factor}")
            r = root(*spec.factors[factor][:2], *map(QNum.from_json, entry["root"]))
            if r.canonical_sign() not in alg.factors[factor].plane_keys:
                raise ValueError(f"h_roots: {lattice_block(r, r.spec.weights)} "
                                 f"is not a root of factor {factor}")
            h_roots.append((factor, r))
        extra = [_generator_from_json(alg, gen) for gen in obj.get("extra_generators", [])]
        hvecs = obj.get("h_root_vectors")
        if hvecs is not None:
            hvecs = _negclose([tvec_from_json(spec, tv) for tv in hvecs])
        name = obj.get("name", "from file")
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
        params = [_frac(a) for a in args]
        params = [int(p) if p.denominator == 1 else p for p in params]
    else:
        name, params = body, []
    return preset(name.strip(), *params)

