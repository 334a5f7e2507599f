"""Mechanized classification of odd-dimensional positively curved
candidates.

Everything here is exact arithmetic over Q(sqrt2, sqrt3): case detection
(I/II/III), the two key lemmas, the angle lemma, bracket-membership
propagation with a derivation trace, the hardcoded case-III subcase tables
(validated against Weyl orbits at low rank by the test suite), the case-II
and case-I decision procedures, and the survivor-list verification with
rank bound.

A root-level space is the datum (spec, w, Delta_h, assignment): the
algebra g, one vector w spanning t cap m (the rank setting
rk G = rk H + 1), the isotropy roots and the plane assignment.  Every
projection to t cap h is the exact one along w.

A RootLevelSpace may carry *partial* knowledge of the isotropy root system
Delta_h (a verified lower bound); every rule used on such spaces is sound
against any enlargement of Delta_h that an actual subalgebra could provide:
memberships are only *added* by the first key lemma, planes are only forced
into m by bracket images or by crystallographic-integrality contradictions
against known h-roots.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from .rootsys import (
    Q0,
    QNum,
    RootVector,
    angle as root_angle,
    build_root_system,
    lex_sorted,
    rv,
    solve_exact,
)
from .torus import (
    AlgebraSpec,
    TVec,
    lift_root,
    tvec_dot,
    tvec_from_parts,
    zero_tvec,
)

if TYPE_CHECKING:
    from .coset import CosetSpace


# ---------------------------------------------------------------------------
# Root-level spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RootData:
    """The roots of an AlgebraSpec lifted to t, with their plane keys."""

    g_roots: tuple         # factor by factor, each in root-system order
    factor_of: Mapping     # root -> factor index
    canonical: Mapping     # root -> canonical sign of its plane
    keys: tuple            # distinct plane keys in order of first appearance
    root_set: frozenset


@functools.lru_cache(maxsize=None)
def _factor_roots(family: str, rank: int) -> tuple:
    return build_root_system(family, rank, _relaxed=True).roots


@functools.lru_cache(maxsize=None)
def _factor_canonical(family: str, rank: int) -> tuple:
    """For each root in root order, the index of its plane's canonical sign."""
    roots = _factor_roots(family, rank)
    index = {r: i for i, r in enumerate(roots)}
    return tuple(index[r.canonical_sign()] for r in roots)


@functools.lru_cache(maxsize=128)
def _root_data(spec: AlgebraSpec) -> RootData:
    """Root data of spec, built once per spec and shared read-only.  A
    lifted root's first nonzero coordinate is its factor root's, so each
    root's plane key is the lift of the factor root's canonical sign."""
    g_roots = []
    factor_of = {}
    canonical = {}
    for idx, (fam, rank, _) in enumerate(spec.factors):
        lifted = [lift_root(spec, idx, r) for r in _factor_roots(fam, rank)]
        for tv, c in zip(lifted, _factor_canonical(fam, rank)):
            g_roots.append(tv)
            factor_of[tv] = idx
            canonical[tv] = lifted[c]
    keys = tuple(dict.fromkeys(canonical.values()))
    return RootData(tuple(g_roots), MappingProxyType(factor_of),
                    MappingProxyType(canonical), keys, frozenset(g_roots))


@dataclass
class RootLevelSpace:
    spec: AlgebraSpec
    root_data: RootData
    w: TVec                # spans t cap m
    h_roots: frozenset
    assignment: dict
    name: str = ""
    complete_h: bool = True  # False when h_roots is only a verified lower bound
    # pr_h values by vector, and the derived tables under string keys; they
    # depend on spec and w only, so copies share them
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        spec, w = self.spec, self.w
        scales = [s for (_, _, s), f in zip(spec.factors, w.factors) for _ in f.coords]
        scales += spec.abelian_scales
        # the support of w, each coordinate with its scale in the form:
        # w has a few nonzero coordinates, so pr_h works on those alone
        wd = [(i, x * s) for i, (x, s) in enumerate(zip(w.coords, scales))
              if not x.is_zero()]
        ww = sum((d * w.coords[i] for i, d in wd), Q0)
        if ww.is_zero():
            raise ValueError("t cap m needs a nonzero generator w")
        self._wc = tuple((i, d / ww) for i, d in wd)

    def _coef(self, v: TVec) -> QNum:
        """<w, v> / <w, w>, the exact tvec_dot over the support of w."""
        vc = v.coords
        out = Q0
        for i, d in self._wc:
            if not vc[i].is_zero():
                out = out + d * vc[i]
        return out

    @property
    def g_roots(self) -> tuple:
        return self.root_data.g_roots

    @property
    def factor_of(self) -> Mapping:
        return self.root_data.factor_of

    def pr_h(self, v: TVec) -> TVec:
        """Exact projection of v in t onto t cap h: v - (<w,v>/<w,w>) w."""
        out = self._cache.get(v)
        if out is None:
            c = self._coef(v)
            out = v
            if not c.is_zero():
                coords, wc = list(v.coords), self.w.coords
                for i, _ in self._wc:
                    coords[i] = coords[i] - c * wc[i]
                out = v.with_coords(coords)
            self._cache[v] = out
        return out

    def pr_roots(self) -> dict:
        """The table root -> pr_h(root), in root order."""
        table = self._cache.get("pr_roots")
        if table is None:
            table = self._cache["pr_roots"] = {r: self.pr_h(r) for r in self.g_roots}
        return table

    def pr_classes(self) -> dict:
        """The same table inverted: pr_h value -> its roots, in order of
        first appearance."""
        classes = self._cache.get("pr_classes")
        if classes is None:
            classes = self._cache["pr_classes"] = {}
            for r, pr in self.pr_roots().items():
                classes.setdefault(pr, []).append(r)
        return classes

    def in_t_h(self, v: TVec) -> bool:
        """Whether v in t lies in t cap h, i.e. is orthogonal to w."""
        return self._coef(v).is_zero()

    def plane_keys(self) -> tuple:
        return self.root_data.keys

    def copy_working(self) -> "RootLevelSpace":
        return replace(self, h_roots=frozenset(self.h_roots),
                       assignment=dict(self.assignment))


def make_root_level_space(spec: AlgebraSpec, w: TVec,
                          h_roots: Iterable[TVec] = (), name: str = "",
                          assignment: Optional[dict] = None,
                          complete_h: bool = True) -> RootLevelSpace:
    """Root-level space of spec with t cap m spanned by w."""
    rd = _root_data(spec)
    hset = set()
    for v in h_roots:
        hset.add(v)
        hset.add(-v)
    asg = dict.fromkeys(rd.keys)
    for k, v in (assignment or {}).items():
        asg[k.canonical_sign()] = v
    return RootLevelSpace(spec, rd, w, frozenset(hset), asg,
                          name=name, complete_h=complete_h)


def root_level_from_coset(space: CosetSpace) -> RootLevelSpace:
    """Exact root-level data of a matrix coset space; plane assignments are
    read off the matrix decomposition."""
    if len(space.t_m) != 1:
        raise ValueError("not an odd-dimensional positively curved candidate: "
                         "rank equality fails")
    spec = space.algebra.spec
    rls = make_root_level_space(spec, space.t_m[0], space.h_root_vectors,
                                name=space.name)
    rls.assignment.update(space.plane_assignment())
    return rls


# ---------------------------------------------------------------------------
# Case detection and the lemma checkers
# ---------------------------------------------------------------------------

def _projection_groups(space: RootLevelSpace) -> dict:
    """Roots grouped by their exact projection to t cap h, in order of
    first appearance; singletons are left out."""
    groups = space._cache.get("pr_groups")
    if groups is None:
        # singleton projections never participate in case pairs
        groups = space._cache["pr_groups"] = {
            pr: rs for pr, rs in space.pr_classes().items() if len(rs) > 1}
    return groups


def _case_pairs(space: RootLevelSpace):
    """Root pairs whose common projection to t cap h is an h-root, in the
    scan order of every case decision (projections in the exact
    lexicographic order, then root order).  A nonzero common projection
    keeps a pair independent."""
    groups = _projection_groups(space)
    for pr in lex_sorted(groups):
        roots = groups[pr]
        if not pr.is_zero() and pr in space.h_roots:
            yield from itertools.combinations(roots, 2)


def classify_case(space: RootLevelSpace) -> str:
    """'I', 'II' or 'III' (priority III > II > I)."""
    case = "I"
    for a, b in _case_pairs(space):
        if space.factor_of[a] == space.factor_of[b]:
            return "III"
        case = "II"
    return case


def _in_affine_span(space: RootLevelSpace, base: Sequence[TVec], target: TVec):
    """Exact coefficients expressing target in span(base), or None."""
    rows = list(zip(*(b.coords for b in base)))
    return solve_exact(rows, target.coords)


def _span_members(space: RootLevelSpace, g1: TVec, shift: Optional[TVec] = None) -> set:
    """Roots r with r - shift in span(g1, w).

    As ker pr_h = span(w), these are the roots whose projection lies on the
    line pr_h(shift) + R y with y = pr_h(g1).  Where y has a nonzero
    coordinate k, a point of that line is fixed by its k-th coordinate, so
    each value that coordinate takes over the root projections names one
    candidate point, looked up exactly in the projection table.
    """
    classes = space.pr_classes()
    y = space.pr_h(g1)
    s = space.pr_h(shift) if shift is not None else zero_tvec(space.spec)
    k = next((i for i, q in enumerate(y.coords) if not q.is_zero()), None)
    if k is None:
        points = [s]
    else:
        inv, sk = y.coords[k].inverse(), s.coords[k]
        points = [s + y.scale((v - sk) * inv) for v in {p.coords[k] for p in classes}]
    return {r for pt in points for r in classes.get(pt, ())}


def key_lemma_1_applies(space: RootLevelSpace, alpha: TVec) -> bool:
    """True iff alpha is a g-root lying in t cap h and is the only root of
    g in the affine line alpha + (t cap m); a positively curved space must
    then have alpha in Delta_h with its plane inside h."""
    if alpha not in space.root_data.root_set:
        raise ValueError("alpha is not a root of g")
    if not space.in_t_h(alpha):
        raise ValueError("alpha is not contained in t cap h")
    # the roots on alpha + R w are the roots r with pr_h(r) == alpha
    return alpha not in _projection_groups(space)


def key_lemma_2_details(space: RootLevelSpace, g1: TVec, g2: TVec) -> dict:
    """Evaluate conditions (1)-(4) of the commuting-pair exclusion lemma."""
    roots = space.root_data.root_set
    if g1 not in roots or g2 not in roots:
        raise ValueError("inputs must be roots of g")
    cond = {}
    cond[1] = g1 not in space.h_roots and g2 not in space.h_roots
    cond[2] = (g1 + g2) not in roots and (g1 - g2) not in roots
    cond[3] = _span_members(space, g1) <= {g1, -g1}
    mem4 = _span_members(space, g1, shift=g2) | _span_members(space, g1, shift=-g2)
    cond[4] = mem4 <= {g2, -g2}
    return cond


def key_lemma_2_check(space: RootLevelSpace, g1: TVec, g2: TVec) -> bool:
    """True iff the pair (g1, g2) satisfies all four exclusion conditions,
    certifying that the space admits no positively curved reversible
    invariant metric."""
    if g1 == g2 or g1 == -g2:
        raise ValueError("roots must be linearly independent")
    return all(key_lemma_2_details(space, g1, g2).values())


def angle_lemma_check(space: RootLevelSpace, alpha: TVec, beta: TVec) -> bool:
    """True (= excluded) iff the pair's angle is pi/3 or 2pi/3.

    Precondition: pr_h(alpha) = pr_h(beta) is a root of h.
    """
    pa, pb = space.pr_h(alpha), space.pr_h(beta)
    if pa != pb or pa not in space.h_roots:
        raise ValueError("hypothesis violated: projections differ or are not h-roots")
    fa, fb = space.factor_of[alpha], space.factor_of[beta]
    ang = root_angle(alpha.factors[fa], beta.factors[fb]) if fa == fb else None
    return ang in ("pi/3", "2pi/3")


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

class PropagationContradiction(Exception):
    def __init__(self, trace):
        super().__init__(trace[-1] if trace else "contradiction")
        self.trace = trace


def _is_integer(q: QNum) -> bool:
    return q.is_rational() and q.a.denominator == 1


def _crystallographic_ok(spec: AlgebraSpec, x: TVec, r: TVec) -> bool:
    """Necessary condition for x and r to cohabit a root system."""
    xr = tvec_dot(spec, x, r)
    if xr.is_zero():
        return True
    t1 = QNum.of(2) * xr / tvec_dot(spec, r, r)
    t2 = QNum.of(2) * xr / tvec_dot(spec, x, x)
    return _is_integer(t1) and _is_integer(t2)


def propagate_assignment(space: RootLevelSpace, rule_order: Optional[list] = None,
                         max_rounds: int = 60):
    """Fixpoint of the membership rules; returns (space', trace) or raises
    PropagationContradiction.

    Rules: (a) first-key-lemma forcing into Delta_h (with reduced-system
    check), (pin) unique-plane hat classes of h-roots lie in h, (b)/(c)
    bracket images of assigned planes, (e) crystallographic exclusion of
    projection values against known h-roots (planes of impossible values
    drop to m, as do planes whose root lies in t cap m), (f) hat classes of
    h-roots with all but one plane in m pin the last plane.
    """
    sp = space.copy_working()
    trace: list = []
    h_roots = set(sp.h_roots)
    asg = sp.assignment
    pr_of = sp.pr_roots()
    keys = sp.plane_keys()

    def set_plane(key, val, why):
        cur = asg.get(key)
        if cur is None:
            asg[key] = val
            trace.append(f"{why}: plane({_fmt(key)}) := {val}")
            return True
        if cur != val:
            # a 'split' plane is definitely not contained in h or in m
            trace.append(f"{why}: plane({_fmt(key)}) forced {val} but already {cur}")
            raise PropagationContradiction(trace)
        return False

    def add_h_root(v, why):
        if v in h_roots:
            return False
        for r in list(h_roots):
            for ratio in (QNum.of(2), QNum.of(Fraction(1, 2))):
                if r == v.scale(ratio):
                    trace.append(
                        f"{why}: {_fmt(v)} and {_fmt(r)} cannot both be h-roots "
                        "(reduced root system)")
                    raise PropagationContradiction(trace)
        h_roots.add(v)
        h_roots.add(-v)
        trace.append(f"{why}: {_fmt(v)} added to the h-root system")
        return True

    def hat_class(prv):
        return [r for r in keys if pr_of[r] == prv or pr_of[r] == -prv]

    def rule_a():
        changed = False
        for r in keys:
            if r in h_roots:
                continue
            if not sp.in_t_h(r):
                continue
            if key_lemma_1_applies(sp, r):
                changed |= add_h_root(r, f"first key lemma on {_fmt(r)}")
        return changed

    def rule_pin():
        changed = False
        for r in keys:
            if asg[r] is not None:
                continue
            p = pr_of[r]
            if p in h_roots and len(hat_class(p)) == 1:
                changed |= set_plane(r, "h", f"h-root {_fmt(p)} has a single plane")
        return changed

    def rule_e():
        changed = False
        ordered = lex_sorted(h_roots)
        for r in keys:
            if asg[r] is not None:
                continue
            p = pr_of[r]
            if p.is_zero():
                changed |= set_plane(r, "m", "projection to t cap h vanishes")
                continue
            if p in h_roots:
                continue
            for hr in ordered:
                if not _crystallographic_ok(sp.spec, p, hr):
                    changed |= set_plane(
                        r, "m",
                        f"projection {_fmt(p)} fails integrality against h-root {_fmt(hr)}")
                    break
        return changed

    def rule_bc():
        changed = False
        for a, b, tgt in _bracket_images(sp):
            changed |= set_plane(
                tgt, asg[a],
                f"bracket of plane({_fmt(a)})={asg[a]} with h-plane({_fmt(b)})")
        return changed

    def rule_f():
        changed = False
        for p in lex_sorted(h_roots):
            cls = hat_class(p)
            if not cls:
                continue
            unknown = [r for r in cls if asg[r] in (None, "split", "h")]
            if not unknown:
                trace.append(
                    f"h-root {_fmt(p)}: every plane of its hat class lies in m")
                raise PropagationContradiction(trace)
            if len(unknown) == 1 and len(cls) > 1:
                r = unknown[0]
                coeff = _in_affine_span(sp, [r], p)
                if coeff is None:
                    trace.append(
                        f"h-root {_fmt(p)}: only plane({_fmt(r)}) remains but "
                        f"{_fmt(p)} is not proportional to {_fmt(r)}")
                    raise PropagationContradiction(trace)
                changed |= set_plane(r, "h", f"last plane of h-root {_fmt(p)}")
        return changed

    rules = {"a": rule_a, "pin": rule_pin, "e": rule_e, "bc": rule_bc, "f": rule_f}
    order = rule_order or ["a", "pin", "e", "bc", "f"]
    for _ in range(max_rounds):
        changed = False
        for name in order:
            changed |= rules[name]()
        if not changed:
            break
    else:
        raise RuntimeError("propagation did not reach a fixpoint")
    out = replace(sp, h_roots=frozenset(h_roots), assignment=asg)
    return out, trace


def _fmt(tv: TVec) -> str:
    parts = []
    for f in tv.factors:
        if not f.is_zero():
            parts.append(repr(f))
    ab = [str(x) for x in tv.abelian if not x.is_zero()]
    if ab:
        parts.append("ab(" + ",".join(ab) + ")")
    return "+".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Verdicts and witnesses
# ---------------------------------------------------------------------------

@dataclass
class Witness:
    kind: str  # key_lemma_1 | key_lemma_2 | angle | propagation | root_combinatorial
    payload: dict

    def to_json(self):
        out = {"kind": self.kind}
        for k, v in self.payload.items():
            if isinstance(v, TVec):
                out[k] = _fmt(v)
            elif isinstance(v, (list, tuple)) and v and isinstance(v[0], str):
                out[k] = list(v)
            else:
                out[k] = v if not isinstance(v, (list, tuple)) else list(map(str, v))
        return out


@dataclass
class Verdict:
    outcome: str  # survivor | excluded | unresolved | covered
    name: Optional[str] = None          # canonical space name for survivors
    witness: Optional[Witness] = None
    detail: str = ""

    def to_json(self):
        out = {"outcome": self.outcome}
        if self.name:
            out["name"] = self.name
        if self.witness:
            out["witness"] = self.witness.to_json()
        if self.detail:
            out["detail"] = self.detail
        return out


def revalidate_witness(space: RootLevelSpace, witness: Witness) -> bool:
    """Replay an exclusion witness against its defining checker."""
    k = witness.kind
    p = witness.payload
    if k == "key_lemma_2":
        return key_lemma_2_check(space, p["gamma1"], p["gamma2"])
    if k == "key_lemma_1":
        gamma = p["gamma"]
        ok = key_lemma_1_applies(space, gamma)
        conflict = p.get("conflicts_with")
        if conflict is not None:
            ok = ok and conflict in space.h_roots
        return ok
    if k == "angle":
        return angle_lemma_check(space, p["alpha"], p["beta"])
    if k == "propagation":
        try:
            propagate_assignment(space)
        except PropagationContradiction:
            return True
        return False
    if k == "root_combinatorial":
        return _check_root_facts(space, p)
    raise ValueError(f"unknown witness kind {k!r}")


def _check_root_facts(space: RootLevelSpace, payload: dict) -> bool:
    roots = space.root_data.root_set
    spec = space.spec
    for fact in payload.get("facts", []):
        tag = fact[0]
        if tag == "is_root":
            if fact[1] not in roots:
                return False
        elif tag == "not_root":
            if fact[1] in roots:
                return False
        elif tag == "orthogonal":
            if not tvec_dot(spec, fact[1], fact[2]).is_zero():
                return False
        elif tag == "pr_h_equals":
            if space.pr_h(fact[1]) != fact[2]:
                return False
        elif tag == "h_root":
            if fact[1] not in space.h_roots:
                return False
        elif tag == "centralizer_subsystem":
            t_prime, expected_size = fact[1], fact[2]
            sub = [r for r in roots
                   if all(tvec_dot(spec, r, t).is_zero() for t in t_prime)]
            if len(sub) != expected_size:
                return False
        elif tag == "assignment_consistent":
            if not _assignment_consistent(space):
                return False
        else:
            raise ValueError(f"unknown root fact {tag!r}")
    return True


def _bracket_images(space: RootLevelSpace):
    """(a, b, target) for each plane a assigned to h or m, each other
    h-plane b, and the plane of the single root among a + b, a - b: the
    bracket puts target where a is.  Assignments are read as the scan goes,
    so a caller may assign targets on the way."""
    roots, canonical = space.root_data.root_set, space.root_data.canonical
    asg = space.assignment
    keys = space.plane_keys()
    for a in keys:
        if asg.get(a) not in ("h", "m"):
            continue
        for b in keys:
            if b == a or asg.get(b) != "h":
                continue
            targets = [t for t in (a + b, a - b) if t in roots]
            if len(targets) == 1:  # the two-root cone case carries no containment
                yield a, b, canonical[targets[0]]


def _assignment_consistent(space: RootLevelSpace) -> bool:
    """Bracket compatibility of a full plane assignment: the image of an
    h-plane and an m-plane under a single-root bracket must be an m-plane,
    of two h-planes an h-plane."""
    asg = space.assignment
    return all(asg.get(tgt) in (asg[a], None) for a, _, tgt in _bracket_images(space))

# ---------------------------------------------------------------------------
# Case III: canonical subcase tables
# ---------------------------------------------------------------------------

@dataclass
class Subcase:
    family: str
    rank: int
    label: str
    alpha: RootVector
    beta: RootVector
    kind: str           # survivor | covered | key_lemma_2 | propagation |
                        # angle | angle_reduced | reduction | g2_rotation
    payload: dict = field(default_factory=dict)

    def describe(self):
        return {
            "family": self.family,
            "rank": self.rank,
            "subcase": self.label,
            "alpha": repr(self.alpha),
            "beta": repr(self.beta),
            "kind": self.kind,
        }


def case3_space(family: str, rank: int, alpha: RootVector, beta: RootVector,
                name: str = "") -> RootLevelSpace:
    """Root-level space of a case-III subcase datum: t cap m is spanned by
    alpha - beta, and Delta_h is seeded with the common projection (a
    verified lower bound for any isotropy algebra realizing the datum)."""
    spec = AlgebraSpec(((family, rank, Fraction(1)),))
    la, lb = lift_root(spec, 0, alpha), lift_root(spec, 0, beta)
    sp = make_root_level_space(spec, la - lb, name=name, complete_h=False)
    ap = sp.pr_h(la)
    if ap != sp.pr_h(lb):
        raise AssertionError("subcase datum is inconsistent")
    return replace(sp, h_roots=frozenset({ap, -ap}))


def _e(n, *idx_coef) -> RootVector:
    co = [Q0] * n
    for i, c in idx_coef:
        co[i] = QNum.of(c)
    return RootVector(tuple(co))


def _sphere_name(n):
    return f"S^{2*n-1} = SO({2*n})/SO({2*n-1})"


def _subcases_A(n):
    out = []
    if n >= 2:
        out.append(Subcase("A", n, "A:angle-pi/3", _e(n + 1, (0, 1), (1, -1)),
                           _e(n + 1, (0, 1), (2, -1)), "angle"))
        out.append(Subcase("A", n, "A:angle-2pi/3", _e(n + 1, (0, 1), (1, -1)),
                           _e(n + 1, (1, 1), (2, -1)), "angle"))
    if n < 3:
        return out
    alpha = _e(n + 1, (0, 1), (3, -1))   # e1 - e4
    beta = _e(n + 1, (2, 1), (1, -1))    # e3 - e2
    if n == 3:
        out.append(Subcase("A", 3, "A:1", alpha, beta, "survivor",
                           {"name": _sphere_name(3)}))
    elif n == 4:
        out.append(Subcase("A", 4, "A:2", alpha, beta, "survivor",
                           {"name": "SU(5)/Sp(2)U(1) (Berger)"}))
    else:
        out.append(Subcase("A", n, "A:3", alpha, beta, "key_lemma_2",
                           {"gamma1": _e(n + 1, (0, 1), (4, -1)),
                            "gamma2": _e(n + 1, (1, 1), (5, -1))}))
    return out


def _subcases_B(n):
    out = []
    e = lambda *ic: _e(n, *ic)
    bspec = AlgebraSpec((("B", n, Fraction(1)),))
    out.append(Subcase("B", n, "B:1", e((0, 1), (1, 1)), e((1, 1)), "reduction",
                       {"preset": f"bn_excluded_subcase1({n})",
                        "normalized_m": "R e1 + g(e1) + sum_i g(e_i +- e1)",
                        "t_prime": [lift_root(bspec, 0, e((i, 1))) for i in range(2, n)],
                        "subsystem_size": 8}))
    out.append(Subcase("B", n, "B:2", e((0, 1), (1, 1)), e((1, 1), (0, -1)),
                       "covered", {"by": "B:1"}))
    if n == 4:
        out.append(Subcase("B", 4, "B:3", e((0, 1), (1, 1)),
                           e((2, -1), (3, -1)), "survivor",
                           {"name": "S^15 = Spin(9)/Spin(7)"}))
    if n > 4:
        out.append(Subcase("B", n, "B:4", e((0, 1), (1, 1)),
                           e((2, -1), (3, -1)), "key_lemma_2",
                           {"gamma1": e((0, 1), (4, 1)), "gamma2": e((0, 1), (4, -1))}))
    if n == 3:
        out.append(Subcase("B", 3, "B:5", e((0, 1), (1, 1)), e((2, -1)),
                           "survivor", {"name": "S^7 = Spin(7)/G2"}))
    if n > 3:
        out.append(Subcase("B", n, "B:6", e((0, 1), (1, 1)), e((2, -1)),
                           "key_lemma_2",
                           {"gamma1": e((0, 1), (3, 1)), "gamma2": e((0, 1), (3, -1))}))
    out.append(Subcase("B", n, "B:7", e((0, 1)), e((1, 1)), "propagation", {}))
    if n == 2:
        out.append(Subcase("B", 2, "B:8", e((0, 1), (1, 1)), e((0, -1)),
                           "survivor", {"name": "Sp(2)/SU(2) (Berger)"}))
    if n > 2:
        out.append(Subcase("B", n, "B:9", e((0, 1), (1, 1)), e((0, -1)),
                           "root_combinatorial", _b9_payload(n)))
    if n >= 3:
        out.append(Subcase("B", n, "B:angle-pi/3", e((0, 1), (1, 1)),
                           e((0, 1), (2, 1)), "angle"))
        out.append(Subcase("B", n, "B:angle-2pi/3", e((0, 1), (1, 1)),
                           e((0, -1), (2, 1)), "angle"))
    return out


def _b9_payload(n):
    spec = AlgebraSpec((("B", n, Fraction(1)),))
    g1 = lift_root(spec, 0, _e(n, (0, 1), (2, 1)))
    g2 = lift_root(spec, 0, _e(n, (0, 1), (2, -1)))
    e2 = lift_root(spec, 0, _e(n, (1, 1)))
    return {
        "note": "conditions (1)-(2) hold but the affine scan meets e2; "
                "the exclusion follows from the hat-plane orthogonality "
                "argument, certified numerically on the matrix preset",
        "gamma1": g1, "gamma2": g2,
        "facts": [
            ("is_root", g1), ("is_root", g2), ("orthogonal", g1, g2),
            ("not_root", g1 + g2), ("not_root", g1 - g2),
        ],
        "kl2_failed_conditions": [4],
        "extra_affine_root": e2,
    }


def _subcases_C(n):
    out = []
    e = lambda *ic: _e(n, *ic)
    out.append(Subcase("C", n, "C:1", e((0, 2)), e((0, 1), (1, 1)), "reduction",
                       {"preset": f"cn_excluded_subcase1({n})",
                        "t_prime": [lift_root(AlgebraSpec((("C", n, Fraction(1)),)), 0, e((i, 1)))
                                    for i in range(2, n)],
                        "subsystem_size": 8}))
    out.append(Subcase("C", n, "C:2", e((0, 2)), e((1, 2)), "covered", {"by": "C:1"}))
    out.append(Subcase("C", n, "C:3", e((0, 2)), e((1, -1), (2, -1)),
                       "key_lemma_2", {"gamma1": e((1, 2)), "gamma2": e((2, 2))}))
    out.append(Subcase("C", n, "C:4", e((0, 1), (1, 1)), e((0, 1), (1, -1)),
                       "propagation", {}))
    if n >= 4:
        out.append(Subcase("C", n, "C:5", e((0, 1), (1, 1)), e((2, -1), (3, -1)),
                           "key_lemma_2", {"gamma1": e((0, 2)), "gamma2": e((1, 2))}))
    out.append(Subcase("C", n, "C:6", e((0, 2)), e((0, -1), (1, -1)),
                       "key_lemma_2", {"gamma1": e((0, 1), (2, 1)), "gamma2": e((1, 2))}))
    out.append(Subcase("C", n, "C:angle-pi/3", e((0, 1), (1, 1)), e((0, 1), (2, -1)), "angle"))
    out.append(Subcase("C", n, "C:angle-2pi/3", e((0, 1), (1, 1)), e((0, -1), (2, 1)), "angle"))
    return out


def _subcases_D(n):
    out = []
    e = lambda *ic: _e(n, *ic)
    out.append(Subcase("D", n, "D:1", e((0, 1), (1, 1)), e((1, 1), (0, -1)),
                       "survivor", {"name": _sphere_name(n)}))
    if n == 4:
        out.append(Subcase("D", 4, "D:2", e((0, 1), (1, 1)), e((2, -1), (3, -1)),
                           "covered", {"by": "D:1", "via": "outer automorphism"}))
        out.append(Subcase("D", 4, "D:2b", e((0, 1), (1, 1)), e((2, 1), (3, -1)),
                           "covered", {"by": "D:1", "via": "outer automorphism"}))
    elif n > 4:
        out.append(Subcase("D", n, "D:2", e((0, 1), (1, 1)), e((2, -1), (3, -1)),
                           "key_lemma_2",
                           {"gamma1": e((0, 1), (4, 1)), "gamma2": e((0, 1), (4, -1))}))
    if n >= 3:
        out.append(Subcase("D", n, "D:angle-pi/3", e((0, 1), (1, 1)), e((0, 1), (2, 1)), "angle"))
        out.append(Subcase("D", n, "D:angle-2pi/3", e((0, 1), (1, 1)), e((0, -1), (2, 1)), "angle"))
    return out


def _subcases_E6():
    h = Fraction(1, 2)
    r3h = QNum(Fraction(0), Fraction(0), h)
    g1 = RootVector((QNum.of(-h), QNum.of(h), QNum.of(h), QNum.of(h), QNum.of(h), r3h))
    g2 = RootVector((QNum.of(-h), QNum.of(-h), QNum.of(-h), QNum.of(-h), QNum.of(-h), r3h))
    e = lambda *ic: _e(6, *ic)
    return [
        Subcase("E6", 6, "E6:1", e((0, 1), (1, 1)), e((1, 1), (0, -1)),
                "key_lemma_2", {"gamma1": g1, "gamma2": g2}),
        Subcase("E6", 6, "E6:2", e((0, 1), (1, 1)), e((2, -1), (3, -1)),
                "covered", {"by": "E6:1", "via": "outer automorphism"}),
        Subcase("E6", 6, "E6:angle-pi/3", e((0, 1), (1, 1)), e((0, 1), (2, 1)), "angle"),
        Subcase("E6", 6, "E6:angle-2pi/3", e((0, 1), (1, 1)), e((0, -1), (2, 1)), "angle"),
    ]


def _subcases_E7():
    h = Fraction(1, 2)
    r2h = QNum(Fraction(0), h)
    g1 = RootVector(tuple([QNum.of(-h)] + [QNum.of(h)] * 5 + [r2h]))
    g2 = RootVector(tuple([QNum.of(h)] + [QNum.of(-h)] * 3 + [QNum.of(h)] * 2 + [r2h]))
    e = lambda *ic: _e(7, *ic)
    return [
        Subcase("E7", 7, "E7:1", e((0, 1), (1, 1)), e((1, 1), (0, -1)),
                "key_lemma_2", {"gamma1": g1, "gamma2": g2}),
        Subcase("E7", 7, "E7:angle-pi/3", e((0, 1), (1, 1)), e((0, 1), (2, 1)), "angle"),
        Subcase("E7", 7, "E7:angle-2pi/3", e((0, 1), (1, 1)), e((0, -1), (2, 1)), "angle"),
    ]


def _subcases_E8():
    h = Fraction(1, 2)
    g1 = RootVector(tuple([QNum.of(h)] * 8))
    g2 = RootVector(tuple([QNum.of(-h)] * 4 + [QNum.of(h)] * 4))
    e = lambda *ic: _e(8, *ic)
    return [
        Subcase("E8", 8, "E8:1", e((0, 1), (1, 1)), e((1, 1), (0, -1)),
                "key_lemma_2", {"gamma1": g1, "gamma2": g2}),
        Subcase("E8", 8, "E8:2", e((0, 1), (1, 1)), e((2, -1), (3, -1)),
                "key_lemma_2", {"gamma1": e((0, 1), (4, 1)), "gamma2": e((1, 1), (5, 1))}),
        Subcase("E8", 8, "E8:angle-pi/3", e((0, 1), (1, 1)), e((0, 1), (2, 1)), "angle"),
        Subcase("E8", 8, "E8:angle-2pi/3", e((0, 1), (1, 1)), e((0, -1), (2, 1)), "angle"),
    ]


def _subcases_F4():
    e = lambda *ic: _e(4, *ic)
    h = Fraction(1, 2)
    half = RootVector(tuple([QNum.of(h)] * 4))
    half_m = RootVector(tuple([QNum.of(-h)] + [QNum.of(h)] * 3))
    spec = AlgebraSpec((("F4", 4, Fraction(1)),))
    return [
        Subcase("F4", 4, "F4:1", e((0, 1), (1, 1)), e((1, 1)), "reduction",
                {"preset": "bn_excluded_subcase1(2)",
                 "t_prime": [lift_root(spec, 0, e((2, 1))), lift_root(spec, 0, e((3, 1)))],
                 "subsystem_size": 8}),
        Subcase("F4", 4, "F4:2", e((0, 1), (1, 1)), e((1, 1), (0, -1)),
                "covered", {"by": "F4:1"}),
        Subcase("F4", 4, "F4:3", e((0, 1), (1, 1)), e((2, -1)), "propagation", {}),
        Subcase("F4", 4, "F4:4", e((0, 1)), e((1, -1)), "propagation", {}),
        Subcase("F4", 4, "F4:5", e((0, 1), (1, 1)), e((1, -1)), "propagation", {}),
        Subcase("F4", 4, "F4:angle-ll-pi/3", e((0, 1), (1, 1)), e((0, 1), (2, 1)), "angle"),
        Subcase("F4", 4, "F4:angle-ll-2pi/3", e((0, 1), (1, 1)), e((0, -1), (2, 1)), "angle"),
        Subcase("F4", 4, "F4:angle-ss-pi/3", e((0, 1)), half, "angle"),
        Subcase("F4", 4, "F4:angle-ss-2pi/3", e((0, 1)), half_m, "angle"),
    ]


def _g2_root(a, b3):
    # (a*sqrt3/2, b/2) grid for the G2 roots
    return RootVector((QNum(Fraction(0), Fraction(0), Fraction(a, 2)),
                       QNum(Fraction(b3, 2))))


def _subcases_G2():
    long_a = _g2_root(2, 0)        # (sqrt3, 0)
    long_b = _g2_root(1, 3)        # (sqrt3/2, 3/2)
    long_c = _g2_root(-1, 3)       # (-sqrt3/2, 3/2)
    short_a = _g2_root(0, 2)       # (0, 1)
    short_b = _g2_root(1, 1)       # (sqrt3/2, 1/2)
    short_c = _g2_root(-1, 1)      # (-sqrt3/2, 1/2)
    beta_rot = _g2_root(-1, 1)     # the 5pi/6 partner of long_a
    spec = AlgebraSpec((("G2", 2, Fraction(1)),))
    g1 = lift_root(spec, 0, long_a + beta_rot.scale(3))   # alpha + 3 beta
    g2 = lift_root(spec, 0, long_a + beta_rot)            # alpha + beta
    rows = [
        Subcase("G2", 2, "G2:angle-ll-pi/3", long_a, long_b, "angle"),
        Subcase("G2", 2, "G2:angle-ll-2pi/3", long_a, long_c, "angle"),
        Subcase("G2", 2, "G2:angle-ss-pi/3", short_a, short_b, "angle"),
        Subcase("G2", 2, "G2:angle-ss-2pi/3", short_b, short_c, "angle"),
        Subcase("G2", 2, "G2:ls-pi/2", long_a, short_a, "angle_reduced",
                {"alpha1": short_b, "beta1": short_a}),
        Subcase("G2", 2, "G2:ls-pi/6", long_a, short_b, "angle_reduced",
                {"alpha1": short_b, "beta1": short_a}),
        Subcase("G2", 2, "G2:ls-5pi/6", long_a, beta_rot, "g2_rotation",
                {"gamma1": g1, "gamma2": g2}),
    ]
    return rows


def case3_subcases(family: str, rank: int) -> list:
    fam = family.upper()
    if fam == "A":
        return _subcases_A(rank)
    if fam == "B":
        return _subcases_B(rank)
    if fam == "C":
        return _subcases_C(rank)
    if fam == "D":
        return _subcases_D(rank)
    if fam in ("E", "E6", "E7", "E8"):
        fam = f"E{rank}" if fam == "E" else fam
        return {"E6": _subcases_E6, "E7": _subcases_E7, "E8": _subcases_E8}[fam]()
    if fam == "F4":
        return _subcases_F4()
    if fam == "G2":
        return _subcases_G2()
    raise ValueError(f"unknown family {family!r}")


def evaluate_subcase(sc: Subcase) -> Verdict:
    """Run the checks attached to one canonical subcase and emit a verdict."""
    if sc.kind == "covered":
        return Verdict("covered", detail=f"covered by subcase {sc.payload['by']}")
    space = case3_space(sc.family, sc.rank, sc.alpha, sc.beta,
                        name=f"{sc.family}{sc.rank} subcase {sc.label}")
    la = lift_root(space.spec, 0, sc.alpha)
    lb = lift_root(space.spec, 0, sc.beta)
    if sc.kind == "survivor":
        if classify_case(space) != "III":
            raise AssertionError(f"{sc.label}: expected a case-III datum")
        return Verdict("survivor", name=sc.payload["name"])
    if sc.kind == "angle":
        if not angle_lemma_check(space, la, lb):
            raise AssertionError(f"{sc.label}: angle lemma does not apply")
        return Verdict("excluded",
                       witness=Witness("angle", {"alpha": la, "beta": lb}))
    if sc.kind == "angle_reduced":
        a1 = lift_root(space.spec, 0, sc.payload["alpha1"])
        b1 = lift_root(space.spec, 0, sc.payload["beta1"])
        if not angle_lemma_check(space, a1, b1):
            raise AssertionError(f"{sc.label}: reduced angle pair fails")
        return Verdict("excluded",
                       witness=Witness("angle", {"alpha": a1, "beta": b1}),
                       detail="short pair replacing the original one")
    if sc.kind == "key_lemma_2":
        g1 = lift_root(space.spec, 0, sc.payload["gamma1"])
        g2 = lift_root(space.spec, 0, sc.payload["gamma2"])
        if not key_lemma_2_check(space, g1, g2):
            raise AssertionError(f"{sc.label}: cited pair fails the key lemma")
        return Verdict("excluded",
                       witness=Witness("key_lemma_2", {"gamma1": g1, "gamma2": g2}))
    if sc.kind == "propagation":
        try:
            propagate_assignment(space)
        except PropagationContradiction as exc:
            return Verdict("excluded",
                           witness=Witness("propagation", {"trace": exc.trace}))
        raise AssertionError(f"{sc.label}: propagation found no contradiction")
    if sc.kind == "reduction":
        payload = dict(sc.payload)
        facts = [("assignment_consistent",)]
        if "t_prime" in payload:
            facts.append(("centralizer_subsystem", payload["t_prime"],
                          payload["subsystem_size"]))
        payload["facts"] = facts
        if not _check_root_facts(space, payload):
            raise AssertionError(f"{sc.label}: reduction facts fail")
        return Verdict("excluded", witness=Witness("root_combinatorial", payload),
                       detail="reduces to the rank-two witness space; "
                              "certified numerically on the matrix preset")
    if sc.kind == "root_combinatorial":
        if not _check_root_facts(space, sc.payload):
            raise AssertionError(f"{sc.label}: recorded facts fail")
        det = key_lemma_2_details(space, sc.payload["gamma1"], sc.payload["gamma2"])
        failed = [k for k, v in det.items() if not v]
        if failed != sc.payload.get("kl2_failed_conditions", failed):
            raise AssertionError(f"{sc.label}: failed-condition record mismatch")
        return Verdict("excluded",
                       witness=Witness("root_combinatorial", sc.payload))
    if sc.kind == "g2_rotation":
        g1, g2 = sc.payload["gamma1"], sc.payload["gamma2"]
        roots = space.root_data.root_set
        ap = space.pr_h(la)
        ok = (g1 in roots and g2 in roots
              and tvec_dot(space.spec, g1, g2).is_zero()
              and (g1 + g2) not in roots and (g1 - g2) not in roots)
        # the hat-class ladder alpha', 2a', ..., 5a' behind the rotation trick
        for k in range(1, 6):
            lvl = [r for r in roots if space.pr_h(r) == ap.scale(k)]
            ok = ok and len(lvl) >= 1
        if not ok:
            raise AssertionError("G2 rotation premises fail")
        payload = dict(sc.payload)
        payload["facts"] = [("is_root", g1), ("is_root", g2),
                            ("orthogonal", g1, g2),
                            ("not_root", g1 + g2), ("not_root", g1 - g2)]
        return Verdict("excluded", witness=Witness("root_combinatorial", payload),
                       detail="orthogonal commuting pair feeding the rotation argument")
    raise ValueError(f"unknown subcase kind {sc.kind!r}")


def enumerate_case3(family: str, rank: int) -> list:
    """All canonical case-III subcases of the family at this rank, with
    verdicts."""
    out = []
    for sc in case3_subcases(family, rank):
        out.append((sc, evaluate_subcase(sc)))
    return out

# ---------------------------------------------------------------------------
# Case II
# ---------------------------------------------------------------------------

S3_NAME = "S^3 = SO(4)/SO(3)"
WILKING_NAME = "Wilking SU(3)xSO(3)/U(2)"


def _spsp_name(n):
    return f"S^{4*n-1} = Sp({n})Sp(1)/Sp({n-1})Sp(1)"


def _spu1_name(n):
    return f"S^{4*n-1} = Sp({n})U(1)/Sp({n-1})U(1)"


def _un_name(n):
    return f"S^{2*n-1} = U({n})/U({n-1})"


def case2_space(g2_family: str, g2_rank: int, beta: RootVector,
                name: str = "") -> RootLevelSpace:
    """Case-II candidate: g = A1 + g2 with the diagonal h-root pairing the
    A1-root with beta; Delta_h holds the g2-roots orthogonal to beta plus
    the common projection."""
    spec = AlgebraSpec((("A", 1, Fraction(1)), (g2_family, g2_rank, Fraction(1))))
    alpha = lift_root(spec, 0, rv(1, -1))
    lb = lift_root(spec, 1, beta)
    sp = make_root_level_space(spec, alpha - lb, name=name, complete_h=False)
    hset = {sp.pr_h(alpha), -sp.pr_h(alpha)}
    for r in sp.g_roots:
        if sp.factor_of[r] == 1 and tvec_dot(spec, r, lb).is_zero():
            hset.add(r)
    if sp.pr_h(alpha) != sp.pr_h(lb):
        raise AssertionError("case-II datum inconsistent")
    return replace(sp, h_roots=frozenset(hset))


def classify_case2(space: RootLevelSpace) -> Verdict:
    """Decision procedure for case-II data: search the second factor for a
    commuting non-isotropy pair, otherwise match the rank-equal pair table
    {(A1, A1), (A2, A1+R), (C_n, A1+C_{n-1})}."""
    if classify_case(space) != "II":
        raise ValueError("not a case-II space")
    # locate the cross-factor projection pair
    alpha, beta = next((a, b) for a, b in _case_pairs(space)
                       if space.factor_of[a] != space.factor_of[b])
    fa, fb = space.factor_of[alpha], space.factor_of[beta]
    # the factor contributing only +-alpha is the A1 side
    roots_a = [r for r in space.g_roots if space.factor_of[r] == fa]
    roots_b = [r for r in space.g_roots if space.factor_of[r] == fb]
    if len(roots_a) != 2 and len(roots_b) == 2:
        alpha, beta = beta, alpha
        fa, fb = fb, fa
        roots_a, roots_b = roots_b, roots_a
    if len(roots_a) != 2:
        raise ValueError("case-II datum without an A1 factor")
    # Wallach-pair search in the second factor
    cand = [r for r in roots_b if r != beta and r != -beta
            and r not in space.h_roots]
    rootset = space.root_data.root_set
    for g1, g2 in itertools.combinations(lex_sorted(cand), 2):
        if g1 == -g2:
            continue
        if (g1 + g2) in rootset or (g1 - g2) in rootset:
            continue
        if not key_lemma_2_check(space, g1, g2):
            raise AssertionError("case-II pair search produced a non-certifying pair")
        return Verdict("excluded",
                       witness=Witness("key_lemma_2", {"gamma1": g1, "gamma2": g2}))
    fam, rank, _ = space.spec.factors[fb]
    beta_rv = beta.factors[fb]
    beta_len2 = beta_rv.dot(beta_rv)
    if fam == "A" and rank == 1:
        return Verdict("survivor", name=S3_NAME)
    if fam == "A" and rank == 2:
        return Verdict("survivor", name=WILKING_NAME)
    if fam == "C" and beta_len2 == QNum.of(4):
        return Verdict("survivor", name=_spsp_name(rank))
    if fam == "B" and rank == 2 and beta_len2 == QNum.of(2):
        return Verdict("survivor", name=_spsp_name(2))  # so(5) = sp(2), long beta
    return Verdict("excluded",
                   witness=Witness("root_combinatorial",
                                   {"facts": [],
                                    "note": "rank-equal pair outside the known table"}),
                   detail="no commuting pair found but the pair table has no entry")


# ---------------------------------------------------------------------------
# Case I
# ---------------------------------------------------------------------------

def _kl2_pair_search(space: RootLevelSpace, candidates: list):
    rootset = space.root_data.root_set
    for g1, g2 in itertools.combinations(lex_sorted(candidates), 2):
        if g1 == -g2:
            continue
        if g1 in space.h_roots or g2 in space.h_roots:
            continue
        if (g1 + g2) in rootset or (g1 - g2) in rootset:
            continue
        if key_lemma_2_check(space, g1, g2):
            return g1, g2
    return None


def classify_case1(space: RootLevelSpace) -> Verdict:
    """Decision procedure for case-I data, splitting on the decomposition
    of the generator of t cap m over the abelian and simple factors."""
    if classify_case(space) != "I":
        raise ValueError("not a case-I space")
    spec = space.spec
    w = space.w
    w0_nonzero = any(not x.is_zero() for x in w.abelian)
    active = [i for i in range(len(spec.factors))
              if not w.factors[i].is_zero()]
    # inactive simple factors must sit inside h entirely
    for i in range(len(spec.factors)):
        if i in active:
            continue
        for r in space.g_roots:
            if space.factor_of[r] == i and r not in space.h_roots:
                return Verdict(
                    "excluded",
                    witness=Witness("key_lemma_1",
                                    {"gamma": r,
                                     "detail": "root of a torus-fixed factor missing from h"}),
                    detail="first key lemma forces the whole factor into h")
    # a root inside t cap h that is alone on its affine line must be an
    # h-root; a candidate isotropy missing it is excluded outright
    for r in space.g_roots:
        if r in space.h_roots:
            continue
        if space.pr_h(r) == r and key_lemma_1_applies(space, r):
            return Verdict(
                "excluded",
                witness=Witness("key_lemma_1",
                                {"gamma": r,
                                 "detail": "forced h-root missing from the "
                                           "candidate isotropy"}),
                detail="first key lemma contradiction")
    nonh = {i: [r for r in space.g_roots
                if space.factor_of[r] == i and r not in space.h_roots]
            for i in active}

    if w0_nonzero:
        if not active:
            raise ValueError("degenerate candidate: m = t cap m is one-dimensional")
        if len(active) >= 2:
            pair = _kl2_pair_search(space, nonh[active[0]] + nonh[active[1]])
            if pair:
                return Verdict("excluded", witness=Witness(
                    "key_lemma_2", {"gamma1": pair[0], "gamma2": pair[1]}))
        if len(active) == 1:
            verdict = _case1_table_match(space, active[0])
            if verdict is not None:
                return verdict
        pair = _kl2_pair_search(
            space, [r for i in active for r in nonh[i]])
        if pair:
            return Verdict("excluded", witness=Witness(
                "key_lemma_2", {"gamma1": pair[0], "gamma2": pair[1]}))
        return Verdict("unresolved",
                       detail="abelian component present but no table entry "
                              "and no certifying pair found")

    # no abelian component
    if len(active) == 1:
        return Verdict("unresolved",
                       detail="compact simple transitive group: outside the "
                              "scope of the exclusion machinery")
    # roots not proportional to their factor's torus component
    cand = []
    for i in active:
        wi = lift_root(spec, i, w.factors[i])
        for r in nonh[i]:
            if _in_affine_span(space, [wi], r) is None:
                cand.append(r)
    pair = _kl2_pair_search(space, cand)
    if pair:
        return Verdict("excluded", witness=Witness(
            "key_lemma_2", {"gamma1": pair[0], "gamma2": pair[1]}))
    # one factor must now be A1 with roots along its torus component
    a1 = None
    for i in active:
        ri = [r for r in space.g_roots if space.factor_of[r] == i]
        wi = lift_root(spec, i, w.factors[i])
        if len(ri) == 2 and _in_affine_span(space, [wi], ri[0]) is not None:
            a1 = i
            break
    if a1 is None:
        return Verdict("unresolved",
                       detail="no certifying pair and no A1 factor aligned "
                              "with the torus component")
    others = [i for i in active if i != a1]
    alpha = next(r for r in space.g_roots if space.factor_of[r] == a1)
    kind = "three_or_more_factors" if len(active) > 2 else "two_factors"
    j = others[0]
    wj = lift_root(spec, j, w.factors[j])
    beta_in_line = None
    for r in space.g_roots:
        if space.factor_of[r] == j and _in_affine_span(space, [wj], r) is not None:
            beta_in_line = r
            break
    if len(active) == 2 and beta_in_line is not None:
        payload = {
            "facts": [("is_root", alpha), ("is_root", beta_in_line)],
            "construction": "a1a1_diagonal",
            "alpha": alpha, "beta": beta_in_line,
            "numeric_preset": "a1a1_diagonal",
        }
        return Verdict("excluded",
                       witness=Witness("root_combinatorial", payload),
                       detail="two-factor torus with a root along each "
                              "component; zero-curvature pair certified on "
                              "the matrix preset")
    beta = None
    for r in space.g_roots:
        if space.factor_of[r] == j and r not in space.h_roots \
                and not tvec_dot(spec, r, wj).is_zero():
            beta = r
            break
    payload = {
        "facts": [("is_root", alpha)] + ([("is_root", beta)] if beta else []),
        "construction": kind,
        "alpha": alpha, "beta": beta,
    }
    return Verdict("excluded", witness=Witness("root_combinatorial", payload),
                   detail="torus component spread over several factors; "
                          "the commuting pair argument applies")


def _case1_table_match(space: RootLevelSpace, i: int) -> Optional[Verdict]:
    """Match (g_i, h cap g_i) against the rank-equal pair table for the
    abelian-component case: (A_k, A_{k-1}+R), (C_k, C_{k-1}+R),
    (A_2, R+R) and the so(5) = sp(2) coincidence."""
    spec = space.spec
    fam, rank, _ = spec.factors[i]
    wi = lift_root(spec, i, space.w.factors[i])
    froots = [r for r in space.g_roots if space.factor_of[r] == i]
    orth = [r for r in froots if tvec_dot(spec, r, wi).is_zero()]
    h2 = [r for r in froots if r in space.h_roots]
    if set(h2) != set(orth):
        return None
    if fam == "A":
        if len(h2) == rank * (rank - 1):
            return Verdict("survivor", name=_un_name(rank + 1))
        if rank == 2 and not h2:
            for r in froots:
                if space.in_t_h(r):
                    return Verdict(
                        "excluded",
                        witness=Witness("key_lemma_1",
                                        {"gamma": r,
                                         "detail": "root inside t cap h but "
                                                   "the isotropy is a torus"}),
                        detail="degenerate torus parameters")
            return Verdict("survivor", name="Aloff-Wallach U(3)/T^2")
    if fam == "C" and len(h2) == 2 * (rank - 1) ** 2:
        return Verdict("survivor", name=_spu1_name(rank))
    if fam == "B" and rank == 2 and len(h2) == 2:
        length2 = h2[0].factors[i].dot(h2[0].factors[i])
        if length2 == QNum.of(2):  # the long-root pair: so(5) = sp(2)
            return Verdict("survivor", name=_spu1_name(2))
    return None


# ---------------------------------------------------------------------------
# Theorem verification
# ---------------------------------------------------------------------------

def _case3_rank_range(max_rank):
    out = [("A", r) for r in range(1, max_rank + 1)]
    out += [("B", r) for r in range(2, max_rank + 1)]
    out += [("C", r) for r in range(3, max_rank + 1)]
    out += [("D", r) for r in range(4, max_rank + 1)]
    for fam, r in (("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)):
        if r <= max_rank:
            out.append((fam, r))
    return out


def verify_theorem(part: int, max_rank: int = 8) -> dict:
    """Reproduce one of the three survivor lists up to the rank bound and
    diff against the expected set."""
    if part == 1:
        survivors = set()
        rows = []
        for fam, rank in _case3_rank_range(max_rank):
            for sc, verdict in enumerate_case3(fam, rank):
                rows.append((sc.describe(), verdict.to_json()))
                if verdict.outcome == "survivor":
                    survivors.add(verdict.name)
        # the expected list is the classification's survivor set restricted
        # to the scanned ranks (each sporadic name needs its family/rank)
        expected = {_sphere_name(n) for n in range(3, max_rank + 1)}
        if max_rank >= 2:
            expected.add("Sp(2)/SU(2) (Berger)")
        if max_rank >= 3:
            expected.add("S^7 = Spin(7)/G2")
        if max_rank >= 4:
            expected.add("S^15 = Spin(9)/Spin(7)")
            expected.add("SU(5)/Sp(2)U(1) (Berger)")
        unresolved = []
    elif part == 2:
        survivors = set()
        rows = []
        reps = {
            "A": [("any", lambda n: _e(n + 1, (0, 1), (1, -1)))],
            "B": [("short", lambda n: _e(n, (0, 1))),
                  ("long", lambda n: _e(n, (0, 1), (1, 1)))],
            "C": [("long", lambda n: _e(n, (0, 2))),
                  ("short", lambda n: _e(n, (0, 1), (1, 1)))],
            "D": [("any", lambda n: _e(n, (0, 1), (1, 1)))],
            "E6": [("any", lambda n: _e(6, (0, 1), (1, 1)))],
            "E7": [("any", lambda n: _e(7, (0, 1), (1, 1)))],
            "E8": [("any", lambda n: _e(8, (0, 1), (1, 1)))],
            "F4": [("long", lambda n: _e(4, (0, 1), (1, 1))),
                   ("short", lambda n: _e(4, (0, 1)))],
            "G2": [("long", lambda n: _g2_root(2, 0)),
                   ("short", lambda n: _g2_root(0, 2))],
        }
        for fam, rank in _case3_rank_range(max_rank):
            for tag, mk in reps[fam]:
                space = case2_space(fam, rank, mk(rank),
                                    name=f"A1+{fam}{rank} (beta {tag})")
                verdict = classify_case2(space)
                rows.append(({"g2": f"{fam}{rank}", "beta": tag}, verdict.to_json()))
                if verdict.outcome == "survivor":
                    survivors.add(verdict.name)
        expected = {S3_NAME}
        if max_rank >= 2:
            expected.add(WILKING_NAME)
            expected.add(_spsp_name(2))  # via the rank-two orthogonal algebra
        expected |= {_spsp_name(n) for n in range(3, max_rank + 1)}
        unresolved = []
    elif part == 3:
        survivors = set()
        unresolved = []
        rows = []
        for space in case1_candidates(max_rank):
            verdict = classify_case1(space)
            rows.append(({"space": space.name}, verdict.to_json()))
            if verdict.outcome == "survivor":
                survivors.add(verdict.name)
            elif verdict.outcome == "unresolved":
                unresolved.append(space.name)
        expected = {_un_name(n) for n in range(2, max_rank + 2)}
        expected |= {_spu1_name(n) for n in range(3, max_rank + 1)}
        if max_rank >= 2:
            expected.add(_spu1_name(2))  # via the rank-two orthogonal algebra
            expected.add("Aloff-Wallach U(3)/T^2")
    else:
        raise ValueError("part must be 1, 2 or 3")
    missing = sorted(expected - survivors)
    extra = sorted(survivors - expected)
    report = {
        "part": part,
        "max_rank": max_rank,
        "survivors": sorted(survivors),
        "expected": sorted(expected),
        "missing": missing,
        "extra": extra,
        "unresolved": sorted(set(unresolved)),
        "rows": rows,
        # a scan that evaluated no row confirms nothing; part 3 must leave
        # its simple transitive exemplars (rank 2 and up) unresolved
        "match": bool(rows) and not missing and not extra
                 and (part != 3 or max_rank < 2 or bool(unresolved)),
    }
    return report


def _case1_block_space(fam, rank, label, w1: RootVector, abelian: bool,
                       h2_roots: list) -> RootLevelSpace:
    spec = AlgebraSpec(((fam, rank, Fraction(1)),),
                       abelian_dim=1 if abelian else 0)
    w = tvec_from_parts(spec, {0: list(w1.coords)}, abelian=[1] if abelian else [])
    return make_root_level_space(spec, w, [lift_root(spec, 0, r) for r in h2_roots],
                                 name=label)


def case1_candidates(max_rank: int = 8) -> list:
    """Finite case-I candidate pool: one torus direction per classical
    family and rank (the direction whose orthogonal subsystem is maximal),
    the special A2 directions, the exceptional families at one direction,
    plus multi-factor and simple-transitive exemplars; every simple factor
    has rank at most max_rank."""
    out = []

    def orth_roots(fam, rank, w1):
        return [r for r in _factor_roots(fam, rank) if r.dot(w1).is_zero()]

    for rank in range(1, max_rank + 1):
        w1 = _e(rank + 1, *([(0, rank)] + [(j, -1) for j in range(1, rank + 1)]))
        out.append(_case1_block_space(
            "A", rank, f"U({rank+1})/U({rank}) candidate", w1, True,
            orth_roots("A", rank, w1)))
    for rank in range(3, max_rank + 1):
        w1 = _e(rank, (0, 1))
        out.append(_case1_block_space(
            "C", rank, f"Sp({rank})U(1)/Sp({rank-1})U(1) candidate", w1, True,
            orth_roots("C", rank, w1)))
    # so(5) = sp(2) presentation of the rank-two quaternionic sphere
    w1 = _e(2, (0, 1), (1, 1))
    out.append(_case1_block_space(
        "B", 2, "Sp(2)U(1)/Sp(1)U(1) candidate (so(5) picture)", w1, True,
        orth_roots("B", 2, w1)))
    # Aloff-Wallach directions, generic and degenerate
    out.append(_case1_block_space(
        "A", 2, "Aloff-Wallach U(3)/T^2 candidate", _e(3, (0, 1), (1, 2), (2, -3)),
        True, []))
    out.append(_case1_block_space(
        "A", 2, "U(3)/T^2 with degenerate parameters", _e(3, (0, 1), (1, 1), (2, -2)),
        True, []))
    # non-table single blocks: excluded
    ambient = {"B": lambda r: r, "D": lambda r: r, "F4": lambda r: 4,
               "G2": lambda r: 2, "E6": lambda r: 6, "E7": lambda r: 7}
    for fam, rank in [("B", 3), ("B", 4), ("D", 4), ("F4", 4), ("G2", 2),
                      ("E6", 6), ("E7", 7)]:
        w1 = _g2_root(0, 2) if fam == "G2" else _e(ambient[fam](rank), (0, 1))
        out.append(_case1_block_space(
            fam, rank, f"U(1)x{fam}{rank} non-table candidate", w1, True,
            orth_roots(fam, rank, w1)))
    # simple transitive groups: unresolved
    for rank in range(2, 5):
        w1 = _e(rank + 1, *([(0, rank)] + [(j, -1) for j in range(1, rank + 1)]))
        out.append(_case1_block_space(
            "A", rank, f"SU({rank+1})/SU({rank})", w1, False,
            orth_roots("A", rank, w1)))
    for rank in range(3, 5):
        w1 = _e(rank, (0, 1))
        out.append(_case1_block_space(
            "C", rank, f"Sp({rank})/Sp({rank-1})", w1, False,
            orth_roots("C", rank, w1)))
    out.append(_case1_block_space(
        "A", 2, "SU(3)-homogeneous Aloff-Wallach", _e(3, (0, 1), (1, 2), (2, -3)),
        False, []))
    # multi-factor exemplars
    out.append(_two_factor_space("two A1 factors", ("A", 1), ("A", 1),
                                 rv(1, -1), rv(1, -1)))
    out.append(_two_factor_space("A1 x A2 with generic slope", ("A", 1), ("A", 2),
                                 rv(1, -1), rv(1, 2, -3)))
    out.append(_two_factor_space("A1 x C3 along the long root", ("A", 1), ("C", 3),
                                 rv(1, -1), rv(2, 0, 0)))
    out.append(_three_factor_space())
    return [sp for sp in out if all(r <= max_rank for _, r, _ in sp.spec.factors)]


def _two_factor_space(label, f1, f2, w1: RootVector, w2: RootVector) -> RootLevelSpace:
    spec = AlgebraSpec(((f1[0], f1[1], Fraction(1)), (f2[0], f2[1], Fraction(1))))
    w = tvec_from_parts(spec, {0: list(w1.coords), 1: list(w2.coords)})
    sp = make_root_level_space(spec, w, name=label)
    hset = set()
    for r in sp.g_roots:
        idx = sp.factor_of[r]
        wf = lift_root(spec, idx, w.factors[idx])
        if tvec_dot(spec, r, wf).is_zero():
            hset.add(r)
    return replace(sp, h_roots=frozenset(hset))


def _three_factor_space() -> RootLevelSpace:
    spec = AlgebraSpec((("A", 1, Fraction(1)),) * 3)
    w = tvec_from_parts(spec, {0: [1, -1], 1: [1, -1], 2: [1, -1]})
    return make_root_level_space(spec, w, name="three A1 factors")

# ---------------------------------------------------------------------------
# Full classification of a concrete space
# ---------------------------------------------------------------------------

def _pair_signature(space: RootLevelSpace, alpha: TVec, beta: TVec):
    """Weyl-invariant data of a case-III pair: squared lengths, angle, and
    the root counts of the plane they span and of its orthocomplement."""
    spec = space.spec
    la, lb = tvec_dot(spec, alpha, alpha), tvec_dot(spec, beta, beta)
    fa = space.factor_of[alpha]
    ang = root_angle(alpha.factors[fa], beta.factors[fa])
    in_plane = sum(1 for r in space.g_roots
                   if _in_affine_span(space, [alpha, beta], r) is not None)
    perp = sum(1 for r in space.g_roots
               if tvec_dot(spec, r, alpha).is_zero()
               and tvec_dot(spec, r, beta).is_zero())
    return (tuple(sorted([la, lb])), ang, in_plane, perp)


def match_case3_subcase(space: RootLevelSpace, alpha: TVec, beta: TVec) -> Subcase:
    """Find the canonical subcase with the same pair signature."""
    fam, rank, _ = space.spec.factors[space.factor_of[alpha]]
    sig = _pair_signature(space, alpha, beta)
    rows = case3_subcases(fam, rank)
    for sc in rows:
        probe = case3_space(sc.family, sc.rank, sc.alpha, sc.beta)
        a = lift_root(probe.spec, 0, sc.alpha)
        b = lift_root(probe.spec, 0, sc.beta)
        if _pair_signature(probe, a, b) == sig:
            if sc.kind == "covered":
                by = sc.payload["by"]
                sc = next(r for r in rows if r.label == by)
            return sc
    raise LookupError("no canonical subcase matches the pair signature")


def classify_space(space: RootLevelSpace) -> dict:
    """Case detection plus the matching decision procedure."""
    case = classify_case(space)
    if case == "I":
        verdict = classify_case1(space)
        return {"case": "I", "verdict": verdict.to_json()}
    if case == "II":
        verdict = classify_case2(space)
        return {"case": "II", "verdict": verdict.to_json()}
    # case III: locate a same-factor pair and match the canonical table
    pair = next((a, b) for a, b in _case_pairs(space)
                if space.factor_of[a] == space.factor_of[b])
    sc = match_case3_subcase(space, *pair)
    verdict = evaluate_subcase(sc)
    return {"case": "III", "subcase": sc.describe(), "verdict": verdict.to_json()}
