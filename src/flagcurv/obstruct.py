"""Mechanized classification of odd-dimensional positively curved
candidates.

Everything here is exact lattice arithmetic (`rootsys`): case detection
(I/II/III), the two key lemmas, the angle lemma, bracket-membership
propagation with a derivation trace, the hardcoded case-III subcase tables
(validated against Weyl orbits at low rank by the test suite), the case-II
and case-I decision procedures, and the survivor-list verification with
rank bound.  Every exclusion of the three lists is checked by replaying its
witness (`_first_excluded`); a propagation row's own run is its replay.

A root-level space is the datum (spec, w, Delta_h, assignment): the
algebra g, one vector w spanning t cap m (the rank setting
rk G = rk H + 1), the isotropy roots and the plane assignment.  Every
projection to t cap h is the exact one along w.  The searches compare the
integral projection P(v) = c v - D(w, v) w (`rootsys.t_cap_h_projection`,
one per (spec, w)): D is the integer Gram form of an integral multiple of
w and c = D(w, w) > 0, so P = c pr_h, and an h-root x enters as c x.  The
tables of P over the roots (`ProjectionTables`: root -> P(root), the roots
of each value and the roots in t cap h) come from one pass over the roots
and belong to one space and its copies; Delta_h of the case-I and case-II
candidates, t cap h membership, the scaled h-roots and the key-lemma scans
read them, and a root's negative comes from the root data.

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
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import repeat
from operator import add, itemgetter, mul, not_, sub
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from .rootsys import (
    AlgebraSpec,
    Projection,
    TVec,
    _half,
    _normalize_family,
    angle as root_angle,
    build_root_system,
    lattice_block,
    lift_root,
    solve_exact,
    sparse_tvec,
    t_cap_h_projection,
    tvec_dot,
    tvec_from_parts,
    unit_spec,
)

if TYPE_CHECKING:
    from .coset import CosetSpace


# ---------------------------------------------------------------------------
# Root-level spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RootData:
    """The roots of an AlgebraSpec lifted to t, with plane keys and one
    index; a root's factor, negative and plane key are read off its
    position."""

    g_roots: tuple         # factor by factor, each in root-system order
    factor_roots: tuple    # the same roots as one tuple per factor
    factor_columns: tuple  # per factor, the coordinate columns of its unit roots
    keys: tuple            # distinct plane keys in order of first appearance
    index: Mapping         # root -> its position in g_roots
    bounds: tuple          # where each factor's roots start in g_roots, then len(g_roots)

    def _place(self, r) -> tuple:
        """(i, f, e) for the root r: its position i, its factor f, and e,
        the sum of the first and last positions of f's roots."""
        i = self.index[r]
        f = bisect_right(self.bounds, i) - 1
        return i, f, self.bounds[f] + self.bounds[f + 1] - 1

    def factor(self, r) -> int:
        return self._place(r)[1]

    def negative(self, r) -> TVec:
        i, _, e = self._place(r)
        return self.g_roots[e - i]

    def canonical(self, r) -> TVec:
        """The plane key of r, the one of r and -r in the second half."""
        i, _, e = self._place(r)
        return self.g_roots[max(i, e - i)]


@functools.lru_cache(maxsize=None)
def _root_data(spec: AlgebraSpec) -> RootData:
    """Root data of spec, built once per spec and shared read-only: a unit
    spec of one factor holds its root system's roots as they are, one table
    per (family, rank), and any other spec lifts each factor's roots once,
    from their columns padded with zeros.  The one hashed table is the
    index, root -> position in g_roots, which also answers membership; the
    rest is read off a position.  A factor's N roots come in
    build_root_system's order, lexicographic on the lattice ints, which a
    lift keeps; the root set is symmetric with no zero, and negation
    reverses the order.  So inside a factor the negative of roots[i] is
    roots[N-1-i], the second half holds the canonical signs (first nonzero
    coordinate positive), and the plane keys in order of first appearance
    are that half reversed."""
    if spec.units == (spec,):
        roots = build_root_system(*spec.factors[0][:2], _relaxed=True).roots
        factor_roots, columns = [roots], [tuple(zip(*roots))]
    else:
        columns, factor_roots = [_root_data(u).factor_columns[0] for u in spec.units], []
        for cols, (a, b, _) in zip(columns, spec.blocks):
            z = ((0,) * len(cols[0]),)  # a zero column, off the factor's block
            factor_roots.append(tuple(map(spec.tvec, zip(*z * a, *cols, *z * (spec.dim - b)))))
    g_roots = tuple(itertools.chain.from_iterable(factor_roots))
    keys = tuple(itertools.chain.from_iterable(r[len(r) // 2:][::-1] for r in factor_roots))
    bounds = tuple(itertools.accumulate(map(len, factor_roots), initial=0))
    return RootData(g_roots, tuple(factor_roots), tuple(columns), keys,
                    MappingProxyType(dict(zip(g_roots, itertools.count()))), bounds)


def _times(c, v) -> tuple:
    return tuple(c * x for x in v)


@dataclass(frozen=True, eq=False)
class ProjectionTables:
    """The tables of P over the roots of g, which depend on spec and w
    only: one pass over the roots builds them all on first read, and a
    space's copies share them."""

    projection: Projection
    root_data: RootData
    _values: dict = field(default_factory=dict, init=False, repr=False)

    @functools.cached_property
    def _one_pass(self) -> tuple:
        """(pr_roots, pr_classes, t_h), factor by factor over the columns of
        the factor's roots.  A root r of factor i vanishes off block i, so
        D(w, r) reads w's block i alone; P(r) = c r - D(w, r) u, and the
        roots with D(w, r) = 0 are those in t cap h, where P(r) = c r."""
        (form, u), = self.projection.terms
        spec, c, pr_roots, t_h = self.projection.spec, repeat(self.projection.scale), {}, []
        for (a, b, _), roots, cols in zip(spec.blocks, self.root_data.factor_roots,
                                          self.root_data.factor_columns):
            terms = [map(mul, cols[j - a], repeat(form[j])) for j in range(a, b) if form[j]]
            d = list(map(sum, zip(*terms))) if terms else [0] * len(roots)
            p = [map(mul, cols[j - a], c) if a <= j < b else repeat(0) for j in range(len(u))]
            p = [map(sub, q, map(mul, d, repeat(x))) if x else q for q, x in zip(p, u)]
            pr_roots.update(zip(roots, zip(*p)))
            t_h += itertools.compress(roots, map(not_, d))
        classes = {}
        for r, p in pr_roots.items():
            classes.setdefault(p, []).append(r)
        return pr_roots, classes, frozenset(t_h)

    pr_roots = property(lambda self: self._one_pass[0])    # root -> P(root), in root order
    pr_classes = property(lambda self: self._one_pass[1])  # P -> its roots, in order of appearance
    t_h = property(lambda self: self._one_pass[2])         # the roots in t cap h

    def values_at(self, k: int) -> set:
        """The values of coordinate k over the projections of the roots."""
        if k not in self._values:
            self._values[k] = set(map(itemgetter(k), self.pr_classes))
        return self._values[k]


@dataclass
class RootLevelSpace:
    spec: AlgebraSpec
    root_data: RootData
    w: TVec                # spans t cap m
    h_roots: frozenset
    assignment: dict
    tables: ProjectionTables = field(repr=False, compare=False)  # of (spec, w), shared by copies
    name: str = ""

    def __post_init__(self):
        proj = self.projection = self.tables.projection
        self.pr_scale = proj.scale  # c = D(w, w)
        self.scaled, self.unscaled = proj.scaled, proj.unscaled

    def pr_h(self, v: TVec) -> TVec:
        """Exact projection of v in t onto t cap h: v - (<w,v>/<w,w>) w."""
        return self.projection.pr_h(v)

    def in_t_h(self, v) -> bool:
        """Whether v lies in t cap h; a root reads the tables."""
        return v in self.tables.t_h if v in self.root_data.index else self.projection.in_t_h(v)

    @functools.cached_property
    def scaled_h(self) -> frozenset:
        """The h-roots x as c x, the scale of P: for a root in t cap h,
        its table entry P(x)."""
        pr, t_h = self.tables.pr_roots, self.tables.t_h
        return frozenset(pr[x] if x in t_h else _times(self.pr_scale, x) for x in self.h_roots)


def make_root_level_space(spec: AlgebraSpec, w: TVec, h_roots: Iterable[TVec] = (),
                          name: str = "", h_perp: bool = False) -> RootLevelSpace:
    """Root-level space of spec with t cap m spanned by w, every plane
    unassigned.  Delta_h holds h_roots and, with h_perp, every root in t cap h
    (read off the projection tables), each with its negative (a root's from
    the root data)."""
    rd = _root_data(spec)
    tables = ProjectionTables(t_cap_h_projection(spec, (w,)), rd)
    hset = set(h_roots)
    hset.update([rd.negative(v) if v in rd.index else -v for v in hset])
    if h_perp:
        hset |= tables.t_h
    return RootLevelSpace(spec, rd, w, frozenset(hset), dict.fromkeys(rd.keys), tables,
                          name=name)


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

def _case_pairs(space: RootLevelSpace):
    """Root pairs whose common projection to t cap h is an h-root, in the
    scan order of every case decision (projections in the exact
    lexicographic order, then root order).  A nonzero common projection
    keeps a pair independent."""
    classes, hs = space.tables.pr_classes, space.scaled_h
    for pr in sorted(p for p, rs in classes.items() if len(rs) > 1 and p in hs):
        if any(pr):
            yield from itertools.combinations(classes[pr], 2)


def classify_case(space: RootLevelSpace) -> str:
    """'I', 'II' or 'III' (priority III > II > I)."""
    case, factor = "I", space.root_data.factor
    for a, b in _case_pairs(space):
        if factor(a) == factor(b):
            return "III"
        case = "II"
    return case


def _in_affine_span(base: Sequence[TVec], target: Sequence):
    """Exact coefficients expressing target in span(base), or None."""
    return solve_exact(list(zip(*base)), target)


def _span_members(space: RootLevelSpace, g1: TVec, shift: Optional[TVec] = None) -> set:
    """Roots r with r - shift in span(g1, w), for roots g1 and shift.

    As ker P = span(w), these are the roots whose projection lies on the
    line P(shift) + R y with y = P(g1).  Where y has a nonzero coordinate
    k, a point of that line is fixed by its k-th coordinate, so each value
    that coordinate takes over the root projections names one candidate
    point, looked up in the projection table when it is integral (every
    P(root) is).
    """
    tables = space.tables
    classes, pr = tables.pr_classes, tables.pr_roots
    y = pr[g1]
    s = pr[shift] if shift is not None else (0,) * len(y)
    k = next((i for i, q in enumerate(y) if q), None)
    if k is None:
        points = [s]
    else:
        points = []
        for v in tables.values_at(k):
            steps = [divmod(q * (v - s[k]), y[k]) for q in y]
            if not any(rem for _, rem in steps):
                points.append(tuple(a + q for a, (q, _) in zip(s, steps)))
    return {r for pt in points for r in classes.get(pt, ())}


def key_lemma_1_applies(space: RootLevelSpace, alpha: TVec) -> bool:
    """True iff alpha is a g-root lying in t cap h and is the only root of
    g in the affine line alpha + (t cap m); a positively curved space must
    then have alpha in Delta_h with its plane inside h."""
    if alpha not in space.root_data.index:
        raise ValueError("alpha is not a root of g")
    if not space.in_t_h(alpha):
        raise ValueError("alpha is not contained in t cap h")
    # the roots on alpha + R w are the roots r with P(r) == P(alpha)
    return len(space.tables.pr_classes[space.tables.pr_roots[alpha]]) == 1


def _sum_or_difference_is_root(space: RootLevelSpace, g1: TVec, g2: TVec) -> bool:
    """Whether g1 + g2 or g1 - g2 is a root of g."""
    roots = space.root_data.index
    return tuple(map(add, g1, g2)) in roots or tuple(map(sub, g1, g2)) in roots


def key_lemma_2_details(space: RootLevelSpace, g1: TVec, g2: TVec) -> dict:
    """Evaluate conditions (1)-(4) of the commuting-pair exclusion lemma.
    (1), the planes of g1, g2 in m: each g is not in Delta_h (a lower bound
    on the isotropy roots) and, if in t cap h, has its plane assigned 'm'.  A
    g outside t cap h needs no more: by (3) its plane is the whole t cap h-
    isotypic part of weight +-P(g), ad(w) moves all of it (g(w) != 0), and
    [h, m] in m, h cap m = 0 leave it no room to meet h."""
    roots = space.root_data.index
    if g1 not in roots or g2 not in roots:
        raise ValueError("inputs must be roots of g")
    in_m = lambda g: g not in space.h_roots and (
        not space.in_t_h(g) or space.assignment[space.root_data.canonical(g)] == "m")
    cond = {1: in_m(g1) and in_m(g2)}
    cond[2] = not _sum_or_difference_is_root(space, g1, g2)
    neg_of = space.root_data.negative
    cond[3] = _span_members(space, g1) <= {g1, neg_of(g1)}
    # the roots on -g2 + span(g1, w) are the negatives of those on g2 + span(g1, w)
    cond[4] = _span_members(space, g1, shift=g2) <= {g2, neg_of(g2)}
    return cond


def key_lemma_2_check(space: RootLevelSpace, g1: TVec, g2: TVec) -> bool:
    """True iff the pair (g1, g2) satisfies all four exclusion conditions,
    certifying that the space admits no positively curved reversible
    invariant metric."""
    rd = space.root_data
    if g1 == g2 or g2 in rd.index and g1 == rd.negative(g2):
        raise ValueError("roots must be linearly independent")
    return all(key_lemma_2_details(space, g1, g2).values())


def _kl2_pair_search(space: RootLevelSpace, candidates: Iterable[TVec]) -> Optional[Verdict]:
    """The exclusion by the first pair of candidate roots, in sorted order,
    that meets the second key lemma, or None.  Conditions (1), in part, and
    (2) are screened first: independent, both outside Delta_h, and with
    neither g1 + g2 nor g1 - g2 a root."""
    outside_h = sorted(r for r in candidates if r not in space.h_roots)
    negatives = map(space.root_data.negative, outside_h)
    return _first_excluded(space, (
        Witness("key_lemma_2", {"gamma1": g1, "gamma2": g2})
        for i, (g1, n1) in enumerate(zip(outside_h, negatives)) for g2 in outside_h[i + 1:]
        if g2 != n1 and not _sum_or_difference_is_root(space, g1, g2)))


def angle_lemma_check(space: RootLevelSpace, alpha: TVec, beta: TVec) -> bool:
    """True (= excluded) iff the pair's angle is pi/3 or 2pi/3.

    Precondition: pr_h(alpha) = pr_h(beta) is a root of h.
    """
    pa = space.scaled(alpha)
    if pa != space.scaled(beta) or space.unscaled(pa) not in space.h_roots:
        raise ValueError("hypothesis violated: projections differ or are not h-roots")
    factor = space.root_data.factor
    return (factor(alpha) == factor(beta)
            and root_angle(alpha, beta) in ("pi/3", "2pi/3"))


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

class PropagationContradiction(Exception):
    def __init__(self, trace):
        super().__init__(trace[-1] if trace else "contradiction")
        self.trace = trace


def _crystallographic_ok(spec: AlgebraSpec, x: Sequence, r: Sequence) -> bool:
    """Necessary condition for x and r to cohabit a root system: both
    Cartan integers 2<x,r>/<r,r> and 2<x,r>/<x,x> are integers (the ratios
    depend neither on a common scale of x and r nor on spec.gram_den)."""
    xr = 2 * sum(map(mul, map(mul, spec.gram, x), r))
    return not xr or all(not xr % sum(map(mul, map(mul, spec.gram, y), y)) for y in (r, x))


def propagate_assignment(space: RootLevelSpace, rule_order: Optional[list] = None):
    """Fixpoint of the membership rules; returns (space', trace) or raises
    PropagationContradiction.

    Rules: (a) first-key-lemma forcing into Delta_h (with reduced-system
    check), (pin) unique-plane hat classes of h-roots lie in h, (b)/(c)
    bracket images of assigned planes, (e) crystallographic exclusion of
    projection values against known h-roots (planes of impossible values
    drop to m, as do planes whose root lies in t cap m), (f) hat classes of
    h-roots with all but one plane in m pin the last plane.  The h-roots
    are kept at the scale of P, the projection table's.  A round that
    changes something assigns a plane or adds the h-root of a key in
    t cap h (rule a), so the fixpoint comes within one round more than
    there are plane keys and keys in t cap h.
    """
    sp = replace(space, assignment=dict(space.assignment))  # a working copy
    trace: list = []
    c = sp.pr_scale
    h_roots = set(sp.scaled_h)
    asg = sp.assignment
    pr_of = sp.tables.pr_roots
    keys = sp.root_data.keys

    def fmt(p):
        return _fmt(sp.unscaled(p))

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
        cv = _times(c, v)
        if cv in h_roots:
            return False
        for r in (_times(2, cv), _times(Fraction(1, 2), cv)):
            if r in h_roots:
                trace.append(
                    f"{why}: {_fmt(v)} and {fmt(r)} cannot both be h-roots "
                    "(reduced root system)")
                raise PropagationContradiction(trace)
        h_roots.add(cv)
        h_roots.add(_times(-1, cv))
        trace.append(f"{why}: {_fmt(v)} added to the h-root system")
        return True

    def hat_class(prv):
        neg = _times(-1, prv)
        return [r for r in keys if pr_of[r] == prv or pr_of[r] == neg]

    def rule_a():
        changed = False
        for r in keys:
            # on t cap h, P(r) = c r
            if not sp.in_t_h(r) or pr_of[r] in h_roots:
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
                changed |= set_plane(r, "h", f"h-root {fmt(p)} has a single plane")
        return changed

    def rule_e():
        changed = False
        ordered = sorted(h_roots)
        for r in keys:
            if asg[r] is not None:
                continue
            p = pr_of[r]
            if not any(p):
                changed |= set_plane(r, "m", "projection to t cap h vanishes")
                continue
            if p in h_roots:
                continue
            for hr in ordered:
                if not _crystallographic_ok(sp.spec, p, hr):
                    changed |= set_plane(
                        r, "m",
                        f"projection {fmt(p)} fails integrality against h-root {fmt(hr)}")
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
        for p in sorted(h_roots):
            cls = hat_class(p)
            if not cls:
                continue
            unknown = [r for r in cls if asg[r] in (None, "split", "h")]
            if not unknown:
                trace.append(
                    f"h-root {fmt(p)}: every plane of its hat class lies in m")
                raise PropagationContradiction(trace)
            if len(unknown) == 1 and len(cls) > 1:
                r = unknown[0]
                coeff = _in_affine_span([r], p)
                if coeff is None:
                    trace.append(
                        f"h-root {fmt(p)}: only plane({_fmt(r)}) remains but "
                        f"{fmt(p)} is not proportional to {_fmt(r)}")
                    raise PropagationContradiction(trace)
                changed |= set_plane(r, "h", f"last plane of h-root {fmt(p)}")
        return changed

    rules = {"a": rule_a, "pin": rule_pin, "e": rule_e, "bc": rule_bc, "f": rule_f}
    order = rule_order or ["a", "pin", "e", "bc", "f"]
    for _ in range(len(keys) + sum(map(sp.in_t_h, keys)) + 1):
        changed = False
        for name in order:
            changed |= rules[name]()
        if not changed:
            break
    else:
        raise RuntimeError("propagation did not reach a fixpoint")
    out = replace(sp, h_roots=frozenset(map(sp.unscaled, h_roots)), assignment=asg)
    return out, trace


@functools.lru_cache(maxsize=None, typed=True)  # typed: keyed by the spec's TVec class too
def _fmt(tv: TVec) -> str:
    """tv as rows and traces print it, formatted once per (spec, vector)."""
    spec = tv.spec
    parts = [lattice_block(x, k) for x, k in ((tv[a:b], k) for a, b, k in spec.blocks) if any(x)]
    ab = [_half(x) for x in tv[spec.dim - spec.abelian_dim:] if x]
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


def _first_excluded(space: RootLevelSpace, witnesses: Iterable[Witness],
                    detail: str = "") -> Optional[Verdict]:
    """The exclusion of space by the first of witnesses that
    revalidate_witness replays there (each checked once, by its replay), or None."""
    return next((Verdict("excluded", witness=w, detail=detail)
                 for w in witnesses if revalidate_witness(space, w)), None)


def _excluded(space: RootLevelSpace, witness: Witness, detail: str = "") -> Verdict:
    """The exclusion of space that witness certifies, once revalidate_witness
    has replayed it there; a witness that does not replay raises
    AssertionError naming the space."""
    verdict = _first_excluded(space, [witness], detail)
    if verdict is None:
        raise AssertionError(f"{space.name}: the {witness.kind} witness does not replay")
    return verdict


def _pair_facts(g1: TVec, g2: TVec) -> list:
    """The root facts of an orthogonal pair of roots with no root among
    g1 +- g2."""
    return [("is_root", g1), ("is_root", g2), ("orthogonal", g1, g2),
            ("not_root", g1 + g2), ("not_root", g1 - g2)]


def revalidate_witness(space: RootLevelSpace, witness: Witness) -> bool:
    """Replay an exclusion witness against its defining checker; every
    exclusion is checked this way, but a propagation row's, whose run is
    its replay."""
    k = witness.kind
    p = witness.payload
    if k == "key_lemma_2":
        return key_lemma_2_check(space, p["gamma1"], p["gamma2"])
    if k == "key_lemma_1":
        return key_lemma_1_applies(space, p["gamma"])
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
    """Whether every fact (tag, *args) of the payload holds."""
    roots, spec = space.root_data.index, space.spec
    holds = {
        "is_root": lambda r: r in roots,
        "not_root": lambda v: v not in roots,
        "orthogonal": lambda u, v: not tvec_dot(spec, u, v),
        # the roots orthogonal to t_prime form a subsystem of the given size
        "centralizer_subsystem": lambda t_prime, size: size == _centralizer_size(
            spec, space.root_data.g_roots, t_prime),
        "assignment_consistent": lambda: _assignment_consistent(space),
    }
    for tag, *args in payload.get("facts", []):
        if tag not in holds:
            raise ValueError(f"unknown root fact {tag!r}")
        if not holds[tag](*args):
            return False
    return True


def _centralizer_size(spec: AlgebraSpec, roots, t_prime) -> int:
    """How many of roots r have D(t, r) = 0 for every t of t_prime, read off
    the integer Gram forms spec.gram * t."""
    forms = [tuple(map(mul, spec.gram, t)) for t in t_prime]
    return sum(not any(sum(map(mul, f, r)) for f in forms) for r in roots)


def _bracket_images(space: RootLevelSpace):
    """(a, b, target) for each plane a assigned to h or m, each other
    h-plane b, and the plane of the single root among a + b, a - b: the
    bracket puts target where a is.  Assignments are read as the scan goes,
    so a caller may assign targets on the way."""
    roots, canonical = space.root_data.index, space.root_data.canonical
    asg = space.assignment
    keys = space.root_data.keys
    for a in keys:
        if asg.get(a) not in ("h", "m"):
            continue
        for b in keys:
            if b == a or asg.get(b) != "h":
                continue
            targets = [t for t in (tuple(map(add, a, b)), tuple(map(sub, a, b))) if t in roots]
            if len(targets) == 1:  # the two-root cone case carries no containment
                yield a, b, canonical(targets[0])


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
    alpha: TVec  # a root of the unit spec of (family, rank), as is beta
    beta: TVec
    kind: str           # survivor | covered | key_lemma_2 | propagation |
                        # angle | angle_reduced | reduction | g2_rotation
    payload: dict = field(default_factory=dict)

    def describe(self):
        return {
            "family": self.family,
            "rank": self.rank,
            "subcase": self.label,
            "alpha": _fmt(self.alpha),
            "beta": _fmt(self.beta),
            "kind": self.kind,
        }


def case3_space(family: str, rank: int, alpha: TVec, beta: TVec,
                name: str = "") -> RootLevelSpace:
    """Root-level space of a case-III subcase datum, two roots of the unit
    spec of (family, rank): t cap m is spanned by alpha - beta, and Delta_h
    is seeded with the common projection (a verified lower bound for any
    isotropy algebra realizing the datum), read off the projection so that
    a row that needs no more (an angle row) builds no tables."""
    spec, w = unit_spec(((family, rank),)), alpha - beta
    return make_root_level_space(spec, w, [t_cap_h_projection(spec, (w,)).pr_h(alpha)],
                                 name=name)


def _sphere_name(n):
    return f"S^{2*n-1} = SO({2*n})/SO({2*n-1})"


def _lattice_root(family, *ns) -> TVec:
    """The vector with lattice coordinates ns of the unit spec of (family,
    len(ns)), a family of rank its ambient dimension (not A): position i
    holds ns[i]/2 times its surd."""
    return unit_spec(((family, len(ns)),)).tvec(ns)


def _angle_rows(fam, n, tag=""):
    """The angle-lemma rows (e1+e2, e1+e3) at pi/3 and (e1+e2, -e1+e3) at
    2pi/3; tag marks the root lengths where a family has two."""
    e = lambda *ic: sparse_tvec(fam, n, *ic)
    return [Subcase(fam, n, f"{fam}:angle-{tag}pi/3", e((0, 1), (1, 1)),
                    e((0, 1), (2, 1)), "angle"),
            Subcase(fam, n, f"{fam}:angle-{tag}2pi/3", e((0, 1), (1, 1)),
                    e((0, -1), (2, 1)), "angle")]


def _subcases_A(n):
    out = []
    if n >= 2:
        out.append(Subcase("A", n, "A:angle-pi/3", sparse_tvec("A", n, (0, 1), (1, -1)),
                           sparse_tvec("A", n, (0, 1), (2, -1)), "angle"))
        out.append(Subcase("A", n, "A:angle-2pi/3", sparse_tvec("A", n, (0, 1), (1, -1)),
                           sparse_tvec("A", n, (1, 1), (2, -1)), "angle"))
    if n < 3:
        return out
    alpha = sparse_tvec("A", n, (0, 1), (3, -1))   # e1 - e4
    beta = sparse_tvec("A", n, (2, 1), (1, -1))    # e3 - e2
    if n == 3:
        out.append(Subcase("A", 3, "A:1", alpha, beta, "survivor",
                           {"name": _sphere_name(3)}))
    elif n == 4:
        out.append(Subcase("A", 4, "A:2", alpha, beta, "survivor",
                           {"name": "SU(5)/Sp(2)U(1) (Berger)"}))
    else:
        out.append(Subcase("A", n, "A:3", alpha, beta, "key_lemma_2",
                           {"gamma1": sparse_tvec("A", n, (0, 1), (4, -1)),
                            "gamma2": sparse_tvec("A", n, (1, 1), (5, -1))}))
    return out


def _subcases_B(n):
    out = []
    e = lambda *ic: sparse_tvec("B", n, *ic)
    out.append(Subcase("B", n, "B:1", e((0, 1), (1, 1)), e((1, 1)), "reduction",
                       {"preset": f"bn_excluded_subcase1({n})",
                        "normalized_m": "R e1 + g(e1) + sum_i g(e_i +- e1)",
                        "t_prime": [e((i, 1)) for i in range(2, n)],
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
        out += _angle_rows("B", n)
    return out


def _b9_payload(n):
    e = lambda *ic: sparse_tvec("B", n, *ic)
    g1, g2, e2 = e((0, 1), (2, 1)), e((0, 1), (2, -1)), e((1, 1))
    return {
        "note": "conditions (1)-(2) hold but the affine scan meets e2; "
                "the exclusion follows from the hat-plane orthogonality "
                "argument, certified numerically on the matrix preset",
        "gamma1": g1, "gamma2": g2,
        "facts": _pair_facts(g1, g2),
        "kl2_failed_conditions": [4],
        "extra_affine_root": e2,
    }


def _subcases_C(n):
    out = []
    e = lambda *ic: sparse_tvec("C", n, *ic)
    out.append(Subcase("C", n, "C:1", e((0, 2)), e((0, 1), (1, 1)), "reduction",
                       {"preset": f"cn_excluded_subcase1({n})",
                        "t_prime": [e((i, 1)) for i in range(2, n)],
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
    e = lambda *ic: sparse_tvec("D", n, *ic)
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
        out += _angle_rows("D", n)
    return out


# The lattice coordinates of the key-lemma-2 pair of row E_n:1
_E_GAMMAS = {
    6: ((-1, 1, 1, 1, 1, 1), (-1, -1, -1, -1, -1, 1)),
    7: ((-1, 1, 1, 1, 1, 1, 1), (1, -1, -1, -1, 1, 1, 1)),
    8: ((1,) * 8, (-1,) * 4 + (1,) * 4),
}


def _subcases_E(n):
    fam = f"E{n}"
    e = lambda *ic: sparse_tvec(fam, n, *ic)
    g1, g2 = (_lattice_root(fam, *ns) for ns in _E_GAMMAS[n])
    out = [Subcase(fam, n, f"{fam}:1", e((0, 1), (1, 1)), e((1, 1), (0, -1)),
                   "key_lemma_2", {"gamma1": g1, "gamma2": g2})]
    if n == 6:
        out.append(Subcase("E6", 6, "E6:2", e((0, 1), (1, 1)), e((2, -1), (3, -1)),
                           "covered", {"by": "E6:1", "via": "outer automorphism"}))
    if n == 8:
        out.append(Subcase("E8", 8, "E8:2", e((0, 1), (1, 1)), e((2, -1), (3, -1)),
                           "key_lemma_2",
                           {"gamma1": e((0, 1), (4, 1)), "gamma2": e((1, 1), (5, 1))}))
    return out + _angle_rows(fam, n)


def _subcases_F4(n):
    e = lambda *ic: sparse_tvec("F4", n, *ic)
    return [
        Subcase("F4", n, "F4:1", e((0, 1), (1, 1)), e((1, 1)), "reduction",
                {"preset": "bn_excluded_subcase1(2)",
                 "t_prime": [e((2, 1)), e((3, 1))],
                 "subsystem_size": 8}),
        Subcase("F4", n, "F4:2", e((0, 1), (1, 1)), e((1, 1), (0, -1)),
                "covered", {"by": "F4:1"}),
        Subcase("F4", n, "F4:3", e((0, 1), (1, 1)), e((2, -1)), "propagation", {}),
        Subcase("F4", n, "F4:4", e((0, 1)), e((1, -1)), "propagation", {}),
        Subcase("F4", n, "F4:5", e((0, 1), (1, 1)), e((1, -1)), "propagation", {}),
    ] + _angle_rows("F4", n, "ll-") + [
        Subcase("F4", n, "F4:angle-ss-pi/3", e((0, 1)), _lattice_root("F4", 1, 1, 1, 1),
                "angle"),
        Subcase("F4", n, "F4:angle-ss-2pi/3", e((0, 1)), _lattice_root("F4", -1, 1, 1, 1),
                "angle"),
    ]


def _subcases_G2(n):
    # G2 lattice coordinates (a, b) are the point (a*sqrt3/2, b/2)
    long_a = _lattice_root("G2", 2, 0)        # (sqrt3, 0)
    long_b = _lattice_root("G2", 1, 3)        # (sqrt3/2, 3/2)
    long_c = _lattice_root("G2", -1, 3)       # (-sqrt3/2, 3/2)
    short_a = _lattice_root("G2", 0, 2)       # (0, 1)
    short_b = _lattice_root("G2", 1, 1)       # (sqrt3/2, 1/2)
    short_c = _lattice_root("G2", -1, 1)      # (-sqrt3/2, 1/2), at 5pi/6 to long_a
    g1 = long_a + short_c.scale(3)   # alpha + 3 beta
    g2 = long_a + short_c            # alpha + beta
    return [
        Subcase("G2", n, "G2:angle-ll-pi/3", long_a, long_b, "angle"),
        Subcase("G2", n, "G2:angle-ll-2pi/3", long_a, long_c, "angle"),
        Subcase("G2", n, "G2:angle-ss-pi/3", short_a, short_b, "angle"),
        Subcase("G2", n, "G2:angle-ss-2pi/3", short_b, short_c, "angle"),
        Subcase("G2", n, "G2:ls-pi/2", long_a, short_a, "angle_reduced",
                {"alpha1": short_b, "beta1": short_a}),
        Subcase("G2", n, "G2:ls-pi/6", long_a, short_b, "angle_reduced",
                {"alpha1": short_b, "beta1": short_a}),
        Subcase("G2", n, "G2:ls-5pi/6", long_a, short_c, "g2_rotation",
                {"gamma1": g1, "gamma2": g2}),
    ]


_SUBCASES = {"A": _subcases_A, "B": _subcases_B, "C": _subcases_C, "D": _subcases_D,
             "E6": _subcases_E, "E7": _subcases_E, "E8": _subcases_E,
             "F4": _subcases_F4, "G2": _subcases_G2}


def case3_subcases(family: str, rank: int) -> list:
    fam, n = _normalize_family(family, rank)
    return _SUBCASES[fam](n)


def evaluate_subcase(sc: Subcase) -> Verdict:
    """Run the checks attached to one canonical subcase and emit a verdict.
    An excluded row's witness is built from the row and replayed by
    _excluded; a propagation row's run is its own replay."""
    if sc.kind == "covered":
        return Verdict("covered", detail=f"covered by subcase {sc.payload['by']}")
    space = case3_space(sc.family, sc.rank, sc.alpha, sc.beta,
                        name=f"{sc.family}{sc.rank} subcase {sc.label}")
    if sc.kind == "survivor":
        if classify_case(space) != "III":
            raise AssertionError(f"{sc.label}: expected a case-III datum")
        return Verdict("survivor", name=sc.payload["name"])
    p, detail = sc.payload, ""
    if sc.kind == "angle":
        witness = Witness("angle", {"alpha": sc.alpha, "beta": sc.beta})
    elif sc.kind == "angle_reduced":
        witness = Witness("angle", {"alpha": p["alpha1"], "beta": p["beta1"]})
        detail = "short pair replacing the original one"
    elif sc.kind == "key_lemma_2":
        witness = Witness("key_lemma_2", {"gamma1": p["gamma1"], "gamma2": p["gamma2"]})
    elif sc.kind == "propagation":
        try:
            propagate_assignment(space)
        except PropagationContradiction as exc:
            return Verdict("excluded", witness=Witness("propagation", {"trace": exc.trace}))
        raise AssertionError(f"{sc.label}: propagation found no contradiction")
    elif sc.kind == "reduction":
        facts = [("assignment_consistent",),
                 ("centralizer_subsystem", p["t_prime"], p["subsystem_size"])]
        witness = Witness("root_combinatorial", {**p, "facts": facts})
        detail = ("reduces to the rank-two witness space; "
                  "certified numerically on the matrix preset")
    elif sc.kind == "root_combinatorial":
        det = key_lemma_2_details(space, p["gamma1"], p["gamma2"])
        if [k for k, v in det.items() if not v] != p["kl2_failed_conditions"]:
            raise AssertionError(f"{sc.label}: failed-condition record mismatch")
        witness = Witness("root_combinatorial", p)
    elif sc.kind == "g2_rotation":
        # the hat-class ladder alpha', 2a', ..., 5a' behind the rotation trick
        ap = space.tables.pr_roots[sc.alpha]
        if not all(_times(k, ap) in space.tables.pr_classes for k in range(1, 6)):
            raise AssertionError(f"{sc.label}: G2 hat-class ladder incomplete")
        witness = Witness("root_combinatorial",
                          {**p, "facts": _pair_facts(p["gamma1"], p["gamma2"])})
        detail = "orthogonal commuting pair feeding the rotation argument"
    else:
        raise ValueError(f"unknown subcase kind {sc.kind!r}")
    return _excluded(space, witness, detail)


def enumerate_case3(family: str, rank: int) -> list:
    """All canonical case-III subcases of the family at this rank, with
    verdicts."""
    return [(sc, evaluate_subcase(sc)) for sc in case3_subcases(family, rank)]

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


def case2_space(g2_family: str, g2_rank: int, beta: TVec,
                name: str = "") -> RootLevelSpace:
    """Case-II candidate: g = A1 + g2 with the diagonal h-root pairing the
    A1-root with beta; Delta_h holds the g2-roots orthogonal to beta (those
    in t cap h, as w = alpha - beta) plus the common projection, which for
    orthogonal alpha, beta is (|beta|^2 alpha + |alpha|^2 beta) / |w|^2, so
    that no root is projected outside the tables' pass."""
    spec = unit_spec((("A", 1), (g2_family, g2_rank)))
    alpha = lift_root(spec, 0, sparse_tvec("A", 1, (0, 1), (1, -1)))
    beta = lift_root(spec, 1, beta)
    a, b = (sum(map(mul, map(mul, spec.gram, v), v)) for v in (alpha, beta))  # gram_den cancels
    common = spec.tvec(map(add, _times(b, alpha), _times(a, beta))).scale(Fraction(1, a + b))
    return make_root_level_space(spec, alpha - beta, [common], name=name, h_perp=True)


def classify_case2(space: RootLevelSpace) -> Verdict:
    """Decision procedure for case-II data: search the second factor for a
    commuting non-isotropy pair, otherwise match the rank-equal pair table
    {(A1, A1), (A2, A1+R), (C_n, A1+C_{n-1})}."""
    if classify_case(space) != "II":
        raise ValueError("not a case-II space")
    # locate the cross-factor projection pair; the factor contributing only
    # +-alpha is the A1 side, beta is a root of the other factor
    factor, factor_roots = space.root_data.factor, space.root_data.factor_roots
    pair = next((a, b) for a, b in _case_pairs(space) if factor(a) != factor(b))
    alpha, beta = sorted(pair, key=lambda r: len(factor_roots[factor(r)]) != 2)
    if len(factor_roots[factor(alpha)]) != 2:
        raise ValueError("case-II datum without an A1 factor")
    fb, pm_beta = factor(beta), (beta, space.root_data.negative(beta))
    # Wallach-pair search in the second factor
    verdict = _kl2_pair_search(space, [r for r in factor_roots[fb] if r not in pm_beta])
    if verdict:
        return verdict
    fam, rank, scale = space.spec.factors[fb]
    beta_len2 = tvec_dot(space.spec, beta, beta) / scale  # in the factor's unit form
    if fam == "A" and rank == 1:
        return Verdict("survivor", name=S3_NAME)
    if fam == "A" and rank == 2:
        return Verdict("survivor", name=WILKING_NAME)
    if fam == "C" and beta_len2 == 4:
        return Verdict("survivor", name=_spsp_name(rank))
    if fam == "B" and rank == 2 and beta_len2 == 2:
        return Verdict("survivor", name=_spsp_name(2))  # so(5) = sp(2), long beta
    return _excluded(space, Witness("root_combinatorial",
                                    {"facts": [],
                                     "note": "rank-equal pair outside the known table"}),
                     "no commuting pair found but the pair table has no entry")


# ---------------------------------------------------------------------------
# Case I
# ---------------------------------------------------------------------------

def classify_case1(space: RootLevelSpace) -> Verdict:
    """Decision procedure for case-I data, splitting on the decomposition
    of the generator of t cap m over the abelian and simple factors."""
    if classify_case(space) != "I":
        raise ValueError("not a case-I space")
    spec, w, factor_roots = space.spec, space.w, space.root_data.factor_roots
    w0_nonzero = any(w.abelian)
    active = [i for i, f in enumerate(w.factors) if not f.is_zero()]
    # each active factor's block of w, lifted to t
    w_of = {i: lift_root(spec, i, w.factors[i]) for i in active}

    # inactive simple factors must sit inside h entirely
    r = next((r for i, rs in enumerate(factor_roots) if i not in active
              for r in rs if r not in space.h_roots), None)
    if r is not None:
        why = "root of a torus-fixed factor missing from h"
        return _excluded(space, Witness("key_lemma_1", {"gamma": r, "detail": why}),
                         "first key lemma forces the whole factor into h")
    # a root inside t cap h that is alone on its affine line must be an
    # h-root; a candidate isotropy missing it is excluded outright
    why = "forced h-root missing from the candidate isotropy"
    verdict = _first_excluded(space, (Witness("key_lemma_1", {"gamma": r, "detail": why})
                                      for r in space.root_data.g_roots
                                      if r not in space.h_roots and space.in_t_h(r)),
                              "first key lemma contradiction")
    if verdict:
        return verdict
    nonh = {i: [r for r in factor_roots[i] if r not in space.h_roots] for i in active}

    if w0_nonzero:
        if not active:
            raise ValueError("degenerate candidate: m = t cap m is one-dimensional")
        if len(active) == 1:
            verdict = _case1_table_match(space, active[0])
            if verdict is not None:
                return verdict
        verdict = _kl2_pair_search(space, [r for i in active for r in nonh[i]])
        if verdict:
            return verdict
        return Verdict("unresolved",
                       detail="abelian component present but no table entry "
                              "and no certifying pair found")

    # no abelian component
    if len(active) == 1:
        # the shape of the simple transitive exemplars of case1_candidates
        if _h_is_w_perp(space, active[0]):
            return Verdict("unresolved",
                           detail="compact simple transitive group: outside the "
                                  "scope of the exclusion machinery")
        verdict = _kl2_pair_search(space, nonh[active[0]])
        if verdict:
            return verdict
        return Verdict("unresolved",
                       detail="one active simple factor whose h-roots are not its "
                              "roots orthogonal to w, and no certifying pair found")
    # roots not proportional to their factor's torus component
    cand = [r for i in active for r in nonh[i] if _in_affine_span([w_of[i]], r) is None]
    verdict = _kl2_pair_search(space, cand)
    if verdict:
        return verdict
    # one factor must now be A1 with roots along its torus component
    a1 = next((i for i in active if len(factor_roots[i]) == 2
               and _in_affine_span([w_of[i]], factor_roots[i][0]) is not None), None)
    if a1 is None:
        return Verdict("unresolved",
                       detail="no certifying pair and no A1 factor aligned "
                              "with the torus component")
    others = [i for i in active if i != a1]
    alpha = factor_roots[a1][0]
    kind = "three_or_more_factors" if len(active) > 2 else "two_factors"
    j = others[0]
    beta_in_line = next((r for r in factor_roots[j]
                         if _in_affine_span([w_of[j]], r) is not None), None)
    if len(active) == 2 and beta_in_line is not None:
        payload = {
            "facts": [("is_root", alpha), ("is_root", beta_in_line)],
            "construction": "a1a1_diagonal",
            "alpha": alpha, "beta": beta_in_line,
            "numeric_preset": "a1a1_diagonal",
        }
        return _excluded(space, Witness("root_combinatorial", payload),
                         "two-factor torus with a root along each component; "
                         "zero-curvature pair certified on the matrix preset")
    # a root of factor j is orthogonal to w_of[j] exactly when it lies in t cap h
    beta = next((r for r in factor_roots[j]
                 if r not in space.h_roots and not space.in_t_h(r)), None)
    payload = {
        "facts": [("is_root", alpha)] + ([("is_root", beta)] if beta else []),
        "construction": kind,
        "alpha": alpha, "beta": beta,
    }
    return _excluded(space, Witness("root_combinatorial", payload),
                     "torus component spread over several factors; "
                     "the commuting pair argument applies")


def _h_is_w_perp(space: RootLevelSpace, i: int) -> bool:
    """Whether the h-roots of factor i are exactly its roots orthogonal to
    w (a root of factor i is orthogonal to w exactly when it is to w's
    block i)."""
    return all((r in space.h_roots) == space.in_t_h(r) for r in space.root_data.factor_roots[i])


def _case1_table_match(space: RootLevelSpace, i: int) -> Optional[Verdict]:
    """Match (g_i, h cap g_i) against the rank-equal pair table for the
    abelian-component case: (A_k, A_{k-1}+R), (C_k, C_{k-1}+R),
    (A_2, R+R) and the so(5) = sp(2) coincidence."""
    if not _h_is_w_perp(space, i):
        return None
    fam, rank, scale = space.spec.factors[i]
    h2 = [r for r in space.root_data.factor_roots[i] if r in space.h_roots]
    if fam == "A":
        if len(h2) == rank * (rank - 1):
            return Verdict("survivor", name=_un_name(rank + 1))
        if rank == 2 and not h2:  # no root of the block is orthogonal to w
            return Verdict("survivor", name="Aloff-Wallach U(3)/T^2")
    if fam == "C" and len(h2) == 2 * (rank - 1) ** 2:
        return Verdict("survivor", name=_spu1_name(rank))
    if fam == "B" and rank == 2 and len(h2) == 2:
        if tvec_dot(space.spec, h2[0], h2[0]) / scale == 2:  # the long-root pair: so(5) = sp(2)
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
    return out + [(fam, r) for fam, r in (("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2))
                  if r <= max_rank]


def _case2_scan(max_rank):
    """Part 2's rows: one case-II space per family, rank and length class of
    beta, with its verdict."""
    # one root per length class; D and E have one length, G2 its own grid
    reps = {"A": [("any", [(0, 1), (1, -1)])],
            "B": [("short", [(0, 1)]), ("long", [(0, 1), (1, 1)])],
            "C": [("long", [(0, 2)]), ("short", [(0, 1), (1, 1)])],
            "F4": [("long", [(0, 1), (1, 1)]), ("short", [(0, 1)])]}
    for fam, rank in _case3_rank_range(max_rank):
        if fam == "G2":
            betas = [("long", _lattice_root("G2", 2, 0)), ("short", _lattice_root("G2", 0, 2))]
        else:
            betas = [(tag, sparse_tvec(fam, rank, *co))
                     for tag, co in reps.get(fam, [("any", [(0, 1), (1, 1)])])]
        for tag, beta in betas:
            space = case2_space(fam, rank, beta, name=f"A1+{fam}{rank} (beta {tag})")
            yield space.name, {"g2": f"{fam}{rank}", "beta": tag}, classify_case2(space)


def verify_theorem(part: int, max_rank: int = 8) -> dict:
    """Reproduce one of the three survivor lists up to the rank bound and
    diff against the expected set."""
    # each scan yields (space name, row key, verdict); the expected list is
    # the classification's survivor set restricted to the scanned ranks
    # (each sporadic name needs its family/rank)
    if part == 1:
        scan = ((sc.label, sc.describe(), verdict)
                for fam, rank in _case3_rank_range(max_rank)
                for sc, verdict in enumerate_case3(fam, rank))
        expected = {_sphere_name(n) for n in range(3, max_rank + 1)}
        if max_rank >= 2:
            expected.add("Sp(2)/SU(2) (Berger)")
        if max_rank >= 3:
            expected.add("S^7 = Spin(7)/G2")
        if max_rank >= 4:
            expected.add("S^15 = Spin(9)/Spin(7)")
            expected.add("SU(5)/Sp(2)U(1) (Berger)")
    elif part == 2:
        scan = _case2_scan(max_rank)
        expected = {S3_NAME}
        if max_rank >= 2:
            expected.add(WILKING_NAME)
            expected.add(_spsp_name(2))  # via the rank-two orthogonal algebra
        expected |= {_spsp_name(n) for n in range(3, max_rank + 1)}
    elif part == 3:
        scan = ((space.name, {"space": space.name}, classify_case1(space))
                for space in case1_candidates(max_rank))
        expected = {_un_name(n) for n in range(2, max_rank + 2)}
        expected |= {_spu1_name(n) for n in range(3, max_rank + 1)}
        if max_rank >= 2:
            expected.add(_spu1_name(2))  # via the rank-two orthogonal algebra
            expected.add("Aloff-Wallach U(3)/T^2")
    else:
        raise ValueError("part must be 1, 2 or 3")
    survivors, unresolved, rows = set(), [], []
    for name, row, verdict in scan:
        rows.append((row, verdict.to_json()))
        if verdict.outcome == "survivor":
            survivors.add(verdict.name)
        elif verdict.outcome == "unresolved":
            unresolved.append(name)
    missing = sorted(expected - survivors)
    extra = sorted(survivors - expected)
    return {
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


def _case1_space(label, blocks, abelian=True, h_perp=True) -> RootLevelSpace:
    """Case-I candidate with t cap m spanned by w: blocks[i], a vector of
    the unit spec of the i-th simple factor, is w's block there, and w has
    abelian coordinate 1 when abelian.  With h_perp, Delta_h is the set of
    roots orthogonal to w; otherwise it is empty."""
    spec = unit_spec(tuple(b.spec.factors[0][:2] for b in blocks), 1 if abelian else 0)
    w = tvec_from_parts(spec, abelian=[1] if abelian else [])
    for i, b in enumerate(blocks):
        w = w + lift_root(spec, i, b)
    return make_root_level_space(spec, w, name=label, h_perp=h_perp)


def case1_candidates(max_rank: int = 8) -> list:
    """Finite case-I candidate pool: one torus direction per classical
    family and rank (the direction whose orthogonal subsystem is maximal),
    the special A2 directions, the exceptional families at one direction,
    plus multi-factor and simple-transitive exemplars; every simple factor
    has rank at most max_rank, and no candidate above it is built."""
    out = []

    def add(label, blocks, abelian=True, h_perp=True):
        if all(b.spec.factors[0][1] <= max_rank for b in blocks):
            out.append(_case1_space(label, blocks, abelian, h_perp))

    def a_dir(rank):  # rank e1 - e2 - ... - e_{rank+1}
        return sparse_tvec("A", rank, *([(0, rank)] + [(j, -1) for j in range(1, rank + 1)]))

    aloff_wallach = sparse_tvec("A", 2, (0, 1), (1, 2), (2, -3))
    for rank in range(1, max_rank + 1):
        add(f"U({rank+1})/U({rank}) candidate", [a_dir(rank)])
    for rank in range(3, max_rank + 1):
        add(f"Sp({rank})U(1)/Sp({rank-1})U(1) candidate", [sparse_tvec("C", rank, (0, 1))])
    # so(5) = sp(2) presentation of the rank-two quaternionic sphere
    add("Sp(2)U(1)/Sp(1)U(1) candidate (so(5) picture)", [sparse_tvec("B", 2, (0, 1), (1, 1))])
    # Aloff-Wallach directions, generic and degenerate
    add("Aloff-Wallach U(3)/T^2 candidate", [aloff_wallach])
    add("U(3)/T^2 with degenerate parameters", [sparse_tvec("A", 2, (0, 1), (1, 1), (2, -2))],
        h_perp=False)
    # non-table single blocks: excluded
    for fam, rank in [("B", 3), ("B", 4), ("D", 4), ("F4", 4), ("G2", 2),
                      ("E6", 6), ("E7", 7)]:
        w1 = _lattice_root("G2", 0, 2) if fam == "G2" else sparse_tvec(fam, rank, (0, 1))
        add(f"U(1)x{fam}{rank} non-table candidate", [w1])
    # simple transitive groups: unresolved
    for rank in range(2, 5):
        add(f"SU({rank+1})/SU({rank})", [a_dir(rank)], abelian=False)
    for rank in range(3, 5):
        add(f"Sp({rank})/Sp({rank-1})", [sparse_tvec("C", rank, (0, 1))], abelian=False)
    add("SU(3)-homogeneous Aloff-Wallach", [aloff_wallach], abelian=False)
    # multi-factor exemplars
    a1 = sparse_tvec("A", 1, (0, 1), (1, -1))
    add("two A1 factors", [a1, a1], abelian=False)
    add("A1 x A2 with generic slope", [a1, aloff_wallach], abelian=False)
    add("A1 x C3 along the long root", [a1, sparse_tvec("C", 3, (0, 2))], abelian=False)
    add("three A1 factors", [a1, a1, a1], abelian=False, h_perp=False)
    return out

# ---------------------------------------------------------------------------
# Full classification of a concrete space
# ---------------------------------------------------------------------------

def _pair_signature(spec: AlgebraSpec, alpha: TVec, beta: TVec):
    """Weyl-invariant data of a case-III pair of roots of spec: squared
    lengths, angle, and the root counts of the plane they span and of its
    orthocomplement."""
    roots = _root_data(spec).g_roots
    la, lb = tvec_dot(spec, alpha, alpha), tvec_dot(spec, beta, beta)
    ang = root_angle(alpha, beta)
    in_plane = sum(1 for r in roots if _in_affine_span([alpha, beta], r) is not None)
    perp = sum(1 for r in roots
               if not tvec_dot(spec, r, alpha) and not tvec_dot(spec, r, beta))
    return (tuple(sorted([la, lb])), ang, in_plane, perp)


def match_case3_subcase(space: RootLevelSpace, alpha: TVec, beta: TVec) -> Subcase:
    """Find the canonical subcase with the same pair signature."""
    fam, rank, _ = space.spec.factors[space.root_data.factor(alpha)]
    sig = _pair_signature(space.spec, alpha, beta)
    rows = case3_subcases(fam, rank)
    for sc in rows:
        if _pair_signature(unit_spec(((sc.family, sc.rank),)), sc.alpha, sc.beta) == sig:
            if sc.kind == "covered":
                by = sc.payload["by"]
                sc = next(r for r in rows if r.label == by)
            return sc
    raise LookupError("no canonical subcase matches the pair signature")


def classify_space(space: RootLevelSpace) -> dict:
    """Case detection plus the matching decision procedure."""
    case = classify_case(space)
    if case != "III":
        verdict = (classify_case1 if case == "I" else classify_case2)(space)
        return {"case": case, "verdict": verdict.to_json()}
    # case III: locate a same-factor pair and match the canonical table
    factor = space.root_data.factor
    pair = next((a, b) for a, b in _case_pairs(space) if factor(a) == factor(b))
    sc = match_case3_subcase(space, *pair)
    verdict = evaluate_subcase(sc)
    return {"case": "III", "subcase": sc.describe(), "verdict": verdict.to_json()}
