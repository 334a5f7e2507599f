"""Classification machinery: case detection, key lemmas, propagation,
subcase tables, decision procedures, survivor lists."""

import gc
import random
import re
import weakref
from dataclasses import replace
from fractions import Fraction

import pytest

from flagcurv import obstruct
from flagcurv.coset import (
    SubalgebraSpec,
    build_coset,
    lift_root,
    orthocomplement_in_t,
    preset,
    root,
    tvec_from_parts,
)
from flagcurv.liealg import AlgebraSpec, realize
from flagcurv.rootsys import (
    QNum,
    build_root_system,
    solve_exact,
    sparse_tvec,
    t_cap_h_projection,
    tvec_dot,
    tvec_to_json,
    unit_spec,
    weyl_reflect,
    zero_tvec,
)
from flagcurv.obstruct import (
    PropagationContradiction,
    Witness,
    _lattice_root,
    _span_members,
    angle_lemma_check,
    case1_candidates,
    case2_space,
    case3_space,
    case3_subcases,
    classify_case,
    classify_case1,
    classify_case2,
    classify_space,
    enumerate_case3,
    evaluate_subcase,
    key_lemma_1_applies,
    key_lemma_2_check,
    key_lemma_2_details,
    make_root_level_space,
    propagate_assignment,
    revalidate_witness,
    root_level_from_coset,
    verify_theorem,
)


def project_to_span(spec, span, v):
    """Oracle: the orthogonal projection of v onto span(span), from its
    Gram system solved exactly."""
    out = zero_tvec(spec)
    if span:
        gram = [[tvec_dot(spec, a, b) for b in span] for a in span]
        for c, a in zip(solve_exact(gram, [tvec_dot(spec, a, v) for a in span]), span):
            out = out + a.scale(c)
    return out


# -- case detection ---------------------------------------------------------

def test_classify_case_examples():
    sp = case3_space("A", 3, sparse_tvec("A", 3, (0, 1), (3, -1)),
                     sparse_tvec("A", 3, (2, 1), (1, -1)))
    assert classify_case(sp) == "III"
    sp2 = case2_space("C", 3, sparse_tvec("C", 3, (0, 2)))
    assert classify_case(sp2) == "II"
    rls = root_level_from_coset(preset("sphere_un", 3))
    assert classify_case(rls) == "I"


def test_classify_case_rank_equality_gate():
    # trivial isotropy in SU(3): t cap m is 2-dim, so there is no root-level
    # space with a single generator w
    group = build_coset(realize(AlgebraSpec((("A", 2, Fraction(1)),))),
                        SubalgebraSpec(), name="su(3) group")
    assert len(group.t_m) == 2
    with pytest.raises(ValueError, match="rank equality"):
        root_level_from_coset(group)


def test_sphere_presentation_is_case_three():
    """so(2n-1) inside so(2n) splits short isotropy planes diagonally, so
    the sphere presentation carries a case-III pair."""
    rls = root_level_from_coset(preset("sphere_so2n", 3))
    assert classify_case(rls) == "III"


# -- key lemmas --------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: case2_space("C", 3, sparse_tvec("C", 3, (0, 2))),
    lambda: case3_space("B", 4, sparse_tvec("B", 4, (0, 1), (1, 1)),
                        sparse_tvec("B", 4, (2, -1), (3, -1))),
    lambda: root_level_from_coset(preset("sphere_un", 4)),
])
def test_pr_h_matches_projection_onto_cartan_h(make):
    # pr_h and in_t_h work along w; the oracle solves the Gram system of
    # cartan_h = w^perp instead
    sp = make()
    cartan_h = orthocomplement_in_t(sp.spec, [sp.w])
    assert cartan_h
    for r in sp.root_data.g_roots:
        assert sp.pr_h(r) == project_to_span(sp.spec, cartan_h, r)
        assert sp.in_t_h(r) == (r - project_to_span(sp.spec, cartan_h, r)).is_zero()
    assert any(sp.in_t_h(r) for r in sp.root_data.g_roots)


def test_copies_and_the_coset_share_one_projection():
    """The projection is built once per (spec, basis of t cap m): a coset
    space, its root-level space and their copies hold the same object."""
    coset = preset("sphere_un", 3)
    sp = root_level_from_coset(coset)
    assert sp.projection is coset.projection
    assert replace(sp, assignment={}).projection is sp.projection
    assert sp.pr_scale == sp.projection.scale


def test_copies_share_the_projection_tables_and_free_them():
    """The tables of (spec, w) are built in one pass on first read, shared by the
    copies of a space (propagation's among them) and freed with them:
    no cache outlives the spaces.  scaled_h follows each copy's h-roots."""
    sp = case3_space("F4", 4, sparse_tvec("F4", 4, (0, 1), (1, 1)), sparse_tvec("F4", 4, (2, -1)))
    tables = sp.tables
    assert "_one_pass" not in vars(tables)
    classify_case(sp)
    assert "_one_pass" in vars(tables)
    b3 = case3_space("B", 3, sparse_tvec("B", 3, (0, 1), (1, 1)), sparse_tvec("B", 3, (2, -1)))
    out, _ = propagate_assignment(b3)
    copy = replace(out, assignment={}, h_roots=frozenset())
    assert copy.tables is out.tables is b3.tables and copy.scaled_h == frozenset()
    assert out.scaled_h == frozenset(tuple(out.pr_scale * x for x in r) for r in out.h_roots)
    ref = weakref.ref(tables)
    del sp, tables
    gc.collect()
    assert ref() is None


def test_unequal_factor_scales_group_by_the_exact_projection():
    # A1 (scale 1) + A1 (scale 2) with w = alpha - beta: pr_h(alpha) ==
    # pr_h(beta) in the scaled form, a cross-factor pair on an h-root
    spec = AlgebraSpec((("A", 1, Fraction(1)), ("A", 1, Fraction(2))))
    alpha, beta = lift_root(spec, 0, root("A", 1, 1, -1)), lift_root(spec, 1, root("A", 1, 1, -1))
    sp = make_root_level_space(spec, alpha - beta)
    assert sp.pr_h(alpha) == sp.pr_h(beta)
    sp = make_root_level_space(spec, alpha - beta, h_roots=[sp.pr_h(alpha)])
    exact = {}
    for r in sp.root_data.g_roots:
        exact.setdefault(sp.pr_h(r), []).append(r)
    # the classes are keyed by P = c pr_h, a fixed positive multiple
    classes = sp.tables.pr_classes
    assert {sp.unscaled(p): rs for p, rs in classes.items()} == exact
    assert classify_case(sp) == "II"


def _unequal_scale_a1a1():
    spec = AlgebraSpec((("A", 1, Fraction(1)), ("A", 1, Fraction(2))))
    alpha, beta = lift_root(spec, 0, root("A", 1, 1, -1)), lift_root(spec, 1, root("A", 1, 1, -1))
    return make_root_level_space(spec, alpha - beta)


def _oracle_span_members(sp, g1, shift):
    """Roots r with r - shift in span(g1, w), one exact solve per root."""
    rows = [list(c) for c in zip(g1, sp.w)]
    out = set()
    for r in sp.root_data.g_roots:
        tgt = r if shift is None else r - shift
        if solve_exact(rows, list(tgt)) is not None:
            out.add(r)
    return out


@pytest.mark.parametrize("make,rich", [
    (lambda: case3_space("G2", 2, _lattice_root("G2", 2, 0), _lattice_root("G2", -1, 1)), False),
    (lambda: case3_space("E6", 6, sparse_tvec("E6", 6, (0, 1), (1, 1)),
                         sparse_tvec("E6", 6, (1, 1), (0, -1))), True),
    (lambda: case3_space("E7", 7, sparse_tvec("E7", 7, (0, 1), (1, 1)),
                         sparse_tvec("E7", 7, (1, 1), (0, -1))), True),
    (lambda: case2_space("G2", 2, _lattice_root("G2", 0, 2)), True),
    (_unequal_scale_a1a1, False),
], ids=["G2", "E6", "E7", "A1+G2", "A1+A1-scaled"])
def test_span_members_match_a_per_root_solve(make, rich):
    """Conditions (3) and (4) of the second key lemma, root by root: the
    projection-table lookup agrees with an exact solve for every root.  On
    a rank-two torus span(g1, w) is all of t unless g1 lies along w."""
    sp = make()
    roots = sp.root_data.g_roots
    oracle = {}

    def members(g1, shift):
        if (g1, shift) not in oracle:
            oracle[g1, shift] = _oracle_span_members(sp, g1, shift)
            assert _span_members(sp, g1, shift) == oracle[g1, shift]
        return oracle[g1, shift]

    for g1 in roots[::max(1, len(roots) // 5)]:
        for g2 in roots[1::max(1, len(roots) // 4)]:
            if g2 in (g1, -g1):
                continue
            det = key_lemma_2_details(sp, g1, g2)
            assert det[3] == (members(g1, None) <= {g1, -g1})
            assert det[4] == ((members(g1, g2) | members(g1, -g2)) <= {g2, -g2})
    sizes = {len(m) for m in oracle.values()}
    assert len(sizes) > 2 if rich else sizes == {len(roots)}


def test_key_lemma_1_examples():
    sp = case3_space("A", 3, sparse_tvec("A", 3, (0, 1), (3, -1)),
                     sparse_tvec("A", 3, (2, 1), (1, -1)))
    e12 = lift_root(sp.spec, 0, sparse_tvec("A", 3, (0, 1), (1, -1)))
    e34 = lift_root(sp.spec, 0, sparse_tvec("A", 3, (2, 1), (3, -1)))
    assert key_lemma_1_applies(sp, e12)
    assert key_lemma_1_applies(sp, e34)
    # B2 with t cap m = R e1: the affine line through e2 contains e2 +- e1
    spec = AlgebraSpec((("B", 2, Fraction(1)),))
    sp2 = make_root_level_space(spec, lift_root(spec, 0, root("B", 2, 1, 0)))
    e2 = lift_root(spec, 0, root("B", 2, 0, 1))
    assert not key_lemma_1_applies(sp2, e2)
    not_in_th = lift_root(spec, 0, root("B", 2, 1, 1))
    with pytest.raises(ValueError, match="t cap h"):
        key_lemma_1_applies(sp2, not_in_th)
    with pytest.raises(ValueError, match="not a root"):
        key_lemma_1_applies(sp2, lift_root(spec, 0, root("B", 2, 3, 0)))


CITED_PAIRS = [
    ("A", 5, (((0, 1), (3, -1)), ((2, 1), (1, -1))),
     (((0, 1), (4, -1)), ((1, 1), (5, -1)))),
    ("B", 5, (((0, 1), (1, 1)), ((2, -1), (3, -1))),
     (((0, 1), (4, 1)), ((0, 1), (4, -1)))),
    ("B", 4, (((0, 1), (1, 1)), ((2, -1),)),
     (((0, 1), (3, 1)), ((0, 1), (3, -1)))),
    ("C", 3, (((0, 2),), ((1, -1), (2, -1))), (((1, 2),), ((2, 2),))),
    ("C", 4, (((0, 1), (1, 1)), ((2, -1), (3, -1))), (((0, 2),), ((1, 2),))),
    ("C", 3, (((0, 2),), ((0, -1), (1, -1))), (((0, 1), (2, 1)), ((1, 2),))),
    ("D", 5, (((0, 1), (1, 1)), ((2, -1), (3, -1))),
     (((0, 1), (4, 1)), ((0, 1), (4, -1)))),
    ("E8", 8, (((0, 1), (1, 1)), ((2, -1), (3, -1))),
     (((0, 1), (4, 1)), ((1, 1), (5, 1)))),
]


@pytest.mark.parametrize("family,rank,pair,gammas", CITED_PAIRS)
def test_key_lemma_2_cited_pairs(family, rank, pair, gammas):
    alpha, beta = (sparse_tvec(family, rank, *p) for p in pair)
    g1, g2 = (sparse_tvec(family, rank, *g) for g in gammas)
    sp = case3_space(family, rank, alpha, beta)
    lg1, lg2 = lift_root(sp.spec, 0, g1), lift_root(sp.spec, 0, g2)
    assert key_lemma_2_check(sp, lg1, lg2)


def test_key_lemma_2_exceptional_pairs():
    h = Fraction(1, 2)
    sp = case3_space("E6", 6, sparse_tvec("E6", 6, (0, 1), (1, 1)),
                     sparse_tvec("E6", 6, (1, 1), (0, -1)))
    g1 = lift_root(sp.spec, 0, root("E6", 6, -h, h, h, h, h, QNum(0, 0, h)))
    g2 = lift_root(sp.spec, 0, root("E6", 6, -h, -h, -h, -h, -h, QNum(0, 0, h)))
    assert key_lemma_2_check(sp, g1, g2)
    sp = case3_space("E7", 7, sparse_tvec("E7", 7, (0, 1), (1, 1)),
                     sparse_tvec("E7", 7, (1, 1), (0, -1)))
    g1 = lift_root(sp.spec, 0, root("E7", 7, -h, h, h, h, h, h, QNum(0, h)))
    g2 = lift_root(sp.spec, 0, root("E7", 7, h, -h, -h, -h, h, h, QNum(0, h)))
    assert key_lemma_2_check(sp, g1, g2)
    sp = case3_space("E8", 8, sparse_tvec("E8", 8, (0, 1), (1, 1)),
                     sparse_tvec("E8", 8, (1, 1), (0, -1)))
    g1 = lift_root(sp.spec, 0, root("E8", 8, *([h] * 8)))
    g2 = lift_root(sp.spec, 0, root("E8", 8, -h, -h, -h, -h, h, h, h, h))
    assert key_lemma_2_check(sp, g1, g2)


def test_key_lemma_2_failing_pair_subcase_nine():
    sp = case3_space("B", 3, sparse_tvec("B", 3, (0, 1), (1, 1)), sparse_tvec("B", 3, (0, -1)))
    g1 = lift_root(sp.spec, 0, root("B", 3, 1, 0, 1))
    g2 = lift_root(sp.spec, 0, root("B", 3, 1, 0, -1))
    det = key_lemma_2_details(sp, g1, g2)
    assert det[1] and det[2]
    assert not key_lemma_2_check(sp, g1, g2)
    # the affine scan meets e2, violating the last uniqueness condition
    assert not det[4]


def test_key_lemma_2_needs_roots_in_t_cap_h_assigned_to_m():
    """Row D:1 at D4 is SO(8)/SO(7), a survivor, with t cap m = R e1.  The
    roots -e2-e3 and -e2+e3 lie in t cap h and are roots of the real
    isotropy so(7), but not of the seeded Delta_h; condition (1) refuses
    them, since only an 'm' assignment could put their planes in m, and
    takes them once their planes are assigned 'm'."""
    sp = case3_space("D", 4, sparse_tvec("D", 4, (0, 1), (1, 1)),
                     sparse_tvec("D", 4, (1, 1), (0, -1)))
    g1 = sparse_tvec("D", 4, (1, -1), (2, -1))
    g2 = sparse_tvec("D", 4, (1, -1), (2, 1))
    assert sp.in_t_h(g1) and sp.in_t_h(g2)
    assert g1 not in sp.h_roots and g2 not in sp.h_roots
    assert not key_lemma_2_details(sp, g1, g2)[1]
    assert not revalidate_witness(sp, Witness("key_lemma_2", {"gamma1": g1, "gamma2": g2}))
    sp.assignment.update({sp.root_data.canonical(g): "m" for g in (g1, g2)})
    assert key_lemma_2_details(sp, g1, g2)[1]


def test_key_lemma_2_input_validation():
    sp = case3_space("B", 3, sparse_tvec("B", 3, (0, 1), (1, 1)), sparse_tvec("B", 3, (0, -1)))
    g1 = lift_root(sp.spec, 0, root("B", 3, 1, 0, 1))
    with pytest.raises(ValueError, match="independent"):
        key_lemma_2_check(sp, g1, -g1)
    with pytest.raises(ValueError, match="roots"):
        key_lemma_2_check(sp, g1, lift_root(sp.spec, 0, root("B", 3, 3, 0, 0)))


def test_angle_lemma_examples():
    sp = case3_space("A", 2, sparse_tvec("A", 2, (0, 1), (1, -1)),
                     sparse_tvec("A", 2, (1, -1), (2, 1)))
    a = lift_root(sp.spec, 0, sparse_tvec("A", 2, (0, 1), (1, -1)))
    b = lift_root(sp.spec, 0, sparse_tvec("A", 2, (1, -1), (2, 1)))
    assert angle_lemma_check(sp, a, b)  # angle 2pi/3: excluded
    sp2 = case3_space("A", 3, sparse_tvec("A", 3, (0, 1), (3, -1)),
                      sparse_tvec("A", 3, (2, 1), (1, -1)))
    a2 = lift_root(sp2.spec, 0, sparse_tvec("A", 3, (0, 1), (3, -1)))
    b2 = lift_root(sp2.spec, 0, sparse_tvec("A", 3, (2, 1), (1, -1)))
    assert not angle_lemma_check(sp2, a2, b2)  # right angle: no conclusion
    g2 = case3_space("G2", 2, _lattice_root("G2", 2, 0), _lattice_root("G2", 1, 3))
    la = lift_root(g2.spec, 0, _lattice_root("G2", 2, 0))
    lb = lift_root(g2.spec, 0, _lattice_root("G2", 1, 3))
    assert angle_lemma_check(g2, la, lb)  # long pair at pi/3
    with pytest.raises(ValueError, match="hypothesis"):
        angle_lemma_check(sp2, a2, lift_root(sp2.spec, 0, sparse_tvec("A", 3, (0, 1), (1, -1))))


# -- propagation --------------------------------------------------------------

def test_propagation_contradiction_f4_subcases():
    for alpha, beta, marker in [
        (sparse_tvec("F4", 4, (0, 1), (1, 1)), sparse_tvec("F4", 4, (2, -1)), "integrality"),
        (sparse_tvec("F4", 4, (0, 1), (1, 1)), sparse_tvec("F4", 4, (1, -1)), "integrality"),
        (sparse_tvec("F4", 4, (0, 1)), sparse_tvec("F4", 4, (1, -1)), "reduced root system"),
    ]:
        sp = case3_space("F4", 4, alpha, beta)
        with pytest.raises(PropagationContradiction) as exc:
            propagate_assignment(sp)
        assert any(marker in line for line in exc.value.trace)


def test_propagation_bracket_step_recorded():
    sp = case3_space("F4", 4, sparse_tvec("F4", 4, (0, 1), (1, 1)), sparse_tvec("F4", 4, (2, -1)))
    with pytest.raises(PropagationContradiction) as excinfo:
        propagate_assignment(sp)
    trace = "\n".join(excinfo.value.trace)
    assert "first key lemma" in trace
    assert "bracket" in trace


def test_propagation_no_change_on_settled_space():
    rls = root_level_from_coset(preset("sphere_un", 3))
    out, trace = propagate_assignment(rls)
    assert out.assignment == rls.assignment
    assert out.h_roots == rls.h_roots


def test_propagation_bound_is_the_data_not_a_knob(monkeypatch):
    """A round that changes something assigns a plane or adds an h-root, so
    the fixpoint comes within (plane keys + keys in t cap h + 1) rounds.  A
    bracket rule that assigns one plane per round, the slowest a rule can
    go, takes one round per unassigned key and one more to see the
    fixpoint, 36 rounds on A8, and assigns every plane."""
    spec = AlgebraSpec((("A", 8, Fraction(1)),))
    sp = make_root_level_space(spec, sparse_tvec("A", 8, (0, 1), (8, -1)))
    keys = sp.root_data.keys
    sp.assignment[keys[0]] = "m"
    rounds = []

    def one_plane_per_round(space):
        rounds.append(space)
        nxt = next((k for k in keys if space.assignment[k] is None), None)
        if nxt is not None:
            yield keys[0], keys[1], nxt

    monkeypatch.setattr(obstruct, "_bracket_images", one_plane_per_round)
    out, trace = propagate_assignment(sp, rule_order=["bc"])
    assert len(keys) == 36 and len(rounds) == 36 and len(trace) == 35
    assert set(out.assignment.values()) == {"m"}


def test_propagation_fixpoint_order_independent():
    rules = ["a", "pin", "e", "bc", "f"]
    sp0 = case3_space("B", 3, sparse_tvec("B", 3, (0, 1), (1, 1)), sparse_tvec("B", 3, (1, 1)))
    base, _ = propagate_assignment(sp0)
    rng = random.Random(7)
    for _ in range(6):
        order = rules[:]
        rng.shuffle(order)
        out, _ = propagate_assignment(
            case3_space("B", 3, sparse_tvec("B", 3, (0, 1), (1, 1)), sparse_tvec("B", 3, (1, 1))),
            rule_order=order)
        assert out.assignment == base.assignment
        assert out.h_roots == base.h_roots
    # contradictions are found under every ordering too
    for _ in range(6):
        order = rules[:]
        rng.shuffle(order)
        with pytest.raises(PropagationContradiction):
            propagate_assignment(
                case3_space("F4", 4, sparse_tvec("F4", 4, (0, 1), (1, 1)),
                            sparse_tvec("F4", 4, (1, -1))),
                rule_order=order)


def _b2_space(assignment):
    """B2 with t cap m spanned by e1 and the h-root e2: the hat class of e2
    holds the planes of e2 and e1 +- e2, and e1 projects to zero."""
    spec = AlgebraSpec((("B", 2, Fraction(1)),))
    sp = make_root_level_space(spec, lift_root(spec, 0, root("B", 2, 1, 0)),
                               [lift_root(spec, 0, root("B", 2, 0, 1))])
    sp.assignment.update({lift_root(spec, 0, root("B", 2, *r)): kind
                          for r, kind in assignment.items()})
    return sp


def test_rule_f_pins_the_last_plane_of_a_hat_class():
    out, trace = propagate_assignment(_b2_space({(1, 1): "m", (1, -1): "m"}))
    assert trace == ["projection to t cap h vanishes: plane((1, 0)) := m",
                     "last plane of h-root (0, -1): plane((0, 1)) := h"]
    assert set(out.assignment.values()) == {"m", "h"}


def test_rule_f_rejects_an_h_root_whose_hat_class_lies_in_m():
    with pytest.raises(PropagationContradiction) as exc:
        propagate_assignment(_b2_space({(1, 1): "m", (1, -1): "m", (0, 1): "m"}))
    assert exc.value.trace[-1] == "h-root (0, -1): every plane of its hat class lies in m"


def test_a_plane_forced_against_its_assignment_is_a_contradiction():
    """[g_{e1+e2}, g_{e1}] lands in g_{e2} alone, so an m-plane e1 + e2
    against the h-plane e1 forces e2 into m, where it is assigned h."""
    with pytest.raises(PropagationContradiction) as exc:
        propagate_assignment(_b2_space({(1, 1): "m", (1, 0): "h", (0, 1): "h"}))
    assert exc.value.trace[-1] == ("bracket of plane((1, 1))=m with h-plane((1, 0)): "
                                   "plane((0, 1)) forced m but already h")


def test_the_centralizer_fact_counts_the_roots_in_t_cap_h():
    """The root_combinatorial fact of every reduction row counts the roots
    orthogonal to t' off the integer Gram forms, as the projection along t'
    does."""
    rows = [sc for fam, rank in (("B", 5), ("C", 5), ("F4", 4))
            for sc in case3_subcases(fam, rank) if sc.kind == "reduction"]
    assert {sc.family for sc in rows} == {"B", "C", "F4"}
    for sc in rows:
        spec, t_prime = sc.alpha.spec, sc.payload["t_prime"]
        roots = obstruct._root_data(spec).g_roots
        want = sum(map(t_cap_h_projection(spec, tuple(t_prime)).in_t_h, roots))
        assert obstruct._centralizer_size(spec, roots, t_prime) == want \
            == sc.payload["subsystem_size"]


# -- subcase tables ------------------------------------------------------------

def test_enumerate_case3_survivors():
    found = {v.name for fam, rank in [("A", 3), ("A", 4), ("B", 2), ("B", 3),
                                      ("B", 4), ("D", 4)]
             for _, v in enumerate_case3(fam, rank) if v.outcome == "survivor"}
    assert found == {
        "S^5 = SO(6)/SO(5)", "SU(5)/Sp(2)U(1) (Berger)", "Sp(2)/SU(2) (Berger)",
        "S^7 = Spin(7)/G2", "S^15 = Spin(9)/Spin(7)", "S^7 = SO(8)/SO(7)",
    }


def test_enumerate_case3_c3_all_excluded():
    for sc, v in enumerate_case3("C", 3):
        assert v.outcome in ("excluded", "covered")


def test_enumerate_case3_g2_rotation_witness():
    rows = enumerate_case3("G2", 2)
    rot = [v for sc, v in rows if sc.kind == "g2_rotation"]
    assert len(rot) == 1 and rot[0].outcome == "excluded"
    w = rot[0].witness
    assert w.kind == "root_combinatorial"
    sp = case3_space("G2", 2, _lattice_root("G2", 2, 0), _lattice_root("G2", -1, 1))
    assert revalidate_witness(sp, w)


def test_every_excluded_witness_revalidates():
    for fam, rank in [("A", 5), ("B", 2), ("B", 3), ("B", 4), ("B", 5),
                      ("C", 3), ("C", 4), ("D", 4), ("D", 5),
                      ("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]:
        for sc, v in enumerate_case3(fam, rank):
            if v.outcome != "excluded":
                continue
            sp = case3_space(sc.family, sc.rank, sc.alpha, sc.beta)
            assert revalidate_witness(sp, v.witness), (fam, rank, sc.label)


# kind -> (family, rank, label of a table row of that kind, its corrupted fields)
CORRUPTED_ROWS = {
    # beta := e3, at pi/2 to alpha = e1 + e2
    "angle": ("B", 3, "B:angle-pi/3", lambda sc: {"beta": sparse_tvec("B", 3, (2, 1))}),
    # the reduced pair := the row's own pi/2 pair
    "angle_reduced": ("G2", 2, "G2:ls-pi/2",
                      lambda sc: {"payload": {"alpha1": sc.alpha, "beta1": sc.beta}}),
    # gamma2 := e5 - e6, so gamma1 + gamma2 = e1 - e6 is a root
    "key_lemma_2": ("A", 5, "A:3", lambda sc: {"payload": {
        **sc.payload, "gamma2": sparse_tvec("A", 5, (4, 1), (5, -1))}}),
    "reduction": ("B", 3, "B:1", lambda sc: {"payload": {
        **sc.payload, "subsystem_size": sc.payload["subsystem_size"] + 2}}),
    "root_combinatorial": ("B", 3, "B:9", lambda sc: {"payload": {
        **sc.payload, "kl2_failed_conditions": [3]}}),
    # gamma2 := alpha, which is not orthogonal to gamma1 = alpha + 3 beta
    "g2_rotation": ("G2", 2, "G2:ls-5pi/6",
                    lambda sc: {"payload": {**sc.payload, "gamma2": sc.alpha}}),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTED_ROWS))
def test_a_corrupted_row_fails_its_replay(kind):
    """Each witness-building kind: the table row is excluded, and the same
    row with one field corrupted fails with an error naming the row."""
    family, rank, label, corrupt = CORRUPTED_ROWS[kind]
    sc = next(sc for sc in case3_subcases(family, rank) if sc.label == label)
    assert sc.kind == kind
    assert evaluate_subcase(sc).outcome == "excluded"
    with pytest.raises(AssertionError, match=re.escape(label)):
        evaluate_subcase(replace(sc, **corrupt(sc)))


# -- Weyl-orbit completeness of the tables -------------------------------------

def _coords(v):
    """The exact coordinates of a root, read back from its JSON."""
    return [QNum.from_json(x) for x in tvec_to_json(v)["factors"][0]]


def _simple_roots(rs):
    # a generic vector of the lattice: each position carries its own surd
    heavy = rs.spec.tvec(10 ** (rs.ambient_dim - i) for i in range(rs.ambient_dim))
    positive = [r for r in rs.roots if tvec_dot(rs.spec, r, heavy) > 0]
    pos = set(positive)
    simple = [r for r in positive
              if not any((r - p in pos) and (r - p != r) for p in positive
                         if p != r and (r - p) in pos)]
    return simple


@pytest.mark.parametrize("family,rank", [
    ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4), ("D", 4), ("F4", 4), ("G2", 2),
])
def test_subcase_table_covers_all_weyl_orbits(family, rank):
    """Every ordered pair of independent roots is Weyl-equivalent (allowing
    swaps and global negation) to a canonical subcase datum."""
    rs = build_root_system(family, rank)
    simple = _simple_roots(rs)
    assert len(simple) == rank
    pairs = {(a, b) for a in rs.roots for b in rs.roots if a != b and a != -b}
    table = set()
    for sc in case3_subcases(family, rank):
        table.add((sc.alpha, sc.beta))
    reached = {}
    orbit_id = 0
    for start in sorted(pairs, key=lambda p: (_coords(p[0]), _coords(p[1]))):
        if start in reached:
            continue
        orbit_id += 1
        frontier = [start]
        reached[start] = orbit_id
        members = [start]
        while frontier:
            a, b = frontier.pop()
            neighbors = [(b, a), (-a, -b)]
            for s in simple:
                neighbors.append((weyl_reflect(rs, s, a), weyl_reflect(rs, s, b)))
            for nb in neighbors:
                if nb not in reached:
                    reached[nb] = orbit_id
                    frontier.append(nb)
                    members.append(nb)
        assert any(m in table for m in members), \
            f"{family}{rank}: orbit of {start} misses the subcase table"


# -- case II --------------------------------------------------------------------

def test_classify_case2_examples():
    v = classify_case2(case2_space("A", 1, root("A", 1, 1, -1)))
    assert v.outcome == "survivor" and v.name == "S^3 = SO(4)/SO(3)"
    v = classify_case2(case2_space("C", 3, root("C", 3, 2, 0, 0)))
    assert v.outcome == "survivor" and "Sp(3)Sp(1)/Sp(2)Sp(1)" in v.name
    v = classify_case2(case2_space("B", 2, root("B", 2, 1, 0)))
    assert v.outcome == "excluded" and v.witness.kind == "key_lemma_2"
    v = classify_case2(case2_space("A", 2, root("A", 2, 1, -1, 0)))
    assert v.outcome == "survivor" and "Wilking" in v.name


def test_classify_case2_witnesses_revalidate():
    for fam, rank, beta in [("B", 2, root("B", 2, 1, 0)), ("B", 3, root("B", 3, 1, 1, 0)),
                            ("C", 3, root("C", 3, 1, 1, 0)), ("D", 4, root("D", 4, 1, 1, 0, 0)),
                            ("G2", 2, _lattice_root("G2", 2, 0))]:
        sp = case2_space(fam, rank, beta)
        v = classify_case2(sp)
        assert v.outcome == "excluded"
        assert revalidate_witness(sp, v.witness)


def test_classify_case2_rejects_other_cases():
    with pytest.raises(ValueError, match="case-II"):
        classify_case2(root_level_from_coset(preset("sphere_un", 3)))


# -- case I ----------------------------------------------------------------------

def test_classify_case1_examples():
    rls = root_level_from_coset(preset("sphere_un", 3))
    v = classify_case1(rls)
    assert v.outcome == "survivor" and v.name == "S^5 = U(3)/U(2)"
    rls = root_level_from_coset(preset("aloff_wallach", 1, 1))
    v = classify_case1(rls)
    assert v.outcome == "survivor" and "Aloff-Wallach" in v.name
    # simple transitive group: unresolved
    spec = AlgebraSpec((("A", 3, Fraction(1)),))
    w = tvec_from_parts(spec, {0: [3, -1, -1, -1]})
    sp = make_root_level_space(spec, w, h_roots=[
        lift_root(spec, 0, sparse_tvec("A", 3, (i, 1), (j, -1)))
        for i in range(1, 4) for j in range(1, 4) if i != j])
    v = classify_case1(sp)
    assert v.outcome == "unresolved"


def test_classify_case1_names_a_transitive_group_only_for_its_shape():
    """With one active simple factor and no abelian part, the verdict names
    a transitive group only when the factor's h-roots are exactly its roots
    orthogonal to w, as for SU(3)/SU(2).  SO(5)/SO(2), with h the circle of
    e2 and w = e1, keeps the roots +-e2 out of h: not a group, and no pair
    certifies it, so the verdict names no group."""
    su3 = next(sp for sp in case1_candidates(max_rank=2) if sp.name == "SU(3)/SU(2)")
    v = classify_case1(su3)
    assert v.outcome == "unresolved" and "transitive group" in v.detail
    spec = AlgebraSpec((("B", 2, Fraction(1)),))
    sp = make_root_level_space(spec, lift_root(spec, 0, sparse_tvec("B", 2, (0, 1))))
    v = classify_case1(sp)
    assert v.outcome == "unresolved" and "group" not in v.detail


def test_classify_case1_candidate_pool_outcomes():
    outcomes = {}
    for sp in case1_candidates(max_rank=4):
        outcomes[sp.name] = classify_case1(sp)
    assert outcomes["U(3)/U(2) candidate"].outcome == "survivor"
    assert outcomes["Sp(3)U(1)/Sp(2)U(1) candidate"].outcome == "survivor"
    assert outcomes["Sp(2)U(1)/Sp(1)U(1) candidate (so(5) picture)"].outcome == "survivor"
    assert outcomes["Aloff-Wallach U(3)/T^2 candidate"].outcome == "survivor"
    assert outcomes["U(3)/T^2 with degenerate parameters"].outcome == "excluded"
    assert outcomes["SU(3)/SU(2)"].outcome == "unresolved"
    assert outcomes["SU(3)-homogeneous Aloff-Wallach"].outcome == "unresolved"
    assert outcomes["two A1 factors"].outcome == "excluded"
    assert outcomes["A1 x A2 with generic slope"].outcome == "excluded"
    assert outcomes["three A1 factors"].outcome == "excluded"
    assert outcomes["U(1)xB3 non-table candidate"].outcome == "excluded"
    for name, v in outcomes.items():
        if v.outcome == "excluded" and v.witness.kind == "key_lemma_2":
            sp = next(s for s in case1_candidates(max_rank=4) if s.name == name)
            assert revalidate_witness(sp, v.witness), name


def _case1_data(factors, blocks, h_roots=(), abelian=False):
    """Root-level data with w the sum of the lifted blocks (None: a factor w
    misses), plus abelian coordinate 1 when abelian, and Delta_h the lifted
    (factor, root) pairs of h_roots with their negatives."""
    spec = unit_spec(tuple(factors), 1 if abelian else 0)
    w = tvec_from_parts(spec, abelian=[1] if abelian else [])
    for i, b in enumerate(blocks):
        if b is not None:
            w = w + lift_root(spec, i, b)
    return make_root_level_space(spec, w, h_roots=[lift_root(spec, i, r) for i, r in h_roots])


_A1 = sparse_tvec("A", 1, (0, 1), (1, -1))
_B2_E1 = sparse_tvec("B", 2, (0, 1))
_B3 = lambda *c: sparse_tvec("B", 3, *c)
_A3 = lambda *c: sparse_tvec("A", 3, *c)
_B2_BUT_E1 = [sparse_tvec("B", 2, *c) for c in ([(1, 1)], [(0, 1), (1, 1)], [(0, 1), (1, -1)])]


@pytest.mark.parametrize("data,outcome,kind,detail,gamma", [
    # w misses the second A1 and Delta_h is empty: the factor is not in h,
    # and the witness names a root of that factor
    (lambda: _case1_data([("A", 1)] * 2, [_A1, None]), "excluded", "key_lemma_1",
     "forces the whole factor into h", (1, -_A1)),
    # three active factors with an abelian part: a certifying pair
    (lambda: _case1_data([("B", 3), ("A", 1), ("A", 1)], [_B3((0, 1), (1, 1)), _A1, _A1],
                         [(0, _B3((0, 1), (1, -1))), (0, _B3((2, 1))), (1, _A1)], abelian=True),
     "excluded", "key_lemma_2", "", None),
    # an abelian part and Delta_h = +-(e1 - e2), orthogonal to no w: not the
    # U(3)/U(2) entry, whose h-roots are the roots orthogonal to w
    (lambda: _case1_data([("A", 2)], [sparse_tvec("A", 2, (0, 1), (1, 2), (2, -3))],
                         [(0, sparse_tvec("A", 2, (0, 1), (1, -1)))], abelian=True),
     "unresolved", None, "abelian component present but no table entry", None),
    # one active factor, Delta_h off the roots orthogonal to w, a certifying pair
    (lambda: _case1_data([("A", 3)], [_A3((0, 7), (1, 2), (2, -4), (3, -5))],
                         [(0, _A3((0, 1), (2, -1)))]),
     "excluded", "key_lemma_2", "", None),
    # two active factors: a pair of roots not along their torus components
    (lambda: _case1_data([("A", 1), ("B", 2)], [_A1, _B2_E1], [(1, sparse_tvec("B", 2, (1, 1)))]),
     "excluded", "key_lemma_2", "", None),
    # two B2 factors holding all but +-e1 in h: no pair, and no A1 factor
    (lambda: _case1_data([("B", 2)] * 2, [_B2_E1, _B2_E1],
                         [(i, r) for i in (0, 1) for r in _B2_BUT_E1]),
     "unresolved", None, "no A1 factor aligned", None),
], ids=["torus-fixed-factor", "three-factor-abelian-pair", "abelian-no-table-entry",
        "one-factor-pair", "two-factor-pair", "no-aligned-a1"])
def test_classify_case1_branches(data, outcome, kind, detail, gamma):
    """Each branch of classify_case1 that the candidate pool never takes,
    pinned on small data: the verdict, its witness kind and, through
    revalidate_witness, that the witness holds."""
    sp = data()
    assert classify_case(sp) == "I"
    v = classify_case1(sp)
    assert (v.outcome, v.witness and v.witness.kind) == (outcome, kind)
    assert detail in v.detail
    if gamma is not None:
        assert v.witness.payload["gamma"] == lift_root(sp.spec, *gamma)
    assert v.witness is None or revalidate_witness(sp, v.witness)


def test_classify_case1_rejects_an_abelian_only_w():
    sp = _case1_data([("A", 1)], [None], [(0, _A1)], abelian=True)
    with pytest.raises(ValueError, match="degenerate candidate"):
        classify_case1(sp)


# -- end-to-end -------------------------------------------------------------------

def test_classify_space_on_presets():
    expectations = {
        ("sphere_so2n", (4,)): ("III", "survivor"),
        ("sphere_spn_sp1", (2,)): ("II", "survivor"),
        ("aloff_wallach", (1, 1)): ("I", "survivor"),
        ("berger_sp2", ()): ("III", "survivor"),
        ("bn_excluded_subcase1", (2,)): ("III", "excluded"),
        ("a1a1_diagonal", (1,)): ("I", "excluded"),
        ("cn_excluded_subcase1", (3,)): ("III", "excluded"),
    }
    for (name, params), (case, outcome) in expectations.items():
        rls = root_level_from_coset(preset(name, *params))
        res = classify_space(rls)
        assert res["case"] == case
        assert res["verdict"]["outcome"] == outcome


def test_plane_assignment_from_matrices():
    rls = root_level_from_coset(preset("sphere_spn_sp1", 2))
    spec = rls.spec
    long1 = lift_root(spec, 0, root("C", 2, 2, 0)).canonical_sign()
    assert rls.assignment[long1] == "split"
    rls2 = root_level_from_coset(preset("bn_excluded_subcase1", 2))
    spec2 = rls2.spec
    assert rls2.assignment[lift_root(spec2, 0, root("B", 2, 1, 0)).canonical_sign()] == "m"
    assert rls2.assignment[lift_root(spec2, 0, root("B", 2, 0, 1)).canonical_sign()] == "h"
    # plane_kind is the one reading: it gives the assignment on every preset
    kinds = set()
    for name, params in [("sphere_so2n", (3,)), ("sphere_un", (3,)), ("sphere_spn_u1", (2,)),
                         ("sphere_spn_sp1", (2,)), ("aloff_wallach", (1, 2)), ("berger_sp2", ()),
                         ("bn_excluded_subcase1", (2,)), ("a1a1_diagonal", (1,)),
                         ("cn_excluded_subcase1", (3,))]:
        sp = preset(name, *params)
        assignment = sp.plane_assignment()
        for f in sp.algebra.factors:
            for r in f.plane_keys:
                kind = sp.plane_kind(f.index, r)
                assert assignment[lift_root(sp.algebra.spec, f.index, r).canonical_sign()] == kind
                assert sp.plane_m(f.index, r).shape == (2, sp.dim_m)
                kinds.add(kind)
    assert kinds == {"h", "m", "split"}
    sp = preset("sphere_spn_sp1", 2)
    assert sp.plane_kind(0, root("C", 2, 2, 0)) == "split"
    with pytest.raises(ValueError, match="not a vector of the root lattice"):
        sp.plane_m(0, long1)  # a vector of the lifted spec, not of the factor's


def test_verify_theorem_small_bound():
    rep = verify_theorem(1, max_rank=5)
    assert rep["match"]
    rep2 = verify_theorem(2, max_rank=5)
    assert rep2["match"]
    rep3 = verify_theorem(3, max_rank=5)
    assert rep3["match"] and rep3["unresolved"]


def test_root_data_builds_each_spec_once_at_rank_16():
    """Parts 1-3 at rank 16 read more than 128 specs, none of them built twice."""
    obstruct._root_data.cache_clear()
    for part in (1, 2, 3):
        assert verify_theorem(part, max_rank=16)["match"]
    info = obstruct._root_data.cache_info()
    assert info.misses == info.currsize > 128


@pytest.mark.parametrize("max_rank,excluded", [(8, (37, 12)), (12, (57, 12))])
def test_every_case2_and_case1_exclusion_replays_on_its_own_space(monkeypatch, max_rank,
                                                                   excluded):
    """Parts 2 and 3 of verify_theorem: each excluded row's witness replays
    on the space its row was decided on."""
    for part, procedure, count in zip((2, 3), ("classify_case2", "classify_case1"), excluded):
        decided = []
        run = getattr(obstruct, procedure)

        def record(space, run=run):
            decided.append((space, run(space)))
            return decided[-1][1]

        monkeypatch.setattr(obstruct, procedure, record)
        rows = verify_theorem(part, max_rank)["rows"]
        assert [v.to_json() for _, v in decided] == [v for _, v in rows]
        out = [(sp, v) for sp, v in decided if v.outcome == "excluded"]
        assert len(out) == count
        for sp, v in out:
            assert revalidate_witness(sp, v.witness), (part, sp.name)


def test_each_exclusion_is_checked_once(monkeypatch):
    """The pair search certifies by its replay: part 2 at rank 8 excludes
    37 rows, each on the first screened pair, with one key_lemma_2_check
    call apiece."""
    calls = []
    check = obstruct.key_lemma_2_check
    monkeypatch.setattr(obstruct, "key_lemma_2_check",
                        lambda *args: calls.append(args) or check(*args))
    assert verify_theorem(2, 8)["match"]
    assert len(calls) == 37


def test_each_vector_is_formatted_once(monkeypatch):
    """Parts 1-3 at rank 8 print 418 distinct (spec, vector) pairs in 1035
    _fmt calls (in a fresh process); the lattice blocks of each pair are
    formatted once."""
    obstruct._fmt.cache_clear()
    fmt, block = obstruct._fmt, obstruct.lattice_block
    printed, blocks = [], []
    monkeypatch.setattr(obstruct, "_fmt", lambda tv: printed.append(tv) or fmt(tv))
    monkeypatch.setattr(obstruct, "lattice_block", lambda *a: blocks.append(a) or block(*a))
    for part in (1, 2, 3):
        assert verify_theorem(part, max_rank=8)["match"]
    distinct = {(type(tv), tv) for tv in printed}
    assert len(printed) > 2 * len(distinct) > 0
    assert len(blocks) == sum(any(tv[a:b]) for _, tv in distinct for a, b, _ in tv.spec.blocks)


def test_a_witness_that_does_not_replay_is_refused(monkeypatch):
    """Every exclusion goes through the replaying constructor: with the
    replay refusing, each procedure raises an AssertionError naming the
    space, while a propagation row, whose run is its replay, still excludes
    and a survivor is untouched."""
    monkeypatch.setattr(obstruct, "revalidate_witness", lambda space, witness: False)
    kl2_row = next(sc for sc in case3_subcases("A", 5) if sc.label == "A:3")
    two_a1 = next(sp for sp in case1_candidates(2) if sp.name == "two A1 factors")
    for decide, name in [
        (lambda: evaluate_subcase(kl2_row), "A5 subcase A:3"),
        (lambda: classify_case2(case2_space("B", 2, root("B", 2, 1, 0), name="A1+B2")), "A1+B2"),
        (lambda: classify_case1(two_a1), "two A1 factors"),
    ]:
        with pytest.raises(AssertionError, match=re.escape(name) + ": the .* does not replay"):
            decide()
    prop = next(sc for sc in case3_subcases("B", 3) if sc.kind == "propagation")
    assert evaluate_subcase(prop).outcome == "excluded"
    assert classify_case2(case2_space("C", 3, root("C", 3, 2, 0, 0))).outcome == "survivor"
