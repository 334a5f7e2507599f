"""The projection tables of a root-level space, built in one pass over the
roots, against a rebuild root by root.

For (spec, w) the pass gives root -> P(root) = c pr_h(root), the classes of
roots with equal P and the roots in t cap h; the space reads its h-roots at
the scale of P and their negatives off the same data.  Each is rebuilt
here per root through `Projection.pr_h` and `tvec_dot`, on every simple
family at ranks 1-8 and on direct sums with unequal scales and an abelian
part, at several w.  A counting guard checks that building and classifying
a space projects each root once and builds no root's negative.
"""

import functools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flagcurv import obstruct, rootsys
from flagcurv.obstruct import (
    ProjectionTables,
    case2_space,
    classify_case1,
    classify_case2,
    make_root_level_space,
)
from flagcurv.rootsys import AlgebraSpec, sparse_tvec, tvec_dot, unit_spec

SIMPLE = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(1, 9)]
          + [("C", r) for r in range(1, 9)] + [("D", r) for r in range(3, 9)]
          + [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)])
SPECS = [unit_spec((f,)) for f in SIMPLE] + [
    AlgebraSpec((("A", 2, Fraction(1)), ("B", 3, Fraction(2, 3)), ("G2", 2, Fraction(3))),
                abelian_dim=2, abelian_scales=(Fraction(1), Fraction(5, 2))),
    AlgebraSpec((("E6", 6, Fraction(1, 2)), ("C", 3, Fraction(1))), abelian_dim=1),
]
SPEC_IDS = [f"{f}{r}" for f, r in SIMPLE] + ["A2+B3+G2+R2", "E6+C3+R"]


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
@settings(max_examples=3, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_pass_tables_match_a_per_root_rebuild(spec, data):
    w = spec.tvec(data.draw(st.lists(st.integers(-3, 3), min_size=spec.dim, max_size=spec.dim)
                            .filter(any), label="w"))
    roots = obstruct._root_data(spec).g_roots
    ww = tvec_dot(spec, w, w)
    pr_h = {r: r - w.scale(tvec_dot(spec, w, r) / ww) for r in roots}
    t_h = {r for r in roots if not tvec_dot(spec, w, r)}
    # Delta_h: projections of roots (a root in t cap h is its own), perhaps all of t cap h
    picks = data.draw(st.lists(st.sampled_from(roots), max_size=4), label="h")
    h = [pr_h[r] for r in picks if any(pr_h[r])]
    h_perp = data.draw(st.booleans(), label="h_perp")
    sp = make_root_level_space(spec, w, h, h_perp=h_perp)
    c, tables = sp.pr_scale, sp.tables

    assert all(sp.projection.pr_h(r) == pr_h[r] for r in roots)
    assert list(tables.pr_roots) == list(roots)
    assert all(p == tuple(c * x for x in pr_h[r]) for r, p in tables.pr_roots.items())
    classes = {}
    for r in roots:
        classes.setdefault(pr_h[r], []).append(r)
    assert [(sp.unscaled(p), rs) for p, rs in tables.pr_classes.items()] == list(classes.items())
    assert tables.t_h == t_h
    assert all(sp.in_t_h(r) == (r in t_h) for r in roots)
    negative = sp.root_data.negative
    assert all(negative(r) == -r for r in roots)
    assert sp.h_roots == set(h) | {-v for v in h} | (t_h if h_perp else set())
    assert sp.scaled_h == {tuple(c * x for x in v) for v in sp.h_roots}


def test_the_pass_reads_only_the_block_of_each_factor():
    """A root of one factor projects through w's block there alone: with w
    zero on a factor, that factor's roots lie in t cap h with P(r) = c r."""
    spec = SPECS[-2]
    a, b, _ = spec.blocks[1]
    w = spec.tvec(tuple(0 if a <= i < b else i % 3 - 1 for i in range(spec.dim)))
    sp = make_root_level_space(spec, w)
    b3 = sp.root_data.factor_roots[1]
    assert set(b3) <= sp.tables.t_h
    assert all(sp.tables.pr_roots[r] == tuple(sp.pr_scale * x for x in r) for r in b3)


def _count_projections(monkeypatch, projected, negated):
    one_pass = ProjectionTables._one_pass.func

    def counted_pass(tables):
        projected.update(tables.root_data.g_roots)
        return one_pass(tables)

    prop = functools.cached_property(counted_pass)
    prop.__set_name__(ProjectionTables, "_one_pass")
    monkeypatch.setattr(ProjectionTables, "_one_pass", prop)
    for name in ("scaled", "in_t_h"):
        def counted(self, v, _f=getattr(rootsys.Projection, name)):
            projected[v] += 1
            return _f(self, v)
        monkeypatch.setattr(rootsys.Projection, name, counted)
    neg = rootsys.TVec.__neg__

    def counted_neg(self):
        negated[self] += 1
        return neg(self)

    monkeypatch.setattr(rootsys.TVec, "__neg__", counted_neg)


@pytest.mark.parametrize("make,classify", [
    (lambda: case2_space("B", 3, sparse_tvec("B", 3, (0, 1))), classify_case2),
    (lambda: obstruct._case1_space("U(1)xB4", [sparse_tvec("B", 4, (0, 1))]), classify_case1),
], ids=["case-II A1+B3", "case-I U(1)xB4"])
def test_each_root_is_projected_once_and_no_negative_is_built(monkeypatch, make, classify):
    """Building and classifying a space projects every root of g exactly
    once, in the pass of its tables: Delta_h, the t cap h tests, scaled_h
    and the key-lemma scans read that pass, and no root's negative is built
    anew.  Each space is built once first, so the per-(family, rank) and
    per-spec data exist; a second build still makes its own tables."""
    verdict = classify(make()).to_json()
    projected, negated = Counter(), Counter()
    _count_projections(monkeypatch, projected, negated)
    space = make()
    assert classify(space).to_json() == verdict and verdict["witness"]["kind"] == "key_lemma_2"
    roots = space.root_data.g_roots
    assert {r: projected[r] for r in roots} == dict.fromkeys(roots, 1)
    assert not set(negated) & set(roots)
