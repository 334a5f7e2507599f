"""The root data reads negatives and plane keys off positions in the
sorted root order.  The oracle is the hashing definition it replaced: an
index of the roots, each root's negative looked up in it, and the plane
key of a root the one of +-r whose first nonzero coordinate is positive."""

from fractions import Fraction
from operator import neg

import pytest

from flagcurv import obstruct
from flagcurv.cli import MAX_RANK
from flagcurv.rootsys import AlgebraSpec, build_root_system, unit_spec

FIXED = [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]
LOWEST = {"A": 1, "B": 2, "C": 3, "D": 4}
UNIT_KEYS = ([(f, n) for f, lo in LOWEST.items() for n in range(lo, MAX_RANK + 1)] + FIXED)
RELAXED_KEYS = [("B", 1), ("C", 1), ("C", 2), ("D", 3)]


def _hashing_oracle(spec: AlgebraSpec) -> dict:
    """The root data's maps by lookup: per factor, the roots of its root
    system with each negative found through an index and each plane key by
    comparison with zero, lifted to spec when spec is not the factor's unit
    spec."""
    factor_roots, factor_of, canonical, negative = [], {}, {}, {}
    for idx, ((fam, rank, _), (a, b, _)) in enumerate(zip(spec.factors, spec.blocks)):
        roots = build_root_system(fam, rank, _relaxed=True).roots
        index = {r: i for i, r in enumerate(roots)}
        neg_index = [index[tuple(map(neg, r))] for r in roots]
        zero = (0,) * len(roots[0])
        canonical_index = [i if r > zero else j for i, (r, j) in enumerate(zip(roots, neg_index))]
        if spec.units[idx] is not spec:
            pad = (0,) * a, (0,) * (spec.dim - b)
            roots = tuple(spec.tvec(pad[0] + r + pad[1]) for r in roots)
        factor_roots.append(roots)
        factor_of.update((r, idx) for r in roots)
        canonical.update(zip(roots, (roots[i] for i in canonical_index)))
        negative.update(zip(roots, (roots[i] for i in neg_index)))
    return {"factor_roots": tuple(factor_roots), "factor_of": list(factor_of.items()),
            "canonical": list(canonical.items()), "negative": list(negative.items()),
            "keys": tuple(dict.fromkeys(canonical.values()))}


def _check(spec: AlgebraSpec) -> None:
    rd = obstruct._root_data(spec)
    want = _hashing_oracle(spec)
    assert rd.factor_roots == want["factor_roots"]
    assert rd.g_roots == sum(want["factor_roots"], ())
    assert rd.root_set == frozenset(rd.g_roots)
    # the maps hold the same items in the same order, and so do the keys
    assert list(rd.factor_of.items()) == want["factor_of"]
    assert list(rd.canonical.items()) == want["canonical"]
    assert list(rd.negative.items()) == want["negative"]
    assert rd.keys == want["keys"]
    for unit, cols in zip(spec.units, rd.factor_columns):
        assert cols == tuple(zip(*build_root_system(*unit.factors[0][:2], _relaxed=True).roots))
    assert all(type(x) is int for r in rd.g_roots for x in r)


@pytest.mark.parametrize("family,rank", UNIT_KEYS + RELAXED_KEYS)
def test_the_sorted_order_gives_negatives_and_plane_keys(family, rank):
    """The invariant behind the positions: the roots are sorted, hold no
    zero, and negation reverses them; and the unit spec's root data holds
    its root system's roots as they are."""
    rs = build_root_system(family, rank, _relaxed=True)
    roots = rs.roots
    assert list(roots) == sorted(roots) and len(set(roots)) == len(roots)
    assert all(any(r) for r in roots)
    assert [tuple(map(neg, r)) for r in roots] == list(roots[::-1])
    spec = unit_spec(((family, rank),))
    _check(spec)
    assert all(r.spec is spec for r in obstruct._root_data(spec).g_roots)


@pytest.mark.parametrize("family,rank", [(f, lo + 2) for f, lo in LOWEST.items()] + FIXED)
def test_a_lifted_product_spec_keeps_the_positions(family, rank):
    """One product spec per family, the family's factor between a G2
    factor and an abelian coordinate, at a scale other than 1: the lift
    pads the factor's roots on both sides."""
    spec = AlgebraSpec((("G2", 2, 1), (family, rank, Fraction(3, 2))), 1)
    _check(spec)
    assert all(r.spec is spec for r in obstruct._root_data(spec).g_roots)


def test_a_case_two_spec_keeps_the_positions():
    """The A1 + X specs of part 2 of the survivor lists."""
    _check(unit_spec((("A", 1), ("C", 5))))
