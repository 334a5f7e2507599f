"""The root data reads negatives and plane keys off positions in the
sorted root order.  The oracle is the hashing definition it replaced: an
index of the roots, each root's negative looked up in it, and the plane
key of a root the one of +-r whose first nonzero coordinate is positive."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from operator import neg
from pathlib import Path

import pytest

import flagcurv
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
    # the index holds every root once, at its position
    assert list(rd.index.items()) == list(zip(rd.g_roots, range(len(rd.g_roots))))
    # read off the positions, the maps hold the same items in the same
    # order, and so do the keys
    assert [(r, rd.factor(r)) for r in rd.index] == want["factor_of"]
    assert [(r, rd.canonical(r)) for r in rd.index] == want["canonical"]
    assert [(r, rd.negative(r)) for r in rd.index] == want["negative"]
    assert rd.keys == want["keys"]
    # a plain tuple reads the stored vector, as a sum of two roots does
    assert all(rd.canonical(tuple(r)) is rd.canonical(r) for r in rd.g_roots)
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
    assert rs.root_set == frozenset(roots) and all(r in rs for r in roots)


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


# Runs `verify --theorem 2` at rank 8 in a fresh interpreter with every
# RootSystem construction, every read of a root set and every RootData
# recorded, then prints what each RootData holds.
COLD_PROBE = """\
import contextlib, io, json
from collections import Counter
from types import MappingProxyType
from flagcurv import cli, obstruct, rootsys

built, set_reads = Counter(), []
init, root_set = rootsys.RootSystem.__post_init__, rootsys.RootSystem.root_set.func
def record(self):
    built[self.family, self.rank] += 1
    init(self)
def read(self):
    set_reads.append((self.family, self.rank))
    return root_set(self)
rootsys.RootSystem.__post_init__ = record
rootsys.RootSystem.root_set = property(read)
data, build = [], obstruct._root_data
def keep(spec):
    data.append(build(spec))
    return data[-1]
obstruct._root_data = keep
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(["verify", "--theorem", "2", "--full"])
held = [sorted(type(v).__name__ for v in vars(rd).values()
               if isinstance(v, (dict, MappingProxyType, set, frozenset))) for rd in set(data)]
print(json.dumps({"code": code, "built": sorted(built.values()), "systems": len(built),
                  "set_reads": set_reads, "held": held}))
"""


def test_a_cold_verify_builds_each_root_system_once_and_one_index_per_spec():
    """Tooling guard of the cold start, with no timing: part 2 at rank 8
    builds each (family, rank) root system once and reads no root set,
    and each spec's root data holds one hashed table, the index of
    positions, and no set."""
    src = str(Path(flagcurv.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", COLD_PROBE], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == 0 and report["systems"] > 20
    assert set(report["built"]) == {1} and report["set_reads"] == []
    assert len(report["held"]) > 40
    assert all(held == ["mappingproxy"] for held in report["held"])
