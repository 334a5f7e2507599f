"""The boundary of the exact torus lattice of `rootsys` (which holds
AlgebraSpec, TVec and tvec_dot; they are re-exported here): lifts of roots
into t, exact input checked against the position surds, and JSON.  Neither
module imports numpy, so `verify` never loads it.
"""

from __future__ import annotations

import functools
from typing import Sequence

from .rootsys import (  # AlgebraSpec, MAX_SPEC_RANK and tvec_dot: re-exported
    MAX_SPEC_RANK,
    AlgebraSpec,
    QNum,
    TVec,
    lattice_coord,
    lattice_json,
    tvec_dot,
    unit_spec,
)

_SURD = {1: "1", 2: "sqrt2", 3: "sqrt3"}


@functools.lru_cache(maxsize=128)
def zero_tvec(spec: AlgebraSpec) -> TVec:
    return spec.tvec((0,) * spec.dim)


def lift_root(spec: AlgebraSpec, factor: int, root: TVec) -> TVec:
    """The vector of t with root, a vector of the factor's unit spec, as its
    factor-th block and zero elsewhere."""
    unit = spec.units[factor]
    if root.spec is not unit and root.spec != unit:
        raise ValueError(f"{root!r} is not on the lattice of factor {factor} of the spec")
    a, b, _ = spec.blocks[factor]
    return spec.tvec((0,) * a + root + (0,) * (spec.dim - b))


def tvec_from_parts(spec: AlgebraSpec, parts: dict = None, abelian: Sequence = ()) -> TVec:
    """Assemble a TVec from {factor_index: coordinate list} plus the leading
    abelian coordinates, each exact (int, Fraction, string or QNum).  A
    coordinate must be a rational multiple of its position's surd: any
    other number is off the lattice of t, where no closed subgroup has its
    torus (ValueError)."""
    flat = list(zero_tvec(spec))
    ab = (spec.dim - spec.abelian_dim, spec.dim, (1,) * spec.abelian_dim)
    for (a, b, k), coords, exact in [(spec.blocks[i], c, True) for i, c in (parts or {}).items()] \
            + [(ab, abelian, False)]:
        if len(coords) > b - a or exact and len(coords) != b - a:
            raise ValueError("torus vector does not match the algebra spec")
        for i, c in enumerate(coords):
            n, kc = lattice_coord(c)
            if n and kc != k[i]:
                raise ValueError(f"torus coordinate {QNum.of(c)} is not a rational "
                                 f"multiple of {_SURD[k[i]]}")
            flat[a + i] = n
    return spec.tvec(flat)


def root(family: str, rank: int, *coords) -> TVec:
    """The vector of the root lattice of (family, rank) with these exact
    coordinates, checked against the position surds like a space file."""
    return tvec_from_parts(unit_spec(((family, rank),)), {0: coords})


def tvec_to_json(tv: TVec) -> dict:
    spec = tv.spec
    return {
        "factors": [list(map(lattice_json, tv[a:b], k)) for a, b, k in spec.blocks],
        "abelian": [lattice_json(x, 1) for x in tv[spec.dim - spec.abelian_dim:]],
    }


def tvec_from_json(spec: AlgebraSpec, obj: dict) -> TVec:
    """A TVec from its JSON form; every coordinate must be a rational
    multiple of its position's surd (ValueError otherwise)."""
    factors, abelian = obj["factors"], obj.get("abelian", [])
    if len(factors) != len(spec.blocks) or len(abelian) != spec.abelian_dim:
        raise ValueError("torus vector does not match the algebra spec")
    return tvec_from_parts(
        spec, {i: [QNum.from_json(x) for x in f] for i, f in enumerate(factors)},
        [QNum.from_json(x) for x in abelian])
