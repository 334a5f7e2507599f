"""Exact torus bookkeeping on the integer lattice of `rootsys`.

AlgebraSpec is a direct sum of compact simple factors and an abelian part;
a TVec is a vector of its Cartan subalgebra t.  A TVec is one flat tuple:
the factor blocks, then the abelian coordinates, each stored as the
rational n whose value is n/2 * sqrt(k) for the position's surd weight k
(1 on the abelian part).  Lifted roots are tuples of ints.  The spec holds
the weights and the Gram form, so tvec_dot is the rational sum of
scale * k * u * v / 4, and since TVec subclasses tuple, equality, hashing
and the ambient lexicographic order are the tuple's own.  Q(sqrt2, sqrt3)
appears only in the printed form and the JSON of a TVec.  With `rootsys`
this is all the exact classifier needs; neither imports numpy, so `verify`
never loads it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, mul, neg, sub
from typing import Sequence

from .rootsys import QNum, RootVector, _num, lattice_coord, surd_weights

# Largest total rank (factor ranks plus abelian_dim) of a space file: the
# largest a preset builds, sp(6) + sp(1) for sphere_spn_sp1(6).
MAX_SPEC_RANK = 7

_SURD = {1: "1", 2: "sqrt2", 3: "sqrt3"}


class TVec(tuple):
    """Exact Cartan vector of one AlgebraSpec, as its flat lattice tuple.
    Each spec has its own subclass, `spec.tvec`, which carries the spec;
    `factors` and `abelian` are the per-factor RootVectors and the abelian
    coordinate values."""

    __slots__ = ()
    spec: "AlgebraSpec"

    def __add__(self, o) -> "TVec":
        return type(self)(map(add, self, o))

    def __sub__(self, o) -> "TVec":
        return type(self)(map(sub, self, o))

    def __neg__(self) -> "TVec":
        return type(self)(map(neg, self))

    def scale(self, c) -> "TVec":
        c = Fraction(c)
        return type(self)(_num(c * x) for x in self)

    @property
    def factors(self) -> tuple:
        return tuple(RootVector(self[a:b], k) for a, b, k in self.spec.blocks)

    @property
    def abelian(self) -> tuple:
        spec = self.spec
        return tuple(_num(Fraction(x) / 2) for x in self[spec.dim - spec.abelian_dim:])

    def is_zero(self) -> bool:
        return not any(self)

    def canonical_sign(self) -> "TVec":
        """The one of +-self whose first nonzero coordinate is positive."""
        return -self if next((x for x in self if x), 0) < 0 else self

    def __repr__(self) -> str:
        return f"TVec(factors={self.factors!r}, abelian={tuple(map(QNum.of, self.abelian))!r})"


@dataclass(frozen=True)
class AlgebraSpec:
    """Direct-sum description: classical simple factors plus an abelian part.

    abelian_scales are positive rational weights of the Euclidean product on
    the abelian coordinates; they keep Cartan bookkeeping exact for
    presentations like u(n) = R + su(n) at every rank.  Derived, not
    compared: `blocks` ((start, stop, surd weights) per factor), `gram` (an
    integer weight per position) and `gram_den`, with
    tvec_dot(u, v) = sum(gram * u * v) / gram_den, and `tvec`, this spec's
    TVec class.
    """

    factors: tuple  # of (family, rank, scale: Fraction)
    abelian_dim: int = 0
    abelian_scales: tuple = ()

    def __post_init__(self):
        norm = []
        for fam, rank, scale in self.factors:
            s = scale if isinstance(scale, Fraction) else Fraction(scale)
            if s <= 0:
                raise ValueError("factor scale must be positive")
            norm.append((fam.upper(), int(rank), s))
        object.__setattr__(self, "factors", tuple(norm))
        if self.abelian_dim < 0:
            raise ValueError("abelian_dim must be nonnegative")
        sc = tuple(Fraction(s) for s in self.abelian_scales)
        if not sc:
            sc = tuple(Fraction(1) for _ in range(self.abelian_dim))
        if len(sc) != self.abelian_dim or any(s <= 0 for s in sc):
            raise ValueError("abelian_scales must list one positive weight per abelian coordinate")
        object.__setattr__(self, "abelian_scales", sc)
        blocks, weights, scales = [], [], []
        for fam, rank, s in self.factors:
            k = surd_weights(fam, rank)
            blocks.append((len(weights), len(weights) + len(k), k))
            weights += k
            scales += [s] * len(k)
        weights += [1] * self.abelian_dim
        scales += sc
        den = lcm(*(s.denominator for s in scales))
        derived = {"blocks": tuple(blocks), "dim": len(weights),
                   "gram": tuple(int(s * den) * k for s, k in zip(scales, weights)),
                   "gram_den": 4 * den,
                   "tvec": type("TVec", (TVec,), {"__slots__": (), "spec": self})}
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def to_json(self):
        return {
            "factors": [
                {"family": f, "rank": r, "scale": str(s)} for f, r, s in self.factors
            ],
            "abelian_dim": self.abelian_dim,
            "abelian_scales": [str(s) for s in self.abelian_scales],
        }

    @staticmethod
    def from_json(obj) -> "AlgebraSpec":
        """The spec of a space file.  Ranks are positive integers and
        abelian_dim a nonnegative one (JSON true is not 1), of total at most
        MAX_SPEC_RANK, checked before anything is built."""
        ranks = [f["rank"] for f in obj["factors"]]
        abelian_dim = obj.get("abelian_dim", 0)
        for what, n, lo in [("rank", r, 1) for r in ranks] + [("abelian_dim", abelian_dim, 0)]:
            if type(n) is not int or n < lo:
                raise ValueError(f"{what} must be an integer >= {lo}, got {n!r}")
        if sum(ranks) + abelian_dim > MAX_SPEC_RANK:
            raise ValueError(f"total rank {sum(ranks) + abelian_dim} (factor ranks plus "
                             f"abelian_dim) above the cap {MAX_SPEC_RANK}")
        factors = tuple((f["family"], f["rank"], Fraction(f["scale"])) for f in obj["factors"])
        scales = tuple(Fraction(s) for s in obj.get("abelian_scales", []))
        return AlgebraSpec(factors, abelian_dim, scales)


def tvec_dot(spec: AlgebraSpec, u: Sequence, v: Sequence) -> Fraction:
    """Bi-invariant inner product on t, exact (per-factor scales enter)."""
    return Fraction(sum(map(mul, map(mul, spec.gram, u), v)), spec.gram_den)


@functools.lru_cache(maxsize=128)
def zero_tvec(spec: AlgebraSpec) -> TVec:
    return spec.tvec((0,) * spec.dim)


def lift_root(spec: AlgebraSpec, factor: int, root: RootVector) -> TVec:
    """The vector of t with root as its factor-th block, zero elsewhere."""
    a, b, k = spec.blocks[factor]
    if root.ambient_dim != b - a or any(x and w != kk for x, w, kk in zip(root.n, root.k, k)):
        raise ValueError(f"{root} is not on the lattice of factor {factor} of the spec")
    return spec.tvec((0,) * a + root.n + (0,) * (spec.dim - b))


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


def tvec_to_json(tv: TVec) -> dict:
    return {
        "factors": [f.to_json() for f in tv.factors],
        "abelian": [QNum.of(x).to_json() for x in tv.abelian],
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
