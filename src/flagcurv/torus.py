"""Exact torus bookkeeping: AlgebraSpec (a direct sum of compact simple
factors and an abelian part) and TVec (an exact vector of its Cartan
subalgebra t over Q(sqrt2, sqrt3)).  With `rootsys` it is all that the
exact classifier needs; neither imports numpy, so `verify` never loads it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .rootsys import Q0, QNum, RootVector, leading_sign, rv

# Largest total rank (factor ranks plus abelian_dim) of a space file: the
# largest a preset builds, sp(6) + sp(1) for sphere_spn_sp1(6).
MAX_SPEC_RANK = 7


@dataclass(frozen=True)
class AlgebraSpec:
    """Direct-sum description: classical simple factors plus an abelian part.

    abelian_scales are positive rational weights of the Euclidean product on
    the abelian coordinates; they keep Cartan bookkeeping exact for
    presentations like u(n) = R + su(n) at every rank.
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


@dataclass(frozen=True)
class TVec:
    """Exact Cartan vector: one coordinate block per factor plus abelian
    coordinates.  A-factor blocks live in ambient sum-zero coordinates."""

    factors: tuple  # of RootVector
    abelian: tuple  # of QNum

    def __post_init__(self):
        object.__setattr__(self, "abelian", tuple(QNum.of(x) for x in self.abelian))

    def __add__(self, o: "TVec") -> "TVec":
        return TVec(
            tuple(a + b for a, b in zip(self.factors, o.factors)),
            tuple(a + b for a, b in zip(self.abelian, o.abelian)),
        )

    def __sub__(self, o: "TVec") -> "TVec":
        return TVec(
            tuple(a - b for a, b in zip(self.factors, o.factors)),
            tuple(a - b for a, b in zip(self.abelian, o.abelian)),
        )

    def __neg__(self) -> "TVec":
        return TVec(tuple(-a for a in self.factors), tuple(-a for a in self.abelian))

    def scale(self, c) -> "TVec":
        c = QNum.of(c)
        return TVec(
            tuple(a.scale(c) for a in self.factors),
            tuple(c * a for a in self.abelian),
        )

    def __hash__(self) -> int:
        # cached; the value is the dataclass hash, so set order is unchanged
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.factors, self.abelian))
            object.__setattr__(self, "_hash", h)
        return h

    @functools.cached_property
    def coords(self) -> tuple:
        """All exact coordinates in one tuple, factor blocks then abelian:
        the key of the one lexicographic order on torus vectors."""
        return tuple(x for f in self.factors for x in f.coords) + self.abelian

    def with_coords(self, coords) -> "TVec":
        """The TVec of the same shape with the given flat coordinates."""
        it = iter(coords)
        factors = tuple(RootVector(tuple(itertools.islice(it, f.ambient_dim)))
                        for f in self.factors)
        return TVec(factors, tuple(it))

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.coords)

    def canonical_sign(self) -> "TVec":
        """The one of +-self whose first nonzero coordinate is positive."""
        return -self if leading_sign(self.coords) < 0 else self


def tvec_dot(spec: AlgebraSpec, u: TVec, v: TVec) -> QNum:
    """Bi-invariant inner product on t, exact (per-factor scales enter)."""
    out = Q0
    for (fam, rank, scale), a, b in zip(spec.factors, u.factors, v.factors):
        ab = a.dot(b)
        if not ab.is_zero():
            out = out + QNum.of(scale) * ab
    for s, x, y in zip(spec.abelian_scales, u.abelian, v.abelian):
        if not (x.is_zero() or y.is_zero()):
            out = out + QNum.of(s) * x * y
    return out


@functools.lru_cache(maxsize=128)
def zero_tvec(spec: AlgebraSpec) -> TVec:
    factors = []
    for fam, rank, _ in spec.factors:
        dim = rank + 1 if fam == "A" else rank
        factors.append(RootVector(tuple([Q0] * dim)))
    return TVec(tuple(factors), tuple([Q0] * spec.abelian_dim))


def lift_root(spec: AlgebraSpec, factor: int, root: RootVector) -> TVec:
    base = zero_tvec(spec)
    return TVec(base.factors[:factor] + (root,) + base.factors[factor + 1:], base.abelian)


def tvec_from_parts(spec: AlgebraSpec, parts: dict = None, abelian: Sequence = ()) -> TVec:
    """Assemble a TVec from {factor_index: coordinate list} plus abelian."""
    base = zero_tvec(spec)
    factors = list(base.factors)
    for idx, coords in (parts or {}).items():
        factors[idx] = rv(*coords)
    ab = list(base.abelian)
    for k, x in enumerate(abelian):
        ab[k] = QNum.of(x)
    return TVec(tuple(factors), tuple(ab))


def tvec_to_json(tv: TVec) -> dict:
    return {
        "factors": [f.to_json() for f in tv.factors],
        "abelian": [x.to_json() for x in tv.abelian],
    }


def tvec_from_json(spec: AlgebraSpec, obj: dict) -> TVec:
    factors = tuple(RootVector.from_json(f) for f in obj["factors"])
    abelian = tuple(QNum.from_json(x) for x in obj.get("abelian", []))
    base = zero_tvec(spec)
    if len(factors) != len(base.factors) or len(abelian) != len(base.abelian):
        raise ValueError("torus vector does not match the algebra spec")
    return TVec(factors, abelian)
