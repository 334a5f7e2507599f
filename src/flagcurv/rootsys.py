"""Exact root systems of the compact simple Lie algebras and the exact
vectors of their Cartan subalgebras, on one integer lattice.

Root systems are built in the standard orthonormal-basis presentations:
A_n sits in the sum-zero hyperplane of R^{n+1}, B/C/D/F4 use rational
coordinates in R^n, E6/E7 need sqrt3/sqrt2 in their last coordinate, G2
lives in R^2 with sqrt3.  So each ambient position carries one surd, of
weight k = 3 (G2's first position, E6's last), 2 (E7's last) or 1, and a
coordinate is stored as the rational n with value n/2 * sqrt(k), an
integer for every root.  An AlgebraSpec holds the weights of its
positions and its integer Gram form; a TVec, a vector of its Cartan
subalgebra, is the flat tuple of the n's, with the tuple's equality, hash
and order (the ambient lexicographic one, as sqrt(k) > 0).  A root of a
simple factor is the TVec of the factor's unit spec, and `tvec_dot`,
`angle`, `weyl_reflect` and `is_root` reject vectors of other weights.

The lattice's boundary is here too: root lifts, exact input checked
against the position surds, and JSON; so is the one exact projection of t
to t cap h along t cap m (`t_cap_h_projection`, held as dense integer
forms), which the coset and the root-level spaces share.  Lattice
arithmetic uses only ints and Fractions.  QNum, a plain value of the field
Q(sqrt2, sqrt3), only reads the {"a","b","c","d"} coordinates of JSON
input and is the tests' oracle; `verify` never builds one, and
`lattice_block` and `lattice_json` write its printed and JSON forms.
Nothing here imports numpy.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import lcm, sqrt
from operator import add, mul, neg, sub
from typing import Sequence

_SQRT2 = sqrt(2.0)
_SQRT3 = sqrt(3.0)
_SQRT6 = sqrt(6.0)


def _frac(x) -> Fraction:
    """An exact rational from a Fraction, an int or a string.  A float or a
    bool (JSON's 0.1 or true) is no exact input: TypeError.  A decimal
    exponent past 4 digits is ValueError: Fraction builds 10**e, which takes
    seconds from e = 10**7 on."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str) and len(x.lower().partition("e")[2].replace("_", "").strip()
                                  .lstrip("+-0")) > 4:
        raise ValueError(f"the decimal exponent of {x[:30]!r} has more than 4 digits")
    if type(x) is int or isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"exact value must be a string or an integer, got {x!r}")


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _sign2(a: Fraction, b: Fraction) -> int:
    """Exact sign of a + b*sqrt2 for rational a, b."""
    sa, sb = _sign(a), _sign(b)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    # opposite signs: compare a^2 with 2 b^2
    return sa * _sign(a * a - 2 * b * b)


@dataclass(frozen=True)
class QNum:
    """Element a + b*sqrt2 + c*sqrt3 + d*sqrt6 of Q(sqrt2, sqrt3): a plain
    immutable value over four Fractions, with one general formula per
    operation.  Equality and hash are those of (a, b, c, d)."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)
    c: Fraction = Fraction(0)
    d: Fraction = Fraction(0)

    def __post_init__(self):
        for name in "abcd":
            object.__setattr__(self, name, _frac(getattr(self, name)))

    @staticmethod
    def of(x) -> "QNum":
        return x if isinstance(x, QNum) else QNum(x)

    # -- ring structure -------------------------------------------------
    def __add__(self, o) -> "QNum":
        o = QNum.of(o)
        return QNum(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __neg__(self) -> "QNum":
        return QNum(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, o) -> "QNum":
        return self + -QNum.of(o)

    def __rsub__(self, o) -> "QNum":
        return QNum.of(o) - self

    def __mul__(self, o) -> "QNum":
        o = QNum.of(o)
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        # sqrt2*sqrt3 = sqrt6, sqrt2*sqrt6 = 2*sqrt3, sqrt3*sqrt6 = 3*sqrt2
        return QNum(a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
                    a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
                    a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
                    a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2)

    __rmul__ = __mul__

    def inverse(self) -> "QNum":
        """t / (self t), with t the product of the three other conjugates
        (sqrt2, sqrt3 or both negated), so that self t is the rational
        field norm."""
        if self.is_zero():
            raise ZeroDivisionError("QNum division by zero")
        a, b, c, d = self.a, self.b, self.c, self.d
        t = QNum(a, -b, c, -d) * QNum(a, b, -c, -d) * QNum(a, -b, -c, d)
        return t * (1 / (self * t).a)

    def __truediv__(self, o) -> "QNum":
        return self * QNum.of(o).inverse()

    # -- comparisons ----------------------------------------------------
    def is_zero(self) -> bool:
        return not (self.a or self.b or self.c or self.d)

    def sign(self) -> int:
        """Exact sign by the field tower, with no float shortcut.

        Write x = p + q*sqrt3 with p = a + b*sqrt2 and q = c + d*sqrt2 in
        Q(sqrt2).  When p and q differ in sign, x has the sign of p exactly
        when p^2 > 3 q^2, an element of Q(sqrt2) decided the same way one
        level down.
        """
        a, b, c, d = self.a, self.b, self.c, self.d
        sp, sq = _sign2(a, b), _sign2(c, d)
        if sp == sq or sq == 0:
            return sp
        if sp == 0:
            return sq
        # p^2 - 3 q^2 = (a^2 + 2b^2 - 3c^2 - 6d^2) + (2ab - 6cd) sqrt2
        return sp * _sign2(a * a + 2 * b * b - 3 * c * c - 6 * d * d,
                           2 * a * b - 6 * c * d)

    def __lt__(self, o) -> bool:
        return (self - QNum.of(o)).sign() < 0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * _SQRT2 \
            + float(self.c) * _SQRT3 + float(self.d) * _SQRT6

    def __repr__(self) -> str:
        return f"QNum({self.a}, {self.b}, {self.c}, {self.d})"

    def __str__(self) -> str:
        parts = []
        for coef, tag in ((self.a, ""), (self.b, "*r2"), (self.c, "*r3"), (self.d, "*r6")):
            if coef != 0:
                parts.append(f"{coef}{tag}")
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"a": str(self.a), "b": str(self.b), "c": str(self.c), "d": str(self.d)}

    @staticmethod
    def from_json(obj: dict) -> "QNum":
        """Each of "a", "b", "c", "d" a string or an integer (TypeError
        otherwise: a float or a bool is not exact input)."""
        return QNum(obj["a"], obj["b"], obj["c"], obj["d"])


Q0 = QNum()
Q1 = QNum(1)
SQRT2 = QNum(0, 1)
SQRT3 = QNum(0, 0, 1)
SQRT6 = QNum(0, 0, 0, 1)


def _num(x):
    """A rational as an int when it is integral, so lattice tuples stay ints."""
    return x.numerator if x.denominator == 1 else x


def lattice_coord(x) -> tuple:
    """(n, k) with x = n/2 * sqrt(k), k in {1, 2, 3}.  An int, Fraction or
    string is rational and reads directly as (2x, 1); a QNum reads through
    its coefficients, and one that is not a rational multiple of 1, sqrt2
    or sqrt3 (a sum of two surds, or a multiple of sqrt6) is off the
    lattice: ValueError."""
    if not isinstance(x, QNum):
        return _num(2 * _frac(x)), 1
    parts = [(c, k) for c, k in ((x.a, 1), (x.b, 2), (x.c, 3)) if c]
    if x.d or len(parts) > 1:
        raise ValueError(f"coordinate {x} is not a rational multiple of 1, sqrt2 or sqrt3")
    c, k = parts[0] if parts else (0, 1)
    return _num(2 * c), k


# -- printing: lattice coordinates in QNum's printed and JSON forms ------------

_TAG = {1: "", 2: "*r2", 3: "*r3"}


def _half(n) -> str:
    """str(n / 2) for a rational n."""
    return (f"{n}/2" if n & 1 else str(n >> 1)) if n.__class__ is int else str(Fraction(n) / 2)


def lattice_json(n, k: int) -> dict:
    """The coordinate n/2 * sqrt(k) as QNum writes it to JSON."""
    return dict(zip("abcd", (_half(n) if j == k else "0" for j in (1, 2, 3, 6))))


def lattice_block(ns, ks) -> str:
    """Lattice coordinates n/2 * sqrt(k) as QNum prints them: "(1, -1/2*r3)"."""
    return "(" + ", ".join(_half(n) + _TAG[k] if n else "0" for n, k in zip(ns, ks)) + ")"


def _tuple_repr(items: list) -> str:
    """The repr of a tuple whose items print as the given strings."""
    return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"


_CARDINALITY = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E6": lambda n: 72,
    "E7": lambda n: 126,
    "E8": lambda n: 240,
    "F4": lambda n: 48,
    "G2": lambda n: 12,
}


def _normalize_family(family: str, rank: int) -> tuple:
    fam = family.upper()
    if fam == "E":
        fam = f"E{rank}"
    if fam in ("E6", "E7", "E8", "F4", "G2"):
        expected = int(fam[1])
        if rank != expected:
            raise ValueError(f"unsupported root system: {fam} has rank {expected}, got {rank}")
        return fam, expected
    if fam not in ("A", "B", "C", "D"):
        raise ValueError(f"unsupported root system: unknown family {family!r}")
    return fam, rank


def surd_weights(family: str, rank: int) -> tuple:
    """The surd weight k of each ambient position: 3 for the first of G2
    and the last of E6, 2 for the last of E7, 1 everywhere else."""
    fam, n = _normalize_family(family, rank)
    k = [1] * (n + 1 if fam == "A" else n)
    if fam in ("E6", "E7"):
        k[-1] = 3 if fam == "E6" else 2
    elif fam == "G2":
        k[0] = 3
    return tuple(k)


def _pairs(dim: int, stop: int, signs=((2, 2), (2, -2), (-2, 2), (-2, -2))) -> list:
    """n-vectors of the roots si e_i + sj e_j (i < j < stop, (si, sj) in signs) of R^dim."""
    out = []
    for i, j in itertools.combinations(range(stop), 2):
        for si, sj in signs:
            co = [0] * dim
            co[i], co[j] = si, sj
            out.append(co)
    return out


def _lattice_roots(fam: str, n: int) -> list:
    """The roots as n-vectors (coordinate = n/2 * sqrt(k))."""
    if fam == "A":  # ambient R^{n+1}, sum-zero subspace: e_i - e_j
        return _pairs(n + 1, n + 1, ((2, -2), (-2, 2)))
    if fam in ("B", "C", "D"):
        long = {"B": [2], "C": [4], "D": []}[fam]  # +-e_i or +-2 e_i
        return _pairs(n, n) + [[0] * i + [s] + [0] * (n - 1 - i)
                               for i in range(n) for v in long for s in (v, -v)]
    if fam == "E6":  # half-spin roots: an odd number of plus signs in all six
        signs = itertools.product((1, -1), repeat=6)
        return _pairs(6, 5) + [list(s) for s in signs if s.count(1) % 2 == 1]
    if fam == "E7":  # +-sqrt2 e7, and half roots odd in the first six
        signs = itertools.product((1, -1), repeat=7)
        return (_pairs(7, 6) + [[0] * 6 + [s] for s in (2, -2)]
                + [list(s) for s in signs if s[:6].count(1) % 2 == 1])
    if fam == "E8":
        signs = itertools.product((1, -1), repeat=8)
        return _pairs(8, 8) + [list(s) for s in signs if s.count(1) % 2 == 0]
    if fam == "F4":
        return _lattice_roots("B", 4) + [list(s) for s in itertools.product((1, -1), repeat=4)]
    # G2: (+-sqrt3, 0), (0, +-1), (+-sqrt3/2, +-3/2), (+-sqrt3/2, +-1/2)
    return ([[2 * s, 0] for s in (1, -1)] + [[0, 2 * s] for s in (1, -1)]
            + [[a, b] for a in (1, -1) for b in (3, -3, 1, -1)])


# -- algebra specs and their Cartan vectors -----------------------------------

# Largest total rank (factor ranks plus abelian_dim) of a space file: the
# largest a preset builds, sp(6) + sp(1) for sphere_spn_sp1(6).
MAX_SPEC_RANK = 7


class TVec(tuple):
    """Exact Cartan vector of one AlgebraSpec, as its flat lattice tuple.
    Each spec has its own subclass, `spec.tvec`; `factors` are the blocks as
    vectors of their factors' unit specs, `abelian` the abelian values."""

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
        spec = self.spec
        return tuple(u.tvec(self[a:b]) for u, (a, b, _) in zip(spec.units, spec.blocks))

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
        spec = self.spec
        blocks = [lattice_block(self[a:b], k) for a, b, k in spec.blocks]
        ab = [f"QNum({_half(x)}, 0, 0, 0)" for x in self[spec.dim - spec.abelian_dim:]]
        return f"TVec(factors={_tuple_repr(blocks)}, abelian={_tuple_repr(ab)})"


@dataclass(frozen=True)
class AlgebraSpec:
    """Direct-sum description: classical simple factors plus an abelian part.

    abelian_scales are positive rational weights of the Euclidean product on
    the abelian coordinates; they keep Cartan bookkeeping exact for
    presentations like u(n) = R + su(n) at every rank.  Derived, not
    compared: `blocks` ((start, stop, surd weights) per factor), `weights`
    (the surd weight of every position), `gram` (an integer weight per
    position) and `gram_den`, with tvec_dot(u, v) = sum(gram * u * v) /
    gram_den, and `tvec`, this spec's TVec class.
    """

    factors: tuple  # of (family, rank, scale: Fraction)
    abelian_dim: int = 0
    abelian_scales: tuple = ()

    def __post_init__(self):
        norm = []
        for fam, rank, scale in self.factors:
            s = _frac(scale)
            if s <= 0:
                raise ValueError("factor scale must be positive")
            norm.append((fam.upper(), int(rank), s))
        object.__setattr__(self, "factors", tuple(norm))
        if self.abelian_dim < 0:
            raise ValueError("abelian_dim must be nonnegative")
        sc = tuple(map(_frac, self.abelian_scales))
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
        derived = {"blocks": tuple(blocks), "weights": tuple(weights), "dim": len(weights),
                   "gram": tuple(s.numerator * (den // s.denominator) * k
                                 for s, k in zip(scales, weights)),
                   "gram_den": 4 * den,
                   "tvec": type("TVec", (TVec,), {"__slots__": (), "spec": self})}
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @functools.cached_property
    def units(self) -> tuple:
        """The unit spec of each factor: its roots are vectors of it."""
        return tuple(unit_spec(((fam, rank),)) for fam, rank, _ in self.factors)

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
        factors = tuple((f["family"], f["rank"], f["scale"]) for f in obj["factors"])
        return AlgebraSpec(factors, abelian_dim, tuple(obj.get("abelian_scales", [])))


_UNIT_SPECS: dict = {}


def unit_spec(factors: tuple, abelian_dim: int = 0) -> AlgebraSpec:
    """The spec of the (family, rank) factors at scale 1, plus abelian_dim
    abelian coordinates of weight 1, built once per key.  Spellings of one
    family ("e" and "E6" for rank 6) give the same spec object."""
    key = (factors, abelian_dim)
    if key not in _UNIT_SPECS:
        norm = (tuple(_normalize_family(f, r) for f, r in factors), abelian_dim)
        if norm not in _UNIT_SPECS:
            _UNIT_SPECS[norm] = AlgebraSpec(tuple((f, r, Fraction(1)) for f, r in norm[0]),
                                            abelian_dim)
        _UNIT_SPECS[key] = _UNIT_SPECS[norm]
    return _UNIT_SPECS[key]


def _same_lattice(spec: AlgebraSpec, *vectors) -> None:
    for v in vectors:
        s = getattr(v, "spec", spec)
        if s is not spec and s.weights != spec.weights:
            raise ValueError(f"vectors of different lattices: weights {s.weights}, {spec.weights}")


def tvec_dot(spec: AlgebraSpec, u: Sequence, v: Sequence) -> Fraction:
    """Bi-invariant inner product on t, exact (per-factor scales enter).  A
    TVec argument must have the surd weights of spec (ValueError)."""
    _same_lattice(spec, u, v)
    return Fraction(sum(map(mul, map(mul, spec.gram, u), v)), spec.gram_den)


# -- the lattice's boundary: root lifts, exact input, JSON --------------------

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
    torus (ValueError).  An int (not a bool) reads directly as n = 2c."""
    flat = [0] * spec.dim
    ab = (spec.dim - spec.abelian_dim, spec.dim, (1,) * spec.abelian_dim)
    for (a, b, k), coords, exact in [(spec.blocks[i], c, True) for i, c in (parts or {}).items()] \
            + [(ab, abelian, False)]:
        if len(coords) > b - a or exact and len(coords) != b - a:
            raise ValueError("torus vector does not match the algebra spec")
        for i, c in enumerate(coords):
            n, kc = (2 * c, 1) if type(c) is int else lattice_coord(c)
            if n and kc != k[i]:
                raise ValueError(f"torus coordinate {_half(n)}{_TAG[kc]} is not a rational "
                                 f"multiple of {_SURD[k[i]]}")
            flat[a + i] = n
    return spec.tvec(flat)


def root(family: str, rank: int, *coords) -> TVec:
    """The vector of the root lattice of (family, rank) with these exact
    coordinates, checked against the position surds like a space file."""
    return tvec_from_parts(unit_spec(((family, rank),)), {0: coords})


def sparse_tvec(family: str, rank: int, *idx_coef) -> TVec:
    """The vector of the root lattice of (family, rank) with the rational
    coordinate c at each (index, c) given, each a position of weight 1, and
    zero elsewhere: sparse_tvec("B", 2, (0, 1)) is e1."""
    spec = unit_spec(((family, rank),))
    co = [0] * spec.dim
    for i, c in idx_coef:
        if spec.weights[i] != 1:
            raise ValueError(f"position {i} of {family}{rank} carries a surd")
        co[i] = 2 * c
    return spec.tvec(co)


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


# -- root systems ------------------------------------------------------------

@dataclass(frozen=True)
class RootSystem:
    """Root system with exact coordinates and deterministic ordering; the
    roots are TVecs of `spec`, the unit spec of (family, rank)."""

    family: str
    rank: int
    roots: tuple  # in the ambient lexicographic order

    def __post_init__(self):
        spec = unit_spec(((self.family, self.rank),))
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "ambient_dim", spec.dim)
        object.__setattr__(self, "root_set", frozenset(self.roots))

    def __contains__(self, v) -> bool:
        return v in self.root_set

    def __len__(self) -> int:
        return len(self.roots)

    def to_json(self) -> dict:
        k = self.spec.weights
        return {
            "family": self.family,
            "rank": self.rank,
            "roots": [list(map(lattice_json, r, k)) for r in self.roots],
        }


def build_root_system(family: str, rank: int, _relaxed: bool = False) -> RootSystem:
    """Build the root system of a compact simple Lie algebra.

    Validity ranges: A n>=1, B n>=2, C n>=3, D n>=4, E6-E8, F4, G2.  The
    `_relaxed` flag admits the low-rank coincidences C1=A1, C2=B2, D3=A3
    needed internally by matrix presets; it is not part of the public
    contract.  sqrt(k) > 0, so the n-vectors sort in the ambient order.
    """
    fam, n = _normalize_family(family, rank)
    mins = {"A": 1, "B": 2, "C": 3, "D": 4}
    relaxed_mins = {"A": 1, "B": 1, "C": 1, "D": 3}
    if fam in mins and n < (relaxed_mins[fam] if _relaxed else mins[fam]):
        raise ValueError(f"unsupported root system: {fam}{n}")
    tvec = unit_spec(((fam, n),)).tvec
    rs = RootSystem(fam, n, tuple(map(tvec, sorted(_lattice_roots(fam, n)))))
    if not _relaxed:
        assert len(rs) == _CARDINALITY[fam](n)
    return rs


def is_root(rs: RootSystem, v: TVec) -> bool:
    """Exact membership test."""
    _same_lattice(rs.spec, v)
    return v in rs


_ANGLES = {
    # (4*cos^2, sign of cos) -> tag
    (4, 1): "0",
    (3, 1): "pi/6",
    (2, 1): "pi/4",
    (1, 1): "pi/3",
    (0, 0): "pi/2",
    (1, -1): "2pi/3",
    (2, -1): "3pi/4",
    (3, -1): "5pi/6",
    (4, -1): "pi",
}


def angle(u: TVec, v: TVec) -> str:
    """Symbolic angle between two vectors, computed from the exact cosine.

    Only the crystallographic angles 0, pi/6, pi/4, pi/3, pi/2, 2pi/3,
    3pi/4, 5pi/6, pi are recognized.
    """
    if u.is_zero() or v.is_zero():
        raise ValueError("angle undefined for zero vector")
    spec = u.spec
    num = tvec_dot(spec, u, v)
    key = (4 * num * num / (tvec_dot(spec, u, u) * tvec_dot(spec, v, v)), (num > 0) - (num < 0))
    if key not in _ANGLES:
        raise ValueError("angle outside the crystallographic set")
    return _ANGLES[key]


def weyl_reflect(rs: RootSystem, alpha: TVec, v: TVec) -> TVec:
    """Reflection of v in the hyperplane orthogonal to the root alpha."""
    if not is_root(rs, alpha):
        raise ValueError("reflection axis is not a root")
    return v - alpha.scale(2 * tvec_dot(rs.spec, v, alpha) / tvec_dot(rs.spec, alpha, alpha))


def root_sum_status(rs: RootSystem, alpha: TVec, beta: TVec) -> str:
    """Classify membership of alpha+beta and alpha-beta in the root system.

    Returns one of 'neither', 'plus_only', 'minus_only', 'both'.
    """
    if not (is_root(rs, alpha) and is_root(rs, beta)):
        raise ValueError("inputs must be roots")
    ab = tvec_dot(rs.spec, alpha, beta)
    if ab * ab == tvec_dot(rs.spec, alpha, alpha) * tvec_dot(rs.spec, beta, beta):
        raise ValueError("inputs must be linearly independent")  # Cauchy-Schwarz equality
    plus = (alpha + beta) in rs
    minus = (alpha - beta) in rs
    if plus and minus:
        return "both"
    if plus:
        return "plus_only"
    if minus:
        return "minus_only"
    return "neither"


# ---------------------------------------------------------------------------
# Exact linear algebra over Q, used by the torus, coset and classification
# layers (lattice coordinates are rational).  Vectors are lists of ints or
# Fractions.
# ---------------------------------------------------------------------------

def _row_reduce(m: list, ncol: int) -> list:
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968), in place, of the rational rows m over their first ncol columns
    (further columns ride along).  Each row is first cleared of
    denominators, and every update (p x - f y) / (previous pivot) divides
    exactly, so the entries stay integers.  Returns the pivot columns in
    order; pivot rows end up first, each with zeros in the other pivot
    columns."""
    for i, row in enumerate(m):
        d = lcm(*(x.denominator for x in row))
        m[i] = [int(x * d) for x in row]
    nrow, prev, pivots = len(m), 1, []
    for c in range(ncol):
        r = len(pivots)
        if r == nrow:
            break
        pr = next((rr for rr in range(r, nrow) if m[rr][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        p, top = m[r][c], m[r]
        for rr in range(nrow):
            if rr != r:
                f = m[rr][c]
                m[rr] = [(p * x - f * y) // prev for x, y in zip(m[rr], top)]
        prev = p
        pivots.append(c)
    return pivots


def solve_exact(rows: Sequence[Sequence], rhs: Sequence):
    """Solve a small exact rational linear system; returns None when
    inconsistent.

    `rows` are equations (one per coordinate), columns are unknowns.  When
    the system is underdetermined a particular solution with free unknowns
    set to zero is returned.
    """
    m = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    ncol = len(rows[0]) if m else 0
    pivots = _row_reduce(m, ncol)
    if any(row[ncol] for row in m[len(pivots):]):
        return None
    sol = [0] * ncol
    for i, c in enumerate(pivots):
        sol[c] = _num(Fraction(m[i][ncol], m[i][c]))
    return sol


def exact_nullspace(rows: Sequence[Sequence]) -> list:
    """Basis of the solution space of A x = 0 over Q, one vector per free
    column (1 there, 0 in the other free columns)."""
    m = [list(row) for row in rows]
    ncol = len(m[0]) if m else 0
    pivots = _row_reduce(m, ncol)
    basis = []
    for fc in range(ncol):
        if fc in pivots:
            continue
        vec = [0] * ncol
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = _num(Fraction(-m[i][fc], m[i][pc]))
        basis.append(vec)
    return basis


def exact_inverse(rows: Sequence[Sequence]) -> list:
    """Exact inverse of a small square rational matrix."""
    n = len(rows)
    m = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    if len(_row_reduce(m, n)) < n:
        raise ArithmeticError("matrix is singular")
    return [[_num(Fraction(x, row[i])) for x in row[n:]] for i, row in enumerate(m)]


# -- the projection of t onto t cap h along t cap m ---------------------------

@dataclass(frozen=True, eq=False)
class Projection:
    """P(v) = c v - sum_j D(w_j, v) u_j, where D is the integer Gram form
    of the spec, the w_j are integral multiples of a basis of t cap m, G =
    [D(w_i, w_j)], c is the least positive integer with c G^-1 integral
    and u = c G^-1 w.  So P = c pr_h, the projection to t cap h along
    t cap m times c, and P is integral on the lattice.  One w gives c =
    D(w, w) and u = w; an empty basis gives the identity."""

    spec: AlgebraSpec
    scale: int     # c
    terms: tuple   # per j: the form gram * w_j and u_j, both dense

    def scaled(self, v) -> tuple:
        """P(v), integral for a lattice v."""
        out = tuple(map(mul, v, repeat(self.scale)))
        for form, u in self.terms:
            d = sum(map(mul, form, v))
            if d:
                out = tuple(map(sub, out, map(mul, u, repeat(d))))
        return out

    def unscaled(self, p) -> TVec:
        """The vector p / c of t (the inverse of the scaling in P)."""
        c = self.scale
        return self.spec.tvec(Fraction(x, c) if x % c else x // c for x in p)

    def pr_h(self, v) -> TVec:
        """The exact projection of v to t cap h along t cap m."""
        return self.unscaled(self.scaled(v))

    def in_t_h(self, v) -> bool:
        """Whether v lies in t cap h, i.e. is orthogonal to t cap m."""
        for form, _ in self.terms:
            if sum(map(mul, form, v)):
                return False
        return True


@functools.lru_cache(maxsize=1024)
def t_cap_h_projection(spec: AlgebraSpec, basis: tuple) -> Projection:
    """The projection P of spec's t along t cap m = span(basis), built once
    per (spec, basis); a dependent basis raises ArithmeticError."""
    ws = []
    for b in basis:
        d = lcm(*(x.denominator for x in b))
        ws.append(tuple(int(x * d) for x in b))
    forms = [tuple(map(mul, spec.gram, w)) for w in ws]
    if len(ws) == 1:  # G = [D(w, w)], so c = D(w, w) and u = w
        c = sum(map(mul, forms[0], ws[0]))
        if not c:
            raise ArithmeticError("matrix is singular")
        return Projection(spec, c, ((forms[0], ws[0]),))
    inv = exact_inverse([[sum(map(mul, f, w)) for w in ws] for f in forms])
    c = lcm(*(x.denominator for row in inv for x in row))
    terms = []
    for f, row in zip(forms, inv):
        u = [0] * spec.dim  # u_j = sum_k (c G^-1)_jk w_k
        for a, w in zip(row, ws):
            a = c // a.denominator * a.numerator
            u = [y + a * x for y, x in zip(u, w)]
        terms.append((f, tuple(u)))
    return Projection(spec, c, tuple(terms))
