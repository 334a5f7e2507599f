"""Exact root systems of the compact simple Lie algebras.

Coordinates live in the real quartic field Q(sqrt2, sqrt3); every sign,
order, membership, reflection and angle computation in this module is
exact, and the float view of a value (`float(q)`, `RootVector.floats`)
exists only for the matrix layers.  Root systems are
built in the standard orthonormal-basis presentations: A_n sits in the
sum-zero hyperplane of R^{n+1}, B/C/D/F4 use rational coordinates in R^n,
E6/E7 need sqrt3/sqrt2 in their last coordinate, G2 lives in R^2 with sqrt3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from operator import attrgetter
from typing import Sequence

_SQRT2 = sqrt(2.0)
_SQRT3 = sqrt(3.0)
_SQRT6 = sqrt(6.0)

_F0 = Fraction(0)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected rational, got {type(x).__name__}")


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


def _add0(x: Fraction, y: Fraction) -> Fraction:
    """Sum of two irrational coefficients, zero kept as the shared _F0."""
    if x is _F0:
        return y
    if y is _F0:
        return x
    return (x + y) or _F0


class QNum:
    """Element a + b*sqrt2 + c*sqrt3 + d*sqrt6 of Q(sqrt2, sqrt3).

    Immutable: the coefficients are read-only properties over private
    slots, the way `Fraction` guards its numerator.  A zero coefficient of
    sqrt2, sqrt3 or sqrt6 is always the shared `_F0` object, so rationality
    is three identity tests and rational operands take one-Fraction fast
    paths.  The hash is cached and equals hash((a, b, c, d)).
    """

    __slots__ = ("_a", "_b", "_c", "_d", "_hash")

    def __init__(self, a=_F0, b=_F0, c=_F0, d=_F0):
        self._a = _frac(a)
        self._b = _frac(b) or _F0
        self._c = _frac(c) or _F0
        self._d = _frac(d) or _F0
        self._hash = None

    a = property(attrgetter("_a"))
    b = property(attrgetter("_b"))
    c = property(attrgetter("_c"))
    d = property(attrgetter("_d"))

    @staticmethod
    def of(x) -> "QNum":
        if isinstance(x, QNum):
            return x
        return _make(_frac(x), _F0, _F0, _F0)

    def __eq__(self, o):
        if o.__class__ is not QNum:
            return NotImplemented
        return (self._a, self._b, self._c, self._d) == (o._a, o._b, o._c, o._d)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            # hash((a, b, c, d)) from the coefficient hashes: a zero
            # coefficient hashes to 0 and an integer to its own hash
            h = self._hash = hash(tuple(
                0 if x is _F0 else hash(x.numerator) if x.denominator == 1 else hash(x)
                for x in (self._a, self._b, self._c, self._d)))
        return h

    # -- ring structure -------------------------------------------------
    def __add__(self, o) -> "QNum":
        if o.__class__ is not QNum:
            o = QNum.of(o)
        b1, c1, d1 = self._b, self._c, self._d
        b2, c2, d2 = o._b, o._c, o._d
        if b1 is _F0 and c1 is _F0 and d1 is _F0 and b2 is _F0 and c2 is _F0 and d2 is _F0:
            return _make(self._a + o._a, _F0, _F0, _F0)
        return _make(self._a + o._a, _add0(b1, b2), _add0(c1, c2), _add0(d1, d2))

    __radd__ = __add__

    def __neg__(self) -> "QNum":
        b, c, d = self._b, self._c, self._d
        if b is _F0 and c is _F0 and d is _F0:
            return _make(-self._a, _F0, _F0, _F0)
        return _make(-self._a, -b or _F0, -c or _F0, -d or _F0)

    def __sub__(self, o) -> "QNum":
        if o.__class__ is not QNum:
            o = QNum.of(o)
        b2, c2, d2 = o._b, o._c, o._d
        if self._b is _F0 and self._c is _F0 and self._d is _F0 \
                and b2 is _F0 and c2 is _F0 and d2 is _F0:
            return _make(self._a - o._a, _F0, _F0, _F0)
        return self + (-o)

    def __rsub__(self, o) -> "QNum":
        return QNum.of(o) - self

    def __mul__(self, o) -> "QNum":
        if o.__class__ is not QNum:
            o = QNum.of(o)
        a1, b1, c1, d1 = self._a, self._b, self._c, self._d
        a2, b2, c2, d2 = o._a, o._b, o._c, o._d
        if b1 is _F0 and c1 is _F0 and d1 is _F0:
            if b2 is _F0 and c2 is _F0 and d2 is _F0:
                return _make(a1 * a2, _F0, _F0, _F0)
            return o._scaled(a1)
        if b2 is _F0 and c2 is _F0 and d2 is _F0:
            return self._scaled(a2)
        # sqrt2*sqrt3 = sqrt6, sqrt2*sqrt6 = 2*sqrt3, sqrt3*sqrt6 = 3*sqrt2
        return _make(
            a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
            (a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2)) or _F0,
            (a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2)) or _F0,
            (a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2) or _F0,
        )

    __rmul__ = __mul__

    def _scaled(self, r: Fraction) -> "QNum":
        """self * r for a rational r."""
        if not r:
            return Q0
        b, c, d = self._b, self._c, self._d
        return _make(self._a * r, _F0 if b is _F0 else b * r,
                     _F0 if c is _F0 else c * r, _F0 if d is _F0 else d * r)

    def _conj2(self) -> "QNum":
        # sqrt2 -> -sqrt2 (and hence sqrt6 -> -sqrt6)
        return QNum(self._a, -self._b, self._c, -self._d)

    def _conj3(self) -> "QNum":
        # sqrt3 -> -sqrt3 (and hence sqrt6 -> -sqrt6)
        return QNum(self._a, self._b, -self._c, -self._d)

    def inverse(self) -> "QNum":
        if self.is_zero():
            raise ZeroDivisionError("QNum division by zero")
        if self.is_rational():
            return _make(1 / self._a, _F0, _F0, _F0)
        t = self._conj2() * self._conj3() * self._conj2()._conj3()
        n = self * t  # rational: the field norm
        assert n.is_rational()
        return t._scaled(1 / n._a)

    def __truediv__(self, o) -> "QNum":
        return self * QNum.of(o).inverse()

    def __rtruediv__(self, o) -> "QNum":
        return QNum.of(o) * self.inverse()

    # -- comparisons ----------------------------------------------------
    def is_zero(self) -> bool:
        return self._b is _F0 and self._c is _F0 and self._d is _F0 and not self._a

    def is_rational(self) -> bool:
        return self._b is _F0 and self._c is _F0 and self._d is _F0

    def sign(self) -> int:
        """Exact sign by the field tower, with no float shortcut.

        Write x = p + q*sqrt3 with p = a + b*sqrt2 and q = c + d*sqrt2 in
        Q(sqrt2).  When p and q differ in sign, x has the sign of p exactly
        when p^2 > 3 q^2, an element of Q(sqrt2) decided the same way one
        level down.
        """
        a, b, c, d = self._a, self._b, self._c, self._d
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

    def __le__(self, o) -> bool:
        return (self - QNum.of(o)).sign() <= 0

    def __float__(self) -> float:
        if self._b is _F0 and self._c is _F0 and self._d is _F0:
            return float(self._a)
        return float(self._a) + float(self._b) * _SQRT2 \
            + float(self._c) * _SQRT3 + float(self._d) * _SQRT6

    def __repr__(self) -> str:
        return f"QNum({self._a}, {self._b}, {self._c}, {self._d})"

    def __str__(self) -> str:
        parts = []
        for coef, tag in ((self._a, ""), (self._b, "*r2"), (self._c, "*r3"), (self._d, "*r6")):
            if coef != 0:
                parts.append(f"{coef}{tag}")
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"a": str(self._a), "b": str(self._b), "c": str(self._c), "d": str(self._d)}

    @staticmethod
    def from_json(obj: dict) -> "QNum":
        return QNum(Fraction(obj["a"]), Fraction(obj["b"]), Fraction(obj["c"]), Fraction(obj["d"]))


_new_qnum = object.__new__


def _make(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> QNum:
    """Internal constructor: Fraction coefficients, zero b/c/d as _F0."""
    q = _new_qnum(QNum)
    q._a = a
    q._b = b
    q._c = c
    q._d = d
    q._hash = None
    return q


Q0 = QNum()
Q1 = QNum(Fraction(1))
QHALF = QNum(Fraction(1, 2))
SQRT2 = QNum(Fraction(0), Fraction(1))
SQRT3 = QNum(Fraction(0), Fraction(0), Fraction(1))
SQRT6 = QNum(Fraction(0), Fraction(0), Fraction(0), Fraction(1))


@dataclass(frozen=True)
class RootVector:
    """Vector in the ambient coordinate space of a root system."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(QNum.of(x) for x in self.coords))

    def __hash__(self) -> int:
        # cached; the value is the dataclass hash, so set order is unchanged
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.coords,))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def ambient_dim(self) -> int:
        return len(self.coords)

    def __add__(self, o: "RootVector") -> "RootVector":
        self._check(o)
        return RootVector(tuple(x + y for x, y in zip(self.coords, o.coords)))

    def __sub__(self, o: "RootVector") -> "RootVector":
        self._check(o)
        return RootVector(tuple(x - y for x, y in zip(self.coords, o.coords)))

    def __neg__(self) -> "RootVector":
        return RootVector(tuple(-x for x in self.coords))

    def scale(self, c) -> "RootVector":
        c = QNum.of(c)
        return RootVector(tuple(c * x for x in self.coords))

    def dot(self, o: "RootVector") -> QNum:
        self._check(o)
        out = Q0
        for x, y in zip(self.coords, o.coords):
            if not (x.is_zero() or y.is_zero()):
                out = out + x * y
        return out

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.coords)

    def _check(self, o: "RootVector"):
        if self.ambient_dim != o.ambient_dim:
            raise ValueError("dimension mismatch")

    def canonical_sign(self) -> "RootVector":
        """The one of +-self whose first nonzero coordinate is positive."""
        return -self if leading_sign(self.coords) < 0 else self

    def __repr__(self) -> str:
        return "(" + ", ".join(str(x) for x in self.coords) + ")"

    def floats(self) -> tuple:
        return tuple(float(x) for x in self.coords)

    def to_json(self) -> list:
        return [x.to_json() for x in self.coords]

    @staticmethod
    def from_json(obj: list) -> "RootVector":
        return RootVector(tuple(QNum.from_json(x) for x in obj))


def leading_sign(coords) -> int:
    """Exact sign of the first nonzero coordinate; 0 for the zero vector."""
    for x in coords:
        if not x.is_zero():
            return x.sign()
    return 0


def lex_sorted(items) -> list:
    """Vectors (anything with exact `coords`) in the exact lexicographic
    order of their coordinate tuples.  The few distinct coordinate values
    are ranked once by the exact comparison, so the sort itself compares
    integer ranks."""
    items = list(items)
    values = sorted({x for it in items for x in it.coords})
    rank = {x: i for i, x in enumerate(values)}
    return sorted(items, key=lambda it: tuple(rank[x] for x in it.coords))


def rv(*coords) -> RootVector:
    """Shorthand root-vector constructor accepting ints/Fractions/QNums."""
    return RootVector(tuple(QNum.of(c) for c in coords))


_FAMILIES = ("A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2")

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


def _classical_roots(fam: str, n: int) -> list:
    roots = []
    if fam == "A":
        # ambient R^{n+1}, sum-zero subspace
        for i in range(n + 1):
            for j in range(n + 1):
                if i != j:
                    co = [Q0] * (n + 1)
                    co[i] = Q1
                    co[j] = -Q1
                    roots.append(RootVector(tuple(co)))
        return roots
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    co = [Q0] * n
                    co[i] = QNum.of(si)
                    co[j] = QNum.of(sj)
                    roots.append(RootVector(tuple(co)))
    if fam == "B":
        for i in range(n):
            for s in (1, -1):
                co = [Q0] * n
                co[i] = QNum.of(s)
                roots.append(RootVector(tuple(co)))
    elif fam == "C":
        for i in range(n):
            for s in (2, -2):
                co = [Q0] * n
                co[i] = QNum.of(s)
                roots.append(RootVector(tuple(co)))
    return roots


def _exceptional_roots(fam: str) -> list:
    roots = []
    h = Fraction(1, 2)
    if fam == "E6":
        for i in range(5):
            for j in range(i + 1, 5):
                for si in (1, -1):
                    for sj in (1, -1):
                        co = [Q0] * 6
                        co[i] = QNum.of(si)
                        co[j] = QNum.of(sj)
                        roots.append(RootVector(tuple(co)))
        # half-spin roots: last coordinate +-(sqrt3)/2, odd number of plus
        # signs over all six coefficients
        for signs in itertools.product((1, -1), repeat=5):
            for s6 in (1, -1):
                plus = sum(1 for s in signs if s > 0) + (1 if s6 > 0 else 0)
                if plus % 2 == 1:
                    co = [QNum(h * s) for s in signs]
                    co.append(QNum(Fraction(0), Fraction(0), h * s6))
                    roots.append(RootVector(tuple(co)))
    elif fam == "E7":
        for i in range(6):
            for j in range(i + 1, 6):
                for si in (1, -1):
                    for sj in (1, -1):
                        co = [Q0] * 7
                        co[i] = QNum.of(si)
                        co[j] = QNum.of(sj)
                        roots.append(RootVector(tuple(co)))
        for s7 in (1, -1):
            co = [Q0] * 6 + [QNum(Fraction(0), Fraction(s7))]
            roots.append(RootVector(tuple(co)))
        # half roots with an odd number of plus signs among the first six
        for signs in itertools.product((1, -1), repeat=6):
            if sum(1 for s in signs if s > 0) % 2 == 1:
                for s7 in (1, -1):
                    co = [QNum(h * s) for s in signs]
                    co.append(QNum(Fraction(0), h * s7))
                    roots.append(RootVector(tuple(co)))
    elif fam == "E8":
        for i in range(8):
            for j in range(i + 1, 8):
                for si in (1, -1):
                    for sj in (1, -1):
                        co = [Q0] * 8
                        co[i] = QNum.of(si)
                        co[j] = QNum.of(sj)
                        roots.append(RootVector(tuple(co)))
        for signs in itertools.product((1, -1), repeat=8):
            if sum(1 for s in signs if s > 0) % 2 == 0:
                roots.append(RootVector(tuple(QNum(h * s) for s in signs)))
    elif fam == "F4":
        roots.extend(_classical_roots("B", 4))
        for signs in itertools.product((1, -1), repeat=4):
            roots.append(RootVector(tuple(QNum(h * s) for s in signs)))
    elif fam == "G2":
        r3 = Fraction(1)
        pts = []
        for s in (1, -1):
            pts.append((QNum(Fraction(0), Fraction(0), r3 * s), Q0))          # (+-sqrt3, 0)
            pts.append((Q0, QNum.of(s)))                                       # (0, +-1)
        for s1 in (1, -1):
            for s2 in (1, -1):
                half_r3 = QNum(Fraction(0), Fraction(0), Fraction(s1, 2))
                pts.append((half_r3, QNum(Fraction(3 * s2, 2))))               # (+-sqrt3/2, +-3/2)
                pts.append((half_r3, QNum(Fraction(s2, 2))))                   # (+-sqrt3/2, +-1/2)
        roots = [RootVector(t) for t in pts]
    return roots


@dataclass(frozen=True)
class RootSystem:
    """Root system with exact coordinates and deterministic ordering."""

    family: str
    rank: int
    roots: tuple  # RootVectors in exact lexicographic order
    ambient_dim: int

    def __post_init__(self):
        object.__setattr__(self, "_root_set", frozenset(self.roots))

    def __contains__(self, v: RootVector) -> bool:
        return v in self._root_set

    def __len__(self) -> int:
        return len(self.roots)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "rank": self.rank,
            "roots": [r.to_json() for r in self.roots],
        }

    @staticmethod
    def from_json(obj: dict) -> "RootSystem":
        roots = tuple(RootVector.from_json(r) for r in obj["roots"])
        dim = roots[0].ambient_dim if roots else 0
        return RootSystem(obj["family"], obj["rank"], roots, dim)


def build_root_system(family: str, rank: int, _relaxed: bool = False) -> RootSystem:
    """Build the root system of a compact simple Lie algebra.

    Validity ranges: A n>=1, B n>=2, C n>=3, D n>=4, E6-E8, F4, G2.  The
    `_relaxed` flag admits the low-rank coincidences C1=A1, C2=B2, D3=A3
    needed internally by matrix presets; it is not part of the public
    contract.
    """
    fam, n = _normalize_family(family, rank)
    mins = {"A": 1, "B": 2, "C": 3, "D": 4}
    relaxed_mins = {"A": 1, "B": 1, "C": 1, "D": 3}
    if fam in mins:
        lo = relaxed_mins[fam] if _relaxed else mins[fam]
        if n < lo:
            raise ValueError(f"unsupported root system: {fam}{n}")
        roots = _classical_roots(fam, n)
        dim = n + 1 if fam == "A" else n
    else:
        roots = _exceptional_roots(fam)
        dim = {"E6": 6, "E7": 7, "E8": 8, "F4": 4, "G2": 2}[fam]
    roots = lex_sorted(set(roots))
    rs = RootSystem(fam, n, tuple(roots), dim)
    if not _relaxed:
        assert len(rs) == _CARDINALITY[fam](n)
    return rs


def is_root(rs: RootSystem, v: RootVector) -> bool:
    """Exact membership test."""
    if v.ambient_dim != rs.ambient_dim:
        raise ValueError("dimension mismatch")
    return v in rs


_ANGLES = {
    # (4*cos^2 as Fraction, sign of cos) -> tag
    (Fraction(4), 1): "0",
    (Fraction(3), 1): "pi/6",
    (Fraction(2), 1): "pi/4",
    (Fraction(1), 1): "pi/3",
    (Fraction(0), 0): "pi/2",
    (Fraction(1), -1): "2pi/3",
    (Fraction(2), -1): "3pi/4",
    (Fraction(3), -1): "5pi/6",
    (Fraction(4), -1): "pi",
}


def angle(u: RootVector, v: RootVector) -> str:
    """Symbolic angle between two vectors, computed from the exact cosine.

    Only the crystallographic angles 0, pi/6, pi/4, pi/3, pi/2, 2pi/3,
    3pi/4, 5pi/6, pi are recognized.
    """
    if u.is_zero() or v.is_zero():
        raise ValueError("angle undefined for zero vector")
    num = u.dot(v)
    cos2x4 = QNum.of(4) * num * num / (u.dot(u) * v.dot(v))
    if not cos2x4.is_rational():
        raise ValueError("angle outside the crystallographic set")
    key = (cos2x4.a, num.sign())
    if key not in _ANGLES:
        raise ValueError("angle outside the crystallographic set")
    return _ANGLES[key]


def weyl_reflect(rs: RootSystem, alpha: RootVector, v: RootVector) -> RootVector:
    """Reflection of v in the hyperplane orthogonal to the root alpha."""
    if not is_root(rs, alpha):
        raise ValueError("reflection axis is not a root")
    coef = QNum.of(2) * v.dot(alpha) / alpha.dot(alpha)
    return v - alpha.scale(coef)


def root_sum_status(rs: RootSystem, alpha: RootVector, beta: RootVector) -> str:
    """Classify membership of alpha+beta and alpha-beta in the root system.

    Returns one of 'neither', 'plus_only', 'minus_only', 'both'.
    """
    if not (is_root(rs, alpha) and is_root(rs, beta)):
        raise ValueError("inputs must be roots")
    if _proportional(alpha, beta):
        raise ValueError("inputs must be linearly independent")
    plus = (alpha + beta) in rs
    minus = (alpha - beta) in rs
    if plus and minus:
        return "both"
    if plus:
        return "plus_only"
    if minus:
        return "minus_only"
    return "neither"


def _proportional(u: RootVector, v: RootVector) -> bool:
    """Whether u and v are exactly proportional (u, v nonzero)."""
    for x, y in zip(u.coords, v.coords):
        if not y.is_zero():
            c = x / y
            return all((a - c * b).is_zero() for a, b in zip(u.coords, v.coords))
        if not x.is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# Exact linear algebra over Q(sqrt2, sqrt3), used by the coset and
# classification layers.  Vectors are plain tuples of QNum.
# ---------------------------------------------------------------------------

def _row_reduce(m: list, ncol: int) -> list:
    """Gauss-Jordan elimination, in place, of the row lists m over their
    first ncol columns (further columns ride along); returns the pivot
    columns in order.  Pivot rows end up first, with a unit pivot."""
    nrow = len(m)
    pivots = []
    for c in range(ncol):
        r = len(pivots)
        if r == nrow:
            break
        pr = next((rr for rr in range(r, nrow) if not m[rr][c].is_zero()), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for rr in range(nrow):
            if rr != r and not m[rr][c].is_zero():
                f = m[rr][c]
                m[rr] = [x - f * y for x, y in zip(m[rr], m[r])]
        pivots.append(c)
    return pivots


def solve_exact(rows: Sequence[Sequence[QNum]], rhs: Sequence[QNum]):
    """Solve a small exact linear system; returns None when inconsistent.

    `rows` are equations (one per coordinate), columns are unknowns.  When
    the system is underdetermined a particular solution with free unknowns
    set to zero is returned.
    """
    m = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    ncol = len(rows[0]) if m else 0
    pivots = _row_reduce(m, ncol)
    if any(not row[ncol].is_zero() for row in m[len(pivots):]):
        return None
    sol = [Q0] * ncol
    for i, c in enumerate(pivots):
        sol[c] = m[i][ncol]
    return sol


def exact_nullspace(rows: Sequence[Sequence[QNum]]) -> list:
    """Basis of the solution space of A x = 0 over Q(sqrt2, sqrt3)."""
    m = [list(row) for row in rows]
    ncol = len(m[0]) if m else 0
    pivots = _row_reduce(m, ncol)
    basis = []
    for fc in range(ncol):
        if fc in pivots:
            continue
        vec = [Q0] * ncol
        vec[fc] = Q1
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][fc]
        basis.append(vec)
    return basis


def exact_inverse(rows: Sequence[Sequence[QNum]]) -> list:
    """Exact inverse of a small square matrix over Q(sqrt2, sqrt3)."""
    n = len(rows)
    m = [list(row) + [Q1 if i == j else Q0 for j in range(n)]
         for i, row in enumerate(rows)]
    if len(_row_reduce(m, n)) < n:
        raise ArithmeticError("matrix is singular")
    return [row[n:] for row in m]
