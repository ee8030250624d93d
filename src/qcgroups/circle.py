"""Exact arithmetic on the circle group T = R/Z and on unions of rational intervals.

A point of T is stored as the canonical rational representative in the
window (-1/2, 1/2] (signed_residue writes any residue in that window):
equality and the distance to zero are read off the canonical
numerator/denominator pair.  All arithmetic is integer arithmetic on
arbitrary-precision ints; there is no floating point anywhere in this
module.  The array forms (signed_array, point_pairs, and the list writers
signed_residues, render_points built on them) run on int64 and serve
residues of a kernel modulus, at most 3^13; point_pairs reads the lowest
terms from a table of gcd(x, n) built from the divisors of n.

The small target sets T_m are the closed arcs of radius 1/(4m) around 0
(T_+ is T_1).  They are closed: boundary points such as 1/4 belong to
T_+, and several downstream verdicts depend on that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError, quote_input, too_long_to_print

HALF = Fraction(1, 2)


@dataclass(frozen=True, order=False)
class UnitRational:
    """A rational point of T, reduced, with numerator in (-den/2, den/2]."""

    num: int
    den: int = 1

    def __post_init__(self) -> None:
        num, den = self.num, self.den
        if den == 0:
            raise InvalidInputError("zero denominator")
        if den < 0:
            num, den = -num, -den
        num, den = _reduce_point(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def from_fraction(cls, q: Fraction | int) -> "UnitRational":
        f = Fraction(q)
        return cls(f.numerator, f.denominator)

    def __add__(self, other: "UnitRational") -> "UnitRational":
        return UnitRational(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    def __sub__(self, other: "UnitRational") -> "UnitRational":
        return self + (-other)

    def __neg__(self) -> "UnitRational":
        return UnitRational(-self.num, self.den)

    def __mul__(self, k: int) -> "UnitRational":
        if not isinstance(k, int):
            return NotImplemented
        return UnitRational(self.num * k, self.den)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return _write_fraction(self.num, self.den)


def signed_residue(x: int, n: int) -> int:
    """x mod n (n > 0) written in the window (-n/2, n/2]."""
    r = x % n
    return r if 2 * r <= n else r - n


def _reduce_point(num: int, den: int) -> tuple[int, int]:
    """num/den (den > 0) as a point of T: numerator in (-den/2, den/2], lowest terms."""
    num = signed_residue(num, den)
    g = gcd(num, den)
    return num // g, den // g


def _write_fraction(num: int, den: int) -> str:
    """num/den (den > 0, lowest terms) as "num" or "num/den"."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError as exc:
        raise too_long_to_print(max(abs(num), den)) from exc


def render_point(num: int, den: int) -> str:
    """The point num/den of T (den > 0) written as str(UnitRational(num, den)) does."""
    return _write_fraction(*_reduce_point(num, den))


def signed_array(r, n: int) -> np.ndarray:
    """[signed_residue(x, n) for x in r] as an int64 array."""
    r = np.asarray(r, dtype=np.int64) % n
    return np.where(2 * r <= n, r, r - n)


def signed_residues(r, n: int) -> list[int]:
    """[signed_residue(x, n) for x in r], computed on an int64 array."""
    return signed_array(r, n).tolist()


def _gcds(n: int) -> np.ndarray:
    """gcd(x, n) for 0 <= x <= n/2: each divisor d of n, ascending, written at the multiples of d."""
    small = [d for d in range(2, isqrt(n) + 1) if n % d == 0]
    g = np.ones(n // 2 + 1, dtype=np.int64)
    for d in sorted({n, *small, *(n // d for d in small)}):
        g[::d] = d
    return g


def point_pairs(r, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The points x/n, x in r, as _reduce_point writes them: int64 arrays (num, den).

    Each gcd is one lookup in _gcds(n) in place of np.gcd's Euclid loop;
    the table costs n/2 writes per divisor d of n, divided by d.
    """
    s = signed_array(r, n)
    g = _gcds(n).take(np.abs(s))
    return s // g, n // g


def render_points(r, n: int) -> list[str]:
    """[render_point(x, n) for x in r], from point_pairs."""
    num, den = point_pairs(r, n)
    return [f"{a}/{b}" if b != 1 else str(a) for a, b in zip(num.tolist(), den.tolist())]


def render_rational(q: Fraction | int) -> str:
    f = Fraction(q)
    return _write_fraction(f.numerator, f.denominator)


def parse_rational(text: str) -> Fraction:
    if not isinstance(text, str):
        raise InvalidInputError(f"not a rational: {text!r} (expected a string)")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"not a rational: {quote_input(text)}") from exc


def intersect_pairs(a: Sequence[tuple], b: Sequence[tuple]) -> list[tuple]:
    """Intersection of two sorted lists of disjoint closed intervals [lo, hi].

    Endpoints may be ints or Fractions.  Pieces cut from different pairs
    of inputs cannot meet, so the output is sorted and disjoint as well.
    """
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


@dataclass(frozen=True)
class RationalIntervalUnion:
    """A finite union of closed intervals with exact rational endpoints.

    Kept normalized: intervals sorted, pairwise disjoint, non-touching
    (touching closed intervals are merged on construction).
    """

    intervals: tuple[tuple[Fraction, Fraction], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[Sequence[Fraction | int]]) -> "RationalIntervalUnion":
        cleaned = []
        for lo, hi in pairs:
            lo, hi = Fraction(lo), Fraction(hi)
            if lo > hi:
                raise InvalidInputError(f"interval with lo > hi: [{lo}, {hi}]")
            cleaned.append((lo, hi))
        cleaned.sort()
        merged: list[tuple[Fraction, Fraction]] = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1]:
                prev_lo, prev_hi = merged[-1]
                merged[-1] = (prev_lo, max(prev_hi, hi))
            else:
                merged.append((lo, hi))
        return cls(tuple(merged))

    def contains(self, q: Fraction | int) -> bool:
        q = Fraction(q)
        return any(lo <= q <= hi for lo, hi in self.intervals)

    def union(self, other: "RationalIntervalUnion") -> "RationalIntervalUnion":
        return RationalIntervalUnion.from_pairs(self.intervals + other.intervals)

    def intersect(self, other: "RationalIntervalUnion") -> "RationalIntervalUnion":
        return RationalIntervalUnion(tuple(intersect_pairs(self.intervals, other.intervals)))

    def translate(self, r: Fraction | int) -> "RationalIntervalUnion":
        r = Fraction(r)
        return RationalIntervalUnion.from_pairs(
            (lo + r, hi + r) for lo, hi in self.intervals)

    def __str__(self) -> str:
        if not self.intervals:
            return "∅"
        return "∪".join(f"[{render_rational(lo)},{render_rational(hi)}]"
                        for lo, hi in self.intervals)

    def as_json(self) -> list[list[str]]:
        return [[render_rational(lo), render_rational(hi)] for lo, hi in self.intervals]


def tm_interval(m: int) -> RationalIntervalUnion:
    """T_m as an interval union in window coordinates."""
    if m < 1:
        raise InvalidInputError("T_m needs m >= 1")
    r = Fraction(1, 4 * m)
    return RationalIntervalUnion.from_pairs([(-r, r)])
