"""Exact quasi-convexity computations in R for finite rational sets.

The dual of R is R itself with pairing (y, x) -> yx mod 1, so the polar
of a finite rational set S is a countable union of closed intervals that
repeats with period D, the common denominator of S: shifting y by D moves
every yx by an integer.  One period is stored exactly.  With y = D*t it
is D times the circle polar of the integer characters c = D*|x| on the
window t in [0, 1], so polar_R keeps duality.polar_sweep_pairs on it.

Hull membership is decidable: the shifts k*D*z mod 1 are the multiples
j/N, N = denominator(D*z), so z is in the hull iff z * (one period) + j/N
stays inside T_+ mod 1 for every j.  On the sweep's integer pairs over
M = v*L (z = u/v) the good shifts of each interval form one arc, so
PeriodicPolar.member finds the first bad j in closed form, one pass per
interval whatever N is; Fractions are built only for the witness.

The full hull is decided on integers, without leaving R.  Write S = P/D
with P integers and g = gcd(P): S generates qZ, q = g/D, and S = q*Q
with Q = P/g integers of gcd 1.  Multiplying by q is an automorphism of
R, so hull_R(S) = q*hull_R(Q), and the rest runs on Q alone.  Q generates
Z and every y in Z is in its polar, so a hull point z has k*z in T_+ for
every k.  The only subgroup of T inside T_+ is {0} and the hull lies in
[-J, J], J = max|Q|, so z = j is an integer with |j| <= J.  Its shifts k*z
are integers, so j is in the hull iff [j*x, j*y] lies in one window
[(4k-1)L/4, (4k+1)L/4] for every pair (x, y) of Q's polar.  hull_R tests
j = 0..J against the pairs block by block, as duality.polar_residues does,
in int64 while 4*(J+1)*L < 2^62 and in Python ints past that.  The
candidates are the signed residues of Z(2J+1), bounded by MAX_MODULUS
before the polar is built; the sweep's characters are |Q| <= J, so the
same bound holds the sweep to at most J+1 pieces per character.  2J+1
never exceeds the modulus N of the grid that holds a scaled copy a*S in
T with a*max|S| < 1/2 (a*q = m/N with m >= 1, so 2J*m < N).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import itemgetter
from typing import Optional

import numpy as np

from .circle import RationalIntervalUnion, render_rational
from .duality import _BLOCK, MAX_MODULUS, in_t_plus, polar_sweep_pairs
from .errors import InvalidInputError, describe_int

QUARTER = Fraction(1, 4)


@dataclass(frozen=True)
class RealFiniteSet:
    """A finite set of exact rationals in R, built from any iterable of rationals."""

    points: frozenset[Fraction]

    def __post_init__(self) -> None:
        points = frozenset(Fraction(p) for p in self.points)
        if not points:
            raise InvalidInputError("empty set")
        object.__setattr__(self, "points", points)

    @property
    def common_denominator(self) -> int:
        return lcm(*(p.denominator for p in self.points))


@dataclass(frozen=True)
class PeriodicPolar:
    """A period-D union of closed intervals; one period is the pairs' [x*D/L, y*D/L].

    An interval reaching the right edge D denotes the same points as one
    starting at 0 shifted by the period; contains() accounts for that.
    """

    period: Fraction
    pairs: tuple[tuple[int, int], ...]
    L: int

    @cached_property
    def one_period(self) -> RationalIntervalUnion:
        D, L = self.period.numerator, self.L
        return RationalIntervalUnion(tuple((Fraction(x * D, L), Fraction(y * D, L))
                                           for x, y in self.pairs))

    def contains(self, y: Fraction | int) -> bool:
        """y in the polar: one bisection over the integer pairs; one_period is not built."""
        y, L = Fraction(y), self.L
        den = y.denominator * self.period.numerator
        num = y.numerator * L % (den * L)               # y mod D as num/den over [0, L)
        i = bisect_right(self.pairs, num // den, key=itemgetter(0)) - 1
        return ((i >= 0 and num <= self.pairs[i][1] * den)
                or (num == 0 and self.pairs[-1][1] == L))      # the right edge is 0 again

    def member(self, z: Fraction) -> HullMembership:
        """z in the hull of any set with this polar, with a re-verified witness on Out."""
        D = self.period
        n = (D * z).denominator             # kDz mod 1 hits j/n, all j
        c, M = z.numerator * D.numerator, z.denominator * self.L   # z*x*D/L = c*x/M
        lo, hi = (0, 1) if c >= 0 else (1, 0)    # the ends of each image, in order
        bad = [(j, i) for i, p in enumerate(self.pairs)
               if (j := _first_bad_shift(c * p[lo], c * p[hi], n, M)) is not None]
        if not bad:
            return HullMembership(True)
        j, i = min(bad)                     # smallest j, ties to the lower interval
        a, b = Fraction(c * self.pairs[i][lo], M), Fraction(c * self.pairs[i][hi], M)
        s = Fraction(j, n)
        k_j = j * pow((D * z).numerator, -1, n) % n  # k_j D z = s mod 1
        y = (_bad_point_in(a + s, b + s) - s) / z + k_j * D
        # re-verify before reporting, independently of the search above
        if not self.contains(y):
            raise RuntimeError("witness fell outside the polar; implementation bug")
        if in_t_plus((w := y * z).numerator, w.denominator):
            raise RuntimeError("witness does not exclude; implementation bug")
        return HullMembership(False, y)

    def as_json(self) -> dict:
        return {"period": render_rational(self.period),
                "intervals": self.one_period.as_json()}


@dataclass(frozen=True)
class HullMembership:
    """In (witness None) or Out with a polar character y such that yz leaves T_+."""

    inside: bool
    witness: Optional[Fraction] = None

    def as_json(self) -> dict:
        if self.inside:
            return {"membership": "In"}
        return {"membership": "Out", "witness": render_rational(self.witness)}


def polar_R(S: RealFiniteSet) -> PeriodicPolar:
    """{y : yx in T_+ for every x in S}, exactly, one period at a time."""
    D = S.common_denominator            # all zero: no characters, pairs ((0, 4),) over 4
    pairs, L = polar_sweep_pairs({abs(x * D).numerator for x in S.points if x}, 0, 1)
    return PeriodicPolar(Fraction(D), tuple(pairs), L)


def _first_bad_shift(a: int, b: int, n: int, M: int) -> Optional[int]:
    """Smallest j in [0, n) with [a/M, b/M] + j/n not inside T_+ + Z, or None.

    Over M (4 | M) the good shifts form the arc [g0, g1] + MZ of length
    M/2 - (b - a).  With g0 <= 0 <= g1 < M, the first shift past g1 is bad
    unless it is in the next copy [g0 + M, g1 + M], holding every j/n < 1.
    """
    if 2 * (b - a) > M:
        return 0
    g1 = (M // 4 - b) % M
    g0 = g1 - (M // 2 - (b - a))
    if g0 > 0:
        return 0
    j1 = g1 * n // M + 1
    return j1 if j1 < n and j1 * M < (g0 + M) * n else None


def _bad_point_in(A: Fraction, B: Fraction) -> Fraction:
    """Some rational in [A, B] landing in the open complement (1/4, 3/4) + Z.

    [A, B] may be degenerate: an isolated polar point whose image misses
    T_+ is its own witness.
    """
    t0 = A.numerator // A.denominator       # the region (t0 - 3/4, t0 - 1/4) ends below A
    for t in (t0, t0 + 1):
        lo = max(A, t + QUARTER)
        hi = min(B, t + 3 * QUARTER)
        if lo > hi:
            continue
        mid = (lo + hi) / 2
        if t + QUARTER < mid < t + 3 * QUARTER:
            return mid
    raise RuntimeError("no bad point found; implementation bug")


def member_hull_R(S: RealFiniteSet, z: Fraction | int) -> HullMembership:
    """Exact decision of z in Q_R(S), with a re-verified witness on Out."""
    z = Fraction(z)
    if z == 0:
        return HullMembership(True)
    return polar_R(S).member(z)


def hull_R(S: RealFiniteSet) -> frozenset[Fraction]:
    """Q_R(S), exactly, as a finite set of rationals: q times the j that pass every pair of S/q."""
    D = S.common_denominator
    P = [p.numerator * (D // p.denominator) for p in S.points]
    g = gcd(*P) or 1                    # S generates qZ, q = g/D; S = {0} has J = 0 either way
    Q = [p // g for p in P]
    J = max(map(abs, Q))
    if 2 * J + 1 > MAX_MODULUS:
        raise InvalidInputError(f"modulus {describe_int(2 * J + 1)} must lie in 1..{MAX_MODULUS}")
    polar = polar_R(RealFiniteSet(Q))   # period 1, characters |Q| <= J
    L = polar.L
    dtype = np.int64 if 4 * (J + 1) * L < 1 << 62 else object
    x, y = np.array(polar.pairs, dtype=dtype).T
    width = y - x
    js = np.arange(J + 1, dtype=dtype)
    i = 0
    while i < len(x):                   # js holds 0, so it never empties
        w = max(1, _BLOCK // len(js))
        # [j*x, j*y] lies in one window [(4k-1)L/4, (4k+1)L/4]:
        # its offset past the window's start plus its width is at most L/2
        offset = (np.outer(js, x[i:i + w]) + L // 4) % L
        js = js[(offset + np.outer(js, width[i:i + w]) <= L // 2).all(axis=1)]
        i += w
    out = frozenset(Fraction(s * g * j, D) for j in js.tolist() for s in (1, -1))
    missing = S.points - out
    if missing:
        raise RuntimeError(f"hull lost input points {sorted(missing)}; implementation bug")
    return out
