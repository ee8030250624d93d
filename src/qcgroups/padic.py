"""Truncated 3-adic integers Z(3^M), Pruefer-dual characters, J_m and Q1∩Q2.

Everything happens in a finite quotient at an explicit level M; there is
no infinite-precision p-adic arithmetic here.  Elements carry the
canonical signed residue in (-3^M/2, 3^M/2] (3^M is odd, so that window
is exactly the integers of absolute value <= (3^M - 1)/2).

The character zeta_k sends 1 to 3^-(k+1); it factors through Z(3^M)
precisely when k + 1 <= M, and zeta_eval evaluates it exactly as a
UnitRational.  On the circle side eta_k is multiplication by 3^k.
compute_Jm and q12_set pair both kinds of character with the family
points on integer residues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from .circle import UnitRational
from .duality import ResidueSet, in_t_plus, polar_residues
from .errors import InvalidInputError
from .families import GapSequence

Side = Literal["T", "J"]


@dataclass(frozen=True)
class PadicTruncGroup:
    """The quotient Z(3^M) of the 3-adic integers."""

    level: int

    def __post_init__(self) -> None:
        if self.level < 1:
            raise InvalidInputError("level must be >= 1")

    @property
    def order(self) -> int:
        return 3 ** self.level

    def canonical(self, x: int) -> int:
        """Signed residue in (-order/2, order/2]."""
        r = x % self.order
        return r if 2 * r <= self.order else r - self.order


def canonical_residue(x: int, level: int) -> int:
    return PadicTruncGroup(level).canonical(x)


@dataclass(frozen=True)
class PruferChar:
    """The character m * zeta_index of the 3-adic integers.

    zeta_k(1) = 3^-(k+1); the character factors through Z(3^M) iff
    index + 1 <= M.
    """

    multiplier: int
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise InvalidInputError("character index must be nonnegative")

    def min_level(self) -> int:
        return self.index + 1

    def __call__(self, x: int, level: int) -> UnitRational:
        return zeta_eval(self.multiplier, self.index, x, level)

    def as_json(self) -> dict:
        return {"multiplier": self.multiplier, "index": self.index}


def zeta_eval(m: int, k: int, x: int, level: int) -> UnitRational:
    """m * zeta_k at x inside Z(3^level): exactly m*x / 3^(k+1) mod 1."""
    if k < 0:
        raise InvalidInputError("character index must be nonnegative")
    if k + 1 > level:
        raise InvalidInputError(
            f"zeta_{k} does not factor through level {level} (need level >= {k + 1})")
    return UnitRational(m * x, 3 ** (k + 1))


def level_for(a: GapSequence) -> int:
    """Smallest truncation level through which the witness characters factor."""
    a.require_nonnegative()
    return a.entries[-1] + 2


def compute_Jm(a: GapSequence, m: int, k_max: int, side: Side,
               level: int | None = None) -> frozenset[int]:
    """{k <= k_max : m * (character k) maps every family point into T_+}.

    side "T" pairs m*eta_k against the points 3^-(a_n+1); side "J" pairs
    m*zeta_k against 3^(a_n) inside Z(3^level).  For m in {1, 2} the
    result is the complement of the entries of `a` in [0, k_max].
    Residues stay Python ints: 3^k outgrows int64 for large k_max.
    """
    if m not in (1, 2):
        raise InvalidInputError("J_m is computed for m in {1, 2} only")
    if k_max < 0:
        raise InvalidInputError("k_max must be nonnegative")
    a.require_nonnegative()
    if side == "T":
        # m*eta_k(3^-(a_n+1)) = m*3^k / 3^(a_n+1)
        dens = [3 ** (an + 1) for an in a.entries]
        return frozenset(k for k in range(k_max + 1)
                         if all(in_t_plus(m * 3 ** k % d, d) for d in dens))
    if side == "J":
        needed = max(a.entries[-1] + 1, k_max + 1)
        if level is None:
            level = max(level_for(a), k_max + 1)
        if level < needed:
            raise InvalidInputError(
                f"truncation level {level} too short; need level >= {needed}")
        # m*zeta_k(3^(a_n)) = m*3^(a_n) / 3^(k+1)
        return frozenset(k for k in range(k_max + 1)
                         if all(in_t_plus(m * 3 ** an % 3 ** (k + 1), 3 ** (k + 1))
                                for an in a.entries))
    raise InvalidInputError(f"unknown side {side!r}")


def epsilon_forms(a: GapSequence, side: Side, exponent: int) -> frozenset:
    """All sums sum_n eps_n * (family point), eps_n in {-1,0,1}.

    side "T": points 3^-(a_n+1) on the grid 3^exponent, returned as
    UnitRationals; side "J": points 3^(a_n) in Z(3^exponent), returned as
    canonical signed residues.  Distinct coefficient vectors never
    collide (balanced-digit uniqueness); this is checked.
    """
    a.require_nonnegative()
    entries = a.entries
    if side == "T":
        if entries[-1] + 1 > exponent:
            raise InvalidInputError(
                f"grid 3^{exponent} too small; need exponent >= {entries[-1] + 1}")
        points = [UnitRational(1, 3 ** (an + 1)) for an in entries]
        acc = {UnitRational(0)}
        for x in points:
            acc = {s + e * x for s in acc for e in (-1, 0, 1)}
    elif side == "J":
        if entries[-1] > exponent - 1:
            raise InvalidInputError(
                f"carrier Z(3^{exponent}) too small; need exponent >= {entries[-1] + 1}")
        group = PadicTruncGroup(exponent)
        acc = {0}
        for an in entries:
            y = 3 ** an
            acc = {group.canonical(s + e * y) for s in acc for e in (-1, 0, 1)}
    else:
        raise InvalidInputError(f"unknown side {side!r}")
    if len(acc) != 3 ** len(entries):
        raise RuntimeError("epsilon forms collided; implementation bug")
    return frozenset(acc)


def q12_set(a: GapSequence, side: Side, exponent: int) -> frozenset:
    """Finite analogue of Q_1 int Q_2: carrier points passing every J_1=J_2 test.

    The test set of indices is {0, ..., exponent-1} minus the entries of
    `a` (characters beyond the carrier resolution act trivially).
    Element types match epsilon_forms for direct comparison.

    With n = 3^exponent, m*eta_k(j/n) = m*3^k*j/n and
    m*zeta_k(x) = m*3^(exponent-k-1)*x/n, so either side is the polar in
    Z(n) of those characters (0 acts trivially and keeps the set nonempty).
    """
    a.require_nonnegative()
    entries = set(a.entries)
    ks = [k for k in range(exponent) if k not in entries]
    n = 3 ** exponent
    if side == "T":
        if a.entries[-1] + 1 > exponent:
            raise InvalidInputError(
                f"grid 3^{exponent} too small; need exponent >= {a.entries[-1] + 1}")
        chars = [m * 3 ** k for k in ks for m in (1, 2)]
        return frozenset(UnitRational(j, n) for j in polar_residues(n, [0] + chars))
    if side == "J":
        if a.entries[-1] > exponent - 1:
            raise InvalidInputError(
                f"carrier Z(3^{exponent}) too small; need exponent >= {a.entries[-1] + 1}")
        group = PadicTruncGroup(exponent)
        chars = [m * 3 ** (exponent - k - 1) for k in ks for m in (1, 2)]
        return frozenset(group.canonical(x) for x in polar_residues(n, [0] + chars))
    raise InvalidInputError(f"unknown side {side!r}")


def L3_truncate(a: GapSequence, level: int) -> ResidueSet:
    """{0} union {+-3^(a_n)} inside Z(3^level); needs a_n <= level - 2.

    The headroom of one extra digit lets the witness characters
    zeta_{a_l + 1} factor through the truncation.
    """
    a.require_nonnegative()
    if a.entries[-1] > level - 2:
        raise InvalidInputError(
            f"level {level} too small; smallest admissible level is {a.entries[-1] + 2}")
    n = 3 ** level
    elems = {0}
    for an in a.entries:
        y = 3 ** an
        elems.add(y % n)
        elems.add((-y) % n)
    return ResidueSet(n, frozenset(elems), "cyclic")
