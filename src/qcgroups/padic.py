"""Truncated 3-adic integers Z(3^M), Pruefer-dual characters, J_m and Q1∩Q2.

Everything happens in a finite quotient at an explicit level M; there is
no infinite-precision p-adic arithmetic here.  Sets are ResidueSets of
residues mod 3^M; the CLI writes an element of Z(3^M) as its signed
residue in (-3^M/2, 3^M/2] (circle.signed_residue; 3^M is odd, so that
window is exactly the integers of absolute value <= (3^M - 1)/2).

The character zeta_k sends 1 to 3^-(k+1), so m*zeta_k sends x to the
residue m*x mod 3^(k+1); it factors through Z(3^M) precisely when
k + 1 <= M.  PruferChar records (m, k) for certificates.  On the circle
side eta_k is multiplication by 3^k.

Both base-3 families are one computation in Z(3^M), up to the digit flip
i -> M-1-i.  The J3 point 3^(a_n) is the residue 3^(a_n), and m*zeta_k
acts on Z(3^M) as multiplication by m*3^(M-1-k); the T3 point 3^-(a_n+1)
is the grid residue 3^(M-1-a_n) of (1/3^M)Z/Z, and m*eta_k acts as m*3^k.
So compute_Jm, epsilon_forms and q12_set run one integer computation for
either family, and return residues mod 3^M for either; _in_Z3M places a
family in Z(3^M) and holds the flip.
"""

from __future__ import annotations

from dataclasses import dataclass

from .duality import ResidueSet, check_power, in_t_plus, polar
from .errors import InvalidInputError
from .families import FamilyKind, GapSequence


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

    def as_json(self) -> dict:
        return {"multiplier": self.multiplier, "index": self.index}


def level_for(a: GapSequence) -> int:
    """Smallest truncation level through which the witness characters factor."""
    a.require_nonnegative()
    return a.entries[-1] + 2


def _check_kind(kind: FamilyKind) -> None:
    if kind not in ("T3", "J3"):
        raise InvalidInputError(f"unknown base-3 family {kind!r}; expected T3 or J3")


def _in_Z3M(a: GapSequence, kind: FamilyKind, exponent: int) -> tuple[int, list[int], list[int]]:
    """n = 3^exponent, the family's point residues and its J_1 = J_2 test characters in Z(n).

    Point a_n sits on digit a_n for J3 and on the flipped digit
    exponent-1-a_n for T3; character k acts as 3^(exponent-1-k) on J3 and
    as 3^k on T3.  The test characters are m * (character k), m in {1, 2},
    for k below the exponent and off the entries (characters beyond the
    carrier resolution act trivially); 0 acts trivially and keeps a polar
    nonempty.
    """
    _check_kind(kind)
    check_power(3, exponent)
    a.require_nonnegative()
    if a.entries[-1] >= exponent:
        raise InvalidInputError(
            f"Z(3^{exponent}) too small for {kind}; need exponent >= {a.entries[-1] + 1}")

    def digit(i: int) -> int:
        return exponent - 1 - i if kind == "T3" else i

    entries = set(a.entries)
    points = [3 ** digit(an) for an in a.entries]
    chars = [0] + [m * 3 ** (exponent - 1 - digit(k))
                   for k in range(exponent) if k not in entries for m in (1, 2)]
    return 3 ** exponent, points, chars


def compute_Jm(a: GapSequence, m: int, k_max: int, kind: FamilyKind) -> frozenset[int]:
    """{k <= k_max : m * (character k) maps every family point into T_+}.

    T3 pairs m*eta_k with 3^-(a_n+1) and J3 pairs m*zeta_k with 3^(a_n);
    either value is m*3^i / 3^(j+1), with (i, j) = (k, a_n) on T3 and
    (a_n, k) on J3.  That is 0 when d = j+1-i <= 0 and m/3^d otherwise;
    for m in {1, 2}, m/3^d is reduced and in_t_plus(m, 3^min(d, 2))
    decides it exactly, so no test builds 3^k.  The result is the
    complement of the entries of `a` in [0, k_max].
    """
    _check_kind(kind)
    if m not in (1, 2):
        raise InvalidInputError("J_m is computed for m in {1, 2} only")
    if k_max < 0:
        raise InvalidInputError("k_max must be nonnegative")
    a.require_nonnegative()

    def in_polar(k: int) -> bool:
        pairs = [(k, an) if kind == "T3" else (an, k) for an in a.entries]
        return all(j + 1 - i <= 0 or in_t_plus(m, 3 ** min(j + 1 - i, 2)) for i, j in pairs)

    return frozenset(k for k in range(k_max + 1) if in_polar(k))


def epsilon_forms(a: GapSequence, kind: FamilyKind, exponent: int) -> ResidueSet:
    """All sums sum_n eps_n * (family point), eps_n in {-1,0,1}, in Z(3^exponent).

    Residues of the grid (1/3^exponent)Z/Z for T3 and of Z(3^exponent) for
    J3.  Distinct coefficient vectors never collide (balanced-digit
    uniqueness); this is checked.
    """
    n, points, _ = _in_Z3M(a, kind, exponent)
    acc = {0}
    for y in points:
        acc = {s + e * y for s in acc for e in (-1, 0, 1)}
    forms = ResidueSet(n, frozenset(acc))
    if len(forms.residues) != 3 ** len(points):
        raise RuntimeError("epsilon forms collided; implementation bug")
    return forms


def q12_set(a: GapSequence, kind: FamilyKind, exponent: int) -> ResidueSet:
    """Finite analogue of Q_1 int Q_2: the points passing every J_1=J_2 test.

    The polar in Z(3^exponent) of the test characters, in the residues of
    epsilon_forms for direct comparison.
    """
    n, _, chars = _in_Z3M(a, kind, exponent)
    return polar(ResidueSet(n, chars))


def L3_truncate(a: GapSequence, level: int) -> ResidueSet:
    """{0} union {+-3^(a_n)} inside Z(3^level); needs a_n <= level - 2 and level <= 13.

    The headroom of one extra digit lets the witness characters
    zeta_{a_l + 1} factor through the truncation.
    """
    a.require_nonnegative()
    if a.entries[-1] > level - 2:
        raise InvalidInputError(
            f"level {level} too small; smallest admissible level is {a.entries[-1] + 2}")
    check_power(3, level)
    n = 3 ** level
    elems = {0}
    for an in a.entries:
        y = 3 ** an
        elems.add(y % n)
        elems.add((-y) % n)
    return ResidueSet(n, frozenset(elems))
