"""Gap sequences, divisible chains, family point sets and verdict functions.

A gap sequence a_0 < a_1 < ... (a finite prefix here) determines the
families

    K2: {0} u {+-2^-(a_n+1)} in T      R2: the same points in R
    K3: {0} u {+-3^-(a_n+1)} in T      L3: {0} u {+-3^(a_n)}  in Z(3^M)

and the verdicts evaluate the characterization conditions on the given
finite data: the circle/real families need at most one unit gap, and a
unit gap must be followed by a gap above 2; the base-3 families forbid
unit gaps outright; the circle families additionally need a_0 > 0.  A
negative verdict names the first violated clause and carries a recipe
for an explicit extra hull point, checkable at a finite truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional

from .circle import UnitRational
from .duality import ResidueSet
from .errors import InvalidInputError

QUASI_CONVEX = "QuasiConvex"
NOT_QUASI_CONVEX = "NotQuasiConvex"

FamilyKind = Literal["T2", "R2", "T3", "J3"]


@dataclass(frozen=True)
class GapSequence:
    """Strictly increasing integers a_0 < a_1 < ...; gaps g_n = a_{n+1} - a_n."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise InvalidInputError("empty sequence")
        if any(b <= a for a, b in zip(self.entries, self.entries[1:])):
            raise InvalidInputError("entries must be strictly increasing")

    @classmethod
    def of(cls, *entries: int) -> "GapSequence":
        return cls(tuple(entries))

    @property
    def gaps(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in zip(self.entries, self.entries[1:]))

    def require_nonnegative(self) -> None:
        if self.entries[0] < 0:
            raise InvalidInputError("this family needs nonnegative entries")

    def prefix(self, count: int) -> "GapSequence":
        return GapSequence(self.entries[:count])

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class DivisibleChain:
    """b_0 | b_1 | ... with b_0 > 1; ratios q_n = b_{n+1}/b_n."""

    terms: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise InvalidInputError("empty chain")
        if self.terms[0] <= 1:
            raise InvalidInputError("chain must start above 1")
        for u, v in zip(self.terms, self.terms[1:]):
            if v <= u or v % u:
                raise InvalidInputError("chain must be increasing and divisible")

    @property
    def ratios(self) -> tuple[int, ...]:
        return tuple(v // u for u, v in zip(self.terms, self.terms[1:]))


@dataclass(frozen=True)
class WitnessRecipe:
    """How to exhibit an extra hull point for a failed verdict.

    kinds:
      translate  - subgroup contamination when a_0 = 0: 1/b_0 + x_i
                   enters the hull, i the first usable later index;
      pair_sum   - two unit gaps at n1 < n2: x_{n1+1} + x_{n2+1};
      five_h     - unit gap then gap 2: 5 * x_{n+2};
      two_x      - unit gap in a base-3 family: 2 * x_{n+1} (T3) or
                   2 * y_n (J3).

    terms_needed is the truncation length at which the point provably
    contaminates the hull.
    """

    kind: Literal["translate", "pair_sum", "five_h", "two_x"]
    family: FamilyKind
    indices: tuple[int, ...]
    terms_needed: int

    def _translate_index(self, a: GapSequence) -> int:
        # 1/2 + 1/2^(a_i+1) folds back onto a family point exactly when
        # a_i = 1, so the dyadic witness takes the first entry >= 2; the
        # triadic sum 1/3 + x_i never collides and i = 1 works
        if self.family == "T3":
            return 1
        i = _first_entry_ge_2(a)
        if i is not None:
            return i
        raise InvalidInputError(
            "translate witness needs an entry >= 2 beyond the first")

    def witness_point(self, a: GapSequence):
        """The exact extra point: UnitRational (T2/T3), Fraction (R2), int (J3)."""
        e = a.entries
        if self.terms_needed > len(e):
            raise InvalidInputError(
                f"recipe needs {self.terms_needed} terms, sequence has {len(e)}")
        if self.family in ("T2", "T3"):
            p = 2 if self.family == "T2" else 3
            if self.kind == "translate":
                i = self._translate_index(a)
                return (UnitRational(1, p ** (e[0] + 1))
                        + UnitRational(1, p ** (e[i] + 1)))
            if self.kind == "pair_sum":
                n1, n2 = self.indices
                return (UnitRational(1, p ** (e[n1 + 1] + 1))
                        + UnitRational(1, p ** (e[n2 + 1] + 1)))
            if self.kind == "five_h":
                (n,) = self.indices
                return UnitRational(5, p ** (e[n + 2] + 1))
            if self.kind == "two_x":
                (n,) = self.indices
                return UnitRational(2, p ** (e[n + 1] + 1))
        if self.family == "R2":
            if self.kind == "pair_sum":
                n1, n2 = self.indices
                return Fraction(1, 2) ** (e[n1 + 1] + 1) + Fraction(1, 2) ** (e[n2 + 1] + 1)
            if self.kind == "five_h":
                (n,) = self.indices
                return 5 * Fraction(1, 2) ** (e[n + 2] + 1)
        if self.family == "J3" and self.kind == "two_x":
            (n,) = self.indices
            return 2 * 3 ** e[n]
        raise InvalidInputError(f"recipe {self.kind} undefined for {self.family}")

    def as_json(self) -> dict:
        return {"kind": self.kind, "family": self.family,
                "indices": list(self.indices), "terms_needed": self.terms_needed}


@dataclass(frozen=True)
class Verdict:
    outcome: str
    violated: Optional[str] = None
    witness_recipe: Optional[WitnessRecipe] = None

    def __post_init__(self) -> None:
        if self.outcome == NOT_QUASI_CONVEX and self.violated is None:
            raise InvalidInputError("negative verdict must name the violated clause")

    @property
    def is_quasi_convex(self) -> bool:
        return self.outcome == QUASI_CONVEX

    def as_json(self) -> dict:
        out: dict = {"outcome": self.outcome}
        if self.violated is not None:
            out["violated"] = self.violated
        if self.witness_recipe is not None:
            out["witness_recipe"] = self.witness_recipe.as_json()
        return out


def _unit_gap_indices(a: GapSequence) -> list[int]:
    return [n for n, g in enumerate(a.gaps) if g == 1]


def _unit_then_small(a: GapSequence) -> Optional[int]:
    gaps = a.gaps
    for n, g in enumerate(gaps):
        if g == 1 and n + 1 < len(gaps) and gaps[n + 1] <= 2:
            return n
    return None


def _first_entry_ge_2(a: GapSequence) -> Optional[int]:
    """The first index i >= 1 with a_i >= 2, or None."""
    return next((i for i, e in enumerate(a.entries) if i and e >= 2), None)


def _translate_terms_T2(a: GapSequence) -> int:
    i = _first_entry_ge_2(a)
    if i is not None:
        return i + 1
    # with no usable entry in the prefix, the canonical gap-2 extension
    # provides one immediately
    return len(a.entries) + 1


def verdict_T2(a: GapSequence) -> Verdict:
    """Clauses: (A.i) a_0 > 0; (A.ii) at most one unit gap; (A.iii) g=1 => next gap > 2."""
    a.require_nonnegative()
    if a.entries[0] <= 0:
        return Verdict(NOT_QUASI_CONVEX, "A.i",
                       WitnessRecipe("translate", "T2", (), _translate_terms_T2(a)))
    units = _unit_gap_indices(a)
    if len(units) >= 2:
        return Verdict(NOT_QUASI_CONVEX, "A.ii",
                       WitnessRecipe("pair_sum", "T2", (units[0], units[1]), units[1] + 2))
    n = _unit_then_small(a)
    if n is not None:
        return Verdict(NOT_QUASI_CONVEX, "A.iii",
                       WitnessRecipe("five_h", "T2", (n,), n + 3))
    return Verdict(QUASI_CONVEX)


def verdict_R2(a: GapSequence) -> Verdict:
    """Like the circle case but with no constraint on a_0 (entries may be negative)."""
    units = _unit_gap_indices(a)
    if len(units) >= 2:
        return Verdict(NOT_QUASI_CONVEX, "B.i",
                       WitnessRecipe("pair_sum", "R2", (units[0], units[1]), units[1] + 2))
    n = _unit_then_small(a)
    if n is not None:
        return Verdict(NOT_QUASI_CONVEX, "B.ii",
                       WitnessRecipe("five_h", "R2", (n,), n + 3))
    return Verdict(QUASI_CONVEX)


def verdict_T3(a: GapSequence) -> Verdict:
    """Clauses: (C.i) a_0 > 0; (C.ii) every gap exceeds 1."""
    a.require_nonnegative()
    if a.entries[0] <= 0:
        return Verdict(NOT_QUASI_CONVEX, "C.i",
                       WitnessRecipe("translate", "T3", (), 2))
    units = _unit_gap_indices(a)
    if units:
        return Verdict(NOT_QUASI_CONVEX, "C.ii",
                       WitnessRecipe("two_x", "T3", (units[0],), units[0] + 2))
    return Verdict(QUASI_CONVEX)


def verdict_J3(a: GapSequence) -> Verdict:
    """Single clause (D): every gap exceeds 1 (a_0 = 0 is allowed)."""
    a.require_nonnegative()
    units = _unit_gap_indices(a)
    if units:
        return Verdict(NOT_QUASI_CONVEX, "D",
                       WitnessRecipe("two_x", "J3", (units[0],), units[0] + 2))
    return Verdict(QUASI_CONVEX)


@dataclass(frozen=True)
class NecessityReportT:
    """Necessary conditions for {0} u {+-1/b_n} to be quasi-convex in T.

    Any False flag certifies the set is not quasi-convex.
    """

    b0_ge_4: bool
    at_most_one_q2: bool
    q2_then_gt4: bool
    no_q3_without_4_divisor: bool

    @property
    def all_pass(self) -> bool:
        return (self.b0_ge_4 and self.at_most_one_q2 and self.q2_then_gt4
                and self.no_q3_without_4_divisor)

    def as_json(self) -> dict:
        return {"b0_ge_4": self.b0_ge_4, "at_most_one_q2": self.at_most_one_q2,
                "q2_then_gt4": self.q2_then_gt4,
                "no_q3_without_4_divisor": self.no_q3_without_4_divisor,
                "all_pass": self.all_pass}


@dataclass(frozen=True)
class NecessityReportR:
    """Necessary conditions for the real-line version of the chain set."""

    at_most_one_q2: bool
    q2_then_gt4: bool

    @property
    def all_pass(self) -> bool:
        return self.at_most_one_q2 and self.q2_then_gt4

    def as_json(self) -> dict:
        return {"at_most_one_q2": self.at_most_one_q2,
                "q2_then_gt4": self.q2_then_gt4, "all_pass": self.all_pass}


def _ratio_flags(q: tuple[int, ...]) -> tuple[bool, bool]:
    at_most_one = sum(1 for r in q if r == 2) <= 1
    followed = all(not (q[n] == 2 and n + 1 < len(q) and q[n + 1] <= 4)
                   for n in range(len(q)))
    return at_most_one, followed


def necessary_report_T(b: DivisibleChain) -> NecessityReportT:
    q = b.ratios
    one, followed = _ratio_flags(q)
    q3 = all(not (b.terms[n + 1] % 4 != 0 and q[n] == 3) for n in range(len(q)))
    return NecessityReportT(b.terms[0] >= 4, one, followed, q3)


def necessary_report_R(b: DivisibleChain) -> NecessityReportR:
    one, followed = _ratio_flags(b.ratios)
    return NecessityReportR(one, followed)


def _points_grid(a: GapSequence, p: int, modulus: int | None) -> ResidueSet:
    a.require_nonnegative()
    return ResidueSet.from_pairs([(0, 1)] + [(s, p ** (an + 1)) for an in a.entries
                                            for s in (1, -1)], modulus)


def points_K2(a: GapSequence, modulus: int | None = None) -> ResidueSet:
    """{0} u {+-2^-(a_n+1)} on the dyadic grid (default modulus 2^(a_max+1))."""
    return _points_grid(a, 2, modulus)


def points_K3(a: GapSequence, modulus: int | None = None) -> ResidueSet:
    """{0} u {+-3^-(a_n+1)} on the triadic grid (default modulus 3^(a_max+1))."""
    return _points_grid(a, 3, modulus)


def points_R2(a: GapSequence) -> frozenset[Fraction]:
    """{0} u {+-2^-(a_n+1)} as exact rationals in R; entries may be negative."""
    pts = {Fraction(0)}
    for an in a.entries:
        x = Fraction(1, 2) ** (an + 1)
        pts.add(x)
        pts.add(-x)
    return frozenset(pts)

