"""Explicit excluding characters and machine-checkable exclusion certificates.

For the base-3 circle family with a_0 > 0 and all gaps > 1, the shift
character m*eta_{a_k - 1} with m = 3^(a_l - a_k) +- 2 lies in the polar
of the whole (infinite) family: the finitely many points of the stored
prefix are checked exactly, and every later point x_n (n >= l) evaluates
to 1/3^(a_n - a_l + 2) +- 2/3^(a_n - a_k + 2), a value inside [0, 11/81]
for any continuation keeping gaps > 1.  The 3-adic analogue uses
m*zeta_{a_l + 1}, whose kernel swallows everything from level a_l + 2 up,
so its tail vanishes outright.

An ExclusionCertificate packages such a character with a target point, the
exact evaluation, and a symbolic tail bound; verify_certificate re-checks
all of it bit-exactly without trusting the construction.

Every T_+ test here is duality.in_t_plus(r, d) on integers, which reduces
r mod d itself: chi sends the circle point 3^-(a_n+1) to chi/3^(a_n+1),
m*zeta_k sends the 3-adic point 3^(a_n) to m*3^(a_n)/3^(k+1), and an
evaluation is tested as num/den.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Optional, Sequence, Union

from .circle import UnitRational, parse_rational, render_rational, signed_residue
from .duality import in_t_plus
from .errors import InvalidInputError
from .families import GapSequence
from .padic import PruferChar, level_for

QUARTER = Fraction(1, 4)
SCHEMA = "qcgroups/1"
_SPACES = {"T3": "grid", "J3": "padic-trunc"}


@dataclass(frozen=True)
class TailBound:
    """Exact upper bound for sum_{n >= start} |chi(x_n)|, from the closed form."""

    start_index: int
    bound: Fraction

    def as_json(self) -> dict:
        return {"start": self.start_index, "bound": render_rational(self.bound)}


@dataclass(frozen=True)
class ExclusionCertificate:
    """A character in the family polar plus a point it pushes outside T_+."""

    family_kind: Literal["T3", "J3"]
    family: GapSequence
    character: Union[int, PruferChar]
    target: Union[UnitRational, int]
    evaluation: UnitRational
    rho: int
    k_index: int
    l_index: int
    tail_bound: TailBound
    negated: bool = False

    def as_json(self) -> dict:
        char = (self.character.as_json() if isinstance(self.character, PruferChar)
                else self.character)
        target = (str(self.target) if isinstance(self.target, UnitRational)
                  else self.target)
        return {
            "schema": SCHEMA,
            "space": _SPACES[self.family_kind],
            "family": {"kind": self.family_kind, "entries": list(self.family.entries)},
            "character": char,
            "target": target,
            "evaluation": str(self.evaluation),
            "rho": self.rho,
            "indices": [self.k_index, self.l_index],
            "negated": self.negated,
            "tail_bound": self.tail_bound.as_json(),
        }


def _integer(value) -> int:
    """A JSON integer field; true/false and floats such as 1.0 are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInputError(f"expected an integer, not {value!r}")
    return value


def certificate_from_json(data: dict) -> ExclusionCertificate:
    try:
        if data["schema"] != SCHEMA:
            raise InvalidInputError(f"unknown certificate schema {data['schema']!r}")
        kind = data["family"]["kind"]
        if kind not in _SPACES:
            raise InvalidInputError(f"unknown certificate family {kind!r}")
        if data["space"] != _SPACES[kind]:
            raise InvalidInputError(
                f"{kind} certificates live in space {_SPACES[kind]!r}, not {data['space']!r}")
        if len(data["indices"]) != 2:
            raise InvalidInputError("certificate indices must be a pair [k, l]")
        negated = data.get("negated", False)
        if not isinstance(negated, bool):
            raise InvalidInputError(f"negated must be true or false, not {negated!r}")
        fam = GapSequence(tuple(_integer(e) for e in data["family"]["entries"]))
        if kind == "T3":
            character: Union[int, PruferChar] = _integer(data["character"])
            target: Union[UnitRational, int] = UnitRational.from_fraction(
                parse_rational(data["target"]))
        else:
            character = PruferChar(_integer(data["character"]["multiplier"]),
                                   _integer(data["character"]["index"]))
            target = _integer(data["target"])
        tb = TailBound(_integer(data["tail_bound"]["start"]),
                       parse_rational(data["tail_bound"]["bound"]))
        return ExclusionCertificate(
            family_kind=kind, family=fam, character=character, target=target,
            evaluation=UnitRational.from_fraction(parse_rational(data["evaluation"])),
            rho=_integer(data["rho"]), k_index=_integer(data["indices"][0]),
            l_index=_integer(data["indices"][1]), tail_bound=tb, negated=negated)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InvalidInputError):
            raise
        raise InvalidInputError(f"malformed certificate: {exc}") from exc


def _require_shift_hypotheses(a: GapSequence, k: int, l: int, sign: int,
                              need_positive_start: bool) -> None:
    a.require_nonnegative()
    if sign not in (1, -1):
        raise InvalidInputError("sign must be +1 or -1")
    if not (0 <= k < l < len(a)):
        raise InvalidInputError("need 0 <= k < l inside the sequence")
    if any(g <= 1 for g in a.gaps):
        raise InvalidInputError("shift characters need every gap above 1")
    if need_positive_start and a.entries[0] <= 0:
        # a_0 = 0 would put the character at the undefined index a_0 - 1
        raise InvalidInputError("circle shift characters need a_0 > 0")


def shift_char_T3(a: GapSequence, k: int, l: int, sign: int) -> int:
    """(3^(a_l - a_k) + 2*sign) * 3^(a_k - 1), verified in the family polar."""
    _require_shift_hypotheses(a, k, l, sign, need_positive_start=True)
    e = a.entries
    m = 3 ** (e[l] - e[k]) + 2 * sign
    chi = m * 3 ** (e[k] - 1)
    for an in e:
        d = 3 ** (an + 1)
        if not in_t_plus(chi, d):
            raise RuntimeError("shift character left the polar; implementation bug")
    return chi


def shift_char_J3(a: GapSequence, k: int, l: int, sign: int) -> PruferChar:
    """(3^(a_l - a_k) + 2*sign) * zeta_{a_l + 1}, verified over the truncation."""
    _require_shift_hypotheses(a, k, l, sign, need_positive_start=False)
    e = a.entries
    m = 3 ** (e[l] - e[k]) + 2 * sign
    char = PruferChar(m, e[l] + 1)
    d = 3 ** (char.index + 1)
    for an in e:
        if not in_t_plus(m * 3 ** an, d):
            raise RuntimeError("shift character left the polar; implementation bug")
    return char


def tail_bound_T3(a: GapSequence, m: int, k: int, start: int,
                  l: Optional[int] = None) -> TailBound:
    """sum_{n >= start} |chi(x_n)| <= m / (8 * 3^(a_start - a_k)).

    Geometric series with ratio 1/9 from the gap floor 2; indices past
    the stored prefix use the virtual entry a_last + 2*(start - last),
    which only ever underestimates the true entry, so the bound stays
    sound for every admissible continuation.
    """
    a.require_nonnegative()
    if m <= 0:
        raise InvalidInputError("tail bounds need a positive multiplier")
    if not 0 <= k < len(a):
        raise InvalidInputError("character base index out of range")
    if start < 0:
        raise InvalidInputError("start index out of range")
    if l is not None and not k < l < len(a):
        raise InvalidInputError("need k < l inside the sequence")
    last = len(a) - 1
    for n in range(start, last):
        if a.gaps[n] <= 1:
            raise InvalidInputError("tail needs gaps above 1 from the start index on")
    if start <= last:
        a_start = a.entries[start]
    else:
        a_start = a.entries[last] + 2 * (start - last)
    return TailBound(start, Fraction(m, 8 * 3 ** (a_start - a.entries[k])))


def _normalized_epsilon(a: GapSequence, epsilon: Sequence[int]) -> tuple[tuple[int, ...], list[int], bool]:
    eps = tuple(int(x) for x in epsilon)
    if len(eps) != len(a):
        raise InvalidInputError("coefficient vector must match the sequence length")
    if any(x not in (-1, 0, 1) for x in eps):
        raise InvalidInputError("coefficients must lie in {-1,0,1}")
    nz = [i for i, x in enumerate(eps) if x]
    if len(nz) < 2:
        raise InvalidInputError(
            "need at least two nonzero coefficients (single terms are family points)")
    negated = eps[nz[0]] == -1
    if negated:
        eps = tuple(-x for x in eps)
    return eps, nz, negated


def exclusion_T3(a: GapSequence, epsilon: Sequence[int]) -> ExclusionCertificate:
    """Certificate excluding sum eps_n 3^-(a_n+1) from the circle family hull.

    The evaluation satisfies chi(x) = rho/3 + 2/3^(a_l - a_k + 2) + chi(x')
    exactly, and the tail bound keeps the norm above 1/4 for any
    continuation of the family with gaps > 1.
    """
    eps, nz, negated = _normalized_epsilon(a, epsilon)
    e = a.entries
    n0, n1 = nz[0], nz[1]
    rho = eps[n1]
    chi = shift_char_T3(a, n0, n1, rho)
    m = 3 ** (e[n1] - e[n0]) + 2 * rho

    target = UnitRational(0)
    for i, x in enumerate(eps):
        if x:
            target = target + x * UnitRational(1, 3 ** (e[i] + 1))
    evaluation = target * chi

    remainder = sum((eps[i] * Fraction(m, 3 ** (e[i] - e[n0] + 2)) for i in nz[2:]),
                    Fraction(0))
    closed = Fraction(rho, 3) + Fraction(2, 3 ** (e[n1] - e[n0] + 2)) + remainder
    if UnitRational.from_fraction(closed) != evaluation:
        raise RuntimeError("closed-form evaluation mismatch; implementation bug")

    start = nz[2] if len(nz) > 2 else len(a)
    tb = tail_bound_T3(a, m, n0, start, l=n1)
    if in_t_plus(evaluation.num, evaluation.den):
        raise RuntimeError("evaluation landed inside T_+; implementation bug")
    return ExclusionCertificate(
        family_kind="T3", family=a, character=chi, target=target, evaluation=evaluation,
        rho=rho, k_index=n0, l_index=n1, tail_bound=tb, negated=negated)


def exclusion_J3(a: GapSequence, epsilon: Sequence[int]) -> ExclusionCertificate:
    """Certificate excluding sum eps_n 3^(a_n) from the 3-adic family hull.

    chi = (rho*3^(a_l - a_k) + 2) * zeta_{a_l + 1}; every term from the
    third nonzero coefficient on dies in the kernel, so the evaluation is
    exactly rho/3 + 2/3^(a_l - a_k + 2) and the tail bound is zero.
    """
    eps, nz, negated = _normalized_epsilon(a, epsilon)
    e = a.entries
    n0, n1 = nz[0], nz[1]
    rho = eps[n1]
    shift_char_J3(a, n0, n1, rho)  # verifies the polar membership hypotheses
    m_signed = rho * 3 ** (e[n1] - e[n0]) + 2
    char = PruferChar(m_signed, e[n1] + 1)

    raw = sum(eps[i] * 3 ** e[i] for i in nz)
    target = signed_residue(raw, 3 ** level_for(a))
    evaluation = UnitRational(m_signed * raw, 3 ** (e[n1] + 2))

    closed = Fraction(rho, 3) + Fraction(2, 3 ** (e[n1] - e[n0] + 2))
    if UnitRational.from_fraction(closed) != evaluation:
        raise RuntimeError("closed-form evaluation mismatch; implementation bug")
    if in_t_plus(evaluation.num, evaluation.den):
        raise RuntimeError("evaluation landed inside T_+; implementation bug")
    start = nz[2] if len(nz) > 2 else len(a)
    return ExclusionCertificate(
        family_kind="J3", family=a, character=char, target=target,
        evaluation=evaluation, rho=rho, k_index=n0, l_index=n1,
        tail_bound=TailBound(start, Fraction(0)), negated=negated)


def verify_certificate(cert: ExclusionCertificate, truncation: int | None = None) -> bool:
    """Re-check a certificate from scratch; False on any mathematical mismatch.

    Checks: the character maps every prefix point into T_+, the stored
    evaluation re-computes exactly and lies outside T_+, the tail bound
    re-derives bit-exactly, and the closed-form part stays outside T_+
    even after adding the tail (so the certificate covers every
    continuation of the family with gaps > 1).
    """
    a = cert.family
    e = a.entries
    if not (0 <= cert.k_index < cert.l_index < len(e)) or cert.rho not in (1, -1):
        return False
    if cert.family_kind == "T3":
        if not isinstance(cert.character, int) or not isinstance(cert.target, UnitRational):
            raise InvalidInputError("T3 certificate needs an integer character")
        terms = len(a) if truncation is None else truncation
        if terms < cert.l_index + 1:
            raise InvalidInputError(
                f"truncation {terms} too short; need at least {cert.l_index + 1} terms")
        terms = min(terms, len(a))
        if any(g <= 1 for g in a.gaps) or e[0] <= 0:
            return False
        for an in e[:terms]:
            d = 3 ** (an + 1)
            if not in_t_plus(cert.character, d):
                return False
        ev = cert.evaluation
        if cert.target * cert.character != ev or in_t_plus(ev.num, ev.den):
            return False
        m = 3 ** (e[cert.l_index] - e[cert.k_index]) + 2 * cert.rho
        try:
            expected = tail_bound_T3(a, m, cert.k_index, cert.tail_bound.start_index,
                                     l=cert.l_index)
        except InvalidInputError:
            return False
        if expected.bound != cert.tail_bound.bound:
            return False
        # distance of rho/3 from T_+ must survive the explicit and tail parts
        slack = Fraction(2, 3 ** (e[cert.l_index] - e[cert.k_index] + 2)) + expected.bound
        return slack < Fraction(1, 3) - QUARTER

    if cert.family_kind == "J3":
        if not isinstance(cert.character, PruferChar) or not isinstance(cert.target, int):
            raise InvalidInputError("J3 certificate needs a Pruefer character")
        a.require_nonnegative()     # 3^(a_n) must be an integer
        level = level_for(a) if truncation is None else truncation
        if level < cert.character.min_level() or level < e[-1] + 1:
            raise InvalidInputError(
                f"truncation level {level} too short; need at least "
                f"{max(cert.character.min_level(), e[-1] + 1)}")
        if any(g <= 1 for g in a.gaps):
            return False
        # the tail is zero for every gap-2 continuation exactly when m*zeta_index
        # kills 3^(a_last + 2), i.e. 3^(index - a_last - 1) divides m; no power
        # of 3 past |m| does, so 3^(index+1) is built only for a bounded index
        m, index = cert.character.multiplier, cert.character.index
        excess = max(index - e[-1] - 1, 0)
        if m == 0 or excess > m.bit_length() or m % 3 ** excess:
            return False
        d = 3 ** (index + 1)
        if not all(in_t_plus(m * 3 ** an, d) for an in e):
            return False
        ev = cert.evaluation
        if UnitRational(m * cert.target, d) != ev or in_t_plus(ev.num, ev.den):
            return False
        return cert.tail_bound.bound == 0

    raise InvalidInputError(f"unknown certificate kind {cert.family_kind!r}")
