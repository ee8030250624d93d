import dataclasses
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

from qcgroups.acceptance import _grid_residue
from qcgroups.circle import UnitRational
from qcgroups.duality import ResidueSet, hull, hull_residues
from qcgroups.errors import InvalidInputError
from qcgroups.families import GapSequence, points_K3
from qcgroups.padic import L3_truncate, PruferChar, level_for
from qcgroups.witnesses import (TailBound, certificate_from_json,
                                exclusion_J3, exclusion_T3,
                                shift_char_J3, shift_char_T3, tail_bound_T3,
                                verify_certificate)

GS = GapSequence.of
F = Fraction
QUARTER = F(1, 4)


def norm(x):
    """Distance from 0 in T of a UnitRational, read off its canonical window."""
    return F(abs(x.num), x.den)


def in_Tplus(x):
    """The UnitRational x lies in T_+ = [-1/4, 1/4]."""
    return 4 * abs(x.num) <= x.den


def gap2_sequences(max_entry, max_len):
    """All strictly increasing sequences with every gap >= 2."""
    out = []

    def grow(prefix):
        if prefix:
            out.append(GapSequence(tuple(prefix)))
        if len(prefix) == max_len:
            return
        start = prefix[-1] + 2 if prefix else 0
        for nxt in range(start, max_entry + 1):
            grow(prefix + [nxt])

    grow([])
    return out


# ------------------------------------------------------------ shift chars


def test_shift_char_values():
    assert shift_char_T3(GS(1, 3), 0, 1, +1) == 11
    assert shift_char_T3(GS(1, 3), 0, 1, -1) == 7
    assert shift_char_T3(GS(2, 4, 6), 1, 2, +1) == 297
    assert shift_char_J3(GS(0, 2), 0, 1, +1) == PruferChar(11, 3)
    assert shift_char_J3(GS(0, 2), 0, 1, -1) == PruferChar(7, 3)
    assert shift_char_J3(GS(1, 4), 0, 1, +1) == PruferChar(29, 5)


def test_shift_char_hypotheses():
    with pytest.raises(InvalidInputError):
        shift_char_T3(GS(0, 2), 0, 1, +1)      # a_0 = 0: eta_{-1} undefined
    with pytest.raises(InvalidInputError):
        shift_char_T3(GS(1, 2, 4), 0, 1, +1)   # unit gap
    with pytest.raises(InvalidInputError):
        shift_char_T3(GS(1, 3), 1, 1, +1)
    with pytest.raises(InvalidInputError):
        shift_char_J3(GS(0, 2), 0, 1, 2)


def test_shift_chars_live_in_the_polar():
    for a in gap2_sequences(10, 4):
        if len(a) < 2:
            continue
        for k in range(len(a) - 1):
            for l in range(k + 1, len(a)):
                for sign in (+1, -1):
                    if a.entries[0] > 0:
                        chi = shift_char_T3(a, k, l, sign)
                        for an in a.entries:
                            assert in_Tplus(UnitRational(chi, 3 ** (an + 1)))
                        m = 3 ** (a.entries[l] - a.entries[k]) + 2 * sign
                        tb = tail_bound_T3(a, m, k, l + 1, l=l)
                        assert tb.bound < F(1, 4)
                    char = shift_char_J3(a, k, l, sign)
                    for an in a.entries:    # m*zeta_k(3^(a_n)) = m*3^(a_n) / 3^(k+1)
                        assert in_Tplus(UnitRational(char.multiplier * 3 ** an,
                                                     3 ** (char.index + 1)))


# ------------------------------------------------------------ tail bounds


def test_tail_bound_values():
    assert tail_bound_T3(GS(1, 3, 5), 11, 0, 2, l=1).bound == F(11, 648)
    # virtual continuation with gap floor 2 gives the same bound
    assert tail_bound_T3(GS(1, 3), 11, 0, 2, l=1).bound == F(11, 648)
    # a first tail term of 1/9 sums to at most 1/8
    assert tail_bound_T3(GS(2, 4), 1, 0, 0).bound == F(1, 8)


def test_tail_bound_validation():
    with pytest.raises(InvalidInputError):
        tail_bound_T3(GS(1, 3), 0, 0, 2)
    with pytest.raises(InvalidInputError):
        tail_bound_T3(GS(1, 3), 11, 5, 2)
    with pytest.raises(InvalidInputError):
        tail_bound_T3(GS(1, 3, 4), 11, 0, 1)   # unit gap at/after the start
    # a unit gap strictly before the start does not affect the tail
    assert tail_bound_T3(GS(1, 2, 4), 11, 0, 1).bound == F(11, 24)


def test_tail_bound_dominates_actual_tail():
    for a in gap2_sequences(9, 4):
        if len(a) < 3 or a.entries[0] == 0:
            continue
        k, l, start = 0, 1, 2
        m = 3 ** (a.entries[l] - a.entries[k]) + 2
        chi = m * 3 ** (a.entries[k] - 1)
        actual = sum(F(chi, 3 ** (an + 1)) for an in a.entries[start:])
        assert actual <= tail_bound_T3(a, m, k, start, l=l).bound


# ------------------------------------------------------------ certificates


def test_exclusion_T3_examples():
    c = exclusion_T3(GS(1, 3), [1, 1])
    assert c.character == 11
    assert c.target == UnitRational(10, 81)
    assert c.evaluation == UnitRational(29, 81)
    assert norm(c.evaluation) > QUARTER
    assert verify_certificate(c)

    c = exclusion_T3(GS(1, 3), [1, -1])
    assert c.character == 7
    assert c.target == UnitRational(8, 81)
    assert norm(c.evaluation) == F(25, 81)

    c = exclusion_T3(GS(2, 4, 7), [1, 1, 0])
    assert c.character == 33
    assert c.evaluation == UnitRational(29, 81)


def test_exclusion_J3_examples():
    c = exclusion_J3(GS(0, 2), [1, 1])
    assert c.character == PruferChar(11, 3)
    assert c.target == 10
    assert c.evaluation == UnitRational(29, 81)
    assert verify_certificate(c, 4)

    c = exclusion_J3(GS(0, 2), [1, -1])
    assert c.character == PruferChar(-7, 3)
    assert norm(c.evaluation) == F(25, 81)

    c = exclusion_J3(GS(1, 4), [1, 1])
    assert c.character == PruferChar(29, 5)
    assert c.evaluation == UnitRational(83, 243)
    assert F(c.evaluation.num, c.evaluation.den) == F(1, 3) + F(2, 243)


def test_exclusion_validation():
    with pytest.raises(InvalidInputError):
        exclusion_T3(GS(1, 3), [1, 0])         # single nonzero coefficient
    with pytest.raises(InvalidInputError):
        exclusion_T3(GS(1, 3), [1])            # wrong length
    with pytest.raises(InvalidInputError):
        exclusion_T3(GS(1, 3), [1, 2])
    with pytest.raises(InvalidInputError):
        exclusion_T3(GS(0, 2), [1, 1])         # a_0 = 0 on the circle side
    with pytest.raises(InvalidInputError):
        exclusion_J3(GS(0, 1, 3), [1, 1, 0])   # unit gap


def test_leading_sign_normalization():
    plus = exclusion_T3(GS(1, 3), [1, 1])
    minus = exclusion_T3(GS(1, 3), [-1, -1])
    assert minus.negated and not plus.negated
    assert minus.target == plus.target
    assert minus.evaluation == plus.evaluation
    j3 = exclusion_J3(GS(0, 2), [-1, 1])
    assert j3.negated and j3.rho == -1
    assert j3.target == -8         # certifies the normalized point 1 - 9


def test_certificates_exclude_targets_from_truncated_hulls():
    a = GS(1, 3, 6)
    E = points_K3(a)
    rep = hull(E)
    for eps in product((-1, 0, 1), repeat=3):
        if sum(1 for e in eps if e) < 2:
            continue
        cert = exclusion_T3(a, eps)
        assert verify_certificate(cert)
        assert _grid_residue(cert.target, E.modulus) not in rep.hull

    aj = GS(0, 3)
    L = L3_truncate(aj, 5)
    hull_set, _ = hull_residues(L.modulus, L.residues)
    for eps in product((-1, 0, 1), repeat=2):
        if sum(1 for e in eps if e) < 2:
            continue
        cert = exclusion_J3(aj, eps)
        assert verify_certificate(cert, 5)
        assert cert.target % L.modulus not in hull_set


def test_verify_rejects_tampering():
    cert = exclusion_T3(GS(1, 3), [1, 1])
    assert not verify_certificate(dataclasses.replace(cert, character=5))
    assert not verify_certificate(
        dataclasses.replace(cert, evaluation=UnitRational(1, 81)))
    assert not verify_certificate(
        dataclasses.replace(cert, tail_bound=TailBound(2, F(1, 5))))
    j = exclusion_J3(GS(0, 2), [1, 1])
    assert not verify_certificate(
        dataclasses.replace(j, character=PruferChar(5, 3)))
    assert not verify_certificate(
        dataclasses.replace(j, tail_bound=TailBound(2, F(1, 9))))


def test_verify_rejects_a_J3_index_past_the_zero_tail():
    # 1*zeta_10 maps 1 and 9 into T_+ and 3^10 to 1/3, but not the next
    # point 3^4 of the gap-2 continuation to 0: the zero tail is false
    j = exclusion_J3(GS(0, 2), [1, 1])
    forged = dataclasses.replace(j, character=PruferChar(1, 10), target=3 ** 10,
                                 evaluation=UnitRational(1, 3))
    assert not verify_certificate(forged, 11)
    assert not verify_certificate(dataclasses.replace(j, character=PruferChar(0, 3)))
    # 33*zeta_4 is 11*zeta_3, so this twin is the same certificate, not reduced
    assert j.character == PruferChar(11, 3)
    assert verify_certificate(dataclasses.replace(j, character=PruferChar(33, 4)), 5)
    # rejected before 3^(index+1) is built, so a huge index costs nothing
    t0 = time.perf_counter()
    assert not verify_certificate(dataclasses.replace(j, character=PruferChar(1, 10 ** 7)),
                                  10 ** 7 + 1)
    assert time.perf_counter() - t0 < 1.0


def test_verify_truncation_preconditions():
    cert = exclusion_T3(GS(1, 3, 5), [0, 1, 1])
    with pytest.raises(InvalidInputError):
        verify_certificate(cert, 2)        # finite part needs index l = 2
    j = exclusion_J3(GS(0, 2), [1, 1])
    with pytest.raises(InvalidInputError):
        verify_certificate(j, 3)           # zeta_3 needs level >= 4
    # a negative entry is no 3-adic point, whatever the truncation
    with pytest.raises(InvalidInputError, match="nonnegative"):
        verify_certificate(dataclasses.replace(j, family=GS(-2, 2)), 6)


def test_certificate_json_round_trip():
    for cert in (exclusion_T3(GS(1, 3, 5), [1, 0, -1]),
                 exclusion_J3(GS(0, 2, 4), [1, -1, 1])):
        data = cert.as_json()
        back = certificate_from_json(data)
        assert back == cert
        assert verify_certificate(back)
    with pytest.raises(InvalidInputError):
        certificate_from_json({"schema": "qcgroups/1"})


# ------------------------------------------------------------------ demos


def _in_hull(n, gens, target):
    return target % n in hull(ResidueSet(n, gens)).hull


def test_membership_demos():
    # h12-b: {h, 3h, 6h} gives 4h; h12-c: {h, 4h, 8h} gives 5h
    assert _in_hull(24, {1, 3, 6}, 4)
    assert _in_hull(64, {1, 4, 8}, 5)
    # two-x in the 3-adic quotient Z(3^5): {x, 3x} gives 2x
    assert _in_hull(3 ** 5, {1, 3}, 2)
    # h12-a: {h1, 2h1, h2, 2h2} gives h1 - h2
    assert _in_hull(40, {3, 6, 5, 10}, 3 - 5)
    # x = 0: every set holds 0
    assert _in_hull(9, {0}, 0)


def test_demo_targets_in_hulls_across_carriers():
    for n in range(1, 101):
        assert _in_hull(n, {1, 3, 6}, 4)
        assert _in_hull(n, {1, 4, 8}, 5)


# ------------------------------------------------- differential re-check


def _old_zeta(m, k, x, level):
    """m * zeta_k at x inside Z(3^level), as a UnitRational."""
    if k + 1 > level:
        raise InvalidInputError(
            f"zeta_{k} does not factor through level {level} (need level >= {k + 1})")
    return UnitRational(m * x, 3 ** (k + 1))


def _old_verify_certificate(cert, truncation=None):
    """The re-check written on UnitRational num/den instead of integer residues."""
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
            if not in_Tplus(UnitRational(cert.character, 3 ** (an + 1))):
                return False
        if cert.target * cert.character != cert.evaluation:
            return False
        if norm(cert.evaluation) <= QUARTER:
            return False
        m = 3 ** (e[cert.l_index] - e[cert.k_index]) + 2 * cert.rho
        try:
            expected = tail_bound_T3(a, m, cert.k_index, cert.tail_bound.start_index,
                                     l=cert.l_index)
        except InvalidInputError:
            return False
        if expected.bound != cert.tail_bound.bound:
            return False
        slack = F(2, 3 ** (e[cert.l_index] - e[cert.k_index] + 2)) + expected.bound
        return slack < F(1, 3) - QUARTER

    if cert.family_kind == "J3":
        if not isinstance(cert.character, PruferChar) or not isinstance(cert.target, int):
            raise InvalidInputError("J3 certificate needs a Pruefer character")
        level = level_for(a) if truncation is None else truncation
        if level < cert.character.min_level() or level < e[-1] + 1:
            raise InvalidInputError(
                f"truncation level {level} too short; need at least "
                f"{max(cert.character.min_level(), e[-1] + 1)}")
        if any(g <= 1 for g in a.gaps):
            return False
        m, k = cert.character.multiplier, cert.character.index
        for an in e:
            if not in_Tplus(_old_zeta(m, k, 3 ** an, level)):
                return False
        if _old_zeta(m, k, cert.target, level) != cert.evaluation:
            return False
        if norm(cert.evaluation) <= QUARTER:
            return False
        return cert.tail_bound.bound == 0

    raise InvalidInputError(f"unknown certificate kind {cert.family_kind!r}")


def _all_certificates():
    """Every certificate the builders accept for entries from range(9), up to 4 terms."""
    for r in range(1, 5):
        for entries in combinations(range(9), r):
            a = GapSequence(entries)
            for eps in product((-1, 0, 1), repeat=r):
                for build in (exclusion_T3, exclusion_J3):
                    try:
                        yield build(a, eps)
                    except InvalidInputError:
                        pass


def _mutants(cert):
    """cert with each integer field moved by -1 and by +1."""
    tb, ev, t, c = cert.tail_bound, cert.evaluation, cert.target, cert.character
    for d in (-1, 1):
        fields = [{"rho": cert.rho + d}, {"k_index": cert.k_index + d},
                  {"l_index": cert.l_index + d},
                  {"evaluation": UnitRational(ev.num + d, ev.den)},
                  {"tail_bound": TailBound(tb.start_index + d, tb.bound)}]
        if cert.family_kind == "T3":
            fields += [{"character": c + d}, {"target": UnitRational(t.num + d, t.den)}]
        else:
            fields += [{"character": PruferChar(c.multiplier + d, c.index)},
                       {"character": PruferChar(c.multiplier, c.index + d)},
                       {"target": t + d}]
        for change in fields:
            yield dataclasses.replace(cert, **change)


def _verdict(check, cert, truncation):
    try:
        return check(cert, truncation)
    except InvalidInputError as exc:
        return f"InvalidInputError: {exc}"


def test_verify_matches_the_num_den_recheck():
    built, seen = Counter(), Counter()
    for cert in _all_certificates():
        built[cert.family_kind] += 1
        assert verify_certificate(cert)
        a = cert.family
        for truncation in (None, len(a) + 1, a.entries[-1] + 3):
            for probe in (cert, *_mutants(cert)):
                got = _verdict(verify_certificate, probe, truncation)
                assert got == _verdict(_old_verify_certificate, probe, truncation), (
                    probe, truncation)
                seen[got if isinstance(got, bool) else "raised"] += 1
    assert built == {"T3": 844, "J3": 1892}      # gaps >= 2, two nonzero eps; T3 a_0 > 0
    assert seen[True] and seen[False] and seen["raised"]
