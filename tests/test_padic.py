from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcgroups.circle import UnitRational
from qcgroups.errors import InvalidInputError
from qcgroups.families import GapSequence
from qcgroups.padic import (PadicTruncGroup, PruferChar, canonical_residue,
                            compute_Jm, epsilon_forms, L3_truncate, level_for,
                            q12_set, zeta_eval)

GS = GapSequence.of
F = Fraction


def test_group_canonical_residues():
    g = PadicTruncGroup(3)
    assert g.order == 27
    assert g.canonical(13) == 13
    assert g.canonical(14) == -13
    assert g.canonical(26) == -1
    assert canonical_residue(2, 1) == -1


def test_group_validation():
    with pytest.raises(InvalidInputError):
        PadicTruncGroup(0)


def test_zeta_examples():
    assert zeta_eval(1, 0, 1, 4) == UnitRational(1, 3)
    assert zeta_eval(11, 3, 10, 4) == UnitRational(29, 81)
    # at k = a_n the value is 2/3, outside T_+
    v = zeta_eval(2, 2, 9, 4)
    assert v == UnitRational(2, 3) and not v.in_Tm(1)
    with pytest.raises(InvalidInputError):
        zeta_eval(1, 4, 1, 4)


@given(st.integers(-10, 10), st.integers(0, 5),
       st.integers(-400, 400), st.integers(-400, 400))
def test_zeta_is_a_homomorphism(m, k, x, y):
    level = 6
    lhs = zeta_eval(m, k, x + y, level)
    assert lhs == zeta_eval(m, k, x, level) + zeta_eval(m, k, y, level)


def test_prufer_char_call():
    chi = PruferChar(11, 3)
    assert chi(10, 4) == UnitRational(29, 81)
    assert chi.min_level() == 4
    with pytest.raises(InvalidInputError):
        chi(10, 3)
    with pytest.raises(InvalidInputError):
        PruferChar(1, -1)


# --------------------------------------------------------------------- J_m


def test_compute_Jm_examples():
    assert compute_Jm(GS(1, 3), 1, 4, "T") == frozenset({0, 2, 4})
    assert compute_Jm(GS(0, 2, 4), 2, 5, "J") == frozenset({1, 3, 5})
    assert compute_Jm(GS(1, 3), 2, 4, "T") == frozenset({0, 2, 4})


def test_compute_Jm_validation():
    with pytest.raises(InvalidInputError):
        compute_Jm(GS(1, 3), 3, 4, "T")
    with pytest.raises(InvalidInputError):
        compute_Jm(GS(0, 2, 4), 2, 5, "J", level=4)   # needs level >= 6
    with pytest.raises(InvalidInputError):
        compute_Jm(GS(1, 3), 1, 4, "X")


def test_Jm_complement_property():
    for entries in [(1, 3), (2, 4), (0, 2, 4), (1, 4, 6), (3, 5, 8)]:
        a = GapSequence(entries)
        k_max = entries[-1] + 3
        expected = frozenset(set(range(k_max + 1)) - set(entries))
        for side in ("T", "J"):
            assert compute_Jm(a, 1, k_max, side) == expected
            assert compute_Jm(a, 2, k_max, side) == expected


# ------------------------------------------------------------ epsilon / Q12


def test_epsilon_forms_examples():
    assert epsilon_forms(GS(0, 2), "J", 3) == frozenset(
        {0, 1, -1, 9, -9, 10, -10, 8, -8})
    assert epsilon_forms(GS(1), "T", 2) == frozenset(
        {UnitRational(0), UnitRational(1, 9), UnitRational(-1, 9)})
    forms = epsilon_forms(GS(1, 3), "T", 4)
    assert len(forms) == 9
    assert UnitRational(10, 81) in forms and UnitRational(8, 81) in forms


def test_epsilon_forms_validation():
    with pytest.raises(InvalidInputError):
        epsilon_forms(GS(1, 3), "T", 3)
    with pytest.raises(InvalidInputError):
        epsilon_forms(GS(0, 5), "J", 5)


def test_q12_equals_epsilon_forms_when_gaps_exceed_one():
    for entries in [(1, 3), (0, 2), (2, 4), (1, 4)]:
        a = GapSequence(entries)
        L = entries[-1] + 1
        assert q12_set(a, "T", L) == epsilon_forms(a, "T", L)
        for M in (entries[-1] + 1, entries[-1] + 2):
            assert q12_set(a, "J", M) == epsilon_forms(a, "J", M)


def test_q12_unconstrained_carrier():
    # a covers every index below the level: no constraints survive
    g = PadicTruncGroup(3)
    assert q12_set(GS(0, 1, 2), "J", 3) == frozenset(
        g.canonical(x) for x in range(27))


# ------------------------------------------------------------------- L3


def test_L3_truncate():
    assert L3_truncate(GS(0, 2), 4).residues == frozenset({0, 1, 9, 72, 80})
    big = L3_truncate(GS(0, 2, 4), 7)
    assert big.modulus == 3 ** 7
    assert {81, 3 ** 7 - 81} <= big.residues
    with pytest.raises(InvalidInputError, match="smallest admissible level is 7"):
        L3_truncate(GS(0, 5), 4)
    assert level_for(GS(0, 2, 4)) == 6
