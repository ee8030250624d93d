from fractions import Fraction
from itertools import combinations

import pytest

from qcgroups.circle import UnitRational, signed_residue
from qcgroups.cli import main
from qcgroups.duality import ResidueSet, in_t_plus, polar_residues
from qcgroups.errors import InvalidInputError
from qcgroups.families import GapSequence
from qcgroups.padic import (PruferChar, compute_Jm, epsilon_forms, L3_truncate,
                            level_for, q12_set)

GS = GapSequence.of
F = Fraction


def _canonical(x, order):
    """The signed residue of x in Z(order), computed apart from circle.signed_residue."""
    r = x % order
    return r if 2 * r <= order else r - order


def _in_Tplus(x):
    """The point x of T lies in T_+, read off its canonical window."""
    return 4 * abs(x.num) <= x.den


def test_group_canonical_residues():
    assert [signed_residue(x, 27) for x in (13, 14, 26, -1, -13, -14, 27)] == [
        13, -13, -1, -1, -13, 13, 0]
    # even n: n/2 is kept and -n/2 maps onto it
    assert [signed_residue(x, 8) for x in (4, -4, 5, -3, 12)] == [4, 4, -3, -3, 4]
    assert signed_residue(5, 1) == signed_residue(-5, 1) == 0
    for M in range(1, 7):
        n = 3 ** M
        for x in range(-2 * n, 2 * n + 1):
            assert signed_residue(x, n) == _canonical(x, n), (x, n)


def test_group_validation(capsys):
    # the truncated group Z(3^level) needs level >= 1; hull-j3 builds it
    for level in ("0", "-1"):
        assert main(["hull-j3", "--level", level, "--set", "0"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "level must be >= 1" in out.err
    assert main(["hull-j3", "--level", "1", "--set", "0"]) == 0
    assert '"order": 3' in capsys.readouterr().out


def test_prufer_char_record():
    chi = PruferChar(11, 3)
    assert chi.min_level() == 4
    assert chi.as_json() == {"multiplier": 11, "index": 3}
    with pytest.raises(InvalidInputError):
        PruferChar(1, -1)


# --------------------------------------------------------------------- J_m


def test_compute_Jm_examples():
    assert compute_Jm(GS(1, 3), 1, 4, "T3") == frozenset({0, 2, 4})
    assert compute_Jm(GS(0, 2, 4), 2, 5, "J3") == frozenset({1, 3, 5})
    assert compute_Jm(GS(1, 3), 2, 4, "T3") == frozenset({0, 2, 4})


def test_compute_Jm_validation():
    with pytest.raises(InvalidInputError):
        compute_Jm(GS(1, 3), 3, 4, "T3")
    with pytest.raises(InvalidInputError):
        compute_Jm(GS(1, 3), 1, 4, "X")


def test_Jm_complement_property():
    for entries in [(1, 3), (2, 4), (0, 2, 4), (1, 4, 6), (3, 5, 8)]:
        a = GapSequence(entries)
        k_max = entries[-1] + 3
        expected = frozenset(set(range(k_max + 1)) - set(entries))
        for kind in ("T3", "J3"):
            assert compute_Jm(a, 1, k_max, kind) == expected
            assert compute_Jm(a, 2, k_max, kind) == expected


def _big_power_Jm(a, m, k_max, kind):
    """m*3^i / 3^(j+1) reduced mod 3^(j+1) and tested as it stands, one big power per k."""
    def ok(k):
        pairs = [(k, an) if kind == "T3" else (an, k) for an in a.entries]
        return all(in_t_plus(m * 3 ** i % 3 ** (j + 1), 3 ** (j + 1)) for i, j in pairs)
    return frozenset(k for k in range(k_max + 1) if ok(k))


@pytest.mark.parametrize("kind", ["T3", "J3"])
def test_Jm_matches_the_big_power_test(kind):
    seqs = [GapSequence(c) for r in range(1, 4) for c in combinations(range(9), r)]
    for a in seqs:
        for m in (1, 2):
            for k_max in (0, a.entries[-1], 40):
                assert compute_Jm(a, m, k_max, kind) == _big_power_Jm(a, m, k_max, kind), (a, m)


# ------------------------------------------------------------ epsilon / Q12


def test_epsilon_forms_examples():
    assert epsilon_forms(GS(0, 2), "J3", 3) == ResidueSet(
        27, frozenset({0, 1, -1, 9, -9, 10, -10, 8, -8}))
    assert epsilon_forms(GS(1), "T3", 2) == ResidueSet(9, frozenset({0, 1, -1}))
    forms = epsilon_forms(GS(1, 3), "T3", 4)
    assert len(forms.residues) == 9
    assert {10, 8} <= forms.residues    # 10/81 and 8/81


def test_epsilon_forms_validation():
    with pytest.raises(InvalidInputError):
        epsilon_forms(GS(1, 3), "T3", 3)
    with pytest.raises(InvalidInputError):
        epsilon_forms(GS(0, 5), "J3", 5)


def test_q12_equals_epsilon_forms_when_gaps_exceed_one():
    for entries in [(1, 3), (0, 2), (2, 4), (1, 4)]:
        a = GapSequence(entries)
        L = entries[-1] + 1
        assert q12_set(a, "T3", L) == epsilon_forms(a, "T3", L)
        for M in (entries[-1] + 1, entries[-1] + 2):
            assert q12_set(a, "J3", M) == epsilon_forms(a, "J3", M)


def test_q12_unconstrained_carrier():
    # a covers every index below the level: no constraints survive
    assert q12_set(GS(0, 1, 2), "J3", 3) == ResidueSet(27, frozenset(range(27)))


# The per-family formulas that the single Z(3^M) path replaced, kept as oracles.

def _old_Jm(a, m, k_max, kind):
    if kind == "T3":   # m*eta_k(3^-(a_n+1))
        ok = lambda k: all(_in_Tplus(UnitRational(m * 3 ** k, 3 ** (an + 1))) for an in a.entries)
    else:              # m*zeta_k(3^(a_n)) = m*3^(a_n) / 3^(k+1)
        ok = lambda k: all(_in_Tplus(UnitRational(m * 3 ** an, 3 ** (k + 1))) for an in a.entries)
    return frozenset(k for k in range(k_max + 1) if ok(k))


def _old_epsilon_forms(a, kind, exponent):
    """T3 as UnitRationals, J3 as canonical signed residues."""
    if kind == "T3":
        acc = {UnitRational(0)}
        for an in a.entries:
            x = UnitRational(1, 3 ** (an + 1))
            acc = {s + e * x for s in acc for e in (-1, 0, 1)}
    else:
        acc = {0}
        for an in a.entries:
            acc = {_canonical(s + e * 3 ** an, 3 ** exponent) for s in acc for e in (-1, 0, 1)}
    return frozenset(acc)


def _old_q12(a, kind, exponent):
    """The polar of m*eta_k (T3) or m*zeta_k (J3), k < exponent off the entries."""
    ks = [k for k in range(exponent) if k not in a.entries]
    n = 3 ** exponent
    if kind == "T3":
        chars = [m * 3 ** k for k in ks for m in (1, 2)]
        return frozenset(UnitRational(j, n) for j in polar_residues(n, [0] + chars))
    chars = [m * 3 ** (exponent - k - 1) for k in ks for m in (1, 2)]
    return frozenset(_canonical(x, n) for x in polar_residues(n, [0] + chars))


def _as_old(S, kind, exponent):
    """A residue set written the old per-family way."""
    if kind == "T3":
        return frozenset(UnitRational(r, S.modulus) for r in S.residues)
    return frozenset(_canonical(r, 3 ** exponent) for r in S.residues)


@pytest.mark.parametrize("kind", ["T3", "J3"])
def test_one_path_matches_the_per_family_formulas(kind):
    seqs = [GapSequence(c) for r in range(1, 4) for c in combinations(range(7), r)]
    for a in seqs:
        amax = a.entries[-1]
        for m in (1, 2):
            k_max = amax + 3
            assert compute_Jm(a, m, k_max, kind) == _old_Jm(a, m, k_max, kind), (a, m)
        for exponent in range(amax + 1, amax + 4):
            eps, q12 = epsilon_forms(a, kind, exponent), q12_set(a, kind, exponent)
            assert eps.modulus == q12.modulus == 3 ** exponent
            assert _as_old(eps, kind, exponent) == _old_epsilon_forms(a, kind, exponent)
            assert _as_old(q12, kind, exponent) == _old_q12(a, kind, exponent), (a, exponent)


# ------------------------------------------------------------------- L3


def test_L3_truncate():
    assert L3_truncate(GS(0, 2), 4).residues == frozenset({0, 1, 9, 72, 80})
    big = L3_truncate(GS(0, 2, 4), 7)
    assert big.modulus == 3 ** 7
    assert {81, 3 ** 7 - 81} <= big.residues
    with pytest.raises(InvalidInputError, match="smallest admissible level is 7"):
        L3_truncate(GS(0, 5), 4)
    # the one size bound, met before 3^level is built
    assert L3_truncate(GS(0, 2), 13).modulus == 3 ** 13
    for level in (14, 3_000_000):
        with pytest.raises(InvalidInputError, match=f"modulus 3\\^{level} must lie in 1..1594323"):
            L3_truncate(GS(0, 2), level)
    assert level_for(GS(0, 2, 4)) == 6
