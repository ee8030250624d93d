import json
from fractions import Fraction
from itertools import combinations

import pytest

from qcgroups.circle import UnitRational
from qcgroups.cli import main
from qcgroups.duality import hull
from qcgroups.errors import InvalidInputError
from qcgroups.families import (DivisibleChain, GapSequence, NOT_QUASI_CONVEX,
                               QUASI_CONVEX, necessary_report_R,
                               necessary_report_T, points_K2, points_K3,
                               points_R2, verdict_J3, verdict_R2, verdict_T2,
                               verdict_T3)
from qcgroups.padic import L3_truncate

GS = GapSequence.of
F = Fraction


# ------------------------------------------------------------------- types


def _cli_json(capsys, *argv):
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def test_gap_sequence_validation(capsys):
    assert GS(1, 3, 5).gaps == (2, 2)
    out = _cli_json(capsys, "family-verdict", "--family", "T2", "--seq", "1, 3,5")
    assert out["entries"] == [1, 3, 5]
    assert GS(-3, 0, 2).gaps == (3, 2)
    with pytest.raises(InvalidInputError):
        GS(1, 1)
    with pytest.raises(InvalidInputError):
        GapSequence(())
    with pytest.raises(InvalidInputError):
        GS(-1, 2).require_nonnegative()


def test_divisible_chain_validation(capsys):
    out = _cli_json(capsys, "family-verdict", "--family", "chain", "--seq", "4,8,64")
    assert out["ratios"] == [2, 8]
    with pytest.raises(InvalidInputError):
        DivisibleChain((1, 2))
    with pytest.raises(InvalidInputError):
        DivisibleChain((4, 6))
    with pytest.raises(InvalidInputError):
        DivisibleChain((8, 4))


# ---------------------------------------------------------------- verdicts


@pytest.mark.parametrize("entries,outcome,violated", [
    ((1, 2, 5, 8), QUASI_CONVEX, None),
    ((1, 2, 4, 7), NOT_QUASI_CONVEX, "A.iii"),
    ((1, 2, 5, 6), NOT_QUASI_CONVEX, "A.ii"),
    ((0, 2, 4), NOT_QUASI_CONVEX, "A.i"),
    ((2, 4, 6), QUASI_CONVEX, None),
])
def test_verdict_T2(entries, outcome, violated):
    v = verdict_T2(GapSequence(entries))
    assert (v.outcome, v.violated) == (outcome, violated)


@pytest.mark.parametrize("entries,outcome,violated", [
    ((0, 2, 4), QUASI_CONVEX, None),
    ((0, 1, 4), QUASI_CONVEX, None),
    ((0, 1, 3), NOT_QUASI_CONVEX, "B.ii"),
    ((-2, 0, 2), QUASI_CONVEX, None),
    ((1, 2, 3), NOT_QUASI_CONVEX, "B.i"),
])
def test_verdict_R2(entries, outcome, violated):
    v = verdict_R2(GapSequence(entries))
    assert (v.outcome, v.violated) == (outcome, violated)


@pytest.mark.parametrize("entries,outcome,violated", [
    ((1, 3, 5), QUASI_CONVEX, None),
    ((0, 2, 4), NOT_QUASI_CONVEX, "C.i"),
    ((1, 2, 4), NOT_QUASI_CONVEX, "C.ii"),
])
def test_verdict_T3(entries, outcome, violated):
    v = verdict_T3(GapSequence(entries))
    assert (v.outcome, v.violated) == (outcome, violated)


@pytest.mark.parametrize("entries,outcome", [
    ((0, 2, 4), QUASI_CONVEX),
    ((0, 1, 3), NOT_QUASI_CONVEX),
    ((2, 4, 6), QUASI_CONVEX),
])
def test_verdict_J3(entries, outcome):
    assert verdict_J3(GapSequence(entries)).outcome == outcome


def test_clause_order_first_violation_wins():
    v = verdict_T2(GS(0, 1, 2))     # violates (i) and (ii); (i) is reported
    assert v.violated == "A.i"
    v = verdict_T3(GS(0, 1))        # violates (i) and (ii); (i) is reported
    assert v.violated == "C.i"


def test_negative_entries_rejected_where_required():
    for verdict in (verdict_T2, verdict_T3, verdict_J3):
        with pytest.raises(InvalidInputError):
            verdict(GS(-1, 2))
    assert verdict_R2(GS(-1, 2)).outcome == QUASI_CONVEX


def test_verdict_json():
    v = verdict_T2(GS(1, 2, 5, 6))
    data = v.as_json()
    assert data["outcome"] == NOT_QUASI_CONVEX
    assert data["violated"] == "A.ii"
    assert data["witness_recipe"]["kind"] == "pair_sum"


# ------------------------------------------------------------- sufficiency
# The earlier sufficient condition of Dikranjan and de Leo: every gap
# above 1, plus a_0 > 0 on the circle.  The verdicts are strictly weaker.


def test_sufficiency_examples():
    # a unit gap, so outside the earlier condition, yet quasi-convex
    assert verdict_T2(GS(1, 2, 5)).outcome == QUASI_CONVEX


def test_sufficiency_implies_verdict():
    seqs = [GapSequence(c) for r in range(1, 7)
            for c in combinations(range(13), r)]
    for a in seqs:
        if all(g > 1 for g in a.gaps):
            assert verdict_R2(a).outcome == QUASI_CONVEX
            assert verdict_J3(a).outcome == QUASI_CONVEX
            if a.entries[0] > 0:
                assert verdict_T2(a).outcome == QUASI_CONVEX


# ------------------------------------------------------------------ chains


def test_necessity_report_T():
    rep = necessary_report_T(DivisibleChain((2, 8)))
    assert not rep.b0_ge_4 and not rep.all_pass
    rep = necessary_report_T(DivisibleChain((9, 27, 81)))
    assert not rep.no_q3_without_4_divisor and not rep.all_pass
    rep = necessary_report_T(DivisibleChain((4, 8, 64)))
    assert rep.all_pass


def test_necessity_report_R():
    assert not necessary_report_R(DivisibleChain((2, 4, 8))).at_most_one_q2
    rep = necessary_report_R(DivisibleChain((2, 4, 16)))
    assert rep.at_most_one_q2 and not rep.q2_then_gt4
    assert necessary_report_R(DivisibleChain((2, 4, 128))).all_pass


def test_verdict_consistent_with_necessity():
    seqs = [GapSequence(c) for r in range(1, 5)
            for c in combinations(range(10), r)]

    def chain(a, p):
        return DivisibleChain(tuple(p ** (an + 1) for an in a.entries))

    for a in seqs:
        if verdict_T3(a).outcome == QUASI_CONVEX:
            assert necessary_report_T(chain(a, 3)).all_pass
        if verdict_T2(a).outcome == QUASI_CONVEX:
            assert necessary_report_T(chain(a, 2)).all_pass
        if verdict_R2(a).outcome == QUASI_CONVEX:
            assert necessary_report_R(chain(a, 2)).all_pass


# ------------------------------------------------------------------ points


def test_family_points():
    E = points_K3(GS(1, 3))
    assert E.modulus == 81
    assert E.residues == {0, 9, 72, 1, 80}       # 0, +-1/9, +-1/81
    assert points_K2(GS(1)).residues == {0, 1, 3}
    assert L3_truncate(GS(0, 2), 4).residues == {0, 1, 9, 72, 80}
    assert points_R2(GS(0, 2, 4)) == {F(0), F(1, 2), F(-1, 2), F(1, 8),
                                      F(-1, 8), F(1, 32), F(-1, 32)}
    assert F(2) in points_R2(GS(-2, 0))


def test_family_points_modulus_override():
    E = points_K3(GS(1), modulus=27)
    assert E.residues == {0, 3, 24}
    with pytest.raises(InvalidInputError):
        points_K3(GS(1), modulus=12)
    with pytest.raises(InvalidInputError):
        points_K2(GS(-1, 2))


# --------------------------------------------------------- witness recipes


def test_translate_recipe_skips_colliding_entry():
    # 1/2 + 1/4 is the family point -1/4; the witness must use an entry >= 2
    v = verdict_T2(GS(0, 1, 3))
    w = v.witness_recipe.witness_point(GS(0, 1, 3))
    assert w == UnitRational(1, 2) + UnitRational(1, 16)
    v = verdict_T2(GS(0, 1))
    assert v.witness_recipe.terms_needed == 3   # needs the extension


def test_recipe_points_enter_hulls():
    cases = [
        (verdict_T2, points_K2, GS(0, 2, 5)),       # translate
        (verdict_T2, points_K2, GS(1, 2, 5, 6)),    # pair_sum
        (verdict_T2, points_K2, GS(1, 2, 4, 7)),    # five_h
        (verdict_T3, points_K3, GS(1, 2, 4)),       # two_x
    ]
    for verdict, points, a in cases:
        v = verdict(a)
        assert v.outcome == NOT_QUASI_CONVEX
        recipe = v.witness_recipe
        w = recipe.witness_point(a)
        E = points(a.prefix(recipe.terms_needed))
        rep = hull(E)
        res = (w.num * (E.modulus // w.den)) % E.modulus
        assert res in rep.hull
        assert res not in E.residues


def test_recipe_requires_enough_terms():
    v = verdict_T2(GS(1, 2, 4, 7))
    with pytest.raises(InvalidInputError):
        v.witness_recipe.witness_point(GS(1, 2))


def _extended(a: GapSequence, terms: int) -> GapSequence:
    if terms <= len(a):
        return a
    return GapSequence(a.entries + tuple(
        a.entries[-1] + 2 * (i + 1) for i in range(terms - len(a))))


def test_base3_verdicts_agree_with_truncated_hulls():
    # circle side: grids up to 3^7
    for r in range(1, 4):
        for entries in combinations(range(7), r):
            a = GapSequence(entries)
            v = verdict_T3(a)
            if v.outcome == QUASI_CONVEX:
                for t in range(1, len(a) + 1):
                    assert hull(points_K3(a.prefix(t))).is_quasi_convex()
            else:
                recipe = v.witness_recipe
                work = _extended(a, recipe.terms_needed)
                w = recipe.witness_point(work)
                E = points_K3(work.prefix(recipe.terms_needed))
                rep = hull(E)
                res = (w.num * (E.modulus // w.den)) % E.modulus
                assert res in rep.hull and res not in E.residues

    # 3-adic side: levels up to 7

    for r in range(1, 4):
        for entries in combinations(range(6), r):
            a = GapSequence(entries)
            v = verdict_J3(a)
            if v.outcome == QUASI_CONVEX:
                for t in range(1, len(a) + 1):
                    prefix = a.prefix(t)
                    L = L3_truncate(prefix, prefix.entries[-1] + 2)
                    assert hull(L).is_quasi_convex()
            else:
                recipe = v.witness_recipe
                w = recipe.witness_point(a)          # 2 * 3^(a_n), within data
                prefix = a.prefix(recipe.terms_needed)
                L = L3_truncate(prefix, prefix.entries[-1] + 2)
                rep = hull(L)
                assert w % L.modulus in rep.hull
                assert w % L.modulus not in L.residues
