from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcgroups.circle import (RationalIntervalUnion, UnitRational, render_point, render_points,
                             signed_residue, signed_residues, tm_interval)
from qcgroups.errors import InvalidInputError

F = Fraction


def norm(x):
    """Distance from 0 in T, read off the canonical window."""
    return F(abs(x.num), x.den)


def in_Tm(x, m):
    """x lies in the closed arc T_m = [-1/(4m), 1/(4m)]."""
    return 4 * m * abs(x.num) <= x.den


unit_rationals = st.builds(
    UnitRational,
    st.integers(min_value=-400, max_value=400),
    st.integers(min_value=1, max_value=200),
)


@pytest.mark.parametrize("p,q,expected", [
    (1, 3, UnitRational(1, 3)),
    (5, 4, UnitRational(1, 4)),
    (-3, 4, UnitRational(1, 4)),
    (3, -4, UnitRational(1, 4)),
    (2, 4, UnitRational(1, 2)),
    (7, 7, UnitRational(0, 1)),
    (-1, 2, UnitRational(1, 2)),   # -1/2 and 1/2 are the same circle point
])
def test_canonical_representative(p, q, expected):
    assert UnitRational(p, q) == expected


def test_zero_denominator_rejected():
    with pytest.raises(InvalidInputError):
        UnitRational(1, 0)


def test_canonical_window_is_half_open():
    assert UnitRational(1, 2).num == 1
    assert UnitRational(-1, 2) == UnitRational(1, 2)
    assert str(UnitRational(-1, 3)) == "-1/3"


@pytest.mark.parametrize("x,expected", [
    (UnitRational(1, 3), F(1, 3)),
    (UnitRational(3, 4), F(1, 4)),
    (UnitRational(1, 2), F(1, 2)),
    (UnitRational(0, 1), F(0)),
])
def test_norm_values(x, expected):
    assert norm(x) == expected


@given(unit_rationals)
def test_norm_symmetric_and_bounded(x):
    assert norm(x) == norm(-x)
    assert F(0) <= norm(x) <= F(1, 2)


@pytest.mark.parametrize("x,m,expected", [
    (UnitRational(1, 4), 1, True),     # the boundary point belongs to T_+
    (UnitRational(29, 81), 1, False),
    (UnitRational(1, 32), 8, True),
    (UnitRational(3, 4), 1, True),     # norm 1/4
    (UnitRational(1, 2), 1, False),
])
def test_in_Tm_values(x, m, expected):
    assert in_Tm(x, m) is expected


@given(unit_rationals, st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=12))
def test_Tm_antitone_in_m(x, k, m):
    if k <= m and in_Tm(x, m):
        assert in_Tm(x, k)


@given(unit_rationals, unit_rationals)
def test_T2_plus_T2_inside_Tplus(x, y):
    if in_Tm(x, 2) and in_Tm(y, 2):
        assert in_Tm(x + y, 1)


@given(unit_rationals, unit_rationals)
def test_group_laws(x, y):
    assert x + y == y + x
    assert (x - y) + y == x
    assert x + (-x) == UnitRational(0)


@given(unit_rationals, st.integers(min_value=-20, max_value=20))
def test_scalar_multiple_is_repeated_addition(x, k):
    acc = UnitRational(0)
    for _ in range(abs(k)):
        acc = acc + (x if k >= 0 else -x)
    assert acc == k * x


# ---------------------------------------------------------------- intervals


def U(*pairs):
    return RationalIntervalUnion.from_pairs(pairs)


def test_interval_examples():
    assert U((F(-1, 4), F(1, 4))).intersect(U((F(1, 8), F(3, 8)))) == U((F(1, 8), F(1, 4)))


def test_interval_normalization_merges_touching():
    assert U((0, 1), (1, 2)) == U((0, 2))
    assert U((0, 1), (2, 3)).intervals == ((F(0), F(1)), (F(2), F(3)))
    with pytest.raises(InvalidInputError):
        U((1, 0))


intervals_strategy = st.lists(
    st.tuples(st.integers(-24, 24), st.integers(0, 10)).map(
        lambda t: (F(t[0], 12), F(t[0], 12) + F(t[1], 12))),
    min_size=0, max_size=5).map(RationalIntervalUnion.from_pairs)

probes = [F(k, 24) for k in range(-60, 61)]


@given(intervals_strategy, intervals_strategy)
@settings(max_examples=60)
def test_union_and_intersection_pointwise(a, b):
    u, i = a.union(b), a.intersect(b)
    assert i == RationalIntervalUnion.from_pairs(i.intervals)    # already normalized
    for q in probes:
        assert u.contains(q) == (a.contains(q) or b.contains(q))
        assert i.contains(q) == (a.contains(q) and b.contains(q))


@given(intervals_strategy, st.integers(-30, 30))
@settings(max_examples=60)
def test_translate_pointwise(a, t0):
    t = F(t0, 6)
    tr = a.translate(t)
    for q in probes:
        assert tr.contains(q + t) == a.contains(q)


def test_tm_interval():
    assert tm_interval(1) == U((F(-1, 4), F(1, 4)))
    assert tm_interval(8) == U((F(-1, 32), F(1, 32)))
    with pytest.raises(InvalidInputError):
        tm_interval(0)


def test_rendering():
    assert str(U((F(-1, 4), F(1, 4)), (F(1, 2), F(1, 2)))) == "[-1/4,1/4]∪[1/2,1/2]"
    assert str(UnitRational(0)) == "0"
    assert str(UnitRational(10, 81)) == "10/81"


def test_render_point():
    assert [render_point(r, 8) for r in (7, 2)] == ["-1/8", "1/4"]
    assert [render_point(r, 8) for r in (0, 4, 12, -6)] == ["0", "1/2", "1/2", "1/4"]
    with pytest.raises(InvalidInputError, match="too long to print"):
        render_point(1, 10 ** 5000)


def test_array_writers_match_the_point_writers_at_every_small_modulus():
    for n in range(1, 2001):
        r = np.arange(n, dtype=np.int64)
        assert render_points(r, n) == [render_point(x, n) for x in range(n)], n
        assert signed_residues(r, n) == [signed_residue(x, n) for x in range(n)], n
    for n in range(1, 60):                  # unreduced input, as a list
        xs = list(range(-2 * n, 2 * n))
        assert render_points(xs, n) == [render_point(x, n) for x in xs]
        assert signed_residues(xs, n) == [signed_residue(x, n) for x in xs]


@given(st.integers(1, 3 ** 13), st.data())
@settings(max_examples=200, deadline=None)
def test_array_writers_match_the_point_writers_at_large_moduli(n, data):
    xs = data.draw(st.lists(st.integers(-n, 2 * n), max_size=50))
    divisors = [d for d in (2, 3, 4, 8, 9, 27, 64, 81) if n % d == 0]
    xs += [n // d * k for d in divisors for k in range(-2, 3)]    # small denominators
    assert render_points(xs, n) == [render_point(x, n) for x in xs]
    assert signed_residues(np.array(xs, dtype=np.int64), n) == [signed_residue(x, n) for x in xs]
