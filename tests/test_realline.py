from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcgroups import realline
from qcgroups.circle import HALF, RationalIntervalUnion
from qcgroups.duality import ResidueSet, hull
from qcgroups.errors import InvalidInputError
from qcgroups.families import GapSequence, points_R2
from qcgroups.realline import (QUARTER, HullMembership, RealFiniteSet,
                               _bad_point_in, _first_bad_shift, hull_R,
                               member_hull_R, polar_R)

F = Fraction
S = lambda *p: RealFiniteSet(p)


def in_Tplus(q: Fraction) -> bool:
    r = q % 1
    return r <= F(1, 4) or r >= F(3, 4)


# ------------------------------------------------------------------ polars


def test_polar_quarter():
    p = polar_R(S(F(1, 4)))
    assert p.period == 4
    assert p.one_period == RationalIntervalUnion.from_pairs([(0, 1), (3, 4)])
    assert p.contains(1) and p.contains(-1) and p.contains(4)
    assert not p.contains(2)


def test_polar_of_zero_set_is_everything():
    p = polar_R(S(0))
    for y in (F(0), F(7, 3), F(-12, 5)):
        assert p.contains(y)


def test_polar_one_sixth_family():
    # {y : y/6, y/2, y all in T_+}: one period [0,1/4] u [23/4,6]
    p = polar_R(S(F(1, 6), F(1, 2), 1))
    assert p.period == 6
    assert p.one_period == RationalIntervalUnion.from_pairs(
        [(0, F(1, 4)), (F(23, 4), 6)])
    assert p.contains(6) and p.contains(F(1, 8))
    assert not p.contains(1) and not p.contains(2) and not p.contains(F(3, 2))


@given(st.sets(st.tuples(st.integers(-4, 4), st.integers(1, 4)),
               min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_polar_matches_its_definition_densely(raw):
    # endpoints of one period sit on multiples of D/(4*lcm(c)), c = D*|x|;
    # probing at half that step hits every endpoint and every midpoint
    base = RealFiniteSet(frozenset(F(p, q) for p, q in raw))
    polar = polar_R(base)
    D = base.common_denominator
    step = F(D, 8 * lcm(*(int(abs(x) * D) for x in base.points if x)))
    n = int(D / step)
    for k in range(-n, n + 1):          # y across the two periods [-D, D]
        y = k * step
        assert polar.contains(y) == all(in_Tplus(y * x) for x in base.points), y


def _fraction_contains(p, y):
    """PeriodicPolar.contains as it was: a scan of the Fraction one_period."""
    r = F(y) % p.period
    return p.one_period.contains(r) or p.one_period.contains(r + p.period)


@given(st.integers(1, 6), st.integers(0, 2),
       st.lists(st.tuples(st.integers(1, 5), st.integers(0, 5)), min_size=1, max_size=6),
       st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_contains_matches_the_fraction_scan(D, start, pieces, pad):
    # sorted disjoint pairs over L, isolated points (x, x) included; with
    # start = 0 and pad = 0 the polar touches both edges of the period
    pairs, x = [], start
    for gap, length in pieces:
        pairs.append((x, x + length))
        x += length + gap
    L = max(pairs[-1][1] + pad, 1)
    p = realline.PeriodicPolar(F(D), tuple(pairs), L)
    probes = {F(0), F(D)}
    for x, y in pairs:
        lo, hi = F(x * D, L), F(y * D, L)
        eps = F(D, 3 * L)                   # less than one grid step: into the gaps
        probes |= {lo, hi, (lo + hi) / 2, lo - eps, hi + eps}
    for q in probes:
        for y in (q - D, q, q + D, q + 2 * D, -q):
            assert p.contains(y) == _fraction_contains(p, y), (pairs, L, y)


def test_empty_set_rejected():
    with pytest.raises(InvalidInputError):
        RealFiniteSet(frozenset())


# -------------------------------------------------------------- membership


def test_member_examples():
    assert member_hull_R(S(F(1, 6), F(1, 2), 1), F(2, 3)).inside
    res = member_hull_R(S(F(1, 4)), F(1, 2))
    assert not res.inside
    p = polar_R(S(F(1, 4)))
    assert p.contains(res.witness)
    assert not in_Tplus(res.witness * F(1, 2))


def test_member_extensivity_and_zero():
    base = S(F(1, 6), F(1, 2), 1, 0)
    for z in base.points:
        assert member_hull_R(base, z).inside
    assert member_hull_R(S(F(1, 4)), 0).inside
    res = member_hull_R(S(0), F(1, 3))
    assert not res.inside and not in_Tplus(res.witness * F(1, 3))


def test_member_respects_interval_bound():
    # Q_R(S) sits inside [-max|S|, max|S|]
    base = S(0, 1, -1, F(1, 2), -F(1, 2))
    for z in (F(3, 2), F(9, 8), F(-2)):
        assert not member_hull_R(base, z).inside


def _interval_in_Tplus_mod1(A: Fraction, B: Fraction) -> bool:
    """Whole closed [A, B] inside T_+ + Z (requires B - A <= 1/2 to be possible)."""
    if B - A > HALF:
        return False
    t = (A + QUARTER).numerator // (A + QUARTER).denominator  # floor(A + 1/4)
    return A - t >= -QUARTER and B - t <= QUARTER


def shift_loop_member(polar, z):
    """Reference membership: scan every shift j/shift_den; also returns the bad j."""
    D = polar.period
    dz = D * z
    shift_den = dz.denominator          # kD z mod 1 hits j/shift_den, all j
    num_mod = dz.numerator % shift_den
    for j in range(shift_den):
        s = Fraction(j, shift_den)
        if shift_den == 1:
            k_j = 0
        else:
            k_j = (j * pow(num_mod, -1, shift_den)) % shift_den
        for lo, hi in polar.one_period.intervals:
            if z > 0:
                A, B = z * lo + s, z * hi + s
            else:
                A, B = z * hi + s, z * lo + s
            if _interval_in_Tplus_mod1(A, B):
                continue
            w_img = _bad_point_in(A, B)
            y = (w_img - s) / z + k_j * D
            return HullMembership(False, y), j
    return HullMembership(True), None


def test_member_matches_the_shift_loop_densely():
    values = [F(1, 2), F(1, 3), F(1, 4), F(2, 3), F(3, 4), F(1, 6), F(5, 8), F(1), F(3, 2)]
    sets = [c for size in (1, 2) for c in combinations(values, size)]
    targets = [F(p, q) for q in range(1, 13) for p in range(-2 * q, 2 * q + 1) if p]
    shifted = 0
    for points in sets:
        polar = polar_R(RealFiniteSet(points))
        for z in targets:
            expected, j = shift_loop_member(polar, z)
            assert polar.member(z) == expected, (points, z)
            shifted += bool(j)
    assert len(sets) * len(targets) == 14040
    assert shifted == 156       # witnesses from a nonzero shift keep the second branch tested


def test_first_bad_shift_matches_every_shift():
    # the second-copy clause only decides n = 2 with a point image on 1/4 + Z,
    # which no polar_R polar produces, so it is checked here directly;
    # the grid point k/8 is passed as the numerator k over M = 8
    grid = range(-12, 13)
    for a in grid:
        for b in (b for b in grid if b >= a):
            for n in range(1, 9):
                bad = [j for j in range(n)
                       if not _interval_in_Tplus_mod1(F(a, 8) + F(j, n), F(b, 8) + F(j, n))]
                assert _first_bad_shift(a, b, n, 8) == (bad[0] if bad else None), (a, b, n)


@given(st.sets(st.tuples(st.integers(-32, 32), st.integers(1, 16)), min_size=1, max_size=3),
       st.integers(-120, 120), st.integers(1, 60))
@settings(max_examples=80, deadline=None)
def test_member_matches_the_shift_loop_on_random_sets(raw, zn, zd):
    polar = polar_R(RealFiniteSet(frozenset(F(p, q) for p, q in raw)))
    z = F(zn, zd)
    assert polar.member(z) == shift_loop_member(polar, z)[0], (raw, z)


def test_member_on_the_polar_of_zero():
    polar = polar_R(S(0))
    assert (polar.period, polar.pairs, polar.L) == (1, ((0, 4),), 4)
    assert str(polar.one_period) == "[0,1]"
    assert polar.member(F(1, 3)) == HullMembership(False, F(7, 8))
    assert polar.member(F(1, 3)) == shift_loop_member(polar, F(1, 3))[0]
    assert member_hull_R(S(0), F(1, 3)) == HullMembership(False, F(7, 8))


def _rejected_witnesses(polar, targets):
    """Messages of the RuntimeErrors member raises; every witness it does return is checked."""
    messages = []
    for z in targets:
        try:
            res = polar.member(z)
        except RuntimeError as err:
            messages.append(str(err))
            continue
        if not res.inside:
            assert polar.contains(res.witness) and not in_Tplus(res.witness * z), z
    return messages


def test_member_rechecks_do_not_trust_the_search(monkeypatch):
    polar = polar_R(S(F(1, 6), F(1, 2), 1))
    targets = [F(p, q) for q in range(1, 13) for p in range(-2 * q, 2 * q + 1) if p]
    assert _rejected_witnesses(polar, targets) == []
    # a search one shift off: the next shift after the first bad one, wrapped
    # back to 0 at n, and shift 0 for an interval with no bad shift at all
    real = realline._first_bad_shift

    def off_by_one(a, b, n, M):
        j = real(a, b, n, M)
        return 0 if j is None else (j + 1) % n

    monkeypatch.setattr(realline, "_first_bad_shift", off_by_one)
    assert _rejected_witnesses(polar, targets)
    # a bad point that is good: only the exclusion re-check can see it
    monkeypatch.setattr(realline, "_bad_point_in", lambda A, B: A)
    assert "witness does not exclude; implementation bug" in _rejected_witnesses(polar, targets)


# ------------------------------------------------------------------- hulls


def test_hull_examples():
    own = S(0, F(1, 2), -F(1, 2), F(1, 8), -F(1, 8), F(1, 32), -F(1, 32))
    assert hull_R(own) == own.points

    grew = S(0, F(1, 2), -F(1, 2), F(1, 4), -F(1, 4), F(1, 16), -F(1, 16))
    h = hull_R(grew)
    assert F(5, 16) in h and F(-5, 16) in h
    assert h == grew.points | {F(5, 16), F(-5, 16)}

    quarter = S(0, F(1, 4), -F(1, 4))
    assert hull_R(quarter) == quarter.points
    assert hull_R(S(0)) == {F(0)}


def test_hull_builds_one_polar(monkeypatch):
    """One polar, swept on S/q for the group qZ that S generates."""
    calls = []
    real = realline.polar_R

    def counting(points):
        calls.append(points)
        return real(points)

    monkeypatch.setattr(realline, "polar_R", counting)
    grew = S(0, F(1, 2), -F(1, 2), F(1, 4), -F(1, 4), F(1, 16), -F(1, 16))
    assert hull_R(grew) == grew.points | {F(5, 16), F(-5, 16)}
    assert calls == [S(*(16 * p for p in grew.points))]     # grew generates (1/16)Z
    calls.clear()
    assert hull_R(S(10 ** 9)) == {0, 10 ** 9, -10 ** 9}
    assert hull_R(S(F(6, 35), F(-9, 35))) == {F(3 * j, 35) for j in (0, 2, -2, 3, -3)}
    assert calls == [S(1), S(2, -3)]


def _scale_into_half(base):
    """Smallest power-of-two scale 2^-t with alpha * max|S| strictly below 1/2."""
    m = max(map(abs, base.points))
    alpha = F(1)
    while alpha * m >= HALF:
        alpha /= 2
    return alpha


def _hull_with_a_member_pass_per_candidate(base):
    """Q_R(S) through the circle: scale S into (-1/2, 1/2), take the hull of its grid
    there, pull the candidates back and keep each that polar.member accepts, z = 0 included.

    The scaling is an automorphism of R and the projection is injective on the
    open window, so the candidates hold the hull, and the member filter is exact.
    """
    alpha = _scale_into_half(base)
    grid = ResidueSet.from_rationals([alpha * p for p in base.points])
    polar, bound = polar_R(base), max(map(abs, base.points))
    out = set()
    for j in hull(grid).hull:
        w = F(j, grid.modulus)
        z = (w - 1 if w > HALF else w) / alpha
        if abs(z) <= bound and polar.member(z).inside:
            out.add(z)
    return frozenset(out)


def test_hull_keeps_zero_without_a_member_pass():
    # every set criterion-09 hands to hull_R: the R2 points of each sequence
    for r in range(1, 5):
        for entries in combinations(range(10), r):
            base = RealFiniteSet(points_R2(GapSequence(entries)))
            assert hull_R(base) == _hull_with_a_member_pass_per_candidate(base), entries


@pytest.mark.parametrize("points, modulus", [
    ((F(1, 4), F(1, 2048)), 2048),
    ((F(1, 3), F(1, 1024)), 3072),
    ((0, F(1, 2), -F(1, 2), F(1, 2048), -F(1, 2048)), 4096),
    ((F(1, 3), F(1, 2048)), 6144),
    ((F(1, 1259), F(1, 1201)), 1512059),
])
def test_hull_on_both_sides_of_the_table_cap(points, modulus):
    """Sets whose circle grids lie on both sides of char_table's cap, 4096, and far past it."""
    base = S(*points)
    alpha = _scale_into_half(base)
    assert ResidueSet.from_rationals([alpha * p for p in base.points]).modulus == modulus
    assert hull_R(base) == _hull_with_a_member_pass_per_candidate(base)


@pytest.mark.parametrize("top, int64", [(40, True), (43, False)])
def test_hull_on_both_sides_of_the_int64_bound(top, int64):
    """{1..40} runs in int64 and {1..43} in Python ints; both equal the member oracle.

    hull_R takes int64 while 4*(J+1)*L < 2^62 = 4.6e18; here S generates Z,
    so J = top and L = 4*lcm(1..top), and the bound reads 3.5e18 for 40 and
    6.6e21 for 43.
    """
    base = S(*range(1, top + 1))
    polar = polar_R(base)
    assert (4 * (top + 1) * polar.L < 2 ** 62) == int64
    assert 4 * (top + 1) * polar.L == {40: 3504963035833459200,
                                       43: 6631390063796904806400}[top]
    oracle = {F(z) for z in range(-top, top + 1) if z == 0 or polar.member(F(z)).inside}
    assert hull_R(base) == oracle


@pytest.mark.parametrize("points", [(1, F(1, 797162)), (2, 1594324), (F(-3, 7), F(2391486, 7))])
def test_hull_rejects_past_the_bound_before_the_polar(monkeypatch, points):
    """2J+1 = 1594325 candidates, J = max|S|/q for the group qZ that S generates."""
    monkeypatch.setattr(realline, "polar_R", lambda S: pytest.fail("polar built"))
    with pytest.raises(InvalidInputError, match=r"^modulus 1594325 must lie in 1\.\.1594323$"):
        hull_R(S(*points))


@given(st.sets(st.integers(-60, 60), min_size=1, max_size=4),
       st.integers(1, 10 ** 12), st.integers(1, 10 ** 12))
@settings(max_examples=40, deadline=None)
def test_hull_commutes_with_scaling(nums, a, b):
    """x -> (a/b)*x is an automorphism of R, so hull_R(a/b * S) = a/b * hull_R(S)."""
    q = F(a, b)
    assert hull_R(S(*(q * n for n in nums))) == {q * z for z in hull_R(S(*nums))}


@given(st.integers(1, 48), st.sets(st.integers(-150, 150), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_hull_matches_the_direct_form(den, nums):
    """hull_R(S) = {j/D : |j| <= M*D, and j = 0 or polar_R(S).member(j/D).inside}.

    D is the common denominator of S and M = max|S|.  Every y in D*Z is in
    the polar, so k*D*z lies in T_+ for every k, and D*z is an integer.
    This form tests every candidate of (1/D)Z with member, shift by shift,
    where hull_R tests those of the group S generates against one period.
    """
    pts = {F(p, den) for p in nums}
    D = lcm(*(p.denominator for p in pts))
    MD = int(max(abs(p) for p in pts) * D)
    assert 2 * MD + 1 <= 2000
    polar = polar_R(S(*pts))
    direct = {F(j, D) for j in range(-MD, MD + 1) if j == 0 or polar.member(F(j, D)).inside}
    assert hull_R(S(*pts)) == direct


def test_hull_members_all_accepted_and_probes_rejected():
    base = S(0, F(1, 2), -F(1, 2), F(1, 16), -F(1, 16))
    h = hull_R(base)
    for z in h:
        assert member_hull_R(base, z).inside
    for k in range(-8, 9):
        z = F(k, 13)
        assert member_hull_R(base, z).inside == (z in h)


def test_projection_agreement_with_circle():
    # pi is injective on (-1/2, 1/2): quasi-convex projection forces a
    # quasi-convex real set
    base = S(0, F(1, 4), -F(1, 4), F(1, 16), -F(1, 16))
    grid = ResidueSet.from_rationals(base.points)
    assert hull(grid).is_quasi_convex()
    assert hull_R(base) == base.points


def test_pushforward_into_the_circle():
    base = S(0, F(1, 2), -F(1, 2), F(1, 4), -F(1, 4), F(1, 16), -F(1, 16))
    alpha = _scale_into_half(base)
    scaled = ResidueSet.from_rationals([alpha * p for p in base.points])
    hull_circle = hull(scaled).hull
    for z in hull_R(base):
        w = alpha * z
        res = (w.numerator * (scaled.modulus // w.denominator)) % scaled.modulus
        assert res in hull_circle


def test_r2_family_with_negative_entries():
    a = GapSequence.of(-2, 0, 3)
    pts = RealFiniteSet(points_R2(a))
    assert F(2) in pts.points
    h = hull_R(pts)
    assert pts.points <= h
    for z in h:
        assert member_hull_R(pts, z).inside


@given(st.sets(st.tuples(st.integers(-8, 8), st.integers(1, 8)),
               min_size=1, max_size=3),
       st.integers(-10, 10), st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_member_out_witnesses_reverify(raw, zn, zd):
    pts = {F(0)} | {F(p, q) for p, q in raw} | {-F(p, q) for p, q in raw}
    base = RealFiniteSet(frozenset(pts))
    z = F(zn, zd)
    res = member_hull_R(base, z)
    if not res.inside:
        assert polar_R(base).contains(res.witness)
        assert not in_Tplus(res.witness * z)


@given(st.sets(st.tuples(st.integers(1, 8), st.integers(1, 6)),
               min_size=1, max_size=2),
       st.integers(-12, 12), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_member_in_survives_dense_polar_sampling(raw, zn, zd):
    # an In verdict claims yz lands in T_+ for every polar character y;
    # probe it on endpoints, midpoints and many period translates
    pts = {F(0)} | {s * F(p, q) for p, q in raw for s in (1, -1)}
    base = RealFiniteSet(frozenset(pts))
    z = F(zn, zd)
    if not member_hull_R(base, z).inside:
        return
    polar = polar_R(base)
    samples = []
    for lo, hi in polar.one_period.intervals:
        samples += [lo, hi, (lo + hi) / 2, lo + (hi - lo) / 3]
    for k in range(-3 * zd, 3 * zd + 1):
        for y in samples:
            assert in_Tplus((y + k * polar.period) * z)
