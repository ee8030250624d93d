from fractions import Fraction
from itertools import combinations
from math import floor, gcd

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcgroups.circle import UnitRational, tm_interval
from qcgroups.duality import (HullReport, ResidueSet, char_polar_intervals, char_table,
                              check_two_x_equivalence, hull, hull_masks,
                               hull_residues, image_masks, in_t_plus,
                              polar, polar_residues, polar_sweep, polar_sweep_pairs,
                              pushforward_check, table_hull)
from qcgroups.errors import InvalidInputError

F = Fraction


def grid(n, *points):
    """The points r/n of the grid (1/n)Z/Z, as residues r."""
    return ResidueSet(n, frozenset(points))


zn = grid       # (1/n)Z/Z and Z(n) are one group, r/n <-> r


def test_residue_set_validates_and_reduces():
    assert grid(8, 9, -1).residues == frozenset({1, 7})
    assert ResidueSet.from_rationals([F(1, 4), F(-1, 8)]) == grid(8, 2, 7)
    for bad in (lambda: zn(0, 1), lambda: grid(-4, 1),
                lambda: ResidueSet.from_rationals([F(1, 3)], 8)):
        with pytest.raises(InvalidInputError):
            bad()


# ------------------------------------------------------------------ polars


def test_polar_examples():
    assert polar(grid(8, 0, 1, 7)).residues == frozenset({0, 1, 2, 6, 7})
    assert polar(grid(4, 1, 3)).residues == frozenset({0, 1, 3})
    assert polar(grid(1, 0)).residues == frozenset({0})
    assert polar(zn(12, 1, 3)).residues == frozenset({0, 1, 3, 9, 11})


def test_polar_of_empty_set_rejected():
    with pytest.raises(InvalidInputError):
        polar_residues(8, [])


def test_polar_is_symmetric_and_contains_zero():
    for n in (5, 12, 27):
        for e in (1, 2, n - 1):
            P = polar_residues(n, [e])
            assert 0 in P
            assert all((-k) % n in P for k in P)


# ------------------------------------------------------------------- hulls


def test_hull_examples_on_a_grid():
    rep = hull(grid(8, 1))
    assert rep.hull == frozenset({0, 1, 7})
    assert hull(grid(16, 0, 1, 15, 4, 12)).is_quasi_convex()
    rep27 = hull(grid(27, 0, 3, 24, 1, 26))
    assert 2 in rep27.hull         # 2/27 contaminates the hull
    assert not rep27.is_quasi_convex()


def test_hull_examples_in_zn():
    assert 4 in hull(zn(24, 1, 3, 6)).hull
    assert 5 in hull(zn(64, 1, 4, 8)).hull
    rep = hull(zn(12, 1, 3))
    assert 2 not in rep.hull
    assert dict(rep.witnesses.tolist())[2] == 3     # smallest excluding character


def test_hull_reports_compare_by_value():
    rep = hull(zn(12, 1, 3))
    assert rep == hull(zn(12, 1, 3)) and rep == hull(zn(12, 13, 15))
    assert rep != hull(zn(12, 1, 5)) and rep != hull(grid(24, 1, 3))
    W = rep.witnesses.copy()
    W[0, 1] += 1
    assert rep != HullReport(rep.input_set, rep.hull, W)
    assert rep != HullReport(rep.input_set, rep.hull, W[1:])
    assert rep != rep.input_set
    with pytest.raises(TypeError):
        hash(rep)


def test_trivial_quasi_convex_sets():
    for n in (1, 5, 16):
        assert hull(grid(n, 0)).is_quasi_convex()
    assert hull(zn(7, 0)).is_quasi_convex()


def test_witnesses_reverify():
    for E in [grid(27, 0, 3, 24, 1, 26), grid(12, 1, 5), zn(24, 1, 3, 6)]:
        rep = hull(E)
        n = E.modulus
        polar_set = polar_residues(n, E.residues)
        witnesses = dict(rep.witnesses.tolist())
        assert set(witnesses) == set(range(n)) - rep.hull
        for p, k in witnesses.items():
            assert k in polar_set
            x = UnitRational(k * p, n)
            assert 4 * abs(x.num) > x.den


@given(st.integers(min_value=1, max_value=40), st.data())
@settings(max_examples=120, deadline=None)
def test_hull_closure_properties(n, data):
    elems = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=4))
    hull, _ = hull_residues(n, elems)
    assert set(elems) <= hull                       # extensive
    assert 0 in hull
    assert all((-p) % n in hull for p in hull)      # symmetric
    again, _ = hull_residues(n, hull)
    assert again == hull                            # idempotent
    extra = data.draw(st.integers(0, n - 1))
    bigger, _ = hull_residues(n, set(elems) | {extra})
    assert hull <= bigger                           # monotone


@given(st.integers(min_value=1, max_value=200),
       st.lists(st.integers(-400, 400), min_size=1, max_size=4))
@example(1, [0])
@example(2, [0])
@example(2, [1])
@example(200, [1, 7, -50, 199])
@settings(max_examples=150, deadline=None)
def test_kernel_matches_dense_oracle(n, elems):
    def inside(r):                                  # r/n in T_+, on plain ints
        r %= n
        return 4 * min(r, n - r) <= n

    polar_set = {k for k in range(n) if all(inside(k * e) for e in elems)}
    hull_set = {p for p in range(n) if all(inside(k * p) for k in polar_set)}
    assert polar_residues(n, elems) == polar_set
    got, W = hull_residues(n, elems)
    assert got == hull_set
    assert dict(W.tolist()) == {p: min(k for k in polar_set if not inside(k * p))
                                for p in range(n) if p not in hull_set}
    assert W.dtype == np.int64 and W.shape == (n - len(hull_set), 2)
    assert (np.diff(W[:, 0]) > 0).all()             # one row per point, ascending
    assert set(np.flatnonzero(table_hull(n, elems)).tolist()) == hull_set


def _per_element_polar(n, elems):
    """The kernel before block-wide steps: one pass over the surviving characters per element."""
    k = np.arange(n, dtype=np.int64)
    for e in sorted({min(e % n, -e % n) for e in elems}):
        k = k[in_t_plus(k * e % n, n)]
    return frozenset(k.tolist())


def _per_element_hull(n, elems):
    """The hull before block-wide steps: one pass over the surviving points per character."""
    alive = np.arange(n, dtype=np.int64)
    witness = {}
    for k in sorted(_per_element_polar(n, elems)):
        if 2 * k <= n:
            ok = in_t_plus(alive * k % n, n)
            witness.update((p, k) for p in alive[~ok].tolist())
            alive = alive[ok]
    return frozenset(alive.tolist()), witness


def _assert_block_kernels_match(n, elems):
    assert polar_residues(n, elems) == _per_element_polar(n, elems), (n, len(elems))
    got, W = hull_residues(n, elems)
    want, want_witnesses = _per_element_hull(n, elems)
    assert got == want, (n, len(elems))
    assert dict(W.tolist()) == want_witnesses, (n, len(elems))


@pytest.mark.parametrize("n", [729, 1000, 2048, 2187, 4095, 4096])
def test_block_kernels_match_the_per_element_kernels(n):
    # at n <= 4096 every step tests at least 16 elements or characters at once
    rng = np.random.default_rng(n)
    for size in (1, 3, 40, 300, 1200, 3000):
        size = min(size, n)
        _assert_block_kernels_match(n, rng.choice(n, size, replace=False).tolist())
        w = size // 2                                   # the arc [-w, w]
        _assert_block_kernels_match(n, [i % n for i in range(-w, w + 1)])


def test_block_kernels_step_one_at_a_time_above_the_block():
    # n > 2^16: the first steps are single passes, later ones widen
    n = 2 ** 17
    for elems in ([0, 1, n - 1, 3 * 2 ** 12], [5, 2 ** 15 + 1, 777, 4096 * 7 + 3]):
        _assert_block_kernels_match(n, elems)


@given(st.integers(min_value=1, max_value=300), st.data())
@settings(max_examples=100, deadline=None)
def test_block_kernels_match_per_element_on_small_moduli(n, data):
    elems = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    _assert_block_kernels_match(n, elems)


def _bits(mask, n):
    return {j for j in range(n) if (int(mask) >> j) & 1}


_MASKS = st.one_of(st.integers(min_value=0, max_value=2 ** 64 - 1),          # dense
                   st.sets(st.integers(0, 63), max_size=4).map(               # sparse
                       lambda bits: sum(1 << b for b in bits)))


@given(st.integers(min_value=1, max_value=64),
       st.lists(_MASKS, min_size=1, max_size=6),
       st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=4))
@example(1, [1], [0])
@example(2, [2, 3], [1])
@example(63, [1 << 62, 2 ** 63 - 1, 0x5555_5555_5555_5555], [62])
@example(64, [1 << 63, 2 ** 64 - 1, 0xAAAA_AAAA_AAAA_AAAA], [63, 0, 65])
@settings(max_examples=150, deadline=None)
def test_hull_masks_match_hull_residues(n, raw, ks):
    masks = [m & ((1 << n) - 1) or 1 for m in raw]
    hulls = hull_masks(n, np.array(masks, dtype=np.uint64))
    images = image_masks(n, np.array(masks, dtype=np.uint64), ks)
    assert images.shape == (len(masks), len(ks))
    for m, h, row in zip(masks, hulls, images):
        elems = _bits(m, n)
        assert _bits(h, n) == hull_residues(n, elems)[0]
        for k, img in zip(ks, row):
            assert _bits(img, n) == {k * j % n for j in elems}


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64])
def test_image_masks_column_by_column(n):
    # n = 7, 9, 63: the last byte is partly padding; n = 8, 64: it is full
    rng = np.random.default_rng(n)
    masks = [0, 1, (1 << n) - 1, 1 << (n - 1)]
    masks += [int(m) & ((1 << n) - 1) for m in rng.integers(0, 2 ** 63, 20, dtype=np.uint64)]
    ks = [0, n - 1, 1, 2, n, n + 1, 2 * n + 3, 129]
    images = image_masks(n, np.array(masks, dtype=np.uint64), ks)
    assert images.dtype == np.uint64 and images.shape == (len(masks), len(ks))
    for m, row in zip(masks, images):
        for col, k in enumerate(ks):
            assert int(row[col]) == sum({1 << (k * e % n) for e in _bits(m, n)}), (m, k)
    # a block of masks with its own trailing axis keeps it, the maps come last
    block = image_masks(n, np.array(masks, dtype=np.uint64).reshape(4, -1), ks)
    assert np.array_equal(block.reshape(images.shape), images)
    # the empty set: its polar is every character, padding bits included, and its hull {0}
    assert hull_masks(n, np.zeros(3, dtype=np.uint64)).tolist() == [1, 1, 1]


def _block_edges(length, step):
    """The rows on both sides of every edge between blocks of step rows."""
    return {r for s in range(step, length, step) for r in (s - 1, s)}


@pytest.mark.parametrize("n", [1, 7, 16, 17, 63, 64])
def test_mask_kernels_across_block_edges(n):
    """More than 2^16 masks, so every gather runs several blocks.

    n = 1, 7, 17, 63: the last 16-bit chunk of the hull tables is partly
    padding.  The rows at every block edge, and a seeded sample, are
    checked against hull_residues and {k*j % n}; the whole arrays against
    the same kernels run on slices that fit in one block.
    """
    from qcgroups.duality import _BLOCK

    rng = np.random.default_rng(n)
    length = 2 ** 16 + 3 * 2 ** 12 + 5
    full = np.uint64((1 << n) - 1)
    dense = rng.integers(0, 2 ** 64, length, dtype=np.uint64, endpoint=False) & full
    sparse = np.bitwise_or.reduce(np.uint64(1) << rng.integers(0, n, (length, 3)).astype(np.uint64),
                                  axis=1)
    masks = np.where(rng.random(length) < 0.5, dense, sparse)
    masks[masks == 0] = 1
    ks = [0, 1, 2, n + 3]
    hulls = hull_masks(n, masks)
    images = image_masks(n, masks, ks)
    image_hulls = hull_masks(n, images)             # 2-D: a trailing map axis
    assert hulls.shape == masks.shape and images.shape == image_hulls.shape == (length, len(ks))
    # hull_masks takes _BLOCK // 4 masks per block, image_masks _BLOCK // (8 * len(ks))
    rows = (_block_edges(length, _BLOCK // 4) | _block_edges(length, _BLOCK // (8 * len(ks)))
            | {r // len(ks) for r in _block_edges(length * len(ks), _BLOCK // 4)}
            | {0, length - 1} | set(rng.integers(0, length, 40).tolist()))
    for r in sorted(rows):
        elems = _bits(masks[r], n)
        assert _bits(hulls[r], n) == hull_residues(n, elems)[0], (n, r)
        for k, img, img_hull in zip(ks, images[r], image_hulls[r]):
            assert _bits(img, n) == {k * j % n for j in elems}, (n, r, k)
            assert _bits(img_hull, n) == hull_residues(n, _bits(img, n))[0], (n, r, k)
    small = range(0, length, 1000)                  # every slice within one block
    assert np.array_equal(hulls, np.concatenate([hull_masks(n, masks[s:s + 1000]) for s in small]))
    assert np.array_equal(images, np.concatenate([image_masks(n, masks[s:s + 1000], ks)
                                                  for s in small]))


def test_char_table_rows_match_the_outer_product():
    # n <= 64: the uint64 rows hull_masks used to build itself
    for n in range(1, 65):
        ar = np.arange(n, dtype=np.int64)
        ok = in_t_plus(np.outer(ar, ar) % n, n)
        old = np.bitwise_or.reduce(ok.astype(np.uint64) << ar.astype(np.uint64), axis=1)
        padded = np.zeros((n, 8), dtype=np.uint8)
        padded[:, :(n + 7) // 8] = char_table(n)
        assert np.array_equal(padded.view("<u8").ravel(), old), n
    # moduli that end inside or on the edge of a 128-row block
    for n in (127, 128, 129, 255, 256, 257, 300):
        ar = np.arange(n, dtype=np.int64)
        T = char_table(n)
        assert T.shape == (n, (n + 7) // 8)
        bits = np.unpackbits(T, axis=1, bitorder="little")
        assert not bits[:, n:].any()                 # padding stays clear
        assert np.array_equal(bits[:, :n].view(bool), in_t_plus(np.outer(ar, ar) % n, n)), n


def test_in_t_plus_on_ints_and_arrays():
    n = 12
    expected = [r for r in range(n) if 4 * min(r, n - r) <= n]
    assert [r for r in range(n) if in_t_plus(r, n)] == expected
    assert list(np.flatnonzero(in_t_plus(np.arange(n, dtype=np.int64), n))) == expected
    assert in_t_plus(3 ** 60 % (3 ** 61), 3 ** 61) is False    # beyond int64


@given(st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))
@example(-2, 5)         # -2/5 = 3/5 mod 1, outside T_+
@example(-1, 4)
@example(13, 4)
def test_in_t_plus_reduces_any_integer(r, n):
    x = Fraction(r, n)
    expected = abs(x - floor(x + Fraction(1, 2))) <= Fraction(1, 4)    # distance to Z
    assert in_t_plus(r, n) == expected
    assert in_t_plus(np.array([r], dtype=np.int64), n).tolist() == [expected]


def test_kernel_rejects_bad_moduli():
    for n in (0, -3):
        with pytest.raises(InvalidInputError):
            polar_residues(n, [1])
        with pytest.raises(InvalidInputError):
            hull_residues(n, [1])
        with pytest.raises(InvalidInputError):
            check_two_x_equivalence(n)
    for n in (0, -3, 4097):
        with pytest.raises(InvalidInputError):
            char_table(n)
    with pytest.raises(ValueError):
        char_table(12)[1, 0] = 0                     # the cached table is read-only
    with pytest.raises(InvalidInputError):
        polar_residues(3 ** 21, [1])
    with pytest.raises(InvalidInputError):
        hull_masks(65, np.array([1], dtype=np.uint64))
    with pytest.raises(InvalidInputError):
        image_masks(0, np.array([1], dtype=np.uint64), [1])


# ------------------------------------------------------------ functoriality


def test_pushforward_examples():
    assert pushforward_check(zn(27, 1, 3), 3)
    with pytest.raises(InvalidInputError):
        pushforward_check(zn(27, 1), 5)
    with pytest.raises(InvalidInputError):
        pushforward_check(zn(3 ** 8, 1, 3), 3)       # beyond the table cap


def test_pushforward_small_exhaustive():
    for n in (6, 9, 12):
        universe = list(range(n))
        for size in (1, 2):
            for E in combinations(universe, size):
                for d in (2, 3):
                    if n % d == 0:
                        assert pushforward_check(zn(n, *E), d)


# ------------------------------------------------------------------ two-x


def _two_x_at(n, x):
    """The per-(n, x) conditions (i)-(iv) as they were checked one x at a time: the oracle.

    (i) reads char_table(n); the traces Tr_x and Tr_2x, all multiples of
    gcd(x, n) and of gcd(2x, n), are read off residues r of r/n.
    """
    T = char_table(n)
    x %= n
    i = not np.any(T[x] & T[3 * x % n] & ~T[2 * x % n])
    tr_x, tr_2x = range(0, n, gcd(x, n)), range(0, n, gcd(2 * x, n))
    ii = not any(4 * r in (n, 3 * n) for r in tr_x)         # r/n = +-1/4
    iii = not any(2 * r == n for r in tr_2x)                # r/n = 1/2
    iv = not any(r and 2 * r % n == 0 for r in tr_2x)       # r/n + r/n = 0
    return (i, ii, iii, iv)


def test_two_x_columns_match_the_per_x_oracle():
    for n in range(1, 201):
        rows = check_two_x_equivalence(n)
        assert rows.shape == (4, n) and rows.dtype == bool
        assert [tuple(col) for col in rows.T.tolist()] == [_two_x_at(n, x) for x in range(n)], n


def test_two_x_equivalence_examples():
    for n, x, member in ((9, 1, True), (12, 1, False), (5, 0, True)):
        col = check_two_x_equivalence(n)[:, x]
        assert col.all() if member else not col.any()


def test_two_x_equivalence_small_sweep():
    # (ii)-(iv) against their definitions on traces built as UnitRationals,
    # so an error shared by all three conditions cannot hide behind their agreement
    quarter, half = UnitRational(1, 4), UnitRational(1, 2)
    for n in range(1, 61):
        rows = check_two_x_equivalence(n)
        for x in range(n):
            hull_membership, quarter_not_in_trace, half_not_in_trace2, no_two_torsion = rows[:, x]
            assert hull_membership == quarter_not_in_trace == half_not_in_trace2 == no_two_torsion
            assert hull_membership == (2 * x % n in hull(zn(n, x, 3 * x)).hull)
            tr_x = {UnitRational(k * x, n) for k in range(n)}
            tr_2x = {UnitRational(k * 2 * x, n) for k in range(n)}
            assert quarter_not_in_trace == (quarter not in tr_x and -quarter not in tr_x)
            assert half_not_in_trace2 == (half not in tr_2x)
            assert no_two_torsion == (
                not any(t.num != 0 and (t + t).num == 0 for t in tr_2x))


# ---------------------------------------------------------- interval polars


def test_char_polar_interval_constants():
    from qcgroups.circle import RationalIntervalUnion
    assert char_polar_intervals([1, 3, 6]) == tm_interval(6)
    quarter = F(1, 4)
    # {1,3,4}: the two isolated points +-1/4 plus T_4
    expected_134 = tm_interval(4).union(
        RationalIntervalUnion.from_pairs([(quarter, quarter),
                                          (-quarter, -quarter)]))
    assert char_polar_intervals([1, 3, 4]) == expected_134
    assert char_polar_intervals([1]) == tm_interval(1)
    assert char_polar_intervals([]).contains(F(1, 2))


def test_polar_sweep_window_and_scale():
    # no characters: the whole window; endpoints scale exactly
    assert polar_sweep([], F(-1, 2), F(1, 2)).intervals == ((F(-1, 2), F(1, 2)),)
    assert polar_sweep_pairs([2], 0, 1) == ([(0, 1), (3, 5), (7, 8)], 8)
    assert polar_sweep([2], 0, 1).intervals == (
        (F(0), F(1, 8)), (F(3, 8), F(5, 8)), (F(7, 8), F(1)))
    with pytest.raises(InvalidInputError):
        polar_sweep([3], F(0), F(1, 8))      # 1/8 is off the 1/12 grid


@given(st.sets(st.integers(0, 12), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_char_polar_matches_pointwise(ks):
    region = char_polar_intervals(ks)
    for j in range(-30, 31):
        x = UnitRational(j, 60)
        expected = all(4 * abs((k * x).num) <= (k * x).den for k in ks)
        assert region.contains(F(j, 60)) == expected
