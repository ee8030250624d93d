"""The acceptance gate: one test per criterion, each printing its verdict line.

Every check is exact (tolerance zero); the criteria re-derive expected
values with brute-force oracles and compare them against the closed-form
side.  Run with `pytest -s tests/test_acceptance.py` to see the lines as
they complete, or `qcg verify-paper` for the standalone report.
"""

import pytest

from qcgroups import acceptance
from qcgroups.acceptance import CRITERIA, run_one
from qcgroups.errors import InvalidInputError


# what each criterion reports when it passes: the size of every sweep
DETAILS = {
    "criterion-01": "338350 (h1,h2) pairs plus 4h/5h sweeps",
    "criterion-02": "20100 (n,x) pairs",
    "criterion-03": "[-1/4,-7/32]∪[-1/32,1/32]∪[7/32,1/4]",
    "criterion-04": "hull == set on grid 3^9; 72 certificates verified",
    "criterion-05": "both contaminations exhibited on their grids",
    "criterion-06": "20 certificates verified; contamination at levels 2..6",
    "criterion-07": "4 sequences, both carriers",
    "criterion-08": "4 sequences, both sides, k through a_max+2",
    "criterion-09": "385 sequences on the circle, 385 on the line",
    "criterion-10": "named chains plus 12 patterned chains, T and R",
    "criterion-11": "4563339 (E, f) pairs",
    "criterion-12": "31404 quasi-convex premises discharged",
}


# what each criterion prints as its claim, in `verify-paper` output
DESCRIPTIONS = {
    "criterion-01": "membership lemmas (4h, 5h, h1+-h2) exhaustive on Z(n), n <= 100",
    "criterion-02": "four-way equivalence for 2x in Q({x,3x}), all x in Z(n), n <= 200",
    "criterion-03": "{1,4,8} polar in T equals T_8 u +-(15/64 + T_16) exactly",
    "criterion-04": "a=(1,3,5,7): grid-3^9 set quasi-convex; all multi-term forms certified out",
    "criterion-05": "base-3 negative cases: a_0=0 translate contamination; "
                    "unit gap puts 2/27 in the hull",
    "criterion-06": "3-adic side: a=(0,2,4) quasi-convex at level 7 with certificates; "
                    "a=(0,1) contaminated at levels 2..6",
    "criterion-07": "finite Q1 n Q2 equals the epsilon-form set on both carriers",
    "criterion-08": "J_1 = J_2 = complement of the sequence, on both carriers",
    "criterion-09": "dyadic verdicts agree with brute force (T via grids, R via hull_R), "
                    "entries <= 9, length <= 4",
    "criterion-10": "chain necessity reports match brute-force contamination",
    "criterion-11": "pushforward containment f(Q(E)) in Q(f(E)) for multiplications and quotients",
    "criterion-12": "division lemma, grid form: both clauses exhaustive for N <= 64",
}


def test_registry_holds_every_criterion_in_order():
    """Each check registers under its own name, in file order, with its description."""
    assert list(CRITERIA) == [f"criterion-{i:02d}" for i in range(1, 13)]
    for ident, (description, check) in CRITERIA.items():
        assert check is getattr(acceptance, ident.replace("-", "_"))
        assert description == DESCRIPTIONS[ident]


@pytest.mark.parametrize("ident", sorted(CRITERIA))
def test_criterion(ident):
    result = run_one(ident)
    print(result.line())
    assert result.passed, result.line()
    assert result.detail == DETAILS[ident]


def test_grid_residue_rejects_off_grid_points():
    from qcgroups.acceptance import _grid_residue
    from qcgroups.circle import UnitRational
    from qcgroups.errors import InvalidInputError

    assert _grid_residue(UnitRational(-1, 4), 8) == 6
    with pytest.raises(InvalidInputError):
        _grid_residue(UnitRational(1, 3), 8)


def test_unknown_criterion_rejected():
    from qcgroups.acceptance import run_all
    from qcgroups.errors import InvalidInputError

    with pytest.raises(InvalidInputError, match="unknown criterion 'bogus'"):
        run_all(["criterion-03", "bogus"])


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    seen: list = []

    def __init__(self, max_workers):
        self.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs, wanted, cpus, workers", [
    (64, ["criterion-03", "criterion-05", "criterion-08"], 2, [2]),
    (64, ["criterion-03", "criterion-05"], 16, [2]),
    (2, ["criterion-03", "criterion-05", "criterion-08"], 16, [2]),
    (64, ["criterion-03"], 16, []),
    (64, ["criterion-03", "criterion-05"], None, []),
    (0, ["criterion-03", "criterion-05"], 16, None),        # None: rejected, nothing run
    (-3, ["criterion-03"], 16, None),
])
def test_jobs_clamped(monkeypatch, jobs, wanted, cpus, workers):
    import concurrent.futures
    import io
    import os

    from qcgroups.acceptance import run_all

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingExecutor, "seen", [])
    stream = io.StringIO()
    if workers is None:
        with pytest.raises(InvalidInputError, match="^--jobs must be >= 1$"):
            run_all(wanted, jobs=jobs, stream=stream)
        assert _RecordingExecutor.seen == [] and stream.getvalue() == ""
        return
    results = run_all(wanted, jobs=jobs, stream=stream)
    assert _RecordingExecutor.seen == workers
    assert [r.ident for r in results] == wanted and all(r.passed for r in results)


def _clear_table_caches():
    """Drop every cached table built from the pairing: char_table's and _hull_tables'."""
    from qcgroups import duality

    duality.char_table.cache_clear()
    duality._hull_tables.cache_clear()


def _with_one_wrong_pairing(monkeypatch, n, k, j, run):
    """Flip the pairing of k and j in Z(n), then return run().

    The cached tables are built afresh from the corrupted pairing, and
    dropped afterwards so no later test reads one.
    """
    import numpy as np

    from qcgroups import duality

    real = duality.in_t_plus

    def corrupted(r, modulus):
        ok = real(r, modulus)
        if modulus == n and np.ndim(ok) == 2:
            ok = ok.copy()
            ok[k, j] = ok[j, k] = not ok[k, j]
        return ok

    _clear_table_caches()
    monkeypatch.setattr(duality, "in_t_plus", corrupted)
    try:
        return run()
    finally:
        _clear_table_caches()


_WRONG_PAIRINGS = [
    (12, 2, 6, "multiplication failed: n=12, E=(2,), k=2",
     "(a) fails: n=12, m=1, k=2, gens=(2,)"),
    (16, 3, 8, "multiplication failed: n=16, E=(2, 8), k=3",
     "(a) fails: n=16, m=1, k=2, gens=(2, 3, 4)"),
]


@pytest.mark.parametrize("n, k, j, detail11, detail12", _WRONG_PAIRINGS)
def test_sweeps_catch_one_wrong_pairing(monkeypatch, n, k, j, detail11, detail12):
    """Flip the pairing of k and j in Z(n) inside the batched kernel's table."""
    r11, r12 = _with_one_wrong_pairing(
        monkeypatch, n, k, j, lambda: (run_one("criterion-11"), run_one("criterion-12")))
    assert (r11.passed, r11.detail) == (False, detail11)
    assert (r12.passed, r12.detail) == (False, detail12)


def test_wrong_pairing_reaches_warm_hull_tables(monkeypatch):
    """hull_masks caches the tables of the modulus it saw last.  Warm them
    at n = 12, then plant (12, 2, 6): hull_masks(12) reads the planted
    pairing, and both sweeps fail with the same details."""
    import numpy as np

    from qcgroups.duality import hull_masks

    n, k, j, detail11, detail12 = _WRONG_PAIRINGS[0]
    pair = np.array([(1 << k) | (1 << (n - k))], dtype=np.uint64)      # {+-2}
    clean = hull_masks(n, pair)
    planted, r11, r12 = _with_one_wrong_pairing(
        monkeypatch, n, k, j,
        lambda: (hull_masks(n, pair), run_one("criterion-11"), run_one("criterion-12")))
    assert not np.array_equal(planted, clean)
    assert (r11.passed, r11.detail) == (False, detail11)
    assert (r12.passed, r12.detail) == (False, detail12)
    monkeypatch.undo()
    assert np.array_equal(hull_masks(n, pair), clean)       # nothing planted is left cached


@pytest.mark.parametrize("n, k, j, x", [(9, 1, 3, 1), (27, 2, 5, 2)])
def test_two_x_sweep_catches_one_wrong_pairing(monkeypatch, n, k, j, x):
    """Flip the pairing of k and j in Z(n): criterion-02 names the first (n, x) and its rows.

    The flip drops 2x from the hull of {x, 3x}, so (i) alone turns False;
    the (n, x) named is the one the per-x sweep named before it read whole columns.
    """
    r = _with_one_wrong_pairing(monkeypatch, n, k, j, lambda: run_one("criterion-02"))
    assert (r.passed, r.detail) == (
        False, f"disagreement at n={n}, x={x}: (i)-(iv) = (False, True, True, True)")


def test_multiplication_sweep_reports_the_first_failing_set(monkeypatch):
    """Criterion-11 takes the maps k in blocks, yet names the first failing set, then its first k.

    Dropping 1/2 from the hull of every image at n = 48 fails E = {+-1} at
    k = 24, and E = {+-2} already at k = 12, in an earlier block.
    """
    import numpy as np

    real = acceptance.hull_masks
    sets = acceptance._symmetric_masks(48, range(1, 25), (1, 2, 3))

    def dropped(n, masks):
        out = real(n, masks)
        if n == 48 and not np.array_equal(masks, sets):     # the hulls of the images only
            out = out & ~np.uint64(1 << 24)
        return out

    monkeypatch.setattr(acceptance, "hull_masks", dropped)
    r = run_one("criterion-11")
    assert (r.passed, r.detail) == (False, "multiplication failed: n=48, E=(1,), k=24")


@pytest.mark.parametrize("min_points, detail", [
    (1, "quotient Z(27)->Z(9) failed for E=(4,)"),
    (2, "quotient Z(27)->Z(9) failed for E=(0, 4)"),
])
def test_quotient_sweep_reports_the_first_failing_set(monkeypatch, min_points, detail):
    """Drop 5 from the Z(9) hull of every quotient image with >= min_points points.

    The first set in loop order (sizes 1..3, then combinations order) whose
    hull maps onto 5 is named: {4} (its hull holds -4 = 23), or {0, 4}.
    """
    from itertools import combinations

    import numpy as np

    real = acceptance.hull_masks
    images = np.array([sum(1 << j for j in {e % 9 for e in E}) for r in (1, 2, 3)
                       for E in combinations(range(27), r)], dtype=np.uint64)

    def dropped(n, masks):
        out = real(n, masks)
        if n == 9 and np.array_equal(masks, images):        # the quotient's images only
            big = np.array([int(m).bit_count() >= min_points for m in masks])
            out = np.where(big, out & ~np.uint64(1 << 5), out)
        return out

    monkeypatch.setattr(acceptance, "hull_masks", dropped)
    r = run_one("criterion-11")
    assert (r.passed, r.detail) == (False, detail)


def test_criterion_09_builds_each_grid_table_once(monkeypatch):
    """char_table's cache holds every grid criterion-09 cycles through: one build per modulus.

    The T side reads its grids through acceptance.table_hull; hull_R decides
    its candidates on the polar's pairs and builds no table.
    """
    from qcgroups import duality, realline

    moduli, hull_r_builds = set(), []

    def table_hull(n, elems):
        moduli.add(n)
        return duality.table_hull(n, elems)

    def hull_R(S):
        before = duality.char_table.cache_info().misses
        out = realline.hull_R(S)
        hull_r_builds.append(duality.char_table.cache_info().misses - before)
        return out

    monkeypatch.setattr(acceptance, "table_hull", table_hull)
    monkeypatch.setattr(acceptance, "hull_R", hull_R)
    duality.char_table.cache_clear()
    assert run_one("criterion-09").passed
    assert duality.char_table.cache_info().misses == len(moduli)
    assert moduli and moduli <= {2 ** i for i in range(1, 11)}
    assert hull_r_builds and set(hull_r_builds) == {0}


def _always_quasi_convex(a):
    from qcgroups.families import QUASI_CONVEX, Verdict

    return Verdict(QUASI_CONVEX)


def _zero_images_under_lists(n, masks, ks):
    """image_masks, except that the image of every set under a list of maps is {0}."""
    import numpy as np

    from qcgroups import duality

    if isinstance(ks, list):
        return np.ones((len(masks), len(ks)), dtype=np.uint64)
    return duality.image_masks(n, masks, ks)


@pytest.mark.parametrize("target, replacement, ident, detail", [
    ("verdict_T2", _always_quasi_convex, "criterion-09",
     "T2 verdict QC but truncation (0, 2) is not"),
    ("verdict_R2", _always_quasi_convex, "criterion-09",
     "R2 verdict QC but truncation (0, 1, 2) is not"),
    ("image_masks", _zero_images_under_lists, "criterion-12",
     "(b) fails: n=16, m=1, gens=(1,)"),
    ("verify_certificate", lambda *args: False, "criterion-04",
     "certificate failed for eps=(-1, -1, -1, -1)"),
    ("verify_certificate", lambda *args: False, "criterion-06",
     "certificate failed for eps=(-1, -1, -1)"),
])
def test_planted_failure_is_reported(monkeypatch, target, replacement, ident, detail):
    """A planted wrong answer makes the criterion FAIL and name its first counterexample."""
    monkeypatch.setattr(acceptance, target, replacement)
    result = run_one(ident)
    assert (result.ident, result.passed, result.detail) == (ident, False, detail)
    assert result.line().startswith(f"FAIL {ident}: {DESCRIPTIONS[ident]} [{detail}] (")


def test_an_error_inside_a_check_is_not_a_failure(monkeypatch):
    """Only a counterexample is a FAIL; any other exception propagates and prints no line."""
    import io

    from qcgroups.acceptance import run_all

    def broken(m):
        raise RuntimeError("planted")

    monkeypatch.setattr(acceptance, "tm_interval", broken)
    with pytest.raises(RuntimeError, match="^planted$"):
        run_one("criterion-03")
    stream = io.StringIO()
    with pytest.raises(RuntimeError, match="^planted$"):
        run_all(["criterion-03"], stream=stream)
    assert stream.getvalue() == ""


def _itertools_masks(bits, sizes):
    """The construction _subset_masks replaced: one combinations index array per size."""
    from itertools import combinations

    import numpy as np

    bits = np.array(bits, dtype=np.uint64)
    chunks = []
    for r in sizes:
        combos = list(combinations(range(len(bits)), r))
        idx = np.array(combos, dtype=np.intp).reshape(len(combos), r)
        chunks.append(np.bitwise_or.reduce(bits[idx], axis=1))
    return np.concatenate(chunks)


@pytest.mark.parametrize("g", range(17))
def test_subset_masks_match_the_itertools_construction(g):
    """Every size in itertools order, 0..16 generators; with none, only the empty set is left."""
    import numpy as np

    from qcgroups.acceptance import _subset_masks, _symmetric_masks

    n, gens = 64, list(range(1, g + 1))
    pairs = [(1 << x) | (1 << (n - x)) for x in gens]
    for sizes in ((1, 2, 3), range(g + 1)):
        expected = _itertools_masks(pairs, sizes)
        for got in (_subset_masks(pairs, sizes), _symmetric_masks(n, gens, sizes)):
            assert got.dtype == np.uint64 and np.array_equal(got, expected)
    assert _symmetric_masks(n, [], range(1)).tolist() == [0]


def test_division_sets_follow_the_loop_order():
    from itertools import combinations

    from qcgroups.acceptance import _division_sets, _nth_combination

    n, gens = 20, [1, 2, 3, 4]
    expected = []
    for r in range(len(gens) + 1):
        for gs in combinations(gens, r):
            base = sum((1 << g) | (1 << (n - g)) for g in gs)
            expected += [base, base | 1]
    ys = _division_sets(n, gens)
    assert [int(y) for y in ys] == expected[1:]
    for s in range(len(ys)):
        gs = _nth_combination(gens, range(len(gens) + 1), (s + 1) // 2)
        assert sum((1 << g) | (1 << (n - g)) for g in gs) == int(ys[s]) & ~1
