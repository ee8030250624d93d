"""The acceptance gate: one test per criterion, each printing its verdict line.

Every check is exact (tolerance zero); the criteria re-derive expected
values with brute-force oracles and compare them against the closed-form
side.  Run with `pytest -s tests/test_acceptance.py` to see the lines as
they complete, or `qcg verify-paper` for the standalone report.
"""

import pytest

from qcgroups.acceptance import CRITERIA


@pytest.mark.parametrize("ident", sorted(CRITERIA))
def test_criterion(ident):
    result = CRITERIA[ident][1]()
    print(result.line())
    assert result.passed, result.line()


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
])
def test_jobs_clamped(monkeypatch, jobs, wanted, cpus, workers):
    import concurrent.futures
    import io
    import os

    from qcgroups.acceptance import run_all

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_RecordingExecutor, "seen", [])
    results = run_all(wanted, jobs=jobs, stream=io.StringIO())
    assert _RecordingExecutor.seen == workers
    assert [r.ident for r in results] == wanted and all(r.passed for r in results)


@pytest.mark.parametrize("n, k, j, detail11, detail12", [
    (12, 2, 6, "multiplication failed: n=12, E=(2,), k=2",
     "(a) fails: n=12, m=1, k=2, gens=(2,)"),
    (16, 3, 8, "multiplication failed: n=16, E=(2, 8), k=3",
     "(a) fails: n=16, m=1, k=2, gens=(2, 3, 4)"),
])
def test_sweeps_catch_one_wrong_pairing(monkeypatch, n, k, j, detail11, detail12):
    """Flip the pairing of k and j in Z(n) inside the batched kernel's table."""
    import numpy as np

    from qcgroups import acceptance, duality

    real = duality.in_t_plus

    def corrupted(r, modulus):
        ok = real(r, modulus)
        if modulus == n and np.ndim(ok) == 2:
            ok = ok.copy()
            ok[k, j] = ok[j, k] = not ok[k, j]
        return ok

    monkeypatch.setattr(duality, "in_t_plus", corrupted)
    r11, r12 = acceptance.criterion_11(), acceptance.criterion_12()
    assert (r11.passed, r11.detail) == (False, detail11)
    assert (r12.passed, r12.detail) == (False, detail12)


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
