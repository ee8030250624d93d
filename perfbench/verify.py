"""Independent checks of `qcg` responses.

Nothing here imports `qcgroups`: polars are recomputed with this file's
own numpy code, rational points with `fractions.Fraction`, and the
request is re-read from its argv.  `check(argv, rc, stdout)` returns a
list of problems; an empty list means the response passed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

import numpy as np

CRITERIA = [f"criterion-{i:02d}" for i in range(1, 13)]
CHUNK = 1 << 21    # cells per vectorized block, to bound memory


def options(argv: list[str]) -> dict[str, str]:
    """`--name value` and `--name=value` pairs of a request."""
    out, i = {}, 1
    while i < len(argv):
        key = argv[i]
        if "=" in key:
            key, value = key.split("=", 1)
            i += 1
        else:
            value = argv[i + 1]
            i += 2
        out[key.lstrip("-")] = value
    return out


def in_tplus(values: np.ndarray, n: int) -> np.ndarray:
    """value/n lies in the closed arc [-1/4, 1/4] of R/Z."""
    r = values % n
    return 4 * np.minimum(r, n - r) <= n


def polar(n: int, elems) -> np.ndarray:
    """{k mod n : k*e/n in T_+ for all e}, shrinking the candidates point by point."""
    cand = np.arange(n, dtype=np.int64)
    for e in sorted({int(x) % n for x in elems}):
        cand = cand[in_tplus(cand * e, n)]
    return cand


def _all_pairs_in_tplus(ks: np.ndarray, xs: np.ndarray, n: int) -> bool:
    """k*x/n in T_+ for every k in ks and x in xs."""
    if len(ks) == 0 or len(xs) == 0:
        return True
    if len(ks) > len(xs):
        ks, xs = xs, ks
    rows = max(1, CHUNK // len(xs))
    for i in range(0, len(ks), rows):
        if not in_tplus(ks[i:i + rows, None] * xs[None, :], n).all():
            return False
    return True


def _grid_residue(text: str, n: int) -> int:
    """Residue mod n of a rendered grid point "p/q" (or "p"); q must divide n."""
    num, _, den = text.partition("/")
    q = int(den) if den else 1
    if q <= 0 or n % q:
        raise ValueError(f"{text} is not on the grid 1/{n}")
    return int(num) * (n // q) % n


def _request_set(argv, opts):
    """(n, E as residues, parse function for rendered points) from the request alone."""
    op, raw = argv[0], [t for t in opts["set"].split(",") if t.strip()]
    if op in ("hull-t", "polar-t"):
        n = int(opts["grid"])
        return n, {_grid_residue(t, n) for t in raw}, lambda t: _grid_residue(t, n)
    n = int(opts["n"]) if op == "hull-zn" else 3 ** int(opts["level"])
    return n, {int(t) % n for t in raw}, lambda t: int(t) % n


def check_grid_hull(argv, resp) -> list[str]:
    opts = options(argv)
    n, E, parse = _request_set(argv, opts)
    size = resp.get("modulus", resp.get("order"))
    if size != n:
        return [f"carrier size {size} != {n}"]
    problems = []
    if {parse(str(t)) for t in resp["input"]} != E:
        problems.append("echoed input differs from the request")
    hull = {parse(str(t)) for t in resp["hull"]}
    wit = {parse(p): int(k) for p, k in resp["witnesses"].items()}
    if not E <= hull:
        problems.append("input not contained in the hull")
    if hull & wit.keys() or len(hull) + len(wit) != n:
        problems.append("hull and witness keys do not partition the carrier")
    P = polar(n, E)
    if wit:
        pts = np.fromiter(wit.keys(), dtype=np.int64, count=len(wit))
        ks = np.fromiter(wit.values(), dtype=np.int64, count=len(wit))
        if in_tplus(ks * pts, n).any():
            problems.append("a witness does not push its point out of T_+")
        if not _all_pairs_in_tplus(np.unique(ks % n), np.array(sorted(E), dtype=np.int64), n):
            problems.append("a witness does not map the input into T_+ (not in the polar)")
    if not _all_pairs_in_tplus(P, np.array(sorted(hull), dtype=np.int64), n):
        problems.append("a hull point fails the independently computed polar")
    if resp.get("quasi_convex") != (hull == E):
        problems.append("quasi_convex flag disagrees with hull == input")
    return problems


def check_polar_t(argv, resp) -> list[str]:
    n, E, _ = _request_set(argv, options(argv))
    if resp.get("modulus") != n:
        return [f"modulus {resp.get('modulus')} != {n}"]
    if resp["residues"] != polar(n, E).tolist():
        return ["polar differs from the independent numpy polar"]
    return []


def _real_set(opts) -> list[Fraction]:
    return [Fraction(t) for t in opts["set"].split(",") if t.strip()]


def _in_real_polar(y: Fraction, S) -> bool:
    """y*x in T_+ + Z for every x in S, on integers (unreduced products are fine)."""
    u, w = y.numerator, y.denominator
    for x in S:
        den = w * x.denominator
        r = u * x.numerator % den
        if 4 * min(r, den - r) > den:
            return False
    return True


def check_member_r(argv, resp) -> list[str]:
    opts = options(argv)
    if resp.get("membership") == "In":
        return []
    if resp.get("membership") != "Out":
        return [f"membership {resp.get('membership')!r}"]
    S, z, y = _real_set(opts), Fraction(opts["target"]), Fraction(resp["witness"])
    problems = []
    if not _in_real_polar(y, S):
        problems.append("Out witness is not in the polar of the set")
    if _in_real_polar(y, [z]):
        problems.append("Out witness keeps the target inside T_+")
    return problems


def check_hull_r(argv, resp) -> list[str]:
    S = set(_real_set(options(argv)))
    hull = {Fraction(t) for t in resp["hull"]}
    problems = [] if S <= hull else ["hull misses an input point"]
    if resp.get("quasi_convex") != (hull == S):
        problems.append("quasi_convex flag disagrees with hull == input")
    return problems


def check_polar_r(argv, resp) -> list[str]:
    """Interval points lie in the polar, gap points do not, over one period."""
    S = _real_set(options(argv))
    nonzero = [x for x in S if x]
    D = Fraction(lcm(*(x.denominator for x in nonzero)) if nonzero else 1)
    if Fraction(resp["period"]) != D:
        return [f"period {resp['period']} != {D}"]
    iv = [(Fraction(lo), Fraction(hi)) for lo, hi in resp["intervals"]]
    if not iv or iv[0][0] < 0 or iv[-1][1] > D or any(lo > hi for lo, hi in iv) \
            or any(a[1] >= b[0] for a, b in zip(iv, iv[1:])):
        return ["intervals are not sorted, disjoint and inside one period"]
    inside = [p for lo, hi in iv for p in (lo, (lo + hi) / 2, hi)]
    edges = [Fraction(0)] + [p for lo, hi in iv for p in (lo, hi)] + [D]
    gaps = [(a + b) / 2 for a, b in zip(edges[::2], edges[1::2]) if a < b]
    problems = []
    if not all(_in_real_polar(y, S) for y in inside):
        problems.append("an interval point is not in the polar")
    if any(_in_real_polar(y, S) for y in gaps):
        problems.append("a point between intervals is in the polar")
    return problems


def check_q12(argv, resp) -> list[str]:
    length = len([t for t in options(argv)["seq"].split(",") if t.strip()])
    problems = []
    if resp.get("equal") is not True or resp["q12"] != resp["epsilon_forms"]:
        problems.append("q12 differs from the epsilon forms")
    if len(resp["q12"]) != 3 ** length:
        problems.append(f"q12 has {len(resp['q12'])} elements, expected 3^{length}")
    return problems


def check_paper(argv, resp) -> list[str]:
    results = resp.get("results", [])
    problems = []
    if resp.get("all_passed") is not True:
        problems.append("all_passed is not true")
    if [r.get("id") for r in results] != CRITERIA:
        problems.append(f"expected the 12 criteria, got {len(results)} results")
    problems += [f"{r.get('id')} did not pass" for r in results if r.get("passed") is not True]
    return problems


CHECKS = {"hull-t": check_grid_hull, "hull-zn": check_grid_hull, "hull-j3": check_grid_hull,
          "polar-t": check_polar_t, "member-r": check_member_r, "hull-r": check_hull_r,
          "polar-r": check_polar_r, "q12": check_q12, "verify-paper": check_paper}


def check(argv: list[str], rc, stdout: str) -> list[str]:
    """Every problem found with one response; empty when it is correct."""
    if rc != 0:
        return [f"exit status {rc}"]
    try:
        resp = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    if resp.get("schema") != "qcgroups/1" or resp.get("op") != argv[0]:
        return ["wrong schema or op"]
    try:
        return CHECKS[argv[0]](argv, resp)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed response: {exc!r}"]
