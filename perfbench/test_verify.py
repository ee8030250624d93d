"""The verifier must accept real responses and flag tampered ones.

    python3 -m pytest perfbench/test_verify.py      (from the checkout root)
"""

import contextlib
import io
import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import verify  # noqa: E402
import workloads  # noqa: E402
from qcgroups import cli  # noqa: E402


def respond(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def tampered(stdout, edit):
    resp = json.loads(stdout)
    edit(resp)
    return json.dumps(resp)


HULL_ZN = ["hull-zn", "--n", "243", "--set=0,1,242,9,234"]
HULL_T = ["hull-t", "--grid", "2048", "--set=0,1/8,-1/8,5/2048,-5/2048"]
MEMBER_OUT = ["member-r", "--set=1", "--target", "1/2"]


@pytest.mark.parametrize("workload", ["grid-sparse", "grid-dense", "real-line"])
def test_real_responses_pass(workload):
    for argv in workloads.round_requests(workload, 7, 0)[:8]:
        rc, out = respond(argv)
        assert verify.check(argv, rc, out) == [], argv


@pytest.mark.parametrize("argv", [HULL_ZN, HULL_T])
def test_dropped_hull_point_is_flagged(argv):
    rc, out = respond(argv)
    assert verify.check(argv, rc, out) == []
    bad = tampered(out, lambda r: r["hull"].pop())
    assert any("partition" in p for p in verify.check(argv, rc, bad))


def test_witness_outside_the_polar_is_flagged():
    rc, out = respond(HULL_ZN)
    n, E = 243, [0, 1, 242, 9, 234]
    polar = set(verify.polar(n, E).tolist())
    resp = json.loads(out)
    point = next(iter(resp["witnesses"]))
    p = int(point)
    # a character that also pushes the point out, but is not in the polar
    outsider = next(k for k in range(n) if k not in polar and 4 * min(k * p % n, -k * p % n) > n)
    bad = tampered(out, lambda r: r["witnesses"].__setitem__(point, outsider))
    assert any("polar" in p for p in verify.check(HULL_ZN, rc, bad))


def test_nudged_member_witness_is_flagged():
    rc, out = respond(MEMBER_OUT)
    resp = json.loads(out)
    assert resp["membership"] == "Out" and verify.check(MEMBER_OUT, rc, out) == []
    # the polar of {1} is [-1/4, 1/4] + Z; half a period away lies outside it
    nudged = str(Fraction(resp["witness"]) + Fraction(1, 2))
    bad = tampered(out, lambda r: r.__setitem__("witness", nudged))
    assert verify.check(MEMBER_OUT, rc, bad)


def test_failed_paper_criterion_is_flagged():
    results = [{"id": c, "passed": True, "detail": "", "description": "", "millis": 1}
               for c in verify.CRITERIA]
    good = {"schema": "qcgroups/1", "op": "verify-paper", "all_passed": True, "results": results}
    assert verify.check(["verify-paper"], 0, json.dumps(good)) == []
    good["results"][10]["passed"] = False
    assert "criterion-11 did not pass" in verify.check(["verify-paper"], 0, json.dumps(good))
    good["results"] = good["results"][:11]
    assert verify.check(["verify-paper"], 0, json.dumps(good))


def test_polar_t_mismatch_and_bad_exit_are_flagged():
    argv = ["polar-t", "--grid", "64", "--set=1/8,-1/8,3/64"]
    rc, out = respond(argv)
    assert verify.check(argv, rc, out) == []
    assert verify.check(argv, rc, tampered(out, lambda r: r["residues"].append(63)))
    assert verify.check(argv, 2, out) == ["exit status 2"]
