import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcgroups import cli
from qcgroups.circle import parse_rational, render_point, signed_residue
from qcgroups.cli import main
from qcgroups.duality import MAX_MODULUS, ResidueSet, hull_residues
from qcgroups.errors import InvalidInputError
from qcgroups.realline import RealFiniteSet, polar_R
from qcgroups.witnesses import SCHEMA

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_family_verdict_json(capsys):
    code, out, _ = run(capsys, "family-verdict", "--family", "T3", "--seq", "1,3,5")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "qcgroups/1"
    assert data["outcome"] == "QuasiConvex"
    assert "violated" not in data


def test_family_verdict_negative_carries_recipe(capsys):
    code, out, _ = run(capsys, "family-verdict", "--family", "T2", "--seq", "1,2,5,6")
    data = json.loads(out)
    assert code == 0
    assert data["violated"] == "A.ii"
    assert data["witness_recipe"]["kind"] == "pair_sum"


def test_chain_verdict(capsys):
    code, out, _ = run(capsys, "family-verdict", "--family", "chain", "--seq", "2,8")
    data = json.loads(out)
    assert code == 0
    assert data["necessity_T"]["b0_ge_4"] is False
    assert data["necessity_R"]["all_pass"] is True


def test_output_is_byte_deterministic(capsys):
    _, first, _ = run(capsys, "hull-zn", "--n", "24", "--set", "1,3,6")
    _, second, _ = run(capsys, "hull-zn", "--n", "24", "--set", "1,3,6")
    assert first == second
    data = json.loads(first)
    assert 4 in data["hull"]


def test_hull_t_and_polar_t(capsys):
    code, out, _ = run(capsys, "hull-t", "--set", "0,1/8,-1/8")
    data = json.loads(out)
    assert code == 0
    assert data["hull"] == ["-1/8", "0", "1/8"]
    assert data["quasi_convex"] is True

    code, out, _ = run(capsys, "polar-t", "--set", "1/4,-1/4")
    data = json.loads(out)
    assert data["residues"] == [0, 1, 3]


def test_member_r(capsys):
    code, out, _ = run(capsys, "member-r", "--set", "1/6,1/2,1", "--target", "2/3")
    assert code == 0
    assert json.loads(out)["membership"] == "In"
    code, out, _ = run(capsys, "member-r", "--set", "1/4", "--target", "1/2")
    assert code == 0
    data = json.loads(out)
    assert data["membership"] == "Out" and "witness" in data
    # the target is echoed in canonical form, in JSON and in text
    code, out, _ = run(capsys, "member-r", "--set", "1/4", "--target", "0.5")
    assert code == 0 and json.loads(out)["target"] == "1/2"
    code, out, _ = run(capsys, "member-r", "--set", "1/4", "--target", "0.5", "--text")
    assert code == 0 and out == "1/2: Out (witness 3/4)\n"


def test_hull_j3_signed_residues(capsys):
    code, out, _ = run(capsys, "hull-j3", "--level", "4", "--set", "0,1,-1,9,-9")
    data = json.loads(out)
    assert code == 0
    assert data["hull"] == [-9, -1, 0, 1, 9]
    assert data["quasi_convex"] is True


def test_q12_and_jm(capsys):
    code, out, _ = run(capsys, "q12", "--family", "T3", "--seq", "1,3")
    data = json.loads(out)
    assert code == 0 and data["equal"] is True
    code, out, _ = run(capsys, "jm", "--family", "J3", "--seq", "0,2,4",
                       "--m", "2", "--kmax", "5")
    assert json.loads(out)["members"] == [1, 3, 5]


def test_jm_builds_no_big_powers(capsys):
    # a J_m test that built 3^k for every k would take seconds here, quadratic in k_max
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "jm", "--family", "J3", "--seq", "1,3", "--m", "2",
                       "--kmax", "30000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    members = json.loads(out)["members"]
    assert len(members) == 29999 and 1 not in members and 3 not in members


def test_certificate_round_trip(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, _, _ = run(capsys, "certify", "--family", "T3", "--seq", "1,3",
                     "--epsilon", "1,1", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "verify-cert", "--cert", str(path))
    assert code == 0
    assert json.loads(out)["valid"] is True

    # a tampered character must be rejected with exit status 1
    data = json.loads(path.read_text())
    data["character"] = 5
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify-cert", "--cert", str(path))
    assert code == 1
    assert json.loads(out)["valid"] is False


@pytest.mark.parametrize("family, seq, epsilon, tamper", [
    ("T3", "1,3,6", "1,0,-1", lambda d: d.update(character=d["character"] + 1)),
    ("J3", "0,2,5", "1,-1,1", lambda d: d["character"].update(index=d["character"]["index"] + 1)),
])
def test_verify_cert_survives_python_O(tmp_path, capsys, family, seq, epsilon, tamper):
    # the re-check runs under python -O, which strips assert statements
    path = tmp_path / "cert.json"
    assert run(capsys, "certify", "--family", family, "--seq", seq, "--epsilon", epsilon,
               "--out", str(path))[0] == 0
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}

    def verify():
        done = subprocess.run([sys.executable, "-O", "-m", "qcgroups.cli", "verify-cert",
                               "--cert", str(path)], capture_output=True, env=env, timeout=60)
        return done.returncode, json.loads(done.stdout)["valid"]

    assert verify() == (0, True)
    data = json.loads(path.read_text())
    tamper(data)
    path.write_text(json.dumps(data))
    assert verify() == (1, False)


def test_invalid_inputs_exit_2(tmp_path, capsys):
    assert run(capsys, "hull-zn", "--n", "0", "--set", "1")[0] == 2
    assert run(capsys, "hull-t", "--set", "abc")[0] == 2
    assert run(capsys, "hull-t", "--set", "")[0] == 2
    assert run(capsys, "certify", "--family", "T3", "--seq", "1,3",
               "--epsilon", "1,0")[0] == 2
    # an unwritable --out: a missing directory, or a directory itself
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        code, _, err = run(capsys, "certify", "--family", "T3", "--seq", "1,3",
                           "--epsilon", "1,1", "--out", str(out))
        assert code == 2 and "cannot write certificate" in err
    assert run(capsys, "verify-cert", "--cert", "/nonexistent.json")[0] == 2
    for jobs in ("0", "-3"):
        assert run(capsys, "verify-paper", "--criteria", "criterion-03", "--jobs", jobs) == (
            2, "", "error: --jobs must be >= 1\n")
    for level in ("0", "-1"):
        code, out, err = run(capsys, "hull-j3", "--level", level, "--set", "1")
        assert code == 2 and out == "" and "level must be >= 1" in err
    # oversized integers: 3^level is never built past the bound, and huge
    # moduli are named by bit length (int-to-str refuses over 4300 digits)
    primes = [p for p in range(10 ** 4, 3 * 10 ** 4) if all(p % d for d in range(2, 174))]
    primes = ",".join(f"1/{p}" for p in primes[:1200])
    for argv in (["hull-j3", "--level", "3000000", "--set", "1"],
                 ["q12", "--family", "J3", "--seq", "0,2", "--level", "3000000"],
                 ["hull-j3", "--level", "1500", "--set", "1"],
                 ["hull-t", "--set", primes],
                 ["hull-t", "--grid", "7", "--set", primes]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv[:2]
        assert err.startswith("error: ") and len(err) < 200, err[:200]
    # integers past Python's 4300-digit int-to-str limit, in a rational, a
    # JSON integer, a target and a polar period: exit 2, nothing written
    out = tmp_path / "big.json"
    for argv in (["certify", "--family", "T3", "--seq", "1,30000", "--epsilon", "1,1"],
                 ["certify", "--family", "J3", "--seq", "0,2,30000", "--epsilon", "1,0,1"],
                 ["certify", "--family", "J3", "--seq", "0,30000,30002", "--epsilon", "0,1,1"],
                 ["member-r", "--set", "1/3", "--target", "1e-5000"],
                 ["polar-r", "--set", "1e-5000"]):
        for extra in ([], ["--out", str(out)]) if argv[0] == "certify" else ([],):
            code, stdout, err = run(capsys, *argv, *extra)
            assert code == 2 and stdout == "", argv
            assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err[:200]
            assert "too long to print" in err and not out.exists()
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, _, err = run(capsys, "verify-cert", "--cert", str(path))
    assert code == 2 and "nested too deeply" in err
    # a JSON integer past the int-from-str digit limit, and bytes that are not UTF-8
    code, cert, _ = run(capsys, "certify", "--family", "J3", "--seq", "0,2,4", "--epsilon", "1,0,1")
    assert code == 0 and '"target": 82' in cert
    for data, needle in ((cert.replace('"target": 82', '"target": ' + "7" * 5000).encode(), "digits"),
                         (b'{"schema": \x80}', "not JSON")):
        path.write_bytes(data)
        code, out, err = run(capsys, "verify-cert", "--cert", str(path))
        assert code == 2 and out == "" and needle in err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err[:200]
    # malformed input text is quoted in part, not echoed whole
    nines = "9" * 5000
    for argv in (["hull-zn", "--n", "24", "--set", "1," + nines],
                 ["family-verdict", "--family", "chain", "--seq", "3," + nines],
                 ["family-verdict", "--family", "T3", "--seq", "1,x" + nines],
                 ["hull-t", "--set", "1/3,x" + nines]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv[:2]
        assert err.startswith("error: ") and len(err.encode()) < 200, err[:200]
        assert err.endswith(" characters)\n"), err
    # a sequence or chain that parses keeps its own validation message, and
    # each comma list names itself when a token is not an integer
    for argv, message in ((["family-verdict", "--family", "T2", "--seq", "3,1"],
                           "entries must be strictly increasing"),
                          (["family-verdict", "--family", "chain", "--seq", "4,6"],
                           "chain must be increasing and divisible"),
                          (["family-verdict", "--family", "T2", "--seq", ","], "empty sequence"),
                          (["family-verdict", "--family", "chain", "--seq", ""], "empty chain"),
                          (["jm", "--family", "T3", "--seq", "1,x", "--m", "1", "--kmax", "3"],
                           "bad sequence text '1,x'"),
                          (["family-verdict", "--family", "chain", "--seq", "4,x"],
                           "bad chain text '4,x'"),
                          (["hull-zn", "--n", "9", "--set", "1,x"], "bad integer set '1,x'"),
                          (["certify", "--family", "T3", "--seq", "1,3", "--epsilon", " , "],
                           "empty set")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err == f"error: {message}\n"
    # a flag of the other family is rejected, not ignored
    for argv, flag in ((["q12", "--family", "T3", "--seq", "1,3", "--level", "9"], "--level"),
                       (["q12", "--family", "J3", "--seq", "0,2", "--grid", "9"], "--grid")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and f"{flag} belongs to --family" in err


def test_hull_r_rejects_a_large_grid_before_the_sweep(capsys):
    # the candidates are Z(2*1000003 + 1)'s signed residues, over the size
    # bound; the polar sweep of the same set would take seconds before that was found
    t0 = time.perf_counter()
    code, out, err = run(capsys, "hull-r", "--set", "1/1000003,1/999983")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err == "error: modulus 2000007 must lie in 1..1594323\n"


def test_hull_r_answers_past_the_old_grid_bound(capsys):
    # its circle grid, 2003 * 2011 = 4028033, is past 3^13; its candidates,
    # Z(2*2011 + 1), are not
    t0 = time.perf_counter()
    code, out, err = run(capsys, "hull-r", "--set", "1/2003,1/2011")
    assert time.perf_counter() - t0 < 1.0
    assert (code, err) == (0, "")
    hull = {Fraction(z) for z in json.loads(out)["hull"]}
    assert hull == {0, Fraction(1, 2003), Fraction(-1, 2003), Fraction(1, 2011), Fraction(-1, 2011)}
    # the member oracle on the hull and on candidates around it
    polar = polar_R(RealFiniteSet({Fraction(1, 2003), Fraction(1, 2011)}))
    D = 2003 * 2011
    for j in [*range(1, 40), *range(1980, 2030), *range(100, 2000, 97)]:
        assert polar.member(Fraction(j, D)).inside == (Fraction(j, D) in hull), j


@pytest.mark.parametrize("points", [(10 ** 9,), (2 * 10 ** 12, 3 * 10 ** 12)])
def test_hull_r_sweeps_the_set_over_the_group_it_generates(capsys, points):
    # S = q*Q with q the generator of the group S generates: the polar is
    # swept on Q = {1} or {2, 3}, never on 10^9 or 10^12 pieces
    t0 = time.perf_counter()
    code, out, err = run(capsys, "hull-r", "--set", ",".join(map(str, points)))
    assert time.perf_counter() - t0 < 1.0
    assert (code, err) == (0, "")
    assert {Fraction(z) for z in json.loads(out)["hull"]} == {0, *points, *(-p for p in points)}


# every form a --set token can take: plain integers and fractions (read as
# ints), and forms only Fraction reads or rejects
GRID_TOKENS = ["+3/6", "-0", "1/0", "1/ 2", "1.5", "1e-3", "1_000", "\u0663/4", "9" * 5000,
               "1/" + "7" * 5000, " -12/8 ", "007/08", "0/5", "+0", "-5", "1/-2", "--1", "1//2",
               "abc", "3/4/5", "\t2/3\n", "0x10", "1/2e1"]


def _grid_pair_or_message(token):
    try:
        return cli._grid_pair(token)
    except InvalidInputError as exc:
        return str(exc)


def _fraction_pair_or_message(token):
    try:
        f = parse_rational(token)
    except InvalidInputError as exc:
        return str(exc)
    return f.numerator, f.denominator


@pytest.mark.parametrize("token", GRID_TOKENS, ids=lambda t: repr(t)[:20])
def test_grid_tokens_read_as_fractions_read_them(token):
    got = _grid_pair_or_message(token)
    assert got == _fraction_pair_or_message(token)
    if isinstance(got, tuple):
        den = got[1]
        for modulus in (None, 12 * den):
            assert (ResidueSet.from_pairs([got, (1, 4)], modulus)
                    == ResidueSet.from_rationals([parse_rational(token), Fraction(1, 4)], modulus))


@given(st.integers(-10 ** 30, 10 ** 30), st.integers(0, 10 ** 30), st.sampled_from(["", "+", " "]),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_plain_grid_tokens_match_fraction(num, den, prefix, whole):
    token = f"{prefix}{num}" if whole else f"{prefix}{num}/{den}"
    assert _grid_pair_or_message(token) == _fraction_pair_or_message(token)


# the writer against json.dumps: its fast paths (all-int and all-str lists)
# and the general one, on trees with bools, None, escapes, non-ASCII text,
# str -> int dicts, non-str keys and ints past the int-to-str digit limit
_HUGE = st.builds(lambda d, sign: sign * 10 ** d, st.integers(4300, 4400), st.sampled_from([1, -1]))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=6),
                     st.floats(), _HUGE)
_JSON_TREES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=6), children, max_size=5),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=5),
        st.lists(st.text(max_size=6), max_size=5),
        st.dictionaries(st.text(max_size=6), st.one_of(st.integers(), st.booleans(), _HUGE),
                        max_size=5),
        st.dictionaries(st.integers(), children, max_size=3),
        st.tuples(children, children)),
    max_leaves=25)


@given(_JSON_TREES)
@settings(max_examples=300, deadline=None)
def test_writer_matches_json_dumps(tree):
    try:
        want = json.dumps(tree, sort_keys=True, indent=2)
    except ValueError:
        with pytest.raises(InvalidInputError, match="too long to print"):
            cli._dumps(tree)
    else:
        assert cli._dumps(tree) == want


def _hull_payload_with_a_witness_dict(argv):
    """The hull commands' payload as it was written before the bulk writer:
    one render_point / signed_residue / residue call per point, and a dict."""
    command, opts = argv[0], dict(a.lstrip("-").split("=", 1) for a in argv[1:])
    ints = [int(t.split("/")[0]) for t in opts["set"].split(",")]     # r or r/n
    if command == "hull-t":
        n = int(opts["grid"])
        E, point = ResidueSet(n, ints), render_point
        head = {"op": "hull-t", "kind": "grid", "modulus": n}
    elif command == "hull-zn":
        n = int(opts["n"])
        E, point = ResidueSet(n, ints), lambda r, n: r
        head = {"op": "hull-zn", "kind": "cyclic", "order": n}
    else:
        n = 3 ** int(opts["level"])
        E, point = ResidueSet(n, ints), signed_residue
        head = {"op": "hull-j3", "level": int(opts["level"]), "order": n}
    hull_set, W = hull_residues(n, E.residues)
    return {"schema": SCHEMA, **head,
            "input": sorted(point(r, n) for r in E.residues),
            "hull": sorted(point(r, n) for r in hull_set),
            "witnesses": {str(point(r, n)): k for r, k in W.tolist()},
            "quasi_convex": hull_set == E.residues}


@st.composite
def _hull_argv(draw):
    command = draw(st.sampled_from(["hull-t", "hull-zn", "hull-j3"]))
    if command == "hull-j3":
        level = draw(st.integers(1, 7))
        n, size = 3 ** level, ["--level=" + str(level)]
    else:
        n = draw(st.integers(1, 3 ** 7))
        size = ["--grid=" + str(n)] if command == "hull-t" else ["--n=" + str(n)]
    ints = draw(st.lists(st.integers(-2 * n, 2 * n), min_size=1, max_size=6))
    if command == "hull-t":
        tokens = [f"{r}/{n}" for r in ints]         # r/n, reduced by the parser
    else:
        tokens = [str(r) for r in ints]
    return [command, *size, "--set=" + ",".join(tokens)]


@given(_hull_argv())
@settings(max_examples=150, deadline=None)
def test_bulk_hull_writer_matches_the_witness_dict(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    want = json.dumps(_hull_payload_with_a_witness_dict(argv), sort_keys=True, indent=2)
    assert out.getvalue() == want + "\n"


def test_bulk_hull_writer_on_an_empty_witness_set(capsys):
    # Z(1) excludes nothing, so the witnesses are an empty object
    for argv in (["hull-zn", "--n=1", "--set=0"], ["hull-t", "--grid=1", "--set=0/1"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["witnesses"] == {}
        assert out == json.dumps(_hull_payload_with_a_witness_dict(argv),
                                 sort_keys=True, indent=2) + "\n"


# the three point forms of the witness block: (num, den) pairs from residues,
# and the scalar point writer each is checked against
_FORMS = {"hull-t": (cli.point_pairs, render_point),
          "hull-zn": (cli._residue_pairs, lambda r, n: r % n),
          "hull-j3": (cli._signed_pairs, signed_residue)}


def _members_by_sorting(points, ks):
    """The witness block written the plain way: one f-string per point, sorted()."""
    members = sorted(f'"{p}": {k}' for p, k in zip(points, ks))
    return "{\n    " + ",\n    ".join(members) + "\n  }" if members else "{}"


@pytest.mark.parametrize("n", [3 ** 13, 1441440], ids=["3^13", "2^5*3^2*5*7*11*13"])
@pytest.mark.parametrize("form", sorted(_FORMS))
def test_witness_block_matches_sorted_members_past_a_block(form, n):
    # 2 blocks of rows and 3 more; points and characters of 1 to 7 digits
    pairs, point = _FORMS[form]
    rng = np.random.default_rng(n)
    specials = [0, 1, 2, n - 1, n - 2, n // 2, (n + 1) // 2]
    specials += [n // d * j % n for d in (2, 3, 4, 5, 8, 9, 27, 32, 81) if n % d == 0 for j in (1, -1)]
    rest = np.setdiff1d(rng.permutation(n)[:2 * cli._ROWS + 3], specials)
    r = np.concatenate([np.unique(specials), rest])[:2 * cli._ROWS + 3]
    k = rng.integers(1, n, len(r))
    k[:9] = [1, 9, 10, 9999, 10 ** 4, 10 ** 4 + 1, 10 ** 5, 10 ** 6, 10 ** 7 - 1]
    want = _members_by_sorting([point(x, n) for x in r.tolist()], k.tolist())
    assert cli._witness_block(*pairs(r, n), k) == want


@given(st.integers(1, 3 ** 13), st.lists(st.integers(-(3 ** 13), 3 ** 13), max_size=40))
@settings(max_examples=200, deadline=None)
@example(32, [16, 8, 13, -2, -8])            # 1/2 < 1/4 < 13/32 and -1/16 < -1/4
@example(3 ** 13, [1, 10, 100, 2, -1, -10, -2, 999999, 10 ** 6, 0])
def test_member_order_is_the_order_of_the_rendered_keys(n, xs):
    for pairs, point in _FORMS.values():
        keys = [f'"{point(x, n)}"' for x in xs]
        order = cli._member_order(*pairs(np.array(xs, dtype=np.int64) % n, n))
        assert [keys[i] for i in order] == sorted(keys)


def test_every_point_and_character_fits_the_member_key():
    # _member_order packs |num| and den as 7-digit numbers of 28 bits each;
    # a bound of 10^7 or more must fail here, not overflow the key
    assert MAX_MODULUS < 10 ** 7
    assert cli._sort_key(np.array([10 ** 7 - 1]))[0] < 1 << 28


def test_one_parser_serves_every_call(capsys, monkeypatch):
    argvs = [argv for argv, _ in GOLDEN[:8]]
    argvs += [["hull-zn", "--n", "0", "--set", "1"], ["hull-zn", "--n", "24", "--set", "1", "--jobs", "2"],
              ["family-verdict", "--family", "T2", "--seq", "3,1"]]

    def call(argv):
        try:
            return run(capsys, *argv)
        except SystemExit as exc:            # usage errors
            return exc.code, *capsys.readouterr()

    fresh = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(call(argv))
    built = []
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda build=cli.build_parser: built.append(1) or build())
    for _ in range(2):                       # alternating subcommands, one parser
        assert [call(argv) for argv in argvs] == fresh
    assert built == [1]


def test_jobs_belongs_to_verify_paper_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["hull-zn", "--n", "24", "--set", "1", "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


# jm has no truncation level (J_m does not depend on one), and certify
# always writes JSON
@pytest.mark.parametrize("argv, flag", [
    (["jm", "--family", "J3", "--seq", "0,2", "--m", "1", "--kmax", "5", "--level", "3"], "--level"),
    (["certify", "--family", "T3", "--seq", "1,3", "--epsilon", "1,1", "--text"], "--text"),
])
def test_flags_a_subcommand_lacks_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and f"unrecognized arguments: {flag}" in out.err


# sha256 of stdout for fixed calls; any byte changed in the output fails
GOLDEN = [
    (["hull-t", "--set", "0,1/9,-1/9,1/27,-1/27"],
     "33cc2890381a67127cf6d4e5190fb88086c066fd49e7cae4f89a0b9661090417"),
    (["hull-t", "--grid", "729", "--set", "0,1/9,-1/9"],
     "20f0176746d4d2bce3c9749a49a6663abaff1926a046d2d2756d9826ff337535"),
    (["hull-zn", "--n", "24", "--set", "1,3,6"],
     "dcc580c994ce52ea98ee93b306851cca323e62cd71f5dcb28274e8401214e13b"),
    (["hull-j3", "--level", "7", "--set", "0,1,-1,9,-9,81,-81"],
     "26421cb59caba96d90f341fbc46d8d736e0dac7e0059da2f4079f7eee2af019c"),
    (["polar-t", "--set", "1/4,-1/4"],
     "66ab46d4b62aab38a1d631a486b70b6d06aba9974e33cb1612a080bd79636a07"),
    (["q12", "--family", "T3", "--seq", "1,3"],
     "aa13543f70431a62bf0a7ac44ea2a74834a956f2c62320c88996bdbe8b26b272"),
    (["q12", "--family", "J3", "--seq", "0,2,4"],
     "6618cff77bca02117b8da9d6a9cb2b78f8f7d3a6e130010a87b08b5784a16526"),
    (["q12", "--family", "J3", "--seq", "0,2,4", "--text"],
     "dd2e0a94a58d96d4378e118276ec797dec0707094eef0732c69980a574969331"),
    (["jm", "--family", "T3", "--seq", "1,3,6", "--m", "1", "--kmax", "8"],
     "40bab26a62926abf74ab5ecd8bb9d32f5549fbc93ff460feda62d080dc64da89"),
    (["jm", "--family", "T3", "--seq", "1,3,6", "--m", "2", "--kmax", "8"],
     "7633dc6b5f79e58c0447cd4e8bb5bbd75c2bdfeed58af10befd705c852dc974f"),
    (["jm", "--family", "J3", "--seq", "0,2,5", "--m", "1", "--kmax", "8"],
     "ebc70f21d2da5f361d0cfc51096bf6855e859692f2d37dd79e4c8a0455561533"),
    (["jm", "--family", "J3", "--seq", "0,2,5", "--m", "2", "--kmax", "8"],
     "6c4eddb1f2d07b021d13b9102f72fb47eda2ab0738f19154546b4ff903dabe6f"),
    (["certify", "--family", "T3", "--seq", "1,3,5", "--epsilon", "1,-1,1"],
     "5ab3c5c591edb9d5e07895b05f77fc00d6b663bfbd03a1e67c72595f5a8c965b"),
    (["certify", "--family", "J3", "--seq", "0,2,4", "--epsilon", "1,0,-1"],
     "3d83d91efa6774cb686c31b3ed4f30073941f667bc7262ba2f6ed5300f3b0418"),
    (["hull-t", "--set", "0,1/9,-1/9,1/27,-1/27", "--text"],
     "e6c7fa197c234e1cbd4a343fc96ca71f0801a464b735c858d6c980bc9694b757"),
    (["hull-zn", "--n", "24", "--set", "1,3,6", "--text"],
     "7ffb44a5536eb94faf5cb78ba665df3e2b85b7ee666c8cbb4df9d9558a35f73d"),
    (["hull-j3", "--level", "7", "--set", "0,1,-1,9,-9,81,-81", "--text"],
     "c486974dd3f428f82f4d2fbba54aec99523962897f5d8369046221601d202d43"),
    (["polar-r", "--set", "1/4"],
     "19c8205924aa52759517314fca1ced8bd5a4252eb27d8824251f2f0acb2b6158"),
    (["polar-r", "--set", "1/6,1/2,1", "--text"],
     "b9a8feeca39e5fd1c8336cdca21603294ebdd5859a89a18feef3163722ab6885"),
    (["hull-r", "--set", "0,1/2,-1/2,1/4,-1/4,1/16,-1/16"],
     "8f911ecc2ad20652be9ad1be4b8ada169a319f56425f38958633f9d4ca38ca98"),
    (["member-r", "--set", "1/6,1/2,1", "--target", "2/3"],          # In
     "f4a9a2080b8f8eada6ea652dc50fd9a43428001f001345b1219bfe9853dcf220"),
    (["member-r", "--set", "1/4", "--target", "1/2"],                # Out, witness 3/4
     "e10d538074079020c63151325a1c265dae2d122c902c387cc0f47da18b8189d0"),
    # targets with large denominators: one closed-form pass per polar interval
    (["member-r", "--set", "1/3", "--target", "1/1000003"],
     "a349172271b655e0cac768a5fe369a76be53d5223582c1c4a2ec94cf6c41892c"),
    (["member-r", "--set", "1/3,1/7", "--target", "5/10000019"],
     "3928290e026d5a74161e09204fca9923a19d342a29f006b54d07f4ed9ff30c3e"),
    # negative values need the "=" form; Out, witness 39/16
    (["member-r", "--set=-1/3,1/3", "--target=-2/7"],
     "980d1c928653baa56111bd78d3403531dae1606c7b021cca569bbd3711badd01"),
    # the all-zero set takes the general polar path; Out, witness 7/8
    (["member-r", "--set", "0", "--target", "1/3"],
     "6b9fb12529d60d688ad6f2cab632982b29b05705c5ef5cb572424b3f48d49f47"),
    # 6 s on Fraction arithmetic, under 1 s on the sweep's integer pairs
    (["hull-r", "--set", "1/3,1/65537"],
     "ecf870e70f82394d38e876fd2f910a586546fd03b3ecaa89d2ad2bce7c1f80a0"),
    # thousands of witnesses each, written in bulk: keys of 1 to 10 characters,
    # both signs, and 34 denominators on the grid
    (["hull-t", "--grid", "5184", "--set", "0,1/9,-1/9,1/64,-1/64"],
     "c517db70ee56db26a5e34a24dac8bfc48af2e95e4a62786e5dff0af0c1bf9a18"),
    (["hull-zn", "--n", "4100", "--set=1,5,-41,1000"],
     "07cbffa0a1f7334f4dcf5e342013ca45b76a5f74eb96728c21d1ad3d9ca90ddd"),
    (["hull-j3", "--level", "8", "--set=0,1,-1,3,-3,243,-243"],
     "79093f0212b929320375868535f5d1108a8ad314cca1d88e5fc5f5d99affc152"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_golden_stdout(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command, options", [("polar-r", ["--set"]), ("hull-r", ["--set"]),
                                              ("member-r", ["--set", "--target"])])
def test_real_line_help_names_the_equals_form(capsys, command, options):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = " ".join(capsys.readouterr().out.split())
    for option in options:
        assert f"{option} {option[2:].upper()} exact rational(s)" in out
    assert "--target=-2/7" in out


@pytest.mark.parametrize("argv, modulus", [
    (["hull-t", "--set", "1/1594324"], "1594324"),
    (["polar-t", "--set", "1/1594324"], "1594324"),
    (["hull-zn", "--n", "1594324", "--set", "1"], "1594324"),
    (["hull-j3", "--level", "14", "--set", "1"], "3^14"),
    (["q12", "--family", "J3", "--seq", "0,2", "--level", "14"], "3^14"),
    (["q12", "--family", "T3", "--seq", "1,3", "--grid", "14"], "3^14"),
    (["hull-r", "--set", "1,1/797162"], "1594325"),      # candidates: Z(2*797162 + 1)
    (["hull-j3", "--level", "3000000", "--set", "1"], "3^3000000"),
    (["q12", "--family", "J3", "--seq", "0,2", "--level", "3000000"], "3^3000000"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_one_size_bound_on_every_modulus(capsys, argv, modulus):
    # one bound, 3^13, in the kernel: every command meets it before any work
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err == f"error: modulus {modulus} must lie in 1..1594323\n"


def test_the_size_bound_itself_is_accepted():
    from qcgroups.duality import MAX_MODULUS, check_power, hull_residues, polar_residues

    assert MAX_MODULUS == 3 ** 13 == 1594323
    check_power(3, 13)
    for e in (14, 3000000):
        with pytest.raises(InvalidInputError, match=r"modulus 3\^\d+ must lie in 1\.\.1594323"):
            check_power(3, e)
    # k * 3^12 / 3^13 = k/3 is in T_+ exactly when 3 divides k
    assert polar_residues(3 ** 13, [3 ** 12]) == frozenset(range(0, 3 ** 13, 3))
    with pytest.raises(InvalidInputError, match=r"modulus 1594324 must lie in 1\.\.1594323"):
        polar_residues(3 ** 13 + 1, [1])
    with pytest.raises(InvalidInputError, match=r"modulus 1594324 must lie in 1\.\.1594323"):
        hull_residues(3 ** 13 + 1, [1])


def test_no_floats_anywhere_in_json_output(capsys):
    def walk(node):
        if isinstance(node, float):
            return [node]
        if isinstance(node, dict):
            return [f for v in node.values() for f in walk(v)]
        if isinstance(node, list):
            return [f for v in node for f in walk(v)]
        return []

    for argv in (["hull-t", "--set", "0,1/8,-1/8"],
                 ["polar-r", "--set", "1/4"],
                 ["verify-paper", "--criteria", "criterion-03"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert walk(json.loads(out)) == []


def test_verify_paper_single_criterion_text(capsys):
    code, out, err = run(capsys, "verify-paper", "--criteria", "criterion-03", "--text")
    assert code == 0
    assert out.startswith("PASS criterion-03")
    assert "criterion-03" in err   # progress stream


def test_unknown_criterion_exits_2(capsys):
    code, out, err = run(capsys, "verify-paper", "--criteria", "bogus")
    assert code == 2
    assert out == ""
    assert err.strip() == "error: unknown criterion 'bogus'"


@pytest.mark.parametrize("family, seq, epsilon", [("T3", "1,3", "1,1"),
                                                  ("J3", "0,2,4", "1,0,-1")])
def test_mutated_certificates_exit_2(tmp_path, capsys, family, seq, epsilon):
    code, text, _ = run(capsys, "certify", "--family", family, "--seq", seq,
                        "--epsilon", epsilon)
    assert code == 0
    good = json.loads(text)
    other_space = {"T3": "padic-trunc", "J3": "grid"}[family]
    k, l = good["indices"]
    mutations = [
        ("indices", [0]),
        ("indices", []),
        ("indices", 3),
        ("schema", "bogus/9"),
        ("space", "nowhere"),
        ("space", other_space),
        ("space", "real-line"),
        # JSON numbers where a rational string belongs, and true/false or
        # floats where an integer belongs
        ("evaluation", 0),
        ("tail_bound", {**good["tail_bound"], "bound": 0}),
        ("tail_bound", {**good["tail_bound"], "start": float(good["tail_bound"]["start"])}),
        ("rho", float(good["rho"])),
        ("rho", True),
        ("indices", [k, float(l)]),
        ("indices", [False, l]),
        ("family", {**good["family"], "entries": [float(e) for e in good["family"]["entries"]]}),
        ("negated", "no"),
        ("negated", 0),
    ]
    if family == "T3":
        mutations += [("target", 0), ("character", True), ("character", 11.0)]
    else:
        char = good["character"]
        mutations += [("target", float(good["target"])), ("target", True),
                      ("character", {**char, "multiplier": float(char["multiplier"])}),
                      ("character", {**char, "index": True})]
    path = tmp_path / "cert.json"
    for key, value in mutations + [("schema", None), ("space", None)]:
        data = dict(good)
        if value is None:
            del data[key]
        else:
            data[key] = value
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "verify-cert", "--cert", str(path))
        assert code == 2, (key, value)
        assert out == "" and err.startswith("error: ") and "Traceback" not in err

    path.write_text(json.dumps(good))
    assert run(capsys, "verify-cert", "--cert", str(path))[0] == 0
    path.write_text(json.dumps({**good, "schema": "bogus/9", "space": "nowhere"}))
    assert run(capsys, "verify-cert", "--cert", str(path))[0] == 2
