"""Batch command-line front end with deterministic JSON output.

Every computation is a subcommand; numbers in JSON output are exact
rational strings ("p/q") or integers, sets are emitted in canonical
order, and keys are sorted, so output is byte-deterministic for a fixed
invocation.  Exit status: 0 success, 1 a verified mathematical property
failed, 2 invalid input.

The JSON is exactly json.dumps(payload, sort_keys=True, indent=2), written
by _write: all-int or all-str lists in one join each, other scalars
through the compact (C) encoder.  _emit_hull, the one writer of hull-t,
hull-zn and hull-j3, writes the witnesses as bytes built in numpy: the
excluded points come as int64 (num, den) pairs, one int64 key per point
gives sort_keys order, and the rows are rendered from 4-digit ASCII word
tables, a block at a time (_witness_block); _write inserts the block as
it is.  No witness dict and no per-point str is built.  Grid sets are
read as integer (num, den) pairs; only tokens that are not plain "p" or
"p/q" go through Fraction.  One argparse tree, built by the first main
call, serves every later call in the process.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd

import numpy as np

from . import acceptance
from .circle import (parse_rational, point_pairs, render_points, render_rational,
                     signed_array, signed_residues)
from .duality import ResidueSet, check_power, hull, polar
from .errors import InvalidInputError, quote_input, too_long_to_print
from .families import (DivisibleChain, GapSequence, necessary_report_R,
                       necessary_report_T, verdict_J3, verdict_R2, verdict_T2,
                       verdict_T3)
from .padic import compute_Jm, epsilon_forms, level_for, q12_set
from .realline import RealFiniteSet, hull_R, member_hull_R, polar_R
from .witnesses import (SCHEMA, certificate_from_json, exclusion_J3,
                        exclusion_T3, verify_certificate)


def _largest_int(node) -> int:
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return max((_largest_int(v) for v in node), default=0)
    return abs(node) if isinstance(node, int) else 0


_encode_str = json.encoder.encode_basestring_ascii
_encode_scalar = json.JSONEncoder().encode          # compact, so CPython's C encoder


class _JSON(str):
    """JSON text already written at its place in the document."""


def _write(node, indent: str) -> str:
    """node as json.dumps(node, sort_keys=True, indent=2) writes it at this indent.

    _JSON text is inserted as it is, all-int and all-str lists in one join;
    a dict with a non-str key is left to json.dumps itself.
    """
    inner = indent + "  "
    if isinstance(node, _JSON):
        return node
    if isinstance(node, dict):
        if not node:
            return "{}"
        if not all(isinstance(k, str) for k in node):
            return json.dumps(node, sort_keys=True, indent=2).replace("\n", "\n" + indent)
        parts = [f"{_encode_str(k)}: {_write(v, inner)}" for k, v in sorted(node.items())]
        return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + indent + "}"
    if isinstance(node, (list, tuple)):
        if not node:
            return "[]"
        if all(type(v) is int for v in node):
            parts = map(int.__repr__, node)
        elif all(type(v) is str for v in node):
            parts = map(_encode_str, node)
        else:
            parts = [_write(v, inner) for v in node]
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + indent + "]"
    return _encode_scalar(node)


def _dumps(payload: dict) -> str:
    """Canonical JSON; an integer past Python's int-to-str limit is an input error."""
    try:
        return _write(payload, "")
    except ValueError as exc:
        raise too_long_to_print(_largest_int(payload)) from exc


_PAD = np.array([0] + [10 ** (7 - w) for w in range(1, 8)])      # by width: a as 7 digits


def _sort_key(a: np.ndarray) -> np.ndarray:
    """Integers in [0, 10^7) in the order of their decimal strings, each closed by a
    character below the digits: a padded to 7 digits, then the shorter (prefix) first."""
    width = np.ones_like(a)
    for ten in (10, 100, 1000, 10 ** 4, 10 ** 5, 10 ** 6):
        width += a >= ten
    return a * _PAD.take(width) * 8 + width


@lru_cache(maxsize=1)
def _digit_words() -> np.ndarray:
    """uint32 words of 4 ASCII bytes: entry x < 10^4 holds x right-aligned after
    NUL bytes (42 as NUL NUL "42", 0 as NUL NUL NUL "0"), entry 10^4 + x holds
    x padded with zeros ("0042")."""
    x = np.arange(10 ** 4, dtype=np.int16)[:, None]
    d = (x // np.array([1000, 100, 10, 1], dtype=np.int16) % 10).astype(np.uint8)
    lead = np.logical_and.accumulate(d == 0, axis=1)
    lead[:, 3] = False
    digits = d + ord("0")
    return np.concatenate([np.where(lead, 0, digits), digits]).view(np.uint32).ravel()


def _digits_into(out: np.ndarray, x: np.ndarray) -> None:
    """x (int64, 0 <= x < 10^8) in decimal, as two words of out's rows: x = q*10^4 + r."""
    q, r = np.divmod(x, 10 ** 4)
    big = q > 0
    words = _digit_words()
    out[:, 0] = words.take(q) * big            # q = 0: no word
    out[:, 1] = words.take(r + big * 10 ** 4)   # after q, r keeps its zeros


def _word(text: str) -> int:
    """At most 4 ASCII characters, padded with NUL, as the uint32 word that holds them."""
    return int.from_bytes(text.encode().ljust(4, b"\0"), sys.byteorder)


_ROWS = 1 << 15         # witness rows rendered per block: 1.3 MB of words
_NEXT, _COLON, _SLASH = _word(",\n  "), _word('": '), _word("/")
_OPEN = np.array([_word('  "'), _word('  "-')], dtype=np.uint32)      # by sign


def _member_order(num: np.ndarray, den: np.ndarray | None) -> np.ndarray:
    """The order in which sort_keys writes the members "num/den": k.

    A member sorts by its key, and the key's closing '"' sorts below "-",
    "/" and the digits, so the order is that of one int64 per point: the
    sign (minus first), then |num| by _sort_key, then den by _sort_key, or 0
    when no "/den" is written ("1" < "1/2"; _sort_key is never 0).
    """
    key = (num >= 0).astype(np.int64) << 57 | _sort_key(np.abs(num)) << 29
    if den is not None:
        key |= _sort_key(den) * (den != 1)
    return np.argsort(key, kind="stable")


def _witness_block(num: np.ndarray, den: np.ndarray | None, k: np.ndarray) -> _JSON:
    """{"num/den": k, ...} as json.dumps(sort_keys=True, indent=2) writes the
    witnesses key of a top-level object; den None (or 1) writes the point "num".

    num, den and k are int64 arrays of values below 10^7 (MAX_MODULUS < 10^7).
    The rows are rendered in _member_order, 2^15 at a time, as ten uint32
    words each (seven without den): _NEXT (the comma, newline and half the
    indent), _OPEN (the rest of it, '"' and the sign), |num|, "/", den, '": ',
    k.  The NUL padding is dropped in one pass per block.
    """
    if not len(num):
        return _JSON("{}")
    order = _member_order(num, den)
    buf = np.empty((min(len(order), _ROWS), 7 if den is None else 10), dtype=np.uint32)
    buf[:, 0] = _NEXT
    buf[:, -3] = _COLON
    blocks = []
    for i in range(0, len(order), _ROWS):
        at = order[i:i + _ROWS]
        rows = buf[:len(at)]
        x = num.take(at)
        rows[:, 1] = _OPEN.take(x < 0)
        _digits_into(rows[:, 2:4], np.abs(x))
        if den is not None:
            d = den.take(at)
            slash = d != 1
            rows[:, 4] = _SLASH * slash
            _digits_into(rows[:, 5:7], d)
            rows[:, 5:7] *= slash[:, None]
        _digits_into(rows[:, -2:], k.take(at))
        u = rows.view(np.uint8).ravel()
        blocks.append(u[u != 0].tobytes().decode())
    blocks[0] = "{" + blocks[0][1:]          # the first row opens the object: no comma
    blocks.append("\n  }")
    return _JSON("".join(blocks))


def _emit(args, payload: dict, text_lines) -> None:
    if args.text:
        for line in text_lines():
            print(line)
    else:
        print(_dumps({"schema": SCHEMA, **payload}))


def _items(text: str) -> list[str]:
    """The items of a comma-separated list; blank items are skipped."""
    return [t for t in text.split(",") if t.strip() != ""]


def _set_items(text: str) -> list[str]:
    items = _items(text)
    if not items:
        raise InvalidInputError("empty set")
    return items


def _parse_rational_set(text: str) -> list[Fraction]:
    return [parse_rational(t) for t in _set_items(text)]


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    """The integers of a comma-separated list; `what` names the list in the error."""
    try:
        return tuple(map(int, _items(text)))
    except ValueError as exc:
        raise InvalidInputError(f"bad {what} {quote_input(text)}") from exc


def _parse_int_set(text: str) -> tuple[int, ...]:
    ints = _parse_ints(text, "integer set")
    if not ints:
        raise InvalidInputError("empty set")
    return ints


def _parse_seq(text: str) -> GapSequence:
    return GapSequence(_parse_ints(text, "sequence text"))


_PLAIN_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _grid_pair(token: str) -> tuple[int, int]:
    """A --set token as a lowest-terms pair (num, den), den > 0.

    "p" and "p/q" in ASCII digits are read as integers.  Any other form, a
    zero denominator, or digits past the int-from-str limit go through
    parse_rational, so the accepted inputs and the messages are Fraction's.
    """
    if m := _PLAIN_RATIONAL.fullmatch(token.strip()):
        try:
            num, den = int(m[1]), int(m[2] or 1)
        except ValueError:      # past the int-from-str digit limit
            den = 0
        if den:
            g = gcd(num, den)
            return num // g, den // g
    f = parse_rational(token)
    return f.numerator, f.denominator


def _grid_input(args) -> ResidueSet:
    return ResidueSet.from_pairs(map(_grid_pair, _set_items(args.set)), args.grid)


def cmd_polar_t(args) -> int:
    E = _grid_input(args)
    P = polar(E)
    _emit(args, {"op": "polar-t", "modulus": P.modulus, "residues": sorted(P.residues)},
          lambda: [f"polar mod {P.modulus}: {sorted(P.residues)}"])
    return 0


def _emit_hull(args, E: ResidueSet, points, pairs, head: dict, label: str) -> None:
    """hull(E) as the input, hull, witnesses and quasi_convex keys after `head`.

    points(r, n) writes the residues r mod n (a list) as the input and hull
    lists do; pairs(r, n) gives the same points of an int64 array as int64
    (num, den) arrays, den None for integer points, from which
    _witness_block writes the witnesses.  The text output, "label: hull",
    writes no witnesses.
    """
    rep = hull(E)
    n = E.modulus
    keys = {"input": sorted(points(list(E.residues), n)),
            "hull": sorted(points(list(rep.hull), n)),
            "quasi_convex": rep.is_quasi_convex()}
    if not args.text:
        W = rep.witnesses
        keys["witnesses"] = _witness_block(*pairs(W[:, 0], n), W[:, 1])
    _emit(args, {**head, **keys},
          lambda: [f"{label}: {keys['hull']}", f"quasi-convex: {keys['quasi_convex']}"])


def _residues(r: list, n: int) -> list[int]:
    """Residues mod n, already reduced, as they are."""
    return r


def _residue_pairs(r: np.ndarray, n: int) -> tuple[np.ndarray, None]:
    return r, None


def _signed_pairs(r: np.ndarray, n: int) -> tuple[np.ndarray, None]:
    return signed_array(r, n), None


def cmd_hull_t(args) -> int:
    E = _grid_input(args)
    _emit_hull(args, E, render_points, point_pairs, {"op": "hull-t", "kind": "grid", "modulus": E.modulus},
               "hull")
    return 0


def cmd_hull_zn(args) -> int:
    E = ResidueSet(args.n, _parse_int_set(args.set))
    _emit_hull(args, E, _residues, _residue_pairs, {"op": "hull-zn", "kind": "cyclic", "order": args.n},
               f"hull in Z({args.n})")
    return 0


def cmd_hull_j3(args) -> int:
    if args.level < 1:
        raise InvalidInputError("level must be >= 1")
    check_power(3, args.level)
    n = 3 ** args.level
    E = ResidueSet(n, _parse_int_set(args.set))
    _emit_hull(args, E, signed_residues, _signed_pairs, {"op": "hull-j3", "level": args.level, "order": n},
               f"hull in Z(3^{args.level})")
    return 0


def cmd_polar_r(args) -> int:
    S = RealFiniteSet(_parse_rational_set(args.set))
    P = polar_R(S)
    _emit(args, {"op": "polar-r", **P.as_json()},
          lambda: [f"period {render_rational(P.period)}: {P.one_period}"])
    return 0


def cmd_hull_r(args) -> int:
    S = RealFiniteSet(_parse_rational_set(args.set))
    hull = hull_R(S)
    out = sorted(hull)
    _emit(args, {"op": "hull-r", "hull": [render_rational(z) for z in out],
                 "quasi_convex": hull == S.points},
          lambda: [f"hull: {[render_rational(z) for z in out]}"])
    return 0


def cmd_member_r(args) -> int:
    S = RealFiniteSet(_parse_rational_set(args.set))
    z = parse_rational(args.target)
    res = member_hull_R(S, z)
    target = render_rational(z)
    _emit(args, {"op": "member-r", "target": target, **res.as_json()},
          lambda: [f"{target}: " + ("In" if res.inside
                                    else f"Out (witness {render_rational(res.witness)})")])
    return 0


_VERDICTS = {"T2": verdict_T2, "R2": verdict_R2, "T3": verdict_T3, "J3": verdict_J3}


def cmd_family_verdict(args) -> int:
    if args.family == "chain":
        chain = DivisibleChain(_parse_ints(args.seq, "chain text"))
        _emit(args, {"op": "family-verdict", "family": "chain",
                     "terms": list(chain.terms), "ratios": list(chain.ratios),
                     "necessity_T": necessary_report_T(chain).as_json(),
                     "necessity_R": necessary_report_R(chain).as_json()},
              lambda: [f"T necessity: {necessary_report_T(chain).as_json()}",
                       f"R necessity: {necessary_report_R(chain).as_json()}"])
        return 0
    a = _parse_seq(args.seq)
    verdict = _VERDICTS[args.family](a)
    _emit(args, {"op": "family-verdict", "family": args.family,
                 "entries": list(a.entries), **verdict.as_json()},
          lambda: [f"{args.family} {a.entries}: {verdict.outcome}"
                   + (f" (violated {verdict.violated})" if verdict.violated else "")])
    return 0


def _reject_other_family_flag(args, flag: str, family: str) -> None:
    if args.family != family and getattr(args, flag) is not None:
        raise InvalidInputError(f"--{flag} belongs to --family {family}, not {args.family}")


def cmd_jm(args) -> int:
    a = _parse_seq(args.seq)
    out = compute_Jm(a, args.m, args.kmax, args.family)
    _emit(args, {"op": "jm", "family": args.family, "m": args.m,
                 "k_max": args.kmax, "members": sorted(out)},
          lambda: [f"J_{args.m} up to {args.kmax}: {sorted(out)}"])
    return 0


def cmd_q12(args) -> int:
    _reject_other_family_flag(args, "grid", "T3")
    _reject_other_family_flag(args, "level", "J3")
    a = _parse_seq(args.seq)
    exponent = args.grid if args.family == "T3" else args.level
    if exponent is None:
        exponent = a.entries[-1] + 1 if args.family == "T3" else level_for(a)
    q12 = q12_set(a, args.family, exponent)
    eps = epsilon_forms(a, args.family, exponent)
    points = render_points if args.family == "T3" else signed_residues

    def ser(S: ResidueSet) -> list:
        return sorted(points(list(S.residues), S.modulus))

    _emit(args, {"op": "q12", "family": args.family, "exponent": exponent,
                 "q12": ser(q12), "epsilon_forms": ser(eps), "equal": q12 == eps},
          lambda: [f"q12 == epsilon_forms: {q12 == eps} ({len(q12.residues)} elements)"])
    return 0


def cmd_certify(args) -> int:
    a = _parse_seq(args.seq)
    eps = _parse_int_set(args.epsilon)
    cert = (exclusion_T3(a, eps) if args.family == "T3" else exclusion_J3(a, eps))
    text = _dumps(cert.as_json())
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise InvalidInputError(f"cannot write certificate: {exc}") from exc
        print(f"wrote certificate to {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


def cmd_verify_cert(args) -> int:
    try:
        with open(args.cert, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read certificate: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"certificate is not JSON: {exc}") from exc
    except ValueError as exc:   # an integer past Python's int-from-str digit limit
        raise InvalidInputError("certificate holds an integer of more than "
                                f"{sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:
        raise InvalidInputError("certificate JSON is nested too deeply") from exc
    cert = certificate_from_json(data)
    valid = verify_certificate(cert, args.truncation)
    _emit(args, {"op": "verify-cert", "valid": valid},
          lambda: ["certificate valid" if valid else "certificate INVALID"])
    return 0 if valid else 1


def cmd_verify_paper(args) -> int:
    idents = args.criteria.split(",") if args.criteria else None
    results = acceptance.run_all(idents, jobs=args.jobs, stream=sys.stderr)
    all_passed = all(r.passed for r in results)
    _emit(args, {"op": "verify-paper", "all_passed": all_passed,
                 "results": [{"id": r.ident, "description": r.description,
                              "passed": r.passed, "detail": r.detail,
                              "millis": int(r.seconds * 1000)} for r in results]},
          lambda: [r.line() for r in results]
          )
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcg",
        description="Exact polars, quasi-convex hulls and certificates in T, Z(n), Z(3^M) and R")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--text", action="store_true",
                        help="human-oriented text output instead of canonical JSON")

    sub = parser.add_subparsers(dest="command", required=True)
    rationals = "exact rational(s), e.g. --set=-1/2,1/3 or --target=-2/7 (a leading minus needs '=')"

    p = sub.add_parser("polar-t", parents=[common], help="polar of a grid set in T")
    p.add_argument("--set", required=True, help="comma-separated rationals, e.g. 0,1/8,-1/8")
    p.add_argument("--grid", type=int, default=None, help="grid modulus override")
    p.set_defaults(func=cmd_polar_t)

    p = sub.add_parser("hull-t", parents=[common], help="quasi-convex hull of a grid set in T")
    p.add_argument("--set", required=True)
    p.add_argument("--grid", type=int, default=None)
    p.set_defaults(func=cmd_hull_t)

    p = sub.add_parser("hull-zn", parents=[common], help="quasi-convex hull in Z(n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--set", required=True, help="comma-separated residues")
    p.set_defaults(func=cmd_hull_zn)

    p = sub.add_parser("hull-j3", parents=[common], help="quasi-convex hull in Z(3^level)")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--set", required=True, help="comma-separated integers (signed ok)")
    p.set_defaults(func=cmd_hull_j3)

    p = sub.add_parser("polar-r", parents=[common], help="periodic polar of a finite set in R")
    p.add_argument("--set", required=True, help=rationals)
    p.set_defaults(func=cmd_polar_r)

    p = sub.add_parser("hull-r", parents=[common], help="quasi-convex hull in R")
    p.add_argument("--set", required=True, help=rationals)
    p.set_defaults(func=cmd_hull_r)

    p = sub.add_parser("member-r", parents=[common], help="exact hull membership in R")
    p.add_argument("--set", required=True, help=rationals)
    p.add_argument("--target", required=True, help=rationals)
    p.set_defaults(func=cmd_member_r)

    p = sub.add_parser("family-verdict", parents=[common],
                       help="characterization verdict for a gap-sequence family")
    p.add_argument("--family", required=True, choices=["T2", "R2", "T3", "J3", "chain"])
    p.add_argument("--seq", required=True, help="comma-separated integers")
    p.set_defaults(func=cmd_family_verdict)

    p = sub.add_parser("jm", parents=[common], help="index set J_m of a family")
    p.add_argument("--family", required=True, choices=["T3", "J3"])
    p.add_argument("--seq", required=True)
    p.add_argument("--m", type=int, required=True, choices=[1, 2])
    p.add_argument("--kmax", type=int, required=True)
    p.set_defaults(func=cmd_jm)

    p = sub.add_parser("q12", parents=[common],
                       help="finite Q1 n Q2 versus the epsilon-form set")
    p.add_argument("--family", required=True, choices=["T3", "J3"])
    p.add_argument("--seq", required=True)
    p.add_argument("--grid", type=int, default=None, help="grid exponent (T3 side)")
    p.add_argument("--level", type=int, default=None, help="truncation level (J3 side)")
    p.set_defaults(func=cmd_q12)

    # certify always writes the certificate JSON, so it takes no --text
    p = sub.add_parser("certify",
                       help="build an exclusion certificate for an epsilon form")
    p.add_argument("--family", required=True, choices=["T3", "J3"])
    p.add_argument("--seq", required=True)
    p.add_argument("--epsilon", required=True, help="comma-separated coefficients in {-1,0,1}")
    p.add_argument("--out", default=None, help="write certificate JSON to a file")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify-cert", parents=[common],
                       help="re-check an exclusion certificate bit-exactly")
    p.add_argument("--cert", required=True, help="certificate JSON file")
    p.add_argument("--truncation", type=int, default=None)
    p.set_defaults(func=cmd_verify_cert)

    p = sub.add_parser("verify-paper", parents=[common],
                       help="run the full acceptance suite")
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion ids (default: all)")
    p.add_argument("--jobs", type=int, default=1,
                   help="criteria run in parallel processes (>= 1)")
    p.set_defaults(func=cmd_verify_paper)

    return parser


_parser: argparse.ArgumentParser | None = None       # built by the first main call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
