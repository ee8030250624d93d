#!/usr/bin/env python3
"""Census of truncated family hulls against the characterization verdicts.

Enumerates every strictly increasing gap sequence within the given
bounds, prints the verdict for the chosen family, and brute-forces the
hull of each truncation to show where (and how) contamination appears.

Examples:
    python scripts/hull_census.py --family T3 --max-entry 6 --max-len 3
    python scripts/hull_census.py --family T2 --max-entry 7 --max-len 4 --only-disagreements
"""

from __future__ import annotations

import argparse
from itertools import combinations

from qcgroups.circle import render_point
from qcgroups.duality import hull
from qcgroups.families import (GapSequence, points_K2, points_K3, verdict_J3,
                               verdict_T2, verdict_T3)
from qcgroups.padic import L3_truncate

# family: (verdict, truncated set, point writer: "p/q" on a grid, the residue in Z(3^M))
FAMILIES = {
    "T2": (verdict_T2, lambda a: points_K2(a), render_point),
    "T3": (verdict_T3, lambda a: points_K3(a), render_point),
    "J3": (verdict_J3, lambda a: L3_truncate(a, a.entries[-1] + 2), lambda r, n: r),
}


def truncation_report(kind: str, a: GapSequence) -> list[str]:
    _, points, write = FAMILIES[kind]
    lines = []
    for t in range(1, len(a) + 1):
        prefix = a.prefix(t)
        E = points(prefix)
        extra = sorted(write(r, E.modulus) for r in hull(E).hull - E.residues)
        label = (f"Z(3^{prefix.entries[-1] + 2})" if kind == "J3"
                 else f"grid {E.modulus}")
        status = "quasi-convex" if not extra else f"hull gains {extra[:4]}"
        lines.append(f"    terms {t} ({label}): {status}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", choices=sorted(FAMILIES), default="T3")
    parser.add_argument("--max-entry", type=int, default=6)
    parser.add_argument("--max-len", type=int, default=3)
    parser.add_argument("--only-disagreements", action="store_true",
                        help="print only sequences whose full truncation "
                             "disagrees with the verdict")
    args = parser.parse_args()

    verdict_fn = FAMILIES[args.family][0]
    for r in range(1, args.max_len + 1):
        for entries in combinations(range(args.max_entry + 1), r):
            a = GapSequence(entries)
            v = verdict_fn(a)
            lines = truncation_report(args.family, a)
            full_qc = lines[-1].endswith("quasi-convex")
            if args.only_disagreements and full_qc == v.is_quasi_convex:
                continue
            flag = "" if full_qc == v.is_quasi_convex else "   <-- inspect"
            print(f"a={entries}: {v.outcome}"
                  + (f" ({v.violated})" if v.violated else "") + flag)
            for line in lines:
                print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
