"""Seeded request streams for the benchmark workloads.

A workload is a closed loop with one client that sends rounds of `qcg`
requests.  Every round has the same fixed mix of request shapes (which
subcommand, which modulus, how many points); the seed and the round
index only choose the points inside each shape.  So the mix, and with it
the cost of a round, is the same for every seed, while no set repeats:
moduli recur across requests, the sets sent at them do not.

Each request is the argv given to `qcgroups.cli.main`; the program sees
nothing else.

BENCHMARK.json lists grid-sparse, grid-dense and paper.  real-line is
left out of it: a paper run takes 90-120 s on a 2-core machine, and
within the time allowed for a full set of benchmark runs that leaves
runs of about 10 s for each other workload, too short for real-line's
pure-Python timings to settle (their spread across seeds was 20-30%).
paper's criterion-09 still reaches the realline and circle layers, and
real-line still runs by hand with `--workload real-line`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import verify

WORKLOADS = ("grid-sparse", "grid-dense", "paper", "real-line")

# grid-sparse: (subcommand, prime, exponent, symmetric pairs, gap-family pairs).
# More pairs halve the polar, so large moduli get more of them; this keeps
# every request under a few seconds while the |polar| full passes of the hull
# kernel and the per-point witness rendering stay of similar size.
SPARSE_SHAPES = (
    ("hull-t", 2, 10, 2, 1), ("hull-t", 2, 10, 3, 2), ("hull-t", 2, 11, 2, 1),
    ("hull-t", 2, 12, 3, 1), ("hull-t", 2, 13, 3, 2), ("hull-t", 2, 14, 5, 2),
    ("hull-t", 3, 7, 2, 1), ("hull-t", 3, 7, 3, 2), ("hull-t", 3, 8, 3, 1),
    ("hull-t", 3, 9, 5, 2),
    ("hull-zn", 2, 10, 2, 1), ("hull-zn", 2, 11, 3, 2), ("hull-zn", 2, 12, 2, 1),
    ("hull-zn", 2, 13, 4, 2), ("hull-zn", 2, 15, 6, 2), ("hull-zn", 2, 16, 7, 2),
    ("hull-zn", 3, 7, 2, 1), ("hull-zn", 3, 8, 3, 2), ("hull-zn", 3, 10, 7, 2),
    ("hull-j3", 3, 7, 2, 1), ("hull-j3", 3, 7, 3, 2), ("hull-j3", 3, 8, 3, 2),
    ("hull-j3", 3, 9, 4, 2), ("hull-j3", 3, 10, 7, 2),
)

POLAR_BAND, MAX_DRAWS = (0.9, 1.1), 500

# grid-dense: (subcommand, prime, exponent, |E|, "rand" | "arc").
DENSE_SHAPES = (
    ("polar-t", 2, 12, 3000, "rand"), ("polar-t", 2, 12, 1500, "arc"),
    ("polar-t", 2, 13, 2000, "rand"), ("polar-t", 2, 14, 1000, "arc"),
    ("polar-t", 2, 15, 600, "rand"), ("polar-t", 2, 16, 300, "rand"),
    ("polar-t", 3, 8, 2500, "arc"), ("polar-t", 3, 9, 1200, "rand"),
    ("polar-t", 3, 10, 300, "arc"),
    ("hull-t", 2, 12, 2000, "rand"), ("hull-t", 3, 8, 1500, "arc"),
    ("hull-zn", 2, 13, 1500, "arc"), ("hull-zn", 2, 14, 1000, "rand"),
    ("hull-zn", 3, 9, 800, "rand"),
)
# grid-dense q12: (family, exponent, sequence length); gaps are >= 2.
Q12_SHAPES = (("T3", 7, 3), ("J3", 7, 2), ("T3", 8, 3), ("J3", 8, 4),
              ("T3", 9, 2), ("J3", 9, 3), ("J3", 10, 3))

# real-line: polar-r multipliers and the number of member-r targets per round;
# the sets are chosen per slot below.
POLAR_R_MULTIPLIERS = (30, 300, 3000, 10000)
MEMBER_R_TARGETS = 16


def round_requests(workload: str, seed: int, round_index: int) -> list[list[str]]:
    """The argv of every request of one round, in sending order."""
    if workload == "paper":
        return [["verify-paper"]]   # fixed input: the seed changes nothing
    rng = random.Random(f"{workload}/{seed}/{round_index}")
    if workload == "grid-sparse":
        reqs = [_sparse(rng, *shape) for shape in SPARSE_SHAPES]
    elif workload == "grid-dense":
        reqs = [_dense(rng, *shape) for shape in DENSE_SHAPES]
        reqs += [_q12(rng, *shape) for shape in Q12_SHAPES]
    elif workload == "real-line":
        reqs = _real_line(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs


def _gap_exponents(rng: random.Random, count: int, top: int, min_gap: int) -> list[int]:
    """`count` increasing integers in [0, top) with consecutive gaps >= min_gap."""
    slack = top - 1 - (count - 1) * min_gap
    cuts = sorted(rng.randrange(slack + 1) for _ in range(count))
    return [c + i * min_gap for i, c in enumerate(cuts)]


def _sparse_residues(rng, prime, exponent, pairs, gap_pairs, circle):
    """{0} plus `pairs` symmetric pairs, `gap_pairs` of them gap-family points.

    The hull's work is |polar| passes over the carrier, and the polar of
    such a set holds about n / 2^pairs characters, but single draws range
    from half to twice that.  Draws outside POLAR_BAND of n / 2^pairs are
    redrawn, so a shape costs about the same for every seed.
    """
    n = prime ** exponent
    target = n / 2 ** pairs
    for _ in range(MAX_DRAWS):
        res = {0}
        for a in _gap_exponents(rng, gap_pairs, exponent - 1, 1):
            # circle side: the point prime^-(a+1); cyclic side: 3^a (or 2^a)
            g = n // prime ** (a + 1) if circle else prime ** a
            res |= {g, n - g}
        while len(res) < 1 + 2 * pairs:
            r = rng.randrange(1, n)
            if 2 * r != n:
                res |= {r, n - r}
        if POLAR_BAND[0] <= len(verify.polar(n, res)) / target <= POLAR_BAND[1]:
            break
    return n, sorted(res)


def _sparse(rng, op, prime, exponent, pairs, gap_pairs) -> list[str]:
    n, res = _sparse_residues(rng, prime, exponent, pairs, gap_pairs, op == "hull-t")
    if op == "hull-t":
        return [op, "--grid", str(n), "--set=" + _grid_text(res, n)]
    if op == "hull-zn":
        return [op, "--n", str(n), "--set=" + ",".join(map(str, res))]
    signed = [r if 2 * r < n else r - n for r in res]
    return [op, "--level", str(exponent), "--set=" + ",".join(map(str, signed))]


def _dense(rng, op, prime, exponent, size, kind) -> list[str]:
    n = prime ** exponent
    if kind == "rand":
        res = sorted(rng.sample(range(n), size))
    else:
        # the arc [-w, w] around 0, whose polar is the small arc |k| <~ n/4w
        w = size // 2 - rng.randrange(size // 10 + 1)
        res = sorted(i % n for i in range(-w, w + 1))
    if op == "hull-zn":
        return [op, "--n", str(n), "--set=" + ",".join(map(str, res))]
    return [op, "--grid", str(n), "--set=" + _grid_text(res, n)]


def _q12(rng, family, exponent, length) -> list[str]:
    seq = _gap_exponents(rng, length, exponent, 2)
    flag = "--grid" if family == "T3" else "--level"
    return ["q12", "--family", family, "--seq", ",".join(map(str, seq)), flag, str(exponent)]


def _grid_text(residues, n) -> str:
    return ",".join(f"{r}/{n}" if 2 * r <= n else f"-{n - r}/{n}" for r in residues)


def _rational_text(values) -> str:
    return ",".join(_frac_text(v) for v in values)


def _frac_text(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _symmetric(values) -> list[Fraction]:
    out = {Fraction(0)}
    for v in values:
        out |= {v, -v}
    return sorted(out)


def _r2_set(rng, terms, top) -> list[Fraction]:
    """{0, +-2^-(a_n+1)}: the R2 family with `terms` entries, the last one `top`."""
    a = sorted(rng.sample(range(top), terms - 1)) + [top]
    return _symmetric(Fraction(1, 2 ** (e + 1)) for e in a)


def _chain_set(rng, terms) -> list[Fraction]:
    """{0, +-1/b_n} for a divisible chain b_0 | b_1 | ... with ratios 2 or 3."""
    b, out = rng.choice((2, 3, 4)), []
    for _ in range(terms):
        out.append(b)
        b *= rng.choice((2, 3))
    return _symmetric(Fraction(1, t) for t in out)


def _random_set(rng, dens) -> list[Fraction]:
    """One point p/q in (-1, 1) per denominator q, p coprime to q."""
    out = set()
    for q in dens:
        p = rng.choice([p for p in range(1, q) if gcd(p, q) == 1])
        out.add(Fraction(rng.choice((-1, 1)) * p, q))
    return sorted(out)


# real-line sets, one per slot: (maker, parameters).  The parameters fix what
# the cost depends on (terms, the largest denominator); the seed picks the rest.
POLAR_R_SETS = ((_r2_set, 2, 5), (_r2_set, 3, 8), (_r2_set, 4, 9), (_chain_set, 2),
                (_chain_set, 3), (_random_set, (3, 8)), (_random_set, (5, 7, 12)),
                (_random_set, (4, 9)))
MEMBER_R_SETS = ((_r2_set, 3, 6), (_chain_set, 3), (_random_set, (3, 8)),
                 (_r2_set, 2, 9))
HULL_R_SETS = ((_r2_set, 2, 4), (_r2_set, 3, 6), (_r2_set, 4, 8), (_r2_set, 3, 9),
               (_chain_set, 2), (_chain_set, 3), (_random_set, (3, 8)),
               (_random_set, (5, 7)), (_random_set, (4, 9)), (_random_set, (6, 11)))


def _real_line(rng) -> list[list[str]]:
    reqs = [["polar-r", "--set=" + _rational_text(make(rng, *p))] for make, *p in POLAR_R_SETS]
    for m in POLAR_R_MULTIPLIERS:
        # {0, +-c/q} with gcd(c, q) = 1: the polar period is q and one
        # period is cut into c + 1 pieces
        q = rng.choice((1, 3, 5, 7))
        c = m + rng.randint(0, 9)
        while gcd(c, q) != 1:
            c += 1
        reqs.append(["polar-r", "--set=" + _rational_text(_symmetric([Fraction(c, q)]))])
    for i in range(MEMBER_R_TARGETS):
        make, *p = MEMBER_R_SETS[i % len(MEMBER_R_SETS)]
        den = int(10 ** (1 + 3 * i / (MEMBER_R_TARGETS - 1)))  # 10 .. 10^4
        num = rng.choice([k for k in range(1, den) if gcd(k, den) == 1])
        reqs.append(["member-r", "--set=" + _rational_text(make(rng, *p)),
                     "--target", _frac_text(Fraction(num, den))])
    reqs += [["hull-r", "--set=" + _rational_text(make(rng, *p))] for make, *p in HULL_R_SETS]
    return reqs
