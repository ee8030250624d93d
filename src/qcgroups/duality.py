"""Decidable polars and quasi-convex hulls for finite sets in T-grids and Z(n).

For E inside the grid (1/N)Z/Z the character group of T is Z, and every
multiple of N annihilates E, so N.Z sits inside the polar E^>.  A point x
of the hull must then have its whole subgroup <N.x> inside T_+, and the
only subgroup of T contained in T_+ is {0}; hence N.x = 0 and the hull
stays inside the (1/N)-grid.  The polar itself is a union of residue
classes mod N, so both the polar and the hull are finite, exact integer
computations.  The same arithmetic serves Z(n) with the pairing
chi_k(x) = kx/n.

So every finite set here is one ResidueSet: a modulus n and residues mod
n.  The grid (1/n)Z/Z and Z(n) are one group, r/n <-> r, so polar(E)
and hull(E) return residues whichever of the two E came from; the
polar lies in the character group Z(n).  How a point is written
("p/q", a residue, a signed residue) is the caller's choice.

The hot loops run on int64 numpy vectors.  MAX_MODULUS = 3^13 is the one
size bound: every kernel call rejects a larger modulus, and check_power
rejects p^e past it without building p^e.  A product of two residues is
then below 2.6e12, far inside int64, so every product is exact.  Every
test of "k*j/n lies in T_+" goes through in_t_plus.  Both kernels shrink
a candidate array: polar_residues keeps the characters that pass every
element so far, and hull_residues the points that pass every character
so far.  Each step tests the survivors against the next
w = max(1, _BLOCK // survivors) elements (or polar characters) in one
outer product, so a step holds about _BLOCK = 2^16 cells: while
the survivors are many it is one pass per element, and once they are few
it takes thousands of elements at once.  The polar is walked in
ascending order and each excluded point's witness is the first
excluding character of its block, so every witness is the smallest
character that excludes its point.  The witnesses come back as one int64
array, a row (point, character) per excluded point in ascending point
order, which HullReport.witnesses holds and the CLI writes in bulk; no
per-point dict is built.  Single CLI calls use these kernels;
sweeps that repeat one modulus read the cached char_table(n), n <= 4096,
whose row k packs the points p with k*p/n in T_+: a polar is an AND of
rows and table_hull a second AND.  For n <= 64
a row is one uint64, and hull_masks / image_masks take the hulls and
images of whole arrays of subsets, for a block of maps, with one
ndarray.take per 16-bit (hull) or 8-bit (image) chunk of the masks, in
blocks of about _BLOCK table lookups; the hull's 16-bit tables are cached
per modulus.  image_masks maps into Z(m), so it also gives the quotients
Z(n) -> Z(m).
check_two_x_equivalence(n) answers the four-way equivalence around
2x in Q({x, 3x}) for every x in Z(n) at once: (i) from char_table(n) rows,
(ii)-(iv) from one boolean trace matrix, row x holding {k*x mod n}.

The polar inside T of finite integer characters is a union of closed
intervals; polar_sweep_pairs computes it on integers, for realline.polar_R,
and polar_sweep writes it out exactly for char_polar_intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Iterable

import numpy as np

from .circle import HALF, RationalIntervalUnion, intersect_pairs
from .errors import InvalidInputError, describe_int

MAX_MODULUS = 3 ** 13           # the largest modulus any call accepts
_TABLE_MAX_MODULUS = 4096       # char_table holds n*n/8 bytes: 2 MiB at the cap
_BLOCK = 1 << 16                # cells per kernel step: survivors x next elements, or mask lookups


def in_t_plus(r, n):
    """r/n lies in T_+ = [-1/4, 1/4], for any integer r; r is reduced mod n here.

    Works unchanged on Python ints and on int64 numpy arrays.
    """
    r = r % n
    return (4 * r <= n) | (4 * (n - r) <= n)


def polar_sweep_pairs(cs: Iterable[int], lo: Fraction, hi: Fraction) -> tuple[list, int]:
    """{t in [lo, hi] : c*t in T_+ for every c in cs}: pairs (x, y), each [x/L, y/L].

    cs are positive integers and lo, hi multiples of 1/4.  The sweep runs
    on integers over L = 4*lcm(cs): character c contributes the pieces
    [(4j-1)*L/4c, (4j+1)*L/4c] that meet the window, one sorted list per
    character, intersected in turn.  Returns (pairs, L).
    """
    cs = sorted(set(cs))
    L = 4 * lcm(*cs)
    a, b = lo * L, hi * L
    if a.denominator != 1 or b.denominator != 1:
        raise InvalidInputError(f"window [{lo}, {hi}] is not on the 1/{L} grid")
    a, b = a.numerator, b.numerator
    acc = [(a, b)]
    for c in cs:
        m = L // (4 * c)
        js = range(-((m - a) // (4 * m)), (b + m) // (4 * m) + 1)     # pieces meeting [a, b]
        acc = intersect_pairs(acc, [(max((4 * j - 1) * m, a), min((4 * j + 1) * m, b))
                                    for j in js])
    return acc, L


def polar_sweep(cs: Iterable[int], lo: Fraction, hi: Fraction) -> RationalIntervalUnion:
    """polar_sweep_pairs as exact intervals; Fractions are built only here."""
    pairs, L = polar_sweep_pairs(cs, lo, hi)
    return RationalIntervalUnion(tuple((Fraction(x, L), Fraction(y, L)) for x, y in pairs))


def _checked_modulus(n: int, limit: int = MAX_MODULUS) -> None:
    if not 1 <= n <= limit:
        raise InvalidInputError(f"modulus {describe_int(n)} must lie in 1..{limit}")


def check_power(p: int, e: int) -> None:
    """Reject p^e (p >= 2) above MAX_MODULUS; p^e is never built past the bound."""
    # p^e > MAX_MODULUS once e reaches the bound's bit length
    if e > 0 and p ** min(e, MAX_MODULUS.bit_length()) > MAX_MODULUS:
        raise InvalidInputError(f"modulus {p}^{e} must lie in 1..{MAX_MODULUS}")


def polar_residues(n: int, elems: Iterable[int]) -> frozenset[int]:
    """{k mod n : k*e/n in T_+ for every e}. Raises on an empty input set."""
    _checked_modulus(n)
    elems = sorted({min(e % n, -e % n) for e in elems})    # e and -e: same row
    if not elems:
        raise InvalidInputError("polar of the empty set is not defined here")
    elems = np.array(elems, dtype=np.int64)
    k = np.arange(n, dtype=np.int64)
    i = 0
    while i < len(elems):           # k holds 0, so it never empties
        block = elems[i:i + max(1, _BLOCK // len(k))]
        k = k[in_t_plus(np.outer(k, block), n).all(axis=1)]
        i += len(block)
    return frozenset(k.tolist())


def hull_residues(n: int, elems: Iterable[int]) -> tuple[frozenset[int], np.ndarray]:
    """Quasi-convex hull inside Z(n)/grid, with a witness for every excluded point.

    The witnesses are one int64 array W of shape (m, 2): a row (point,
    character) per excluded point, in ascending point order, so len(W) is
    the excluded count.  Witness selection is deterministic: the smallest
    character residue in the polar that moves the point outside T_+.
    """
    # -k gives the same row as k, and k <= n/2 comes first, so the witnesses
    # stay the smallest excluding characters
    polar = np.array([k for k in sorted(polar_residues(n, elems)) if 2 * k <= n], dtype=np.int64)
    alive = np.arange(n, dtype=np.int64)
    witness = np.zeros(n, dtype=np.int64)   # character 0 excludes nothing: 0 is "inside"
    i = 0
    while i < len(polar):           # alive holds 0, so it never empties
        ks = polar[i:i + max(1, _BLOCK // len(alive))]
        bad = ~in_t_plus(np.outer(alive, ks), n)
        out = bad.any(axis=1)
        if out.any():               # argmax: the first, so smallest, excluding character
            witness[alive[out]] = ks[bad[out].argmax(axis=1)]
            alive = alive[~out]
        i += len(ks)
    excluded = np.flatnonzero(witness)
    return frozenset(alive.tolist()), np.column_stack((excluded, witness[excluded]))


@lru_cache(maxsize=16)       # criterion-09 cycles through its grids, the quotient check n and n/d
def char_table(n: int) -> np.ndarray:
    """Read-only, symmetric n x ceil(n/8) uint8 table: row k packs {p : k*p/n in T_+}, bit p."""
    _checked_modulus(n, _TABLE_MAX_MODULUS)
    ar = np.arange(n, dtype=np.int64)
    table = np.empty((n, (n + 7) // 8), dtype=np.uint8)
    for b in range(0, n, 128):          # in blocks: no n x n int64 product is held
        ok = in_t_plus(np.outer(ar[b:b + 128], ar), n)
        table[b:b + 128] = np.packbits(ok, axis=1, bitorder="little")
    table.flags.writeable = False
    return table


def table_hull(n: int, elems: Iterable[int]) -> np.ndarray:
    """Boolean membership vector of hull(elems) in Z(n), from char_table(n); no witnesses."""
    T = char_table(n)
    idx = sorted({e % n for e in elems})
    if not idx:
        raise InvalidInputError("polar of the empty set is not defined here")
    ks = np.flatnonzero(np.unpackbits(np.bitwise_and.reduce(T[idx]), count=n, bitorder="little"))
    hull_row = np.bitwise_and.reduce(T[ks[2 * ks <= n]])
    return np.unpackbits(hull_row, count=n, bitorder="little").view(bool)


# ------------------------------------------------- batched masks, n <= 64

_ALL_BITS = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def _byte_tables(op, identity, rows: np.ndarray, bits: int) -> np.ndarray:
    """tables[c, v]: op over rows[bits*c + i] for the set bits i of v; rows' map axis stays last."""
    padded = np.full((-(-len(rows) // bits) * bits,) + rows.shape[1:], identity, dtype=np.uint64)
    padded[:len(rows)] = rows
    t = np.empty((len(padded) // bits, 1 << bits) + rows.shape[1:], dtype=np.uint64)
    t[:, 0] = identity
    for i in range(bits):               # values below 2^i, then with bit i set
        op(t[:, :1 << i], padded[i::bits, None], out=t[:, 1 << i:2 << i])
    return t


def _gather(op, tables: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """op over the table entries of every chunk of every mask: one take per chunk, in blocks.

    A chunk is as wide as the tables have index bits: 8 or 16.  A block
    makes about _BLOCK table lookups, so take's intp copy of a chunk's
    indices and the temporary it fills stay small.
    """
    per_mask = 64 // (tables.shape[1].bit_length() - 1)        # chunks in one uint64
    chunks = (np.ascontiguousarray(masks, dtype="<u8").reshape(-1)
              .view(f"<u{8 // per_mask}").reshape(-1, per_mask))
    out = np.empty((len(chunks),) + tables.shape[2:], dtype=np.uint64)
    step = max(1, _BLOCK // (per_mask * max(1, prod(tables.shape[2:]))))
    tmp = np.empty((min(step, len(out)),) + tables.shape[2:], dtype=np.uint64)
    for s in range(0, len(out), step):
        block, o = chunks[s:s + step], out[s:s + step]
        # every index is in range; mode "raise" would buffer a copy of out
        tables[0].take(block[:, 0], axis=0, out=o, mode="clip")
        for c in range(1, len(tables)):
            op(o, tables[c].take(block[:, c], axis=0, out=tmp[:len(o)], mode="clip"), out=o)
    return out.reshape(masks.shape + tables.shape[2:])


@lru_cache(maxsize=1)       # every caller sweeps one modulus at a time
def _hull_tables(n: int) -> np.ndarray:
    """Read-only 16-bit AND tables of char_table(n)'s rows, n <= 64: at most 4 x 65536 uint64."""
    T = char_table(n)
    rows = np.zeros((n, 8), dtype=np.uint8)                 # one uint64 per row
    rows[:, :T.shape[1]] = T
    tables = _byte_tables(np.bitwise_and, _ALL_BITS, rows.view("<u8").ravel(), 16)
    tables.flags.writeable = False
    return tables


def hull_masks(n: int, masks: np.ndarray) -> np.ndarray:
    """Hull of every subset of Z(n) in a uint64 array (bit j = residue j), n <= 64.

    The pairing k*j/n is symmetric, so the hull is the polar of the polar,
    two gathers through the cached 16-bit tables _hull_tables(n), one
    _gather block at a time, so no polar of the whole array is held.  The
    empty mask has every character in its polar and {0} as its hull.
    """
    _checked_modulus(n, 64)
    tables = _hull_tables(n)
    flat = np.ascontiguousarray(masks, dtype=np.uint64).reshape(-1)
    out = np.empty_like(flat)
    step = _BLOCK // 4                  # 4 chunks per mask: one _gather block
    for s in range(0, len(flat), step):
        out[s:s + step] = _gather(np.bitwise_and, tables,
                                  _gather(np.bitwise_and, tables, flat[s:s + step]))
    return out.reshape(masks.shape)


def image_masks(n: int, masks: np.ndarray, ks: Iterable[int], m: int | None = None) -> np.ndarray:
    """k*E for every subset E of Z(n) in a uint64 array, a trailing column per k in ks; n <= 64.

    The image lies in Z(m), j -> k*j mod m (m defaults to n; m <= 64); with
    k = 1 and m | n it is the quotient Z(n) -> Z(m).  Its tables are 8-bit
    and built per call: with the map axis, 16-bit ones would take 2 MiB per map.
    """
    _checked_modulus(n, 64)
    m = n if m is None else m
    _checked_modulus(m, 64)
    ks = np.fromiter(ks, dtype=np.int64)
    rows = np.uint64(1) << (np.outer(np.arange(n, dtype=np.int64), ks) % m).astype(np.uint64)
    return _gather(np.bitwise_or, _byte_tables(np.bitwise_or, np.uint64(0), rows, 8), masks)


@dataclass(frozen=True)
class ResidueSet:
    """A finite set of residues mod n: a subset of Z(n), or of the grid (1/n)Z/Z."""

    modulus: int
    residues: frozenset[int]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise InvalidInputError("modulus must be positive")
        object.__setattr__(self, "residues",
                           frozenset(r % self.modulus for r in self.residues))

    @classmethod
    def _reduced(cls, modulus: int, residues: frozenset[int]) -> "ResidueSet":
        """A kernel result, already reduced mod modulus, held as it is: no second pass."""
        E = object.__new__(cls)
        object.__setattr__(E, "modulus", modulus)
        object.__setattr__(E, "residues", residues)
        return E

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]],
                   modulus: int | None = None) -> "ResidueSet":
        """Grid set of the rationals num/den, given as lowest-terms pairs with den > 0.

        The modulus defaults to the common denominator; a given one must hold it.
        """
        pairs = list(pairs)
        need = lcm(*{den for _, den in pairs})
        if modulus is None:
            modulus = need
        elif modulus % need:
            raise InvalidInputError(
                f"grid modulus {describe_int(modulus)} does not hold denominators "
                f"(need multiple of {describe_int(need)})")
        return cls(modulus, frozenset(num * (modulus // den) for num, den in pairs))

    @classmethod
    def from_rationals(cls, values: Iterable[Fraction],
                       modulus: int | None = None) -> "ResidueSet":
        """from_pairs on exact rationals."""
        return cls.from_pairs(((f.numerator, f.denominator) for f in map(Fraction, values)),
                              modulus)


@dataclass(frozen=True, eq=False)
class HullReport:
    """hull(E) as residues, with one verified excluding character per outside point.

    Two reports are equal when their input sets, hulls and witness arrays are.
    """

    input_set: ResidueSet
    hull: frozenset[int]
    witnesses: np.ndarray       # rows (point, smallest excluding character), by point

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HullReport):
            return NotImplemented
        return (self.input_set == other.input_set and self.hull == other.hull
                and np.array_equal(self.witnesses, other.witnesses))

    def is_quasi_convex(self) -> bool:
        return self.input_set.residues == self.hull


def polar(E: ResidueSet) -> ResidueSet:
    """The polar of E; characters of Z(n) and of the grid (1/n)Z/Z both live in Z(n)."""
    return ResidueSet._reduced(E.modulus, polar_residues(E.modulus, E.residues))


def hull(E: ResidueSet) -> HullReport:
    return HullReport(E, *hull_residues(E.modulus, E.residues))


def pushforward_check(E: ResidueSet, d: int) -> bool:
    """True iff the quotient q: Z(n) -> Z(n/d) maps hull(E) into hull(q(E)), n <= 4096.

    On the grid (1/n)Z/Z, q is multiplication by d.  This inclusion is a
    theorem for continuous homomorphisms, so a False return flags an
    implementation bug rather than a mathematical fact.
    """
    n = E.modulus
    if d < 1 or n % d:
        raise InvalidInputError(f"{d} does not divide the order {n}")
    m = n // d
    src_hull = np.flatnonzero(table_hull(n, E.residues))
    return bool(table_hull(m, E.residues)[src_hull % m].all())


def check_two_x_equivalence(n: int) -> np.ndarray:
    """Conditions (i)-(iv) around 2x in Q({x, 3x}), n <= 4096: a (4, n) bool array, column x.

    (i) 2x in Q({x, 3x}), i.e. the polar of {x, 3x} lies in row 2x of
    char_table(n); (ii) +-1/4 not in Tr_x; (iii) 1/2 not in Tr_2x; (iv) Tr_2x
    has no nonzero 2-torsion.  Row x of one boolean trace matrix holds
    Tr_x = {k*x mod n : every k}, enumerated in full, as residues r of r/n.
    """
    T = char_table(n)
    x = r = np.arange(n, dtype=np.int64)        # x indexes the rows, r the trace columns
    i = ~np.any(T & T[3 * x % n] & ~T[2 * x % n], axis=1)
    trace = np.zeros((n, n), dtype=bool)
    for b in range(0, n, 128):          # in blocks: no n x n int64 product is held
        trace[x[b:b + 128, None], np.outer(x[b:b + 128], x) % n] = True
    ii = ~trace[:, (4 * r == n) | (4 * r == 3 * n)].any(axis=1)          # r/n = +-1/4
    iii = ~trace[:, 2 * r == n].any(axis=1)[2 * x % n]                     # r/n = 1/2
    iv = ~trace[:, (r > 0) & (2 * r % n == 0)].any(axis=1)[2 * x % n]     # r/n + r/n = 0
    return np.array([i, ii, iii, iv])


def char_polar_intervals(ks: Iterable[int]) -> RationalIntervalUnion:
    """{x in T : k*x in T_+ for all k}, as exact intervals in (-1/2, 1/2].

    This is the polar (inside T) of a finite set of integer characters;
    e.g. {1,3,4} gives {+-1/4} union T_4 and {1,4,8} gives
    T_8 union +-(15/64 + T_16).
    """
    return polar_sweep({abs(int(k)) for k in ks} - {0}, -HALF, HALF)
