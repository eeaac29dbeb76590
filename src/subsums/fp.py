"""Thresholded subset sums over a prime field, and the exhaustive
verifier for the prime-field size floor.

Sums mod p live in suffix unions: union c is a p-bit int whose bit s
is set iff s is a sum of c or more members, and adding a residue x ors
each union, rotated by x, into the next (`_insert_suffix`); `sigma_fp`
reads one union. Admissible subsets contain no residue together with
its additive inverse (which also rules out zero), so they have at most
(p - 1) / 2 elements. Negation maps them onto admissible subsets with
the same |Σ_alpha| for every alpha, and none is its own mirror, so
verification walks only the canonical half: depth first over the
inverse pairs {x, p - x}, the first chosen pair picking x and every
later one nothing, x or p - x. A subset is its digit tuple, one digit
per pair (0 none, 1 x, 2 p - x), and the walk visits the digit tuples
in ascending order, as a sweep visits its element tuples. The walk
keeps a subset's suffix unions as lanes of one int (`_lanes`), its
parent's plus one insertion: a fixed number of big-int operations
whatever the depth. Its sizes per alpha, the lanes' bit counts, are
read all at once through a byte popcount table. Each visit goes to the
sweep's profile keeper, `verifier.Profiles`, keyed by its sizes and
weighted 2, since a canonical subset stands for its mirror too; the
keeper also keeps each sizes' first `WITNESS_CAP` digit tuples. After
the walk each sizes is re-keyed once to the profile (None, size,
sizes), and `Profiles.aggregate` gives the weights and the minima cells
in tuple order, as for a sweep. They are keyed as in a set sweep, where
sets run as r = 1 sequences marked r = None: the cells carry k and
alpha, no r. `verifier.finish_report` compares each profile once with
its size's floors and completes the witnesses, as it does a sweep's:
fp's mirror swaps digits 1 and 2, and a witness is named by its sorted
residues.
`oracle.residue_sums_by_size` is the enumeration these unions are
checked against. Both refusals go through `model.refuse_above` before
any work: a prime by its count of admissible subsets against the
campaigns' instance budget, `DEFAULT_BUDGET` (`check_prime`), and
`sigma_fp` by its unions' bits against `LAYER_BITS_BUDGET`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .bounds import T1_3, bound_fp, is_prime
from .model import (DEFAULT_BUDGET, LAYER_BITS_BUDGET, SumSet, check_alpha,
                    literal, refuse_above)
from .verifier import CampaignReport, Profiles, finish_report

# Popcount of each byte value: a bytes translate through it counts the
# set bits of every byte of an int at once
_POP = bytes(b.bit_count() for b in range(256))


@dataclass(frozen=True)
class FpSubset:
    """Nonempty set of distinct residues mod a prime p."""

    p: int
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if not self.elements:
            raise ValueError("residue set must be nonempty")
        if any(not 0 <= x < self.p for x in self.elements):
            raise ValueError("residues must lie in [0, p)")
        if any(b <= a for a, b in zip(self.elements, self.elements[1:])):
            raise ValueError("residues must be strictly increasing")

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def self_disjoint(self) -> bool:
        """True when no element's additive inverse is also present."""
        elems = set(self.elements)
        return not any((self.p - x) % self.p in elems for x in elems)

    def literal(self) -> str:
        return literal(self.elements)


def _insert_suffix(suffix: list[int], x: int, p: int) -> list[int]:
    """Suffix unions after adding residue x: union c gains union c - 1
    rotated by x, the new top union is the old top rotated, and union 0
    gains the new union 1."""
    mask = (1 << p) - 1
    back = p - x
    out = suffix + [0]
    for c, v in enumerate(suffix, 1):
        out[c] |= (v << x | v >> back) & mask
    out[0] |= out[1]
    return out


def sigma_fp(a: FpSubset, alpha: int) -> tuple[int, ...]:
    """Residues reachable as subset sums with at least alpha members.
    This is suffix union alpha after inserting every member. Raises
    BudgetExceeded before any union is built when the (k + 1) unions of
    p bits would exceed LAYER_BITS_BUDGET: p = 10^8 with four residues
    (5 * 10^8 bits) takes about 0.1 s, and one union near p = 10^9 is
    125 MB."""
    check_alpha(alpha, a.size)
    bits = (a.size + 1) * a.p
    refuse_above(bits, LAYER_BITS_BUDGET, f"sigma_fp needs {a.size + 1} "
                 f"count layers of p={a.p} bits, {bits} bits")
    suffix = [1]
    for x in a.elements:
        suffix = _insert_suffix(suffix, x, a.p)
    return SumSet.from_bitmap(suffix[alpha], 0).sums


def check_prime(p: int) -> None:
    """Refuse p before any work: ValueError unless p is prime, and
    BudgetExceeded when its 3^((p - 1) / 2) - 1 admissible subsets exceed
    DEFAULT_BUDGET. That admits p <= 23: p = 23 walks the (3^11 - 1) / 2
    canonical subsets in 0.2 s, 0.3 to 0.5 s from the CLI (2 vCPU, Python
    3.11); p = 29 has 27 times as many and took 5.8 s from the CLI, and
    p = 31 would take three times that again."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    half = (p - 1) // 2
    # a count past 3^64, far above the budget, is named as a power and not
    # built: near p = 10^9 building it takes minutes, and str() refuses it
    # past 4,300 digits
    need = 3 ** min(half, 64) - 1
    shown = need if half <= 64 else f"3^{half} - 1"
    refuse_above(need, DEFAULT_BUDGET, f"p={p} needs {shown} admissible subsets")


def _lanes(p: int) -> tuple[Callable[[int, int], int],
                            Callable[[int, int], bytes]]:
    """(insert, sizes) on suffix unions mod p packed as lanes of one int.

    Lane c, bits c*F to c*F + p - 1 with F = 8 * ceil(p / 8), holds union
    c; its F - p top bits stay clear. insert(v, z) is `_insert_suffix` of
    residue z, for up to (p - 1) / 2 insertions: every union, rotated by
    z, is or-ed into the next lane by two masked shifts of the whole int,
    then lane 1 into lane 0. sizes(v, n) is the bit count of each of the
    first n lanes, as bytes: every byte of v becomes its popcount, and one
    multiply adds the B = F / 8 counts of each lane into its top byte.
    """
    # a lane's count, at most p, is read from one byte; any F consecutive
    # bits of v hold at most p set bits, so no byte of the sum carries
    assert p <= 255, f"lane counts are single bytes, so p <= 255, got {p}"
    width = -(-p // 8)
    lane = 8 * width
    low = (1 << lane) - 1
    rep = sum(1 << c * lane for c in range((p - 1) // 2))
    # per residue z, masks over every lane and their shifts: the low p - z
    # bits of a union move up a lane and z bits, and its top z bits, which
    # wrap past p, move up a lane less p - z bits
    steps = [(((1 << p - z) - 1) * rep, lane + z,
              ((1 << z) - 1 << p - z) * rep, lane - p + z) for z in range(p)]
    spread = sum(1 << 8 * j for j in range(width))
    top = width - 1

    def insert(v: int, z: int) -> int:
        stay, up, wrap, down = steps[z]
        w = v | (v & stay) << up | (v & wrap) << down
        return w | w >> lane & low

    def sizes(v: int, n: int) -> bytes:
        nbytes = n * width
        counts = int.from_bytes(v.to_bytes(nbytes, "little").translate(_POP),
                                "little") * spread
        return counts.to_bytes(nbytes + top, "little")[top::width]

    return insert, sizes


def _walk(p: int, add: Callable[[bytes, int, list[int]], None]) -> None:
    """Call add(sizes, 2, digits) on every canonical admissible subset mod
    p, in itertools.product((0, 1, 2), repeat=(p - 1) // 2) order: the
    signature of `Profiles.add`, each subset weighted 2 for its mirror.

    A subset picks from each inverse pair {x, p - x}, x = 1 .. (p - 1) / 2,
    nothing (digit 0), x (1) or p - x (2); negation swaps 1 and 2. It is
    canonical when its first chosen pair picks x, which holds for exactly
    one of each mirror pair, and no nonempty admissible subset is its own
    mirror. digits holds the subset's digit per pair, digits[x - 1] for
    pair x, and is reused between calls; as tuples, digit lists sort in
    the walk's order. The walk packs a subset's suffix unions as `_lanes`
    lays them out, lane c the union of the sums of c or more members, a
    child's its parent's plus one insertion; sizes is the bit count of
    each of its lanes, one more than its nonzero digits. A node comes
    before its children, and they add a later pair, the last first, so
    the visits follow the digit tuples.
    """
    half = (p - 1) // 2
    insert, sizes = _lanes(p)
    digits = [0] * half

    def descend(v: int, n: int, last: int) -> None:
        add(sizes(v, n), 2, digits)
        for x in range(half, last, -1):
            for digit, z in ((1, x), (2, p - x)):
                digits[x - 1] = digit
                descend(insert(v, z), n + 1, x)
            digits[x - 1] = 0

    for x in range(half, 0, -1):
        digits[x - 1] = 1
        descend(insert(1, x), 2, x)
        digits[x - 1] = 0


def verify_balandraud(p: int) -> CampaignReport:
    """Check the prime-field floor on every admissible subset of residues
    mod p and every alpha. Admissible subsets pick at most one residue
    from each inverse pair {x, p - x}, so there are 3^((p-1)/2) - 1 of
    them, and p is refused up front when they exceed DEFAULT_BUDGET
    (`check_prime`).

    Negation keeps a subset admissible and every |Σ_alpha|, so the walk
    visits the canonical half and counts each visit twice. A visit adds
    two to the weight of its sizes, |Σ_alpha| per alpha, and
    `finish_report` compares the floors once per distinct sizes
    afterwards. Each distinct sizes also keeps its first WITNESS_CAP
    canonical subsets as digit tuples (`_walk`), whose tuple order is the
    walk's, so the minima cells are a sweep's (`verifier.minima_cells`),
    and `finish_report` completes them as a sweep's: with the mirrors,
    digits 1 and 2 swapped, and each witness named by its sorted
    residues."""
    check_prime(p)
    started = time.perf_counter()
    half = (p - 1) // 2
    # the floor depends only on (size, alpha), so each cell is read once
    floors = [()] + [
        tuple(bound_fp(size, alpha, p).value for alpha in range(size + 1))
        for size in range(1, half + 1)
    ]
    # keyed by sizes, one byte per alpha, while the walk runs; each
    # canonical subset stands for its mirror too
    profiles = Profiles()
    _walk(p, profiles.add)
    agg = Profiles({(None, len(sizes) - 1, sizes): entry
                    for sizes, entry in profiles.items()}).aggregate()
    # a size's floors are its only theorem's, T1_3, one per alpha; the
    # mirror swaps digits 1 and 2, and a witness is named by its residues
    return finish_report(
        {"kind": "fp", "p": p}, agg,
        lambda r, size: (size + 1, floors[size], [(T1_3, floors[size])]),
        started, lambda w: tuple((0, 2, 1)[d] for d in w),
        lambda w: literal(sorted(x if d == 1 else p - x
                                 for x, d in enumerate(w, 1) if d)))
