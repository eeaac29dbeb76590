"""Thresholded subset sums over a prime field, and the exhaustive
verifier for the prime-field size floor.

Sums mod p live in count layers: layer c is a p-bit int whose bit s is
set iff s is a sum of exactly c members, and adding a residue x rotates
each layer by x into the next. Admissible subsets contain no residue
together with its additive inverse (which also rules out zero), so they
have at most (p - 1) / 2 elements. Verification walks them depth first,
choosing for each inverse pair {x, p - x} either nothing, x, or p - x,
so every subset's layers extend its parent's by one insertion; sizes
per alpha are bit counts of suffix unions. It fills the campaign
aggregate of `verifier` and reports through its finisher, keying minima
as a set sweep does, where sets run as r = 1 sequences marked r = None:
the cells carry k and alpha, no r. `oracle.residue_sums_by_size` is the
enumeration these layers are checked against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable

from .bounds import T1_3, bound_fp, is_prime
from .model import BudgetExceeded, LAYER_BITS_BUDGET, SumSet
from .verifier import (
    CampaignReport,
    finish_report,
    new_aggregate,
    note_minimum,
)

# Largest prime verified: p = 23 walks 3^11 - 1 subsets in about a
# second; p = 29 has 3^14 - 1, 27 times as many, so by extrapolation
# about half a minute, and p = 31 three times that again.
PRIME_GUARD = 23


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

    @classmethod
    def from_residues(cls, p: int, values: Iterable[int]) -> "FpSubset":
        """Reduce values mod p; rejects collisions after reduction."""
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        reduced = [v % p for v in values]
        if len(set(reduced)) != len(reduced):
            raise ValueError("values collide after reduction mod p")
        return cls(p, tuple(sorted(reduced)))

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def self_disjoint(self) -> bool:
        """True when no element's additive inverse is also present."""
        elems = set(self.elements)
        return not any((self.p - x) % self.p in elems for x in elems)

    def literal(self) -> str:
        return "{" + ",".join(str(x) for x in self.elements) + "}"


def _insert(layers: list[int], x: int, p: int) -> list[int]:
    """Count layers after adding residue x: layer c, rotated by x, joins
    layer c + 1."""
    mask = (1 << p) - 1
    back = p - x
    out = layers + [0]
    for c, v in enumerate(layers):
        out[c + 1] |= ((v << x) | (v >> back)) & mask
    return out


def sigma_fp(a: FpSubset, alpha: int) -> tuple[int, ...]:
    """Residues reachable as subset sums with at least alpha members.
    Raises BudgetExceeded before any layer is built when the (k + 1)
    layers of p bits would exceed LAYER_BITS_BUDGET: p = 10^8 with four
    residues (5 * 10^8 bits) takes about 0.1 s, and one layer near
    p = 10^9 is 125 MB."""
    if not 0 <= alpha <= a.size:
        raise ValueError(f"alpha={alpha} out of range [0, {a.size}]")
    bits = (a.size + 1) * a.p
    if bits > LAYER_BITS_BUDGET:
        raise BudgetExceeded(
            f"sigma_fp needs {a.size + 1} count layers of p={a.p} bits, "
            f"{bits} bits; budget is {LAYER_BITS_BUDGET}"
        )
    layers = [1]
    for x in a.elements:
        layers = _insert(layers, x, a.p)
    reach = 0
    for layer in layers[alpha:]:
        reach |= layer
    return SumSet.from_bitmap(reach, 0).sums


def check_prime(p: int) -> None:
    """Refuse p before any work: ValueError unless p is prime, and
    BudgetExceeded when p exceeds PRIME_GUARD."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > PRIME_GUARD:
        raise BudgetExceeded(
            f"p={p} needs {3 ** ((p - 1) // 2) - 1} admissible subsets; "
            f"enumeration guard is p <= {PRIME_GUARD}"
        )


def _walk(p: int, visit: Callable[[list[int], list[int], list[int]], None]
          ) -> None:
    """Call visit(layers, lows, highs) on every admissible subset mod p.

    The walk goes depth first over the inverse pairs {x, p - x} for
    x = 1 .. (p - 1) / 2, choosing nothing, x, then p - x, so subsets come in
    itertools.product((0, 1, 2), repeat=(p - 1) // 2) order, the empty one
    skipped. A child's layers are its parent's plus one insertion. lows
    holds the chosen x ascending and highs the chosen p - x descending;
    both are reused between calls.
    """
    half = (p - 1) // 2
    lows: list[int] = []
    highs: list[int] = []

    def descend(x: int, layers: list[int], picked: int, negated: int) -> None:
        if x > half:
            if len(layers) > 1:
                # picked and negated hold the members and their inverses
                assert len(layers) - 1 <= half and not picked & negated
                visit(layers, lows, highs)
            return
        descend(x + 1, layers, picked, negated)
        for y, chosen in ((x, lows), (p - x, highs)):
            chosen.append(y)
            descend(x + 1, _insert(layers, y, p),
                    picked | 1 << y, negated | 1 << p - y)
            chosen.pop()

    descend(1, [1], 0, 0)


def verify_balandraud(p: int) -> CampaignReport:
    """Check the prime-field floor on every admissible subset of residues
    mod p and every alpha. Admissible subsets pick at most one residue
    from each inverse pair {x, p - x}, so there are 3^((p-1)/2) - 1 of
    them; p above PRIME_GUARD is refused up front."""
    check_prime(p)
    started = time.perf_counter()
    half = (p - 1) // 2
    # the floor depends only on (size, alpha), so each cell is read once
    floors = [()] + [
        tuple(bound_fp(size, alpha, p).value for alpha in range(size + 1))
        for size in range(1, half + 1)
    ]
    # a literal is built only when note_minimum would keep it: below the
    # admit threshold it last returned for the cell
    admit = [[p + 1] * (size + 1) for size in range(half + 1)]
    agg = new_aggregate()
    minima = agg["minima"]
    instances = checks = violations = tight = 0

    def visit(layers: list[int], lows: list[int], highs: list[int]) -> None:
        nonlocal instances, checks, violations, tight
        size = len(layers) - 1
        instances += 1
        checks += size + 1
        cell_floors = floors[size]
        cell_admit = admit[size]
        literal = None
        reach = 0
        for alpha in range(size, -1, -1):
            reach |= layers[alpha]
            got = reach.bit_count()
            floor = cell_floors[alpha]
            if got < floor:
                violations += 1
            elif got == floor:
                tight += 1
            if got < cell_admit[alpha]:
                literal = literal or "{" + ",".join(map(str, lows + highs[::-1])) + "}"
                cell_admit[alpha] = note_minimum(minima, (size, None, alpha), got,
                                                 literal)

    _walk(p, visit)
    if tight:
        agg["tight"][T1_3] = tight
    agg.update(instances=instances, checks=checks, violations=violations)
    return finish_report({"kind": "fp", "p": p}, agg, started)
