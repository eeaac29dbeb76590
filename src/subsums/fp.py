"""Thresholded subset sums over a prime field, and the exhaustive
verifier for the prime-field size floor.

Admissible subsets contain no residue together with its additive
inverse (which also rules out zero), so they have at most (p - 1) / 2
elements. Verification enumerates every admissible subset by choosing,
for each inverse pair {x, p - x}, either nothing, x, or p - x. It fills
the campaign aggregate of `verifier` and reports through its finisher,
keying minima as a set sweep does, where sets run as r = 1 sequences
marked r = None: the cells carry k and alpha, no r.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterable

from .bounds import T1_3, bound_fp
from .verifier import (
    BudgetExceeded,
    CampaignReport,
    finish_report,
    new_aggregate,
    note_minimum,
)

# Largest prime verified: p = 23 enumerates 3^11 - 1 subsets in about
# half a minute, while p = 29 needs 3^14 - 1, roughly an hour.
PRIME_GUARD = 23


def is_prime(n: int) -> bool:
    """Trial-division primality check; ample for the guarded range."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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


def _sums_by_size_mod(elements: tuple[int, ...], p: int) -> list[set[int]]:
    out: list[set[int]] = [set() for _ in range(len(elements) + 1)]
    for size in range(len(elements) + 1):
        for combo in itertools.combinations(elements, size):
            out[size].add(sum(combo) % p)
    return out


def sigma_fp(a: FpSubset, alpha: int) -> tuple[int, ...]:
    """Residues reachable as subset sums with at least alpha members."""
    if not 0 <= alpha <= a.size:
        raise ValueError(f"alpha={alpha} out of range [0, {a.size}]")
    by_size = _sums_by_size_mod(a.elements, a.p)
    sums: set[int] = set()
    for size in range(alpha, a.size + 1):
        sums |= by_size[size]
    return tuple(sorted(sums))


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


def verify_balandraud(p: int) -> CampaignReport:
    """Check the prime-field floor on every admissible subset of residues
    mod p and every alpha. Admissible subsets pick at most one residue
    from each inverse pair {x, p - x}, so there are 3^((p-1)/2) - 1 of
    them; p above PRIME_GUARD is refused up front."""
    check_prime(p)
    started = time.perf_counter()
    half = (p - 1) // 2
    pairs = [(x, p - x) for x in range(1, half + 1)]
    instances = 0
    checks = 0
    violations = 0
    agg = new_aggregate()
    tight = agg["tight"]
    minima = agg["minima"]
    for choice in itertools.product((0, 1, 2), repeat=half):
        picked = [pair[c - 1] for pair, c in zip(pairs, choice) if c]
        if not picked:
            continue
        elements = tuple(sorted(picked))
        size = len(elements)
        assert size <= half
        instances += 1
        subset = FpSubset(p, elements)
        assert subset.self_disjoint
        by_size = _sums_by_size_mod(elements, p)
        reachable: set[int] = set()
        literal = subset.literal()
        for alpha in range(size, -1, -1):
            reachable |= by_size[alpha]
            got = len(reachable)
            floor = bound_fp(size, alpha, p).value
            checks += 1
            if got < floor:
                violations += 1
            elif got == floor:
                tight[T1_3] += 1
            note_minimum(minima, (size, None, alpha), got, literal)
    agg.update(instances=instances, checks=checks, violations=violations)
    return finish_report({"kind": "fp", "p": p}, agg, started)
