"""Reference computations by direct enumeration.

Everything here is intentionally naive: subsets are walked one by one
and sums collected into Python sets. These functions exist so the fast
bitmap engine has an independent implementation to be checked against,
and they refuse inputs large enough to make enumeration unreasonable.
"""

from __future__ import annotations

import itertools
from math import comb

from .model import (
    AT_LEAST,
    IntegerSet,
    RESTRICTED,
    RepSequence,
    SumSet,
    UNRESTRICTED,
    fold_multiplicity,
    size_window,
)

SUBSET_ENUM_MAX_K = 25
VECTOR_ENUM_MAX = 2 * 10**6


def _guard_subsets(k: int) -> None:
    if k > SUBSET_ENUM_MAX_K:
        raise ValueError(
            f"refusing to enumerate 2^{k} subsets; cap is k <= {SUBSET_ENUM_MAX_K}"
        )


def _guard_vectors(count: int) -> None:
    if count > VECTOR_ENUM_MAX:
        raise ValueError(
            f"refusing to enumerate {count} multiplicity vectors; "
            f"cap is {VECTOR_ENUM_MAX}"
        )


def subset_sums_by_size(a: IntegerSet) -> list[set[int]]:
    """Achievable sums grouped by subset size, sizes 0..k."""
    _guard_subsets(a.k)
    out: list[set[int]] = [set() for _ in range(a.k + 1)]
    for size in range(a.k + 1):
        for combo in itertools.combinations(a.elements, size):
            out[size].add(sum(combo))
    return out


def residue_sums_by_size(elements: tuple[int, ...], p: int) -> list[set[int]]:
    """Achievable sums mod p grouped by subset size, sizes 0..len; the
    cross-check for the prime-field count layers."""
    _guard_subsets(len(elements))
    out: list[set[int]] = [set() for _ in range(len(elements) + 1)]
    for size in range(len(elements) + 1):
        for combo in itertools.combinations(elements, size):
            out[size].add(sum(combo) % p)
    return out


def sequence_sums_by_size(s: RepSequence) -> list[set[int]]:
    """Achievable sums grouped by total copy count, counts 0..r*k."""
    k, r = s.base.k, s.r
    _guard_vectors((r + 1) ** k)
    out: list[set[int]] = [set() for _ in range(s.length + 1)]
    for vec in itertools.product(range(r + 1), repeat=k):
        out[sum(vec)].add(sum(m * x for m, x in zip(vec, s.base.elements)))
    return out


def oracle_sigma_set(a: IntegerSet, alpha: int, mode: str = AT_LEAST) -> SumSet:
    """Thresholded subset-sum set by direct enumeration."""
    window = size_window(alpha, a.k, mode)
    by_size = subset_sums_by_size(a)
    sums: set[int] = set()
    for size in window:
        sums |= by_size[size]
    return SumSet.from_iterable(sums)


def oracle_sigma_seq(s: RepSequence, alpha: int, mode: str = AT_LEAST) -> SumSet:
    """Thresholded subsequence-sum set by multiplicity-vector enumeration."""
    window = size_window(alpha, s.length, mode)
    by_size = sequence_sums_by_size(s)
    sums: set[int] = set()
    for size in window:
        sums |= by_size[size]
    return SumSet.from_iterable(sums)


def oracle_fold(
    a: IntegerSet, h: int, kind: str = RESTRICTED, r: int | None = None
) -> SumSet:
    """h-term repeated-sum set by enumeration.

    kind "unrestricted" allows any multiplicity, "restricted" allows each
    element at most once (h <= k), "generalized" allows each element at
    most r times (h <= r*k), checked by `model.fold_multiplicity` as in
    `engine.fold_fast`. h = 0 yields the zero singleton for every valid
    kind.
    """
    if h < 0:
        raise ValueError("h must be >= 0")
    fold_multiplicity(a.k, h, kind, r)
    if h == 0:
        return SumSet((0,))
    if kind == UNRESTRICTED:
        _guard_vectors(comb(a.k + h - 1, h))
        combos = itertools.combinations_with_replacement(a.elements, h)
        return SumSet.from_iterable(sum(c) for c in combos)
    if kind == RESTRICTED:
        _guard_subsets(a.k)
        combos = itertools.combinations(a.elements, h)
        return SumSet.from_iterable(sum(c) for c in combos)
    # "generalized", the one kind left
    cap = min(r, h)
    _guard_vectors((cap + 1) ** a.k)
    sums = set()
    for vec in itertools.product(range(cap + 1), repeat=a.k):
        if sum(vec) == h:
            sums.add(sum(m * x for m, x in zip(vec, a.elements)))
    return SumSet.from_iterable(sums)
