"""Exact sum-set computation via count-resolved bitmaps.

A set is the r = 1 case of a repeated sequence, so every query runs
through one DP over the sorted term list of a `RepSequence`; the
set-valued entry points wrap their argument at r = 1.

Representation: one arbitrary-precision integer per count layer. Bit
(s + offset) of layer c is set iff sum s is achievable by choosing
exactly c terms. `extend_layers` is the one insertion: each copy of a
term x is a shift-or per layer, top-down so each copy is used at most
once. `sequence_layers` folds it over the sorted base, r copies each,
with offset the negated sum of the negative terms, so no index goes
negative; the verifier's sweep walk extends a parent's layers instead,
at an offset that covers every instance of the walk.

Thresholded queries union a window of layers; sizes are bit counts of
that union, and only the sum-valued queries decode it. Folds read one
layer. All public functions return sums sorted ascending.
"""

from __future__ import annotations

from itertools import accumulate
from operator import or_

from .bounds import min_fold_size, min_sumset_size
from .model import (
    AT_LEAST,
    GENERALIZED,
    IntegerSet,
    RESTRICTED,
    RepSequence,
    SumSet,
    UNRESTRICTED,
    size_window,
)


def extend_layers(layers: list[int], x: int, copies: int) -> list[int]:
    """A new list of count layers: these plus `copies` copies of term x.
    Every layer must be nonempty, and the offset must already cover any
    negative sum the new terms reach."""
    out = layers + [0] * copies
    for top in range(len(layers) - 1, len(out) - 1):
        # the sign test sits outside the layer loop, which it would slow
        if x >= 0:
            for c in range(top, -1, -1):
                out[c + 1] |= out[c] << x
        else:
            for c in range(top, -1, -1):
                out[c + 1] |= out[c] >> -x
    return out


def sequence_layers(s: RepSequence) -> tuple[list[int], int]:
    """Bitmaps of achievable sums per term count; returns (layers, offset)."""
    offset = -s.r * sum(x for x in s.base.elements if x < 0)
    layers = [1 << offset]
    for x in s.base.elements:
        layers = extend_layers(layers, x, s.r)
    return layers, offset


def subset_layers(a: IntegerSet) -> tuple[list[int], int]:
    """Bitmaps of achievable sums per subset size; returns (layers, offset)."""
    return sequence_layers(RepSequence(a, 1))


def union_layers(layers: list[int], window: range) -> int:
    bitmap = 0
    for c in window:
        bitmap |= layers[c]
    return bitmap


def suffix_unions(layers: list[int]) -> list[int]:
    """suffix[c] is the union of layers[c:], the bitmap of the sums with
    at least c terms."""
    return list(accumulate(reversed(layers), or_))[::-1]


def _window_bitmap(s: RepSequence, alpha: int, mode: str) -> tuple[int, int]:
    window = size_window(alpha, s.length, mode)
    layers, offset = sequence_layers(s)
    return union_layers(layers, window), offset


def sigma_seq(s: RepSequence, alpha: int, mode: str = AT_LEAST) -> SumSet:
    """Sums over subsequences whose term count lies in the window."""
    return SumSet.from_bitmap(*_window_bitmap(s, alpha, mode))


def sigma(a: IntegerSet, alpha: int, mode: str = AT_LEAST) -> SumSet:
    """Sums over subsets whose size lies in the (alpha, mode) window."""
    return sigma_seq(RepSequence(a, 1), alpha, mode)


def sigma_size(s: RepSequence, alpha: int, mode: str = AT_LEAST) -> int:
    """Number of sums over subsequences whose term count lies in the
    window; the bitmap is counted, not decoded."""
    return _window_bitmap(s, alpha, mode)[0].bit_count()


def add_sets(a: SumSet, b: SumSet) -> SumSet:
    """Exact pairwise-sum set {x + y : x in a, y in b}."""
    bitmap_b, _ = b.to_bitmap()
    acc = 0
    base_a = a.min_sum
    for x in a.sums:
        acc |= bitmap_b << (x - base_a)
    out = SumSet.from_bitmap(acc, -(a.min_sum + b.min_sum))
    # the additive floor |a| + |b| - 1 holds for any nonempty integer sets
    assert out.size >= min_sumset_size(a.size, b.size)
    return out


def h_fold(a: IntegerSet, h: int) -> SumSet:
    """h-term repeated-sum set with unrestricted multiplicity, h >= 1."""
    if h < 1:
        raise ValueError("fold count h must be >= 1 (h = 0 is the zero singleton)")
    single = SumSet.from_iterable(a.elements)
    acc = single
    for _ in range(h - 1):
        acc = add_sets(acc, single)
    assert acc.size >= min_fold_size(h, a.k)
    return acc


def fold_fast(
    a: IntegerSet, h: int, kind: str = RESTRICTED, r: int | None = None
) -> SumSet:
    """h-term repeated-sum set; same contract as oracle_fold.

    kind "unrestricted" allows any multiplicity, "restricted" at most one
    use per element (h <= k), "generalized" at most r uses (h <= r*k).
    """
    if h < 0:
        raise ValueError("h must be >= 0")
    if h == 0:
        return SumSet((0,))
    if kind == UNRESTRICTED:
        return h_fold(a, h)
    if kind == RESTRICTED:
        if h > a.k:
            raise ValueError(f"restricted fold needs h <= k, got h={h}, k={a.k}")
        r = 1
    elif kind == GENERALIZED:
        if r is None or r < 1:
            raise ValueError("generalized fold needs multiplicity r >= 1")
        if h > r * a.k:
            raise ValueError(
                f"generalized fold needs h <= r*k, got h={h}, r*k={r * a.k}"
            )
    else:
        raise ValueError(f"unknown fold kind {kind!r}")
    layers, offset = sequence_layers(RepSequence(a, r))
    return SumSet.from_bitmap(layers[h], offset)
