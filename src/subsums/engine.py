"""Exact sum-set computation via count-resolved bitmaps.

A set is the r = 1 case of a repeated sequence, so every query runs
through one DP over the sorted term list of a `RepSequence`; the
set-valued entry points wrap their argument at r = 1.

Representation: one arbitrary-precision integer per count layer. Bit
(s + offset) of layer c is set iff sum s is achievable by choosing
exactly c terms. `extend_layers` is the DP's one insertion, cut at the
top layer its caller reads: r copies of a term x go in as binary parts
1, 2, 4, ..., rest, each one top-down shift-or pass over layers 0..top,
so bit_length(r) passes per term, or as one bottom-up pass when
r >= top, where the multiplicity cap cannot bind. `sequence_layers`
folds it over the sorted base, r copies each, and no layer above top is
built. The verifier's sweep walk reads only at-least windows, so
it carries suffix unions (union c holds the sums of at least c terms)
and extends a parent's with `extend_suffixes`, the same insertion on
unions, at an offset that covers every instance of the walk.

`sequence_layers` runs on the base translated to least element 0, so a
cluster of values near t costs c*(max - min) bits in layer c, not c*t,
and places each layer back at the end; a negative outlier far below the
rest keeps the untranslated DP. Before the first insertion it bounds the
placed layers' bits in closed form and raises BudgetExceeded above
LAYER_BITS_BUDGET.

Thresholded queries union a window of layers; sizes are bit counts of
that union, and only the sum-valued queries decode it. A size reads the
at-most window in either mode, since complements pair the sums of at
least alpha terms with those of at most r*k - alpha (`sigma_size`), so
its DP stops at layer r*k - alpha. `witnesses` counts the suffix unions
of one full DP as they are formed: one DP serves every alpha of the
most recent family. The decode, `SumSet.from_bitmap`, costs what the
sums cost, not what their span does: C-level byte finds skip every
long zero stretch, and between them it takes one Python step per run
of consecutive sums, not one per sum, as sum sets are mostly long
intervals. A fold of any kind reads layer h. All public functions
return sums sorted ascending.
"""

from __future__ import annotations

from itertools import accumulate
from operator import or_

from .bounds import min_fold_size, min_sumset_size
from .model import (
    AT_LEAST,
    AT_MOST,
    IntegerSet,
    LAYER_BITS_BUDGET,
    RESTRICTED,
    RepSequence,
    SumSet,
    UNRESTRICTED,
    fold_multiplicity,
    refuse_above,
    size_window,
)


def extend_layers(
    layers: list[int], x: int, copies: int, top: int
) -> list[int]:
    """A new list of count layers, cut at `top`: layers 0..top of these
    plus `copies` copies of term x, and none above top is built. Every
    layer must be nonempty, and the offset must already cover any
    negative sum the new terms reach in layers 0..top.

    The copies go in as binary parts 1, 2, 4, ..., rest, each a
    top-down pass that adds w copies (w*x, w terms) at most once and
    stops at layer top; every count 0..copies is a sum of distinct
    parts, so bit_length(copies) passes give the layers of `copies`
    one-copy passes. When copies >= top the cap cannot bind, as no
    layer up to top holds more than top terms, so one ascending pass of
    w = 1, each layer feeding the next, takes x any number of times.
    copies only falls, so that holds at the first pass or never."""
    out = (layers + [0] * copies)[: top + 1]
    high, w = len(layers) - 1, 1
    while copies:
        if copies >= top:
            cs, copies = range(top), 0
        else:
            # conditional expressions, not min(): the CLI's DPs are short,
            # and min() calls here slow them by about 15 %
            w = copies if w > copies else w
            cs = range(high if high + w <= top else top - w, -1, -1)
            high += w
            copies -= w
        shift = w * x
        # the sign test sits outside the layer loop, which it would slow
        if shift >= 0:
            for c in cs:
                out[c + w] |= out[c] << shift
        else:
            for c in cs:
                out[c + w] |= out[c] >> -shift
        w += w
    return out


def extend_suffixes(suffix: list[int], x: int, copies: int) -> list[int]:
    """A new list of suffix unions (see `suffix_unions`): these plus
    `copies` copies of term x, under `extend_layers`' contract and
    binary-part schedule but uncut: all len(suffix) + copies unions.

    A part of w copies sends S_c to S_c | S_max(c-w, 0) << w*x: a sum
    with at least c terms either skips the part or takes it on top of a
    sum with at least c - w terms. Each pass runs top-down, so every
    source is still the old union; unions 0..w all take S_0."""
    out = suffix + [0] * copies
    top, w = len(suffix) - 1, 1
    while copies:
        if w > copies:
            w = copies
        shift = w * x
        if shift >= 0:
            for c in range(top + w, w, -1):
                out[c] |= out[c - w] << shift
            low = out[0] << shift
        else:
            for c in range(top + w, w, -1):
                out[c] |= out[c - w] >> -shift
            low = out[0] >> -shift
        for c in range(w + 1):
            out[c] |= low
        top += w
        copies -= w
        w += w
    return out


def check_layer_bits(top: int, offset: int, largest: int) -> None:
    """Raise BudgetExceeded when count layers 0..top at this offset, the
    largest term `largest`, may exceed LAYER_BITS_BUDGET bits: layer c is
    at most offset + 1 + c*max(largest, 0) bits wide."""
    bits = (top + 1) * (offset + 1) + max(largest, 0) * top * (top + 1) // 2
    refuse_above(bits, LAYER_BITS_BUDGET, f"count-layer DP needs up to "
                 f"{bits} layer bits in {top + 1} layers")


def sequence_layers(
    s: RepSequence, top: int | None = None
) -> tuple[list[int], int]:
    """Bitmaps of achievable sums per term count, layers 0..top (default
    r*k); returns (layers, offset), the offset minus the least sum of at
    most top terms. Each term goes in through `extend_layers`, r copies
    cut at top, so no layer above top is built; when r >= top that is
    one ascending pass.

    The DP runs on the base translated by t: term x enters as x - t, so
    layer c is c*t lower, and each layer is placed back at the end,
    shifted by c*t plus the offset. t is the least element m when that
    narrows the layers, so every term is >= 0 and needs no offset; a
    negative m far below the rest makes -m*top/2 reach the offset, and
    then t = 0, the untranslated DP at the offset. Placement drops only
    zero bits, as no sum of c terms lies below minus the offset.

    Raises BudgetExceeded (`check_layer_bits`) before the first
    insertion when the placed layers may exceed LAYER_BITS_BUDGET bits;
    the layers the DP works on are in all no wider than the placed
    ones."""
    r = s.r
    elements = s.base.elements
    top = s.length if top is None else top
    if not 0 <= top <= s.length:
        raise ValueError(f"top={top} out of range [0, {s.length}]")
    # the i-th least term, if negative, is taken min(r, top - r*i) times
    offset = -sum(
        x * min(r, max(top - r * i, 0))
        for i, x in enumerate(elements)
        if x < 0
    )
    check_layer_bits(top, offset, elements[-1])
    # against t = 0, t = m narrows layer c by offset + c*m bits; take it
    # when the total, (top + 1)*offset + m*top*(top + 1)/2, is positive
    m = elements[0]
    t = m if 2 * offset > -m * top else 0
    low = 0 if t else offset
    layers = [1 << low]
    for x in elements:
        layers = extend_layers(layers, x - t, r, top)
    if t:
        for c, layer in enumerate(layers):
            shift = c * t + offset
            layers[c] = layer << shift if shift >= 0 else layer >> -shift
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
    layers, offset = sequence_layers(s, window[-1])
    return union_layers(layers, window), offset


def sigma_seq(s: RepSequence, alpha: int, mode: str = AT_LEAST) -> SumSet:
    """Sums over subsequences whose term count lies in the window."""
    return SumSet.from_bitmap(*_window_bitmap(s, alpha, mode))


def sigma(a: IntegerSet, alpha: int, mode: str = AT_LEAST) -> SumSet:
    """Sums over subsets whose size lies in the (alpha, mode) window."""
    return sigma_seq(RepSequence(a, 1), alpha, mode)


def sigma_size(s: RepSequence, alpha: int, mode: str = AT_LEAST) -> int:
    """Number of sums over subsequences whose term count lies in the
    window; the bitmap is counted, not decoded.

    Both modes read the at-most window, so the DP stops at top = r*k -
    alpha. Taking the complement of a subsequence maps its sum x to
    r*sum(A) - x and its c terms to r*k - c, so it pairs the sums of at
    least alpha terms one to one with the sums of at most r*k - alpha
    terms: the two windows at one alpha have one size."""
    size_window(alpha, s.length, mode)
    return _window_bitmap(s, alpha, AT_MOST)[0].bit_count()


def add_sets(a: SumSet, b: SumSet) -> SumSet:
    """Exact pairwise-sum set {x + y : x in a, y in b}. Refused with
    BudgetExceeded before any bitmap is built when the result's span,
    one bit per integer from a.min + b.min to a.max + b.max, exceeds
    LAYER_BITS_BUDGET bits. The loop shifts one operand's bitmap once per
    sum of the other, so it runs over whichever has fewer sums."""
    bits = a.max_sum - a.min_sum + b.max_sum - b.min_sum + 1
    refuse_above(bits, LAYER_BITS_BUDGET,
                 f"pairwise sum set needs {bits} bits")
    if a.size > b.size:
        a, b = b, a
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
    out = fold_fast(a, h, UNRESTRICTED)
    assert out.size >= min_fold_size(h, a.k)
    return out


def fold_fast(
    a: IntegerSet, h: int, kind: str = RESTRICTED, r: int | None = None
) -> SumSet:
    """h-term repeated-sum set; `model.fold_multiplicity` checks the
    kind, h and r at every h and gives the multiplicity the DP runs at.

    kind "unrestricted" allows any multiplicity, "restricted" at most one
    use per element (h <= k), "generalized" at most r uses (h <= r*k).
    Each is layer h of the count-layer DP; unrestricted runs it at r = h,
    since h terms never use one element more than h times.
    """
    if h < 0:
        raise ValueError("h must be >= 0")
    r = fold_multiplicity(a.k, h, kind, r)
    if h == 0:
        return SumSet((0,))
    layers, offset = sequence_layers(RepSequence(a, r), h)
    return SumSet.from_bitmap(layers[h], offset)
