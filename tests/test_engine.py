"""Engine tests: the bitmap paths must agree with enumeration exactly,
and the algebraic identities must hold on exhaustive small universes.
"""

import itertools
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subsums.bounds import min_fold_size
from subsums import engine
from subsums.engine import (
    add_sets,
    extend_layers,
    extend_suffixes,
    fold_fast,
    h_fold,
    sequence_layers,
    sigma,
    sigma_seq,
    sigma_size,
    subset_layers,
    suffix_unions,
)
from subsums.model import (
    AT_LEAST,
    AT_MOST,
    BudgetExceeded,
    IntegerSet,
    LAYER_BITS_BUDGET,
    RepSequence,
    SumSet,
    as_sequence,
)
from subsums.oracle import (
    oracle_fold,
    oracle_sigma_seq,
    oracle_sigma_set,
    sequence_sums_by_size,
)


def iset(*elems):
    return IntegerSet(tuple(sorted(elems)))


def all_subsets(max_abs, k_lo, k_hi):
    for k in range(k_lo, k_hi + 1):
        yield from itertools.combinations(range(-max_abs, max_abs + 1), k)


def test_add_sets_frozen():
    assert add_sets(SumSet((0, 1)), SumSet((0, 2))).sums == (0, 1, 2, 3)
    assert add_sets(SumSet((0,)), SumSet((-1, 5))).sums == (-1, 5)
    assert add_sets(SumSet((1, 3)), SumSet((1, 3))).sums == (2, 4, 6)
    assert add_sets(SumSet((-2, 0)), SumSet((1, 2))).sums == (-1, 0, 1, 2)


def test_h_fold_frozen():
    a = iset(0, 1, 3)
    assert h_fold(a, 1).sums == (0, 1, 3)
    assert h_fold(a, 2).sums == (0, 1, 2, 3, 4, 6)
    assert h_fold(iset(1, 2), 3).sums == (3, 4, 5, 6)
    with pytest.raises(ValueError):
        h_fold(a, 0)


def test_sigma_frozen():
    a = iset(-2, -1, 1, 2)
    assert sigma(a, 3).sums == (-2, -1, 0, 1, 2)
    assert sigma(a, 1).sums == (-3, -2, -1, 0, 1, 2, 3)
    assert sigma(a, 4).sums == (0,)
    assert sigma(iset(5), 0).sums == (0, 5)
    assert sigma(iset(1, 2, 3, 4), 2).sums == tuple(range(3, 11))


def test_sigma_seq_frozen():
    assert sigma_seq(RepSequence(iset(1, 2), 2), 1).sums == (1, 2, 3, 4, 5, 6)
    assert sigma_seq(RepSequence(iset(1, 2), 2), 4).sums == (6,)
    assert sigma_seq(RepSequence(iset(-1, 1), 2), 3).sums == (-1, 0, 1)
    assert sigma_seq(RepSequence(iset(-1, 0, 1), 2), 3).sums == (-2, -1, 0, 1, 2)


def test_sigma_validates_alpha_and_mode():
    a = iset(1, 2)
    with pytest.raises(ValueError):
        sigma(a, 3)
    with pytest.raises(ValueError):
        sigma(a, -1)
    with pytest.raises(ValueError):
        sigma(a, 1, "sideways")
    with pytest.raises(ValueError):
        sigma_seq(RepSequence(a, 2), 5)


def test_layers_partition_subsets():
    a = iset(-2, 1, 3)
    layers, offset = subset_layers(a)
    assert SumSet.from_bitmap(layers[0], offset).sums == (0,)
    assert SumSet.from_bitmap(layers[1], offset).sums == (-2, 1, 3)
    assert SumSet.from_bitmap(layers[2], offset).sums == (-1, 1, 4)
    assert SumSet.from_bitmap(layers[3], offset).sums == (2,)
    seq_layers, seq_offset = sequence_layers(RepSequence(iset(-1, 2), 2))
    assert SumSet.from_bitmap(seq_layers[2], seq_offset).sums == (-2, 1, 4)


def test_engine_matches_oracle_exhaustive_small():
    # every subset of [-4, 4] with k <= 4, every alpha, both modes
    checked = 0
    for elems in all_subsets(4, 1, 4):
        a = IntegerSet(elems)
        for alpha in range(a.k + 1):
            for mode in (AT_LEAST, AT_MOST):
                assert sigma(a, alpha, mode) == oracle_sigma_set(a, alpha, mode)
                checked += 1
    assert checked > 500


def test_engine_matches_oracle_strided_larger_k():
    # deterministic stride through k in 5..10 over [-8, 8]
    for k, stride in ((5, 61), (6, 97), (7, 151), (8, 211), (9, 251), (10, 307)):
        combos = itertools.islice(
            itertools.combinations(range(-8, 9), k), 0, None, stride
        )
        for elems in combos:
            a = IntegerSet(elems)
            for alpha in (0, 1, k // 2, k):
                assert sigma(a, alpha) == oracle_sigma_set(a, alpha)
                assert sigma(a, alpha, AT_MOST) == oracle_sigma_set(a, alpha, AT_MOST)


def test_engine_seq_matches_oracle_exhaustive_small():
    # full invariant range: every base subset of [-4, 4] with k <= 5,
    # every multiplicity r <= 3, every alpha
    checked = 0
    for elems in all_subsets(4, 1, 5):
        base = IntegerSet(elems)
        for r in (1, 2, 3):
            s = RepSequence(base, r)
            by_size = sequence_sums_by_size(s)
            acc: set[int] = set()
            for alpha in range(s.length, -1, -1):
                acc = acc | by_size[alpha]
                got = sigma_seq(s, alpha)
                assert set(got.sums) == acc, (elems, r, alpha)
                checked += 1
                if checked % 293 == 0:
                    assert got == oracle_sigma_seq(s, alpha)
    assert checked == 9945


def test_fold_fast_matches_oracle():
    for elems in all_subsets(3, 1, 3):
        a = IntegerSet(elems)
        for h in range(a.k + 1):
            assert fold_fast(a, h) == oracle_fold(a, h)
        for h in range(4):
            assert fold_fast(a, h, "unrestricted") == oracle_fold(a, h, "unrestricted")
        for r in (1, 2):
            for h in range(r * a.k + 1):
                assert fold_fast(a, h, "generalized", r) == oracle_fold(
                    a, h, "generalized", r
                )


def test_fold_fast_validates():
    a = iset(1, 2)
    with pytest.raises(ValueError):
        fold_fast(a, 3, "restricted")
    with pytest.raises(ValueError):
        fold_fast(a, 5, "generalized", 2)
    with pytest.raises(ValueError):
        fold_fast(a, 1, "generalized")
    with pytest.raises(ValueError):
        fold_fast(a, -1)
    with pytest.raises(ValueError):
        fold_fast(a, 1, "sideways")
    # the kind and r are checked at h = 0 too
    for kind, r in [("sideways", None), ("generalized", None),
                    ("generalized", 0)]:
        with pytest.raises(ValueError):
            fold_fast(a, 0, kind, r)
    for kind, r in [("unrestricted", None), ("restricted", None),
                    ("generalized", 1)]:
        assert fold_fast(a, 0, kind, r).sums == (0,)


def test_duality_reflection_exhaustive():
    for elems in all_subsets(3, 1, 4):
        a = IntegerSet(elems)
        for alpha in range(a.k + 1):
            low = sigma(a, alpha, AT_LEAST)
            high = sigma(a, alpha, AT_MOST)
            assert high == low.reflect(a.total)
            assert high.size == low.size


def test_nesting_exhaustive():
    for elems in all_subsets(3, 1, 4):
        a = IntegerSet(elems)
        prev = set(sigma(a, 0).sums)
        for alpha in range(1, a.k + 1):
            cur = set(sigma(a, alpha).sums)
            assert cur <= prev
            prev = cur


@given(
    st.sets(st.integers(-20, 20), min_size=1, max_size=6),
    st.integers(-4, 4).filter(lambda x: x != 0),
)
def test_dilation_equivariance(values, factor):
    a = IntegerSet.from_iterable(values)
    for alpha in (0, a.k // 2, a.k):
        scaled = sigma(a.dilate(factor), alpha)
        expect = sorted(factor * s for s in sigma(a, alpha).sums)
        assert list(scaled.sums) == expect


def test_sequence_r1_equals_set_semantics():
    for elems in all_subsets(3, 1, 4):
        a = IntegerSet(elems)
        s = RepSequence(a, 1)
        for alpha in range(a.k + 1):
            assert sigma_seq(s, alpha) == sigma(a, alpha)


@given(
    st.one_of(
        st.sets(st.integers(-6, 6), min_size=1, max_size=4),
        # the translated base
        st.builds(lambda steps: {10**6 - d for d in steps},
                  st.sets(st.integers(0, 30), min_size=1, max_size=3)),
    ),
    st.integers(1, 4),
)
@example({7}, 3)  # k = 1
@example({-5, -2, -1}, 2)  # all negative
@example({-1, 0, 3}, 4)  # contains zero
@example({-4, 0}, 1)
@example({0}, 2)
@example({10**6 - 30, 10**6 - 3, 10**6}, 4)
@settings(deadline=None)  # decoding sums near 4*10^6
def test_sigma_size_matches_oracle(values, r):
    # both modes read the at-most window: complements pair the sums of at
    # least alpha terms with those of at most r*k - alpha, so the two
    # windows at one alpha have one size
    a = IntegerSet.from_iterable(values)
    s = RepSequence(a, r)
    for alpha in range(s.length + 1):
        size = sigma_size(s, alpha, AT_LEAST)
        assert sigma_size(s, alpha, AT_MOST) == size
        for mode in (AT_LEAST, AT_MOST):
            assert size == oracle_sigma_seq(s, alpha, mode).size
            # the window decoded from its own DP height
            assert size == sigma_seq(s, alpha, mode).size
            if r == 1:
                assert size == oracle_sigma_set(a, alpha, mode).size


def test_sigma_size_runs_the_dp_to_the_at_most_top(monkeypatch):
    tops = []
    real = engine.sequence_layers

    def spy(s, top=None):
        tops.append(top)
        return real(s, top)

    monkeypatch.setattr(engine, "sequence_layers", spy)
    s = RepSequence(iset(-3, 0, 2, 7), 3)
    for mode in (AT_LEAST, AT_MOST):
        for alpha in range(s.length + 1):
            tops.clear()
            sigma_size(s, alpha, mode)
            assert tops == [s.length - alpha]
    # the window is still validated in either mode, before any DP
    tops.clear()
    for alpha, mode in ((-1, AT_LEAST), (s.length + 1, AT_MOST)):
        with pytest.raises(ValueError, match="out of range"):
            sigma_size(s, alpha, mode)
    with pytest.raises(ValueError, match="unknown mode"):
        sigma_size(s, 0, "exactly")
    assert tops == []


def test_suffix_unions_are_at_least_windows():
    s = RepSequence(iset(-2, 0, 3), 2)
    layers, _ = sequence_layers(s)
    suffix = suffix_unions(layers)
    assert len(suffix) == len(layers)
    for c in range(len(layers)):
        window = 0
        for layer in layers[c:]:
            window |= layer
        assert suffix[c] == window


@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=5, unique=True),
    st.integers(1, 3),
    st.integers(0, 40),
)
def test_extend_layers_at_a_wider_offset(values, r, pad):
    # a walk extends a parent's layers at an offset wider than the
    # sequence's own: the layers are the same, shifted by the extra pad
    s = RepSequence(IntegerSet(tuple(sorted(values))), r)
    layers, offset = sequence_layers(s)
    parent = [1 << (offset + pad)]
    for x in s.base.elements:
        before = list(parent)
        child = extend_layers(parent, x, r, len(parent) - 1 + r)
        assert parent == before  # the parent's list is left as it was
        parent = child
    assert parent == [layer << pad for layer in layers]


@given(
    st.lists(st.integers(-6, 6), min_size=1, max_size=5, unique=True),
    st.integers(1, 4),
)
@example([-6, -5, -4, -3, -2], 4)  # all negative
@example([-1, 0, 6], 1)
@example([3], 2)  # k = 1
def test_capped_layers_are_the_uncapped_ones(values, r):
    # top <= r takes the ascending pass, top > r the descending one
    s = RepSequence(IntegerSet(tuple(sorted(values))), r)
    full, full_offset = sequence_layers(s)
    for top in range(s.length + 1):
        layers, offset = sequence_layers(s, top)
        assert len(layers) == top + 1
        assert [layer << (full_offset - offset) for layer in layers] == full[
            : top + 1
        ]
        # the offset is the least kept sum's, so some kept layer has bit 0
        assert any(layer & 1 for layer in layers)


def test_sequence_layers_refuses_top_out_of_range():
    s = RepSequence(iset(-1, 2), 2)
    for top in (-1, 5):
        with pytest.raises(ValueError):
            sequence_layers(s, top)


@given(
    st.sets(st.integers(-6, 6), min_size=2, max_size=4).filter(
        lambda v: min(v) < 0
    ),
    st.integers(1, 6),
)
@example({-6, -5}, 6)
@example({-2, 0, 5}, 4)
def test_unrestricted_fold_matches_oracle_and_descending_dp(values, h):
    # the uncapped DP at r = h, k >= 2 inserts each copy with a
    # descending pass, independent of the ascending one the fold runs
    a = IntegerSet.from_iterable(values)
    got = fold_fast(a, h, "unrestricted")
    assert got == oracle_fold(a, h, "unrestricted")
    layers, offset = sequence_layers(RepSequence(a, h))
    assert got == SumSet.from_bitmap(layers[h], offset)


def test_unrestricted_fold_k40_h20_within_5s():
    rng = random.Random(20)
    a = IntegerSet.from_iterable(rng.sample(range(-(10**4), 10**4 + 1), 40))
    started = time.perf_counter()
    out = fold_fast(a, 20, "unrestricted")
    assert time.perf_counter() - started < 5.0
    assert (out.min_sum, out.max_sum) == (20 * a.elements[0], 20 * a.elements[-1])
    assert out.size >= min_fold_size(20, a.k)
    assert h_fold(a, 20) == out


def linear_extend(layers, x, copies):
    # reference: one copy per top-down pass
    out = layers + [0] * copies
    for top in range(len(layers) - 1, len(out) - 1):
        for c in range(top, -1, -1):
            out[c + 1] |= out[c] << x if x >= 0 else out[c] >> -x
    return out


@given(
    st.lists(st.integers(-6, 6), max_size=3, unique=True),
    st.integers(-9, 9),
    st.integers(0, 70),
)
@example([-1, 2], -9, 12)  # parts 1, 2, 4, 5
@example([0, 3], 7, 70)  # parts 1, 2, 4, 8, 16, 32, 7
@example([], 0, 64)
@example([-2, 0, 5], 7, 3)  # copies below, equal to and above top
@example([], -4, 0)  # no copies
def test_extend_layers_binary_parts_match_one_copy_passes(values, x, copies):
    # cut at every top from 0 past the uncut length, so parents shorter
    # and longer than top + 1 and copies below, equal to and above top,
    # the insertion keeps layers 0..top of the uncut one-copy passes
    offset = 6 * len(values) + 9 * copies
    parent = [1 << offset]
    for v in values:
        parent = linear_extend(parent, v, 1)
    before = list(parent)
    uncut = linear_extend(parent, x, copies)
    for top in range(len(uncut) + 2):
        assert extend_layers(parent, x, copies, top) == uncut[: top + 1]
    assert parent == before


@given(
    st.lists(st.integers(-6, 6), max_size=3, unique=True),
    st.integers(1, 3),
    st.integers(-9, 9),
    st.integers(1, 12),
    st.integers(0, 40),
)
@example([-1, 2], 1, -9, 12, 0)  # parts 1, 2, 4, 5, x < 0
@example([0, 3], 2, 7, 7, 5)  # parts 1, 2, 4
@example([4], 3, 0, 3, 0)  # x = 0: every union keeps its sums
@example([], 1, 5, 1, 0)  # from the root alone
def test_extend_suffixes_is_suffix_unions_of_extend_layers(values, r, x,
                                                           copies, pad):
    # the walk's insertion on suffix unions equals the count-layer
    # insertion followed by suffix_unions, at any offset wide enough
    offset = 6 * r * len(values) + 9 * copies + pad
    layers = [1 << offset]
    for v in values:
        layers = extend_layers(layers, v, r, len(layers) - 1 + r)
    suffix = suffix_unions(layers)
    before = list(suffix)
    assert extend_suffixes(suffix, x, copies) == suffix_unions(
        extend_layers(layers, x, copies, len(layers) - 1 + copies))
    assert suffix == before  # the parent's list is left as it was


@given(st.data())
def test_extend_layers_matches_enumeration(data):
    values = data.draw(st.sets(st.integers(-6, 6), min_size=1, max_size=4))
    # enumeration visits (r + 1)^k multiplicity vectors
    most = max(c for c in range(71) if (c + 1) ** len(values) <= 10**4)
    r = data.draw(st.integers(1, most))
    s = RepSequence(IntegerSet.from_iterable(values), r)
    offset = 6 * s.length
    layers = [1 << offset]
    for x in s.base.elements:
        layers = extend_layers(layers, x, s.r, len(layers) - 1 + s.r)
    assert [SumSet.from_bitmap(layer, offset).sums for layer in layers] == [
        tuple(sorted(sums)) for sums in sequence_sums_by_size(s)
    ]


def test_sequence_layers_k16_r64_within_half_a_second():
    # one copy per pass takes about 1 s on 2 vCPUs, binary parts 0.1 s
    rng = random.Random(16)
    a = IntegerSet.from_iterable(rng.sample(range(-100, 101), 16))
    s = RepSequence(a, 64)
    started = time.perf_counter()
    layers, offset = sequence_layers(s)
    assert time.perf_counter() - started < 0.5
    assert len(layers) == s.length + 1
    assert layers[0] == 1 << offset
    assert layers[-1] == 1 << (offset + 64 * sum(a.elements))
    assert SumSet.from_bitmap(layers[1], offset).sums == a.elements


def untranslated_layers(s, top):
    # reference: the DP on the base as given, every layer at one offset,
    # one copy per pass; layers above top may drop bits below the offset,
    # so they are cut after each term
    r = s.r
    offset = -sum(
        x * min(r, max(top - r * i, 0))
        for i, x in enumerate(s.base.elements)
        if x < 0
    )
    layers = [1 << offset]
    for x in s.base.elements:
        layers = linear_extend(layers, x, r)[: top + 1]
    return layers, offset


near_extremes = st.builds(
    lambda low, steps: sorted({low + d for d in steps}),
    st.sampled_from([-(10**6), 10**6 - 30]),
    st.lists(st.integers(0, 30), min_size=1, max_size=3),
)


@given(
    st.one_of(
        st.lists(st.integers(-6, 6), min_size=1, max_size=5, unique=True),
        near_extremes,
    ),
    st.integers(1, 5),
)
@example([-6, -4, -1], 3)  # all negative
@example([1, 2, 6], 3)  # all positive
@example([-2, 0, 5], 2)  # mixed, zero in the base
@example([-(10**6), 0, 1, 2], 1)  # far negative: the untranslated DP
@example([4], 5)  # singleton
@example([-(10**6), -(10**6) + 7, -(10**6) + 30], 5)
@example([10**6 - 30, 10**6 - 29, 10**6], 5)
@settings(deadline=None)  # the reference shifts 10^6-bit layers
def test_translated_layers_are_the_untranslated_ones(values, r):
    # top <= r takes extend_layers' ascending pass, top > r its binary
    # parts; the reference shares no code with either
    s = RepSequence(IntegerSet(tuple(sorted(values))), r)
    x_max = s.base.elements[-1]
    for top in range(s.length + 1):
        layers, offset = sequence_layers(s, top)
        assert (layers, offset) == untranslated_layers(s, top)
        # the admission estimate bounds the placed layers
        bits = (top + 1) * (offset + 1) + max(x_max, 0) * top * (top + 1) // 2
        assert sum(layer.bit_length() for layer in layers) <= bits


def test_sequence_layers_near_a_million_within_quarter_second():
    # the untranslated DP shifts 32 layers by about 10^6 bits each: 0.5 s
    s = RepSequence(IntegerSet(tuple(range(999985, 1000001))), 2)
    started = time.perf_counter()
    layers, offset = sequence_layers(s)
    assert time.perf_counter() - started < 0.25
    assert offset == 0 and len(layers) == 33
    assert layers[-1] == 1 << (2 * sum(s.base.elements))
    assert SumSet.from_bitmap(layers[1], offset).sums == s.base.elements


def test_sequence_layers_far_negative_outlier_within_a_second():
    # translating by -10^6 would widen layer c by about (c - 1) * 10^6 bits,
    # 4 s here; the DP at the offset keeps every layer near 10^6 bits
    s = RepSequence(IntegerSet((-(10**6),) + tuple(range(63))), 1)
    started = time.perf_counter()
    layers, offset = sequence_layers(s)
    assert time.perf_counter() - started < 1.0
    assert offset == 10**6 and len(layers) == 65
    assert layers[-1] == 1 << (offset + sum(s.base.elements))


SPREAD_64 = IntegerSet(tuple(range(0, 10**6, 15625)))  # 64 values


def test_oversize_dp_refused_before_any_insertion(monkeypatch):
    def no_work(*args):
        raise AssertionError("the DP started")

    monkeypatch.setattr(engine, "extend_layers", no_work)
    s = RepSequence(SPREAD_64, 64)
    bits = 4097 + 984375 * 4096 * 4097 // 2
    assert bits > LAYER_BITS_BUDGET
    with pytest.raises(BudgetExceeded, match=f"{bits} layer bits in 4097 layers"):
        sequence_layers(s)
    with pytest.raises(BudgetExceeded):
        sigma_size(s, 1)
    # at r >= top extend_layers would take its ascending pass: still
    # refused up front
    with pytest.raises(BudgetExceeded):
        fold_fast(SPREAD_64, 64, "unrestricted")


def test_as_sequence():
    s = RepSequence(iset(1, 2), 3)
    assert as_sequence(s) is s
    a = iset(-1, 4)
    assert as_sequence(a) == RepSequence(a, 1)


def test_add_sets_refused_before_any_bitmap(monkeypatch):
    def no_bitmap(self):
        raise AssertionError("a bitmap was built")

    monkeypatch.setattr(SumSet, "to_bitmap", no_bitmap)
    with pytest.raises(BudgetExceeded,
                       match="pairwise sum set needs 1000000000001 bits; "
                             f"budget is {LAYER_BITS_BUDGET}"):
        add_sets(SumSet((0, 10**12)), SumSet((0,)))
    with pytest.raises(BudgetExceeded):
        add_sets(SumSet((-1,)), SumSet((-(2**29), 2**29)))


def test_add_sets_budget_edge(monkeypatch):
    # the result spans (a.max - a.min) + (b.max - b.min) + 1 integers
    monkeypatch.setattr(engine, "LAYER_BITS_BUDGET", 10)
    assert add_sets(SumSet((-3, 2)), SumSet((4, 8))).sums == (1, 5, 6, 10)
    with pytest.raises(BudgetExceeded, match="needs 11 bits; budget is 10"):
        add_sets(SumSet((-3, 2)), SumSet((4, 9)))


def test_add_sets_size_floor_holds():
    # the assert inside add_sets must never fire on valid inputs
    sets = [SumSet.from_iterable(c) for c in all_subsets(2, 1, 3)]
    for a in sets[:12]:
        for b in sets[:12]:
            out = add_sets(a, b)
            assert out.size >= a.size + b.size - 1
