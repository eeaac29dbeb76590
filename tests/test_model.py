"""Domain-type tests: parsing, classification, and SumSet round trips."""

import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from subsums import bounds, engine, fp, model, oracle, verifier, witnesses
from subsums.model import (
    AT_LEAST,
    AT_MOST,
    BudgetExceeded,
    DEFAULT_BUDGET,
    IntegerSet,
    LAYER_BITS_BUDGET,
    Limits,
    ParseError,
    RepSequence,
    SumSet,
    classify,
    numeral,
    parse_sequence,
    parse_set,
    refuse_above,
    size_window,
)

small_sets = st.sets(st.integers(-50, 50), min_size=1, max_size=10)


def test_parse_brace_literal():
    a = parse_set("{-2,-1,1,2}")
    assert a.elements == (-2, -1, 1, 2)
    assert a.k == 4
    assert a.total == 0


def test_parse_brace_unsorted_input_is_sorted():
    assert parse_set("{3,-1,2}").elements == (-1, 2, 3)


def test_parse_interval_literal():
    assert parse_set("[1,4]").elements == (1, 2, 3, 4)
    assert parse_set("[-2,2]").elements == (-2, -1, 0, 1, 2)
    assert parse_set("[5,5]").elements == (5,)


def test_parse_tolerates_whitespace():
    assert parse_set(" { 1 , 2 } ").elements == (1, 2)
    assert parse_set("[ 1 , 3 ]").elements == (1, 2, 3)


@pytest.mark.parametrize(
    "text",
    ["{}", "{1,1}", "{1,2", "[4,1]", "[1,2,3]", "[a,b]", "{1;2}", "", "1,2"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_set(text)


def test_parse_enforces_value_cap():
    assert parse_set("{1000000}").elements == (1000000,)
    with pytest.raises(ParseError):
        parse_set("{1000001}")
    with pytest.raises(ParseError):
        parse_set("{-1000001}")


def test_parse_enforces_k_cap():
    assert parse_set("[1,64]").k == 64
    with pytest.raises(ParseError):
        parse_set("[1,65]")
    assert parse_set("[1,65]", Limits(max_k=128)).k == 65


def test_interval_caps_checked_from_endpoints(monkeypatch):
    # the k cap, then the magnitude cap, fire before the range is built
    monkeypatch.setattr(IntegerSet, "from_iterable", None)
    with pytest.raises(ParseError, match="1000000000001 elements; cap is 64"):
        parse_set("[0,1000000000000]")
    with pytest.raises(ParseError, match="1000001 elements; cap is 64"):
        parse_set("[999990,1999990]")
    with pytest.raises(ParseError, match="magnitude 1000001 exceeds cap"):
        parse_set("[999990,1000001]")


def test_custom_limits_tighten():
    with pytest.raises(ParseError):
        parse_set("{100}", Limits(max_abs_value=50))


def test_parse_sequence():
    s = parse_sequence("[1,2]", 2)
    assert s.base.elements == (1, 2)
    assert s.r == 2
    assert s.length == 4
    assert s.total == 6


@pytest.mark.parametrize("r", [0, -1])
def test_parse_sequence_rejects_bad_r(r):
    with pytest.raises(ParseError):
        parse_sequence("{3}", r)


def test_parse_sequence_enforces_r_cap():
    assert parse_sequence("{1}", 64).r == 64
    with pytest.raises(ParseError):
        parse_sequence("{1}", 65)
    assert parse_sequence("{1}", 65, Limits(max_r=100)).r == 65


def test_integer_set_structural_validation():
    with pytest.raises(ValueError):
        IntegerSet(())
    with pytest.raises(ValueError):
        IntegerSet((2, 1))
    with pytest.raises(ValueError):
        IntegerSet((1, 1))


@pytest.mark.parametrize("cls", [IntegerSet, SumSet])
@pytest.mark.parametrize(
    "values", [(), (2, 1), (1, 1), (0, 2, 2, 5), (-3, 4, 1), (1, 2, 3, 3)]
)
def test_rejects_empty_equal_and_decreasing(cls, values):
    with pytest.raises(ValueError):
        cls(values)


@pytest.mark.parametrize("cls", [IntegerSet, SumSet])
@pytest.mark.parametrize("values", [(7,), (-3, 0), (-5, -1, 2, 9)])
def test_accepts_strictly_increasing(cls, values):
    assert tuple(cls(values)) == values


def test_rep_sequence_requires_positive_r():
    with pytest.raises(ValueError):
        RepSequence(IntegerSet((1,)), 0)


def test_negate_and_dilate():
    a = IntegerSet((-2, 1, 3))
    assert a.negate().elements == (-3, -1, 2)
    assert a.dilate(2).elements == (-4, 2, 6)
    assert a.dilate(-1).elements == a.negate().elements
    with pytest.raises(ValueError):
        a.dilate(0)


@pytest.mark.parametrize(
    "elems, n, p, zero, meet",
    [
        ((1, 2, 4), 0, 3, 0, 0),
        ((-2, -1, 1, 2), 2, 2, 0, 1),
        ((0, 1, 3), 0, 2, 1, 0),
        ((0,), 0, 0, 1, 0),
        ((-1, 0, 1), 1, 1, 1, 1),
        ((-3, -1,), 2, 0, 0, 0),
        ((-2, 1), 1, 1, 0, 0),
        ((-3, -2, 0, 1, 3), 2, 2, 1, 1),
    ],
)
def test_classify(elems, n, p, zero, meet):
    prof = classify(IntegerSet(elems))
    assert prof == (n, p, zero, meet)
    assert (prof.n, prof.p, prof.zero, prof.meet) == (n, p, zero, meet)


@given(small_sets)
def test_classify_counts_partition_k(values):
    a = IntegerSet.from_iterable(values)
    prof = classify(a)
    assert prof.n + prof.p + prof.zero == a.k
    assert all(type(field) is int for field in prof)
    assert prof.zero in (0, 1) and prof.meet in (0, 1)
    # meet is 1 exactly when some nonzero x and -x are both present
    assert prof.meet == any(-x in a for x in a if x > 0)


@given(small_sets)
def test_classify_negation_swaps_signs(values):
    a = IntegerSet.from_iterable(values)
    prof, neg = classify(a), classify(a.negate())
    assert (prof.n, prof.p) == (neg.p, neg.n)
    assert (prof.zero, prof.meet) == (neg.zero, neg.meet)


@given(small_sets)
def test_parse_is_idempotent_through_formatting(values):
    a = IntegerSet.from_iterable(values)
    assert parse_set(a.literal()) == a


def test_size_window():
    assert size_window(2, 5, AT_LEAST) == range(2, 6)
    assert size_window(2, 5, AT_MOST) == range(0, 4)
    assert size_window(0, 5, AT_MOST) == range(0, 6)
    with pytest.raises(ValueError):
        size_window(6, 5, AT_LEAST)
    with pytest.raises(ValueError):
        size_window(-1, 5, AT_LEAST)
    with pytest.raises(ValueError):
        size_window(1, 5, "sideways")


def test_argument_rules_raise_one_message_everywhere():
    # every alpha entry point refuses through model.check_alpha, so its
    # message is exactly this one; hi is the largest alpha it admits
    a = IntegerSet((1, 2, 3))
    s = RepSequence(a, 2)
    entry_points = [
        (lambda alpha: engine.sigma(a, alpha), 3),
        (lambda alpha: engine.sigma_seq(s, alpha), 6),
        (lambda alpha: engine.sigma_size(s, alpha, AT_MOST), 6),
        (lambda alpha: fp.sigma_fp(fp.FpSubset(7, (1, 2)), alpha), 2),
        (lambda alpha: verifier.empirical_minimum(3, alpha, 2), 3),
        (lambda alpha: bounds.bound_disjoint(3, alpha), 3),
        (lambda alpha: bounds.bound_seq_disjoint(3, 2, alpha), 5),
        (lambda alpha: bounds.shape_bounds(1, 2, 0, 0, 2, alpha), 6),
        (lambda alpha: witnesses.check_tightness(
            witnesses.WitnessFamily(witnesses.POS_INTERVAL, k=3), alpha), 3),
    ]
    for call, hi in entry_points:
        call(hi)
        for bad in (-1, hi + 1):
            with pytest.raises(ValueError,
                               match=rf"^alpha={bad} out of range \[0, {hi}\]$"):
                call(bad)
    # the engine and the oracle refuse a fold through
    # model.fold_multiplicity, h = 0 included, so in the same words
    b = IntegerSet((1, 2))
    for h, kind, r in [(3, "restricted", None), (5, "generalized", 2),
                       (1, "generalized", None), (0, "generalized", None),
                       (0, "generalized", 0), (1, "sideways", None),
                       (0, "sideways", None), (-1, "restricted", None)]:
        messages = set()
        for fold in (engine.fold_fast, oracle.oracle_fold):
            with pytest.raises(ValueError) as info:
                fold(b, h, kind, r)
            messages.add(str(info.value))
        assert len(messages) == 1, (h, kind, r, messages)


def test_sumset_basics():
    s = SumSet.from_iterable([3, 1, 2, 1])
    assert s.sums == (1, 2, 3)
    assert (s.size, s.min_sum, s.max_sum) == (3, 1, 3)
    assert 2 in s and 5 not in s
    assert list(s) == [1, 2, 3]
    with pytest.raises(ValueError):
        SumSet(())
    with pytest.raises(ValueError):
        SumSet((2, 1))


def test_sumset_reflect():
    s = SumSet((1, 2, 5))
    assert s.reflect(6).sums == (1, 4, 5)


@given(st.sets(st.integers(-200, 200), min_size=1, max_size=12))
def test_sumset_bitmap_round_trip(values):
    s = SumSet.from_iterable(values)
    bitmap, offset = s.to_bitmap()
    assert SumSet.from_bitmap(bitmap, offset) == s
    assert offset == -s.min_sum


@given(
    st.sets(st.integers(0, 10**6), min_size=1, max_size=12),
    st.integers(-(10**6), 10**6),
)
@example({0, 10**6}, 0)
@example({10**6}, 10**6)
@example({0}, -3)
def test_sumset_from_bitmap_sparse_and_wide(positions, offset):
    # bits far apart on a wide map, at any offset, not only -min_sum
    bitmap = sum(1 << i for i in positions)
    s = SumSet.from_bitmap(bitmap, offset)
    assert s.sums == tuple(sorted(i - offset for i in positions))
    low = min(positions)
    assert s.to_bitmap() == (bitmap >> low, offset - low)


def per_bit(bitmap, offset):
    """Reference decode, one bit at a time."""
    return [i - offset for i, bit in enumerate(bin(bitmap)[:1:-1]) if bit == "1"]


CUT = len(model._ZERO_STRETCH)  # zero bytes at which the decode cuts


def runs_bitmap(low, runs):
    """A bitmap of `low` zero bits, then for each (length, gap) a run of
    `length` ones and a gap: `gap` zero bits, or for gap = (g, shift)
    zeros to the next byte, g whole zero bytes and `shift` zero bits
    inside the byte that holds the next run's first one."""
    bitmap, pos = 0, low
    for length, gap in runs:
        bitmap |= ((1 << length) - 1) << pos
        pos += length
        if isinstance(gap, int):
            pos += gap
        else:
            pos = -(-pos // 8) * 8 + 8 * gap[0] + gap[1]
    return bitmap


@given(
    st.integers(0, 16 * CUT),
    st.lists(
        st.tuples(
            st.integers(1, 200),
            st.one_of(
                st.integers(1, 50),
                st.tuples(st.sampled_from([CUT - 1, CUT, CUT + 1]),
                          st.integers(0, 7)),
            ),
        ),
        min_size=1, max_size=20,
    ),
    st.integers(-(10**4), 10**4),
)
# whole zero bytes one below, at and one above the decode's cut, between
# runs that cross byte boundaries, at negative, zero and positive offsets
@example(0, [(12, (CUT - 1, 0)), (9, 1)], -7)
@example(5, [(3, (CUT, 3)), (17, 2)], 0)
@example(8 * CUT, [(1, (CUT + 1, 7)), (1, (CUT, 0)), (30, 1)], 9)
# the only set bit is bit 0
@example(0, [(1, 1)], -3)
@example(0, [(1, 1)], 3)
def test_from_bitmap_by_runs_matches_per_bit(low, runs, offset):
    # runs of ones of length 1..200 apart by gaps of 1..50 zero bits or
    # of whole zero bytes near the cut, above up to 2*CUT zero bytes
    bitmap = runs_bitmap(low, runs)
    s = SumSet.from_bitmap(bitmap, offset)
    assert list(s.sums) == per_bit(bitmap, offset)
    assert s.to_bitmap() == (bitmap >> low, offset - low)
    assert SumSet.from_bitmap(*s.to_bitmap()) == s


@pytest.mark.parametrize(
    "bitmap, offset, sums",
    [
        (1 << 37, 5, (32,)),  # a single bit
        (1, 0, (0,)),  # bit 0 alone
        (0b1011, 0, (0, 1, 3)),  # bit 0 starts a run
        ((1 << 100) - 1, 50, tuple(range(-50, 50))),  # one run to the top
        (0b10101, 2, (-2, 0, 2)),  # runs of one, gaps of exactly one zero
        (0b1101101100, 0, (2, 3, 5, 6, 8, 9)),  # runs of two, one-zero gaps
    ],
)
def test_from_bitmap_run_edges(bitmap, offset, sums):
    s = SumSet.from_bitmap(bitmap, offset)
    assert s.sums == sums
    assert list(sums) == per_bit(bitmap, offset)
    low = (bitmap & -bitmap).bit_length() - 1
    assert s.to_bitmap() == (bitmap >> low, offset - low)


@pytest.mark.parametrize("bitmap", [0, -1, -(1 << 40)])
def test_from_bitmap_rejects_empty_and_negative(bitmap):
    with pytest.raises(ValueError):
        SumSet.from_bitmap(bitmap, 0)


def best_of_three(call):
    """The least wall time of three calls, and the last result."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        out = call()
        times.append(time.perf_counter() - started)
    return min(times), out


def test_decode_skips_zero_stretches_at_c_speed():
    # two sums 10^8 apart: a walk over every bit took 0.29 s
    bitmap = 1 | 1 << 10**8
    elapsed, s = best_of_three(lambda: SumSet.from_bitmap(bitmap, 0))
    assert s.sums == (0, 10**8)
    assert elapsed < 0.1


def test_encode_is_linear_in_the_span():
    # 20,000 isolated sums over 2*10^6 bits: one shift-or per run into
    # a growing int took 0.2 s
    s = SumSet(tuple(range(0, 2 * 10**6, 100)))
    elapsed, (bitmap, offset) = best_of_three(s.to_bitmap)
    assert (bitmap.bit_count(), bitmap.bit_length(), offset) == (
        20000, 2 * 10**6 - 99, 0)
    assert elapsed < 0.05


def test_refuse_above_admits_the_budget_itself():
    refuse_above(10, 10, "unused")
    with pytest.raises(BudgetExceeded, match=r"^run needs 11; budget is 10$"):
        refuse_above(11, 10, "run needs 11")


def test_numeral_prints_every_count_python_prints():
    # 4,300 digits, Python's default limit, still print in full, so every
    # message that printed its count before keeps it byte for byte
    assert numeral(1) == "1"
    assert numeral(10**4300 - 1) == "9" * 4300
    assert numeral(10**4300) == "about 10^4300"
    assert numeral(3 * 10**6020) == "about 10^6020"
    assert numeral(2**20001) == "about 10^6021"


# Every up-front refusal of the package, each with the work it guards
# patched to fail: (owner, name) of that work, the refused call, and the
# budget its message names.
SPREAD_64 = IntegerSet(tuple(range(0, 10**6, 15625)))  # 64 values
REFUSALS = {
    "check_layer_bits": (
        (engine, "extend_layers"),
        lambda: engine.sequence_layers(RepSequence(SPREAD_64, 64)),
        LAYER_BITS_BUDGET),
    "add_sets": (
        (SumSet, "to_bitmap"),
        lambda: engine.add_sets(SumSet((0, 10**12)), SumSet((0,))),
        LAYER_BITS_BUDGET),
    "sigma_fp": (
        (fp, "_insert_suffix"),
        lambda: fp.sigma_fp(fp.FpSubset(10**9 + 7, (1, 2)), 0),
        LAYER_BITS_BUDGET),
    "sweep_pairs": (
        (verifier, "_walk_unit"),
        lambda: verifier.sweep_sets(10, range(2, 8)),
        DEFAULT_BUDGET),
    "walk_path_bits": (
        (verifier, "_walk_unit"),
        lambda: verifier.sweep_sets(1000, [2001]),
        LAYER_BITS_BUDGET),
    "empirical_minimum": (
        (verifier, "_walk"),
        lambda: verifier.empirical_minimum(3, 1, 20, budget=10),
        10),
    "check_prime": (
        (fp, "_walk"),
        lambda: fp.verify_balandraud(29),
        DEFAULT_BUDGET),
    "oracle_vectors": (
        (verifier, "_walk_unit"),
        lambda: verifier.sweep_sequences(6, [6], [8], oracle_check=True),
        DEFAULT_BUDGET),
    "oracle_vectors_one_instance": (
        (verifier, "_walk_unit"),
        lambda: verifier.sweep_sets(10, [21], oracle_check=True,
                                    budget=10**7),
        oracle.VECTOR_ENUM_MAX),
}


@pytest.mark.parametrize("site", list(REFUSALS))
def test_every_refusal_comes_before_its_work(site, monkeypatch):
    (owner, name), call, budget = REFUSALS[site]

    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    monkeypatch.setattr(owner, name, fail)
    with pytest.raises(BudgetExceeded) as info:
        call()
    assert str(info.value).endswith(f"; budget is {budget}")
