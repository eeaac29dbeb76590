"""Closed-form floor evaluation: frozen spot values, case dispatch,
cross-family identities, and range validation."""

import hashlib
import json

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from subsums.bounds import (
    ALL_THEOREM_IDS,
    BoundResult,
    applicable_bounds,
    bound_disjoint,
    bound_fp,
    bound_general,
    bound_mixed,
    bound_mixed_zero,
    bound_seq_disjoint,
    bound_seq_general,
    bound_seq_mixed,
    bound_seq_mixed_zero,
    bound_seq_zero,
    bound_zero,
    is_prime,
    min_fold_size,
    min_sumset_size,
    shape_bound,
    shape_bounds,
    shape_floor_rows,
)
from subsums.model import IntegerSet, RepSequence, parse_sequence, parse_set
from subsums.oracle import oracle_sigma_seq, oracle_sigma_set


class TestBlockIndex:
    """The block index m that `bound_seq_disjoint` echoes in its params,
    at a base of k values large enough that alpha < r*k."""

    @pytest.mark.parametrize(
        "alpha,r,expected",
        [(0, 2, 1), (1, 2, 1), (2, 2, 2), (5, 2, 3), (3, 1, 4), (0, 1, 1), (7, 3, 3)],
    )
    def test_values(self, alpha, r, expected):
        assert bound_seq_disjoint(5, r, alpha).params["m"] == expected

    @given(st.integers(2, 200), st.integers(1, 64), st.data())
    def test_bracketing(self, k, r, data):
        # m is the unique index with (m-1)*r <= alpha < m*r
        alpha = data.draw(st.integers(0, r * k - 1))
        m = bound_seq_disjoint(k, r, alpha).params["m"]
        assert (m - 1) * r <= alpha < m * r

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            bound_seq_disjoint(5, 2, -1)
        with pytest.raises(ValueError):
            bound_seq_disjoint(5, 0, 0)


class TestPairwiseFloors:
    def test_sumset_floor(self):
        assert min_sumset_size(4, 7) == 10
        assert min_sumset_size(1, 1) == 1

    def test_fold_floor(self):
        assert min_fold_size(3, 5) == 13
        assert min_fold_size(1, 9) == 9

    def test_rejects_empty_operands(self):
        with pytest.raises(ValueError):
            min_sumset_size(0, 3)
        with pytest.raises(ValueError):
            min_fold_size(0, 3)


class TestSetFloors:
    @pytest.mark.parametrize(
        "k,alpha,value",
        [(4, 2, 8), (5, 0, 16), (7, 7, 1), (1, 0, 2), (1, 1, 1)],
    )
    def test_disjoint(self, k, alpha, value):
        res = bound_disjoint(k, alpha)
        assert res.theorem_id == "T2_1"
        assert res.case_label is None
        assert res.value == value

    @pytest.mark.parametrize(
        "k,alpha,value",
        [(4, 1, 7), (5, 3, 8), (1, 0, 1), (1, 1, 1), (6, 6, 1)],
    )
    def test_zero(self, k, alpha, value):
        res = bound_zero(k, alpha)
        assert res.theorem_id == "C2_2"
        assert res.value == value

    @pytest.mark.parametrize(
        "n,p,alpha,case,value",
        [
            (2, 2, 1, "i", 7),
            (2, 2, 2, "i", 7),  # boundary alpha = n = p stays in case i
            (2, 2, 3, "iv", 5),
            (1, 3, 2, "iii", 7),
            (2, 1, 2, "ii", 4),
            (1, 1, 2, "iv", 1),
        ],
    )
    def test_mixed(self, n, p, alpha, case, value):
        res = bound_mixed(n, p, alpha)
        assert res.theorem_id == "T2_3"
        assert res.case_label == case
        assert res.value == value

    @pytest.mark.parametrize(
        "n,p,alpha,case,value",
        [
            (1, 1, 0, "i", 3),
            (2, 2, 2, "i", 7),
            (2, 2, 3, "iv", 7),
            (1, 2, 2, "iii", 5),
            (2, 1, 2, "ii", 5),
            (1, 1, 3, "iv", 1),  # alpha = n + p + 1 collapses to a singleton
        ],
    )
    def test_mixed_zero(self, n, p, alpha, case, value):
        res = bound_mixed_zero(n, p, alpha)
        assert res.theorem_id == "C2_4"
        assert res.case_label == case
        assert res.value == value

    @pytest.mark.parametrize(
        "k,alpha,has_zero,case,value",
        [
            (4, 1, False, "even", 6),
            (4, 1, True, "even", 5),
            (3, 0, False, "odd", 5),
            (3, 0, True, "odd", 3),
            (2, 0, False, "even", 3),
        ],
    )
    def test_general(self, k, alpha, has_zero, case, value):
        res = bound_general(k, alpha, has_zero)
        assert res.theorem_id == "C2_5"
        assert res.case_label == case
        assert res.value == value

    def test_general_can_reach_zero(self):
        # The sign-agnostic floor is weak at the top of the alpha range:
        # at k = 2, alpha = 2 it evaluates to 0 (sound but vacuous).
        assert bound_general(2, 2, False).value == 0
        assert oracle_sigma_set(parse_set("{1,2}"), 2).size == 1

    @given(st.integers(2, 100), st.booleans())
    def test_general_parity_form_agrees(self, k, has_zero):
        # floor-division form vs parity-resolved form, checked internally
        for alpha in range(k + 1):
            bound_general(k, alpha, has_zero)

    @given(st.integers(1, 20))
    def test_disjoint_dominates_general(self, k):
        # under the stronger hypothesis the dedicated floor never loses
        if k < 2:
            return
        for alpha in range(k + 1):
            assert bound_disjoint(k, alpha).value >= bound_general(k, alpha, False).value


class TestSequenceFloors:
    @pytest.mark.parametrize(
        "k,r,alpha,value",
        [(2, 2, 0, 7), (2, 2, 1, 6), (2, 2, 3, 3), (3, 1, 0, 7), (4, 3, 11, 5)],
    )
    def test_seq_disjoint(self, k, r, alpha, value):
        res = bound_seq_disjoint(k, r, alpha)
        assert res.theorem_id == "T3_1_disjoint"
        assert res.value == value
        assert res.params["m"] == alpha // r + 1

    @pytest.mark.parametrize(
        "k,r,alpha,value",
        [(2, 2, 0, 3), (2, 2, 3, 2), (3, 2, 0, 7), (4, 1, 2, 6)],
    )
    def test_seq_zero(self, k, r, alpha, value):
        res = bound_seq_zero(k, r, alpha)
        assert res.theorem_id == "T3_1_zero"
        assert res.value == value

    @pytest.mark.parametrize(
        "n,p,r,alpha,case,value",
        [
            (1, 1, 2, 0, "i", 5),
            (1, 1, 2, 1, "i", 5),
            (1, 1, 2, 3, "iv", 3),
            (2, 1, 1, 2, "iv", 4),
            (1, 2, 2, 3, "iii", 8),
            (2, 1, 2, 3, "ii", 8),
        ],
    )
    def test_seq_mixed(self, n, p, r, alpha, case, value):
        res = bound_seq_mixed(n, p, r, alpha)
        assert res.theorem_id == "T3_2"
        assert res.case_label == case
        assert res.value == value

    @pytest.mark.parametrize(
        "n,p,r,alpha,case,value",
        [
            (1, 1, 2, 0, "i", 5),
            (1, 1, 2, 2, "iv", 5),
            (2, 2, 1, 1, "i", 7),
            (1, 1, 1, 2, "iv", 3),
            (1, 2, 2, 4, "iv", 9),
        ],
    )
    def test_seq_mixed_zero(self, n, p, r, alpha, case, value):
        res = bound_seq_mixed_zero(n, p, r, alpha)
        assert res.theorem_id == "C3_3"
        assert res.case_label == case
        assert res.value == value

    @pytest.mark.parametrize(
        "k,r,alpha,has_zero,case,value",
        [
            (3, 2, 1, True, "odd", 5),
            (4, 1, 1, False, "even", 4),
            (3, 1, 0, False, "odd", 4),
            (5, 2, 3, True, "odd", 11),
        ],
    )
    def test_seq_general(self, k, r, alpha, has_zero, case, value):
        res = bound_seq_general(k, r, alpha, has_zero)
        assert res.theorem_id == "C3_4"
        assert res.case_label == case
        assert res.value == value

    def test_seq_general_can_go_nonpositive(self):
        # same weakness as the set form, amplified by the block index:
        # k = 3, r = 1, alpha = 2 gives m = 3 and a floor of -1
        assert bound_seq_general(3, 1, 2, False).value == -1
        assert oracle_sigma_seq(parse_sequence("{1,2,3}", 1), 2).size >= 1

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 4))
    def test_seq_case_slack_nonnegative(self, n, p, r):
        # every case's slack term (m*r - alpha) is positive by bracketing
        for alpha in range(r * (n + p)):
            res = bound_seq_mixed(n, p, r, alpha)
            m = res.params["m"]
            assert m * r - alpha >= 1


class TestReductionToSets:
    """With r = 1 each sequence floor collapses to its set counterpart."""

    @pytest.mark.parametrize("k", range(2, 13))
    def test_disjoint(self, k):
        for alpha in range(k):
            assert bound_seq_disjoint(k, 1, alpha).value == bound_disjoint(k, alpha).value

    @pytest.mark.parametrize("k", range(2, 13))
    def test_zero(self, k):
        for alpha in range(k):
            assert bound_seq_zero(k, 1, alpha).value == bound_zero(k, alpha).value

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("p", range(1, 7))
    def test_mixed(self, n, p):
        for alpha in range(n + p):
            seq = bound_seq_mixed(n, p, 1, alpha)
            flat = bound_mixed(n, p, alpha)
            assert seq.value == flat.value

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("p", range(1, 7))
    def test_mixed_zero(self, n, p):
        for alpha in range(n + p + 1):
            seq = bound_seq_mixed_zero(n, p, 1, alpha)
            flat = bound_mixed_zero(n, p, alpha)
            assert seq.value == flat.value

    @pytest.mark.parametrize("k", range(3, 13))
    @pytest.mark.parametrize("has_zero", [False, True])
    def test_general_is_weaker_at_r1(self, k, has_zero):
        # the sign-agnostic sequence form does not collapse to the set
        # form: its triangular term is taken at the block index m =
        # alpha + 1 with no slack compensation, so at r = 1 it never
        # beats the set floor and loses strictly once alpha > 0
        for alpha in range(k):
            seq = bound_seq_general(k, 1, alpha, has_zero).value
            flat = bound_general(k, alpha, has_zero).value
            assert seq <= flat
            if alpha > 0:
                assert seq < flat


class TestPositivity:
    """Every floor except the sign-agnostic pair stays >= 1 across its
    whole parameter range; the sign-agnostic forms can dip to 0 or below
    at extreme alpha, which the dispatch tests document explicitly."""

    def test_disjoint_and_zero(self):
        for k in range(1, 25):
            for alpha in range(k + 1):
                assert bound_disjoint(k, alpha).value >= 1
                assert bound_zero(k, alpha).value >= 1

    def test_mixed_families(self):
        for n in range(1, 9):
            for p in range(1, 9):
                for alpha in range(n + p + 1):
                    assert bound_mixed(n, p, alpha).value >= 1
                for alpha in range(n + p + 2):
                    assert bound_mixed_zero(n, p, alpha).value >= 1

    def test_sequence_families(self):
        for r in range(1, 5):
            for k in range(2, 9):
                for alpha in range(r * k):
                    assert bound_seq_disjoint(k, r, alpha).value >= 1
                    assert bound_seq_zero(k, r, alpha).value >= 1
            for n in range(1, 5):
                for p in range(1, 5):
                    for alpha in range(r * (n + p)):
                        assert bound_seq_mixed(n, p, r, alpha).value >= 1
                    for alpha in range(r * (n + p + 1)):
                        assert bound_seq_mixed_zero(n, p, r, alpha).value >= 1


class TestPrimeFieldFloor:
    def test_caps_at_field_size(self):
        assert bound_fp(3, 1, 7).value == 6
        assert bound_fp(5, 0, 7).value == 7
        assert bound_fp(2, 0, 11).value == 4

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            bound_fp(0, 0, 7)
        with pytest.raises(ValueError):
            bound_fp(3, 4, 7)
        with pytest.raises(ValueError):
            bound_fp(3, 1, 1)

    @pytest.mark.parametrize("p", [4, 9, 561, (10**9 + 7) * (10**9 + 9)])
    def test_rejects_composite_p(self, p):
        with pytest.raises(ValueError, match="prime"):
            bound_fp(3, 1, p)

    def test_large_prime_accepted(self):
        assert bound_fp(3, 1, 10**9 + 7).value == 6


class TestIsPrime:
    def test_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert all(is_prime(n) == trial(n) for n in range(-3, 20000))

    def test_strong_pseudoprimes_are_composite(self):
        # the least strong pseudoprimes to the first 1, 2, ..., 12 prime
        # bases, each shown composite by a factor pair
        for n, d in [
            (2047, 23),
            (1373653, 829),
            (25326001, 2251),
            (3215031751, 151),
            (2152302898747, 6763),
            (3474749660383, 1303),
            (341550071728321, 10670053),
            (3825123056546413051, 149491),
            (318665857834031151167461, 399165290221),
        ]:
            assert n % d == 0 and not is_prime(n)

    def test_large_primes(self):
        assert is_prime(10**9 + 7) and is_prime(2**61 - 1) and is_prime(2**89 - 1)


class TestRangeValidation:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: bound_disjoint(0, 0),
            lambda: bound_disjoint(4, 5),
            lambda: bound_disjoint(4, -1),
            lambda: bound_zero(3, 4),
            lambda: bound_mixed(0, 1, 0),
            lambda: bound_mixed(1, 1, 3),
            lambda: bound_mixed_zero(1, 0, 0),
            lambda: bound_mixed_zero(1, 1, 4),
            lambda: bound_general(1, 0, False),
            lambda: bound_general(3, 4, False),
            lambda: bound_seq_disjoint(1, 2, 0),
            lambda: bound_seq_disjoint(2, 0, 0),
            lambda: bound_seq_disjoint(2, 2, 4),  # alpha = r*k rejected
            lambda: bound_seq_zero(2, 2, 4),
            lambda: bound_seq_mixed(1, 1, 2, 4),
            lambda: bound_seq_mixed_zero(1, 1, 2, 6),
            lambda: bound_seq_general(2, 1, 0, False),
            lambda: bound_seq_general(3, 2, 6, False),
        ],
    )
    def test_raises(self, call):
        with pytest.raises(ValueError):
            call()

    # the constructors and bound_fp check no shape themselves: each
    # refusal comes from _shape_floors through shape_bound
    @pytest.mark.parametrize("call,message", [
        (lambda: bound_seq_disjoint(1, 2, 0), "no set or sequence floor"),
        (lambda: bound_seq_zero(1, 2, 0), "no set or sequence floor"),
        (lambda: bound_general(1, 0, False), "no set or sequence floor"),
        (lambda: bound_seq_general(2, 1, 0, False), "no set or sequence floor"),
        (lambda: bound_mixed(0, 3, 0), "no set or sequence floor"),
        (lambda: bound_disjoint(0, 0), "a shape needs at least one element"),
        (lambda: bound_fp(0, 0, 7), "a shape needs at least one element"),
        (lambda: bound_mixed(-1, 2, 0), "no set has the sign shape"),
        (lambda: bound_seq_mixed(1, 1, 0, 0), "r must be >= 1"),
        (lambda: bound_fp(3, 4, 7), r"alpha=4 out of range \[0, 3\]"),
        (lambda: bound_fp(3, 1, 8), "p must be a prime >= 2"),
    ])
    def test_refusal_names_the_shape_rule(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestDispatch:
    def test_mixed_set_gets_two_floors(self):
        a = parse_set("{-2,-1,1,2}")
        results = applicable_bounds(a, 1)
        by_id = {r.theorem_id: r for r in results}
        assert set(by_id) == {"T2_3", "C2_5"}
        assert by_id["T2_3"].value == 7
        assert by_id["T2_3"].case_label == "i"
        assert by_id["C2_5"].value == 6

    def test_positive_set_gets_disjoint_and_general(self):
        a = parse_set("{1,2,3}")
        results = applicable_bounds(a, 1)
        by_id = {r.theorem_id: r.value for r in results}
        assert by_id == {"T2_1": 6, "C2_5": 4}

    def test_zero_set_dispatch(self):
        a = parse_set("{0,1,3}")
        by_id = {r.theorem_id: r.value for r in applicable_bounds(a, 1)}
        assert by_id == {"C2_2": 4, "C2_5": 3}

    def test_singleton_set(self):
        a = parse_set("{5}")
        results = applicable_bounds(a, 0)
        assert [r.theorem_id for r in results] == ["T2_1"]
        assert results[0].value == 2

    def test_zero_singleton(self):
        a = parse_set("{0}")
        by_id = {r.theorem_id: r.value for r in applicable_bounds(a, 1)}
        assert by_id == {"C2_2": 1}

    def test_small_zero_sequence(self):
        s = parse_sequence("[0,1]", 2)
        results = applicable_bounds(s, 0)
        # k = 2 is below the sign-agnostic sequence threshold
        assert [(r.theorem_id, r.value) for r in results] == [("T3_1_zero", 3)]

    def test_mixed_sequence_dispatch(self):
        s = parse_sequence("{-1,1,2}", 2)
        by_id = {r.theorem_id: r.value for r in applicable_bounds(s, 2)}
        assert by_id == {"T3_2": 9, "C3_4": 3}

    def test_full_alpha_sequence_is_degenerate(self):
        s = parse_sequence("{1,2}", 3)
        assert applicable_bounds(s, 6) == []

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            applicable_bounds(parse_set("{1,2}"), 3)
        with pytest.raises(ValueError):
            applicable_bounds(parse_sequence("{1,2}", 2), 5)

    def test_every_dispatched_floor_is_sound(self):
        # moderate sweep: each dispatched value really is a floor
        sets = ["{1,2,3}", "{-3,-1,2}", "{-2,0,2,5}", "{0,1,2,3}", "{-4,-2,-1}"]
        for text in sets:
            a = parse_set(text)
            for alpha in range(a.k + 1):
                truth = oracle_sigma_set(a, alpha).size
                for res in applicable_bounds(a, alpha):
                    assert truth >= res.value, (text, alpha, res.label())

    def test_every_dispatched_seq_floor_is_sound(self):
        specs = [("{1,2}", 3), ("{-1,1}", 2), ("{-1,0,2}", 2), ("{-2,-1,1}", 2)]
        for text, r in specs:
            s = parse_sequence(text, r)
            for alpha in range(s.length + 1):
                truth = oracle_sigma_seq(s, alpha).size
                for res in applicable_bounds(s, alpha):
                    assert truth >= res.value, (text, r, alpha, res.label())


def shape_grid():
    """Every sign shape (n, p, zero, meet) with n, p <= 6 that a set can
    have, with a representative set, crossed with r in {None, 1..6} and
    every alpha: yields ((n, p, zero, meet, r, alpha), instance)."""
    for n in range(7):
        for p in range(7):
            for zero in (0, 1):
                for meet in (0, 1) if n and p else (0,):
                    if n + p + zero == 0:
                        continue
                    # -1 and 1 meet; positives above n meet no negative
                    negs = range(-n, 0)
                    poss = range(1, p + 1) if meet else range(n + 1, n + p + 1)
                    base = IntegerSet((*negs, *[0] * zero, *poss))
                    for r in (None, 1, 2, 3, 4, 5, 6):
                        inst = base if r is None else RepSequence(base, r)
                        for alpha in range(base.k * (r or 1) + 1):
                            yield (n, p, zero, meet, r, alpha), inst


def floor_pairs(n, p, zero, meet, r, alpha):
    """(value, theorem_id) of every floor of the shape at one alpha, read
    from its rows filled block by block."""
    return [(row[alpha], theorem_id)
            for theorem_id, row in shape_floor_rows(n, p, zero, meet, r)
            if alpha < len(row)]


def bound_pairs(n, p, zero, meet, r, alpha):
    """(value, theorem_id) of every floor of the shape at one alpha, built
    by the public constructors at that alpha alone."""
    return [(b.value, b.theorem_id)
            for b in shape_bounds(n, p, zero, meet, r, alpha)]


class TestShapeDispatch:
    def test_pairs_equal_applicable_bounds(self):
        # the digest was taken from applicable_bounds before it was
        # routed through the shape dispatch, so both sides are pinned:
        # the block-filled rows and the constructors alpha by alpha
        digest = hashlib.sha256()
        rows = 0
        for key, inst in shape_grid():
            floors = applicable_bounds(inst, key[-1])
            pairs = [(b.value, b.theorem_id) for b in floors]
            assert floor_pairs(*key) == pairs, key
            digest.update(json.dumps([key, pairs]).encode() + b"\n")
            rows += 1
        assert rows == 27077
        assert digest.hexdigest() == (
            "b30dc0a340eb719d607e8bcf6cef348510f6a014ff6cc503a27490716d8f4f4d"
        )

    def test_validation(self):
        for args in [
            (0, 0, 0, 0, None, 0),  # no elements
            (1, 1, 0, 0, 0, 0),  # r < 1
            (1, 1, 0, 0, None, 3),  # alpha > k
            (1, 1, 0, 0, 2, 5),  # alpha > r*k
            (0, 2, 0, 0, None, -1),  # alpha < 0
        ]:
            with pytest.raises(ValueError):
                shape_bounds(*args)

    def test_last_shape_kept_immutable(self):
        # one kept entry: the alphas of a shape share it, a new shape
        # replaces it, and callers cannot change what the next one reads
        from subsums.bounds import _shape_floors

        _shape_floors.cache_clear()
        first = _shape_floors(2, 3, 1, 0, 4)
        for alpha in range(20):
            shape_bounds(2, 3, 1, 0, 4, alpha)
        assert _shape_floors(2, 3, 1, 0, 4) is first
        assert _shape_floors.cache_info().misses == 1
        assert isinstance(first, tuple) and all(
            isinstance(entry, tuple) and isinstance(entry[2], tuple)
            for entry in first)
        _shape_floors(0, 5, 0, 0, None)
        assert _shape_floors(2, 3, 1, 0, 4) is not first
        assert _shape_floors.cache_info().misses == 3
        # equal arguments of another type are kept apart: a bool zero
        # does not reach the next call's int has_zero
        shape_bounds(0, 3, True, 0, None, 0)
        assert type(bound_general(4, 0, True).params["has_zero"]) is int

    def test_full_alpha_sequence_is_degenerate(self):
        assert shape_bounds(1, 2, 1, 1, 3, 12) == []
        assert floor_pairs(1, 2, 1, 1, 3, 12) == []

    def test_shape_bound_by_id(self):
        # n != p, so a swapped side shows
        for theorem_id, shape, direct in [
            ("T2_1", (0, 5, 0, None), bound_disjoint(5, 4)),
            ("C2_2", (0, 4, 1, None), bound_zero(5, 4)),
            ("T2_3", (2, 3, 0, None), bound_mixed(2, 3, 4)),
            ("C2_4", (2, 3, 1, None), bound_mixed_zero(2, 3, 4)),
            ("C2_5", (0, 4, 1, None), bound_general(5, 4, True)),
            ("T3_1_disjoint", (0, 5, 0, 3), bound_seq_disjoint(5, 3, 4)),
            ("T3_1_zero", (0, 4, 1, 3), bound_seq_zero(5, 3, 4)),
            ("T3_2", (2, 3, 0, 3), bound_seq_mixed(2, 3, 3, 4)),
            ("C3_3", (2, 3, 1, 3), bound_seq_mixed_zero(2, 3, 3, 4)),
            ("C3_4", (0, 4, 1, 3), bound_seq_general(5, 3, 4, True)),
        ]:
            assert shape_bound(theorem_id, *shape, 4) == direct
        for theorem_id, shape in [("T1_3", (0, 5, 0, None)),
                                  ("X", (0, 5, 0, None)),
                                  ("T2_3", (0, 5, 0, None))]:
            with pytest.raises(ValueError, match="no set or sequence floor"):
                shape_bound(theorem_id, *shape, 4)
        # a sequence's degenerate alpha = r*k has no floor
        with pytest.raises(ValueError, match=r"out of range \[0, 14\]"):
            shape_bound("T3_1_disjoint", 0, 5, 0, 3, 15)

    def test_shape_bounds_equal_constructors(self):
        # every BoundResult of the dispatch, its value, case label and
        # params, is its public constructor's at that floor's own arguments
        constructors = {
            "T2_1": lambda n, p, z, r, a: bound_disjoint(n + p + z, a),
            "C2_2": lambda n, p, z, r, a: bound_zero(n + p + z, a),
            "T2_3": lambda n, p, z, r, a: bound_mixed(n, p, a),
            "C2_4": lambda n, p, z, r, a: bound_mixed_zero(n, p, a),
            "C2_5": lambda n, p, z, r, a: bound_general(n + p + z, a,
                                                        bool(z)),
            "T3_1_disjoint": lambda n, p, z, r, a: bound_seq_disjoint(
                n + p + z, r, a),
            "T3_1_zero": lambda n, p, z, r, a: bound_seq_zero(n + p + z, r, a),
            "T3_2": lambda n, p, z, r, a: bound_seq_mixed(n, p, r, a),
            "C3_3": lambda n, p, z, r, a: bound_seq_mixed_zero(n, p, r, a),
            "C3_4": lambda n, p, z, r, a: bound_seq_general(n + p + z, r, a,
                                                            bool(z)),
        }
        results = 0
        for n, p, zero, meet in valid_shapes():
            for r in (None, 1, 2, 3, 4):
                for alpha in range((n + p + zero) * (r or 1) + 1):
                    for b in shape_bounds(n, p, zero, meet, r, alpha):
                        direct = constructors[b.theorem_id](n, p, zero, r,
                                                            alpha)
                        # params in order: they are written to JSON as is
                        assert (b, list(b.params.items())) == (
                            direct, list(direct.params.items()))
                        results += 1
        assert results == 32058


def valid_shapes():
    """Every sign shape (n, p, zero, meet) with n, p <= 6 that a set can
    have: meet needs a negative and a positive."""
    for n in range(7):
        for p in range(7):
            for zero in (0, 1):
                for meet in (0, 1) if n and p else (0,):
                    if n + p + zero:
                        yield n, p, zero, meet


class TestShapeFloorRows:
    """The row form of the dispatch that sweeps read: one row per
    applicable theorem over every alpha, filled block by block."""

    def test_rows_match_one_alpha_dispatch(self):
        points = 0
        lowest = {"C2_5": 2, "C3_4": 2}
        for n, p, zero, meet in valid_shapes():
            k = n + p + zero
            for r in (None, 1, 2, 3, 4, 5, 6):
                top = k * (r or 1)
                rows = shape_floor_rows(n, p, zero, meet, r)
                # a row ends at the last alpha with a floor: k for a set,
                # r*k - 1 for a sequence
                assert all(len(row) == top + (r is None) for _, row in rows)
                for alpha in range(top + 1):
                    points += 1
                    pairs = bound_pairs(n, p, zero, meet, r, alpha)
                    assert pairs == floor_pairs(n, p, zero, meet, r, alpha)
                    for value, theorem_id in pairs:
                        if theorem_id in lowest:
                            lowest[theorem_id] = min(lowest[theorem_id], value)
                # which floors hold is decided per (shape, r), and no row
                # holds None
                assert all(None not in row for _, row in rows)
        assert points == 27077
        # vacuous points keep their values, far below 1
        assert lowest["C2_5"] < 0 and lowest["C3_4"] < 0

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(0, 32), p=st.integers(0, 32), zero=st.integers(0, 1),
           meet=st.integers(0, 1), r=st.none() | st.integers(1, 64),
           picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=40))
    # long blocks, a repeated and out-of-order list, the degenerate alpha
    @example(n=3, p=2, zero=1, meet=1, r=64, picks=[384, 5, 5, 0, 64, 383])
    @example(n=0, p=32, zero=0, meet=0, r=None, picks=[32, 31, 31, 0])
    def test_full_range_rows_equal_per_alpha_path(self, n, p, zero, meet, r,
                                                  picks):
        assume(n + p + zero)
        meet = meet if n and p else 0
        top = (n + p + zero) * (r or 1)
        # the rows are filled block by block, shape_bounds alpha by alpha
        rows = shape_floor_rows(n, p, zero, meet, r)
        for alpha in [pick % (top + 1) for pick in picks]:
            assert bound_pairs(n, p, zero, meet, r, alpha) == [
                (row[alpha], theorem_id) for theorem_id, row in rows
                if alpha < len(row)]

    def test_rows_fresh_on_each_call(self):
        # _shape_floors keeps its last shape, but each call builds its own
        # rows: a write into one call's row does not reach the next call
        for shape in [(1, 2, 1, 0, 3), (1, 2, 1, 0, None)]:
            first = shape_floor_rows(*shape)
            again = shape_floor_rows(*shape)
            assert first == again and first is not again
            for (_, row), (_, other) in zip(first, again):
                assert row is not other
                row[-1] = 0
                row[0] = -1
            assert shape_floor_rows(*shape) == again

    def test_out_of_range_alpha_refused_as_one_alpha(self):
        for n, p, zero, meet in valid_shapes():
            k = n + p + zero
            for r in (None, 1, 3):
                top = k * (r or 1)
                for bad in (-1, top + 1):
                    message = rf"^alpha={bad} out of range \[0, {top}\]$"
                    with pytest.raises(ValueError, match=message):
                        shape_bounds(n, p, zero, meet, r, bad)

    def test_validation(self):
        for call in (shape_floor_rows, lambda *shape: shape_bounds(*shape, 0)):
            with pytest.raises(ValueError, match="at least one element"):
                call(0, 0, 0, 0, None)
            with pytest.raises(ValueError, match="r must be >= 1"):
                call(1, 1, 0, 0, 0)
            # shapes no set has: a negative side, zero or meet outside
            # {0, 1}, a meet without both signs
            for shape in [(-1, 3, 0, 0, None), (2, -1, 0, 0, 2),
                          (0, 2, 2, 0, None), (1, 1, 0, 2, None),
                          (1, 1, -1, 1, 3), (0, 2, 0, 1, None),
                          (2, 0, 1, 1, 2)]:
                with pytest.raises(ValueError, match="no set has the sign shape"):
                    call(*shape)
        # T3_1_disjoint and T3_2 over alpha 0 .. 3; none at alpha 4
        rows = shape_floor_rows(1, 1, 0, 0, 2)
        assert [(theorem_id, len(row)) for theorem_id, row in rows] == [
            ("T3_1_disjoint", 4), ("T3_2", 4)]
        assert shape_bounds(1, 1, 0, 0, 2, 4) == []


class TestVacuousPoints:
    """The sign-agnostic floor r((k + 1 - zero)^2 // 4 - T(i - zero)) + 1
    is at most 1 exactly where T(i - zero) reaches the core
    (k + 1 - zero)^2 // 4, and at most 0 where it passes it. Those points
    are kept with their values, not clamped."""

    @pytest.mark.parametrize("theorem_id,ks,rs,counts,lowest", [
        ("C2_5", range(2, 30), [None], (266, 259), -209),
        ("C3_4", range(3, 12), [1, 2, 3, 4], (410, 380), -119),
    ])
    def test_exactly_the_predicted_points(self, theorem_id, ks, rs, counts,
                                          lowest):
        found, predicted = (set(), set()), (set(), set())
        values = []
        for k in ks:
            for zero in (0, 1):
                core = (k + 1 - zero) ** 2 // 4
                for r in rs:
                    rows = dict(shape_floor_rows(0, k - zero, zero, 0, r))
                    for alpha, value in enumerate(rows[theorem_id]):
                        i = alpha if r is None else alpha // r + 1
                        tri = (i - zero) * (i - zero + 1) // 2
                        point = (k, zero, r, alpha)
                        if value <= 1:
                            found[0].add(point)
                            values.append(value)
                        if value <= 0:
                            found[1].add(point)
                        if tri >= core:
                            predicted[0].add(point)
                        if tri > core:
                            predicted[1].add(point)
        assert (len(found[0]), len(found[1])) == counts
        assert found == predicted
        assert min(values) == lowest


class TestResultShape:
    def test_label_formats(self):
        assert bound_disjoint(4, 2).label() == "T2_1"
        assert bound_mixed(2, 2, 3).label() == "T2_3(iv)"

    def test_json_round_trip_keys(self):
        js = bound_seq_mixed(1, 2, 2, 3).to_json()
        assert js == {
            "theorem_id": "T3_2",
            "case": "iii",
            "value": 8,
            "params": {"n": 1, "p": 2, "r": 2, "alpha": 3, "m": 2},
        }

    def test_identifier_registry(self):
        assert len(ALL_THEOREM_IDS) == len(set(ALL_THEOREM_IDS)) == 13
        assert "T3_1_disjoint" in ALL_THEOREM_IDS

    def test_results_are_frozen(self):
        res = bound_disjoint(3, 1)
        with pytest.raises(AttributeError):
            res.value = 99  # type: ignore[misc]
