"""Extremal constructions: shape of each family, and tightness of the
matched floor across full threshold ranges at moderate sizes."""

import sys
import tracemalloc

import pytest

from subsums import engine, witnesses
from subsums.bounds import applicable_bounds
from subsums.engine import sigma_size
from subsums.model import BudgetExceeded, IntegerSet, RepSequence, as_sequence
from subsums.witnesses import (
    FAMILY_IDS,
    MIXED_FULL,
    MIXED_FULL_R,
    MIXED_PUNCTURED,
    MIXED_PUNCTURED_R,
    NONNEG_INTERVAL,
    NONNEG_INTERVAL_R,
    POS_INTERVAL,
    POS_INTERVAL_R,
    WitnessFamily,
    alpha_values,
    check_tightness,
    claimed_bound,
    witness,
)


class TestConstruction:
    def test_pos_interval(self):
        inst = witness(WitnessFamily(POS_INTERVAL, k=4))
        assert isinstance(inst, IntegerSet)
        assert inst.elements == (1, 2, 3, 4)

    def test_nonneg_interval(self):
        inst = witness(WitnessFamily(NONNEG_INTERVAL, k=4))
        assert inst.elements == (0, 1, 2, 3)

    def test_mixed_punctured(self):
        inst = witness(WitnessFamily(MIXED_PUNCTURED, n=2, p=3))
        assert inst.elements == (-2, -1, 1, 2, 3)
        assert 0 not in inst.elements

    def test_mixed_full(self):
        inst = witness(WitnessFamily(MIXED_FULL, n=1, p=2))
        assert inst.elements == (-1, 0, 1, 2)

    def test_sequence_variants_repeat_base(self):
        inst = witness(WitnessFamily(POS_INTERVAL_R, k=3, r=2))
        assert isinstance(inst, RepSequence)
        assert inst.base.elements == (1, 2, 3)
        assert inst.r == 2
        assert inst.length == 6

    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_every_family_materializes(self, fid):
        if fid.endswith("-r"):
            fam = (
                WitnessFamily(fid, k=3, r=2)
                if "interval" in fid
                else WitnessFamily(fid, n=2, p=2, r=2)
            )
        else:
            fam = (
                WitnessFamily(fid, k=3)
                if "interval" in fid
                else WitnessFamily(fid, n=2, p=2)
            )
        inst = witness(fam)
        assert isinstance(inst, (IntegerSet, RepSequence))


class TestValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            WitnessFamily("pos-ray", k=3)

    def test_interval_needs_k(self):
        with pytest.raises(ValueError):
            WitnessFamily(POS_INTERVAL)
        with pytest.raises(ValueError):
            WitnessFamily(POS_INTERVAL, k=0)
        with pytest.raises(ValueError):
            WitnessFamily(POS_INTERVAL, n=1, p=1)

    def test_sequence_interval_needs_two_elements(self):
        with pytest.raises(ValueError):
            WitnessFamily(POS_INTERVAL_R, k=1, r=2)
        WitnessFamily(POS_INTERVAL_R, k=2, r=1)  # minimum accepted

    def test_mixed_needs_n_and_p(self):
        with pytest.raises(ValueError):
            WitnessFamily(MIXED_PUNCTURED, n=1)
        with pytest.raises(ValueError):
            WitnessFamily(MIXED_PUNCTURED, n=0, p=1)
        with pytest.raises(ValueError):
            WitnessFamily(MIXED_FULL, k=3)

    def test_r_only_on_sequence_families(self):
        with pytest.raises(ValueError):
            WitnessFamily(POS_INTERVAL, k=3, r=2)
        with pytest.raises(ValueError):
            WitnessFamily(MIXED_FULL_R, n=1, p=1)  # r missing
        with pytest.raises(ValueError):
            WitnessFamily(MIXED_FULL_R, n=1, p=1, r=0)


class TestSpotTightness:
    def test_pos_interval_alpha2(self):
        rep = check_tightness(WitnessFamily(POS_INTERVAL, k=4), 2)
        assert rep.computed_size == 8
        assert rep.bound.value == 8
        assert rep.tight

    def test_nonneg_interval_r(self):
        rep = check_tightness(WitnessFamily(NONNEG_INTERVAL_R, k=2, r=2), 0)
        assert rep.computed_size == 3
        assert rep.tight

    def test_mixed_full_alpha3(self):
        rep = check_tightness(WitnessFamily(MIXED_FULL, n=2, p=2), 3)
        assert rep.computed_size == 7
        assert rep.bound.case_label == "iv"
        assert rep.tight

    def test_report_json_shape(self):
        rep = check_tightness(WitnessFamily(MIXED_PUNCTURED_R, n=1, p=1, r=2), 3)
        js = rep.to_json()
        assert js["family"] == MIXED_PUNCTURED_R
        assert js["n"] == 1 and js["p"] == 1 and js["r"] == 2
        assert js["alpha"] == 3
        assert js["tight"] is True
        assert js["bound"]["theorem_id"] == "T3_2"


class TestAlphaRanges:
    def test_set_range_includes_k(self):
        fam = WitnessFamily(POS_INTERVAL, k=5)
        assert list(alpha_values(fam)) == [0, 1, 2, 3, 4, 5]

    def test_sequence_range_stops_short_of_full(self):
        fam = WitnessFamily(POS_INTERVAL_R, k=3, r=2)
        assert list(alpha_values(fam)) == [0, 1, 2, 3, 4, 5]
        fam = WitnessFamily(MIXED_FULL_R, n=1, p=1, r=2)
        assert max(alpha_values(fam)) == 5  # r*(n+p+1) - 1


def _moderate_families():
    for k in range(1, 8):
        yield WitnessFamily(POS_INTERVAL, k=k)
        yield WitnessFamily(NONNEG_INTERVAL, k=k)
    for n in range(1, 4):
        for p in range(1, 4):
            yield WitnessFamily(MIXED_PUNCTURED, n=n, p=p)
            yield WitnessFamily(MIXED_FULL, n=n, p=p)
    for r in (1, 2, 3):
        for k in range(2, 5):
            yield WitnessFamily(POS_INTERVAL_R, k=k, r=r)
            yield WitnessFamily(NONNEG_INTERVAL_R, k=k, r=r)
        for n in range(1, 3):
            for p in range(1, 3):
                yield WitnessFamily(MIXED_PUNCTURED_R, n=n, p=p, r=r)
                yield WitnessFamily(MIXED_FULL_R, n=n, p=p, r=r)


@pytest.mark.parametrize("fam", list(_moderate_families()), ids=str)
def test_tight_for_every_alpha(fam):
    for alpha in alpha_values(fam):
        rep = check_tightness(fam, alpha)
        assert rep.tight, (fam, alpha, rep.computed_size, rep.bound.value)


@pytest.mark.parametrize("fam", list(_moderate_families()), ids=str)
def test_sizes_match_sigma_size(fam):
    inst = as_sequence(witness(fam))
    for alpha in alpha_values(fam):
        assert check_tightness(fam, alpha).computed_size == sigma_size(inst, alpha)


def test_alpha_out_of_range_refused():
    fam = WitnessFamily(POS_INTERVAL_R, k=2, r=2)
    for alpha in (-1, 5):
        with pytest.raises(ValueError, match="out of range"):
            check_tightness(fam, alpha)


@pytest.mark.parametrize("alpha", [-1, 10**8 + 1])
def test_alpha_out_of_range_refused_before_the_family(alpha, monkeypatch):
    # the claimed floor's constructor refuses the alpha first, so a family
    # too large for its DP is neither budgeted nor built
    def no_work(*args):
        raise AssertionError("the family was built")

    witnesses._sizes.cache_clear()
    monkeypatch.setattr(witnesses, "IntegerSet", no_work)
    monkeypatch.setattr(engine, "check_layer_bits", no_work)
    with pytest.raises(ValueError,
                       match=rf"alpha={alpha} out of range \[0, 100000000\]"):
        check_tightness(WitnessFamily(POS_INTERVAL, k=10**8), alpha)


def test_sizes_keep_no_list_of_unions():
    # the suffix unions are counted as they are formed, so the peak is
    # the DP's layers plus a few unions, not plus a second list of them
    fam = WitnessFamily(POS_INTERVAL_R, k=32, r=32)
    layers, _ = engine.sequence_layers(as_sequence(witness(fam)))
    witnesses._sizes.cache_clear()
    tracemalloc.start()
    try:
        sizes = witnesses._sizes(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == tuple(map(int.bit_count, engine.suffix_unions(layers)))
    ratio = peak / sum(map(sys.getsizeof, layers))
    assert ratio < 2.2, ratio


def test_claimed_bound_matches_family_theorem():
    pairs = [
        (WitnessFamily(POS_INTERVAL, k=3), "T2_1"),
        (WitnessFamily(NONNEG_INTERVAL, k=3), "C2_2"),
        (WitnessFamily(MIXED_PUNCTURED, n=1, p=1), "T2_3"),
        (WitnessFamily(MIXED_FULL, n=1, p=1), "C2_4"),
        (WitnessFamily(POS_INTERVAL_R, k=2, r=2), "T3_1_disjoint"),
        (WitnessFamily(NONNEG_INTERVAL_R, k=2, r=2), "T3_1_zero"),
        (WitnessFamily(MIXED_PUNCTURED_R, n=1, p=1, r=2), "T3_2"),
        (WitnessFamily(MIXED_FULL_R, n=1, p=1, r=2), "C3_3"),
    ]
    for fam, tid in pairs:
        assert claimed_bound(fam, 0).theorem_id == tid
    # at every alpha the claimed floor's hypotheses hold for the family's
    # instance: the dispatch lists it, with the same value and case
    for fam in _moderate_families():
        inst = witness(fam)
        for alpha in alpha_values(fam):
            assert claimed_bound(fam, alpha) in applicable_bounds(inst, alpha)


@pytest.mark.parametrize("fam", list(_moderate_families()), ids=str)
def test_budget_closed_form_is_the_dp_estimate(fam, monkeypatch):
    # the family's layer budget, checked before its base is built, is
    # the one the DP checks on the built instance
    calls = []
    real = engine.check_layer_bits

    def recording(*args):
        calls.append(args)
        return real(*args)

    witnesses._sizes.cache_clear()
    monkeypatch.setattr(engine, "check_layer_bits", recording)
    check_tightness(fam, 0)
    assert len(calls) == 2 and calls[0] == calls[1], calls


@pytest.mark.parametrize("fam", [
    WitnessFamily(POS_INTERVAL, k=10**8),
    WitnessFamily(NONNEG_INTERVAL_R, k=10**6, r=64),
    WitnessFamily(MIXED_FULL, n=10**6, p=10**6),
    WitnessFamily(MIXED_PUNCTURED_R, n=10**5, p=1, r=2),
], ids=str)
def test_family_too_large_refused_before_build(fam, monkeypatch):
    def no_build(elements):
        raise AssertionError("the base was built")

    witnesses._sizes.cache_clear()
    monkeypatch.setattr(witnesses, "IntegerSet", no_build)
    with pytest.raises(BudgetExceeded, match="count-layer DP needs up to"):
        check_tightness(fam, 0)
    # witness itself refuses too, not only the checker that wraps it
    with pytest.raises(BudgetExceeded, match="count-layer DP needs up to"):
        witness(fam)


def test_witness_refuses_at_the_dp_budget():
    # pos-interval's DP needs (k + 1) + k*k(k + 1)/2 layer bits: k = 1289
    # is the largest within LAYER_BITS_BUDGET = 2^30
    assert witness(WitnessFamily(POS_INTERVAL, k=1289)).k == 1289
    with pytest.raises(BudgetExceeded, match="count-layer DP needs up to"):
        witness(WitnessFamily(POS_INTERVAL, k=1290))
