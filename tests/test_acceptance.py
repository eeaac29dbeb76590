"""Acceptance gate. Each test runs one criterion end to end at its
stated tolerance and prints a single PASS/FAIL line with the headline
numbers; pytest's own per-test verdict mirrors that line."""

import itertools
import time

from subsums import engine, oracle
from subsums.bounds import (
    bound_disjoint,
    bound_mixed,
    bound_seq_disjoint,
    bound_seq_mixed,
)
from subsums.fp import is_prime, verify_balandraud
from subsums.model import AT_LEAST, AT_MOST, IntegerSet, RepSequence
from subsums.verifier import sweep_sets, sweep_sequences
from subsums.witnesses import (
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
)


def _gate(criterion: str, body):
    """Run one criterion; emit exactly one pass/fail line."""
    started = time.perf_counter()
    try:
        detail = body()
    except AssertionError as exc:
        print(f"FAIL {criterion}: {exc}")
        raise
    elapsed = time.perf_counter() - started
    print(f"PASS {criterion}: {detail} [{elapsed:.2f}s]")


def test_criterion_1_oracle_equivalence():
    def body():
        set_checks = 0
        spot = 0
        deadline = 300.0
        started = time.perf_counter()
        for k in range(2, 7):
            for elems in itertools.combinations(range(-8, 9), k):
                a = IntegerSet(elems)
                by_size = oracle.subset_sums_by_size(a)
                suffix = [set() for _ in range(k + 2)]
                for c in range(k, -1, -1):
                    suffix[c] = suffix[c + 1] | by_size[c]
                prefix: list[set] = []
                running: set = set()
                for c in range(k + 1):
                    running = running | by_size[c]
                    prefix.append(running)
                for alpha in range(k + 1):
                    low = engine.sigma(a, alpha, AT_LEAST)
                    assert set(low.sums) == suffix[alpha], (elems, alpha)
                    high = engine.sigma(a, alpha, AT_MOST)
                    assert set(high.sums) == prefix[k - alpha], (elems, alpha)
                    set_checks += 2
                    if set_checks % 1009 == 0:
                        # strided re-derivation through the public oracle
                        assert low.sums == oracle.oracle_sigma_set(a, alpha).sums
                        spot += 1
        seq_checks = 0
        for k in range(2, 5):
            for elems in itertools.combinations(range(-4, 5), k):
                base = IntegerSet(elems)
                for r in (2, 3):
                    s = RepSequence(base, r)
                    by_size = oracle.sequence_sums_by_size(s)
                    total = r * k
                    suffix = [set() for _ in range(total + 2)]
                    for c in range(total, -1, -1):
                        suffix[c] = suffix[c + 1] | by_size[c]
                    for alpha in range(total + 1):
                        got = engine.sigma_seq(s, alpha, AT_LEAST)
                        assert set(got.sums) == suffix[alpha], (elems, r, alpha)
                        seq_checks += 1
                        if seq_checks % 509 == 0:
                            assert got.sums == oracle.oracle_sigma_seq(s, alpha).sums
                            spot += 1
        elapsed = time.perf_counter() - started
        assert elapsed < deadline, f"took {elapsed:.1f}s, limit {deadline}s"
        return (
            f"{set_checks} set checks and {seq_checks} sequence checks "
            f"match the enumeration oracle ({spot} strided direct calls)"
        )

    _gate("criterion 1 (engine equals oracle)", body)


def test_criterion_2_set_bound_soundness():
    def body():
        rep = sweep_sets(6, range(2, 6))
        assert rep.violations == 0, f"{rep.violations} violations"
        assert rep.instances == 2366
        assert rep.elapsed_ms < 120_000
        return (
            f"{rep.checks} floor checks over {rep.instances} sets, "
            f"0 violations"
        )

    _gate("criterion 2 (set floors sound)", body)


def test_criterion_3_sequence_bound_soundness():
    def body():
        rep = sweep_sequences(3, range(2, 5), range(2, 4))
        assert rep.violations == 0, f"{rep.violations} violations"
        assert rep.instances == 182
        assert rep.elapsed_ms < 300_000
        return (
            f"{rep.checks} floor checks over {rep.instances} sequences, "
            f"0 violations"
        )

    _gate("criterion 3 (sequence floors sound)", body)


def test_criterion_4_witness_tightness():
    def body():
        fams = []
        for k in range(1, 13):
            fams.append(WitnessFamily(POS_INTERVAL, k=k))
            fams.append(WitnessFamily(NONNEG_INTERVAL, k=k))
        for n in range(1, 6):
            for p in range(1, 6):
                fams.append(WitnessFamily(MIXED_PUNCTURED, n=n, p=p))
                fams.append(WitnessFamily(MIXED_FULL, n=n, p=p))
        for r in range(1, 5):
            for k in range(2, 9):
                fams.append(WitnessFamily(POS_INTERVAL_R, k=k, r=r))
                fams.append(WitnessFamily(NONNEG_INTERVAL_R, k=k, r=r))
        for r in range(1, 4):
            for n in range(1, 5):
                for p in range(1, 5):
                    fams.append(WitnessFamily(MIXED_PUNCTURED_R, n=n, p=p, r=r))
                    fams.append(WitnessFamily(MIXED_FULL_R, n=n, p=p, r=r))
        checks = 0
        for fam in fams:
            for alpha in alpha_values(fam):
                rep = check_tightness(fam, alpha)
                assert rep.tight, (
                    f"{fam} alpha={alpha}: size {rep.computed_size} "
                    f"!= floor {rep.bound.value}"
                )
                checks += 1
        return f"{len(fams)} witness instances tight at all {checks} thresholds"

    _gate("criterion 4 (extremal witnesses tight)", body)


def test_criterion_5_spot_values():
    def body():
        cases = [
            (
                bound_disjoint(4, 2),
                8,
                engine.sigma(IntegerSet((1, 2, 3, 4)), 2).size,
            ),
            (
                bound_mixed(2, 2, 3),
                5,
                engine.sigma(IntegerSet((-2, -1, 1, 2)), 3).size,
            ),
            (
                bound_seq_disjoint(2, 2, 0),
                7,
                engine.sigma_seq(RepSequence(IntegerSet((1, 2)), 2), 0).size,
            ),
            (
                bound_seq_mixed(1, 1, 2, 3),
                3,
                engine.sigma_seq(RepSequence(IntegerSet((-1, 1)), 2), 3).size,
            ),
        ]
        for res, frozen, computed in cases:
            assert res.value == frozen, f"{res.label()} = {res.value} != {frozen}"
            assert computed == frozen, (
                f"{res.label()} witness size {computed} != {frozen}"
            )
        return "4 frozen floor values equal their witness sizes"

    _gate("criterion 5 (spot values)", body)


def test_criterion_6_prime_field_sweep():
    def body():
        started = time.perf_counter()
        primes = [p for p in range(2, 20) if is_prime(p)]
        total_checks = 0
        for p in primes:
            rep = verify_balandraud(p)
            assert rep.violations == 0, f"p={p}: {rep.violations} violations"
            total_checks += rep.checks
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0, f"took {elapsed:.1f}s, limit 120s"
        return (
            f"primes {primes}: {total_checks} checks, 0 violations"
        )

    _gate("criterion 6 (prime-field floor sound)", body)


def _prop_duality() -> int:
    checks = 0
    for k in range(1, 6):
        for elems in itertools.combinations(range(-3, 4), k):
            a = IntegerSet(elems)
            total = a.total
            for alpha in range(k + 1):
                low = engine.sigma(a, alpha, AT_LEAST)
                high = engine.sigma(a, alpha, AT_MOST)
                assert low.size == high.size
                assert low.sums == tuple(sorted(total - s for s in high.sums))
                checks += 1
    return checks


def _prop_nesting() -> int:
    checks = 0
    for k in range(1, 6):
        for elems in itertools.combinations(range(-4, 5), k):
            a = IntegerSet(elems)
            prev = set(engine.sigma(a, 0).sums)
            for alpha in range(1, k + 1):
                cur = set(engine.sigma(a, alpha).sums)
                assert cur <= prev, (elems, alpha)
                prev = cur
                checks += 1
    return checks


def _prop_dilation() -> int:
    checks = 0
    for k in range(1, 5):
        for elems in itertools.combinations(range(-3, 4), k):
            a = IntegerSet(elems)
            for factor in (-2, -1, 2, 3):
                scaled = a.dilate(factor)
                for alpha in range(k + 1):
                    direct = engine.sigma(scaled, alpha).sums
                    mapped = tuple(
                        sorted(factor * s for s in engine.sigma(a, alpha).sums)
                    )
                    assert direct == mapped, (elems, factor, alpha)
                    checks += 1
    return checks


def _prop_r1_agreement() -> int:
    checks = 0
    for k in range(1, 6):
        for elems in itertools.combinations(range(-4, 5), k):
            a = IntegerSet(elems)
            s = RepSequence(a, 1)
            for alpha in range(k + 1):
                assert engine.sigma_seq(s, alpha).sums == engine.sigma(a, alpha).sums
                checks += 1
    return checks


def _prop_generalized_one_is_restricted() -> int:
    checks = 0
    for k in range(1, 6):
        for elems in itertools.combinations(range(-3, 4), k):
            a = IntegerSet(elems)
            for h in range(0, k + 1):
                lhs = engine.fold_fast(a, h, "generalized", r=1)
                rhs = engine.fold_fast(a, h, "restricted")
                assert lhs.sums == rhs.sums, (elems, h)
                checks += 1
    return checks


def _prop_generalized_saturates_to_unrestricted() -> int:
    checks = 0
    for k in range(1, 5):
        for elems in itertools.combinations(range(-3, 4), k):
            a = IntegerSet(elems)
            for h in range(1, 7):
                lhs = engine.fold_fast(a, h, "generalized", r=h)
                rhs = engine.fold_fast(a, h, "unrestricted")
                assert lhs.sums == rhs.sums, (elems, h)
                checks += 1
    return checks


def test_criterion_7_algebraic_properties():
    def body():
        counts = {
            "duality": _prop_duality(),
            "nesting": _prop_nesting(),
            "dilation": _prop_dilation(),
            "r1-agreement": _prop_r1_agreement(),
            "generalized(1)=restricted": _prop_generalized_one_is_restricted(),
            "generalized(r>=h)=unrestricted": (
                _prop_generalized_saturates_to_unrestricted()
            ),
        }
        for name, count in counts.items():
            assert count >= 500, f"{name} covered only {count} instances"
        summary = ", ".join(f"{name} x{count}" for name, count in counts.items())
        return f"6 properties hold: {summary}"

    _gate("criterion 7 (algebraic properties)", body)


def test_criterion_8_performance_floor():
    def body():
        values = tuple(range(-100, 101, 3))[:60]
        a = IntegerSet(values)
        started = time.perf_counter()
        engine.sigma(a, 17)
        set_elapsed = time.perf_counter() - started
        assert set_elapsed < 1.0, f"set sigma took {set_elapsed:.3f}s"

        base = IntegerSet(tuple(range(-50, 51, 3))[:30])
        s = RepSequence(base, 8)
        started = time.perf_counter()
        engine.sigma_seq(s, 123)
        seq_elapsed = time.perf_counter() - started
        assert seq_elapsed < 5.0, f"sequence sigma took {seq_elapsed:.3f}s"
        return (
            f"k=60 set in {set_elapsed * 1000:.0f}ms (limit 1s), "
            f"k=30 r=8 sequence in {seq_elapsed * 1000:.0f}ms (limit 5s)"
        )

    _gate("criterion 8 (performance floor)", body)
