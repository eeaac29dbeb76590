"""Exhaustive verification campaigns: counts, determinism, budget
refusal, empirical minima, and report serialization."""

import csv
import functools
import hashlib
import itertools
import json
import math
import random
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subsums import engine, verifier
from subsums.fp import verify_balandraud
from subsums.bounds import applicable_bounds, shape_bounds, shape_floor_rows
from subsums.model import (
    BudgetExceeded, IntegerSet, RepSequence, classify, parse_sequence,
    parse_set,
)
from subsums.oracle import oracle_sigma_set
from subsums.verifier import (
    WITNESS_CAP,
    CampaignReport,
    empirical_minimum,
    sweep_sets,
    sweep_sequences,
    write_records_csv,
)


class TestSetSweep:
    def test_small_universe_counts(self):
        rep = sweep_sets(2, range(2, 5), oracle_check=True)
        assert rep.instances == 25  # C(5,2) + C(5,3) + C(5,4)
        assert rep.violations == 0
        assert rep.oracle_checked == 95  # one per (instance, alpha) pair
        assert rep.checks == 204
        assert set(rep.tight_by_theorem) == {"T2_1", "C2_2", "T2_3", "C2_4", "C2_5"}

    def test_no_oracle_by_default(self):
        rep = sweep_sets(1, [2])
        assert rep.oracle_checked == 0
        assert rep.violations == 0

    def test_minima_cells(self):
        rep = sweep_sets(1, [2])
        assert rep.minima[0] == {
            "k": 2,
            "alpha": 0,
            "size": 2,
            "witnesses": ["{-1,0}", "{0,1}"],
        }
        by_alpha = {cell["alpha"]: cell for cell in rep.minima}
        assert by_alpha[2]["size"] == 1
        assert by_alpha[2]["witnesses"] == ["{-1,0}", "{-1,1}", "{0,1}"]

    def test_every_alpha_is_checked(self):
        # the universe still names the policy, and each instance of r*k
        # elements has a record and a minima cell at alphas 0..r*k
        rep = sweep_sequences(1, [2], [1, 2], collect_records=True)
        assert rep.universe["alpha_policy"] == "all"
        assert len(rep.records) == 3 * (3 + 5)
        assert [(c["r"], c["alpha"]) for c in rep.minima] == (
            [(1, alpha) for alpha in range(3)]
            + [(2, alpha) for alpha in range(5)])

    def test_options_are_keywords(self):
        # an old positional alpha policy or oracle flag is an error, not
        # a run with the oracle switched on
        with pytest.raises(TypeError):
            sweep_sequences(1, [2], [1], "all")
        with pytest.raises(TypeError):
            sweep_sets(1, [2], "all", True)

    def test_rejects_bad_k_range(self):
        with pytest.raises(ValueError):
            sweep_sets(2, [])
        with pytest.raises(ValueError):
            sweep_sets(2, [0, 2])

    def test_rejects_negative_budget(self):
        # a bad argument, not a refusal; a budget of 0 still refuses
        for budget in (-5, -1):
            with pytest.raises(ValueError, match=f"budget must be >= 0, got {budget}"):
                sweep_sets(1, [2], budget=budget)
            with pytest.raises(ValueError, match=f"budget must be >= 0, got {budget}"):
                sweep_sequences(1, [2], [2], budget=budget)
        with pytest.raises(BudgetExceeded):
            sweep_sets(1, [2], budget=0)
        with pytest.raises(BudgetExceeded):
            sweep_sequences(1, [2], [2], budget=0)

    def test_budget_refusal_is_upfront(self):
        with pytest.raises(BudgetExceeded, match="budget"):
            sweep_sets(50, [10])

    def test_custom_budget(self):
        with pytest.raises(BudgetExceeded):
            sweep_sets(2, [2], budget=10)  # needs 30 pairs


class TestSequenceSweep:
    def test_small_universe_counts(self):
        rep = sweep_sequences(1, [2], [2], oracle_check=True)
        assert rep.instances == 3
        assert rep.violations == 0
        assert rep.oracle_checked == 15  # 3 instances x 5 thresholds
        assert rep.checks == 12  # the full-length threshold has no floor

    def test_minima_cells_carry_r(self):
        rep = sweep_sequences(1, [2], [2])
        cell = rep.minima[0]
        assert cell["k"] == 2 and cell["r"] == 2 and cell["alpha"] == 0
        assert cell["size"] == 3
        assert cell["witnesses"] == ["{-1,0}", "{0,1}"]

    def test_oracle_mismatch_names_the_instance(self, monkeypatch):
        # the instance literal is formatted only for this message
        monkeypatch.setattr(verifier, "_oracle_suffixes",
                            lambda elems, r: [()] * (len(elems) * (r or 1) + 1))
        with pytest.raises(RuntimeError,
                           match=r"^engine/oracle mismatch on \{-1,0\} r=2 alpha=0$"):
            sweep_sequences(1, [2], [2], oracle_check=True)
        with pytest.raises(RuntimeError,
                           match=r"^engine/oracle mismatch on \{-1\} alpha=0$"):
            sweep_sets(1, [1], oracle_check=True)

    def test_rejects_bad_r_range(self):
        with pytest.raises(ValueError):
            sweep_sequences(1, [2], [])
        with pytest.raises(ValueError):
            sweep_sequences(1, [2], [0])

    def test_budget_counts_alpha_pairs(self):
        with pytest.raises(BudgetExceeded):
            sweep_sequences(1, [2], [2], budget=14)  # needs 15 pairs


class TestWalkPathBudget:
    """A path to depth kmax holds sum over d <= kmax and m in mults of
    m*d + 1 suffix unions of at most 2*offset + 1 bits each."""

    @pytest.fixture
    def no_walk(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(engine, "extend_suffixes", fail)
        monkeypatch.setattr(verifier, "_walk_unit", fail)

    @pytest.mark.parametrize("max_abs, k, bits", [
        (150, 301, 302 * 303 // 2 * (2 * 301 * 150 + 1)),
        (1000, 2001, 2002 * 2003 // 2 * (2 * 2001 * 1000 + 1)),
    ])
    def test_refused_before_the_walk(self, max_abs, k, bits, no_walk):
        # one instance: 302 and 2,002 pairs are within the pair budget
        assert bits > verifier.LAYER_BITS_BUDGET
        with pytest.raises(BudgetExceeded,
                           match=f"walk path needs up to {bits} union bits; "
                                 f"budget is {verifier.LAYER_BITS_BUDGET}"):
            sweep_sets(max_abs, [k])

    def test_sequences_count_every_multiplicity(self, no_walk):
        # kmax = 2 and offset 4*2*max_abs: m = 1..4 keep 3m + 3 unions on
        # the path, 42 in all; m = 4 alone, 15, would fit the budget
        max_abs = 2 * 10**6
        bits = 42 * (2 * 4 * 2 * max_abs + 1)
        assert 15 * bits // 42 < verifier.LAYER_BITS_BUDGET < bits
        with pytest.raises(BudgetExceeded, match=f"needs up to {bits} union"):
            sweep_sequences(max_abs, [1, 2], [1, 2, 3, 4], budget=10**20)

    def test_edge_admitted(self, monkeypatch):
        # (100, [201]) holds 8.2*10^8 bits on its deepest path; the
        # acceptance universes hold far less
        monkeypatch.setattr(verifier, "_walk_unit",
                            lambda payload: verifier.new_aggregate())
        for call in (lambda: sweep_sets(100, [201]),
                     lambda: sweep_sets(12, range(1, 8), budget=10**7),
                     lambda: sweep_sequences(6, range(2, 6), range(1, 9),
                                             budget=10**7)):
            assert call().instances == 0

    def test_empirical_minimum_refused_before_listing(self, monkeypatch):
        # "require" at k = 1 walks the empty subset of 2*10^9 values: one
        # instance, whose offset 10^9 alone is 2*10^9 + 1 bits
        def fail(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(verifier, "_walk", fail)
        with pytest.raises(BudgetExceeded,
                           match="walk path needs up to 2000000001 union bits"):
            empirical_minimum(1, 0, 10**9, "require")

    def test_empirical_minimum_counts_before_listing(self):
        # the parent listed the 2*10^6 nonzero values first: 94 MB
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match="minimum search needs"):
                empirical_minimum(2, 0, 10**6, "forbid")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


class TestOracleBudget:
    """With the oracle on, its multiplicity vectors, (r + 1)^k per
    instance and r (2^k for a set), count against the budget before the
    walk."""

    def test_count_is_the_enumerated_vectors(self, monkeypatch):
        # the closed form counts the vectors the oracle enumerates: a
        # budget of exactly that count runs, one less is refused
        seen = []
        enumerate_vectors = verifier.oracle.sequence_sums_by_size

        def counting(seq):
            seen.append((seq.r + 1) ** seq.base.k)
            return enumerate_vectors(seq)

        monkeypatch.setattr(verifier.oracle, "sequence_sums_by_size", counting)
        for sweep in (
            lambda budget: sweep_sets(2, [1, 2, 3], oracle_check=True,
                                      budget=budget),
            lambda budget: sweep_sequences(1, [1, 2, 3], [1, 2],
                                           oracle_check=True, budget=budget),
        ):
            seen.clear()
            sweep(10**6)
            total = sum(seen)
            seen.clear()
            assert sweep(total).violations == 0
            assert sum(seen) == total
            with pytest.raises(BudgetExceeded,
                               match=f"^oracle check needs {total} "
                                     f"multiplicity vectors; budget is "
                                     f"{total - 1}$"):
                sweep(total - 1)

    @pytest.mark.parametrize("r_range, max_abs, k_range, vectors", [
        (range(1, 13), 2, range(1, 4), 91430),
        (range(1, 5), 3, range(2, 5), 43204),
    ])
    def test_ci_oracle_sweeps_admitted(self, monkeypatch, r_range, max_abs,
                                       k_range, vectors):
        monkeypatch.setattr(verifier, "_walk_unit",
                            lambda payload: verifier.new_aggregate())
        assert vectors < verifier.DEFAULT_BUDGET
        assert sweep_sequences(max_abs, k_range, r_range,
                               oracle_check=True).instances == 0
        with pytest.raises(BudgetExceeded, match=f"needs {vectors} multi"):
            sweep_sequences(max_abs, k_range, r_range, oracle_check=True,
                            budget=vectors - 1)


class TestHugeCounts:
    """A count past the 4,300 digits Python prints is refused, and named
    by its order of magnitude, before any work."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(engine, "extend_suffixes", fail)
        monkeypatch.setattr(verifier, "_walk_unit", fail)
        monkeypatch.setattr(verifier, "_walk", fail)

    @pytest.mark.parametrize("call, message", [
        # C(2*10^6 + 1, 2000..2100) subsets, each with k + 1 alphas
        (lambda: sweep_sets(10**6, range(2000, 2101)),
         "sweep needs about 10^7168 instance-alpha pairs"),
        # one 20,001-subset, within the pair budget, and its 2^20001
        # multiplicity vectors
        (lambda: sweep_sets(10**4, [20001], oracle_check=True),
         "oracle check needs about 10^6021 multiplicity vectors"),
        # C(2*10^6 + 1, 2100) subsets
        (lambda: empirical_minimum(2100, 1, 10**6),
         "minimum search needs about 10^7165 instances"),
    ], ids=["sweep_pairs", "oracle_vectors", "empirical_minimum"])
    def test_refused_before_any_work(self, no_work, call, message):
        with pytest.raises(BudgetExceeded) as info:
            call()
        assert str(info.value) == (
            f"{message}; budget is {verifier.DEFAULT_BUDGET}")

    @pytest.mark.parametrize("max_abs, ks, count", [
        # a count of 3,015 digits, printed in full
        (5000, range(1, 10002), "[0-9]{3015}"),
        (20000, range(1, 40002), r"about 10\^12046"),
    ], ids=["10001_sizes", "40001_sizes"])
    def test_long_span_refused_fast(self, no_work, max_abs, ks, count):
        # every size up to the whole universe: a comb() call per size
        # took 10 s on the shorter span and over 20 s on the longer
        started = time.perf_counter()
        with pytest.raises(BudgetExceeded,
                           match=f"^sweep needs {count} instance-alpha pairs; "
                                 f"budget is {verifier.DEFAULT_BUDGET}$"):
            sweep_sets(max_abs, ks)
        assert time.perf_counter() - started < 5

    def test_subset_counts_are_binomials(self):
        # every size, the sizes past n, and a sparse span
        for n in range(12):
            for ks in (range(n + 3), [1, 3, 4, 9], [n]):
                assert verifier._subset_counts(n, ks) == {
                    k: math.comb(n, k) for k in ks}


class TestSizesAboveTheUniverse:
    """A size above the universe has no subsets, and the walk builds
    tables per size: it walks only the sizes that have some, while the
    report still echoes the span asked for."""

    def test_walks_only_sizes_with_subsets(self, monkeypatch):
        walked = []
        real = verifier._walk

        def recording(values, firsts, ks, *args):
            walked.append(list(ks))
            return real(values, firsts, ks, *args)

        monkeypatch.setattr(verifier, "_walk", recording)
        rep = sweep_sets(1, range(1, 5001))
        assert walked == [[1, 2, 3]]
        assert rep.universe["k"] == list(range(1, 5001))
        # the report body as a walk over every size of the span gave it
        body = rep.body()
        assert hashlib.sha256(json.dumps(body, sort_keys=True).encode()
                              ).hexdigest() == (
            "1813f9329cc75445ea44afaaf6e6bd7a87b9f638dc3a342104b21e16a45adc8f")

    def test_per_size_work_sees_only_sizes_with_subsets(self, monkeypatch):
        # the pair budget and the pool count read the subset count of
        # each size; a 3-value universe asks for none above k = 3
        asked = []
        real = verifier._subset_counts

        def recording(n, ks):
            asked.append((n, list(ks)))
            return real(n, ks)

        monkeypatch.setattr(verifier, "_subset_counts", recording)
        # C(3, k) subsets of k*(1 + 2) + 2 pairs each: 15 + 24 + 11
        with pytest.raises(BudgetExceeded,
                           match="^sweep needs 50 instance-alpha pairs"):
            sweep_sequences(1, range(1, 5001), [1, 2], budget=49)
        assert asked == [(3, [1, 2, 3])]

    def test_no_size_left_walks_nothing(self, monkeypatch):
        monkeypatch.setattr(verifier, "_walk_unit", None)
        rep = sweep_sequences(1, range(4, 6), [1, 2])
        assert (rep.instances, rep.checks, rep.minima) == (0, 0, [])
        assert rep.universe["k"] == [4, 5] and rep.universe["r"] == [1, 2]


class TestDeterminism:
    def test_worker_count_does_not_change_report(self):
        serial = sweep_sets(2, [2, 3], oracle_check=False, workers=1)
        parallel = sweep_sets(2, [2, 3], oracle_check=False, workers=2)
        a, b = serial.body(), parallel.body()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_repeat_runs_agree(self):
        first = sweep_sequences(1, [2], [1, 2]).body()
        second = sweep_sequences(1, [2], [1, 2]).body()
        assert first == second

    def test_parallel_sequences(self):
        serial = sweep_sequences(1, [2, 3], [2], workers=1)
        parallel = sweep_sequences(1, [2, 3], [2], workers=3)
        assert serial.body() == parallel.body()


class TestRecordsAcrossWorkers:
    """The record CSV bytes do not depend on the worker count."""

    @pytest.mark.parametrize("sweep", [
        lambda workers: sweep_sets(3, range(1, 6), workers=workers,
                                   collect_records=True),
        lambda workers: sweep_sequences(2, range(1, 4), range(1, 4),
                                        workers=workers, collect_records=True),
    ], ids=["sets", "sequences"])
    def test_csv_bytes(self, sweep, tmp_path, monkeypatch):
        # small shares, so two processes each walk several subtrees
        monkeypatch.setattr(verifier, "_CHUNK", 16)
        blobs = []
        for workers in (1, 2):
            path = tmp_path / f"w{workers}.csv"
            write_records_csv(sweep(workers).records, str(path))
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]


def brute_force(max_abs, ks, rs):
    """Minima cells, record keys and report counts of a sweep, recomputed
    per (instance, r, alpha): itertools.combinations, then
    engine.sigma_size against applicable_bounds."""
    minima, keys = {}, []
    counts = {"instances": 0, "checks": 0, "violations": 0,
              "oracle_checked": 0}
    tight = Counter()
    for k in ks:
        for elems in itertools.combinations(range(-max_abs, max_abs + 1), k):
            base = IntegerSet(elems)
            literal = base.literal()
            for r in rs:
                seq = RepSequence(base, r or 1)
                counts["instances"] += 1
                for alpha in range(seq.length + 1):
                    keys.append((literal, r, alpha))
                    size = engine.sigma_size(seq, alpha)
                    floors = applicable_bounds(base if r is None else seq,
                                               alpha)
                    counts["checks"] += len(floors)
                    counts["violations"] += any(b.value > size for b in floors)
                    tight.update(b.theorem_id for b in floors
                                 if b.value == size)
                    best, wits = minima.get((k, r, alpha), (size + 1, []))
                    if size < best:
                        minima[k, r, alpha] = (size, [literal])
                    elif size == best and len(wits) < WITNESS_CAP:
                        wits.append(literal)
    cells = []
    for (k, r, alpha), (size, wits) in sorted(minima.items()):
        cell = {"k": k} if r is None else {"k": k, "r": r}
        cells.append(dict(cell, alpha=alpha, size=size, witnesses=wits))
    return cells, keys, {"counts": counts, "tight_by_theorem": dict(tight)}


def _twin(elems):
    """A twin of the walk: a negative and 0 chosen, shape n >= 1, zero = 1."""
    return elems[0] < 0 and 0 in elems


def assert_walk_order(stream, expected):
    """The visit order `_walk` promises: stream, one item per visit with
    the subset first, holds the items of expected, which lists them in
    combinations order, in that order within each size and twin class.
    So each size's visits equal expected's as a multiset."""
    def classes(items):
        out = {}
        for item in items:
            out.setdefault((len(item[0]), _twin(item[0])), []).append(item)
        return out

    assert len(stream) == len(expected)
    assert classes(stream) == classes(expected)


class TestAgainstBruteForce:
    """Every minima cell, with its witness list, and the record order
    (k, combinations, r, alpha) equal a per-instance recomputation."""

    def test_sets(self):
        rep = sweep_sets(3, range(1, 6), collect_records=True)
        cells, keys, _ = brute_force(3, range(1, 6), [None])
        assert rep.minima == cells
        assert [(rec.instance, rec.r, rec.alpha) for rec in rep.records] == keys

    def test_sequences(self):
        rep = sweep_sequences(2, range(1, 4), range(1, 5), collect_records=True)
        cells, keys, _ = brute_force(2, range(1, 4), range(1, 5))
        assert rep.minima == cells
        assert [(rec.instance, rec.r, rec.alpha) for rec in rep.records] == keys

    @pytest.fixture(params=[1, 2])
    def workers(self, request, monkeypatch):
        if request.param > 1:
            # an in-process pool with small shares: several walk units
            monkeypatch.setattr(verifier, "ProcessPoolExecutor", _RecordingPool)
            monkeypatch.setattr(verifier.os, "cpu_count", lambda: 4)
            monkeypatch.setattr(verifier, "_CHUNK", 16)
            _RecordingPool.sizes = []
        return request.param

    # (max_abs, ks, rs); the last two start above k = 1 and r = 1 and
    # name one size past the universe
    UNIVERSES = {
        "sets": (3, range(1, 6), [None]),
        "sequences": (2, range(1, 4), range(1, 5)),
        "sets-past-the-universe": (3, range(3, 9), [None]),
        "sequences-past-the-universe": (2, range(3, 7), range(2, 6)),
    }

    @pytest.mark.parametrize("kind", list(UNIVERSES))
    def test_mirror_walk_equals_full_walk(self, kind, workers):
        # without records the walk visits only A <=lex -A and weights it;
        # the report, witness order included, is the full walk's, and its
        # counts and tight floors, resolved per size profile, are those
        # of a per-instance dispatch
        max_abs, ks, rs = self.UNIVERSES[kind]
        if rs == [None]:
            run = functools.partial(sweep_sets, max_abs, ks)
        else:
            run = functools.partial(sweep_sequences, max_abs, ks, rs)
        half = run(workers=workers).body()
        full = run(workers=workers, collect_records=True).body()
        assert half == full
        cells, _, tallies = brute_force(max_abs, ks, rs)
        assert half["minima"] == cells
        for rep in (half, full):
            assert rep["counts"] == tallies["counts"]
            assert rep["tight_by_theorem"] == tallies["tight_by_theorem"]
        if workers > 1:
            assert _RecordingPool.sizes == [2, 2]

    def test_mirror_walk_visits_each_canonical_subset_once(self):
        values = range(-3, 4)
        seen = []

        def visit(chosen, layer_sets, shape, weight):
            seen.append((tuple(chosen), weight))

        verifier._walk(values, range(len(values)), range(1, 8), [1], 21,
                       visit, True)
        expected = []
        for k in range(1, 8):
            for elems in itertools.combinations(values, k):
                mirror = tuple(-x for x in reversed(elems))
                if elems <= mirror:
                    expected.append((elems, 1 if elems == mirror else 2))
        assert_walk_order(seen, expected)
        weights = dict(seen)
        # a tie, min + max = 0, settled by the next pair of elements
        assert weights[-2, -1, 2] == 2 and (-2, 1, 2) not in weights
        # a self-mirror subset stands for itself only
        assert weights[-1, 0, 1] == 1
        assert sum(w for _, w in seen) == 2**7 - 1

    @pytest.mark.parametrize("mirror", [False, True])
    def test_walk_shape_is_classify(self, mirror):
        # the shape each node carries, built one element at a time, is
        # the sign shape classify takes of the whole subset
        values = range(-4, 5)
        nodes, wrong = 0, []

        def visit(chosen, layer_sets, shape, weight):
            nonlocal nodes
            if chosen:
                nodes += 1
                if shape != classify(IntegerSet(tuple(chosen))):
                    wrong.append((tuple(chosen), shape))

        verifier._walk(values, range(len(values)), range(10), [1], 36,
                       visit, mirror)
        # 511 nonempty subsets; the 31 symmetric ones are their own mirror
        assert nodes == (271 if mirror else 511)
        assert wrong == []

    @pytest.mark.parametrize("mults", [[1], [1, 2, 3]])
    def test_walk_unions_within_docstring_bound(self, mults):
        # an instance (k-subset, m) holds at most
        # (m*k + 1)*((m_max*k_max + m*k)*max_abs + 1) union bits, and its
        # unions are suffix_unions of its count layers at the walk offset
        max_abs, kmax = 3, 4
        values = range(-max_abs, max_abs + 1)
        offset = max(mults) * kmax * max_abs
        nodes = 0

        def visit(chosen, suffix_sets, shape, weight):
            nonlocal nodes
            nodes += 1
            k = len(chosen)
            for m, suffix in zip(mults, suffix_sets):
                assert len(suffix) == m * k + 1
                assert sum(u.bit_length() for u in suffix) <= (m * k + 1) * (
                    (max(mults) * kmax + m * k) * max_abs + 1)
                layers = [1 << offset]
                for x in chosen:
                    layers = engine.extend_layers(layers, x, m,
                                                  len(layers) - 1 + m)
                assert suffix == engine.suffix_unions(layers)

        verifier._walk(values, range(len(values)), range(1, kmax + 1), mults,
                       offset, visit, True)
        # 98 nonempty subsets of size <= 4, 10 of them their own mirror
        assert nodes == (98 + 10) // 2

    def test_mirror_walk_weights_violations(self, monkeypatch):
        # an unreachable floor makes every (instance, alpha) pair violate
        rows = verifier.shape_floor_rows
        monkeypatch.setattr(
            verifier, "shape_floor_rows",
            lambda n, p, zero, meet, r: rows(n, p, zero, meet, r) + [
                ("X", [10**9] * ((n + p + zero) * (r or 1) + 1))])
        half = sweep_sets(2, range(1, 4))
        full = sweep_sets(2, range(1, 4), collect_records=True)
        assert half.violations == full.violations == len(full.records) == 80

    @settings(max_examples=300, deadline=None)
    @given(max_abs=st.integers(0, 4),
           ks=st.lists(st.integers(2, 7), min_size=1, unique=True).map(sorted),
           mults=st.lists(st.integers(1, 4), min_size=1, unique=True).map(sorted),
           mirror=st.booleans(), data=st.data())
    @example(max_abs=3, ks=[2, 3, 4], mults=[1, 2], mirror=True, data=None)
    @example(max_abs=4, ks=[3, 5], mults=[3], mirror=False, data=None)
    def test_walk_stream_is_combinations_reference(self, max_abs, ks, mults,
                                                   mirror, data):
        # every visit against a reference that builds each subset's
        # unions from scratch: subsets holding 0 take their unions from a
        # zero-free twin, so this pins the twin unions, shapes and
        # weights, the pruning one size lower, and combinations order
        # within each size and twin class
        values = range(-max_abs, max_abs + 1)
        first = None if data is None else data.draw(
            st.one_of(st.none(), st.integers(0, len(values) - 1)))
        # a pool unit passes one first element
        firsts = range(len(values)) if first is None else [first]
        offset = max(mults) * max_abs * max(ks)
        stream = []

        def visit(chosen, suffix_sets, shape, weight):
            stream.append((tuple(chosen), shape, weight,
                           [list(suffix) for suffix in suffix_sets]))

        verifier._walk(values, firsts, ks, mults, offset, visit, mirror)
        expected = []
        for k in ks:
            for elems in itertools.combinations(values, k):
                if elems[0] - values[0] not in firsts:
                    continue
                weight = 1
                if mirror:
                    mirrored = tuple(-x for x in reversed(elems))
                    if elems > mirrored:
                        continue
                    weight = 1 if elems == mirrored else 2
                unions = []
                for m in mults:
                    layers = [1 << offset]
                    for x in elems:
                        layers = engine.extend_layers(layers, x, m,
                                                      len(layers) - 1 + m)
                    unions.append(engine.suffix_unions(layers))
                expected.append((elems, tuple(classify(IntegerSet(elems))),
                                 weight, unions))
        assert_walk_order(stream, expected)

    def test_subsets_with_zero_take_no_insertion(self, monkeypatch):
        # a subset that holds 0 below its first element takes its unions
        # from its zero-free twin; inserting 0 again raises both counts
        # (to 12,885 and 1,860)
        calls = 0
        extend = engine.extend_suffixes

        def counted(*args):
            nonlocal calls
            calls += 1
            return extend(*args)

        monkeypatch.setattr(engine, "extend_suffixes", counted)
        sweep_sets(8, range(2, 7))
        assert calls == 8893
        calls = 0
        sweep_sequences(4, range(2, 5), range(1, 13))
        assert calls == 1212


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the requested size and
    maps in this process, so no worker process is started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class _ShufflingPool(_RecordingPool):
    """A `_RecordingPool` whose map hands back the units' aggregates in a
    shuffled order, seeded by `seed`."""

    seed = 0

    def map(self, fn, items):
        parts = list(map(fn, items))
        random.Random(self.seed).shuffle(parts)
        return parts


class TestMergeOrder:
    """Walk units merge in any order: one `_walk_unit` per first element,
    merged in shuffled orders, gives the report and the records of the
    in-order merge."""

    @pytest.mark.parametrize("sweep", [
        functools.partial(sweep_sets, 4, range(1, 6)),
        functools.partial(sweep_sequences, 2, range(1, 4), range(1, 4)),
    ], ids=["sets", "sequences"])
    @pytest.mark.parametrize("collect", [False, True])
    def test_shuffled_units_merge_alike(self, sweep, collect, monkeypatch):
        monkeypatch.setattr(verifier.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(verifier, "_CHUNK", 1)
        runs = []
        # the in-order merge first
        for seed in [None, *range(6)]:
            pool = _RecordingPool if seed is None else _ShufflingPool
            monkeypatch.setattr(verifier, "ProcessPoolExecutor", pool)
            pool.sizes, _ShufflingPool.seed = [], seed
            rep = sweep(workers=2, collect_records=collect)
            # one unit per first element: a pool of two
            assert pool.sizes == [2]
            runs.append((rep.body(), rep.records))
        assert all(run == runs[0] for run in runs)
        assert bool(runs[0][1]) == collect


class TestWorkerCount:
    @pytest.fixture
    def pool(self, monkeypatch):
        # 512-instance shares keep the universes below small
        monkeypatch.setattr(verifier, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(verifier.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(verifier, "_CHUNK", 512)
        _RecordingPool.sizes = []
        return _RecordingPool

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_nonpositive(self, workers):
        with pytest.raises(ValueError, match="workers"):
            sweep_sets(1, [2], workers=workers)
        with pytest.raises(ValueError, match="workers"):
            sweep_sequences(1, [2], [2], workers=workers)

    # records make the sweep walk every subset, so the clamp counts the
    # whole universe
    def test_clamped_to_chunks(self, pool):
        # C(17,2) + C(17,3) = 816 instances: two chunks
        rep = sweep_sets(8, [2, 3], workers=5000, collect_records=True)
        assert pool.sizes == [2]
        assert rep.instances == 816

    def test_clamped_to_cpus(self, pool):
        # C(17,4) = 2380 instances: five chunks, four CPUs
        sweep_sets(8, [4], workers=5000, collect_records=True)
        assert pool.sizes == [4]

    def test_sequences_clamped(self, pool):
        # (C(11,2) + C(11,3)) x 3 multiplicities = 660 instances: two chunks
        sweep_sequences(5, [2, 3], [1, 2, 3], workers=64,
                        collect_records=True)
        assert pool.sizes == [2]

    def test_mirror_walk_clamped_to_its_half(self, pool):
        # the mirror walk visits about half of the 816 instances, 408
        # rounded up: one chunk, so no pool
        rep = sweep_sets(8, [2, 3], workers=5000)
        assert pool.sizes == []
        assert rep.instances == 816
        # half of C(17,4) = 2380 is 1190: three chunks
        sweep_sets(8, [4], workers=5000)
        assert pool.sizes == [3]

    @pytest.mark.parametrize("collect", [False, True])
    def test_floor_tables_filled_once_per_sweep(self, pool, monkeypatch,
                                                collect):
        # floors depend only on (r, shape, alpha): after the merge the
        # profiles are resolved once per (r, shape), and a record run
        # takes its BoundResults once per (r, shape, alpha) for the whole
        # sweep
        keys = {"shape_floor_rows": [], "shape_bounds": []}
        rows, bounds = verifier.shape_floor_rows, verifier.shape_bounds

        def counted_rows(*args):
            # the shape and r
            keys["shape_floor_rows"].append(args)
            return rows(*args)

        def counted_bounds(*args):
            # the shape, r and alpha
            keys["shape_bounds"].append(args)
            return bounds(*args)

        monkeypatch.setattr(verifier, "shape_floor_rows", counted_rows)
        monkeypatch.setattr(verifier, "shape_bounds", counted_bounds)
        counts = []
        for workers in (1, 2):
            for seen in keys.values():
                seen.clear()
            sweep_sequences(4, range(2, 5), range(1, 13), workers=workers,
                            collect_records=collect)
            for seen in keys.values():
                assert len(seen) == len(set(seen))
            counts.append({name: len(seen) for name, seen in keys.items()})
        assert pool.sizes == [2]
        assert counts[0] == counts[1]
        assert counts[0]["shape_floor_rows"] > 0
        assert (counts[0]["shape_bounds"] > 0) == collect

    def test_record_floors_taken_in_the_parent(self, monkeypatch):
        # a real two-process pool: the walk units return plain rows, and
        # the parent asks shape_bounds once per (r, shape, alpha), as a
        # serial run does; calls made in a worker are not seen here
        calls = []
        bounds, real_pool = verifier.shape_bounds, verifier.ProcessPoolExecutor
        sizes = []

        def counted_bounds(*args):
            calls.append(args)
            return bounds(*args)

        def pool(max_workers):
            sizes.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(verifier, "shape_bounds", counted_bounds)
        monkeypatch.setattr(verifier, "ProcessPoolExecutor", pool)
        monkeypatch.setattr(verifier.os, "cpu_count", lambda: 2)
        # (7 + 21 + 35) x 2 multiplicities = 126 instances: two shares
        monkeypatch.setattr(verifier, "_CHUNK", 64)
        reps, counts = [], []
        for workers in (1, 2):
            calls.clear()
            reps.append(sweep_sequences(3, range(1, 4), range(1, 3),
                                        workers=workers, collect_records=True))
            assert len(calls) == len(set(calls))
            counts.append(len(calls))
        assert sizes == [2]
        assert counts[1] == counts[0] > 0
        assert reps[1].records == reps[0].records
        assert reps[1].body() == reps[0].body()

    def test_real_chunk_sizes_the_pool(self, monkeypatch):
        # the pool starts only above _CHUNK canonical instances, where it
        # pays for its start-up
        monkeypatch.setattr(verifier, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(verifier.os, "cpu_count", lambda: 4)
        _RecordingPool.sizes = []
        # 1,476 canonical instances: lost at workers=2 with 512 per process
        sweep_sequences(4, range(2, 5), range(1, 13), workers=2)
        # 10,880: sweep_sets(8, 2..6) lost at workers=2
        sweep_sets(8, range(2, 7), workers=2)
        assert _RecordingPool.sizes == []
        # 21,888, about the break-even: two processes
        rep = sweep_sets(9, range(2, 7), workers=2)
        assert _RecordingPool.sizes == [2]
        assert rep.instances == 43776

    def test_one_chunk_runs_serial(self, pool, monkeypatch):
        sweep_sets(1, [2], workers=5000)
        monkeypatch.setattr(verifier.os, "cpu_count", lambda: None)
        sweep_sets(8, [2, 3], workers=5000)
        assert pool.sizes == []


def _assert_records_match_dispatch(rep, instance_of):
    assert rep.records
    for rec in rep.records:
        inst = instance_of(rec)
        assert [chk.bound for chk in rec.bounds] == applicable_bounds(
            inst, rec.alpha
        )
        assert [chk.tight for chk in rec.bounds] == [
            chk.bound.value == rec.sigma_size for chk in rec.bounds
        ]
        assert rec.violation == any(
            chk.bound.value > rec.sigma_size for chk in rec.bounds
        )


class TestFloorTable:
    """Floors looked up per shape equal a fresh dispatch on every record."""

    @pytest.fixture(params=[1, 2])
    def workers(self, request, monkeypatch):
        if request.param > 1:
            # small chunks, so a real pool walks the units and the
            # parent builds records from their rows
            monkeypatch.setattr(verifier, "_CHUNK", 32)
        return request.param

    def test_sets(self, workers):
        rep = sweep_sets(3, range(1, 6), workers=workers,
                         collect_records=True)
        assert rep.instances == 119
        _assert_records_match_dispatch(rep, lambda rec: parse_set(rec.instance))

    def test_sequences(self, workers):
        rep = sweep_sequences(2, range(1, 4), range(1, 4),
                              workers=workers, collect_records=True)
        assert rep.instances == 75
        _assert_records_match_dispatch(
            rep, lambda rec: parse_sequence(rec.instance, rec.r)
        )

    # sizes from k = 3 and r = 2, one past the universe: C(7, 3..7)
    # sets, and C(5, 3..5) subsets at four r
    def test_sets_past_the_universe(self, workers):
        rep = sweep_sets(3, range(3, 9), workers=workers,
                         collect_records=True)
        assert rep.instances == 99
        _assert_records_match_dispatch(rep, lambda rec: parse_set(rec.instance))

    def test_sequences_past_the_universe(self, workers):
        rep = sweep_sequences(2, range(3, 7), range(2, 6),
                              workers=workers, collect_records=True)
        assert rep.instances == 64
        _assert_records_match_dispatch(
            rep, lambda rec: parse_sequence(rec.instance, rec.r)
        )


def _reference_resolve(profiles):
    """Counts and tight floors of sweep profiles, pair by pair: each
    alpha of each profile against the one-alpha dispatch, whose floors
    the public constructors build at that alpha alone."""
    tight = Counter()
    checks = violations = 0
    for (r, shape, sizes), weight in profiles.items():
        for alpha in range(len(sizes)):
            pairs = [(b.value, b.theorem_id)
                     for b in shape_bounds(*shape, r, alpha)]
            checks += len(pairs) * weight
            violations += weight * any(value > sizes[alpha]
                                       for value, _ in pairs)
            for value, theorem_id in pairs:
                if value == sizes[alpha]:
                    tight[theorem_id] += weight
    return checks, violations, tight


@st.composite
def sweep_profiles(draw):
    """Profile weights as a sweep leaves them: sizes of at least 1 drawn
    next to each alpha's floors, so tight, violated and vacuous (<= 0)
    floors all occur."""
    profiles = Counter()
    for _ in range(draw(st.integers(1, 8))):
        r = draw(st.sampled_from([None, 1, 2, 3]))
        n, p, zero = draw(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                    st.integers(0, 1)).filter(any))
        meet = draw(st.integers(0, 1)) if n and p else 0
        total = (n + p + zero) * (r or 1)
        rows = shape_floor_rows(n, p, zero, meet, r)
        sizes = []
        for alpha in range(total + 1):
            near = [row[alpha] + d for _, row in rows
                    if row[alpha] is not None for d in (-1, 0, 1)]
            sizes.append(max(1, draw(st.sampled_from(near + [1, 2 * total]))))
        profiles[r, (n, p, zero, meet), tuple(sizes)] += draw(
            st.integers(1, 3))
    return profiles


class TestResolveProfiles:
    """The counts `finish_report` resolves from profile weights, by
    per-profile vectors, equal a pair-by-pair reference."""

    @settings(max_examples=200, deadline=None)
    @given(profiles=sweep_profiles())
    # a set of two, T2_1 tight at every alpha: size 1 at alpha = k,
    # where C2_5 is 0
    @example(profiles=Counter({(None, (0, 2, 0, 0), (4, 3, 1)): 2}))
    # T2_3 violated at alphas 2 and 3, tight at 4; C2_5 tight at 2 and
    # 3 (value 1), -3 at 4
    @example(profiles=Counter({(None, (2, 2, 0, 1), (9, 7, 4, 1, 1)): 1}))
    def test_equals_pair_loop(self, profiles):
        agg = verifier.new_aggregate()
        agg["profiles"].update(profiles)
        rep = verifier.finish_report({}, agg, verifier._shape_rows, 0.0,
                                     None, str)
        checks, violations, tight = _reference_resolve(profiles)
        assert rep.instances == sum(profiles.values())
        assert (rep.checks, rep.violations) == (checks, violations)
        assert rep.tight_by_theorem == tight
        # no theorem is entered without a tight pair
        assert all(rep.tight_by_theorem.values())

    def test_aggregate_holds_only_walk_output(self):
        assert set(verifier.new_aggregate()) == {
            "profiles", "minima", "records", "oracle_checked"}


@st.composite
def profile_streams(draw):
    """Instances (r, sizes, witness) in a campaign's order, which is tuple
    order: sweeps' sorted element tuples, or fp's digit tuples as
    `fp._walk` hands them over, sizes then as bytes. Each instance takes
    one of a few profile keys of small sizes, so cells tie across
    profiles and lists reach the cap."""
    if draw(st.booleans()):
        form = tuple
        pool = [elems for k in range(1, 4)
                for elems in itertools.combinations(range(-6, 7), k)]
    else:
        form = bytes
        # a digit per pair {x, p - x}: 0 (none), 1 (x) or 2 (p - x)
        pool = [ds for ds in itertools.product((0, 1, 2), repeat=4) if any(ds)]
    rng = draw(st.randoms(use_true_random=False))
    witnesses = sorted(rng.sample(pool, draw(st.integers(0, 60))))
    keys = draw(st.lists(st.tuples(st.sampled_from([None, 1, 3]),
                                   st.integers(0, 3)).flatmap(
        lambda rk: st.tuples(st.just(rk[0]), st.lists(
            st.integers(1, 3), min_size=rk[1] * (rk[0] or 1) + 1,
            max_size=rk[1] * (rk[0] or 1) + 1).map(form))),
        min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(keys) - 1),
                          min_size=len(witnesses), max_size=len(witnesses)))
    stream = [keys[i] + (w,) for i, w in zip(picks, witnesses)]
    return stream, rng


class TestProfiles:
    def test_add_copies_reused_chosen_and_caps_witnesses(self):
        # the walks hand add one list, mutated between calls: each
        # witness is a copy taken at add time, and weights keep adding
        # after the list is full
        profiles = verifier.Profiles()
        chosen = []
        for i in range(WITNESS_CAP + 3):
            chosen[:] = [i, i + 1]
            profiles.add("key", 2, chosen)
        chosen[:] = [-1]
        weight, wits = profiles["key"]
        assert weight == 2 * (WITNESS_CAP + 3)
        assert wits == [(i, i + 1) for i in range(WITNESS_CAP)]

    def test_empty_aggregate_is_new_aggregate(self):
        assert verifier.Profiles().aggregate() == verifier.new_aggregate()


class TestMinimaCells:
    """The weights and cells `Profiles.aggregate` derives from the
    keeper's per-profile witness lists equal a per-instance keeper's,
    which sees every instance in the campaign's order and keeps each
    cell's first WITNESS_CAP minimizers."""

    @settings(max_examples=200, deadline=None)
    @given(case=profile_streams())
    def test_equals_per_instance_keeper(self, case):
        stream, rng = case
        expected = {}
        for r, sizes, witness in stream:
            k = (len(sizes) - 1) // (r or 1)
            for alpha, size in enumerate(sizes):
                best, wits = expected.get((k, r, alpha), (size + 1, []))
                if size < best:
                    expected[k, r, alpha] = size, [witness]
                elif size == best and len(wits) < WITNESS_CAP:
                    wits.append(witness)
        # the walks' keeper adds each instance's weight to its profile and
        # keeps its first WITNESS_CAP instances; profiles are handed over
        # in any order
        profiles = verifier.Profiles()
        weights = Counter()
        for r, sizes, witness in stream:
            weight = rng.randint(1, 3)
            profiles.add((r, None, sizes), weight, witness)
            weights[r, None, sizes] += weight
        items = list(profiles.items())
        rng.shuffle(items)
        agg = verifier.Profiles(items).aggregate()
        assert agg["profiles"] == weights
        assert agg["minima"] == expected


class TestReportShape:
    def test_json_keys(self):
        rep = sweep_sets(1, [1, 2])
        js = rep.to_json()
        assert set(js) == {
            "universe",
            "counts",
            "tight_by_theorem",
            "minima",
            "elapsed_ms",
        }
        assert js["universe"]["kind"] == "sets"
        assert js["universe"]["k"] == [1, 2]
        assert set(js["counts"]) == {
            "instances",
            "checks",
            "violations",
            "oracle_checked",
        }
        assert isinstance(rep, CampaignReport)

    @pytest.mark.parametrize("run", [lambda: sweep_sets(1, [1, 2]),
                                     lambda: verify_balandraud(7)],
                             ids=["sweep", "fp"])
    def test_volatile_keys(self, run):
        # elapsed_ms is the one key that equal runs do not share
        rep = run()
        assert set(rep.to_json()) - set(rep.body()) == {"elapsed_ms"}
        assert rep.to_json() == rep.body() | {"elapsed_ms": rep.elapsed_ms}

    def test_records_collected_on_request(self):
        rep = sweep_sets(1, [2])
        assert rep.records == []
        rep = sweep_sets(1, [2], collect_records=True)
        assert len(rep.records) == 9  # 3 instances x 3 thresholds
        literals = {rec.instance for rec in rep.records}
        assert literals == {"{-1,0}", "{-1,1}", "{0,1}"}

    def test_csv_layout(self, tmp_path):
        rep = sweep_sequences(1, [2], [2], collect_records=True)
        path = tmp_path / "records.csv"
        write_records_csv(rep.records, str(path))
        rows = list(csv.reader(path.open()))
        assert rows[0] == [
            "instance",
            "r",
            "alpha",
            "size",
            "theorem_id",
            "case",
            "bound",
            "tight",
            "violation",
        ]
        assert len(rows) - 1 == 15
        # the full-length threshold has no applicable floor; its row
        # keeps the size but leaves the bound columns empty
        degenerate = [row for row in rows[1:] if row[4] == ""]
        assert len(degenerate) == 3
        assert all(row[2] == "4" and row[3] == "1" for row in degenerate)
        assert all(row[8] == "0" for row in rows[1:])


class TestEmpiricalMinimum:
    def test_forbid_zero(self):
        best, wits = empirical_minimum(3, 1, 3, "forbid")
        assert best == 5
        assert [w.elements for w in wits] == [(-2, -1, 1), (-1, 1, 2)]

    def test_any_allows_cancellation(self):
        best, wits = empirical_minimum(2, 2, 2, "any")
        assert best == 1
        assert len(wits) == 10  # every pair's full sum is a singleton

    def test_require_zero(self):
        best, wits = empirical_minimum(2, 1, 2, "require")
        assert best == 2
        assert all(0 in w.elements for w in wits)
        assert [w.elements for w in wits] == [(-2, 0), (-1, 0), (0, 1), (0, 2)]

    @pytest.mark.parametrize("policy", ["any", "require", "forbid"])
    def test_matches_brute_force(self, policy):
        keep = {"any": lambda c: True, "require": lambda c: 0 in c,
                "forbid": lambda c: 0 not in c}[policy]
        # max_abs up to 5, so some cells have more than WITNESS_CAP
        # minimizers and the cap cuts their lists
        capped = 0
        for max_abs in range(6):
            for k in range(1, 5):
                combos = [c for c in itertools.combinations(
                    range(-max_abs, max_abs + 1), k) if keep(c)]
                for alpha in range(k + 1):
                    if not combos:
                        with pytest.raises(ValueError, match="empty"):
                            empirical_minimum(k, alpha, max_abs, policy)
                        continue
                    sizes = [oracle_sigma_set(IntegerSet(c), alpha).size
                             for c in combos]
                    best = min(sizes)
                    wits = [c for c, n in zip(combos, sizes) if n == best]
                    capped += len(wits) > WITNESS_CAP
                    got, got_wits = empirical_minimum(k, alpha, max_abs,
                                                      policy)
                    assert got == best, (max_abs, k, alpha)
                    assert ([w.elements for w in got_wits]
                            == wits[:WITNESS_CAP]), (max_abs, k, alpha)
        assert capped

    @pytest.mark.parametrize("policy", ["any", "require", "forbid"])
    def test_mirror_walk_matches_combinations(self, policy):
        # the canonical minimizers plus their mirrors, re-sorted, are the
        # first WITNESS_CAP minimizers in combinations order
        keep = {"any": lambda c: True, "require": lambda c: 0 in c,
                "forbid": lambda c: 0 not in c}[policy]
        for max_abs in range(5):
            values = range(-max_abs, max_abs + 1)
            for k in range(1, min(len(values), 5) + 1):
                combos = [c for c in itertools.combinations(values, k)
                          if keep(c)]
                if not combos:
                    continue
                for alpha in range(k + 1):
                    sizes = [engine.sigma_size(RepSequence(IntegerSet(c), 1),
                                               alpha) for c in combos]
                    best = min(sizes)
                    wits = [c for c, n in zip(combos, sizes) if n == best]
                    got, got_wits = empirical_minimum(k, alpha, max_abs, policy)
                    assert got == best, (max_abs, k, alpha)
                    assert [w.elements for w in got_wits] == wits[:WITNESS_CAP]

    def test_any_equals_sweep_cells(self):
        # both entry points take their cells from the same walk and
        # keeper: under "any" each of the sweep's 112 (k, alpha) cells
        # here has empirical_minimum's size and witnesses
        cells = 0
        for max_abs in range(6):
            ks = range(1, min(6, 2 * max_abs + 1) + 1)
            for cell in sweep_sets(max_abs, ks).minima:
                best, wits = empirical_minimum(cell["k"], cell["alpha"],
                                               max_abs)
                assert (best, [w.literal() for w in wits]) == (
                    cell["size"], cell["witnesses"]), (max_abs, cell)
                cells += 1
        assert cells == 112

    def test_require_zero_walks_only_subsets_with_zero(self, monkeypatch):
        # the budget counts C(2M, k - 1) subsets; the walk must not visit
        # the C(2M + 1, k) - C(2M, k - 1) others, and of the C(2M, 1)
        # singletons the mirror walk visits only the M negative ones
        calls = 0
        extend = engine.extend_suffixes

        def counted(*args):
            nonlocal calls
            calls += 1
            return extend(*args)

        monkeypatch.setattr(engine, "extend_suffixes", counted)
        best, wits = empirical_minimum(2, 0, 1000, "require")
        assert calls == 1000
        assert best == 2
        assert [w.elements for w in wits][:2] == [(-1000, 0), (-999, 0)]
        assert len(wits) == WITNESS_CAP

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceeded):
            empirical_minimum(10, 0, 20, budget=100)

    @pytest.mark.parametrize("policy", ["any", "require", "forbid"])
    def test_k_above_universe_refused_before_walk(self, policy):
        # the walk's per-size table would have 10^12 + 2 entries
        with pytest.raises(ValueError, match="universe is empty"):
            empirical_minimum(10**12, 0, 1, policy)

    def test_rejects_negative_budget(self):
        # a bad argument, not a refusal; a budget of 0 still refuses
        for budget in (-5, -1):
            with pytest.raises(ValueError, match=f"budget must be >= 0, got {budget}"):
                empirical_minimum(2, 0, 1, budget=budget)
        with pytest.raises(BudgetExceeded):
            empirical_minimum(2, 0, 1, budget=0)

    def test_validation(self):
        with pytest.raises(ValueError):
            empirical_minimum(0, 0, 2)
        with pytest.raises(ValueError):
            empirical_minimum(2, 3, 2)
        with pytest.raises(ValueError):
            empirical_minimum(2, 1, 2, "sometimes")
        with pytest.raises(ValueError):
            empirical_minimum(5, 0, 1)  # only 3 candidate values


    def test_rejects_negative_max_abs(self):
        for call in (
            lambda: empirical_minimum(2, 1, -1),
            lambda: sweep_sets(-1, [2]),
            lambda: sweep_sequences(-1, [2], [1, 2]),
        ):
            with pytest.raises(ValueError, match="max_abs must be >= 0"):
                call()


class TestSoundnessAtScale:
    """Wider sweeps with the oracle enabled; zero violations expected."""

    def test_sets_wider(self):
        rep = sweep_sets(3, range(1, 5), oracle_check=True)
        assert rep.violations == 0
        assert rep.instances == sum((7, 21, 35, 35))

    def test_sequences_wider(self):
        rep = sweep_sequences(2, [2, 3], [1, 2], oracle_check=True)
        assert rep.violations == 0
        assert rep.instances == 40  # (C(5,2) + C(5,3)) x 2 multiplicities
