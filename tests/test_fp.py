"""Prime-field thresholded subset sums and the exhaustive floor check
over admissible residue sets."""

import dataclasses
import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from subsums import fp
from subsums.bounds import bound_fp
from subsums.engine import sigma
from subsums.fp import FpSubset, check_prime, is_prime, sigma_fp, verify_balandraud
from subsums.model import BudgetExceeded, IntegerSet
from subsums.oracle import residue_sums_by_size
from subsums.verifier import WITNESS_CAP


def residues(bits):
    return {s for s in range(bits.bit_length()) if bits >> s & 1}


def choices_in_product_order(p):
    """(digits, elements) of every admissible subset mod p: per inverse
    pair {x, p - x}, digit 0 picks nothing, 1 picks x and 2 picks p - x."""
    half = (p - 1) // 2
    for choice in itertools.product((0, 1, 2), repeat=half):
        picked = [(x, p - x)[c - 1] for x, c in zip(range(1, half + 1), choice) if c]
        if picked:
            yield choice, tuple(sorted(picked))


def admissible_in_product_order(p):
    for _, elements in choices_in_product_order(p):
        yield elements


def canonical_in_product_order(p):
    # the digits of the subsets whose first chosen pair picks x; their
    # mirrors pick p - x
    for choice, _ in choices_in_product_order(p):
        if next(c for c in choice if c) == 1:
            yield choice


def split_lanes(lanes, p, count):
    """The count unions packed in lanes of 8 * ceil(p / 8) bits; nothing
    is set above them."""
    width = 8 * -(-p // 8)
    assert lanes >> count * width == 0
    return [lanes >> c * width & (1 << width) - 1 for c in range(count)]


def suffix_residues(by_size):
    """Per c, the residues reached with c or more members."""
    return [set().union(*by_size[c:]) for c in range(len(by_size))]


class TestPrimality:
    def test_small_values(self):
        assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]

    def test_composite_squares(self):
        assert not is_prime(25)
        assert not is_prime(1)


class TestFpSubset:
    def test_accepts_sorted_residues(self):
        a = FpSubset(7, (1, 2, 4))
        assert a.size == 3
        assert a.literal() == "{1,2,4}"

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            FpSubset(9, (1, 2))

    def test_rejects_out_of_range_or_unsorted(self):
        with pytest.raises(ValueError):
            FpSubset(7, (1, 9))
        with pytest.raises(ValueError):
            FpSubset(7, (2, 1))
        with pytest.raises(ValueError):
            FpSubset(7, ())

    def test_self_disjoint(self):
        assert FpSubset(7, (1, 2)).self_disjoint
        assert not FpSubset(7, (2, 5)).self_disjoint  # 2 + 5 = 7
        assert not FpSubset(7, (0,)).self_disjoint  # zero is its own inverse


class TestSigmaFp:
    @pytest.mark.parametrize(
        "p,elems,alpha,expected",
        [
            (7, (1, 2), 1, (1, 2, 3)),
            (5, (1,), 0, (0, 1)),
            (7, (1, 2, 3), 0, (0, 1, 2, 3, 4, 5, 6)),
            (7, (1, 2, 3), 2, (3, 4, 5, 6)),
            (7, (1, 2, 3), 3, (6,)),
        ],
    )
    def test_frozen_values(self, p, elems, alpha, expected):
        assert sigma_fp(FpSubset(p, elems), alpha) == expected

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            sigma_fp(FpSubset(7, (1, 2)), 3)
        with pytest.raises(ValueError):
            sigma_fp(FpSubset(7, (1, 2)), -1)

    def test_large_field_within_budget(self):
        # 5 layers of about 10^8 bits, under the 2^30-bit budget
        sums = sigma_fp(FpSubset(100_000_007, (1, 2, 3, 5)), 0)
        assert sums == tuple(range(12))

    def test_oversize_refused_before_any_layer(self, monkeypatch):
        # two unions of about 10^9 bits; refused before _insert_suffix
        # is called
        monkeypatch.setattr(fp, "_insert_suffix", None)
        with pytest.raises(BudgetExceeded, match="2000000014 bits"):
            sigma_fp(FpSubset(1_000_000_007, (1,)), 0)

    def test_wraparound_differs_from_integers(self):
        # 3 + 4 = 7 == 0 mod 7, so the field sum set wraps
        sums = sigma_fp(FpSubset(7, (3, 4)), 2)
        assert sums == (0,)

    @pytest.mark.parametrize("alpha", range(4))
    def test_matches_integer_sums_when_no_wrap(self, alpha):
        # all subset sums of {1,2,3} stay below p = 31, so reduction
        # mod p is injective on them and the two computations agree
        ints = sigma(IntegerSet((1, 2, 3)), alpha).sums
        field = sigma_fp(FpSubset(31, (1, 2, 3)), alpha)
        assert tuple(s % 31 for s in ints) == field


class TestCyclicLayers:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_walk_layers_match_enumeration(self, p, monkeypatch):
        # the depth-first walk visits every canonical admissible subset
        # once, in product order, at weight 2, handing over its digit per
        # inverse pair; each lane holds exactly the residues the
        # enumeration oracle reaches with that many members or more, and
        # sizes is each lane's bit count. The lanes are read as the walk
        # hands them to sizes, just before each visit
        seen, packed = [], []
        real_lanes = fp._lanes

        def recording_lanes(p):
            insert, sizes = real_lanes(p)

            def recording_sizes(v, n):
                packed.append(v)
                return sizes(v, n)

            return insert, recording_sizes

        def add(sizes, weight, digits):
            assert weight == 2
            seen.append(tuple(digits))
            picked = [(x, p - x)[d - 1] for x, d in enumerate(digits, 1) if d]
            elements = tuple(sorted(picked))
            unions = suffix_residues(residue_sums_by_size(elements, p))
            split = split_lanes(packed[-1], p, len(picked) + 1)
            assert [residues(union) for union in split] == unions
            assert sizes == bytes(union.bit_count() for union in split)
            for alpha, union in enumerate(unions):
                assert sigma_fp(FpSubset(p, elements), alpha) == tuple(sorted(union))

        monkeypatch.setattr(fp, "_lanes", recording_lanes)
        fp._walk(p, add)
        assert len(packed) == len(seen)
        assert seen == list(canonical_in_product_order(p))
        assert len(seen) == (3 ** ((p - 1) // 2) - 1) // 2

    @given(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23]).flatmap(
        lambda p: st.tuples(st.just(p), st.lists(st.integers(0, p - 1),
                                                 max_size=(p - 1) // 2))))
    @example((23, list(range(22, 11, -1))))  # p - 1 first, then a full chain
    @example((23, list(range(11, 0, -1))))  # nine lanes saturated, 23 each
    @example((17, [16, 1, 16, 0, 8, 9, 15, 2]))  # repeats, zero, full chain
    @example((7, [6, 6, 6]))  # the top bit wraps at every insertion
    def test_lane_insertion_is_list_insertion(self, case):
        # after every insertion the lanes split into exactly the unions
        # _insert_suffix builds, the suffix unions of the residues the
        # enumeration oracle reaches, and sizes is each lane's bit count
        # (three popcount bytes per lane from p = 17 on)
        p, zs = case
        insert, sizes = fp._lanes(p)
        lanes, suffix = 1, [1]
        for i in range(len(zs) + 1):
            if i:
                lanes = insert(lanes, zs[i - 1])
                suffix = fp._insert_suffix(suffix, zs[i - 1], p)
            unions = suffix_residues(residue_sums_by_size(tuple(zs[:i]), p))
            assert split_lanes(lanes, p, i + 1) == suffix
            assert [residues(union) for union in suffix] == unions
            assert sizes(lanes, i + 1) == bytes(map(len, unions))

    def test_saturated_lanes_count_p(self):
        # {1, ..., 11} reaches every residue mod 23 with c or more members
        # for each c <= 8: a count of 23 spread over a lane's three bytes
        insert, sizes = fp._lanes(23)
        lanes = 1
        for z in range(11, 0, -1):
            lanes = insert(lanes, z)
        assert list(sizes(lanes, 12)) == [23] * 9 + [22, 12, 1]

    def test_lanes_refuse_wide_primes(self):
        # a lane's count is read from one byte
        fp._lanes(251)
        with pytest.raises(AssertionError, match="p <= 255"):
            fp._lanes(257)

    @given(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 23]).flatmap(
        lambda p: st.tuples(st.just(p), st.lists(st.integers(0, p - 1), max_size=8))))
    @example((23, [22, 21, 20, 19]))  # residues near p wrap nearly every sum
    @example((13, [12, 0, 1, 12, 11]))  # zero, an inverse pair, a repeat
    @example((7, [6, 5, 4, 3, 2, 1, 0]))  # the whole field
    def test_suffix_insertion_is_suffix_unions_of_layers(self, case):
        # one rotate-or per suffix union gives, after every insertion, the
        # suffix unions of the residues the enumeration oracle reaches
        # with each number of members of the prefix inserted so far
        p, xs = case
        suffix = [1]
        for i, x in enumerate(xs, 1):
            suffix = fp._insert_suffix(suffix, x, p)
            unions = suffix_residues(residue_sums_by_size(tuple(xs[:i]), p))
            assert [residues(union) for union in suffix] == unions

    @given(st.sampled_from([2, 3, 5, 7, 11, 13]),
           st.sets(st.integers(0, 12), min_size=1))
    @example(7, set(range(7)))  # the whole field
    @example(5, {0})
    @example(11, {0, 3, 8})  # zero and the inverse pair {3, 8}
    def test_sigma_fp_matches_enumeration(self, p, values):
        # any residue set, including 0 and both members of an inverse pair
        elements = tuple(sorted({v % p for v in values}))
        by_size = residue_sums_by_size(elements, p)
        a = FpSubset(p, elements)
        for alpha in range(a.size + 1):
            expect = set().union(*by_size[alpha:])
            assert sigma_fp(a, alpha) == tuple(sorted(expect))

    def test_zero_and_inverse_pairs(self):
        assert sigma_fp(FpSubset(5, (0,)), 1) == (0,)
        assert sigma_fp(FpSubset(5, (0, 2, 3)), 2) == (0, 2, 3)
        assert sigma_fp(FpSubset(5, (1, 4)), 0) == (0, 1, 4)


class TestVerifyBalandraud:
    @pytest.mark.parametrize(
        "p,instances,checks,tight",
        [(3, 2, 4, 4), (5, 8, 20, 20), (7, 26, 80, 78)],
    )
    def test_counts(self, p, instances, checks, tight):
        rep = verify_balandraud(p)
        assert rep.instances == instances
        assert rep.checks == checks
        assert rep.violations == 0
        assert rep.tight_by_theorem == {"T1_3": tight}

    @pytest.mark.parametrize("p, lift", [(3, 0), (5, 0), (7, 0), (11, 0),
                                         (13, 0), (11, 1)],
                             ids=["3", "5", "7", "11", "13", "11-lifted"])
    def test_matches_full_enumeration(self, p, lift, monkeypatch):
        # an independent reference: every admissible subset, its sizes
        # from the enumeration oracle, each (size, alpha) floor from
        # bound_fp, and per minima cell the first WITNESS_CAP minimizers
        # in product order. lift raises the floors at odd alpha by one,
        # so tight pairs there become violations and the tallies split
        def floor_of(size, alpha, p):
            res = bound_fp(size, alpha, p)
            return dataclasses.replace(res, value=res.value + lift * (alpha % 2))

        monkeypatch.setattr(fp, "bound_fp", floor_of)
        instances = checks = violations = tight = 0
        cells = {}
        for elements in admissible_in_product_order(p):
            k = len(elements)
            instances += 1
            unions = suffix_residues(residue_sums_by_size(elements, p))
            for alpha, union in enumerate(unions):
                checks += 1
                got, floor = len(union), floor_of(k, alpha, p).value
                violations += got < floor
                tight += got == floor
                size, wits = cells.setdefault((k, alpha), (got, []))
                if got < size:
                    cells[k, alpha] = got, [elements]
                elif got == size:
                    wits.append(elements)
        expect = {
            "universe": {"kind": "fp", "p": p},
            "counts": {"instances": instances, "checks": checks,
                       "violations": violations, "oracle_checked": 0},
            "tight_by_theorem": {"T1_3": tight} if tight else {},
            "minima": [
                {"k": k, "alpha": alpha, "size": size,
                 "witnesses": [FpSubset(p, w).literal() for w in wits[:WITNESS_CAP]]}
                for (k, alpha), (size, wits) in sorted(cells.items())
            ],
        }
        assert verify_balandraud(p).body() == expect
        assert instances == 3 ** ((p - 1) // 2) - 1
        assert (violations > 0) == bool(lift)

    def test_universe_echo(self):
        rep = verify_balandraud(5)
        assert rep.to_json()["universe"] == {"kind": "fp", "p": 5}

    def test_admissible_size_cap(self):
        # every admissible subset picks at most one residue per inverse
        # pair, so minima cells never exceed (p - 1) / 2 elements
        rep = verify_balandraud(11)
        assert rep.violations == 0
        assert max(cell["k"] for cell in rep.minima) == 5

    def test_minima_include_tight_witnesses(self):
        rep = verify_balandraud(7)
        by_cell = {(c["k"], c["alpha"]): c for c in rep.minima}
        assert by_cell[(1, 1)]["size"] == 1
        assert by_cell[(3, 0)]["size"] == 7  # saturates the whole field
        assert by_cell[(2, 1)]["size"] == 3

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            verify_balandraud(9)

    def test_enumeration_guard(self):
        # the admissible subsets are counted against the instance budget:
        # 177,146 at p = 23 pass, and larger primes are refused before any
        # work, naming the count
        check_prime(23)
        for p in (29, 31, 37):
            with pytest.raises(BudgetExceeded, match=str(3 ** ((p - 1) // 2) - 1)):
                verify_balandraud(p)
        with pytest.raises(BudgetExceeded, match=r"^p=29 needs 4782968 "
                           r"admissible subsets; budget is 1000000$"):
            check_prime(29)

    @pytest.mark.parametrize("p, half", [(100003, 50001),
                                         (10**9 + 7, 5 * 10**8 + 3)])
    def test_huge_prime_count_named_as_a_power(self, p, half):
        # the count is not built: it would take minutes near p = 10^9 and
        # has too many digits for str() past p = 18,000 or so
        with pytest.raises(BudgetExceeded,
                           match=rf"^p={p} needs 3\^{half} - 1 admissible"):
            check_prime(p)

    def test_determinism(self):
        assert verify_balandraud(7).body() == verify_balandraud(7).body()
