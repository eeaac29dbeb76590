"""Oracle tests: frozen expected values and enumeration guards.

Expected tuples here were computed by hand from the definitions (walk
every subset or multiplicity vector, keep those inside the count
window, collect sums).
"""

import pytest

from subsums.model import AT_LEAST, AT_MOST, IntegerSet, RepSequence
from subsums.oracle import (
    SUBSET_ENUM_MAX_K,
    oracle_fold,
    oracle_sigma_seq,
    oracle_sigma_set,
    residue_sums_by_size,
    sequence_sums_by_size,
    subset_sums_by_size,
)


def iset(*elems):
    return IntegerSet(tuple(sorted(elems)))


def rseq(r, *elems):
    return RepSequence(iset(*elems), r)


@pytest.mark.parametrize(
    "elems, alpha, mode, expected",
    [
        ((-2, -1, 1, 2), 3, AT_LEAST, (-2, -1, 0, 1, 2)),
        ((-2, -1, 1, 2), 1, AT_LEAST, (-3, -2, -1, 0, 1, 2, 3)),
        ((-2, -1, 1, 2), 0, AT_MOST, (-3, -2, -1, 0, 1, 2, 3)),
        ((1, 2, 3, 4), 2, AT_LEAST, (3, 4, 5, 6, 7, 8, 9, 10)),
        ((1, 2, 3), 1, AT_MOST, (0, 1, 2, 3, 4, 5)),
        ((5,), 1, AT_LEAST, (5,)),
        ((5,), 0, AT_LEAST, (0, 5)),
        ((0, 1, 3), 2, AT_LEAST, (1, 3, 4)),
    ],
)
def test_oracle_sigma_set_frozen(elems, alpha, mode, expected):
    assert oracle_sigma_set(iset(*elems), alpha, mode).sums == expected


def test_oracle_sigma_set_full_alpha_is_total():
    a = iset(-3, 2, 7)
    assert oracle_sigma_set(a, 3).sums == (6,)


@pytest.mark.parametrize(
    "r, elems, alpha, expected",
    [
        (2, (1, 2), 1, (1, 2, 3, 4, 5, 6)),
        (2, (1, 2), 4, (6,)),
        (2, (-1, 1), 3, (-1, 0, 1)),
        (2, (-1, 0, 1), 3, (-2, -1, 0, 1, 2)),
        (3, (1,), 0, (0, 1, 2, 3)),
    ],
)
def test_oracle_sigma_seq_frozen(r, elems, alpha, expected):
    assert oracle_sigma_seq(rseq(r, *elems), alpha).sums == expected


def test_oracle_sigma_seq_at_most_mirrors():
    s = rseq(2, -1, 2)
    total = s.total
    for alpha in range(s.length + 1):
        left = oracle_sigma_seq(s, alpha, AT_LEAST)
        right = oracle_sigma_seq(s, alpha, AT_MOST)
        assert right.sums == left.reflect(total).sums


@pytest.mark.parametrize(
    "elems, h, kind, r, expected",
    [
        ((1, 2, 3), 2, "restricted", None, (3, 4, 5)),
        ((1, 2, 3), 3, "restricted", None, (6,)),
        ((1, 2, 3), 2, "unrestricted", None, (2, 3, 4, 5, 6)),
        ((1, 2), 3, "unrestricted", None, (3, 4, 5, 6)),
        ((0, 1), 2, "generalized", 2, (0, 1, 2)),
        ((-1, 2), 3, "generalized", 2, (0, 3)),
        ((4, 9), 0, "restricted", None, (0,)),
        ((4, 9), 0, "unrestricted", None, (0,)),
        ((4, 9), 0, "generalized", 3, (0,)),
    ],
)
def test_oracle_fold_frozen(elems, h, kind, r, expected):
    assert oracle_fold(iset(*elems), h, kind, r).sums == expected


def test_oracle_fold_kind_validation():
    a = iset(1, 2)
    with pytest.raises(ValueError):
        oracle_fold(a, 3, "restricted")
    with pytest.raises(ValueError):
        oracle_fold(a, 5, "generalized", 2)
    with pytest.raises(ValueError):
        oracle_fold(a, 1, "generalized")
    with pytest.raises(ValueError):
        oracle_fold(a, -1)
    with pytest.raises(ValueError):
        oracle_fold(a, 1, "sideways")
    # the kind and r are checked at h = 0 too
    for kind, r in [("sideways", None), ("generalized", None),
                    ("generalized", 0)]:
        with pytest.raises(ValueError):
            oracle_fold(a, 0, kind, r)
    for kind, r in [("unrestricted", None), ("restricted", None),
                    ("generalized", 1)]:
        assert oracle_fold(a, 0, kind, r).sums == (0,)


def test_sums_by_size_shape():
    a = iset(-1, 2)
    by_size = subset_sums_by_size(a)
    assert by_size == [{0}, {-1, 2}, {1}]
    s = rseq(2, -1, 2)
    seq_sizes = sequence_sums_by_size(s)
    assert seq_sizes[0] == {0}
    assert seq_sizes[1] == {-1, 2}
    assert seq_sizes[2] == {-2, 1, 4}
    assert seq_sizes[3] == {0, 3}
    assert seq_sizes[4] == {2}


def test_residue_sums_by_size():
    # 3 + 4 = 0 mod 7, so the size-2 sum wraps
    assert residue_sums_by_size((3, 4), 7) == [{0}, {3, 4}, {0}]
    assert residue_sums_by_size((0, 2), 5) == [{0}, {0, 2}, {2}]


def test_subset_guard_refuses_large_k():
    a = IntegerSet(tuple(range(SUBSET_ENUM_MAX_K + 1)))
    with pytest.raises(ValueError):
        oracle_sigma_set(a, 0)


def test_vector_guard_refuses_large_product():
    # (r+1)^k = 2^21 just exceeds the 2e6 vector cap
    s = RepSequence(IntegerSet(tuple(range(21))), 1)
    with pytest.raises(ValueError):
        oracle_sigma_seq(s, 0)


def test_oracle_alpha_range_validation():
    a = iset(1, 2)
    with pytest.raises(ValueError):
        oracle_sigma_set(a, 3)
    with pytest.raises(ValueError):
        oracle_sigma_set(a, -1)
    with pytest.raises(ValueError):
        oracle_sigma_seq(rseq(2, 1, 2), 5)
