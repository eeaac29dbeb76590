"""Families of instances that attain the size floors with equality, and
a checker that confirms tightness point by point.

Each family pairs a construction (an interval-shaped set or repeated
sequence) with the one floor it is claimed to attain for every alpha in
the floor's range. A family's sign shape (n, p, zero) gives both: its
base is the integers from -n to p, without 0 unless zero is 1, and its
floor is `bounds.shape_bound` at that shape, which checks alpha's range
before any DP runs. check_tightness counts the achievable sums with the
engine, a set family as its r = 1 sequence, and compares sizes exactly;
one DP serves every alpha of the most recent family, its suffix unions
counted as they are formed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import accumulate
from operator import or_

from . import bounds, engine
from .model import IntegerSet, RepSequence, as_sequence

POS_INTERVAL = "pos-interval"
NONNEG_INTERVAL = "nonneg-interval"
MIXED_PUNCTURED = "mixed-punctured"
MIXED_FULL = "mixed-full"
POS_INTERVAL_R = "pos-interval-r"
NONNEG_INTERVAL_R = "nonneg-interval-r"
MIXED_PUNCTURED_R = "mixed-punctured-r"
MIXED_FULL_R = "mixed-full-r"

# family -> (the floor it attains, whether it is a repeated sequence)
_FAMILIES = {
    POS_INTERVAL: (bounds.T2_1, False),
    NONNEG_INTERVAL: (bounds.C2_2, False),
    MIXED_PUNCTURED: (bounds.T2_3, False),
    MIXED_FULL: (bounds.C2_4, False),
    POS_INTERVAL_R: (bounds.T3_1_DISJOINT, True),
    NONNEG_INTERVAL_R: (bounds.T3_1_ZERO, True),
    MIXED_PUNCTURED_R: (bounds.T3_2, True),
    MIXED_FULL_R: (bounds.C3_3, True),
}
FAMILY_IDS = tuple(_FAMILIES)


@dataclass(frozen=True)
class WitnessFamily:
    """A parameterized extremal construction.

    Interval families take k (and r for sequence variants); mixed
    families take n and p (and r). Parameters must satisfy the matched
    floor's hypotheses, e.g. k >= 2 for sequence interval families.
    """

    family_id: str
    k: int | None = None
    n: int | None = None
    p: int | None = None
    r: int | None = None

    def __post_init__(self) -> None:
        if self.family_id not in _FAMILIES:
            raise ValueError(f"unknown family {self.family_id!r}")
        seq = self.is_sequence
        if seq:
            if self.r is None or self.r < 1:
                raise ValueError(f"{self.family_id} needs r >= 1")
        elif self.r is not None:
            raise ValueError(f"{self.family_id} takes no r parameter")
        # interval families take k, mixed ones n and p
        if "interval" in self.family_id:
            floor_k = 2 if seq else 1
            if self.k is None or self.k < floor_k:
                raise ValueError(f"{self.family_id} needs k >= {floor_k}")
            if self.n is not None or self.p is not None:
                raise ValueError(f"{self.family_id} takes only k (and r)")
        else:
            if self.n is None or self.n < 1 or self.p is None or self.p < 1:
                raise ValueError(f"{self.family_id} needs n >= 1 and p >= 1")
            if self.k is not None:
                raise ValueError(f"{self.family_id} takes n and p, not k")

    @property
    def is_sequence(self) -> bool:
        return _FAMILIES[self.family_id][1]


@dataclass(frozen=True)
class TightnessReport:
    family: WitnessFamily
    alpha: int
    computed_size: int
    bound: bounds.BoundResult
    tight: bool

    def to_json(self) -> dict:
        fam = {"family": self.family.family_id}
        for name in ("k", "n", "p", "r"):
            value = getattr(self.family, name)
            if value is not None:
                fam[name] = value
        return {
            **fam,
            "alpha": self.alpha,
            "size": self.computed_size,
            "bound": self.bound.to_json(),
            "tight": self.tight,
        }


def _shape(fam: WitnessFamily) -> tuple[int, int, int]:
    """(n, p, zero): the family's base is the integers from -n to p,
    without 0 unless zero is 1."""
    if fam.family_id in (POS_INTERVAL, POS_INTERVAL_R):
        return 0, fam.k, 0
    if fam.family_id in (NONNEG_INTERVAL, NONNEG_INTERVAL_R):
        return 0, fam.k - 1, 1
    return fam.n, fam.p, int(fam.family_id in (MIXED_FULL, MIXED_FULL_R))


def witness(fam: WitnessFamily) -> IntegerSet | RepSequence:
    """Materialize the family's instance. The layer budget of its DP is
    checked first, in closed form, so a family too large for it is
    refused with BudgetExceeded before its base is built: the DP reads
    every layer, r times the base size n + p + zero, its largest term is
    p, and its offset is r*n(n + 1)/2, r copies of -n .. -1."""
    n, p, zero = _shape(fam)
    r = fam.r or 1
    engine.check_layer_bits(r * (n + p + zero), r * n * (n + 1) // 2, p)
    base = IntegerSet(tuple(x for x in range(-n, p + 1) if x or zero))
    if fam.is_sequence:
        return RepSequence(base, fam.r)
    return base


def claimed_bound(fam: WitnessFamily, alpha: int) -> bounds.BoundResult:
    """The floor this family is claimed to attain, evaluated at alpha by
    `bounds.shape_bound` at the family's sign shape. It refuses an alpha
    outside [0, k] for sets and [0, r*k - 1] for sequences before any
    family is built."""
    return bounds.shape_bound(_FAMILIES[fam.family_id][0], *_shape(fam),
                              fam.r, alpha)


def alpha_values(fam: WitnessFamily) -> range:
    """Thresholds covered by the matched floor: [0, k] for sets and
    [0, r*k - 1] for sequences (k counts distinct base elements)."""
    length = as_sequence(witness(fam)).length
    return range(0, length if fam.is_sequence else length + 1)


@functools.lru_cache(maxsize=1)
def _sizes(fam: WitnessFamily) -> tuple[int, ...]:
    """sizes[alpha] is the number of sums with at least alpha terms, for
    every alpha, from one DP; a run over all alphas reuses it. Each
    suffix union is counted as it is formed, and none is kept."""
    layers, _ = engine.sequence_layers(as_sequence(witness(fam)))
    return tuple(u.bit_count() for u in accumulate(reversed(layers), or_))[::-1]


def check_tightness(fam: WitnessFamily, alpha: int) -> TightnessReport:
    """Compare the engine-computed size against the claimed floor.
    `claimed_bound` refuses an alpha outside the floor's range, [0, k] for
    sets and [0, r*k - 1] for sequences, before any DP runs."""
    bound = claimed_bound(fam, alpha)
    size = _sizes(fam)[alpha]
    return TightnessReport(fam, alpha, size, bound, size == bound.value)
