"""Domain types shared by the whole package.

Conventions:

  - An integer set holds k distinct integers, stored sorted ascending.
  - A repeated sequence pairs a base set with a uniform multiplicity
    r >= 1: every base element occurs exactly r times, so the sequence
    has r*k terms. A set is the r = 1 case (`as_sequence`).
  - A thresholded sum query takes alpha and a mode. Mode "at_least"
    keeps sub-collections with at least alpha members; "at_most" keeps
    those with at most total - alpha members (total = k for sets, r*k
    for sequences). The two windows mirror each other around the total.
  - SumSet is a sorted, duplicate-free value object. Its bitmap form
    sets bit (s + offset) for each achievable sum s, with offset equal
    to the negated minimum sum, so indices are always nonnegative.

The argument rules that several modules share live here, each in one
function that raises the one message for its inputs: `check_alpha` the
threshold range 0 <= alpha <= hi, `size_window` the window of a mode,
`fold_multiplicity` the fold contract, and `refuse_above` every
up-front budget refusal. The engine and the oracle both call them, so
they refuse the same inputs with the same words, while each computes
its answer its own way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import log10
from operator import lt, sub
from typing import Iterable, Iterator, NamedTuple

AT_LEAST = "at_least"
AT_MOST = "at_most"
MODES = (AT_LEAST, AT_MOST)

UNRESTRICTED = "unrestricted"
RESTRICTED = "restricted"
GENERALIZED = "generalized"


# Count layers a DP may hold, in bits (2^30 bits is 128 MB).
LAYER_BITS_BUDGET = 1 << 30
# Units a campaign may walk: a sweep's instance-alpha pairs or oracle
# vectors, empirical_minimum's subsets, fp's admissible subsets.
DEFAULT_BUDGET = 10**6


class BudgetExceeded(RuntimeError):
    """Raised before any work starts when a run would exceed its budget."""


def refuse_above(need: int, budget: int, what: str) -> None:
    """The one up-front refusal: BudgetExceeded, its message `what` and
    the budget, when the estimate `need` exceeds `budget`."""
    if need > budget:
        raise BudgetExceeded(f"{what}; budget is {budget}")


def numeral(n: int) -> str:
    """A refusal's count n >= 1 in decimal, or as "about 10^e" when it is
    past the digits Python will print (4,300 by default): a binomial
    count such as C(2*10^6 + 1, 2100) is too long to print, or to read."""
    try:
        return str(n)
    except ValueError:
        return f"about 10^{round(log10(n))}"


class ParseError(ValueError):
    """Malformed, empty, duplicated, or out-of-range instance literal."""


@dataclass(frozen=True)
class Limits:
    """Input caps that keep bitmap widths and enumerations predictable."""

    max_abs_value: int = 10**6
    max_k: int = 64
    max_r: int = 64


DEFAULT_LIMITS = Limits()


def check_alpha(alpha: int, hi: int) -> None:
    """The one alpha range check: ValueError unless 0 <= alpha <= hi."""
    if not 0 <= alpha <= hi:
        raise ValueError(f"alpha={alpha} out of range [0, {hi}]")


def size_window(alpha: int, total: int, mode: str) -> range:
    """Member-count window selected by (alpha, mode) within [0, total]."""
    check_alpha(alpha, total)
    if mode == AT_LEAST:
        return range(alpha, total + 1)
    if mode == AT_MOST:
        return range(0, total - alpha + 1)
    raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


def fold_multiplicity(k: int, h: int, kind: str, r: int | None) -> int:
    """The fold contract for h >= 0 terms of a k-element set, checked at
    every h, h = 0 included: ValueError for an unknown kind, a restricted
    fold with h > k, or a generalized fold without r >= 1 or with
    h > r*k. Returns the multiplicity the fold's DP runs at: h for
    "unrestricted", since h terms never use one element more than h
    times, 1 for "restricted" and r for "generalized"."""
    if kind == UNRESTRICTED:
        return h
    if kind == RESTRICTED:
        if h > k:
            raise ValueError(f"restricted fold needs h <= k, got h={h}, k={k}")
        return 1
    if kind == GENERALIZED:
        if r is None or r < 1:
            raise ValueError("generalized fold needs multiplicity r >= 1")
        if h > r * k:
            raise ValueError(
                f"generalized fold needs h <= r*k, got h={h}, r*k={r * k}"
            )
        return r
    raise ValueError(f"unknown fold kind {kind!r}")


def literal(elems: Iterable[int]) -> str:
    """The brace literal of integers in the order given, as in {-2,0,3}:
    what reports print and parse_set reads back."""
    return "{" + ",".join(map(str, elems)) + "}"


def _check_caps(count: int, lo: int, hi: int, limits: Limits) -> None:
    """Refuse `count` distinct values in [lo, hi] that break the k cap,
    then the magnitude cap."""
    if count > limits.max_k:
        raise ValueError(f"set has {count} elements; cap is {limits.max_k}")
    worst = max(abs(lo), abs(hi))
    if worst > limits.max_abs_value:
        raise ValueError(
            f"element magnitude {worst} exceeds cap {limits.max_abs_value}"
        )


@dataclass(frozen=True)
class IntegerSet:
    """Nonempty set of distinct integers, kept sorted ascending."""

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("integer set must be nonempty")
        if not all(map(lt, self.elements, self.elements[1:])):
            raise ValueError("elements must be strictly increasing")

    @classmethod
    def from_iterable(
        cls, values: Iterable[int], limits: Limits = DEFAULT_LIMITS
    ) -> "IntegerSet":
        """Build from arbitrary integers, deduplicating and enforcing caps."""
        elems = tuple(sorted({int(v) for v in values}))
        if not elems:
            raise ValueError("integer set must be nonempty")
        _check_caps(len(elems), elems[0], elems[-1], limits)
        return cls(elems)

    @property
    def k(self) -> int:
        return len(self.elements)

    @property
    def total(self) -> int:
        return sum(self.elements)

    def negate(self) -> "IntegerSet":
        return IntegerSet(tuple(-x for x in reversed(self.elements)))

    def dilate(self, factor: int) -> "IntegerSet":
        """Multiply every element by a nonzero integer factor."""
        if factor == 0:
            raise ValueError("dilation factor must be nonzero")
        scaled = tuple(x * factor for x in self.elements)
        return IntegerSet(scaled if factor > 0 else scaled[::-1])

    def literal(self) -> str:
        """Canonical brace literal, parseable by parse_set."""
        return literal(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, value: object) -> bool:
        return value in self.elements


@dataclass(frozen=True)
class RepSequence:
    """Base set with every element repeated exactly r times."""

    base: IntegerSet
    r: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise ValueError("multiplicity r must be >= 1")

    @property
    def length(self) -> int:
        return self.r * self.base.k

    @property
    def total(self) -> int:
        return self.r * self.base.total

    def negate(self) -> "RepSequence":
        return RepSequence(self.base.negate(), self.r)


def as_sequence(inst: IntegerSet | RepSequence) -> RepSequence:
    """The instance as a repeated sequence: a set is its r = 1 case."""
    return inst if isinstance(inst, RepSequence) else RepSequence(inst, 1)


class SignProfile(NamedTuple):
    """Sign shape of a set, the key of every floor: n negatives, p
    positives, zero 1 if 0 is present, meet 1 if some nonzero x and -x
    both are."""

    n: int
    p: int
    zero: int
    meet: int


def classify(a: IntegerSet) -> SignProfile:
    """Sign shape of a set, in one pass over its ascending elements."""
    n = p = zero = meet = 0
    negated = set()
    for x in a.elements:
        if x < 0:
            n += 1
            negated.add(-x)
        elif x:
            p += 1
            meet |= x in negated
        else:
            zero = 1
    return SignProfile(n, p, zero, meet)


@dataclass(frozen=True)
class SumSet:
    """Sorted, duplicate-free, nonempty set of achievable sums."""

    sums: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.sums:
            raise ValueError("sum set must be nonempty")
        if not all(map(lt, self.sums, self.sums[1:])):
            raise ValueError("sums must be strictly increasing")

    @classmethod
    def from_iterable(cls, values: Iterable[int]) -> "SumSet":
        return cls(tuple(sorted(set(values))))

    @classmethod
    def from_bitmap(cls, bitmap: int, offset: int) -> "SumSet":
        """Decode a bitmap where bit i means sum i - offset is achievable."""
        if bitmap <= 0:
            raise ValueError("bitmap must have at least one bit set")
        # Sum sets are mostly long intervals, so the decode walks runs of
        # ones: bits holds the map with its low zeros stripped, least
        # significant first, so it starts and ends with a one. Each run
        # costs two finds and one C-level extend.
        low = (bitmap & -bitmap).bit_length() - 1
        bits = bin(bitmap >> low)[:1:-1]
        base = low - offset
        out = []
        i = 0
        while (j := bits.find("0", i)) >= 0:
            out.extend(range(base + i, base + j))
            i = bits.find("1", j)
        out.extend(range(base + i, base + len(bits)))
        # the runs ascend and bitmap > 0, so the sums are nonempty and
        # strictly increasing: skip __post_init__, which would check both
        decoded = object.__new__(cls)
        object.__setattr__(decoded, "sums", tuple(out))
        return decoded

    def to_bitmap(self) -> tuple[int, int]:
        """Encode as (bitmap, offset) with offset = -min_sum, one
        shift-or per run of consecutive sums."""
        sums = self.sums
        base = sums[0]
        # a run starts at index 0 and wherever a gap precedes a sum
        starts = [0, *compress(range(1, len(sums)),
                               map((1).__ne__, map(sub, sums[1:], sums)))]
        bitmap = 0
        for a, b in zip(starts, starts[1:] + [len(sums)]):
            bitmap |= ((1 << (b - a)) - 1) << (sums[a] - base)
        return bitmap, -base

    @property
    def size(self) -> int:
        return len(self.sums)

    @property
    def min_sum(self) -> int:
        return self.sums[0]

    @property
    def max_sum(self) -> int:
        return self.sums[-1]

    def reflect(self, total: int) -> "SumSet":
        """Mirror every sum s to total - s."""
        return SumSet(tuple(total - s for s in reversed(self.sums)))

    def __iter__(self) -> Iterator[int]:
        return iter(self.sums)

    def __len__(self) -> int:
        return len(self.sums)

    def __contains__(self, value: object) -> bool:
        return value in self.sums


def parse_set(text: str, limits: Limits = DEFAULT_LIMITS) -> IntegerSet:
    """Parse a set literal: "{a,b,...}" or interval shorthand "[a,b]".

    Raises ParseError on malformed syntax, empty sets, duplicates,
    reversed intervals, or cap violations.
    """
    s = text.strip()
    if s.startswith("{") and s.endswith("}"):
        body = s[1:-1].strip()
        if not body:
            raise ParseError("empty set literal")
        try:
            values = [int(part.strip()) for part in body.split(",")]
        except ValueError:
            raise ParseError(f"malformed set literal: {text!r}") from None
        if len(set(values)) != len(values):
            raise ParseError(f"duplicate element in set literal: {text!r}")
        return _capped(values, limits)
    if s.startswith("[") and s.endswith("]"):
        parts = s[1:-1].split(",")
        if len(parts) != 2:
            raise ParseError(f"interval literal needs two endpoints: {text!r}")
        try:
            lo, hi = int(parts[0].strip()), int(parts[1].strip())
        except ValueError:
            raise ParseError(f"malformed interval literal: {text!r}") from None
        if hi < lo:
            raise ParseError(f"interval [{lo},{hi}] is empty")
        # refuse from the endpoints before the range is materialised
        try:
            _check_caps(hi - lo + 1, lo, hi, limits)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        return _capped(range(lo, hi + 1), limits)
    raise ParseError(f"unrecognized set literal: {text!r}")


def _capped(values: Iterable[int], limits: Limits) -> IntegerSet:
    try:
        return IntegerSet.from_iterable(values, limits)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_sequence(
    text: str, r: int, limits: Limits = DEFAULT_LIMITS
) -> RepSequence:
    """Parse a base-set literal and attach a uniform multiplicity r."""
    if r < 1:
        raise ParseError("multiplicity r must be a positive integer")
    if r > limits.max_r:
        raise ParseError(f"multiplicity {r} exceeds cap {limits.max_r}")
    return RepSequence(parse_set(text, limits), r)
