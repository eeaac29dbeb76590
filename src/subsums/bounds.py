"""Closed-form size floors for thresholded sum sets, plus one dispatch,
keyed by sign shape and r, that lists every floor applicable to an
instance.

A set is the r = 1 case of a sequence, so the ten set and sequence
floors come from two shared expressions, with T(x) = x(x+1)/2:

- sign-aware, for n negatives, p positives, zero in {0, 1} and
  multiplicity r: with m = alpha//r + 1, dn = max(m - n - zero, 0) and
  dp = max(m - p - zero, 0), the floor is
  r(T(n) + T(p) - T(dn) - T(dp)) + (dn + dp)(mr - alpha) + 1.
  T3_1_disjoint is (0, k, 0, r) and T2_1 its r = 1 case; T3_1_zero is
  (0, k - 1, 1, r) and C2_2 its r = 1 case; T2_3, C2_4, T3_2 and C3_3
  pass their own n, p and zero. The prime-field floor T1_3 reads T2_1's
  entry and caps it at p.
- sign-agnostic, for k values: r((k + 1 - zero)^2 // 4 - T(i - zero)) + 1.

The index i of the sign-agnostic floor and of the mixed-floor case
labels is alpha for sets and m for sequences; that is why C2_5 (i =
alpha) and C3_4 (i = m) differ at r = 1 while the signed floors agree.

Both expressions are written once, as block helpers: within a block
m = alpha//r + 1 (r = 1 for sets) a floor is base + d*(m*r - alpha), an
arithmetic progression in alpha, with d = dn + dp for the sign-aware
floor and d = 0 for the sign-agnostic one. Which floors hold for a sign
shape and r, and the block helper and parameters each one evaluates,
are stated in one place, `_shape_floors`, which keeps its last shape,
so the alphas of one shape resolve its entries once. Everything else
reads its entries: `shape_floor_rows` fills each floor's row over the
alphas that have floors, one block at a time; `shape_bounds` builds one
alpha's `BoundResult`s; `shape_bound` builds one theorem's at a given
shape; each public constructor is `shape_bound` at its own shape; and
`bound_fp` is T2_1's `shape_bound` capped at p, after a check that p is
prime. So every refusal of a shape comes from `_shape_floors`: a shape
no set has or an r below 1 it raises itself, and a theorem whose
hypotheses fail there, such as k >= 2 for T3_1_disjoint, is missing
from its entries, which `shape_bound` refuses.
`applicable_bounds` is `shape_bounds` at an instance's shape.

All arithmetic is exact integer arithmetic. A boundary index equal to n
or p always falls into the <= branch. Identifiers such as T2_1 or C3_4
are stable strings that appear verbatim in JSON and CSV reports.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from .model import IntegerSet, RepSequence, check_alpha, classify

T1_1 = "T1_1"
T1_2 = "T1_2"
T1_3 = "T1_3"
T2_1 = "T2_1"
C2_2 = "C2_2"
T2_3 = "T2_3"
C2_4 = "C2_4"
C2_5 = "C2_5"
T3_1_DISJOINT = "T3_1_disjoint"
T3_1_ZERO = "T3_1_zero"
T3_2 = "T3_2"
C3_3 = "C3_3"
C3_4 = "C3_4"

ALL_THEOREM_IDS = (
    T1_1,
    T1_2,
    T1_3,
    T2_1,
    C2_2,
    T2_3,
    C2_4,
    C2_5,
    T3_1_DISJOINT,
    T3_1_ZERO,
    T3_2,
    C3_3,
    C3_4,
)


@dataclass(frozen=True)
class BoundResult:
    """One evaluated floor: identifier, selected case, value, and an echo
    of the parameters it was evaluated at."""

    theorem_id: str
    case_label: str | None
    value: int
    params: dict[str, int] = field(default_factory=dict)

    def label(self) -> str:
        if self.case_label is None:
            return self.theorem_id
        return f"{self.theorem_id}({self.case_label})"

    def to_json(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "case": self.case_label,
            "value": self.value,
            "params": dict(self.params),
        }


def _tri(x: int) -> int:
    # triangular number x(x+1)/2, exact
    return x * (x + 1) // 2


def min_sumset_size(size_a: int, size_b: int) -> int:
    """Least possible size of a pairwise-sum set of two nonempty sets."""
    if size_a < 1 or size_b < 1:
        raise ValueError("operand sizes must be >= 1")
    return size_a + size_b - 1


def min_fold_size(h: int, k: int) -> int:
    """Least possible size of an h-fold repeated-sum set of k values."""
    if h < 1 or k < 1:
        raise ValueError("h and k must be >= 1")
    return h * k - h + 1


def _signed_block(n: int, p: int, zero: int, r: int, m: int) -> tuple[int, int]:
    """(base, d) of the sign-aware floor for n negative values, p positive
    values and `zero` zeros, each repeated r times, in block m: at alpha
    in [(m-1)*r, m*r) the floor counting sums of at least alpha terms is
    base + d*(m*r - alpha). The blocks beyond each side's reach, dn and
    dp, lose their triangular term and pay back the slack m*r - alpha at
    d = dn + dp per alpha."""
    # max(x, 0) without calling max(), which would double this body's cost
    dn = m - n - zero if m > n + zero else 0
    dp = m - p - zero if m > p + zero else 0
    # T(n) + T(p) - T(dn) - T(dp), doubled so that one exact halving
    # replaces four calls of _tri
    twice = n * (n + 1) + p * (p + 1) - dn * (dn + 1) - dp * (dp + 1)
    return r * twice // 2 + 1, dn + dp


def _agnostic_block(k: int, zero: int, lag: int, r: int, m: int) -> tuple[int, int]:
    """(base, 0) of the sign-agnostic floor for k values (`zero` of them
    zero), repeated r times, in block m, where it is constant:
    r((k + 1 - zero)^2 // 4 - T(i - zero)) + 1 at index i = m - lag, lag
    1 for sets (index alpha = m - 1) and 0 for sequences (index m). The
    floor-division core is asserted equal to its parity-resolved form."""
    j = k + 1 - zero
    core = j * j // 4
    assert core == ((j * j - 1) // 4 if j % 2 else j * j // 4)
    return r * (core - _tri(m - lag - zero)) + 1, 0


def _case(i: int, n: int, p: int) -> str:
    """Mixed-floor case label at index i (alpha for sets, m for
    sequences); a boundary i equal to n or p falls into the <= branch."""
    if i <= n and i <= p:
        return "i"
    if i <= n:
        return "ii"
    if i <= p:
        return "iii"
    return "iv"


def bound_disjoint(k: int, alpha: int) -> BoundResult:
    """Floor k(k+1)/2 - alpha(alpha+1)/2 + 1 for sets where no element's
    negation is also present."""
    return shape_bound(T2_1, 0, k, 0, None, alpha)


def bound_zero(k: int, alpha: int) -> BoundResult:
    """Floor k(k-1)/2 - alpha(alpha-1)/2 + 1 for sets where zero is the
    only element whose negation is also present."""
    return shape_bound(C2_2, 0, k - 1, 1, None, alpha)


def bound_mixed(n: int, p: int, alpha: int) -> BoundResult:
    """Four-case floor for sets of n negative and p positive integers
    (no zero). Cases split on alpha <= n and alpha <= p."""
    return shape_bound(T2_3, n, p, 0, None, alpha)


def bound_mixed_zero(n: int, p: int, alpha: int) -> BoundResult:
    """Four-case floor for sets of n negative integers, p positive
    integers, and zero. Same case split as bound_mixed with the alpha
    correction terms shifted by one."""
    return shape_bound(C2_4, n, p, 1, None, alpha)


def bound_general(k: int, alpha: int, has_zero: bool) -> BoundResult:
    """Sign-agnostic floor for any set of k >= 2 integers, split only on
    whether zero is present. The case label records the parity of k."""
    zero = int(has_zero)
    return shape_bound(C2_5, 0, k - zero, zero, None, alpha)


def bound_seq_disjoint(k: int, r: int, alpha: int) -> BoundResult:
    """Repeated-sequence floor r(k(k+1)/2 - m(m+1)/2) + m(mr - alpha) + 1
    for base sets where no element's negation is present. Requires
    alpha < r*k; the alpha = r*k query degenerates to a singleton and is
    handled by callers, not here."""
    return shape_bound(T3_1_DISJOINT, 0, k, 0, r, alpha)


def bound_seq_zero(k: int, r: int, alpha: int) -> BoundResult:
    """Repeated-sequence floor r(k(k-1)/2 - m(m-1)/2) + (m-1)(mr - alpha) + 1
    for base sets where zero is the only self-negation coincidence."""
    return shape_bound(T3_1_ZERO, 0, k - 1, 1, r, alpha)


def bound_seq_mixed(n: int, p: int, r: int, alpha: int) -> BoundResult:
    """Four-case repeated-sequence floor for base sets of n negative and
    p positive integers (no zero). Cases split on m <= n and m <= p,
    where m is the block index of alpha."""
    return shape_bound(T3_2, n, p, 0, r, alpha)


def bound_seq_mixed_zero(n: int, p: int, r: int, alpha: int) -> BoundResult:
    """Four-case repeated-sequence floor for base sets of n negative
    integers, p positive integers, and zero. Same case split as
    bound_seq_mixed with shifted correction terms and coefficients."""
    return shape_bound(C3_3, n, p, 1, r, alpha)


def bound_seq_general(k: int, r: int, alpha: int, has_zero: bool) -> BoundResult:
    """Sign-agnostic repeated-sequence floor for any base set of k >= 3
    integers, split only on zero membership. Case label is the parity of
    k."""
    zero = int(has_zero)
    return shape_bound(C3_4, 0, k - zero, zero, r, alpha)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first thirteen prime bases: exact below
    3.3 * 10^24, a strong probable-prime test above."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % q == 0 for q in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # 2^s exactly divides n - 1
    for a in bases:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << j, n) != n - 1 for j in range(s)):
            return False
    return True


def bound_fp(size: int, alpha: int, p: int) -> BoundResult:
    """Prime-field floor min(p, size(size+1)/2 - alpha(alpha+1)/2 + 1)
    for subsets of nonzero residues with no self-negation coincidence."""
    floor = shape_bound(T2_1, 0, size, 0, None, alpha).value
    if not is_prime(p):
        raise ValueError("p must be a prime >= 2")
    return BoundResult(T1_3, None, min(p, floor),
                       {"size": size, "alpha": alpha, "p": p})


# one entry: a shape's alphas come together, and an unbounded memo raised
# sweep peak RSS. typed: a bool zero equals 1 as a key, and has_zero
# echoes the zero its entry was built with
@functools.lru_cache(maxsize=1, typed=True)
def _shape_floors(n: int, p: int, zero: int, meet: int, r: int | None
                  ) -> tuple[tuple, ...]:
    """(theorem_id, block helper, its leading parameters) of every floor
    whose hypotheses hold for the sign shape (n, p, zero, meet) at r. This
    is the one home of the applicability rules and of each floor's
    parameters: which floors hold is decided once per (shape, r), and the
    last (shape, r) is kept, so the alphas of one shape share its entries.
    A shape no set has is refused: a negative n or p, a zero or meet
    other than 0 or 1, or meet 1 without a negative and a positive."""
    k = n + p + zero
    if k < 1:
        raise ValueError("a shape needs at least one element")
    seq = r is not None
    if seq and r < 1:
        raise ValueError("r must be >= 1")
    # n + p + zero >= 1 alone admits shapes no set has
    if min(n, p) < 0 or not {zero, meet} <= {0, 1} or meet > min(n, p):
        raise ValueError(f"no set has the sign shape n={n}, p={p}, "
                         f"zero={zero}, meet={meet}")
    floors = []
    # the disjoint and zero floors need k >= 2 for sequences, k >= 1 for sets
    if not meet and k > seq:
        if zero:
            floors.append((T3_1_ZERO if seq else C2_2, _signed_block,
                           (0, k - 1, 1)))
        else:
            floors.append((T3_1_DISJOINT if seq else T2_1, _signed_block,
                           (0, k, 0)))
    if n and p:
        if zero:
            theorem_id = C3_3 if seq else C2_4
        else:
            theorem_id = T3_2 if seq else T2_3
        floors.append((theorem_id, _signed_block, (n, p, zero)))
    if k > 1 + seq:
        floors.append((C3_4 if seq else C2_5, _agnostic_block,
                       (k, zero, 1 - seq)))
    return tuple(floors)


def _result(theorem_id: str, block, params: tuple, r: int | None,
            alpha: int) -> BoundResult:
    """The `BoundResult` of one `_shape_floors` entry at alpha, for a set
    (r None) or a sequence at r. Its value is base + d*(m*r - alpha) from
    the entry's block helper in block m = alpha//r + 1 (r = 1 for sets).
    Its case label is the mixed-floor case at alpha for sets and at m for
    sequences, the parity of k for the sign-agnostic floor, and None
    otherwise. Its params echo k (n and p for a mixed floor), alpha,
    has_zero for the sign-agnostic floor, and r and m for sequences."""
    reps = r or 1
    m = alpha // reps + 1
    base, d = block(*params, reps, m)
    value = base + d * (m * reps - alpha)
    where = {"alpha": alpha} if r is None else {"r": r, "alpha": alpha, "m": m}
    if block is _agnostic_block:
        k, zero, _ = params
        return BoundResult(theorem_id, "odd" if k % 2 else "even", value,
                           {"k": k, **where, "has_zero": zero})
    n, p, zero = params
    # the disjoint and zero floors are written with n = 0, the mixed
    # ones with n >= 1
    if n:
        return BoundResult(theorem_id, _case(alpha if r is None else m, n, p),
                           value, {"n": n, "p": p, **where})
    return BoundResult(theorem_id, None, value, {"k": p + zero, **where})


def shape_bound(theorem_id: str, n: int, p: int, zero: int, r: int | None,
                alpha: int) -> BoundResult:
    """The set or sequence floor theorem_id at alpha for n negatives, p
    positives and `zero` zeros, no nonzero value beside its negation: a
    set for r None, else that base repeated r times. Sets accept alpha in
    [0, k] and sequences alpha in [0, r*k - 1]. A theorem that does not
    hold at that shape, T1_3 among them, is refused."""
    for floor in _shape_floors(n, p, zero, 0, r):
        if floor[0] == theorem_id:
            k = n + p + zero
            check_alpha(alpha, k if r is None else r * k - 1)
            return _result(*floor, r, alpha)
    raise ValueError(f"no set or sequence floor {theorem_id!r} at n={n}, "
                     f"p={p}, zero={zero}, r={r}")


def shape_floor_rows(
    n: int, p: int, zero: int, meet: int, r: int | None
) -> list[tuple[str, list[int]]]:
    """(theorem_id, row) of every floor whose hypotheses hold for the
    sign shape (n, p, zero, meet) that `model.classify` returns and the
    sweep walk carries: n negatives, p positives, zero 1 if 0 is present,
    meet 1 if some nonzero x and -x both are. r None means the set
    itself, else that base repeated r times. row[alpha] is the floor's
    value at alpha, and a row covers exactly the alphas that have
    floors: [0, k] for sets and [0, r*k - 1] for sequences. The
    degenerate alpha = r*k of a sequence, whose achievable set is the
    singleton full sum, has none, so its rows end one short of its
    sizes. Values are not clamped: floors <= 1 are vacuous. Each call
    builds new rows.

    Each floor is an arithmetic progression in alpha within a block
    m = alpha//r + 1 (r = 1 for sets): the sign-aware floors fall by a
    fixed step there and the sign-agnostic one is constant. So each row
    is filled one block at a time.
    """
    k = n + p + zero
    reps = r or 1
    rows = []
    for theorem_id, block, params in _shape_floors(n, p, zero, meet, r):
        row = []
        # blocks 1 .. k cover alpha 0 .. r*k - 1; a set's block k + 1 is
        # its alpha k
        for m in range(1, k + 1 + (r is None)):
            base, d = block(*params, reps, m)
            row += range(base + d * reps, base, -d) if d else [base] * reps
        rows.append((theorem_id, row))
    return rows


def shape_bounds(n: int, p: int, zero: int, meet: int, r: int | None,
                 alpha: int) -> list[BoundResult]:
    """Every floor whose hypotheses hold for the sign shape (n, p, zero,
    meet) at r (None for a set, as in `shape_floor_rows`), built at alpha
    by `_result`, in the order of that function's rows. Sets accept
    alpha in [0, k], sequences alpha in [0, r*k]. Only the alphas that
    `shape_floor_rows` covers have floors: the degenerate alpha = r*k of
    a sequence gets the empty list."""
    floors = _shape_floors(n, p, zero, meet, r)
    k = n + p + zero
    top = k * (r or 1)
    check_alpha(alpha, top)
    if r is not None and alpha == top:
        return []
    return [_result(*floor, r, alpha) for floor in floors]


def applicable_bounds(
    instance: IntegerSet | RepSequence, alpha: int
) -> list[BoundResult]:
    """Every floor whose hypotheses the instance satisfies at this alpha:
    `shape_bounds` at the sign shape of its base."""
    seq = isinstance(instance, RepSequence)
    base, r = (instance.base, instance.r) if seq else (instance, None)
    return shape_bounds(*classify(base), r, alpha)
