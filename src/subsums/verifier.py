"""Exhaustive verification campaigns over bounded universes.

A sweep checks every k-subset of [-max_abs, max_abs], crossed with a
range of multiplicities r for sequences, at every alpha from 0 to r*k
against every applicable floor. It tallies violations and tight floors
and keeps the least size per (k, r, alpha) cell with example witnesses.
Sets are r = 1 sequences marked r = None: set floors, and cells with no r.

The instances are the nodes of one depth-first walk over the ascending
universe (`_walk`): a node's suffix unions (the sums with at least c
terms, for every c) are its parent's plus one `engine.extend_suffixes`
insertion, and it carries its sign shape, which with r fixes k and
every floor. A subset N + {0} + P, N negative and nonempty and P
positive, takes no insertion: 0 adds terms but no sum, so its unions are
those of its twin N + P with union 0 repeated r times in front, and the
walk visits it as it walks N's positive subtree. A node's tallies
depend only on its profile (r, shape, sizes), sizes[alpha] being the bit
count of union alpha, so the walk only adds each node's weight to its
profile in `Profiles`, the one keeper, which also keeps the profile's
first WITNESS_CAP instances, each a tuple of elements. The twins, the
subsets of shape n >= 1 and zero = 1, are the only subsets of their
shapes, so every profile sees its instances in combinations order, and
each walk unit takes its (k, r, alpha) minima cells from the profiles'
lists (`Profiles.aggregate`, through `minima_cells`). After the merge each
(r, shape) takes its floors once from `bounds.shape_floor_rows`, one row
per theorem over the alphas that have floors, filled one block
m = alpha//r + 1 at a time, and `finish_report` works out from them the
checks per instance and the greatest floor per alpha.
Each distinct profile is compared with them by C-level counts
(`sum(map(lt, ...))`), which gives the instance, check, violation and
tight counts; `finish_report` makes them, so every report has them.
Witnesses become report literals (`model.literal`) last, in
`finish_report`, each distinct one formatted once. Runs that collect
records keep one plain row (elements, r, shape, sizes) per instance and
r, in one list; after the merge the rows are sorted once by size and
elements, each (r, shape, alpha) takes its BoundResults from
`bounds.shape_bounds` at the walk's own shape once per sweep, each (r,
shape, alpha, size) its checks and violation flag once, and the rows
become records.

Negation is a symmetry of the campaign: |Sigma_alpha(-A)| = |Sigma_alpha(A)|
for sets and sequences, and the floors are symmetric in n <-> p. So a
sweep walks only the canonical subsets, A <=lex -A, and counts each with
weight 2 when A <lex -A (it stands for its mirror too) and 1 when A = -A.
Each distinct witness list of the minima cells gains the mirrors of its
canonical witnesses once, re-sorted and capped, which gives exactly the
full walk's list; `finish_report` does this for every campaign, given
the campaign's mirror. Runs that collect records or check the oracle
emit or check one row per instance, so they walk every subset; `_sweep`
picks the walk once and hands each walk unit its mirror flag.
`empirical_minimum` runs one walk unit of the mirror walk over its zero
policy's universe, as a set sweep of one size, and reads its one cell.

Determinism: with several workers each first-element subtree is a unit,
and units merge in any order (`_merge_aggs`): profile weights add, a
minima cell keeps the least size and the first WITNESS_CAP of the tied
witness lists in tuple order, and record rows are extended and sorted
before the records are built. So reports and record CSVs do not depend
on the worker count or the order in which units finish; walk units
evaluate no floors and return cells, not witness lists. The pool
(`ProcessPoolExecutor`) and `csv` are imported on first use, so a
process that starts no pool and writes no CSV loads neither. Work is
refused up front, through `model.refuse_above`, when the pair count or,
with the oracle, its vector count would exceed the budget (a count too
long to print is named by `model.numeral`), and only the
sizes that have subsets are walked. The subset counts per size come
from one multiplicative recurrence, so a span of many sizes is refused
as fast as one. `fp` keeps its profiles in a `Profiles` too, its
witnesses digit tuples whose tuple order is its walk's, re-keys them by
subset size, aggregates them like a sweep's and reports through the same
`finish_report`, with its own mirror and names.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress
from math import comb
from operator import eq, lt
from typing import Callable, Iterable, Sequence

from . import engine, oracle
from .bounds import BoundResult, shape_bounds, shape_floor_rows
# perfbench's tracer hooks verifier.applicable_bounds; nothing here calls it
from .bounds import applicable_bounds  # noqa: F401
from .model import (DEFAULT_BUDGET, IntegerSet, LAYER_BITS_BUDGET,
                    RepSequence, SumSet, check_alpha, literal, numeral,
                    refuse_above)

WITNESS_CAP = 16
# canonical instances per pool process. On 2 vCPUs (Python 3.11) a
# two-process fork pool takes about 10 ms to start and stop with no work,
# and its workers walk slower at first (copy-on-write faults, cold caches):
# sweep_sets(8, 2..6), 10,880 canonical instances, took 66 ms serially and
# 90 ms at workers=2; (9, 2..6), 21,888, broke even at 122 against 125 ms;
# (10, 2..6), 41,069, won at 235 against 163 ms. Sequence instances cost
# more each, but their first-element subtrees are less even, and
# sweep_sequences(6, 2..5, 1..8), 9,464, still lost at 196 against 199 ms.
_CHUNK = 16384


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures' process pool, imported on first use: the
    import loads multiprocessing, about 20 ms of every process's start
    (2 vCPUs, Python 3.11), and only a sweep of two or more processes
    starts a pool."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


@dataclass(frozen=True)
class BoundCheck:
    bound: BoundResult
    tight: bool


@dataclass(frozen=True)
class VerificationRecord:
    """One (instance, alpha) row of a campaign."""

    instance: str
    r: int | None
    alpha: int
    sigma_size: int
    bounds: tuple[BoundCheck, ...]
    oracle_checked: bool
    violation: bool


@dataclass
class CampaignReport:
    """Aggregated result of one campaign."""

    universe: dict
    instances: int
    checks: int
    violations: int
    oracle_checked: int
    tight_by_theorem: dict[str, int]
    minima: list[dict]
    elapsed_ms: int
    records: list[VerificationRecord] = field(default_factory=list)

    def body(self) -> dict:
        """The report without its volatile keys: what equal runs share."""
        return {
            "universe": self.universe,
            "counts": {
                "instances": self.instances,
                "checks": self.checks,
                "violations": self.violations,
                "oracle_checked": self.oracle_checked,
            },
            "tight_by_theorem": dict(sorted(self.tight_by_theorem.items())),
            "minima": self.minima,
        }

    def to_json(self) -> dict:
        return {**self.body(), "elapsed_ms": self.elapsed_ms}


def write_records_csv(records: Iterable[VerificationRecord], path: str) -> None:
    """One CSV row per (record, bound); bound columns empty when no floor
    applies (e.g. the degenerate full-length sequence threshold)."""
    import csv  # only record runs write CSV; not loaded at start-up

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
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
        )
        writerow = writer.writerow
        for rec in records:
            instance, alpha, size = rec.instance, rec.alpha, rec.sigma_size
            r = "" if rec.r is None else rec.r
            violation = int(rec.violation)
            if not rec.bounds:
                writerow((instance, r, alpha, size, "", "", "", "", violation))
                continue
            for chk in rec.bounds:
                bound = chk.bound
                writerow((instance, r, alpha, size, bound.theorem_id,
                          bound.case_label or "", bound.value, int(chk.tight),
                          violation))


# -- aggregation -------------------------------------------------------

def new_aggregate() -> dict:
    """Empty walk output: the instance weight per (r, shape, sizes)
    profile, minima keyed by (k, r, alpha) with r None outside sequences,
    the list of records (in a sweep's walk units, record rows), and the
    oracle check count. `finish_report` derives the instance, check,
    violation and tight counts from the profiles."""
    return {"profiles": Counter(), "minima": {}, "records": [],
            "oracle_checked": 0}


def minima_cells(profiles: Iterable[tuple]) -> dict:
    """The (k, r, alpha) minima cells, each (least size, witnesses), of
    profiles given as (r, sizes, witnesses) triples, sizes[alpha] per
    alpha and witnesses the first WITNESS_CAP instances of that profile
    in the campaign's order, which is tuple order: a sweep's element
    tuples, fp's digit tuples. A cell's witnesses are its only minimizing
    profile's list as it stands, or the first WITNESS_CAP of several such
    lists merged."""
    groups: dict[tuple, list] = {}
    for r, sizes, wits in profiles:
        groups.setdefault((r, len(sizes)), []).append((sizes, wits))
    cells = {}
    for (r, width), group in groups.items():
        k = (width - 1) // (r or 1)
        columns, lists = zip(*group)
        for alpha, column in enumerate(zip(*columns)):
            least = min(column)
            tied = list(compress(lists, map(least.__eq__, column)))
            cells[k, r, alpha] = least, tied[0] if len(tied) == 1 else sorted(
                chain.from_iterable(tied))[:WITNESS_CAP]
    return cells


class Profiles(dict):
    """The walks' profile keeper: (r, shape, sizes) -> [weight, first
    WITNESS_CAP instances], each a tuple, in the order they are added.
    A walk may key its entries otherwise while it runs, and re-key them
    to such triples before `aggregate`."""

    def add(self, key, weight: int, chosen: Iterable[int]) -> None:
        """Add weight to key's profile and keep chosen as a witness while
        it has fewer than WITNESS_CAP."""
        entry = self.get(key)
        if entry is None:
            self[key] = [weight, [tuple(chosen)]]
        else:
            entry[0] += weight
            if len(entry[1]) < WITNESS_CAP:
                entry[1].append(tuple(chosen))

    def aggregate(self) -> dict:
        """A `new_aggregate` holding the profile weights and the minima
        cells of the witness lists (`minima_cells`), in tuple order."""
        agg = new_aggregate()
        agg["profiles"].update({key: weight
                                for key, (weight, _) in self.items()})
        agg["minima"] = minima_cells(
            (r, sizes, wits) for (r, _, sizes), (_, wits) in self.items())
        return agg


def _merge_aggs(dst: dict, src: dict) -> None:
    """Fold a walk unit's aggregate into dst, in any order of units: a
    minima cell keeps the least size, and the first WITNESS_CAP of the
    tied lists in tuple order."""
    dst["oracle_checked"] += src["oracle_checked"]
    dst["profiles"].update(src["profiles"])
    minima = dst["minima"]
    for key, (size, wits) in src["minima"].items():
        cur = minima.get(key)
        if cur is None or size < cur[0]:
            minima[key] = size, wits
        elif size == cur[0]:
            minima[key] = size, sorted(cur[1] + wits)[:WITNESS_CAP]
    dst["records"].extend(src["records"])


# -- the depth-first walk ----------------------------------------------

def _walk(values: Sequence[int], firsts: Iterable[int], ks: Sequence[int],
          mults: Sequence[int], offset: int, visit: Callable,
          mirror: bool) -> None:
    """Call visit(chosen, suffix_sets, shape, weight) on each subset of the
    ascending values with a size in ks and its least element values[i], i
    in firsts. Per m in mults, a subset's suffix unions are
    `engine.suffix_unions` of its elements repeated m times, at an offset
    of at least max(mults) * max|v| * max(ks). shape is (n, p, zero,
    meet): negatives, positives, 1 if 0 is chosen, 1 if some x and -x
    both are. Size 0 is the empty subset at the root, visited whatever
    firsts is. visit only reads chosen, a list reused between calls.

    Order: the twins, the subsets of shape n >= 1 and zero = 1, come in
    itertools.combinations order within each size, and so do all other
    subsets; the two streams interleave. A sweep's profile holds one
    shape, so it sees its instances in combinations order.

    The walk is depth first, next elements ascending, a node before its
    children, and a node's unions are its parent's plus one
    `engine.extend_suffixes` insertion of m copies of its new element,
    with one exception. Let N be a nonempty all-negative node with the
    child 0. Its subset N + {0} + P, P positive, is the twin of N + P: m
    zeros add terms but no sum, so union c of the twin is union
    max(c - m, 0) of N + P, and the twin's unions are [s[0]] * m + s.
    So at N the walk visits N + {0}, then walks the positive subtree,
    each node pruned as its twin, one larger, would be, and visits each
    node's twin and then the node itself. One local `twin` visits both
    kinds, N + {0} and N + {0} + P: it puts 0 after N, visits and takes
    it out again, and like every visit it checks its own size against
    ks. Under a first element 0 every node is inserted.

    Without mirror every subset is visited with weight 1. With mirror the
    values must be symmetric about 0, and only the canonical subsets A,
    those with A <=lex -A, are visited: weight 2 when A <lex -A, standing
    for A and its mirror, and 1 when A = -A. As elements ascend, A <=lex -A
    implies max(A) <= -min(A), so a first element v > 0 is skipped and
    under a first element v no later element exceeds -v; only the ties,
    max(A) = -min(A), need the full comparison, and those are leaves.
    Adding 0 to A and to -A keeps their order, so a twin has the weight
    of its N + P."""
    last, kmin, kmax = len(values), min(ks), max(ks)
    extend = engine.extend_suffixes
    # tally[size]: size is visited; a twin of size kmax + 1 is not
    tally = [size in ks for size in range(kmax + 2)]
    chosen: list[int] = []
    # per first element: the end of the index range, the element that
    # makes a tie (None: no ties) and the weight of every other node
    cap, tie, full = last, None, 1

    def twin(n: int, suffix_sets: list, shape: tuple, weight: int) -> None:
        # chosen is N + P, N = chosen[:n], with unions suffix_sets; its
        # twin N + {0} + P has unions [s[0]] * m + s
        if tally[len(chosen) + 1]:
            chosen.insert(n, 0)
            visit(chosen, [[s[0]] * m + s for s, m in zip(suffix_sets, mults)],
                  shape, weight)
            del chosen[n]

    def descend(indices: Iterable, suffix_sets: list, shape: tuple, negs: int,
                twins: bool = False) -> None:
        # negs has bit -x set for each chosen negative x. With twins, the
        # nodes are N + P, N = chosen[:n], and visit their twins too
        depth = len(chosen) + 1
        n, p, zero, meet = shape
        # a node under N stands for its twin too, one larger
        need = kmin - twins
        for i in indices:
            x = values[i]
            if x < 0:
                here, below = (n + 1, p, zero, meet), negs | 1 << -x
            elif x:
                here, below = (n, p + 1, zero, meet | negs >> x & 1), negs
            elif n:
                # chosen is N: N + {0}, then the rest of indices, its
                # positive children, whose first level runs to the stop
                # of the 0-child's children
                twin(n, suffix_sets, (n, 0, 1, 0), full)
                descend(range(i + 1, min(cap, cap - kmin + depth + 1)),
                        suffix_sets, shape, negs, True)
                return
            else:
                here, below = (n, p, 1, meet), negs
            child = [extend(suffix, x, m) for suffix, m in zip(suffix_sets, mults)]
            chosen.append(x)
            weight = full
            if x == tie:
                mirrored = [-y for y in reversed(chosen)]
                weight = (chosen <= mirrored) + (chosen < mirrored)
            if weight:
                if twins:
                    twin(n, child, (n, p + 1, 1, here[3]), weight)
                if tally[depth]:
                    visit(chosen, child, here, weight)
            if depth < kmax:
                # a child at index j needs need - depth - 1 elements above j
                stop = min(cap, cap - need + depth + 1)
                descend(range(i + 1, stop), child, here, below, twins)
            chosen.pop()

    root = [[1 << offset] for _ in mults]
    if tally[0]:
        visit(chosen, root, (0, 0, 0, 0), 1)
    for i in firsts if kmax else ():
        if mirror:
            if values[i] > 0:
                continue
            # values[last - 1 - i] is -values[i]
            cap, tie, full = last - i, -values[i], 2
        descend((i,), root, (0, 0, 0, 0), 0)


def _negated(w: tuple) -> tuple:
    """The mirror -A of a subset A, ascending like A."""
    return tuple(-x for x in reversed(w))


def _with_mirrors(wits: Sequence[tuple], mirror: Callable) -> list[tuple]:
    """The first WITNESS_CAP of wits and their mirrors, mirror(w) each,
    in tuple order. If wits are canonical minimizers that include the
    first WITNESS_CAP of them, these are the first WITNESS_CAP of all
    minimizers: a canonical subset precedes its mirror, so each of them
    is among wits or is the mirror of one."""
    return sorted(set(wits).union(map(mirror, wits)))[:WITNESS_CAP]


def _oracle_suffixes(elems: Sequence[int], r: int | None) -> list[tuple]:
    """Per alpha, the sorted sums with at least alpha terms, enumerated."""
    seq = RepSequence(IntegerSet(tuple(elems)), r or 1)
    out, acc = [], set()
    for sums in reversed(oracle.sequence_sums_by_size(seq)):
        acc |= sums
        out.append(tuple(sorted(acc)))
    return out[::-1]


def _walk_unit(payload) -> dict:
    """The aggregate of the subtrees starting at values[i], i in firsts, at
    every r in rs (None for sets): profile weights, minima, and oracle
    checks or record rows when asked for. A record row is the plain tuple
    (elements, r, shape, sizes) of one instance, sizes[alpha] the bit
    count of union alpha, in visit order; a unit evaluates no floors, and
    `_sweep` builds the records after the merge. The unions sit at the
    walk offset that `_sweep` admitted. With mirror, which `_sweep` sets
    unless records are collected or the oracle checks, the walk is the
    mirror walk: its weights count mirror pairs twice and its minima hold
    only canonical witnesses. Each profile keeps its weight and its first
    WITNESS_CAP instances in `Profiles`, in combinations order as `_walk`
    visits them, and the unit returns their `Profiles.aggregate`."""
    values, firsts, ks, rs, use_oracle, collect, offset, mirror = payload
    mults = [r or 1 for r in rs]
    profiles = Profiles()
    add = profiles.add
    rows: list[tuple] = []
    checked = 0

    def visit(chosen: list[int], suffix_sets: list, shape: tuple,
              weight: int) -> None:
        nonlocal checked
        for r, suffix in zip(rs, suffix_sets):
            sizes = tuple(map(int.bit_count, suffix))
            add((r, shape, sizes), weight, chosen)
            if use_oracle:
                expected = _oracle_suffixes(chosen, r)
                for alpha, union in enumerate(suffix):
                    decoded = SumSet.from_bitmap(union, offset).sums
                    if decoded != expected[alpha]:
                        where = literal(chosen) + (f" r={r}" if r else "")
                        raise RuntimeError(
                            f"engine/oracle mismatch on {where} alpha={alpha}"
                        )
                checked += len(suffix)
            if collect:
                rows.append((tuple(chosen), r, shape, sizes))

    _walk(values, firsts, ks, mults, offset, visit, mirror)
    agg = profiles.aggregate()
    agg["records"], agg["oracle_checked"] = rows, checked
    return agg


# -- campaign entry points ---------------------------------------------

def _check_max_abs(max_abs: int) -> None:
    if max_abs < 0:
        raise ValueError(f"max_abs must be >= 0, got {max_abs}")


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")


def _check_path_bits(kmax: int, mults: Sequence[int], offset: int) -> None:
    """Raise BudgetExceeded when the walk's deepest path may hold more
    than LAYER_BITS_BUDGET bits of suffix unions. A node at depth d keeps
    m*d + 1 unions per m in mults, each at most 2*offset + 1 bits wide,
    and its ancestors' stay alive while it is walked, so a path to depth
    kmax holds sum over d <= kmax of sum over m of (m*d + 1) unions."""
    unions = sum(m * kmax * (kmax + 1) // 2 + kmax + 1 for m in mults)
    bits = unions * (2 * offset + 1)
    refuse_above(bits, LAYER_BITS_BUDGET,
                 f"walk path needs up to {bits} union bits")


def _span(values: Iterable[int], name: str) -> list[int]:
    out = sorted(set(int(v) for v in values))
    if not out or out[0] < 1:
        raise ValueError(f"{name} range must contain only integers >= 1")
    return out


def _subset_counts(n: int, ks: Sequence[int]) -> dict[int, int]:
    """C(n, k) for each k of the ascending ks, by the exact recurrence
    C(n, j + 1) = C(n, j)*(n - j)/(j + 1): one product per size up to
    max(ks), where a comb() call per size is quadratic in a long span."""
    counts, ways, below = {}, 1, 0
    for k in ks:
        for j in range(below, k):
            ways = ways * (n - j) // (j + 1)
        counts[k], below = ways, k
    return counts


def _sweep(kind: str, max_abs: int, k_range: Iterable[int],
           r_range: Iterable[int] | None, oracle_check: bool,
           workers: int, budget: int, collect_records: bool
           ) -> CampaignReport:
    """One campaign over all base k-subsets of [-max_abs, max_abs] crossed
    with every r in r_range; r_range None sweeps the sets themselves."""
    started = time.perf_counter()
    ks = _span(k_range, "k")
    rs = [None] if r_range is None else _span(r_range, "r")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _check_max_abs(max_abs)
    _check_budget(budget)
    values = range(-max_abs, max_abs + 1)
    # a size above the universe has no subsets, so it adds no work and the
    # walk, which builds per-size tables, skips it; the report echoes ks
    walked = [k for k in ks if k <= len(values)]
    subsets = _subset_counts(len(values), walked)
    mults = [r or 1 for r in rs]
    # an instance (k-subset, m) has alphas 0 .. m*k
    pairs = sum(n * (k * sum(mults) + len(mults)) for k, n in subsets.items())
    refuse_above(pairs, budget,
                 f"sweep needs {numeral(pairs)} instance-alpha pairs")
    kmax = max(walked, default=0)
    if oracle_check:
        # the oracle enumerates (r + 1)^k multiplicity vectors per instance
        vectors = sum(n * sum((m + 1) ** k for m in mults)
                      for k, n in subsets.items())
        refuse_above(vectors, budget, f"oracle check needs "
                     f"{numeral(vectors)} multiplicity vectors")
        most = (max(mults) + 1) ** kmax
        refuse_above(most, oracle.VECTOR_ENUM_MAX, f"oracle check needs "
                     f"{numeral(most)} multiplicity vectors for one instance")
    # the walk offset, at least max(mults) * max|v| * kmax
    offset = max(mults) * kmax * max_abs
    _check_path_bits(kmax, mults, offset)
    # records and oracle checks are one per instance, so they walk every
    # subset; other runs walk the mirror half, first elements <= 0
    mirror = not (collect_records or oracle_check)
    firsts = range(max_abs + 1 if mirror else len(values))
    # the pool is at most the CPU count, the subtrees and the walk's
    # _CHUNK-instance shares (the mirror walk's half): a fork pool starts all
    count = -(-sum(subsets.values()) * len(rs) // (1 + mirror))
    procs = min(workers, os.cpu_count() or 1, -(-count // _CHUNK), len(firsts))
    common = (walked, rs, oracle_check, collect_records, offset, mirror)
    if not walked:
        agg = new_aggregate()
    elif procs <= 1:
        agg = _walk_unit((values, firsts) + common)
    else:
        agg = new_aggregate()
        with ProcessPoolExecutor(max_workers=procs) as pool:
            for part in pool.map(_walk_unit,
                                 ((values, [i]) + common for i in firsts)):
                _merge_aggs(agg, part)
    # each (r, shape, alpha) takes its BoundResults once per sweep, from
    # the walk's shape, and each (r, shape, alpha, size) its checks and
    # violation flag, kept per alpha by size and shared by every record
    # with that key
    floors: dict[tuple, list] = {}
    rows, recs = agg["records"], []
    # combinations order within each size, sizes ascending; the sort is
    # stable, so r stays ascending within an instance, and an instance's
    # rows come from one unit
    rows.sort(key=lambda row: (len(row[0]), row[0]))
    last = name = None
    for chosen, r, shape, sizes in rows:
        per_alpha = floors.get((r, shape))
        if per_alpha is None:
            per_alpha = floors[r, shape] = [
                (alpha, tuple(shape_bounds(*shape, r, alpha)), {})
                for alpha in range(len(sizes))]
        if chosen != last:
            last, name = chosen, literal(chosen)
        for alpha, bounds, by_size in per_alpha:
            size = sizes[alpha]
            found = by_size.get(size)
            if found is None:
                found = by_size[size] = (
                    tuple(BoundCheck(b, b.value == size) for b in bounds),
                    any(b.value > size for b in bounds))
            checks, violation = found
            recs.append(VerificationRecord(name, r, alpha, size, checks,
                                           oracle_check, violation))
    agg["records"] = recs
    universe = {"kind": kind, "max_abs": max_abs, "k": ks}
    if r_range is not None:
        universe["r"] = rs
    universe["alpha_policy"] = "all"
    universe["oracle"] = oracle_check
    return finish_report(universe, agg,
                         lambda r, shape: shape_floor_rows(*shape, r), started,
                         _negated if mirror else None, literal)


def sweep_sets(
    max_abs: int,
    k_range: Iterable[int],
    *,
    oracle_check: bool = False,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
    collect_records: bool = False,
) -> CampaignReport:
    """Verify every floor over all k-subsets of [-max_abs, max_abs], at
    every alpha from 0 to k.

    Refused up front with BudgetExceeded when the instance-alpha pairs,
    k + 1 per k-subset, exceed budget; with oracle_check, when the
    oracle's 2^k multiplicity vectors per subset exceed budget in all or
    `oracle.VECTOR_ENUM_MAX` for one; or when the walk's deepest path may
    hold more than LAYER_BITS_BUDGET bits of suffix unions
    (`_check_path_bits`). The count bounds the work: the
    walk offset is k_max*max_abs, so a k-subset's k + 1 suffix
    unions hold at most (k + 1)*((k_max + k)*max_abs + 1) bits, built by
    one insertion from its parent's, and only the current path's unions
    are kept."""
    return _sweep("sets", max_abs, k_range, None, oracle_check, workers,
                  budget, collect_records)


def sweep_sequences(
    max_abs: int,
    k_range: Iterable[int],
    r_range: Iterable[int],
    *,
    oracle_check: bool = False,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
    collect_records: bool = False,
) -> CampaignReport:
    """Verify every floor over all base k-subsets of [-max_abs, max_abs]
    crossed with every multiplicity in r_range, at every alpha from 0 to
    r*k.

    Refused up front with BudgetExceeded when the instance-alpha pairs,
    r*k + 1 per instance (k-subset, r), exceed budget; with oracle_check,
    when the oracle's (r + 1)^k multiplicity vectors per instance exceed
    budget in all or `oracle.VECTOR_ENUM_MAX` for one; or when the walk's
    deepest path may hold more than LAYER_BITS_BUDGET bits of suffix
    unions (`_check_path_bits`). The count bounds the
    work: the walk offset is r_max*k_max*max_abs, so an instance
    (k-subset, r) has r*k + 1 suffix unions of at most
    (r*k + 1)*((r_max*k_max + r*k)*max_abs + 1) bits in all, built by one
    insertion of r copies from its parent's, and only the current path's
    unions are kept."""
    return _sweep("sequences", max_abs, k_range, r_range, oracle_check,
                  workers, budget, collect_records)


def finish_report(universe: dict, agg: dict, rows: Callable,
                  started: float, mirror: Callable | None,
                  name: Callable) -> CampaignReport:
    """The report of a merged aggregate. Its counts come from the
    profiles: each distinct (r, shape, sizes) is compared once with
    rows(r, shape), weighted by the instances it stands for. rows gives
    (theorem_id, row) pairs, row[alpha] the theorem's floor at alpha,
    each row covering the alphas that have floors; finish_report reads
    the rows and never writes into them. Sweeps pass
    `bounds.shape_floor_rows`, every floored alpha's floors, and `fp` its
    sizes' prime-field floors, shape being the subset size. Once per
    (r, shape) the rows give the checks per instance, the sum of their
    lengths, and the greatest floor per alpha. A pair
    violates when its size is below the greatest floor, and a theorem is
    tight where its floor equals the size; tight_by_theorem names only
    theorems with a hit. The comparisons stop at the shorter of sizes
    and row, so a sequence's degenerate alpha r*k, which its rows do not
    reach, is compared with nothing.

    Minima cells come in key order, each with an r field only when its
    key has one. The one completion step of every campaign's witnesses:
    a walk that visits only canonical instances passes their mirror, and
    each cell's list gains the mirrors (`_with_mirrors`); a full walk
    passes None, and its lists stand. Each witness is reported as
    name(w). Many cells share one list, so each distinct list is
    completed and each distinct witness named once. Elapsed time is
    since `started` (a perf_counter reading); records are agg's, as they
    stand."""
    table: dict[tuple, tuple] = {}
    tight: Counter = Counter()
    checks = violations = 0
    for (r, shape, sizes), weight in agg["profiles"].items():
        entry = table.get((r, shape))
        if entry is None:
            vecs = rows(r, shape)
            # no floors: zip() is empty, and so is top
            entry = table[r, shape] = (
                sum(len(vec) for _, vec in vecs),
                list(map(max, zip(*(vec for _, vec in vecs)))), vecs)
        per_instance, top, vecs = entry
        checks += per_instance * weight
        violations += weight * sum(map(lt, sizes, top))
        for theorem_id, vec in vecs:
            hits = sum(map(eq, sizes, vec))
            if hits:
                tight[theorem_id] += weight * hits
    lists: dict[tuple, list[str]] = {}
    names: dict[tuple, str] = {}
    minima = []
    for (k, r, alpha) in sorted(agg["minima"]):
        size, wits = agg["minima"][k, r, alpha]
        wits = tuple(wits)
        out = lists.get(wits)
        if out is None:
            out = lists[wits] = [
                names.get(w) or names.setdefault(w, name(w))
                for w in (_with_mirrors(wits, mirror) if mirror else wits)]
        cell = {"k": k}
        if r is not None:
            cell["r"] = r
        cell["alpha"] = alpha
        cell["size"] = size
        cell["witnesses"] = out[:]
        minima.append(cell)
    return CampaignReport(
        universe=universe,
        instances=sum(agg["profiles"].values()),
        checks=checks,
        violations=violations,
        oracle_checked=agg["oracle_checked"],
        tight_by_theorem=dict(tight),
        minima=minima,
        elapsed_ms=int((time.perf_counter() - started) * 1000),
        records=agg["records"],
    )


def empirical_minimum(
    k: int,
    alpha: int,
    max_abs: int,
    zero_policy: str = "any",
    *,
    budget: int = DEFAULT_BUDGET,
) -> tuple[int, list[IntegerSet]]:
    """Smallest thresholded-sum-set size over all k-subsets of
    [-max_abs, max_abs], with the first WITNESS_CAP minimizing sets in
    combinations order.

    zero_policy "require" keeps only subsets containing zero, "forbid"
    only those avoiding it, "any" all of them. Under "any" the result is
    the (k, alpha) cell of `sweep_sets(max_abs, [k])`: both come from
    the sweep's walk unit (`_walk_unit`).

    Refused up front with BudgetExceeded when the subsets walked exceed
    budget: C(2*max_abs + 1, k), or C(2*max_abs, k - 1) under "require"
    (C(2*max_abs, k) under "forbid"), counted before the universe is
    listed, or when the walk's deepest path may hold more than
    LAYER_BITS_BUDGET bits of suffix unions (`_check_path_bits`). The
    count bounds the work: at the walk offset k*max_abs each subset's at
    most k + 1 suffix unions hold at most (k + 1)*(2*k*max_abs + 1)
    bits, built by one insertion from its parent's, and only the current
    path's unions are kept.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    check_alpha(alpha, k)
    if zero_policy not in ("any", "require", "forbid"):
        raise ValueError(f"unknown zero policy {zero_policy!r}")
    _check_max_abs(max_abs)
    _check_budget(budget)
    # every subset walked has size_k elements, so its sums with at least
    # low of them are the window alpha..k
    size_k, low = k, alpha
    if zero_policy == "require":
        # walk the (k-1)-subsets S of the nonzero values: layer c of S + {0}
        # is S's layers c and c - 1, so its window is S's one layer lower
        size_k, low = k - 1, max(alpha - 1, 0)
    # the universe is counted in closed form and listed only once admitted
    count = comb(2 * max_abs + (zero_policy == "any"), size_k)
    if not count:
        raise ValueError("universe is empty; increase max_abs or lower k")
    refuse_above(count, budget,
                 f"minimum search needs {numeral(count)} instances")
    offset = k * max_abs
    _check_path_bits(size_k, [1], offset)
    values = range(-max_abs, max_abs + 1)
    if zero_policy != "any":
        values = [v for v in values if v]
    # each zero_policy's universe is closed under negation, so the sweep's
    # mirror walk sees each minimizer or its mirror; one unit, r None
    cells = _walk_unit((values, range(len(values)), [size_k], [None], False,
                        False, offset, True))["minima"]
    best, wits = cells[size_k, None, low]
    if size_k < k:
        # putting 0 back keeps the witnesses in tuple order
        wits = [tuple(sorted((*w, 0))) for w in wits]
    return best, [IntegerSet(w) for w in _with_mirrors(wits, _negated)]
