"""Exhaustive verification campaigns over bounded universes.

A sweep enumerates every k-subset of [-max_abs, max_abs] (optionally
crossed with a range of multiplicities), computes the thresholded sum
set for each alpha under the policy, compares it with every applicable
floor, and aggregates: violation and tightness tallies plus the
empirical minimum size per (k, r, alpha) cell with example witnesses.

Sets run as r = 1 sequences through one scan, chunk worker and sweep
body; r = None marks a set, so it gets the set floors and its minima
cells no r. Sizes are bit counts of the engine's suffix unions.

Floors depend only on the instance's shape: its multiplicity r and the
sign profile of its base set, which also fixes k. Each instance is
classified once; its floors for every alpha the policy selects are
looked up in a table keyed by (r, sign profile). The table belongs to
one chunk of instances and is filled from `bounds.applicable_bounds` on
a miss, so it holds at most one chunk's shapes and is dropped with the
chunk.

`fp` fills the same aggregate and reports through `finish_report`.

Determinism: instances are visited in lexicographic element order
(ascending k, then ascending r); aggregation is associative and merged
in instance order, so reports are identical for any worker count apart
from the elapsed-time field. The process pool is never larger than the
CPU count or the number of chunks. Work is refused up front, not
truncated, when the instance-alpha pair count would exceed the budget.
"""

from __future__ import annotations

import csv
import itertools
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Iterator, Sequence

from . import bounds, engine, oracle
from .bounds import BoundResult, applicable_bounds
from .model import IntegerSet, RepSequence, SumSet

DEFAULT_BUDGET = 10**6
WITNESS_CAP = 16
_CHUNK = 512


class BudgetExceeded(RuntimeError):
    """Raised before any work starts when a sweep would be too large."""


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

    def to_json(self) -> dict:
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
            "elapsed_ms": self.elapsed_ms,
        }


def write_records_csv(records: Iterable[VerificationRecord], path: str) -> None:
    """One CSV row per (record, bound); bound columns empty when no floor
    applies (e.g. the degenerate full-length sequence threshold)."""
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
        for rec in records:
            head = [rec.instance, "" if rec.r is None else rec.r, rec.alpha,
                    rec.sigma_size]
            if not rec.bounds:
                writer.writerow(head + ["", "", "", "", int(rec.violation)])
                continue
            for chk in rec.bounds:
                writer.writerow(
                    head
                    + [
                        chk.bound.theorem_id,
                        chk.bound.case_label or "",
                        chk.bound.value,
                        int(chk.tight),
                        int(rec.violation),
                    ]
                )


# -- aggregation -------------------------------------------------------

def new_aggregate() -> dict:
    """Empty campaign tallies: counts, tight floors per theorem, minima
    keyed by (k, r, alpha) with r None outside sequences, and records."""
    return {
        "instances": 0,
        "checks": 0,
        "violations": 0,
        "oracle_checked": 0,
        "tight": Counter(),
        "minima": {},
        "records": [],
    }


def note_minimum(minima: dict, key: tuple, size: int, literal: str) -> None:
    """Keep the least size seen for a minima cell and up to WITNESS_CAP
    literals attaining it, in the order seen."""
    cur = minima.get(key)
    if cur is None or size < cur[0]:
        minima[key] = (size, [literal])
    elif size == cur[0] and len(cur[1]) < WITNESS_CAP:
        cur[1].append(literal)


def _merge_aggs(dst: dict, src: dict) -> None:
    dst["instances"] += src["instances"]
    dst["checks"] += src["checks"]
    dst["violations"] += src["violations"]
    dst["oracle_checked"] += src["oracle_checked"]
    dst["tight"].update(src["tight"])
    for key, (size, wits) in src["minima"].items():
        for literal in wits:
            note_minimum(dst["minima"], key, size, literal)
    dst["records"].extend(src["records"])


def _alphas(policy, total: int) -> list[int]:
    if policy == "all":
        return list(range(total + 1))
    return [a for a in policy if 0 <= a <= total]


def _policy_echo(policy) -> object:
    return policy if policy == "all" else sorted(set(policy))


# -- per-instance scans ------------------------------------------------

def _floor_rows(
    table: dict, base: IntegerSet, r: int | None, policy
) -> tuple[tuple[int, tuple[BoundResult, ...]], ...]:
    """(alpha, floors) for every alpha the policy selects in [0, total].

    The floors depend only on r (None for sets) and the base's sign
    profile, which also fixes k = n + p + has_zero; a miss fills the rows
    from `applicable_bounds` on this instance.
    """
    key = (r, bounds.classify(base))
    rows = table.get(key)
    if rows is None:
        instance = base if r is None else RepSequence(base, r)
        rows = tuple(
            (alpha, tuple(applicable_bounds(instance, alpha)))
            for alpha in _alphas(policy, base.k * (r or 1))
        )
        table[key] = rows
    return rows


def _check_bounds(agg: dict, floors: tuple[BoundResult, ...], size: int
                  ) -> bool:
    """Tally one (instance, alpha) pair; True when a floor is violated."""
    violation = False
    tight = agg["tight"]
    for bound in floors:
        if bound.value > size:
            violation = True
        elif bound.value == size:
            tight[bound.theorem_id] += 1
    agg["checks"] += len(floors)
    if violation:
        agg["violations"] += 1
    return violation


def _bound_checks(floors: tuple[BoundResult, ...], size: int
                  ) -> tuple[BoundCheck, ...]:
    return tuple(BoundCheck(bound, bound.value == size) for bound in floors)


def _oracle_suffixes(by_size: list[set[int]]) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = [()] * len(by_size)
    acc: set[int] = set()
    for c in range(len(by_size) - 1, -1, -1):
        acc |= by_size[c]
        out[c] = tuple(sorted(acc))
    return out


def _scan(agg: dict, table: dict, elems: tuple[int, ...], r: int | None,
          policy, use_oracle: bool, collect: bool) -> None:
    """Check one instance at every alpha: the set elems when r is None,
    else elems repeated r times."""
    base = IntegerSet(elems)
    seq = RepSequence(base, r or 1)
    layers, offset = engine.sequence_layers(seq)
    suffix = engine.suffix_unions(layers)
    literal = base.literal()
    expected = None
    if use_oracle:
        by_size = (oracle.subset_sums_by_size(base) if r is None
                   else oracle.sequence_sums_by_size(seq))
        expected = _oracle_suffixes(by_size)
    k = len(elems)
    minima = agg["minima"]
    records = agg["records"]
    agg["instances"] += 1
    for alpha, floors in _floor_rows(table, base, r, policy):
        bitmap = suffix[alpha]
        size = bitmap.bit_count()
        if expected is not None:
            if SumSet.from_bitmap(bitmap, offset).sums != expected[alpha]:
                where = literal if r is None else f"{literal} r={r}"
                raise RuntimeError(
                    f"engine/oracle mismatch on {where} alpha={alpha}"
                )
            agg["oracle_checked"] += 1
        violation = _check_bounds(agg, floors, size)
        note_minimum(minima, (k, r, alpha), size, literal)
        if collect:
            records.append(
                VerificationRecord(
                    literal, r, alpha, size, _bound_checks(floors, size),
                    use_oracle, violation,
                )
            )


def _chunk_worker(payload) -> dict:
    chunk, policy, use_oracle, collect = payload
    agg = new_aggregate()
    table: dict = {}
    for elems, r in chunk:
        _scan(agg, table, elems, r, policy, use_oracle, collect)
    return agg


def _chunks(items: Iterable, size: int) -> Iterator[list]:
    batch: list = []
    for item in items:
        batch.append(item)
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch


def _run_chunked(instances, count: int, policy, use_oracle, collect,
                 workers: int) -> dict:
    """Scan `count` instances in chunks; the pool never has more processes
    than CPUs or chunks, since a fork pool starts all of them at once."""
    agg = new_aggregate()
    payloads = (
        (chunk, policy, use_oracle, collect)
        for chunk in _chunks(instances, _CHUNK)
    )
    procs = min(workers, os.cpu_count() or 1, -(-count // _CHUNK))
    if procs <= 1:
        for payload in payloads:
            _merge_aggs(agg, _chunk_worker(payload))
    else:
        with ProcessPoolExecutor(max_workers=procs) as pool:
            for partial in pool.map(_chunk_worker, payloads):
                _merge_aggs(agg, partial)
    return agg


# -- campaign entry points ---------------------------------------------

def _check_max_abs(max_abs: int) -> None:
    if max_abs < 0:
        raise ValueError(f"max_abs must be >= 0, got {max_abs}")


def _span(values: Iterable[int], name: str) -> list[int]:
    out = sorted(set(int(v) for v in values))
    if not out or out[0] < 1:
        raise ValueError(f"{name} range must contain only integers >= 1")
    return out


def _sweep(kind: str, max_abs: int, k_range: Iterable[int],
           r_range: Iterable[int] | None, alpha_policy, oracle_check: bool,
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
    subsets = {k: comb(2 * max_abs + 1, k) for k in ks}
    pairs = sum(
        n * len(_alphas(alpha_policy, k * (r or 1)))
        for k, n in subsets.items()
        for r in rs
    )
    if pairs > budget:
        raise BudgetExceeded(
            f"sweep needs {pairs} instance-alpha pairs; budget is {budget}"
        )
    values = range(-max_abs, max_abs + 1)
    instances = (
        (elems, r)
        for k in ks
        for elems in itertools.combinations(values, k)
        for r in rs
    )
    count = sum(subsets.values()) * len(rs)
    agg = _run_chunked(instances, count, alpha_policy, oracle_check,
                       collect_records, workers)
    universe = {"kind": kind, "max_abs": max_abs, "k": ks}
    if r_range is not None:
        universe["r"] = rs
    universe["alpha_policy"] = _policy_echo(alpha_policy)
    universe["oracle"] = oracle_check
    return finish_report(universe, agg, started)


def sweep_sets(
    max_abs: int,
    k_range: Iterable[int],
    alpha_policy="all",
    oracle_check: bool = False,
    *,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
    collect_records: bool = False,
) -> CampaignReport:
    """Verify every floor over all k-subsets of [-max_abs, max_abs]."""
    return _sweep("sets", max_abs, k_range, None, alpha_policy, oracle_check,
                  workers, budget, collect_records)


def sweep_sequences(
    max_abs: int,
    k_range: Iterable[int],
    r_range: Iterable[int],
    alpha_policy="all",
    oracle_check: bool = False,
    *,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
    collect_records: bool = False,
) -> CampaignReport:
    """Verify every floor over all base k-subsets of [-max_abs, max_abs]
    crossed with every multiplicity in r_range."""
    return _sweep("sequences", max_abs, k_range, r_range, alpha_policy,
                  oracle_check, workers, budget, collect_records)


def finish_report(universe: dict, agg: dict, started: float
                  ) -> CampaignReport:
    """The report of a filled aggregate: minima cells in key order, each
    with an r field only when its key has one; elapsed time since
    `started` (a perf_counter reading)."""
    minima = []
    for (k, r, alpha) in sorted(agg["minima"]):
        size, wits = agg["minima"][k, r, alpha]
        cell = {"k": k}
        if r is not None:
            cell["r"] = r
        cell["alpha"] = alpha
        cell["size"] = size
        cell["witnesses"] = wits
        minima.append(cell)
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return CampaignReport(
        universe=universe,
        instances=agg["instances"],
        checks=agg["checks"],
        violations=agg["violations"],
        oracle_checked=agg["oracle_checked"],
        tight_by_theorem=dict(agg["tight"]),
        minima=minima,
        elapsed_ms=elapsed_ms,
        records=agg["records"],
    )


def empirical_minimum(
    k: int,
    alpha: int,
    max_abs: int,
    zero_policy: str = "any",
    *,
    budget: int = DEFAULT_BUDGET,
    witness_cap: int = WITNESS_CAP,
) -> tuple[int, list[IntegerSet]]:
    """Smallest thresholded-sum-set size over all k-subsets of
    [-max_abs, max_abs], with up to witness_cap minimizing sets.

    zero_policy "require" keeps only subsets containing zero, "forbid"
    only those avoiding it, "any" all of them.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= alpha <= k:
        raise ValueError(f"alpha={alpha} out of range [0, {k}]")
    if zero_policy not in ("any", "require", "forbid"):
        raise ValueError(f"unknown zero policy {zero_policy!r}")
    _check_max_abs(max_abs)
    nonzero = [v for v in range(-max_abs, max_abs + 1) if v != 0]
    if zero_policy == "any":
        count = comb(2 * max_abs + 1, k)
        candidates: Iterable[Sequence[int]] = itertools.combinations(
            range(-max_abs, max_abs + 1), k
        )
    elif zero_policy == "forbid":
        count = comb(2 * max_abs, k)
        candidates = itertools.combinations(nonzero, k)
    else:
        count = comb(2 * max_abs, k - 1)
        candidates = (
            tuple(sorted(rest + (0,)))
            for rest in itertools.combinations(nonzero, k - 1)
        )
    if count > budget:
        raise BudgetExceeded(
            f"minimum search needs {count} instances; budget is {budget}"
        )
    best: int | None = None
    wits: list[IntegerSet] = []
    for elems in candidates:
        inst = IntegerSet(tuple(elems))
        size = engine.sigma_size(RepSequence(inst, 1), alpha)
        if best is None or size < best:
            best, wits = size, [inst]
        elif size == best and len(wits) < witness_cap:
            wits.append(inst)
    if best is None:
        raise ValueError("universe is empty; increase max_abs or lower k")
    return best, wits
