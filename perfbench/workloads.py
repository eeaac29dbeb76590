"""The four benchmark workloads: inputs, one timed pass, and its checks.

Every workload runs serially in one process with workers=1 and calls
only the package's public entry points. A workload is a closed loop with
one caller: the next call starts when the previous one has returned.

  sweep-sets   sweep_sets(max_abs=8, k=2..6), the paper's main campaign.
  sweep-seqs   sweep_sequences(max_abs=4, k=2..4, r=1..12).
  fp-prime     verify_balandraud(p) for p in {17, 19}.
  queries      a seeded stream of in-process cli.main calls.

The sweep and fp universes are exhaustive, so their inputs do not depend
on the seed; only the query stream does. Each workload's correctness
check runs outside the timed region and returns the number of failed
operations; an operation fails when it raises, exits nonzero or gives a
wrong answer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass
from typing import Callable

from subsums import cli, fp, oracle, verifier
from subsums.model import (
    AT_LEAST,
    AT_MOST,
    IntegerSet,
    RepSequence,
    parse_set,
    size_window,
)
from subsums.witnesses import FAMILY_IDS

# sha256 of report.to_json() without "elapsed_ms", taken at the commit
# that introduced this benchmark; a report that differs is a wrong answer.
REPORT_DIGESTS = {
    "sweep-sets": "d8160b708bec6bcdfa1079a2d1ebe0bb6de9ebd645570c8cdde390c898a04697",
    "sweep-seqs": "a6899bccbce013504bc77759a00b01c8b1940820d71f8c1668a056f75afe9a68",
    "fp-17": "edf079843324d10ad1ad5f79539638fe527ce51b7eb17d5ac25e7550f35511da",
    "fp-19": "64b10e38a01582aea694a4e4f12167a8674cc729e2874e96352c6eddf2bc6b37",
}

# Calls of each kind in one pass: (subcommand, sequence?, count).
QUERY_PLAN = (
    ("compute", False, 120),
    ("compute", True, 120),
    ("bound", False, 60),
    ("bound", True, 60),
    ("extremal", None, 120),
)
QUERIES_PER_PASS = sum(count for _, _, count in QUERY_PLAN)
MIN_K, MAX_K = 4, 24
SEQ_R = 2
DENSE_MAX_ABS = 10**3
SPARSE_LOG10 = (3, 5)
DENSE_SPREAD = 2
SPARSE_SPREAD = 3
# Upper limit on (r*k)^3 * spread * |t|, a rough model of the DP plus
# bitmap-decode cost of one compute or bound query; it keeps the slowest
# query near 50 ms (2 vCPUs, Python 3.11), so no single call dominates a
# pass of about 4 s.
QUERY_COST_CAP = 2.5e8
EXTREMAL_K = (8, 16)
EXTREMAL_R = (2, 8)
EXTREMAL_MAX_RK = 64
# The oracle enumerates 2^k subsets or (r+1)^k multiplicity vectors;
# above this many it would take seconds per query, so larger instances
# are checked by size and by their closed-form extreme sums instead.
ORACLE_MAX_ENUM = 5000


@dataclass
class Checked:
    """A pass's operations, as counted after the clock stopped."""

    calls: int
    checks: int
    failed: int
    latencies: list[float] | None = None
    out_bytes: int = 0


@dataclass(frozen=True)
class Workload:
    """make_inputs(seed) -> inputs; run(inputs) is the timed pass; and
    check(inputs, result) counts its operations and wrong answers."""

    name: str
    make_inputs: Callable[[int], object]
    warm_up: Callable[[], object]
    run: Callable[[object], object]
    check: Callable[[object, object], Checked]


def report_digest(report) -> str:
    body = report.to_json()
    body.pop("elapsed_ms")
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def _check_reports(_inputs, results) -> Checked:
    """Each (report, key, latency) must have no violation and its
    recorded digest."""
    failed = sum(
        rep.violations != 0 or report_digest(rep) != REPORT_DIGESTS[key]
        for rep, key, _ in results
    )
    checks = sum(rep.checks for rep, _, _ in results)
    return Checked(len(results), checks, failed, [lat for _, _, lat in results])


def _timed(key: str, call, *args, **kwargs):
    started = time.perf_counter()
    report = call(*args, **kwargs)
    return report, key, time.perf_counter() - started


def _sweep_sets(_inputs):
    return [_timed("sweep-sets", verifier.sweep_sets, 8, range(2, 7), workers=1)]


def _sweep_seqs(_inputs):
    return [_timed("sweep-seqs", verifier.sweep_sequences, 4, range(2, 5),
                   range(1, 13), workers=1)]


def _fp_prime(_inputs):
    return [_timed(f"fp-{p}", fp.verify_balandraud, p) for p in (17, 19)]


# -- queries -------------------------------------------------------------

def _fractions(rng: random.Random, m: int, stride: int) -> list[float]:
    """m stratified draws from [0, 1): draw i lies in slot (stride*i) % m
    of width 1/m. With a stride coprime to m every slot is used once, and
    draws with different strides pair up the same way for every seed, so
    a seed moves values only within their slots and the mix of cheap and
    costly calls stays the same."""
    return [((stride * i) % m + rng.random()) / m for i in range(m)]


def _cost(length: int, magnitude: int, spread: int) -> float:
    return length**3 * spread * magnitude


def _literal(values) -> str:
    return "{" + ",".join(str(v) for v in sorted(values)) + "}"


def _instance(rng: random.Random, sparse: bool, r: int, fk: float, ft: float):
    """A set literal and its k: dense sets are k values from a window of
    width 2k with |v| <= 10^3; sparse sets cluster k values within 3k of
    an offset t with |t| in 10^3..10^5."""
    if sparse:
        t = int(10 ** (SPARSE_LOG10[0] + ft * (SPARSE_LOG10[1] - SPARSE_LOG10[0])))
        spread = SPARSE_SPREAD
    else:
        t = int(ft * DENSE_MAX_ABS)
        spread = DENSE_SPREAD
    k_max = MAX_K
    while k_max > MIN_K and _cost(r * k_max, t + spread * k_max, spread) > QUERY_COST_CAP:
        k_max -= 1
    k = MIN_K + round(fk * (k_max - MIN_K))
    lo = min(t, DENSE_MAX_ABS - spread * k) if not sparse else t
    values = rng.sample(range(lo, lo + spread * k), k)
    if rng.random() < 0.5:
        values = [-v for v in values]
    return _literal(values), k


def _extremal(rng: random.Random, family: str, fk: float, fr: float) -> list[str]:
    k = EXTREMAL_K[0] + round(fk * (EXTREMAL_K[1] - EXTREMAL_K[0]))
    argv = ["extremal", "--family", family, "--alpha", "all", "--json"]
    if family.startswith("mixed"):
        n = rng.randint(1, k - 1)
        argv += ["--n", str(n), "--p", str(k - n)]
    else:
        argv += ["--k", str(k)]
    if family.endswith("-r"):
        r_hi = min(EXTREMAL_R[1], EXTREMAL_MAX_RK // k)
        argv += ["--r", str(EXTREMAL_R[0] + int(fr * (r_hi - EXTREMAL_R[0] + 1)))]
    return argv


def make_queries(seed: int) -> list[list[str]]:
    """The seeded query stream: argv lists for cli.main, in call order."""
    rng = random.Random(seed)
    out: list[list[str]] = []
    for kind, seq, count in QUERY_PLAN:
        fks, fts, fas = (_fractions(rng, count, stride) for stride in (1, 7, 11))
        for i in range(count):
            if kind == "extremal":
                family = FAMILY_IDS[i % len(FAMILY_IDS)]
                out.append(_extremal(rng, family, fks[i], fas[i]))
                continue
            r = SEQ_R if seq else 1
            literal, k = _instance(rng, i % 2 == 1, r, fks[i], fts[i])
            alpha = int(fas[i] * (r * k + 1))
            argv = [kind, "--set", literal, "--alpha", str(alpha), "--json"]
            if seq:
                argv += ["--r", str(r)]
            if kind == "compute":
                argv += ["--mode", ("at-least", "at-most")[i // 2 % 2]]
            else:
                argv.append("--check")
            out.append(argv)
    rng.shuffle(out)
    return out


def _argv_value(argv: list[str], flag: str) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else None


def _query_instance(argv: list[str]) -> tuple[IntegerSet, int, int, str]:
    """(base set, r, alpha, mode) of a compute or bound query."""
    base = parse_set(_argv_value(argv, "--set"))
    r = int(_argv_value(argv, "--r") or 1)
    mode = AT_MOST if _argv_value(argv, "--mode") == "at-most" else AT_LEAST
    return base, r, int(_argv_value(argv, "--alpha")), mode


def extreme_sums(base: IntegerSet, r: int, window: range) -> tuple[int, int]:
    """Least and greatest sum over sub-collections whose size lies in the
    window: the c smallest or the c largest terms of the sorted sequence."""
    prefix = [0]
    for x in sorted(x for x in base.elements for _ in range(r)):
        prefix.append(prefix[-1] + x)
    total, length = prefix[-1], len(prefix) - 1
    return (min(prefix[c] for c in window),
            max(total - prefix[length - c] for c in window))


def oracle_sums(argv: list[str]) -> tuple[int, ...] | None:
    """The oracle's sums for a compute or bound query, or None where its
    enumeration would exceed ORACLE_MAX_ENUM."""
    base, r, alpha, mode = _query_instance(argv)
    if (r + 1) ** base.k > ORACLE_MAX_ENUM:
        return None
    if r == 1:
        return oracle.oracle_sigma_set(base, alpha, mode).sums
    return oracle.oracle_sigma_seq(RepSequence(base, r), alpha, mode).sums


def check_query(argv: list[str], code: int, out: str, cache: dict) -> tuple[bool, int]:
    """(passed, floors compared) for one query's exit code and output.

    Extremal output must be tight at every threshold. A bound --check
    row must not exceed the computed size and must be flagged tight
    exactly when equal to it. Computed sums must equal the oracle's where
    its enumeration is small enough, and otherwise be sorted, distinct,
    counted by "size" and span the closed-form extreme sums. `cache`
    keeps the oracle's answer per query across passes.
    """
    if code != 0:
        return False, 0
    data = json.loads(out)
    if argv[0] == "extremal":
        tight = data["all_tight"] and all(rep["tight"] for rep in data["reports"])
        return tight, len(data["reports"])
    key = tuple(argv)
    if key not in cache:
        cache[key] = oracle_sums(argv)
    want = cache[key]
    if argv[0] == "bound":
        size, rows = data["sigma_size"], data["bounds"]
        ok = all(row["value"] <= size and row["tight"] == (row["value"] == size)
                 for row in rows)
        return ok and (want is None or size == len(want)), len(rows)
    sums = data["sums"]
    if data["size"] != len(sums):
        return False, 0
    if want is not None:
        return sums == list(want), 0
    base, r, alpha, mode = _query_instance(argv)
    lo, hi = extreme_sums(base, r, size_window(alpha, r * base.k, mode))
    ordered = all(a < b for a, b in zip(sums, sums[1:]))
    return ordered and sums[0] == lo and sums[-1] == hi, 0


def call_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI call with stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class QueryInputs:
    def __init__(self, seed: int):
        self.queries = make_queries(seed)
        self.oracle_cache: dict = {}


def _run_queries(inputs: QueryInputs) -> list[tuple[int, str, float]]:
    results = []
    for argv in inputs.queries:
        started = time.perf_counter()
        try:
            code, out = call_cli(argv)
        except Exception:
            traceback.print_exc()
            code, out = -1, ""
        results.append((code, out, time.perf_counter() - started))
    return results


def _check_queries(inputs: QueryInputs, results) -> Checked:
    failed = checks = out_bytes = 0
    for argv, (code, out, _) in zip(inputs.queries, results):
        try:
            ok, n = check_query(argv, code, out, inputs.oracle_cache)
        except (ValueError, KeyError, TypeError):
            ok, n = False, 0
        failed += not ok
        checks += n
        out_bytes += len(out)
    latencies = [lat for _, _, lat in results]
    return Checked(len(results), checks, failed, latencies, out_bytes)


def _warm_queries() -> None:
    for argv in (["compute", "--set", "{-2,-1,1,2}", "--alpha", "1", "--json"],
                 ["bound", "--set", "[1,4]", "--r", "2", "--alpha", "2",
                  "--check", "--json"],
                 ["extremal", "--family", "mixed-full", "--n", "2", "--p", "2",
                  "--json"]):
        call_cli(argv)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-sets",
            lambda seed: None,
            lambda: verifier.sweep_sets(3, range(2, 4)),
            _sweep_sets,
            _check_reports,
        ),
        Workload(
            "sweep-seqs",
            lambda seed: None,
            lambda: verifier.sweep_sequences(2, range(2, 4), range(1, 3)),
            _sweep_seqs,
            _check_reports,
        ),
        Workload(
            "fp-prime",
            lambda seed: None,
            lambda: fp.verify_balandraud(7),
            _fp_prime,
            _check_reports,
        ),
        Workload(
            "queries",
            QueryInputs,
            _warm_queries,
            _run_queries,
            _check_queries,
        ),
    )
}
