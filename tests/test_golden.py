"""Golden bytes: campaign reports, record CSVs and the floor catalogue
must not change.

The digests were taken from the set, sequence and prime-field campaigns
before the set path was folded into the r = 1 sequence path (p = 13
before the prime-field verifier moved onto cyclic count layers, p = 17
to 23 before it walked only the canonical half of the A <-> -A mirror,
the floor grid before the ten closed forms were derived from two shared
expressions, the mirror-walk sweeps before their floors were resolved
as per-theorem rows over alpha, the long-block record CSV before record
runs took their floors from the walk's sign shape, the mirror walk over
[-3, 3] at r = 1..6 and the two small record CSVs at every alpha before
sweeps lost their list alpha policies, at commit 13a9477, and the
benchmark's query streams before the decode cut bitmaps at long zero
stretches); any change to a report body (every field but elapsed_ms),
to the CSV bytes, to one floor's JSON or to one CLI call's exit code or
stdout fails here, so refactors of the engine, verifier, fp, bounds or
cli must reproduce them exactly.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from subsums import bounds
from subsums.fp import verify_balandraud
from subsums.verifier import sweep_sequences, sweep_sets, write_records_csv


def report_digest(report):
    body = report.to_json()
    body.pop("elapsed_ms")
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def csv_digest(report, tmp_path):
    path = tmp_path / "records.csv"
    write_records_csv(report.records, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_set_sweep(tmp_path):
    rep = sweep_sets(3, range(1, 5), oracle_check=True, collect_records=True)
    assert report_digest(rep) == (
        "1884ab927287bf9994f7a9f00f974fa07dc1bde852f976ef129d12498ecaa5ec"
    )
    assert csv_digest(rep, tmp_path) == (
        "37937f7c94717cfa9e658da2dcd11ce71099b81061c38e25a0703d31f6c179e3"
    )


def test_sequence_sweep(tmp_path):
    rep = sweep_sequences(
        2, range(1, 4), range(1, 4), oracle_check=True, collect_records=True
    )
    assert report_digest(rep) == (
        "f09e5fed124b6f97f4d54ce40dc26ebf214f19d8cee86e3fb23203c647724ca2"
    )
    assert csv_digest(rep, tmp_path) == (
        "23bbf73b5fe2b96f10d7c991e95b76eab8bf39bbebdf56d9ad658578e1beba84"
    )


def test_mirror_walk_sweeps():
    # the mirror walk, with profile tallies and mirrored witnesses: the
    # perfbench sweep digests, and a universe of six multiplicities
    assert report_digest(sweep_sets(8, range(2, 7))) == (
        "d8160b708bec6bcdfa1079a2d1ebe0bb6de9ebd645570c8cdde390c898a04697"
    )
    assert report_digest(sweep_sequences(4, range(2, 5), range(1, 13))) == (
        "a6899bccbce013504bc77759a00b01c8b1940820d71f8c1668a056f75afe9a68"
    )
    rep = sweep_sequences(3, range(1, 5), range(1, 7))
    assert report_digest(rep) == (
        "ab1e5d66c452ca1c12159cb344ce37be0f4cec69878baf71d3894683236987b9"
    )


@pytest.mark.parametrize("sweep, digest", [
    # every alpha of every instance, alpha = r*k rows without floors
    (lambda: sweep_sequences(3, range(1, 5), range(1, 7),
                             collect_records=True),
     "9a6abc7dd6acdea1e517d8cdaf0cd832673d7e8949722691ee92675d58581798"),
    (lambda: sweep_sets(3, range(1, 6), collect_records=True),
     "9a58876a7c49d606cff0b50e8b0343b0a9114472d5809f5060b496f951065f79"),
    # blocks of up to 12 alphas
    (lambda: sweep_sequences(2, range(1, 4), range(1, 13),
                             collect_records=True),
     "40d8e48bfa4104bcc3138a20cf25cdc6510d3fcb8d20d1546d1cf1f40345361d"),
], ids=["sequences-six-r", "sets", "sequences-long-blocks"])
def test_record_csvs(sweep, digest, tmp_path):
    assert csv_digest(sweep(), tmp_path) == digest


@pytest.mark.parametrize(
    "p, digest",
    [
        (7, "93c4f9452ed828ae8db6e6290130b2c33d392e17e6c49bba01e88c0149d37271"),
        (11, "0d9d948b8f62d7c0ecadef6537f3f3b04c298df94baae78e1b344a5d9695047f"),
        (13, "0afd7c3cd88ca165e27af30d3792ae292e21bb8d395285b92fbdb7f0b9c3677b"),
        (17, "edf079843324d10ad1ad5f79539638fe527ce51b7eb17d5ac25e7550f35511da"),
        (19, "64b10e38a01582aea694a4e4f12167a8674cc729e2874e96352c6eddf2bc6b37"),
        (23, "60f4e0dd80cd0759aad6dc0a9599bb24926b939c42bde60711e7d47d9c251a32"),
    ],
)
def test_prime_field(p, digest):
    assert report_digest(verify_balandraud(p)) == digest


def floor_grid():
    """Every public floor over k <= 25, r <= 6 and n, p <= 9 (each from
    0, so the size checks fire too), alpha from -1 to one past its top."""
    ks, rs, sides = range(26), range(7), range(10)
    for k in ks:
        for alpha in range(-1, k + 2):
            yield bounds.bound_disjoint, (k, alpha)
            yield bounds.bound_zero, (k, alpha)
            for has_zero in (False, True):
                yield bounds.bound_general, (k, alpha, has_zero)
            for p in (1, 2, 7, 13, 1_000_000_007):
                yield bounds.bound_fp, (k, alpha, p)
        for r in rs:
            for alpha in range(-1, r * k + 1):
                yield bounds.bound_seq_disjoint, (k, r, alpha)
                yield bounds.bound_seq_zero, (k, r, alpha)
                for has_zero in (False, True):
                    yield bounds.bound_seq_general, (k, r, alpha, has_zero)
    for n in sides:
        for p in sides:
            for alpha in range(-1, n + p + 2):
                yield bounds.bound_mixed, (n, p, alpha)
            for alpha in range(-1, n + p + 3):
                yield bounds.bound_mixed_zero, (n, p, alpha)
            for r in rs:
                for alpha in range(-1, r * (n + p) + 1):
                    yield bounds.bound_seq_mixed, (n, p, r, alpha)
                for alpha in range(-1, r * (n + p + 1) + 1):
                    yield bounds.bound_seq_mixed_zero, (n, p, r, alpha)


def test_floor_catalogue():
    # one line per call: its name, arguments, and to_json() or the refusal
    digest = hashlib.sha256()
    rows = 0
    for fn, args in floor_grid():
        try:
            out = fn(*args).to_json()
        except ValueError:
            out = "raised ValueError"
        line = json.dumps([fn.__name__, args, out], sort_keys=True)
        digest.update(line.encode() + b"\n")
        rows += 1
    assert rows == 77583
    assert digest.hexdigest() == (
        "b819ea36af5837454e894fcd22aba76036084e76e351c2b286350057f5fe9054"
    )


def test_query_streams(monkeypatch):
    # argv, exit code and stdout of the 4,800 in-process CLI calls of the
    # benchmark's query streams at seeds 0-9, each as one JSON array.
    # perfbench/workloads.py is loaded by its path and only read: no
    # bytecode is written beside it; its dataclasses look the module up
    # in sys.modules while it runs
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    digest = hashlib.sha256()
    calls = 0
    for seed in range(10):
        for argv in workloads.make_queries(seed):
            code, out = workloads.call_cli(argv)
            digest.update(json.dumps([argv, code, out]).encode())
            calls += 1
    assert calls == 4800
    assert digest.hexdigest() == (
        "b0df0aa31d283b037ded3fa2a09e8a2cb08a08171f050465b8ab86d94e669d9b"
    )
