"""Golden bytes: campaign reports and record CSVs must not change.

The digests were taken from the set, sequence and prime-field campaigns
before the set path was folded into the r = 1 sequence path (p = 13
before the prime-field verifier moved onto cyclic count layers); any change
to a report body (every field but elapsed_ms) or to the CSV bytes fails
here, so refactors of the engine, verifier or fp must reproduce them
exactly.
"""

import hashlib
import json

import pytest

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


@pytest.mark.parametrize(
    "p, digest",
    [
        (7, "93c4f9452ed828ae8db6e6290130b2c33d392e17e6c49bba01e88c0149d37271"),
        (11, "0d9d948b8f62d7c0ecadef6537f3f3b04c298df94baae78e1b344a5d9695047f"),
        (13, "0afd7c3cd88ca165e27af30d3792ae292e21bb8d395285b92fbdb7f0b9c3677b"),
    ],
)
def test_prime_field(p, digest):
    assert report_digest(verify_balandraud(p)) == digest
