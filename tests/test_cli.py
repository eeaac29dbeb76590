"""Command-line behavior: output of each subcommand, JSON shapes, and
the exit-code contract (0 ok, 1 usage, 2 violation, 3 budget)."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest

from subsums import cli, engine, verifier
from subsums.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_set_text(self, capsys):
        code, out, err = run(capsys, "compute", "--set", "{1,2,3}", "--alpha", "2")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "sums: 3 4 5 6"
        assert out.splitlines()[1] == "size: 4"
        assert "k=3" in out and "self_disjoint=yes" in out
        assert err == ""

    def test_at_most_mode(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--set", "{1,2,3}", "--alpha", "2",
            "--mode", "at-most",
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "sums: 0 1 2 3"

    def test_sequence(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--set", "{-1,1}", "--r", "2", "--alpha", "3"
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "sums: -1 0 1"
        assert "r=2" in out

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--set", "[1,3]", "--alpha", "0", "--json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["sums"] == [0, 1, 2, 3, 4, 5, 6]
        assert payload["size"] == 7
        assert payload["alpha"] == 0
        assert payload["r"] is None
        assert payload["profile"]["k"] == 3

    # one of each symmetry: disjoint, zero the only x = -x, and a pair
    # x, -x present, plus a mixed disjoint set
    PROFILES = [
        ("{1,2,4}", '"has_zero": false, "k": 3, "n": 0, "p": 3',
         '"self_disjoint": true, "self_meet_zero": false',
         "k=3{r} n=0 p=3 zero=no self_disjoint=yes self_meet_zero=no"),
        ("{0,1,3}", '"has_zero": true, "k": 3, "n": 0, "p": 2',
         '"self_disjoint": false, "self_meet_zero": true',
         "k=3{r} n=0 p=2 zero=yes self_disjoint=no self_meet_zero=yes"),
        ("{-1,0,1}", '"has_zero": true, "k": 3, "n": 1, "p": 1',
         '"self_disjoint": false, "self_meet_zero": false',
         "k=3{r} n=1 p=1 zero=yes self_disjoint=no self_meet_zero=no"),
        ("{-2,1}", '"has_zero": false, "k": 2, "n": 1, "p": 1',
         '"self_disjoint": true, "self_meet_zero": false',
         "k=2{r} n=1 p=1 zero=no self_disjoint=yes self_meet_zero=no"),
    ]

    @pytest.mark.parametrize("r", [None, 2])
    @pytest.mark.parametrize("literal, counts, symmetry, line", PROFILES)
    def test_profile_pinned(self, capsys, literal, counts, symmetry, line, r):
        argv = ["compute", "--set", literal, "--alpha", "1"]
        if r is not None:
            argv += ["--r", str(r)]
        _, out, _ = run(capsys, *argv, "--json")
        rkey = "" if r is None else f', "r": {r}'
        profile = "{" + counts + rkey + ", " + symmetry + "}"
        assert f'"profile": {profile}' in out
        _, out, _ = run(capsys, *argv)
        rtext = "" if r is None else f" r={r}"
        assert out.splitlines()[-1] == "profile: " + line.format(r=rtext)

    def test_alpha_out_of_range(self, capsys):
        code, out, err = run(capsys, "compute", "--set", "{1,2}", "--alpha", "3")
        assert code == EXIT_USAGE
        assert out == ""
        assert "error:" in err

    def test_huge_interval_refused_before_it_is_built(self, capsys):
        code, out, err = run(
            capsys, "compute", "--set", "[0,1000000000000]", "--alpha", "0"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "set has 1000000000001 elements; cap is 64" in err

    def test_bad_literal(self, capsys):
        code, _, err = run(capsys, "compute", "--set", "{1,,2}", "--alpha", "0")
        assert code == EXIT_USAGE
        assert "error:" in err


class TestBound:
    def test_check_flags_tightness(self, capsys):
        code, out, _ = run(capsys, "bound", "--set", "[1,4]", "--alpha", "2",
                           "--check")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "sigma_size: 8"
        assert "T2_1 = 8 tight" in lines
        assert "C2_5(even) = 4 slack" in lines

    def test_json_rows(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--set", "{-2,-1,1,2}", "--alpha", "1",
            "--check", "--json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["sigma_size"] == 7
        rows = {row["theorem_id"]: row for row in payload["bounds"]}
        assert rows["T2_3"]["value"] == 7 and rows["T2_3"]["tight"]
        assert rows["C2_5"]["value"] == 6 and not rows["C2_5"]["tight"]

    def test_degenerate_sequence_threshold(self, capsys):
        code, out, _ = run(capsys, "bound", "--set", "{1,2}", "--r", "2",
                           "--alpha", "4")
        assert code == EXIT_OK
        assert out == "no applicable bounds\n"


class TestSweep:
    def test_writes_report_and_csv(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        csv_path = tmp_path / "records.csv"
        code, out, _ = run(
            capsys, "sweep", "--max-abs", "2", "--k", "2..4", "--oracle",
            "--out", str(out_path), "--csv", str(csv_path),
        )
        assert code == EXIT_OK
        assert "instances=25" in out
        report = json.loads(out_path.read_text())
        assert report["counts"]["instances"] == 25
        assert report["counts"]["violations"] == 0
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("instance,r,alpha,size")

    def test_stdout_json_when_no_out(self, capsys):
        code, out, _ = run(capsys, "sweep", "--max-abs", "1", "--k", "2")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["universe"]["kind"] == "sets"

    def test_sequence_universe(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--max-abs", "1", "--k", "2", "--r", "1..2"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["universe"]["kind"] == "sequences"
        assert report["universe"]["r"] == [1, 2]

    def test_budget_exit_code(self, capsys):
        code, _, err = run(capsys, "sweep", "--max-abs", "50", "--k", "10")
        assert code == EXIT_BUDGET
        assert "budget" in err

    @pytest.mark.parametrize("argv", [
        ["--max-abs", "1000000", "--k", "2000..2100"],
        ["--max-abs", "10000", "--k", "20001", "--oracle"],
    ])
    def test_huge_count_exit_code(self, capsys, monkeypatch, argv):
        # counts past the 4,300 digits Python prints are refused, not a
        # ValueError from formatting the message
        def no_walk(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(verifier, "_walk_unit", no_walk)
        code, out, err = run(capsys, "sweep", *argv)
        assert code == EXIT_BUDGET
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert " needs about 10^" in err
        assert err.endswith("; budget is 1000000\n")

    def test_bad_span(self, capsys):
        code, _, err = run(capsys, "sweep", "--max-abs", "2", "--k", "4..2")
        assert code == EXIT_USAGE
        assert "error:" in err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_rejects_nonpositive_workers(self, capsys, workers):
        code, out, err = run(
            capsys, "sweep", "--max-abs", "1", "--k", "2", "--workers", workers
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "workers" in err
        assert "error:" in err


    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unwritable_path_is_one_error_line(self, capsys, tmp_path, flag):
        # a missing directory, then a directory where a file should be
        for path in (tmp_path / "missing" / "r.json", tmp_path):
            code, out, err = run(capsys, "sweep", "--max-abs", "1", "--k", "1",
                                 flag, str(path))
            assert code == EXIT_USAGE
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert str(path) in err

    @pytest.mark.parametrize("flag, other", [("--out", "--csv"),
                                             ("--csv", "--out")])
    def test_unwritable_path_refused_before_the_sweep(
            self, capsys, tmp_path, monkeypatch, flag, other):
        # both paths are checked before the sweep runs, and a refused
        # sweep neither creates nor truncates the other file
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(verifier, "sweep_sets", no_sweep)
        kept = tmp_path / "kept.txt"
        kept.write_text("old\n")
        for path, reason in ((tmp_path / "missing" / "r.json",
                              "No such file or directory"),
                             (tmp_path, "Is a directory")):
            for good in (kept, tmp_path / "new.txt"):
                code, out, err = run(capsys, "sweep", "--max-abs", "8",
                                     "--k", "1..7", flag, str(path),
                                     other, str(good))
                assert code == EXIT_USAGE
                assert out == ""
                assert err.startswith("error: [Errno ")
                assert err.endswith(f"] {reason}: '{path}'\n")
                assert err.count("\n") == 1
        assert kept.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [kept]

    def test_rejects_negative_max_abs(self, capsys):
        code, out, err = run(capsys, "sweep", "--max-abs", "-1", "--k", "2")
        assert code == EXIT_USAGE
        assert out == ""
        assert "error: max_abs must be >= 0" in err

    def test_rejects_negative_budget(self, capsys):
        # a usage error, not a refusal: exit 1 naming the value, no report
        code, out, err = run(capsys, "sweep", "--max-abs", "1", "--k", "2",
                             "--budget", "-5")
        assert code == EXIT_USAGE
        assert out == ""
        assert "error: budget must be >= 0, got -5" in err


class TestExtremal:
    def test_all_alphas_tight(self, capsys):
        code, out, _ = run(capsys, "extremal", "--family", "pos-interval",
                           "--k", "6")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == 7  # alpha 0..6
        assert all(line.endswith("tight") for line in lines)

    def test_single_alpha_json(self, capsys):
        code, out, _ = run(
            capsys, "extremal", "--family", "mixed-punctured-r",
            "--n", "2", "--p", "1", "--r", "2", "--alpha", "3", "--json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["all_tight"] is True
        assert payload["reports"][0]["alpha"] == 3

    def test_all_alphas_share_one_dp(self, capsys, monkeypatch):
        from subsums import engine, witnesses
        from subsums.model import as_sequence

        calls = []
        real = engine.sequence_layers

        def counted(s):
            calls.append(s)
            return real(s)

        witnesses._sizes.cache_clear()
        monkeypatch.setattr(engine, "sequence_layers", counted)
        code, out, _ = run(capsys, "extremal", "--family", "mixed-full-r",
                           "--n", "2", "--p", "1", "--r", "3", "--json")
        assert code == EXIT_OK
        assert len(calls) == 1
        monkeypatch.setattr(engine, "sequence_layers", real)
        fam = witnesses.WitnessFamily("mixed-full-r", n=2, p=1, r=3)
        inst = as_sequence(witnesses.witness(fam))
        reports = json.loads(out)["reports"]
        assert [rep["alpha"] for rep in reports] == list(range(inst.length))
        for rep in reports:
            assert rep["size"] == engine.sigma_size(inst, rep["alpha"])

    # sha256 of the full `--alpha all --json` stdout, taken before each
    # family's instance was built once per call instead of once per alpha
    @pytest.mark.parametrize("argv, digest", [
        (("pos-interval", "--k", "5"),
         "fe94cab026c8a4b5ab41261802e19767d368f5c9225f46d34221fbb436303a7c"),
        (("nonneg-interval", "--k", "5"),
         "a9a4404a93c255b29908a1fa4caec34f26287c641381b5bf6d983dfda98e71ea"),
        (("mixed-punctured", "--n", "2", "--p", "3"),
         "671c256787b19ff90b3c09c8053f0ad5bd7caddc9278ccce25d47f06bf6f8f75"),
        (("mixed-full", "--n", "2", "--p", "3"),
         "eaee03e07dda20117c7e6c8a9d4263eac1b3476d0f5a1f6d068e5991103fd968"),
        (("pos-interval-r", "--k", "4", "--r", "2"),
         "1de9202e61af2345bb9a0033ef485664a17baea80c1b6e8c3ff1fa103803825d"),
        (("nonneg-interval-r", "--k", "4", "--r", "2"),
         "409d32b428bc9374af23758877efaf7b809765b3bbda1498527c95359a4263f4"),
        (("mixed-punctured-r", "--n", "2", "--p", "2", "--r", "2"),
         "2913b738d7ee6f60d44479dcbd2e6dd43c56445a0487bf77a54e7866c3d68171"),
        (("mixed-full-r", "--n", "2", "--p", "2", "--r", "2"),
         "5f787957420699d7c6933f0f73850a6ce9b2d59a1a567e80ec8c1812a20dbf8d"),
        (("pos-interval-r", "--k", "6", "--r", "5"),
         "e91ef7f5d408772119ea1d803f7a787b3a2a938d2bb5f846a96c7f37c7d9528f"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v[:8])
    def test_all_alphas_json_unchanged(self, capsys, argv, digest):
        code, out, _ = run(capsys, "extremal", "--family", *argv, "--json")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_out_of_range_alpha_refused_before_dp(self, capsys, monkeypatch):
        from subsums import witnesses

        def no_dp(s):
            raise AssertionError("DP ran for a refused alpha")

        witnesses._sizes.cache_clear()
        monkeypatch.setattr(engine, "sequence_layers", no_dp)
        for alpha in ("-1", "8"):  # r*k = 8 terms, alphas 0..7
            code, out, err = run(capsys, "extremal", "--family",
                                 "pos-interval-r", "--k", "4", "--r", "2",
                                 "--alpha", alpha)
            assert code == EXIT_USAGE
            assert out == "" and "out of range" in err

    def test_family_too_large_refused(self, capsys):
        # refused in closed form before its 10^8-element base is built
        code, out, err = run(capsys, "extremal", "--family", "pos-interval",
                             "--k", "100000000")
        assert code == EXIT_BUDGET
        assert out == ""
        assert err == ("error: count-layer DP needs up to "
                       "500000005000000100000001 layer bits in 100000001 "
                       "layers; budget is 1073741824\n")

    def test_family_too_large_bad_alpha_is_a_usage_error(self, capsys):
        # the claimed floor's constructor refuses the alpha before the
        # family's DP budget is checked; --alpha all lists the alphas
        # through the family, which is refused as above
        code, out, err = run(capsys, "extremal", "--family", "pos-interval",
                             "--k", "100000000", "--alpha", "100000001")
        assert code == EXIT_USAGE
        assert out == ""
        assert "alpha=100000001 out of range [0, 100000000]" in err
        code, _, err = run(capsys, "extremal", "--family", "pos-interval",
                           "--k", "100000000", "--alpha", "all")
        assert code == EXIT_BUDGET and "count-layer DP needs up to" in err

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "extremal", "--family", "pos-ray", "--k", "3")
        assert code == EXIT_USAGE

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, "extremal", "--family", "pos-interval")
        assert code == EXIT_USAGE
        assert "error:" in err

    def test_bad_alpha_word(self, capsys):
        code, _, err = run(
            capsys, "extremal", "--family", "pos-interval", "--k", "3",
            "--alpha", "most",
        )
        assert code == EXIT_USAGE


class TestFp:
    def test_single_prime(self, capsys):
        code, out, _ = run(capsys, "fp", "--p", "7")
        assert code == EXIT_OK
        assert out == "p=7 instances=26 checks=80 violations=0\n"

    def test_prime_sweep(self, capsys):
        code, out, _ = run(capsys, "fp", "--p-upto", "7")
        assert code == EXIT_OK
        assert [line.split()[0] for line in out.splitlines()] == [
            "p=2", "p=3", "p=5", "p=7",
        ]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "fp", "--p", "5", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["reports"][0]["universe"] == {"kind": "fp", "p": 5}

    def test_composite_rejected(self, capsys):
        code, _, err = run(capsys, "fp", "--p", "9")
        assert code == EXIT_USAGE
        assert "not prime" in err

    def test_large_prime_refused(self, capsys):
        code, out, err = run(capsys, "fp", "--p", "29")
        assert code == EXIT_BUDGET
        assert out == ""
        assert str(3**14 - 1) in err

    def test_prime_sweep_refused_before_any_work(self, capsys, monkeypatch):
        from subsums import fp

        ran = []
        monkeypatch.setattr(fp, "verify_balandraud", ran.append)
        # the first prime past the guard is refused without scanning to N
        for upto in ("31", str(10**12)):
            code, out, err = run(capsys, "fp", "--p-upto", upto)
            assert code == EXIT_BUDGET
            assert ran == []
            assert out == ""
            assert "p=29" in err

    @pytest.mark.parametrize("upto", ["1", "0", "-5"])
    def test_prime_sweep_without_primes_refused(self, capsys, upto):
        code, out, err = run(capsys, "fp", "--p-upto", upto)
        assert code == EXIT_USAGE
        assert out == ""
        assert f"error: --p-upto {upto} " in err

    def test_requires_exactly_one_selector(self, capsys):
        code, _, _ = run(capsys, "fp")
        assert code == EXIT_USAGE
        code, _, _ = run(capsys, "fp", "--p", "5", "--p-upto", "7")
        assert code == EXIT_USAGE


# 64 values spread over [0, 10^6): at r = 64 the DP's placed layers
# would hold about 8 * 10^12 bits
SPREAD_64 = "{" + ",".join(str(v) for v in range(0, 10**6, 15625)) + "}"


class TestOnceBuiltParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_json_flag_does_not_stick(self, capsys):
        argv = ["compute", "--set", "{1,2,3}", "--alpha", "2"]
        code, out, _ = run(capsys, *argv, "--json")
        assert code == EXIT_OK and json.loads(out)["size"] == 4
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert out.splitlines()[:2] == ["sums: 3 4 5 6", "size: 4"]

    def test_usage_error_between_good_calls(self, capsys):
        argv = ["bound", "--set", "[1,4]", "--alpha", "2", "--check"]
        assert run(capsys, *argv)[0] == EXIT_OK
        code, _, err = run(capsys, "bound", "--set", "[1,4]", "--check")
        assert code == EXIT_USAGE and "--alpha" in err
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK and err == ""
        assert out.startswith("sigma_size: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--set", SPREAD_64, "--r", "64", "--alpha", "1"],
            ["compute", "--set", SPREAD_64, "--r", "64", "--alpha", "4000",
             "--mode", "at-most"],
            ["bound", "--set", SPREAD_64, "--r", "64", "--alpha", "1",
             "--check"],
            # top 56 <= r: extend_layers' ascending pass
            ["compute", "--set", SPREAD_64, "--r", "64", "--alpha", "4040",
             "--mode", "at-most"],
        ],
    )
    def test_oversize_dp_refused_before_any_work(self, capsys, monkeypatch, argv):
        def no_work(*args):
            raise AssertionError("the DP started")

        monkeypatch.setattr(engine, "extend_layers", no_work)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_BUDGET
        assert out == ""
        assert "layer bits" in err and "budget is 1073741824" in err


class TestTopLevel:
    def test_missing_subcommand(self, capsys):
        code, _, err = run(capsys)
        assert code == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "compute", "--set", "{1}", "--alpha", "0",
                         "--verbose")
        assert code == EXIT_USAGE

    def test_console_script_wiring(self):
        proc = subprocess.run(
            [sys.executable, "-m", "subsums.cli", "compute", "--set", "{1,2}",
             "--alpha", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert proc.stdout.splitlines()[0] == "sums: 0 1 2 3"

    def test_cold_start_loads_no_pool_or_csv(self):
        # the process pool and csv are imported where they are used: a
        # CLI process that starts no pool and writes no CSV loads neither
        code = ("import sys, subsums, subsums.cli; print(sorted(m for m in "
                "('multiprocessing', 'concurrent.futures.process', 'csv') "
                "if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_reader_closing_early_leaves_no_traceback(self):
        # about 220 kB of JSON, more than a pipe holds, so the write is
        # still pending when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "subsums.cli", "compute", "--set",
             "[1,64]", "--r", "16", "--alpha", "1", "--json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(10) == b'{"alpha": '
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_USAGE
        assert err == b""

    def test_in_process_string_stdout(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["compute", "--set", "[1,64]", "--r", "16",
                         "--alpha", "1", "--json"])
        assert code == EXIT_OK
        payload = json.loads(buf.getvalue())
        assert payload["sums"] == list(range(1, 16 * 2080 + 1))
