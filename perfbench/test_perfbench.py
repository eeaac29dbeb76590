"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import inspect
import json

import pytest

import run

run.use_checkout_source()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from subsums import cli, fp, verifier  # noqa: E402
from subsums.model import DEFAULT_LIMITS, parse_sequence, parse_set  # noqa: E402
from subsums.witnesses import WitnessFamily, witness  # noqa: E402


def _synthetic(spans) -> tracing.Tracer:
    """A tracer holding (layer, parent, start, end) spans verbatim."""
    t = tracing.Tracer(hooks=())
    for layer, parent, start, end in spans:
        t.layer_of.append(t._layer_id(layer))
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    return t


def test_self_time_subtracts_direct_children_only():
    t = _synthetic([
        ("cli", -1, 0.0, 10.0),      # 0: children 1 and 3 cover 3 + 4
        ("engine.dp", 0, 1.0, 4.0),  # 1: child 2 covers 1
        ("model.decode", 1, 2.0, 3.0),
        ("engine.dp", 0, 5.0, 9.0),
        ("cli", -1, 20.0, 22.0),     # 4: a second root, no children
    ])
    assert t.self_times() == {"cli": 3.0 + 2.0, "engine.dp": 2.0 + 4.0,
                              "model.decode": 1.0}
    assert t.span_calls() == {"cli": 2, "engine.dp": 2, "model.decode": 1}
    assert t.self_times(first=4) == {"cli": 2.0, "engine.dp": 0.0,
                                     "model.decode": 0.0}


def test_query_stream_repeats_for_a_seed():
    assert workloads.make_queries(7) == workloads.make_queries(7)
    assert workloads.make_queries(7) != workloads.make_queries(8)
    assert len(workloads.make_queries(7)) == workloads.QUERIES_PER_PASS >= 100


@pytest.mark.parametrize("seed", range(5))
def test_every_query_passes_default_limits(seed):
    parser = cli.build_parser()
    for argv in workloads.make_queries(seed):
        args = parser.parse_args(argv)
        if args.command == "extremal":
            inst = witness(WitnessFamily(args.family, k=args.k, n=args.n,
                                         p=args.p, r=args.r))
            base = getattr(inst, "base", inst)
            assert base.k <= DEFAULT_LIMITS.max_k
            assert (args.r or 1) <= DEFAULT_LIMITS.max_r
            assert max(map(abs, base.elements)) <= DEFAULT_LIMITS.max_abs_value
        elif args.r is None:
            parse_set(args.set)
        else:
            parse_sequence(args.set, args.r)


def _hook_targets():
    out = {}
    for hook in tracing.HOOKS:
        owner, name = tracing._resolve(hook)
        out[(owner, name)] = inspect.getattr_static(owner, name)
    return out


def test_traced_run_records_layers_and_restores_originals():
    before = _hook_targets()
    t = tracing.Tracer()
    t.install()
    try:
        assert all(inspect.getattr_static(o, n) is not f
                   for (o, n), f in before.items())
        for argv in (["compute", "--set", "[1,5]", "--alpha", "2", "--json"],
                     ["bound", "--set", "{-2,0,3}", "--alpha", "1", "--check"],
                     ["extremal", "--family", "pos-interval", "--k", "4"]):
            assert workloads.call_cli(argv)[0] == 0
        report = verifier.sweep_sets(2, range(2, 4))
        fp.verify_balandraud(5)
    finally:
        t.restore()
    assert _hook_targets() == before
    assert all(inspect.getattr_static(o, n) is f for (o, n), f in before.items())
    calls = t.span_calls()
    assert calls["cli"] == 3 and calls["verifier"] == 1 and calls["fp"] == 1
    assert all(calls[layer] > 0 for layer in (
        "bounds.dispatch", "model.classify", "engine.dp", "engine.union",
        "model.decode", "bounds.fp", "witnesses"))
    assert t.counts["verifier"]["checks"] == report.checks
    assert t.missing == []
    spans = t.span_count()
    workloads.call_cli(["compute", "--set", "[1,5]", "--alpha", "2"])
    assert t.span_count() == spans


def test_missing_hook_is_named_and_its_layer_reported_missing():
    hooks = tuple(
        tracing.Hook(h.module, h.attr + "_gone", h.layer) if h.layer == "engine.dp" else h
        for h in tracing.HOOKS
    )
    t = tracing.Tracer(hooks)
    t.install()
    t.restore()
    assert t.missing == ["subsums.engine.subset_layers_gone",
                         "subsums.engine.sequence_layers_gone"]
    assert t.layers_without_hook() == {"engine.dp"}
    row = run.layer_row(t, 0)
    assert {name for name, value in row.items() if value is None} == {
        "engine.dp.calls", "engine.dp.self_s", "engine.dp.layer_bits"}


def test_calibration_scales_each_pass_by_its_reference(monkeypatch):
    loops = iter([0.044, 0.176, 0.088])
    monkeypatch.setattr(run, "reference_loop", lambda: next(loops))
    fake = workloads.Workload(
        "fake", lambda seed: None, lambda: None, lambda inputs: "ok",
        lambda inputs, result: workloads.Checked(2, 3, 0, [0.5, 1.5]))
    passes = run.Passes(calibrated=True)
    passes.one(fake, None)
    passes.one(fake, None)
    first = run.REFERENCE_S / ((0.044 + 0.176) / 2)
    second = run.REFERENCE_S / ((0.176 + 0.088) / 2)
    assert passes.scales == pytest.approx([first, second])
    assert passes.latencies == [pytest.approx([0.5 * first, 1.5 * first]),
                                pytest.approx([0.5 * second, 1.5 * second])]
    assert passes.call_latencies() == pytest.approx(
        [0.5 * (first + second) / 2, 1.5 * (first + second) / 2])
    assert (passes.attempted, passes.failed, passes.checks) == (4, 0, [3, 3])


def test_dump_round_trips(tmp_path):
    t = _synthetic([("cli", -1, 0.5, 2.0), ("engine.dp", 0, 1.0, 1.5)])
    path = tmp_path / "spans.gz"
    t.dump(str(path))
    header, arrays = tracing.load(str(path))
    assert header["layers"] == ["cli", "engine.dp"] and header["spans"] == 2
    assert list(arrays["parent"]) == [-1, 0]
    assert list(arrays["end"]) == [2.0, 1.5]


@pytest.mark.parametrize("literal", ["{-3,-1,2,5}", "[100,120]"])
def test_query_check_rejects_wrong_sums(literal):
    argv = ["compute", "--set", literal, "--r", "2", "--alpha", "3", "--json",
            "--mode", "at-most"]
    code, out = workloads.call_cli(argv)
    assert workloads.check_query(argv, code, out, {}) == (True, 0)
    data = json.loads(out)
    dropped = dict(data, sums=data["sums"][:-1], size=data["size"] - 1)
    assert not workloads.check_query(argv, 0, json.dumps(dropped), {})[0]
    assert not workloads.check_query(argv, 1, out, {})[0]


def test_query_check_rejects_a_floor_above_the_size():
    argv = ["bound", "--set", "[1,4]", "--alpha", "2", "--check", "--json"]
    code, out = workloads.call_cli(argv)
    assert workloads.check_query(argv, code, out, {}) == (True, 2)
    data = json.loads(out)
    data["bounds"][0]["value"] = data["sigma_size"] + 1
    assert not workloads.check_query(argv, 0, json.dumps(data), {})[0]


def test_report_check_rejects_a_changed_report():
    report = fp.verify_balandraud(17)
    assert workloads._check_reports(None, [(report, "fp-17", 1.0)]).failed == 0
    report.minima[0]["size"] += 1
    assert workloads._check_reports(None, [(report, "fp-17", 1.0)]).failed == 1
