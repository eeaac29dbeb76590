"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ./src.
With --trace 0 the run measures end-to-end metrics with no tracing. With
--trace 1 it alternates untraced and traced passes for S seconds,
reports per-layer metrics, and writes the spans to
.perfbench/spans-NAME-N.gz. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

A pass is one run of the workload body: one sweep, both fp primes, or
the whole query stream. Passes repeat until S seconds have gone (at
least MIN_PASSES untraced ones), and times are medians over passes.
Each pass's output is checked after its clock stops.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
MIN_PASSES = 3
# The machine is shared: other tenants slow every process on it by up to
# 1.6x for minutes at a time, more than any regression bound allows. So
# every end-to-end time is scaled by REFERENCE_S over the time of
# reference_loop measured around it, which tracks that slowdown; times
# read as on a machine that runs the loop in REFERENCE_S, its median
# time on the 2-vCPU machine the benchmark was defined on.
REFERENCE_S = 0.088
# Set-up is timed in this many fresh interpreters (this process is one);
# set-up time is their median.
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 120

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "checks_per_s": "1/s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def use_checkout_source() -> None:
    """Import subsums from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "subsums", "__init__.py")):
        sys.exit(f"perfbench: {SRC}/subsums not found; run from a checkout root")
    sys.path.insert(0, SRC)


def set_up(name: str, seed: int):
    """Import the package, build the inputs and make one warm-up call;
    returns (seconds taken, workload, inputs)."""
    started = time.perf_counter()
    import workloads

    if name not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {name!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(seed)
    workload.warm_up()
    return time.perf_counter() - started, workload, inputs


def probe_set_up(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def reference_loop() -> float:
    """Seconds taken by a fixed dict-and-int loop that shares no code with
    the package; its time tracks how fast the machine runs Python now."""
    gc.collect()
    started = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(150_000):
        table[i & 1023] = (i * 2654435761) >> 7
        acc ^= table.get((i * 7) & 1023, 1) << (i & 31)
    return time.perf_counter() - started


class Passes:
    """Timed passes of one workload, with their checked outcomes.

    When calibrated, each pass is bracketed by reference loops, and
    `scales` holds REFERENCE_S over their mean time around that pass.
    """

    def __init__(self, calibrated: bool):
        self.calibrated = calibrated
        self.walls: list[float] = []
        self.scales: list[float] = []
        self.latencies: list[list[float]] = []
        self.calls: list[int] = []
        self.checks: list[int] = []
        self.attempted = 0
        self.failed = 0
        self._last_reference = None

    def one(self, workload, inputs, tracer=None) -> dict | None:
        """Time one pass, then check it. With a tracer, the pass's spans
        sit under one "harness" root span, and its per-layer row is
        returned."""
        import workloads  # already imported, and timed, by set_up

        before = None
        if self.calibrated:
            before = self._last_reference or reference_loop()
        gc.collect()
        if tracer is not None:
            first = tracer.span_count()
            root = tracer.open("harness")
        started = time.perf_counter()
        try:
            result = workload.run(inputs)
        except Exception:
            traceback.print_exc()
            result = None
        wall = time.perf_counter() - started
        if tracer is not None:
            tracer.close(root)
        scale = 1.0
        if self.calibrated:
            self._last_reference = reference_loop()
            scale = REFERENCE_S / ((before + self._last_reference) / 2)
        if result is None:
            checked = workloads.Checked(calls=1, checks=0, failed=1)
        else:
            checked = workload.check(inputs, result)
        self.walls.append(wall)
        self.scales.append(scale)
        self.attempted += checked.calls
        self.failed += checked.failed
        self.calls.append(checked.calls)
        self.checks.append(checked.checks)
        self.latencies.append([lat * scale for lat in checked.latencies or [wall]])
        if tracer is None:
            return None
        tracer.add("cli", {"out_bytes": checked.out_bytes})
        return layer_row(tracer, first)

    def wall_s(self) -> float:
        """Median wall time of a pass, in seconds as measured."""
        return statistics.median(self.walls)

    def call_latencies(self) -> list[float]:
        """Each call's median latency over the passes: the calls of a pass
        come in the same order every pass, so repetition noise drops out
        and the spread left is the spread across the workload's calls."""
        return [statistics.median(col) for col in zip(*self.latencies)]

    def scaled_wall_s(self) -> float:
        """Median over passes of wall time times the pass's scale."""
        return statistics.median(w * k for w, k in zip(self.walls, self.scales))


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the closest ranks
    (statistics.quantiles, inclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setup_samples: list[float], passes: Passes) -> dict[str, float]:
    wall = passes.scaled_wall_s()
    calls = passes.call_latencies()
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall,
        "checks_per_s": statistics.median(passes.checks) / wall,
        "queries_per_s": statistics.median(passes.calls) / wall,
        "query_p50_ms": 1000 * statistics.median(calls),
        "query_p90_ms": 1000 * quantile(calls, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_row(tracer, first: int) -> dict[str, float]:
    """Per-layer values of the traced pass whose spans start at `first`."""
    self_s = tracer.self_times(first)
    calls = tracer.span_calls(first)
    counts = tracer.pop_counts()
    dead = tracer.layers_without_hook()
    row = {}
    for name, _unit, _better, layer, field in tracing.METRICS:
        if layer in dead:
            row[name] = None
        elif field == "self_s":
            row[name] = self_s[layer]
        elif field == "calls":
            row[name] = calls[layer]
        else:
            row[name] = counts.get(layer, {}).get(field, 0)
    row["trace.spans"] = tracer.span_count() - first
    return row


def per_layer(rows: list[dict], traced: Passes, untraced: Passes,
              missing: list[str]) -> dict[str, tuple[float | None, str]]:
    units = {name: unit for name, unit, *_ in tracing.METRICS}
    units["trace.spans"] = "count"
    out = {}
    for name, unit in units.items():
        values = [row[name] for row in rows]
        out[name] = (None if None in values else statistics.median_low(values), unit)
    out["trace.overhead_s"] = (traced.wall_s() - untraced.wall_s(), "s")
    out["trace.hooks_missing"] = (len(missing), "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    use_checkout_source()
    setup_s, workload, inputs = set_up(args.workload, args.seed)
    if args.setup_probe or not args.trace:
        setup_s *= REFERENCE_S / reference_loop()
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    untraced = Passes(calibrated=not args.trace)
    notes = ""
    if not args.trace:
        setup_samples = [setup_s] + [
            probe_set_up(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
        ]
        deadline = time.perf_counter() + args.seconds
        while len(untraced.walls) < MIN_PASSES or time.perf_counter() < deadline:
            untraced.one(workload, inputs)
        metrics = {name: (value, E2E_UNITS[name])
                   for name, value in end_to_end(setup_samples, untraced).items()}
        runs = [untraced]
        samples = f"{len(untraced.latencies[0])}x{len(untraced.latencies)}"
        notes = (f" raw_wall_s={untraced.wall_s():.6g}"
                 f" scale={statistics.median(untraced.scales):.4g}")
    else:
        # Untraced and traced passes alternate, so that the overhead they
        # give is not skewed by the machine's speed drifting during a run.
        traced, rows = Passes(calibrated=False), []
        tracer = tracing.Tracer()
        deadline = time.perf_counter() + args.seconds
        while not rows or time.perf_counter() < deadline:
            untraced.one(workload, inputs)
            tracer.install()
            try:
                rows.append(traced.one(workload, inputs, tracer))
            finally:
                tracer.restore()
        for target in tracer.missing:
            print(f"missing hook: {target}", file=sys.stderr)
        metrics = per_layer(rows, traced, untraced, tracer.missing)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.gz"))
        runs = [untraced, traced]
        samples = len(rows)

    attempted = sum(p.attempted for p in runs)
    failed = sum(p.failed for p in runs)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={sum(len(p.walls) for p in runs)} samples={samples} "
          f"nproc={os.cpu_count()} python={sys.version.split()[0]}{notes}")
    for name, (value, unit) in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<24} {shown} {unit}")
    print(f"  {'fail_ratio':<24} {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
