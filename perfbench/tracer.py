"""Outside-in tracing: wrap the package functions each layer is reached
through, record one span per call, and derive per-layer self time and
work counts.

Hooks patch the attribute a caller actually resolves (for example
`verifier.applicable_bounds`, which verifier imported by name from
bounds), so each wrapped call is seen exactly once. Spans stay in memory
until `dump`; installing is undone by `restore`, which puts back the
original objects. A hook whose target no longer exists is reported by
name in `missing`, and a layer left with no hook at all reports None
rather than a zero cost.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from array import array
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Hook:
    """Wrap `module.attr` (or `module.Class.attr`) as layer `layer`;
    `count(args, result)` returns work counts to add to that layer."""

    module: str
    attr: str
    layer: str
    count: Callable[[tuple, object], dict] | None = None


def _floors(args, bounds) -> dict:
    return {"floors": len(bounds),
            "floors_vacuous": sum(1 for b in bounds if b.value <= 1)}


def _dp(args, result) -> dict:
    layers, _offset = result
    return {"layer_bits": sum(layer.bit_length() for layer in layers)}


def _decode(args, result) -> dict:
    return {"sums": result.size, "bits": args[1].bit_length()}


def _campaign(args, report) -> dict:
    return {"instances": report.instances, "checks": report.checks,
            "tight": sum(report.tight_by_theorem.values())}


def _fp(args, report) -> dict:
    return {"instances": report.instances, "checks": report.checks}


HOOKS = (
    Hook("subsums.cli", "main", "cli"),
    Hook("subsums.verifier", "sweep_sets", "verifier", _campaign),
    Hook("subsums.verifier", "sweep_sequences", "verifier", _campaign),
    Hook("subsums.verifier", "applicable_bounds", "bounds.dispatch", _floors),
    Hook("subsums.cli", "applicable_bounds", "bounds.dispatch", _floors),
    Hook("subsums.bounds", "classify", "model.classify"),
    Hook("subsums.cli", "classify", "model.classify"),
    Hook("subsums.engine", "subset_layers", "engine.dp", _dp),
    Hook("subsums.engine", "sequence_layers", "engine.dp", _dp),
    Hook("subsums.engine", "union_layers", "engine.union"),
    Hook("subsums.model", "SumSet.from_bitmap", "model.decode", _decode),
    Hook("subsums.fp", "verify_balandraud", "fp", _fp),
    Hook("subsums.fp", "bound_fp", "bounds.fp"),
    Hook("subsums.witnesses", "check_tightness", "witnesses"),
)

# Per-layer metrics: (name, unit, better, layer, field). Field "calls"
# counts spans, "self_s" sums self time, anything else sums a work count.
METRICS = (
    ("bounds.dispatch.calls", "count", "lower", "bounds.dispatch", "calls"),
    ("bounds.dispatch.self_s", "s", "lower", "bounds.dispatch", "self_s"),
    ("bounds.floors", "count", "lower", "bounds.dispatch", "floors"),
    ("bounds.floors_vacuous", "count", "lower", "bounds.dispatch", "floors_vacuous"),
    ("model.classify.calls", "count", "lower", "model.classify", "calls"),
    ("model.classify.self_s", "s", "lower", "model.classify", "self_s"),
    ("verifier.self_s", "s", "lower", "verifier", "self_s"),
    ("verifier.instances", "count", "higher", "verifier", "instances"),
    ("verifier.checks", "count", "higher", "verifier", "checks"),
    ("verifier.tight", "count", "higher", "verifier", "tight"),
    ("engine.dp.calls", "count", "lower", "engine.dp", "calls"),
    ("engine.dp.self_s", "s", "lower", "engine.dp", "self_s"),
    ("engine.dp.layer_bits", "count", "lower", "engine.dp", "layer_bits"),
    ("engine.union.calls", "count", "lower", "engine.union", "calls"),
    ("engine.union.self_s", "s", "lower", "engine.union", "self_s"),
    ("model.decode.calls", "count", "lower", "model.decode", "calls"),
    ("model.decode.self_s", "s", "lower", "model.decode", "self_s"),
    ("model.decode.sums", "count", "lower", "model.decode", "sums"),
    ("model.decode.bits", "count", "lower", "model.decode", "bits"),
    ("fp.self_s", "s", "lower", "fp", "self_s"),
    ("fp.instances", "count", "higher", "fp", "instances"),
    ("fp.checks", "count", "higher", "fp", "checks"),
    ("bounds.fp.calls", "count", "lower", "bounds.fp", "calls"),
    ("witnesses.calls", "count", "lower", "witnesses", "calls"),
    ("witnesses.self_s", "s", "lower", "witnesses", "self_s"),
    ("cli.calls", "count", "lower", "cli", "calls"),
    ("cli.self_s", "s", "lower", "cli", "self_s"),
    ("cli.out_bytes", "bytes", "lower", "cli", "out_bytes"),
)


def _resolve(hook: Hook):
    """(owner, attribute name), or None when the target is gone."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, name):
        return None
    return owner, name


class Tracer:
    """In-memory span store plus the patching that feeds it.

    Span i has a layer id, a parent span (-1 for a root) and start and end
    times; counts[layer][field] accumulates work counts.
    """

    def __init__(self, hooks=HOOKS):
        self.hooks = tuple(hooks)
        self.layers: list[str] = []
        self.layer_ids: dict[str, int] = {}
        self.layer_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, dict[str, int]] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layer_ids:
            self.layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self.layer_ids[layer]

    def open(self, layer: str) -> int:
        idx = len(self.layer_of)
        self.layer_of.append(self._layer_id(layer))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, layer: str, counts: dict) -> None:
        acc = self.counts.setdefault(layer, {})
        for key, value in counts.items():
            acc[key] = acc.get(key, 0) + value

    def pop_counts(self) -> dict[str, dict[str, int]]:
        """Work counts added since the last call."""
        counts, self.counts = self.counts, {}
        return counts

    def span_count(self) -> int:
        return len(self.layer_of)

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, layer: str, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                self.add(layer, count(args, result))
            return result

        return traced

    def install(self) -> None:
        """Patch every hook target that exists; record the rest as missing."""
        if self._saved:
            raise RuntimeError("hooks are already installed")
        self.missing = []
        for hook in self.hooks:
            self._layer_id(hook.layer)
            found = _resolve(hook)
            if found is None:
                self.missing.append(f"{hook.module}.{hook.attr}")
                continue
            owner, name = found
            original = inspect.getattr_static(owner, name)
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(original.__func__, hook.layer, hook.count))
            else:
                patched = self._wrap(original, hook.layer, hook.count)
            self._saved.append((owner, name, original))
            setattr(owner, name, patched)

    def restore(self) -> None:
        """Put back every original object, last patched first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- results -----------------------------------------------------------

    def self_times(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Self time per layer over spans first..last-1: each span's
        duration minus the durations of its direct children."""
        last = self.span_count() if last is None else last
        child = [0.0] * (last - first)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p - first] += self.end[i] - self.start[i]
        out = {layer: 0.0 for layer in self.layers}
        for i in range(first, last):
            dur = self.end[i] - self.start[i]
            out[self.layers[self.layer_of[i]]] += dur - child[i - first]
        return out

    def span_calls(self, first: int = 0, last: int | None = None) -> dict[str, int]:
        last = self.span_count() if last is None else last
        out = {layer: 0 for layer in self.layers}
        for i in range(first, last):
            out[self.layers[self.layer_of[i]]] += 1
        return out

    def layers_without_hook(self) -> set[str]:
        """Layers whose every hook target is missing."""
        live = {h.layer for h in self.hooks
                if f"{h.module}.{h.attr}" not in self.missing}
        return {h.layer for h in self.hooks} - live

    def dump(self, path: str) -> None:
        """Write every span to a gzip file: one JSON header line naming the
        layers and missing hooks, then the four span arrays as raw bytes."""
        header = {"layers": self.layers, "missing": self.missing,
                  "spans": self.span_count(),
                  "arrays": ["layer:i", "parent:i", "start:d", "end:d"]}
        with gzip.open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.layer_of, self.parent, self.start, self.end):
                fh.write(arr.tobytes())


def load(path: str) -> tuple[dict, dict[str, array]]:
    """Read a file written by Tracer.dump: (header, arrays by name)."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for spec in header["arrays"]:
            name, code = spec.split(":")
            arr = array(code)
            arr.frombytes(fh.read(arr.itemsize * header["spans"]))
            arrays[name] = arr
    return header, arrays
