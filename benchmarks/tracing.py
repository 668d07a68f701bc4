"""Spans around the public functions of each twoeig layer, for the traced run.

The tracer wraps every function named in a layer module's ``__all__`` (for
``cli``, which has none: ``main`` and the ``cmd_*`` handlers), and installs
the wrapper under every name that refers to the original in any twoeig
module, so calls from one layer into another nest. Nothing under ``src/``
changes; the originals are put back on exit.

A span is ``[name, start, end, parent, op, error, peak_bytes, base_bytes,
extra, id]``, where ``parent`` is the id of the enclosing span and ``op`` the
index of the benchmark op that caused it. Spans stay in memory until the run
ends. With ``memory=True`` tracemalloc is on and each span also gets the peak
traced allocation above the level at its start; tracemalloc slows allocation
heavy Python code several times over, so times come from a pass with
``memory=False`` and allocation peaks from a separate pass.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

LAYERS = ("io", "constructions", "core", "spectra", "lifts_ramanujan", "twographs", "cli")

# <layer>.<function>.self_s reported for the functions most likely to be optimised
FOCUS = (
    "spectra.eigenvalues_symmetric", "spectra.certify_two_eigenvalues",
    "spectra.bipartite_two_eig_check",
    "core.is_orthogonal", "core.ground", "core.is_regular", "core.switching_canonical",
    "core.enumerate_switching_classes",
    "io.parse_matrix", "io.format_matrix",
    "constructions.sylvester_hadamard", "constructions.williamson_preset",
    "lifts_ramanujan.lift_spectrum_check", "lifts_ramanujan.table_row",
    "twographs.validate_twograph",
    "cli.main",
)

NAME, START, END, PARENT, OP, ERROR, PEAK, BASE, EXTRA, ID = range(10)


def _public_functions(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n, obj in vars(module).items()
                 if inspect.isfunction(obj) and obj.__module__ == module.__name__
                 and (n == "main" or n.startswith("cmd_"))]
    return [n for n in names if inspect.isfunction(getattr(module, n))]


def per_layer_metric_names() -> list[str]:
    names = []
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.calls", f"{layer}.errors", f"{layer}.peak_alloc_mb"]
    names += [f"{f}.self_s" for f in FOCUS]
    names += ["spectra.certify_two_eigenvalues.accept_ratio", "io.parse_matrix.mb_per_s",
              "trace.overhead_s"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith((".calls", ".errors")):
        return "count"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".accept_ratio"):
        return "ratio"
    if name.endswith(".mb_per_s"):
        return "MB/s"
    return "s"


def wrapper_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Time one traced call adds: a wrapped no-op against the bare no-op,
    median over `repeats` batches of `calls` calls each."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap(noop, "calibration.noop")
    samples = []
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    return max(0.0, statistics.median(samples))


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.op_id = -1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self.stack
        counts_bytes = name == "io.parse_matrix"
        counts_accept = name == "spectra.certify_two_eigenvalues"
        memory = self.memory

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            current = 0
            if memory:
                current, peak = tracemalloc.get_traced_memory()
                if parent is not None:
                    parent[PEAK] = max(parent[PEAK], peak)
                tracemalloc.reset_peak()
            span = [name, 0.0, 0.0, None if parent is None else parent[ID], self.op_id,
                    False, current, current, None, len(spans)]
            spans.append(span)
            stack.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if memory:
                    _, peak = tracemalloc.get_traced_memory()
                    span[PEAK] = max(span[PEAK], peak)
                    if parent is not None:
                        parent[PEAK] = max(parent[PEAK], span[PEAK])
            if counts_bytes:
                span[EXTRA] = len(args[0]) if args else 0
            elif counts_accept:
                span[EXTRA] = result is not None
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        modules = [importlib.import_module("twoeig")]
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"twoeig.{layer}")
            modules.append(module)
            for name in _public_functions(module):
                fn = getattr(module, name)
                wrappers[id(fn)] = self._wrap(fn, f"{layer}.{name}")
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        if self.memory:
            tracemalloc.start()
        return self

    def __exit__(self, *exc):
        if self.memory:
            tracemalloc.stop()
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()
        return False

    def self_times(self) -> list[float]:
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                child_time[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child_time)]

    def peak_alloc_mb(self) -> dict[str, float]:
        """Largest allocation peak of any span of each layer, from a memory pass."""
        peaks = defaultdict(int)
        for s in self.spans:
            layer = s[NAME].split(".", 1)[0]
            peaks[layer] = max(peaks[layer], s[PEAK] - s[BASE])
        return {f"{layer}.peak_alloc_mb": peaks[layer] / 1e6 for layer in LAYERS}

    def metrics(self) -> dict[str, float]:
        """Per-layer times, counts and ratios of this pass; the allocation peaks
        come from a memory pass (peak_alloc_mb) and trace.overhead_s from run.py."""
        selfs = self.self_times()
        layer_self = defaultdict(float)
        layer_calls = defaultdict(int)
        layer_errors = defaultdict(int)
        fn_self = defaultdict(float)
        parsed_bytes = parse_time = 0.0
        accepted = certified = 0
        for s, self_s in zip(self.spans, selfs):
            layer = s[NAME].split(".", 1)[0]
            layer_self[layer] += self_s
            layer_calls[layer] += 1
            layer_errors[layer] += s[ERROR]
            fn_self[s[NAME]] += self_s
            if s[NAME] == "io.parse_matrix" and not s[ERROR]:
                parsed_bytes += s[EXTRA]
                parse_time += s[END] - s[START]
            elif s[NAME] == "spectra.certify_two_eigenvalues" and not s[ERROR]:
                certified += 1
                accepted += s[EXTRA]
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
            out[f"{layer}.calls"] = layer_calls[layer]
            out[f"{layer}.errors"] = layer_errors[layer]
        for f in FOCUS:
            out[f"{f}.self_s"] = fn_self[f]
        accept_ratio = accepted / certified if certified else 0.0
        out["spectra.certify_two_eigenvalues.accept_ratio"] = accept_ratio
        out["io.parse_matrix.mb_per_s"] = parsed_bytes / 1e6 / parse_time if parse_time else 0.0
        return out

    def check_nesting(self) -> list[str]:
        """Problems with the span tree: children must lie inside their parent."""
        problems = []
        for i, s in enumerate(self.spans):
            if s[END] < s[START]:
                problems.append(f"span {i} {s[NAME]} ends before it starts")
            p = s[PARENT]
            if p is None:
                continue
            parent = self.spans[p]
            if p >= i or not (parent[START] <= s[START] and s[END] <= parent[END]):
                problems.append(f"span {i} {s[NAME]} lies outside its parent {p} {parent[NAME]}")
            if parent[OP] != s[OP]:
                problems.append(f"span {i} {s[NAME]} has another op than its parent")
        return problems

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "op", "error", "peak_bytes", "base_bytes",
                  "extra", "id"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh, separators=(",", ":"))
