"""Outside-in span tracer for the five ddse layers.

The program is not edited: each public function of ``integrand``,
``paths``, ``estimators``, ``wick`` and ``cli`` (plus ``cli._write_atomic``,
traced as ``cli.write_atomic``) is replaced by a wrapper on every name it is
bound to.  ``cli`` and ``estimators`` import functions by name, so wrapping
only the defining module would miss most calls.  A span records name, start,
end, parent and thread; spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from collections import Counter, defaultdict, namedtuple

LAYERS = ("integrand", "paths", "estimators", "wick", "cli")

# Functions whose spans or counts back a named per-layer metric.  A missing
# one is an error, so a rename cannot silently report zero for its layer.
REQUIRED = {
    "integrand": ("quad_var", "quad_var_between", "novikov_check"),
    "paths": ("sample_brownian", "ito_integral", "stoch_exp_exact", "write_csv",
              "write_binary", "increments_checksum"),
    "estimators": ("det_sum", "jackknife_mean_se", "estimate_p_moment", "estimate_mean_z",
                   "martingale_increment_test", "submartingale_scan"),
    "wick": ("enumerate_pairings", "mgf_truncated", "check_log_relation"),
    "cli": ("main", "_write_atomic"),
}

Span = namedtuple("Span", "id name start end parent thread")


class TracerError(RuntimeError):
    """The program no longer has a function the tracer must wrap."""


def _bundle_bytes(args, bundle):
    return {"paths.bundle_bytes_computed": sum(
        a.nbytes for a in (bundle.increments, bundle.ito, bundle.z))}


def _normals(args, increments):
    return {"paths.normals_drawn": increments.size // (2 if args["antithetic"] else 1)}


def _file_bytes(metric):
    return lambda args, _result: {metric: os.path.getsize(args["path"])}


# Counts taken at a layer boundary from the call's arguments and result.
COUNTERS = {
    "paths.stoch_exp_exact": _bundle_bytes,
    "paths.stoch_exp_em": _bundle_bytes,
    "paths.sample_brownian": _normals,
    "paths.write_csv": _file_bytes("paths.write_csv.bytes"),
    "paths.write_binary": _file_bytes("paths.write_binary.bytes"),
    "estimators.jackknife_mean_se": lambda args, _r: {
        "estimators.jackknife_mean_se.values_reduced": args["x"].size},
    "wick.enumerate_pairings": lambda _a, result: {"wick.pairings_built": len(result)},
    "cli.write_atomic": lambda args, _r: {"cli.write_atomic.bytes": len(args["text"].encode())},
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def install(self, package):
        """Wrap the layer functions of ``package`` on every module binding them."""
        modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
        names = {}
        for layer, module in zip(LAYERS, modules):
            for attr in REQUIRED[layer]:
                fn = getattr(module, attr, None)
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    raise TracerError(f"{module.__name__} defines no function {attr!r} to trace")
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and (not attr.startswith("_") or attr in REQUIRED[layer])):
                    names[fn] = f"{layer}.{attr.lstrip('_')}"
        wrappers = {fn: self._wrap(fn, name) for fn, name in names.items()}
        for module in (package, *modules):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, threading.get_ident()))
            counts = {f"{name}.calls": 1}
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts.update(counter(bound.arguments, result))
            with self._lock:
                self.counts.update(counts)
            return result

        return traced

    def top_level_ns(self, start: int, end: int) -> int:
        """Time within [start, end] covered by spans that have no parent."""
        return _union_ns([(s.start, s.end) for s in self.spans if s.parent is None], start, end)

    def layer_metrics(self) -> dict:
        """Self time per span name and per layer, in seconds, plus the counts."""
        children = defaultdict(list)
        for s in self.spans:
            children[s.parent].append((s.start, s.end))
        self_ns = Counter()
        for s in self.spans:
            self_ns[s.name] += (s.end - s.start) - _union_ns(children[s.id], s.start, s.end)
        metrics = {f"{name}.self_s": ns / 1e9 for name, ns in self_ns.items()}
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = sum(
                ns for name, ns in self_ns.items() if name.startswith(layer + ".")) / 1e9
        metrics.update(self.counts)
        return metrics


def _union_ns(intervals, start: int, end: int) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
