"""Span tracing of gcfactor from the outside.

Every public function of each layer module is wrapped, and the wrapper is
bound at every place the original is bound: the defining module, every
other gcfactor module that imported it by name (fit.py, cli.py, impute.py
and gaussian.py all do), and the package namespace. Patching only
gcfactor.objective.compute_workspace would miss every call made from fit.

Spans (name, parent, start, end, counters) are kept in memory and written
out when the run ends. A span's self time is its duration minus the time its
direct children cover. run.py reports the subset of layer_metrics() that
BENCHMARK.json lists.
"""

import functools
import inspect
import json
import math
import os
import sys
import time

LAYERS = ("objective", "fit", "gaussian", "marginals", "normals", "impute",
          "model_io", "data", "cli")


def _path_bytes(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


def _workspace_counts(args, result):
    theta, bounds = args["theta"], args["bounds"]
    return {"cells": int(theta.size),
            "observed": int(bounds.mask.sum()),
            "value_only_calls": int(not args["derivs"]),
            "rejected": int(not math.isfinite(result.nll()))}


# per-call counters from the bound arguments and the return value, with the
# keys each one reports
COUNTERS = {
    "objective.compute_workspace": (
        ("cells", "observed", "value_only_calls", "rejected"),
        _workspace_counts),
    "gaussian.fit_gaussian": (
        ("sweeps",), lambda a, r: {"sweeps": int(r[3]["sweeps"])}),
    "impute.build_mean_curve": (
        ("nodes",), lambda a, r: {"nodes": int(r.grid.size)}),
    "model_io.save_model": (
        ("bytes",), lambda a, r: {"bytes": _path_bytes(a["path"])}),
    "model_io.load_model": (
        ("bytes",), lambda a, r: {"bytes": _path_bytes(a["path"])}),
    "data.load_csv": (
        ("bytes",), lambda a, r: {"bytes": _path_bytes(a["path"])}),
}


class Tracer:
    """Wraps the layer functions while installed and records their spans."""

    def __init__(self):
        self.spans = []   # [name, parent index, start, end, counters]
        self.wrapped = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name, (None, None))[1]
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append([name, stack[-1] if stack else -1,
                          time.perf_counter(), None, None])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][3] = time.perf_counter()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                spans[sid][4] = counter(bound.arguments, result)
            return result

        return wrapper

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "gcfactor" or key.startswith("gcfactor.")]
        for layer in LAYERS:
            module = sys.modules["gcfactor." + layer]
            for attr, fn in vars(module).copy().items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = "%s.%s" % (layer, attr)
                self.wrapped.append(name)
                wrapper = self._wrap(name, fn)
                for holder in modules:
                    for key, value in vars(holder).copy().items():
                        if value is fn:
                            self._patches.append((holder, key, fn))
                            setattr(holder, key, wrapper)
        if not self._patches:
            raise RuntimeError("no gcfactor functions were wrapped")

    def uninstall(self):
        for holder, key, fn in reversed(self._patches):
            setattr(holder, key, fn)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "counters"],
                       "spans": self.spans}, fh)

    def layer_metrics(self):
        """calls, s (inclusive), self_s and counters of every wrapped
        function, zero when it was not called, plus the derived ratios."""
        spans = self.spans
        names = [sp[0] for sp in spans]
        dur = [sp[3] - sp[2] for sp in spans]
        child = [0.0] * len(spans)
        for sp, d in zip(spans, dur):
            if sp[1] >= 0:
                child[sp[1]] += d
        out = {}
        for name in self.wrapped:
            out[name + ".calls"] = 0
            out[name + ".s"] = out[name + ".self_s"] = 0.0
            for key in COUNTERS.get(name, ((),))[0]:
                out["%s.%s" % (name, key)] = 0
        for i, name in enumerate(names):
            out[name + ".calls"] += 1
            out[name + ".s"] += dur[i]
            out[name + ".self_s"] += dur[i] - child[i]
            for key, value in (spans[i][4] or {}).items():
                out["%s.%s" % (name, key)] += value

        def under(i, target):
            p = spans[i][1]
            while p >= 0 and names[p] != target:
                p = spans[p][1]
            return p >= 0

        ws = "objective.compute_workspace"
        ws_idx = [i for i, n in enumerate(names) if n == ws]
        calls, cells = out[ws + ".calls"], out[ws + ".cells"]
        sweeps = out["fit.bcd_sweep.calls"]
        out[ws + ".observed_frac"] = (out[ws + ".observed"] / cells
                                      if cells else 0.0)
        out[ws + ".rejected_frac"] = (out[ws + ".rejected"] / calls
                                      if calls else 0.0)
        # value-only calls made straight from lbfgs_fit come from its
        # iteration callback; its objective always asks for derivatives
        out["fit.lbfgs_fit.record_nll_calls"] = sum(
            1 for i in ws_idx if spans[i][4]["value_only_calls"]
            and spans[i][1] >= 0 and names[spans[i][1]] == "fit.lbfgs_fit")
        out["fit.bcd_sweep.workspace_calls_per_sweep"] = (
            sum(1 for i in ws_idx if under(i, "fit.bcd_sweep")) / sweeps
            if sweeps else 0.0)
        out["trace.spans"] = len(spans)
        return out
