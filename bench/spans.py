"""Span recording around the program's layer boundaries, from outside it.

`Recorder.install()` replaces every public function of the pearceylab layer
modules, wherever a module holds it under that name (including names one
module imports from another, such as `kernels.solve_stieltjes`), plus
`numpy.linalg.{eigvalsh, slogdet, eigvals}`, with a wrapper that records a
span: name, start, end and parent.  Spans are kept in memory while the
recorder is active; `per_layer()` turns them into self times and counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# program modules, by layer name; the layer "quad" is the module _quad
LAYERS = {"spectral_curve": "pearceylab.spectral_curve",
          "kernels": "pearceylab.kernels",
          "quad": "pearceylab._quad",
          "fredholm": "pearceylab.fredholm",
          "scaling": "pearceylab.scaling",
          "pde_lab": "pearceylab.pde_lab",
          "ensemble_mc": "pearceylab.ensemble_mc",
          "cli": "pearceylab.cli"}
LINALG = ("eigvalsh", "slogdet", "eigvals")
AIRY = ("airy_ai", "airy_ai_prime", "airy_kernel", "airy_kernel_matrix")
GAP_RESULTS = ("gap_probability", "multitime_gap", "airy_gap_on_ray")


# work counted at the boundary: span name -> (metric, fn(result))
COUNTERS = {
    "spectral_curve.sweep_density": ("spectral_curve.sweep_density.points", len),
    "kernels.pq_tables": ("kernels.pq_tables.nodes", lambda r: np.size(r[0][0])),
    "kernels.pearcey_kernel_matrix": ("kernels.pearcey_kernel_matrix.entries", np.size),
    "kernels.pearcey_kernel_grid": ("kernels.pearcey_kernel_grid.entries", np.size),
    "kernels.finite_n_kernel_grid": ("kernels.finite_n_kernel_grid.entries",
                                     lambda r: np.size(r[0])),
    "quad.panel_rule": ("quad.nodes", lambda r: np.size(r[0])),
    "pde_lab.q_surface": ("pde_lab.q_surface.log_gaps", lambda r: r.Q.size),
}
COUNTED = {metric for metric, _ in COUNTERS.values()} | {"fredholm.det_rows"}


def point_to(original, replacement):
    """Make every pearceylab module that holds `original` hold `replacement`."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "pearceylab" or name.startswith("pearceylab.")):
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    setattr(mod, attr, replacement)


class Recorder:
    """In-memory span store; one per traced run."""

    def __init__(self):
        self.active = False
        self._stack = []
        self.wrapped = set()
        self.reset()

    def reset(self):
        self.names = []      # span index -> name
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = defaultdict(float)
        self.max_error = 0.0

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        rec = self
        self.wrapped.add(name)
        counter = COUNTERS.get(name)
        is_gap = name.split(".")[-1] in GAP_RESULTS
        is_det = name == "linalg.slogdet"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = len(rec.names)
            parent = rec._stack[-1] if rec._stack else -1
            rec.names.append(name)
            rec.parents.append(parent)
            rec.starts.append(0.0)
            rec.ends.append(0.0)
            rec._stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                rec._stack.pop()
                rec.starts[idx] = start
                rec.ends[idx] = end
            if counter is not None:
                rec.counts[counter[0]] += counter[1](out)
            if is_gap:
                rec.max_error = max(rec.max_error, float(out.error_estimate))
            if is_det and rec._caller_layer(parent) == "fredholm":
                rec.counts["fredholm.det_rows"] += int(np.shape(args[0])[-1])
            return out

        return wrapper

    def _caller_layer(self, idx):
        while idx >= 0 and self.names[idx].startswith("linalg."):
            idx = self.parents[idx]
        return self.names[idx].split(".")[0] if idx >= 0 else None

    def install(self):
        """Wrap every public function of every layer module, in every module
        of the package that holds it, and the three numpy.linalg calls."""
        import pearceylab  # noqa: F401  (loads every layer module)
        for layer, modname in LAYERS.items():
            mod = importlib.import_module(modname)
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == modname):
                    point_to(obj, self._wrap(f"{layer}.{attr}", obj))
        for attr in LINALG:
            setattr(np.linalg, attr, self._wrap(f"linalg.{attr}", getattr(np.linalg, attr)))
        # a per-layer metric that names no wrapped function would read 0
        unknown = [name for name in PER_LAYER if not self._measures(name)]
        if unknown:
            raise ValueError(f"per-layer metrics with no span or counter: {unknown}")

    def _measures(self, name):
        base, _, kind = name.rpartition(".")
        if name in COUNTED or name in ("fredholm.max_error_estimate", "kernels.airy.self_s"):
            return True
        if kind == "self_s" and base in (*LAYERS, "linalg"):
            return True
        return kind in ("calls", "self_s") and base in self.wrapped

    # -- aggregation -------------------------------------------------------

    def self_times(self):
        """Span duration minus the time its direct children cover (calls are
        sequential: the program runs with one thread)."""
        dur = np.array(self.ends) - np.array(self.starts)
        child = np.zeros(len(dur))
        parents = np.array(self.parents, dtype=int)
        has = parents >= 0
        np.add.at(child, parents[has], dur[has])
        return dur - child

    def per_layer(self):
        """Per-layer metric values (without units) for the recorded spans."""
        selfs = self.self_times()
        by_name = defaultdict(float)
        calls = defaultdict(int)
        by_layer = defaultdict(float)
        for name, st in zip(self.names, selfs):
            by_name[name] += st
            calls[name] += 1
            by_layer[name.split(".")[0]] += st
        out = {}
        for name in PER_LAYER:
            base, _, kind = name.rpartition(".")
            if name in COUNTED:
                out[name] = float(self.counts.get(name, 0.0))
            elif name == "fredholm.max_error_estimate":
                out[name] = self.max_error
            elif name == "kernels.airy.self_s":
                out[name] = sum(by_name[f"kernels.{f}"] for f in AIRY)
            elif kind == "calls":
                out[name] = float(calls[base])
            elif "." not in base:
                out[name] = by_layer[base]
            else:
                out[name] = by_name[base]
        return out


# the per-layer metrics and their units, as BENCHMARK.json lists them
with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "BENCHMARK.json")) as _f:
    PER_LAYER = {m["name"]: m["unit"] for m in json.load(_f)["per_layer"]}
