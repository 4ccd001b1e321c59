"""Span tracing of `semiphase` from outside the package.

`Tracer.install` wraps every public function of each layer module and
rebinds every name that refers to it: module attributes anywhere in the
package (``semiphase.experiments.propagate`` is a separate binding from
``semiphase.quantum.propagate``, which ``propagate_ensemble`` calls) and
values of module-level dicts such as the ``EXPERIMENTS`` registry.

Each call records a span (name, start, end, parent) in memory. Work
counts are computed exactly from the call arguments at the boundary.
Private helpers are not wrapped: their time is their caller's self time.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("experiments", "quantum", "metrics", "phasespace", "classical",
          "potentials", "states", "gridio")


def _steps(t_final: float, dt: float) -> int:
    # the step-count rule shared by propagate, transport_particles,
    # integrate_hamiltonian and liouville_semi_lagrangian
    return 0 if t_final == 0 else max(1, round(abs(t_final) / abs(dt)))


def _char_points(obj) -> int:
    from semiphase import (AtomicMeasure, DensityEnsemble, GridDensity,
                           WaveFunction)

    if isinstance(obj, AtomicMeasure):
        return len(obj.atoms)
    if isinstance(obj, GridDensity):
        return obj.values.size
    if isinstance(obj, WaveFunction):
        return obj.grid.n_points
    if isinstance(obj, DensityEnsemble):
        return sum(m.grid.n_points for _, m in obj.members)
    return 0


# work counters per wrapped function, from its bound arguments; a counter
# whose name ends in "_max" keeps the largest value, the others add up
_WORK = {
    "quantum.propagate": lambda a: {
        "quantum.point_steps":
            _steps(a["cfg"].t_final, a["cfg"].dt) * a["state"].grid.n_points,
        "quantum.grid_n_max": a["state"].grid.n_points},
    "metrics.char_function": lambda a: {
        "metrics.char_points": _char_points(a["obj"])},
    "classical.liouville_semi_lagrangian": lambda a: {
        "classical.liouville_cell_steps":
            a["rho0"].values.size * _steps(a["t_final"], a["dt"])},
    "classical.transport_particles": lambda a: {
        "classical.verlet_particle_steps":
            len(a["cloud"]) * _steps(a["t_final"], a["dt"])},
    "classical.integrate_hamiltonian": lambda a: {
        "classical.verlet_particle_steps": _steps(a["t_final"], a["dt"])},
    "phasespace.wigner": lambda a: {
        "phasespace.wigner_cells": 2 * a["state"].grid.n_points ** 2},
}

COUNTERS = ("quantum.point_steps", "quantum.grid_n_max", "metrics.char_points",
            "classical.liouville_cell_steps", "classical.verlet_particle_steps",
            "phasespace.wigner_cells")

# rate -> (function whose inclusive span time is divided, counter)
RATES = {
    "quantum.ns_per_point_step": ("quantum.propagate", "quantum.point_steps"),
    "metrics.ns_per_char_point": ("metrics.char_function", "metrics.char_points"),
    "classical.ns_per_liouville_cell_step": (
        "classical.liouville_semi_lagrangian", "classical.liouville_cell_steps"),
    "phasespace.ns_per_wigner_cell": ("phasespace.wigner",
                                      "phasespace.wigner_cells"),
}

METRIC_UNITS = {
    **{f"{layer}.{m}": u for layer in LAYERS
       for m, u in (("calls", "count"), ("self_s", "s"))},
    **{c: "points" if c == "quantum.grid_n_max" else "count" for c in COUNTERS},
    **dict.fromkeys(RATES, "ns"),
}


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, work dict or None]
        self.spans: list = []
        self._stack: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        work = _WORK.get(name)
        sig = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            if work is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = work(bound.arguments)
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"semiphase.{layer}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[fn] = self._wrap(f"{layer}.{name}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "semiphase" and not modname.startswith("semiphase."):
                continue
            for attr, val in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, attr, wrapped[val])
                elif isinstance(val, dict):
                    for key, item in val.items():
                        if inspect.isfunction(item) and item in wrapped:
                            val[key] = wrapped[item]

    def layer_metrics(self) -> dict:
        """Per-layer calls and self time, work counters and kernel rates."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        inclusive: dict = defaultdict(float)
        counts = dict.fromkeys(COUNTERS, 0)
        for i, (name, start, end, _, work) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            calls[layer] += 1
            self_s[layer] += (end - start) - child_time[i]
            inclusive[name] += end - start
            for key, val in (work or {}).items():
                counts[key] = (max(counts[key], val) if key.endswith("_max")
                               else counts[key] + val)
        out: dict = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        out.update(counts)
        for rate, (fn, counter) in RATES.items():
            out[rate] = (1e9 * inclusive[fn] / counts[counter]
                         if counts[counter] else 0.0)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, work in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "work": work}) + "\n")
