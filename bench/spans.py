"""Per-layer spans for the traced benchmark run, recorded from outside.

`Tracer.install` rebinds each traced function in every `accwave` module
namespace that holds it (`from .x import f` copies the binding, so
patching the defining module alone would miss callers).  Spans are kept
in memory as (name, start, end, parent, pass id, counts); a span's self
time is its duration minus the durations of its direct children.
Counts come from the traced functions' arguments and return values.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional


def _paths(paths) -> Dict[str, int]:
    return {
        "paths": len(paths),
        "paths_truncated": sum(p.truncated for p in paths),
        "crossings": sum(len(p.crossings) for p in paths),
    }


def _file_bytes(args, result) -> Dict[str, int]:
    return {"bytes": os.path.getsize(args[0])}


# module -> function -> counts taken from (args, result)
TRACED: Dict[str, Dict[str, Optional[Callable]]] = {
    "microsim": {
        "simulate_platoon": lambda a, r: {
            "vehicle_steps": sum(len(tr.t) - 1 for tr in r.trajectories)},
    },
    "tracker": {
        "trace_characteristic_path": lambda a, r: _paths([r]),
        "constant_speed_path": lambda a, r: _paths([r]),
        "trace_phase_transition": lambda a, r: _paths(r.paths()),
    },
    "pde": {
        "solve": None,
        "step": lambda a, r: {"cell_steps": len(a[0])},
        "micro_to_eulerian": None,
    },
    "dataio": {
        "write_trajectories": _file_bytes,
        "write_field": _file_bytes,
        "write_wave_paths": _file_bytes,
        "ingest_trajectories": lambda a, r: {
            "rows": sum(len(tr.t) for tr in r), "bytes": os.path.getsize(a[0])},
    },
    "fourier": {"fourier_decompose": None, "periodic_reconstruct": None},
    "metrics": {
        "deviation_set": lambda a, r: {"deviations": len(r)},
        "summary_stats": None,
        "field_rmse": None,
    },
    "scenarios": {"run_case": None, "run_ring_validation": None, "run_empirical": None},
    "cli": {"main": None},
}

# Self time of these modules is reported together as the glue layer.
GLUE = ("scenarios", "cli")
LAYERS = ("microsim", "tracker", "pde", "dataio", "fourier", "metrics", "glue")

# Counts must repeat exactly from pass to pass.
COUNTS = {
    "microsim.vehicle_steps", "tracker.paths", "tracker.paths_truncated", "tracker.crossings",
    "pde.cell_steps", "dataio.write_trajectories.bytes", "dataio.write_field.bytes",
    "dataio.write_wave_paths.bytes", "dataio.ingest_trajectories.rows",
    "dataio.ingest_trajectories.bytes", "metrics.deviations",
} | {f"{m}.{f}.calls" for m, fns in TRACED.items() for f in fns}


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id", "counts", "child_s")

    def __init__(self, name: str, parent: Optional["Span"], pass_id: int):
        self.name, self.parent, self.pass_id = name, parent, pass_id
        self.start = self.end = time.perf_counter()
        self.counts: Dict[str, int] = {}
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.pass_id = 0
        self._open: Optional[Span] = None
        self._patched: List[tuple] = []

    def install(self) -> None:
        """Wrap every traced function; a missing name raises."""
        modules = [m for n, m in sys.modules.items() if n == "accwave" or n.startswith("accwave.")]
        for mod_name, fns in TRACED.items():
            home = importlib.import_module(f"accwave.{mod_name}")
            for fn_name, counter in fns.items():
                orig = getattr(home, fn_name, None)
                if not callable(orig):
                    raise RuntimeError(f"traced function accwave.{mod_name}.{fn_name} is missing")
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig, counter)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, orig))

    def remove(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open = Span(name, self._open, self.pass_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open = span.parent
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
                self.spans.append(span)
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced

    def pass_metrics(self, pass_id: int, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of one traced pass that took `wall_s` seconds."""
        m: Dict[str, float] = {}
        for mod_name, fns in TRACED.items():
            for fn_name in fns:
                m[f"{mod_name}.{fn_name}.calls"] = 0
                m[f"{mod_name}.{fn_name}.self_s"] = 0.0
        for key in COUNTS - set(m):
            m[key] = 0
        for s in self.spans:
            if s.pass_id != pass_id:
                continue
            m[f"{s.name}.calls"] += 1
            m[f"{s.name}.self_s"] += s.self_s
            mod_name = s.name.split(".")[0]
            for key, n in s.counts.items():
                scoped = f"{s.name}.{key}" if mod_name == "dataio" else f"{mod_name}.{key}"
                m[scoped] += n
        layer_s = {layer: 0.0 for layer in LAYERS}
        for mod_name, fns in TRACED.items():
            layer = "glue" if mod_name in GLUE else mod_name
            layer_s[layer] += sum(m[f"{mod_name}.{f}.self_s"] for f in fns)
        for layer, s in layer_s.items():
            m[f"{layer}.share"] = s / wall_s
        m["untraced.share"] = 1.0 - sum(layer_s.values()) / wall_s

        def rate(n: float, s: float) -> float:
            return n / s if s > 0 else 0.0

        m["microsim.vehicle_steps_per_s"] = rate(
            m["microsim.vehicle_steps"], m["microsim.simulate_platoon.self_s"])
        tracker_s = sum(m[f"tracker.{f}.self_s"] for f in TRACED["tracker"])
        m["tracker.crossings_per_s"] = rate(m["tracker.crossings"], tracker_s)
        m["tracker.complete_ratio"] = rate(
            m["tracker.paths"] - m["tracker.paths_truncated"], m["tracker.paths"])
        m["pde.cell_steps_per_s"] = rate(m["pde.cell_steps"], m["pde.step.self_s"])
        writes = ("write_trajectories", "write_field", "write_wave_paths")
        m["dataio.write_mb_per_s"] = rate(
            sum(m[f"dataio.{w}.bytes"] for w in writes) / 1e6,
            sum(m[f"dataio.{w}.self_s"] for w in writes))
        m["dataio.ingest_mb_per_s"] = rate(
            m["dataio.ingest_trajectories.bytes"] / 1e6, m["dataio.ingest_trajectories.self_s"])
        return m


def combine(passes: List[Dict[str, float]]) -> Dict[str, float]:
    """Counts must agree across passes; everything else is the median."""
    out: Dict[str, float] = {}
    for key in passes[0]:
        values = [p[key] for p in passes]
        if key in COUNTS:
            if len(set(values)) != 1:
                raise RuntimeError(f"count {key} differs between passes: {values}")
            out[key] = values[0]
        else:
            out[key] = statistics.median(values)
    return out


def check_exercised(metrics: Dict[str, float], exercises) -> None:
    """Raise unless exactly the functions in `exercises` recorded calls."""
    problems = []
    for mod_name, fns in TRACED.items():
        for fn_name in fns:
            name = f"{mod_name}.{fn_name}"
            calls = metrics[f"{name}.calls"]
            if name in exercises and calls == 0:
                problems.append(f"{name} recorded no calls on a workload that exercises it")
            elif name not in exercises and calls != 0:
                problems.append(f"{name} recorded {calls} calls where zero are predicted")
    unknown = set(exercises) - {f"{m}.{f}" for m, fns in TRACED.items() for f in fns}
    problems += [f"{name} is in the workload table but not traced" for name in sorted(unknown)]
    if problems:
        raise RuntimeError("traced run broke the workload table:\n  " + "\n  ".join(problems))
