"""Timing wrappers installed from outside the program, and the per-layer
metrics computed from the spans they record.

A traced run replaces each public name below with a wrapper, in the
namespace where its caller looks the name up.  Each wrapped call inside a
timed operation records one span ``(id, parent, name, start, end, n, aux)``:
``n`` is the amount of work the call was handed (matrices, POVM rows,
targets, bytes) and ``aux`` a second count (unresolved targets).  Spans stay
in memory until the run ends.  Outside a timed operation the wrappers pass
straight through.  An untraced run installs nothing.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
from time import perf_counter


def _lead(a, core: int) -> int:
    """Number of stacked matrices in an array whose last ``core`` axes form one item."""
    shape = getattr(a, "shape", ())
    return math.prod(shape[:-core]) if len(shape) >= core else 1


def _curve_counts(args, kwargs, result):
    targets = kwargs.get("targets", args[2] if len(args) > 2 else ())
    return len(targets), sum(p is None for p in result)


def _svg_bytes(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    return os.path.getsize(path), 0


#: span name -> (where the name is looked up, work count of one call)
#: Each place is (module, attribute path); a dotted attribute path names a
#: method on a class of that module.
LAYERS = {
    "cli.main": ((("qcrd.cli", "main"),), None),
    "problem.load_problem": ((("qcrd.cli", "load_problem"),), None),
    "problem.build": ((("qcrd.problem", "ProblemSpec.build"),
                       ("qcrd.problem", "ProblemSpec.build_qsi")), None),
    "solver.sample_sweep": ((("qcrd.cli", "sample_sweep"), ("qcrd.solver", "sample_sweep")), None),
    "solver.lower_envelope": ((("qcrd.cli", "lower_envelope"),
                               ("qcrd.solver", "lower_envelope")), None),
    "solver.minimize_rate_curve": ((("qcrd.cli", "minimize_rate_curve"),
                                    ("qcrd.solver", "minimize_rate_curve")), _curve_counts),
    "solver.blahut_arimoto": ((("qcrd.solver", "blahut_arimoto"),), None),
    "svgfig.write_rd_svg": ((("qcrd.svgfig", "write_rd_svg"),), _svg_bytes),
    "states.ginibre": ((("qcrd.solver", "povm_effects_from_ginibre"),
                        ("qcrd.states", "povm_effects_from_ginibre")),
                       lambda a, k, r: (_lead(a[0], 3), 0)),
    "rng": ((("numpy.random", "default_rng"),), None),
    "linalg.eigh": ((("numpy.linalg", "eigh"),), lambda a, k, r: (_lead(a[0], 2), 0)),
    "linalg.eigvalsh": ((("numpy.linalg", "eigvalsh"),), lambda a, k, r: (_lead(a[0], 2), 0)),
}


def _resolve(module: str, attr: str):
    """(owner object, attribute name) for a dotted place, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, name) if callable(getattr(owner, name, None)) else None


class Tracer:
    """Installs the wrappers, records spans while active, and restores the names."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list[tuple] = []
        self.active = False
        self.present: set[str] = set()
        self._stack = [0]
        self._next_id = 1
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, t0, perf_counter(), 0, 0))
                raise
            t1 = perf_counter()
            tracer._stack.pop()
            n, aux = count(args, kwargs, result) if count else (1, 0)
            tracer.spans.append((sid, parent, name, t0, t1, n, aux))
            return result

        return wrapper

    def install(self) -> None:
        for name, (places, count) in self.layers.items():
            for module, attr in places:
                found = _resolve(module, attr)
                if found is None:
                    continue
                owner, key = found
                original = getattr(owner, key)
                self._saved.append((owner, key, original))
                setattr(owner, key, self._wrap(name, original, count))
                self.present.add(name)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def take(self) -> list[tuple]:
        """Spans recorded since the last call."""
        spans, self.spans = self.spans, []
        return spans

    @staticmethod
    def write(path, spans_per_op) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,id,parent,name,start,end,n,aux\n")
            for op, spans in enumerate(spans_per_op):
                fh.writelines(f"{op},{s[0]},{s[1]},{s[2]},{s[3]!r},{s[4]!r},{s[5]},{s[6]}\n"
                              for s in spans)


def layer_metrics(spans: list[tuple], present: set[str]) -> dict[str, float | None]:
    """Per-layer metrics of one traced operation; ``None`` for an absent name."""
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    aux: dict[str, int] = {}
    child_time: dict[int, float] = {}
    parent_of: dict[int, tuple[int, str]] = {}
    for sid, parent, name, t0, t1, n, extra in spans:
        busy[name] = busy.get(name, 0.0) + (t1 - t0)
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + n
        aux[name] = aux.get(name, 0) + extra
        child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        parent_of[sid] = (parent, name)

    def self_time(name):
        return sum((t1 - t0) - child_time.get(sid, 0.0)
                   for sid, _, n, t0, t1, _, _ in spans if n == name)

    def under(sid, ancestor):
        parent = parent_of[sid][0]
        while parent in parent_of:
            parent, name = parent_of[parent]
            if name == ancestor:
                return True
        return False

    targets = work.get("solver.minimize_rate_curve", 0)
    descent_povms = sum(n for sid, _, name, _, _, n, _ in spans
                        if name == "states.ginibre" and under(sid, "solver.minimize_rate_curve"))
    out = {
        "rng.streams": calls.get("rng", 0),
        "rng.busy_s": busy.get("rng", 0.0),
        "states.ginibre.calls": calls.get("states.ginibre", 0),
        "states.ginibre.povms": work.get("states.ginibre", 0),
        "states.ginibre.busy_s": busy.get("states.ginibre", 0.0),
        "linalg.eigh.matrices": work.get("linalg.eigh", 0),
        "linalg.eigh.busy_s": busy.get("linalg.eigh", 0.0),
        "linalg.eigvalsh.matrices": work.get("linalg.eigvalsh", 0),
        "linalg.eigvalsh.busy_s": busy.get("linalg.eigvalsh", 0.0),
        "solver.sample_sweep.busy_s": busy.get("solver.sample_sweep", 0.0),
        "solver.sample_sweep.self_s": self_time("solver.sample_sweep"),
        "solver.lower_envelope.busy_s": busy.get("solver.lower_envelope", 0.0),
        "solver.minimize_rate_curve.calls": calls.get("solver.minimize_rate_curve", 0),
        "solver.minimize_rate_curve.busy_s": busy.get("solver.minimize_rate_curve", 0.0),
        "solver.minimize_rate_curve.self_s": self_time("solver.minimize_rate_curve"),
        "solver.targets": targets,
        "solver.targets_unresolved": aux.get("solver.minimize_rate_curve", 0),
        "solver.povms_per_target": descent_povms / targets if targets else 0.0,
        "solver.blahut_arimoto.calls": calls.get("solver.blahut_arimoto", 0),
        "solver.blahut_arimoto.busy_s": busy.get("solver.blahut_arimoto", 0.0),
        "cli.main.busy_s": busy.get("cli.main", 0.0),
        "cli.main.self_s": self_time("cli.main"),
        "problem.load_problem.busy_s": busy.get("problem.load_problem", 0.0),
        "problem.build.busy_s": busy.get("problem.build", 0.0),
        "svgfig.write_rd_svg.busy_s": busy.get("svgfig.write_rd_svg", 0.0),
        "svgfig.svg_bytes": work.get("svgfig.write_rd_svg", 0),
    }
    for key in out:
        if not all(layer in present for layer in _layers_of(key)):
            out[key] = None
    return out


#: metrics whose span name is not a prefix of the metric name
_SPANS_BEHIND = {
    "solver.targets": ("solver.minimize_rate_curve",),
    "solver.targets_unresolved": ("solver.minimize_rate_curve",),
    "solver.povms_per_target": ("solver.minimize_rate_curve", "states.ginibre"),
    "svgfig.svg_bytes": ("svgfig.write_rd_svg",),
}


def _layers_of(metric: str) -> tuple[str, ...]:
    if metric in _SPANS_BEHIND:
        return _SPANS_BEHIND[metric]
    return tuple(layer for layer in LAYERS if metric.startswith(layer + "."))
