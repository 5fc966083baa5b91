"""In-memory span tracing of the semdde layers, installed from outside.

``Tracer.install`` wraps the public functions of every semdde module
(plus a few methods and the LU routines collocation imports from scipy)
and rebinds each name wherever a semdde module namespace holds it, so
calls between modules go through the wrapper.  Nothing in the package
is edited.  Spans record (name, start, end, parent, op id, ok, note);
a layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

#: the package modules that do work, in dependency order; ``errors``
#: holds only exception types
LAYERS = ("nodes", "piecewise", "problems", "collocation", "oracle",
          "continuation", "analysis", "cli")

#: span names that are not "<module>.<function>"; the value names the
#: object to wrap as (module, owner class or None, attribute)
_EXTRA_TARGETS = {
    "piecewise.eval": [("piecewise", "_PiecewiseBase", "eval"),
                       ("piecewise", "_PiecewiseBase", "eval_deriv")],
    "piecewise.integrate": [("piecewise", "_PiecewiseBase", "integrate")],
    "problems.rhs": [("problems", "RescaledRhs", "__call__")],
    "collocation.lu": [("collocation", None, "lu_factor"),
                       ("collocation", None, "lu_solve")],
}

#: per-span note: the query size of an evaluation, the defect found by
#: the oracle, the points a continuation call produced, the cells a
#: study returned and how many of them failed
_NOTES: Dict[str, Callable] = {
    "piecewise.eval": lambda args, out: int(np.size(args[1])),
    "oracle.phi_m_defect": lambda args, out: out.max_defect,
    "continuation.continue_branch": lambda args, out: len(out),
    "analysis.convergence_study": lambda args, out: (
        len(out.rows), sum(not row.completed for row in out.rows)),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "ok", "note",
                 "child_time")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.ok = True
        self.note = None
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans while an op is open; passes calls through otherwise."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._restore: List[tuple] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(name, perf_counter(), parent, self._op))
        self._stack.append(index)
        return index

    def _close(self, index: int, ok: bool) -> Span:
        span = self.spans[index]
        span.end = perf_counter()
        span.ok = ok
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration
        return span

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        ok = False
        try:
            yield self.spans[index]
            ok = True
        finally:
            self._close(index, ok)

    @contextmanager
    def op(self, name: str, op_id: int):
        """Root span of one benchmark op; spans inside carry its id."""
        self._op = op_id
        try:
            with self.span("bench." + name) as root:
                yield root
        finally:
            self._op = None

    def _wrap(self, name: str, fn: Callable) -> Callable:
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = self._open(name)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                span = self._close(index, ok)
            if note is not None:
                span.note = note(args, out)
            return out

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced callable and rebind it in all namespaces."""
        modules = {name: importlib.import_module("semdde." + name)
                   for name in LAYERS}
        namespaces = [vars(importlib.import_module("semdde"))]
        namespaces += [vars(mod) for mod in modules.values()]
        targets = {}  # id(original) -> (span name, original)
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                targets[id(obj)] = (f"{layer}.{attr}", obj)
        for span_name, places in _EXTRA_TARGETS.items():
            for layer, owner, attr in places:
                if owner is None:
                    obj = getattr(modules[layer], attr)
                    targets[id(obj)] = (span_name, obj)
                else:
                    cls = getattr(modules[layer], owner)
                    original = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(span_name, original))
                    self._restore.append((cls, attr, original))
        wrapped = {key: self._wrap(name, obj)
                   for key, (name, obj) in targets.items()}
        for ns in namespaces:
            for attr, obj in list(ns.items()):
                if id(obj) in wrapped:
                    self._restore.append((ns, attr, obj))
                    ns[attr] = wrapped[id(obj)]

    def uninstall(self) -> None:
        for place, attr, original in reversed(self._restore):
            if isinstance(place, dict):
                place[attr] = original
            else:
                setattr(place, attr, original)
        self._restore.clear()


def _self_time(spans, name) -> float:
    return sum(s.self_time for s in spans if s.name == name)


def _count(spans, name) -> int:
    return sum(1 for s in spans if s.name == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: metrics that are ratios or extremes; all others are totals and are
#: reported per traced pass
_PER_SPAN = {"collocation.jacobian.residuals_per_build",
             "collocation.newton.s_per_iter", "oracle.phi_defect.max",
             "continuation.solves_per_point", "trace.coverage_min"}


def layer_metrics(spans: List[Span], passes: int) -> Dict[str, float]:
    """Per-layer counts, self times and ratios from the recorded spans of
    ``passes`` traced passes."""
    roots = [s for s in spans if s.parent < 0]
    wall = sum(r.duration for r in roots)

    def children(parent_name, child_name):
        return [s for s in spans if s.name == child_name and s.parent >= 0
                and spans[s.parent].name == parent_name]

    builds = _count(spans, "collocation.assemble_jacobian")
    newton = [s for s in spans if s.name == "collocation.newton_solve"]
    newton_residuals = len(children("collocation.newton_solve",
                                    "collocation.assemble_residual"))
    newton_builds = len(children("collocation.newton_solve",
                                 "collocation.assemble_jacobian"))
    # each Newton iteration builds one Jacobian and tries one residual per
    # damping level; the first residual of a solve is the initial one
    halvings = newton_residuals - len(newton) - newton_builds
    branch = [s for s in spans if s.name == "continuation.continue_branch"]
    branch_points = sum(s.note or 0 for s in branch if s.ok)
    branch_solves = len(children("continuation.continue_branch",
                                 "collocation.newton_solve"))
    studies = [s.note for s in spans
               if s.name == "analysis.convergence_study" and s.ok]
    defects = [s.note for s in spans if s.name == "oracle.phi_m_defect"
               and s.ok and s.note is not None]
    evals = [s for s in spans if s.name == "piecewise.eval"]

    metrics = {
        "collocation.jacobian.self_s": _self_time(
            spans, "collocation.assemble_jacobian"),
        "collocation.jacobian.total_s": sum(
            s.duration for s in spans
            if s.name == "collocation.assemble_jacobian"),
        "collocation.jacobian.builds": builds,
        "collocation.jacobian.residuals_per_build": _ratio(
            len(children("collocation.assemble_jacobian",
                         "collocation.assemble_residual")), builds),
        "collocation.residual.calls": _count(
            spans, "collocation.assemble_residual"),
        "collocation.residual.self_s": _self_time(
            spans, "collocation.assemble_residual"),
        "collocation.lu.self_s": _self_time(spans, "collocation.lu"),
        "collocation.newton.solves": len(newton),
        "collocation.newton.iters": newton_builds,
        "collocation.newton.failed": sum(1 for s in newton if not s.ok),
        "collocation.newton.halvings": max(halvings, 0),
        "collocation.newton.s_per_iter": _ratio(
            sum(s.duration for s in newton), newton_builds),
        "collocation.resample.self_s": _self_time(
            spans, "collocation.resample_state"),
        "piecewise.eval.calls": len(evals),
        "piecewise.eval.points": sum(s.note or 0 for s in evals),
        "piecewise.eval.self_s": _self_time(spans, "piecewise.eval"),
        "piecewise.sample.self_s": _self_time(
            spans, "piecewise.sample_periodic"),
        "piecewise.project.self_s": _self_time(spans, "piecewise.project"),
        "problems.rhs.calls": _count(spans, "problems.rhs"),
        "problems.rhs.self_s": _self_time(spans, "problems.rhs"),
        "nodes.make_nodes.calls": _count(spans, "nodes.make_nodes"),
        "nodes.make_nodes.self_s": _self_time(spans, "nodes.make_nodes"),
        "analysis.residual_err.self_s": _self_time(
            spans, "analysis.residual_err"),
        "analysis.amplitude.self_s": _self_time(
            spans, "analysis.orbit_amplitude"),
        "oracle.phi_defect.self_s": _self_time(
            spans, "oracle.phi_m_defect"),
        "oracle.phi_defect.max": max(defects, default=0.0),
        "continuation.solves_per_point": _ratio(branch_solves,
                                                branch_points),
        "continuation.bisections": max(branch_solves - branch_points, 0) / 2,
        "continuation.self_s": sum(s.self_time for s in spans
                                   if s.layer == "continuation"),
        "analysis.cells": sum(cells for cells, _ in studies),
        "analysis.cells_failed": sum(failed for _, failed in studies),
        "analysis.circle_map.self_s": _self_time(
            spans, "analysis.circle_map_analysis"),
    }
    # share of each op's wall time that the traced layers account for
    coverage = [_ratio(r.child_time, r.duration) for r in roots]
    metrics["trace.coverage_min"] = min(coverage, default=0.0)
    shares = {}
    for layer in LAYERS:
        self_s = sum(s.self_time for s in spans if s.layer == layer)
        metrics[f"layer.{layer}.self_s"] = self_s
        shares[f"layer.{layer}.share"] = _ratio(self_s, wall)
    metrics = {key: value if key in _PER_SPAN else value / passes
               for key, value in metrics.items()}
    metrics.update(shares)
    return metrics

