"""In-memory span tracer wrapped around the public entry points of each layer.

The benchmark measures the program from outside: in a traced run it
rebinds each entry point named in :data:`ENTRY_POINTS` (in every loaded
``repro`` module that imported it by name, or on its class) with a thin
wrapper that records a span -- name, parent, op index, start and end --
while an op or the traced set-up is running.  Untraced runs install
nothing, so their timings carry no wrapper cost.

A span's *self time* is its duration minus the durations of its direct
children, so nested layers (an S8 check inside an ILP solve, a
Bellman-Ford pass inside a repair) are charged once, to the innermost
layer.  Each op (and the traced set-up) is a root span; its self time is
the op time no layer span covers (``unaccounted_ms``).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from pathlib import Path

#: (span name, module path, attribute path) for every instrumented entry
#: point.  A dotted attribute names a method on a class.
ENTRY_POINTS = (
    ("core.engine.lookup", "repro.core.engine",
     "SolverEngine.conflict_index"),
    ("core.engine.cold_build", "repro.core.conflict", "conflict_graph"),
    ("core.engine.delta", "repro.core.engine", "updated_conflict_edges"),
    ("core.engine.index", "repro.core.engine", "ConflictIndex.__init__"),
    ("core.ilp.solve", "repro.core.ilp", "solve_schedule_ilp"),
    ("core.ilp.milp", "repro.core.ilp", "milp"),
    ("core.ordering.bf", "repro.core.ordering", "schedule_from_order"),
    ("core.greedy.pack", "repro.core.greedy", "greedy_schedule"),
    ("core.schedule.s8", "repro.core.schedule", "Schedule.violations"),
    ("core.repair.retarget", "repro.core.repair", "RepairEngine.retarget"),
    ("phy.models.sinr_build", "repro.phy.models", "SinrModel.conflict_graph"),
    ("net.routing.route", "repro.net.routing", "route_all"),
    ("net.routing.route", "repro.net.routing", "shortest_path_route"),
    ("faults.apply", "repro.faults.injector", "FaultInjector.apply"),
    ("mobility.stream", "repro.mobility.stream", "TopologyStream.fault_plan"),
    ("sim.run", "repro.sim.engine", "Simulator.run"),
    ("overlay.tdma", "repro.analysis.scenarios", "run_tdma_scenario"),
    ("dot11.dcf", "repro.analysis.scenarios", "run_dcf_scenario"),
)


class Tracer:
    """Spans held in memory; written out by :meth:`dump` when the run ends."""

    def __init__(self) -> None:
        #: [name, op, parent id, start s, end s, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def root(self, op):
        """The root span of one op (an int) or of the traced set-up."""
        self._op = op
        span_id = self._open("op" if isinstance(op, int) else str(op))
        try:
            yield
        finally:
            self._close(span_id)
            self._op = None

    def _open(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self._op, parent, time.perf_counter(),
                           None, None])
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id: int, attrs=None) -> None:
        self.spans[span_id][4] = time.perf_counter()
        self.spans[span_id][5] = attrs
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self
        if name == "sim.run":
            @functools.wraps(fn)
            def wrapper(sim, *args, **kwargs):
                if not tracer._stack:
                    return fn(sim, *args, **kwargs)
                before = sim.events_executed
                span_id = tracer._open(name)
                try:
                    return fn(sim, *args, **kwargs)
                finally:
                    tracer._close(span_id, {
                        "events": sim.events_executed - before})
            return wrapper
        if name == "core.engine.delta":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tracer._stack:
                    return fn(*args, **kwargs)
                span_id = tracer._open(name)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    tracer._close(span_id, {"applied": result is not None})
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            span_id = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span_id)
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Rebind every entry point, wherever ``repro`` imported it."""
        for name, module_path, attr_path in ENTRY_POINTS:
            module = importlib.import_module(module_path)
            if "." in attr_path:
                cls_name, method = attr_path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrap(name, original))
                continue
            original = getattr(module, attr_path)
            wrapper = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time (s) of every span, in recording order."""
        child_total = [0.0] * len(self.spans)
        for name, _op, parent, start, end, _attrs in self.spans:
            if parent is not None:
                child_total[parent] += end - start
        return [end - start - child_total[i]
                for i, (_n, _o, _p, start, end, _a)
                in enumerate(self.spans)]

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self.self_times()
        with path.open("w") as out:
            for i, (name, op, parent, start, end, attrs) in enumerate(
                    self.spans):
                out.write(json.dumps({
                    "id": i, "parent": parent, "op": op, "name": name,
                    "start_s": start, "end_s": end,
                    "self_s": selfs[i], "attrs": attrs}) + "\n")
