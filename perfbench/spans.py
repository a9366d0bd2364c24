"""Span tracing of the program's layers from outside the program.

:class:`Tracer` wraps the public functions of each layer (listed in
:data:`LAYER_TARGETS`) for the duration of a traced run and restores them
afterwards; nothing under ``src/`` changes. Each call records one span
(name, start, end, parent, run id) into in-memory arrays, and
:func:`layer_split` derives per-layer self time and call counts from them.
A span's self time is its duration minus its children's durations. Traced
runs are single-threaded, so children never overlap and the self times of
one run add up exactly to its root span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from array import array

import numpy as np

#: Root span of one workload run; its self time is the unattributed rest.
ROOT = "bench.run"
#: The benchmark writing its own outputs (results, flight, report).
OUTPUTS = "bench.outputs"
OBS_EXPORT = "obs.export"

#: span name -> (self-time metric, call-count metric or None). Every span
#: name the tracer can record appears here, so every self second lands in
#: exactly one time metric.
SPAN_METRICS: dict[str, tuple[str, str | None]] = {
    ROOT: ("unattributed.self_s", None),
    OUTPUTS: ("outputs.write_s", None),
    OBS_EXPORT: ("obs.export_s", None),
    "scenario.build_runtime": ("scenario.build_s", None),
    "workloads.generate": ("workloads.generate_s", None),
    "systems.build_system": ("systems.self_s", None),
    "systems.simulate_trace": ("systems.self_s", None),
    "planner.plan": ("planner.plan_s", None),
    "grouping.perturb": ("grouping.perturb_s", "grouping.perturb_calls"),
    "routing.build_table": ("routing.build_table_s", None),
    "routing.link_path": ("routing.link_path_s", "routing.link_path_calls"),
    "engine.run": ("engine.self_s", None),
    "engine.handler": ("engine.self_s", None),
    "eventqueue.step": ("eventqueue.self_s", None),
    "eventqueue.schedule": ("eventqueue.self_s", None),
    "controller.tick": ("controller.tick_s", "controller.ticks"),
    "scheduler.decide": ("scheduler.decide_s", "scheduler.decide_calls"),
    "policy.refresh_penalties": ("policy.refresh_penalties_s", None),
    "policy.refresh_utilization": ("policy.refresh_utilization_s", None),
    "policy.select": ("policy.select_s", "policy.select_calls"),
    "comm.path_links": ("comm.path_links_s", "comm.path_links_calls"),
    "comm.path_time": ("comm.path_time_s", "comm.path_time_calls"),
    "comm.stage_boundary": (
        "comm.stage_boundary_s",
        "comm.stage_boundary_calls",
    ),
    "comm.policy_time": ("comm.policy_time_s", "comm.policy_time_calls"),
    "linkstate.write": ("linkstate.self_s", "linkstate.writes"),
    "linkstate.read": ("linkstate.self_s", "linkstate.reads"),
    "kvtransfer": ("kvtransfer.s", "kvtransfer.calls"),
    "costmodel": ("costmodel.s", "costmodel.calls"),
    "background.handler": ("background.self_s", None),
    "faults.handler": ("faults.self_s", None),
    "health.poll": ("health.poll_s", None),
    "obs.hook": ("obs.hook_s", "obs.hook_calls"),
}

#: (module, attribute path, span name). A dotted path is a method.
LAYER_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.scenario.runner", "build_runtime", "scenario.build_runtime"),
    (
        "repro.workloads.sharegpt",
        "generate_sharegpt_trace",
        "workloads.generate",
    ),
    ("repro.baselines.systems", "build_system", "systems.build_system"),
    ("repro.baselines.systems", "simulate_trace", "systems.simulate_trace"),
    ("repro.core.planner", "OfflinePlanner.plan", "planner.plan"),
    ("repro.core.grouping", "swap_perturbation", "grouping.perturb"),
    ("repro.network.routing", "build_route_table", "routing.build_table"),
    ("repro.network.routing", "RouteTable.link_path", "routing.link_path"),
    ("repro.serving.engine", "ServingSimulator.run", "engine.run"),
    ("repro.sim.eventqueue", "EventQueue.step", "eventqueue.step"),
    ("repro.core.controller", "CentralController.tick", "controller.tick"),
    (
        "repro.core.scheduler",
        "LoadAwareScheduler.decide",
        "scheduler.decide",
    ),
    (
        "repro.core.policy",
        "PolicyCostTable.refresh_penalties",
        "policy.refresh_penalties",
    ),
    (
        "repro.core.policy",
        "PolicyCostTable.refresh_utilization",
        "policy.refresh_utilization",
    ),
    ("repro.core.policy", "PolicyCostTable.select", "policy.select"),
    ("repro.comm.context", "CommContext.path_links", "comm.path_links"),
    ("repro.comm.context", "CommContext.path_time", "comm.path_time"),
    ("repro.comm.pipeline", "stage_boundary_time", "comm.stage_boundary"),
    ("repro.comm.scheme", "SchemeBinding.policy_time", "comm.policy_time"),
    *(
        ("repro.network.linkstate", f"LinkLoadTracker.{m}", "linkstate.write")
        for m in ("register", "release", "poll", "set_link_factor")
    ),
    *(
        ("repro.network.linkstate", f"LinkLoadTracker.{m}", "linkstate.read")
        for m in (
            "available",
            "available_on",
            "utilization",
            "ewma_utilization",
            "path_bottleneck",
            "path_max_utilization",
        )
    ),
    ("repro.core.kvtransfer", "estimate_kv_transfer_time", "kvtransfer"),
    ("repro.core.kvtransfer", "kv_transfer_flows", "kvtransfer"),
    ("repro.llm.costmodel", "CostModelBank.group_prefill_time", "costmodel"),
    ("repro.llm.costmodel", "CostModelBank.group_decode_time", "costmodel"),
    ("repro.faults.health", "HealthRegistry.poll", "health.poll"),
)

#: Event handlers are traced by the module of the object that owns them.
_HANDLER_SPANS = {
    "repro.serving.engine": "engine.handler",
    "repro.serving.background": "background.handler",
    "repro.faults.injector": "faults.handler",
}


def _observer_hooks() -> list[str]:
    """The observer hook names: every public method the no-op observer
    declares, minus the two that are not per-event hooks."""
    from repro.obs.observer import NullObserver

    return [
        name
        for name, val in vars(NullObserver).items()
        if callable(val)
        and not name.startswith("_")
        and name not in ("phase", "export")
    ]


class SpanStore:
    """Spans of one or more runs, kept in flat in-memory arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run_id = array("i")
        self.stack: list[int] = []
        self.current_run = 0
        for name in SPAN_METRICS:
            self.name_index(name)

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        idx = _open(self, self.name_index(name))
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        """Views of the recorded spans, without copying. Take them once
        recording has ended: the arrays cannot grow while a view lives."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "run_id": np.frombuffer(self.run_id, dtype=np.int32),
        }

    def write(self, path: str) -> None:
        """Write every span (and the name table) as one ``.npz`` file."""
        np.savez_compressed(
            path, names=np.array(self.names, dtype=str), **self.arrays()
        )


def _open(s: SpanStore, nid: int) -> int:
    idx = len(s.start)
    s.name_id.append(nid)
    s.parent.append(s.stack[-1] if s.stack else -1)
    s.run_id.append(s.current_run)
    s.end.append(0.0)
    s.start.append(time.perf_counter())
    s.stack.append(idx)
    return idx


def _traced(store: SpanStore, name: str, fn):
    """``fn`` wrapped so that every call records a span ``name``."""
    nid = store.name_index(name)
    stack = store.stack
    end = store.end
    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = _open(store, nid)
        try:
            return fn(*args, **kwargs)
        finally:
            end[idx] = perf()
            stack.pop()

    return wrapper


class Tracer:
    """Installs span wrappers on the layers; a context manager.

    Module-level functions are also rebound in every ``repro`` module that
    imported them by name, so call sites that hold their own reference are
    traced too.
    """

    def __init__(self, store: SpanStore) -> None:
        self.store = store
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module, path, name in LAYER_TARGETS:
            self._wrap(module, path, name)
        from repro.obs.observer import Observer

        for hook in _observer_hooks():
            if hook in vars(Observer):
                self._patch(
                    Observer,
                    hook,
                    _traced(self.store, "obs.hook", vars(Observer)[hook]),
                )
        self._wrap_scheduling()
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, module: str, path: str, name: str) -> None:
        mod = importlib.import_module(module)
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            self._patch(
                cls, meth, _traced(self.store, name, vars(cls)[meth])
            )
            return
        original = getattr(mod, path)
        wrapped = _traced(self.store, name, original)
        for other in list(sys.modules.values()):
            if (
                getattr(other, "__name__", "").startswith("repro")
                and getattr(other, path, None) is original
            ):
                self._patch(other, path, wrapped)

    def _wrap_scheduling(self) -> None:
        """Trace ``schedule``/``schedule_at`` and the handlers they queue."""
        from repro.sim.eventqueue import EventQueue

        store = self.store

        def handler(fn):
            owner = type(getattr(fn, "__self__", None)).__module__
            name = _HANDLER_SPANS.get(owner, "engine.handler")
            return _traced(store, name, fn)

        for meth in ("schedule", "schedule_at"):
            original = vars(EventQueue)[meth]

            def scheduling(self, when, fn, *args, _orig=original, **kw):
                return _orig(self, when, handler(fn), *args, **kw)

            self._patch(
                EventQueue,
                meth,
                _traced(store, "eventqueue.schedule", scheduling),
            )


def _self_times(a: dict[str, np.ndarray]) -> np.ndarray:
    dur = a["end"] - a["start"]
    child = np.zeros_like(dur)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    return dur - child


def _by_metric(store: SpanStore, names, self_t) -> dict[str, float]:
    n_names = len(store.names)
    self_by = np.bincount(names, weights=self_t, minlength=n_names)
    calls_by = np.bincount(names, minlength=n_names)
    row: dict[str, float] = {}
    for name, (t_metric, c_metric) in SPAN_METRICS.items():
        i = store.name_index(name)
        row[t_metric] = row.get(t_metric, 0.0) + float(self_by[i])
        if c_metric is not None:
            row[c_metric] = row.get(c_metric, 0) + int(calls_by[i])
    return row


def layer_split(store: SpanStore) -> dict[int, dict[str, float]]:
    """Per-run self time and call count of every metric in SPAN_METRICS.

    Returns one dict per run id with every metric, plus ``traced.wall_s``
    (root span duration), ``spans`` and ``split_error_s``: the sum of all
    self times minus the root duration, zero up to rounding when spans
    nest.
    """
    a = store.arrays()
    if len(a["start"]) and (a["end"] <= 0).any():
        raise RuntimeError("span left open at the end of a traced run")
    self_t = _self_times(a)
    root_id = store.name_index(ROOT)
    out = {}
    for run in np.unique(a["run_id"]):
        sel = a["run_id"] == run
        names = a["name_id"][sel]
        row = _by_metric(store, names, self_t[sel])
        roots = np.flatnonzero(names == root_id)
        if len(roots) != 1:
            raise RuntimeError(f"run {run}: expected one root span")
        wall = float((a["end"] - a["start"])[sel][roots[0]])
        row["traced.wall_s"] = wall
        row["spans"] = int(sel.sum())
        row["split_error_s"] = float(self_t[sel].sum()) - wall
        out[int(run)] = row
    return out


def subtree_split(store: SpanStore, name: str) -> dict[str, float]:
    """Self time per time metric of the spans inside every ``name`` span
    (itself included), over all runs, largest first.

    Spans are stored in opening order and nest, so a span's subtree is
    the contiguous block of spans opened before it ended.
    """
    a = store.arrays()
    self_t = _self_times(a)
    inside = np.zeros(len(self_t), dtype=bool)
    for i in np.flatnonzero(a["name_id"] == store.name_index(name)):
        j = np.searchsorted(a["start"], a["end"][i], side="left")
        inside[i:j] = True
    row = _by_metric(store, a["name_id"][inside], self_t[inside])
    times = {m for m, _ in SPAN_METRICS.values()}
    return dict(
        sorted(
            ((k, v) for k, v in row.items() if k in times and v > 0),
            key=lambda kv: -kv[1],
        )
    )
