"""Declarative scenario specs: schema, validation, JSON/YAML loading.

A scenario spec is one self-contained, JSON-able description of a
serving experiment — topology, model, system, SLO, workload, optional
router/fleet/faults/background/replanning — plus an optional ``matrix``
table of axis sweeps. The spec layer is pure data: it validates and
normalises; :mod:`repro.scenario.runner` realises runtime objects from
it. Validation collects *all* field-level problems (dotted paths) in one
pass instead of failing on the first, so a spec author fixes a file in
one round trip.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields as dc_fields

from repro.baselines.systems import SYSTEM_BY_NAME
from repro.core.objective import (
    SLA_SIM_CHATBOT,
    SLA_SIM_SUMMARIZATION,
    SLA_TESTBED_CHATBOT,
    SLA_TESTBED_SUMMARIZATION,
    SlaSpec,
)
from repro.core.replan import ReplanConfig
from repro.faults.plan import FAULT_KINDS
from repro.llm import A100, V100
from repro.llm.models import MODEL_ZOO
from repro.serving.background import BackgroundTrafficConfig

__all__ = [
    "SLO_BY_NAME",
    "ScenarioSpec",
    "SpecError",
    "SpecValidationError",
    "TopologySpec",
    "WorkloadSpec",
    "load_spec",
    "validate_spec",
]

#: Named SLO presets matching the paper's evaluation regimes.
SLO_BY_NAME: dict[str, SlaSpec] = {
    "testbed-chatbot": SLA_TESTBED_CHATBOT,
    "testbed-summarization": SLA_TESTBED_SUMMARIZATION,
    "sim-chatbot": SLA_SIM_CHATBOT,
    "sim-summarization": SLA_SIM_SUMMARIZATION,
}

#: GPU profile names a spec's ``gpus`` list may reference.
GPU_PROFILES = {"A100": A100, "V100": V100}

#: Per-topology default GPU banks (testbed mixes A100+V100 servers,
#: the scaled clusters are A100-only) — match the benches' banks.
_DEFAULT_GPUS = {"testbed": ("A100", "V100"), "xtracks": ("A100",)}

_BACKGROUND_KEYS = {f.name for f in dc_fields(BackgroundTrafficConfig)} | {
    "seed",
    "until",
}
_REPLAN_KEYS = {f.name for f in dc_fields(ReplanConfig)}
_FAULT_EVENT_KEYS = {
    "time", "kind", "target", "duration", "factor", "loss", "slots"
}


@dataclass(frozen=True)
class SpecError:
    """One field-level validation problem."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


class SpecValidationError(ValueError):
    """A spec failed validation; ``errors`` lists every problem found."""

    def __init__(self, errors: list[SpecError], source: str | None = None):
        self.errors = list(errors)
        self.source = source
        where = f" in {source}" if source else ""
        lines = "\n".join(f"  - {e}" for e in self.errors)
        super().__init__(
            f"invalid scenario spec{where} "
            f"({len(self.errors)} error(s)):\n{lines}"
        )


@dataclass(frozen=True)
class TopologySpec:
    """Which network to build: the Fig. 6 testbed or a scaled cluster."""

    kind: str = "testbed"
    tracks: int = 2
    #: scale units for ``xtracks`` clusters (ignored by ``testbed``)
    n_units: int = 4


@dataclass(frozen=True)
class WorkloadSpec:
    """Which trace to generate: a workload-registry name plus knobs."""

    generator: str
    rate: float
    duration: float
    seed: int = 0
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioSpec:
    """One validated serving scenario (see ``docs/SCENARIOS.md``)."""

    name: str
    model: str
    workload: WorkloadSpec
    topology: TopologySpec = TopologySpec()
    system: str = "HeroServe"
    #: GPU profile names for the cost-model bank (None: topology default)
    gpus: tuple[str, ...] | None = None
    #: pinned (tp_prefill, pp_prefill, tp_decode, pp_decode), or None to
    #: let the offline planner sweep
    parallel: tuple[int, int, int, int] | None = None
    #: an SLO preset name or an explicit {"ttft": s, "tpot": s} pair
    slo: str | dict = "testbed-chatbot"
    #: planner forecast rate: None (workload rate), "trace-mean", or r/s
    arrival_rate: float | str | None = None
    #: representative-batch size fed to the planner forecast
    forecast_q: int = 8
    #: fleet routing policy name; requires ``n_replicas``
    router: str | None = None
    #: replica count — any value (even 1) selects the fleet path; None
    #: runs the single-system simulator
    n_replicas: int | None = None
    #: background cross-traffic: BackgroundTrafficConfig fields plus
    #: optional ``seed`` and ``until`` (burst horizon end, seconds)
    background: dict | None = None
    #: fault schedule: {"seed": int, "events": [FaultEvent dicts]}
    faults: dict | None = None
    #: online replanning: ReplanConfig fields; ``target_parallel`` as a
    #: 4-tuple
    replan: dict | None = None
    #: extra registered collectives (by name) every group's online
    #: policy table may pick from, e.g. ("ring-2stage", "tree")
    schemes: tuple[str, ...] = ()
    #: {"flight": bool, "attribution": bool, "slo": {"ttft": s,
    #: "tpot": s}} — attach an observer (``slo`` adds a burn-rate
    #: monitor with one target per given bound)
    observer: dict | None = None
    #: axis sweeps: dotted spec path -> list of values
    matrix: dict | None = None

    def to_dict(self) -> dict:
        """Plain JSON-able form (inverse of ``from_dict``)."""
        d: dict = {
            "name": self.name,
            "model": self.model,
            "system": self.system,
            "topology": {
                "kind": self.topology.kind,
                "tracks": self.topology.tracks,
                "n_units": self.topology.n_units,
            },
            "workload": {
                "generator": self.workload.generator,
                "rate": self.workload.rate,
                "duration": self.workload.duration,
                "seed": self.workload.seed,
                "params": dict(self.workload.params),
            },
            "slo": self.slo,
            "forecast_q": self.forecast_q,
        }
        if self.gpus is not None:
            d["gpus"] = list(self.gpus)
        if self.parallel is not None:
            d["parallel"] = list(self.parallel)
        if self.arrival_rate is not None:
            d["arrival_rate"] = self.arrival_rate
        if self.schemes:
            d["schemes"] = list(self.schemes)
        for key in ("router", "n_replicas", "background", "faults",
                    "replan", "observer", "matrix"):
            val = getattr(self, key)
            if val is not None:
                d[key] = val
        return d

    @classmethod
    def from_dict(
        cls, d: dict, source: str | None = None
    ) -> "ScenarioSpec":
        """Validate ``d`` and build the spec; raises
        :class:`SpecValidationError` listing every problem."""
        errors = validate_spec(d)
        if errors:
            raise SpecValidationError(errors, source=source)
        topo = dict(d.get("topology", {}))
        wl = dict(d["workload"])
        return cls(
            name=d["name"],
            model=d["model"],
            system=d.get("system", "HeroServe"),
            topology=TopologySpec(
                kind=topo.get("kind", "testbed"),
                tracks=int(topo.get("tracks", 2)),
                n_units=int(topo.get("n_units", 4)),
            ),
            gpus=tuple(d["gpus"]) if d.get("gpus") is not None else None,
            parallel=(
                tuple(int(x) for x in d["parallel"])
                if d.get("parallel") is not None
                else None
            ),
            slo=d.get("slo", "testbed-chatbot"),
            workload=WorkloadSpec(
                generator=wl["generator"],
                rate=float(wl["rate"]),
                duration=float(wl["duration"]),
                seed=int(wl.get("seed", 0)),
                params=dict(wl.get("params", {})),
            ),
            arrival_rate=d.get("arrival_rate"),
            forecast_q=int(d.get("forecast_q", 8)),
            router=d.get("router"),
            n_replicas=(
                int(d["n_replicas"])
                if d.get("n_replicas") is not None
                else None
            ),
            background=d.get("background"),
            faults=d.get("faults"),
            replan=d.get("replan"),
            schemes=tuple(d.get("schemes", ())),
            observer=d.get("observer"),
            matrix=d.get("matrix"),
        )


_TOP_LEVEL_KEYS = {
    "name", "model", "system", "topology", "gpus", "parallel", "slo",
    "workload", "arrival_rate", "forecast_q", "router", "n_replicas",
    "background", "faults", "replan", "schemes", "observer", "matrix",
}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _positive_number(errors, path, x, allow_none=False) -> None:
    if x is None and allow_none:
        return
    if not _is_number(x) or x <= 0:
        errors.append(SpecError(path, f"must be a positive number, got {x!r}"))


def validate_spec(d) -> list[SpecError]:
    """Field-level validation of a raw spec dict; returns all problems."""
    errors: list[SpecError] = []
    if not isinstance(d, dict):
        return [SpecError("$", f"spec must be a mapping, got {type(d).__name__}")]

    for key in sorted(set(d) - _TOP_LEVEL_KEYS):
        errors.append(SpecError(key, "unknown field"))

    name = d.get("name")
    if not isinstance(name, str) or not name:
        errors.append(SpecError("name", "must be a non-empty string"))

    model = d.get("model")
    if not isinstance(model, str) or model not in MODEL_ZOO:
        errors.append(SpecError(
            "model",
            f"must be one of {sorted(MODEL_ZOO)}, got {model!r}",
        ))

    system = d.get("system", "HeroServe")
    if system not in SYSTEM_BY_NAME:
        errors.append(SpecError(
            "system",
            f"must be one of {sorted(SYSTEM_BY_NAME)}, got {system!r}",
        ))

    _validate_topology(errors, d.get("topology", {}))
    _validate_gpus(errors, d.get("gpus"))
    _validate_parallel(errors, "parallel", d.get("parallel"))
    _validate_slo(errors, d.get("slo", "testbed-chatbot"))
    _validate_workload(errors, d.get("workload"))

    rate = d.get("arrival_rate")
    if rate is not None and rate != "trace-mean":
        _positive_number(errors, "arrival_rate", rate)

    q = d.get("forecast_q", 8)
    if not isinstance(q, int) or isinstance(q, bool) or q < 1:
        errors.append(SpecError(
            "forecast_q", f"must be a positive integer, got {q!r}"
        ))

    _validate_router(errors, d.get("router"), d.get("n_replicas"))
    _validate_background(errors, d.get("background"))
    _validate_faults(errors, d.get("faults"))
    _validate_replan(errors, d.get("replan"))
    _validate_schemes(errors, d.get("schemes", ()))
    _validate_observer(errors, d.get("observer"))
    _validate_matrix(errors, d.get("matrix"))

    if d.get("n_replicas") is not None:
        for key in ("background", "faults", "replan"):
            if d.get(key) is not None:
                errors.append(SpecError(
                    key,
                    "not supported on the fleet path (n_replicas set)",
                ))
    return errors


def _validate_topology(errors, topo) -> None:
    if not isinstance(topo, dict):
        errors.append(SpecError("topology", "must be a mapping"))
        return
    for key in sorted(set(topo) - {"kind", "tracks", "n_units"}):
        errors.append(SpecError(f"topology.{key}", "unknown field"))
    kind = topo.get("kind", "testbed")
    if kind not in ("testbed", "xtracks"):
        errors.append(SpecError(
            "topology.kind",
            f"must be 'testbed' or 'xtracks', got {kind!r}",
        ))
    for key in ("tracks", "n_units"):
        val = topo.get(key)
        if val is not None and (
            not isinstance(val, int) or isinstance(val, bool) or val < 1
        ):
            errors.append(SpecError(
                f"topology.{key}",
                f"must be a positive integer, got {val!r}",
            ))


def _validate_gpus(errors, gpus) -> None:
    if gpus is None:
        return
    if not isinstance(gpus, (list, tuple)) or not gpus:
        errors.append(SpecError("gpus", "must be a non-empty list"))
        return
    for i, g in enumerate(gpus):
        if g not in GPU_PROFILES:
            errors.append(SpecError(
                f"gpus[{i}]",
                f"must be one of {sorted(GPU_PROFILES)}, got {g!r}",
            ))


def _validate_parallel(errors, path, par) -> None:
    if par is None:
        return
    if not isinstance(par, (list, tuple)) or len(par) != 4:
        errors.append(SpecError(
            path,
            "must be a 4-list [tp_prefill, pp_prefill, tp_decode, "
            f"pp_decode], got {par!r}",
        ))
        return
    for i, x in enumerate(par):
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            errors.append(SpecError(
                f"{path}[{i}]", f"must be a positive integer, got {x!r}"
            ))


def _validate_slo(errors, slo) -> None:
    if isinstance(slo, str):
        if slo not in SLO_BY_NAME:
            errors.append(SpecError(
                "slo",
                f"must be one of {sorted(SLO_BY_NAME)} or a "
                f"{{ttft, tpot}} mapping, got {slo!r}",
            ))
        return
    if not isinstance(slo, dict):
        errors.append(SpecError(
            "slo", f"must be a preset name or a mapping, got {slo!r}"
        ))
        return
    for key in sorted(set(slo) - {"ttft", "tpot"}):
        errors.append(SpecError(f"slo.{key}", "unknown field"))
    for key in ("ttft", "tpot"):
        if key not in slo:
            errors.append(SpecError(f"slo.{key}", "required"))
        else:
            _positive_number(errors, f"slo.{key}", slo[key])


def _validate_workload(errors, wl) -> None:
    if not isinstance(wl, dict):
        errors.append(SpecError(
            "workload", "required mapping {generator, rate, duration}"
        ))
        return
    from repro.workloads.registry import _REGISTRY

    for key in sorted(
        set(wl) - {"generator", "rate", "duration", "seed", "params"}
    ):
        errors.append(SpecError(f"workload.{key}", "unknown field"))
    gen_name = wl.get("generator")
    gen = None
    if gen_name not in _REGISTRY:
        errors.append(SpecError(
            "workload.generator",
            f"must be one of {sorted(_REGISTRY)}, got {gen_name!r}",
        ))
    else:
        gen = _REGISTRY[gen_name]
    _positive_number(errors, "workload.rate", wl.get("rate"))
    _positive_number(errors, "workload.duration", wl.get("duration"))
    seed = wl.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        errors.append(SpecError(
            "workload.seed", f"must be an integer, got {seed!r}"
        ))
    params = wl.get("params", {})
    if not isinstance(params, dict):
        errors.append(SpecError("workload.params", "must be a mapping"))
    elif gen is not None:
        for key in sorted(set(params) - set(gen.params)):
            errors.append(SpecError(
                f"workload.params.{key}",
                f"not a parameter of generator {gen.name!r} "
                f"(accepts: {list(gen.params)})",
            ))


def _validate_router(errors, router, n_replicas) -> None:
    if n_replicas is not None and (
        not isinstance(n_replicas, int)
        or isinstance(n_replicas, bool)
        or n_replicas < 1
    ):
        errors.append(SpecError(
            "n_replicas", f"must be a positive integer, got {n_replicas!r}"
        ))
    if router is None:
        return
    from repro.serving.router import registered_routers

    names = sorted(cls.name for cls in registered_routers())
    if router not in names:
        errors.append(SpecError(
            "router", f"must be one of {names}, got {router!r}"
        ))
    if n_replicas is None:
        errors.append(SpecError(
            "router", "requires n_replicas (the fleet path)"
        ))


def _validate_background(errors, bg) -> None:
    if bg is None:
        return
    if not isinstance(bg, dict):
        errors.append(SpecError("background", "must be a mapping"))
        return
    for key in sorted(set(bg) - _BACKGROUND_KEYS):
        errors.append(SpecError(
            f"background.{key}",
            f"unknown field (accepts: {sorted(_BACKGROUND_KEYS)})",
        ))
    for key in ("intensity", "mean_gap", "mean_duration", "until"):
        if key in bg:
            _positive_number(errors, f"background.{key}", bg[key])
    seed = bg.get("seed")
    if seed is not None and (
        not isinstance(seed, int) or isinstance(seed, bool)
    ):
        errors.append(SpecError(
            "background.seed", f"must be an integer, got {seed!r}"
        ))


def _validate_faults(errors, faults) -> None:
    if faults is None:
        return
    if not isinstance(faults, dict):
        errors.append(SpecError("faults", "must be a mapping"))
        return
    for key in sorted(set(faults) - {"seed", "events"}):
        errors.append(SpecError(f"faults.{key}", "unknown field"))
    events = faults.get("events", [])
    if not isinstance(events, list):
        errors.append(SpecError("faults.events", "must be a list"))
        return
    for i, ev in enumerate(events):
        path = f"faults.events[{i}]"
        if not isinstance(ev, dict):
            errors.append(SpecError(path, "must be a mapping"))
            continue
        for key in sorted(set(ev) - _FAULT_EVENT_KEYS):
            errors.append(SpecError(f"{path}.{key}", "unknown field"))
        if ev.get("kind") not in FAULT_KINDS:
            errors.append(SpecError(
                f"{path}.kind",
                f"must be one of {sorted(FAULT_KINDS)}, "
                f"got {ev.get('kind')!r}",
            ))
        t = ev.get("time")
        if not _is_number(t) or t < 0:
            errors.append(SpecError(
                f"{path}.time", f"must be a number >= 0, got {t!r}"
            ))
        if "target" not in ev:
            errors.append(SpecError(f"{path}.target", "required"))


def _validate_replan(errors, rp) -> None:
    if rp is None:
        return
    if not isinstance(rp, dict):
        errors.append(SpecError("replan", "must be a mapping"))
        return
    for key in sorted(set(rp) - _REPLAN_KEYS):
        errors.append(SpecError(
            f"replan.{key}",
            f"unknown field (accepts: {sorted(_REPLAN_KEYS)})",
        ))
    if "target_parallel" in rp and rp["target_parallel"] is not None:
        _validate_parallel(errors, "replan.target_parallel",
                           rp["target_parallel"])


def _validate_schemes(errors, schemes) -> None:
    if not isinstance(schemes, (list, tuple)):
        errors.append(SpecError("schemes", "must be a list of names"))
        return
    from repro.comm import registered_schemes

    names = sorted(s.name for s in registered_schemes())
    for i, name in enumerate(schemes):
        if name not in names:
            errors.append(SpecError(
                f"schemes[{i}]", f"must be one of {names}, got {name!r}"
            ))


def _validate_observer(errors, obs) -> None:
    if obs is None:
        return
    if not isinstance(obs, dict):
        errors.append(SpecError("observer", "must be a mapping"))
        return
    for key in sorted(set(obs) - {"flight", "attribution", "slo"}):
        errors.append(SpecError(f"observer.{key}", "unknown field"))
    for key in ("flight", "attribution"):
        if key in obs and not isinstance(obs[key], bool):
            errors.append(SpecError(
                f"observer.{key}", f"must be a boolean, got {obs[key]!r}"
            ))
    slo = obs.get("slo")
    if slo is None:
        return
    if not isinstance(slo, dict) or not slo:
        errors.append(SpecError(
            "observer.slo", "must be a non-empty {ttft, tpot} mapping"
        ))
        return
    for key in sorted(set(slo) - {"ttft", "tpot"}):
        errors.append(SpecError(f"observer.slo.{key}", "unknown field"))
    for key in ("ttft", "tpot"):
        if key in slo:
            _positive_number(errors, f"observer.slo.{key}", slo[key])


def _validate_matrix(errors, matrix) -> None:
    if matrix is None:
        return
    if not isinstance(matrix, dict) or not matrix:
        errors.append(SpecError(
            "matrix", "must be a non-empty mapping of axis -> values"
        ))
        return
    for path, values in matrix.items():
        head = str(path).split(".", 1)[0]
        if head not in _TOP_LEVEL_KEYS or head == "matrix":
            errors.append(SpecError(
                f"matrix.{path}", f"unknown spec field {head!r}"
            ))
        if not isinstance(values, list) or not values:
            errors.append(SpecError(
                f"matrix.{path}", "axis values must be a non-empty list"
            ))


def load_spec(path: str) -> ScenarioSpec:
    """Load and validate a spec file (JSON, or YAML by extension)."""
    with open(path) as fh:
        text = fh.read()
    ext = os.path.splitext(path)[1].lower()
    if ext in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:  # pragma: no cover - PyYAML is bundled
            raise RuntimeError(
                f"{path}: YAML specs need PyYAML; use JSON instead"
            ) from None
        raw = yaml.safe_load(text)
    else:
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecValidationError(
                [SpecError("$", f"invalid JSON: {exc}")], source=path
            ) from None
    return ScenarioSpec.from_dict(raw, source=path)
