"""Realise and execute one scenario spec.

The runner is the single translation point from declarative spec to the
simulator's constructor graph, in three public steps that
:func:`run_scenario` calls in order:

1. :func:`build_runtime` — topology, cost bank, SLO and trace;
2. :func:`plan_system` — the offline-planned ``ServingSystem`` (or
   replica fleet);
3. :func:`simulate` — the spec's background, faults, replan and
   observer blocks turned into one ``simulate_trace`` call on a given
   system and trace.

Sweeps that plan once and replay many traces (the figure benches) call
the plan step once and the simulate step once per trace. Construction
ORDER is part of the contract: planning and simulation are fully
deterministic given the spec's seeds, and the CLI goldens and bench
baselines are byte-identical to the hand-wired construction the steps
replaced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.baselines.systems import (
    SYSTEM_BY_NAME,
    build_fleet,
    build_system,
    simulate_trace,
)
from repro.core.plan import ParallelConfig
from repro.core.replan import ReplanConfig
from repro.core.objective import SlaSpec
from repro.faults.plan import FaultPlan
from repro.llm import CostModelBank
from repro.llm.models import get_model
from repro.network.builders import (
    BuiltTopology,
    build_testbed,
    build_xtracks_cluster,
)
from repro.obs.observer import NULL_OBSERVER
from repro.scenario.spec import (
    _DEFAULT_GPUS,
    GPU_PROFILES,
    SLO_BY_NAME,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.serving.background import BackgroundTrafficConfig
from repro.serving.engine import EngineConfig
from repro.util.rng import make_rng
from repro.workloads.registry import get_workload
from repro.workloads.traces import Trace

__all__ = [
    "ScenarioResult",
    "ScenarioRuntime",
    "build_runtime",
    "build_trace",
    "make_observer",
    "plan_system",
    "run_scenario",
    "simulate",
]


@dataclass
class ScenarioRuntime:
    """Realised building blocks of a spec, pre-simulation."""

    spec: ScenarioSpec
    built: BuiltTopology
    model: Any
    bank: CostModelBank
    sla: SlaSpec
    trace: Trace
    arrival_rate: float
    parallel: ParallelConfig | None


@dataclass
class ScenarioResult:
    """One executed scenario: live objects plus a JSON-able summary."""

    spec: ScenarioSpec
    trace: Trace
    #: the planned ServingSystem (single system) or ReplicaFleet
    system: Any
    #: ServingMetrics (single system) or FleetMetrics (fleet path)
    metrics: Any
    observer: Any | None
    #: JSON-able per-run digest (feeds matrix cells / sweep reports)
    summary: dict


def build_runtime(spec: ScenarioSpec) -> ScenarioRuntime:
    """Realise topology, cost bank, SLO and trace from a spec."""
    topo = spec.topology
    if topo.kind == "testbed":
        built = build_testbed(tracks=topo.tracks)
    else:
        built = build_xtracks_cluster(topo.tracks, n_units=topo.n_units)
    model = get_model(spec.model)
    gpu_names = spec.gpus or _DEFAULT_GPUS[topo.kind]
    bank = CostModelBank(
        model, {name: GPU_PROFILES[name] for name in gpu_names}
    )
    sla = (
        SLO_BY_NAME[spec.slo]
        if isinstance(spec.slo, str)
        else SlaSpec(ttft=spec.slo["ttft"], tpot=spec.slo["tpot"])
    )
    trace = build_trace(spec.workload)
    if spec.arrival_rate is None:
        arrival_rate = spec.workload.rate
    elif spec.arrival_rate == "trace-mean":
        arrival_rate = trace.mean_rate
    else:
        arrival_rate = float(spec.arrival_rate)
    parallel = (
        ParallelConfig(*spec.parallel) if spec.parallel is not None else None
    )
    return ScenarioRuntime(
        spec=spec,
        built=built,
        model=model,
        bank=bank,
        sla=sla,
        trace=trace,
        arrival_rate=arrival_rate,
        parallel=parallel,
    )


def build_trace(workload: WorkloadSpec) -> Trace:
    """Generate a workload block's trace (seeded by ``workload.seed``)."""
    return get_workload(workload.generator).build(
        workload.rate,
        workload.duration,
        make_rng(workload.seed),
        **workload.params,
    )


def make_observer(block: dict | None):
    """A fresh :class:`~repro.obs.Observer` for a spec's ``observer``
    block, or None when the block is absent."""
    if block is None:
        return None
    from repro.obs import (
        AttributionCollector,
        FlightRecorder,
        Observer,
        SLOMonitor,
        SLOTarget,
    )

    slo = block.get("slo")
    return Observer(
        slo=(
            SLOMonitor([SLOTarget(m, s) for m, s in slo.items()])
            if slo
            else None
        ),
        recorder=FlightRecorder() if block.get("flight") else None,
        attribution=(
            AttributionCollector() if block.get("attribution") else None
        ),
    )


def _engine_config(spec: ScenarioSpec, observer) -> EngineConfig | None:
    if observer is None and not spec.schemes:
        return None
    return EngineConfig(
        observer=observer or NULL_OBSERVER, extra_schemes=spec.schemes
    )


def _make_replan(rp: dict) -> ReplanConfig:
    kwargs = dict(rp)
    tp = kwargs.pop("target_parallel", None)
    if tp is not None:
        kwargs["target_parallel"] = ParallelConfig(*tp)
    return ReplanConfig(**kwargs)


def plan_system(rt: ScenarioRuntime, observer=None):
    """Run the offline planner: a ``ServingSystem``, or a
    ``ReplicaFleet`` when the spec sets ``n_replicas``.

    A fleet wires its engines at build time, so it takes the run's
    ``observer`` here; a single system takes it in :func:`simulate`.
    """
    spec = rt.spec
    common = (
        SYSTEM_BY_NAME[spec.system],
        rt.built,
        rt.model,
        rt.bank,
        rt.sla,
        rt.trace.representative_batch(spec.forecast_q),
    )
    if spec.n_replicas is not None:
        return build_fleet(
            *common,
            arrival_rate=rt.arrival_rate,
            n_replicas=spec.n_replicas,
            forced_parallel=rt.parallel,
            engine_config=_engine_config(spec, observer),
            router=spec.router,
        )
    return build_system(
        *common,
        arrival_rate=rt.arrival_rate,
        forced_parallel=rt.parallel,
    )


def simulate(spec: ScenarioSpec, system, trace: Trace, observer=None):
    """Serve ``trace`` on a planned ``system`` under the spec's
    background, faults, replan and ``schemes`` blocks.

    ``observer`` (usually :func:`make_observer`'s) is attached to the
    run; a fleet already carries the one it was planned with.
    """
    if spec.n_replicas is not None:
        return system.run(trace)
    bg_cfg = bg_seed = bg_until = None
    if spec.background is not None:
        knobs = dict(spec.background)
        bg_seed = knobs.pop("seed", None)
        bg_until = knobs.pop("until", None)
        bg_cfg = BackgroundTrafficConfig(**knobs)
    return simulate_trace(
        system,
        trace,
        engine_config=_engine_config(spec, observer),
        background=bg_cfg,
        background_seed=bg_seed,
        background_until=bg_until,
        fault_plan=(
            FaultPlan.from_dict(spec.faults)
            if spec.faults is not None
            else None
        ),
        replan=(
            _make_replan(spec.replan) if spec.replan is not None else None
        ),
    )


def run_scenario(spec: ScenarioSpec, cell: str | None = None) -> ScenarioResult:
    """Execute one (non-matrix) scenario and summarise it.

    ``cell`` labels the run inside a matrix sweep (recorded in the
    summary); standalone runs leave it unset.
    """
    rt = build_runtime(spec)
    observer = make_observer(spec.observer)
    system = plan_system(rt, observer)
    metrics = simulate(spec, system, rt.trace, observer)
    summary: dict = {
        "scenario": spec.name,
        "system": spec.system,
        "model": spec.model,
        "offered": float(len(rt.trace)),
    }
    if cell is not None:
        summary["cell"] = cell
    summary.update(metrics.summary())
    return ScenarioResult(
        spec=spec,
        trace=rt.trace,
        system=system,
        metrics=metrics,
        observer=observer,
        summary=summary,
    )
