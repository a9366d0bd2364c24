"""repro — a full reproduction of HeroServe (CLUSTER 2025).

HeroServe: "Scalable and Fast Inference Serving via Hybrid Communication
Scheduling on Heterogeneous Networks". The package provides:

* :mod:`repro.network` — heterogeneous topology, routing, fair-share flows;
* :mod:`repro.switch` — programmable-switch dataplane + SwitchML/ATP INA;
* :mod:`repro.comm` — ring / INA / hybrid collective latency models;
* :mod:`repro.llm` — OPT model zoo, memory model, fitted cost model;
* :mod:`repro.core` — the paper's offline planner and online scheduler;
* :mod:`repro.serving` — discrete-event serving simulator and metrics;
* :mod:`repro.workloads` — ShareGPT/LongBench-like trace generators;
* :mod:`repro.baselines` — HeroServe vs DistServe / DS-ATP / DS-SwitchML;
* :mod:`repro.obs` — tracing, metrics registry, profiling, logging;
* :mod:`repro.faults` — fault injection, health detection, failover;
* :mod:`repro.scenario` — declarative run specs: the one way to build
  and run a deployment.

Quickstart::

    from repro import quick_testbed
    system, metrics = quick_testbed()
    print(metrics.summary())
"""

from __future__ import annotations

__version__ = "1.0.0"

from repro.baselines import (
    ALL_SYSTEMS,
    DISTSERVE,
    DS_2STAGE,
    DS_ATP,
    DS_SWITCHML,
    EXTRA_SYSTEMS,
    HEROSERVE,
    build_system,
    simulate_trace,
)
from repro.comm import (
    CommContext,
    SchemeKind,
    get_scheme,
    registered_schemes,
)
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    HealthRegistry,
    poisson_plan,
)
from repro.core import (
    SLA_TESTBED_CHATBOT,
    CentralController,
    OfflinePlanner,
    OnlineReplanner,
    Plan,
    ReplanConfig,
    SlaSpec,
)
from repro.llm import (
    OPT_13B,
    OPT_66B,
    OPT_175B,
    BatchSpec,
    CostModelBank,
    ModelConfig,
)
from repro.network import build_testbed, build_xtracks_cluster
from repro.obs import (
    MetricsRegistry,
    NullObserver,
    Observer,
    PhaseProfiler,
    TraceRecorder,
    setup_logging,
)
from repro.scenario import (
    ScenarioSpec,
    build_runtime,
    plan_system,
    run_scenario,
    simulate,
)
from repro.serving import EngineConfig, ServingMetrics, find_max_rate
from repro.workloads import (
    generate_loadshift_trace,
    generate_longbench_trace,
    generate_sharegpt_trace,
)


def testbed_spec(
    rate: float = 0.5, duration: float = 60.0, seed: int = 0, **fields
) -> ScenarioSpec:
    """The quickstart scenario: HeroServe serving a ShareGPT-like
    chatbot trace with OPT-66B on the paper's testbed.

    ``fields`` sets any other spec field (``faults``, ``replan``,
    ``observer``, ``schemes``, ...; see ``docs/SCENARIOS.md``).
    """
    return ScenarioSpec.from_dict(
        {
            "name": "quickstart",
            "model": "OPT-66B",
            "workload": {
                "generator": "sharegpt",
                "rate": rate,
                "duration": duration,
                "seed": seed,
            },
            **fields,
        }
    )


def quick_testbed(
    rate: float = 0.5,
    duration: float = 60.0,
    seed: int = 0,
    observer: Observer | None = None,
    **fields,
):
    """Plan and simulate :func:`testbed_spec` in one call.

    Returns ``(system, metrics)``. ``observer`` attaches a caller-built
    :class:`~repro.obs.Observer` (or a ``NullObserver(profiler=...)``
    that only times the simulator hot path);
    ``fields`` go to :func:`testbed_spec` — ``faults=plan.to_dict()``
    injects a fault plan, ``replan={}`` arms online replanning.
    """
    spec = testbed_spec(rate, duration, seed, **fields)
    rt = build_runtime(spec)
    system = plan_system(rt, observer)
    return system, simulate(spec, system, rt.trace, observer)


__all__ = [
    "__version__",
    "ALL_SYSTEMS",
    "DISTSERVE",
    "DS_2STAGE",
    "DS_ATP",
    "DS_SWITCHML",
    "EXTRA_SYSTEMS",
    "HEROSERVE",
    "build_system",
    "simulate_trace",
    "CommContext",
    "SchemeKind",
    "get_scheme",
    "registered_schemes",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "HealthRegistry",
    "poisson_plan",
    "SLA_TESTBED_CHATBOT",
    "CentralController",
    "OfflinePlanner",
    "OnlineReplanner",
    "Plan",
    "ReplanConfig",
    "SlaSpec",
    "OPT_13B",
    "OPT_66B",
    "OPT_175B",
    "BatchSpec",
    "CostModelBank",
    "ModelConfig",
    "build_testbed",
    "build_xtracks_cluster",
    "MetricsRegistry",
    "NullObserver",
    "Observer",
    "PhaseProfiler",
    "TraceRecorder",
    "setup_logging",
    "EngineConfig",
    "ServingMetrics",
    "find_max_rate",
    "generate_loadshift_trace",
    "generate_longbench_trace",
    "generate_sharegpt_trace",
    "quick_testbed",
    "run_scenario",
    "testbed_spec",
]
