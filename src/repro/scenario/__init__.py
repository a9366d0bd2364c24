"""Declarative scenarios: spec schema, runner, matrix sweeps.

``python -m repro scenario run|matrix|validate|list`` is the CLI
surface; ``docs/SCENARIOS.md`` documents the schema.
"""

from repro.scenario.matrix import (
    MatrixCell,
    MatrixResult,
    expand_matrix,
    run_matrix,
)
from repro.scenario.runner import (
    ScenarioResult,
    ScenarioRuntime,
    build_runtime,
    build_trace,
    make_observer,
    plan_system,
    run_scenario,
    simulate,
)
from repro.scenario.spec import (
    SLO_BY_NAME,
    ScenarioSpec,
    SpecError,
    SpecValidationError,
    TopologySpec,
    WorkloadSpec,
    load_spec,
    validate_spec,
)

__all__ = [
    "MatrixCell",
    "MatrixResult",
    "ScenarioResult",
    "ScenarioRuntime",
    "ScenarioSpec",
    "SLO_BY_NAME",
    "SpecError",
    "SpecValidationError",
    "TopologySpec",
    "WorkloadSpec",
    "build_runtime",
    "build_trace",
    "expand_matrix",
    "load_spec",
    "make_observer",
    "plan_system",
    "run_matrix",
    "run_scenario",
    "simulate",
    "validate_spec",
]
