"""Shared helpers for the figure-reproduction benchmarks.

Each ``bench_fig*.py`` regenerates one table/figure of the paper's
evaluation: it builds the systems, sweeps the figure's parameter, prints
the same rows/series the paper reports, writes them under
``benchmarks/results/`` and asserts the *shape* (orderings, rough
factors) — not the absolute numbers, which depended on the authors'
testbed.

Telemetry dumps: pass ``--obs-dir DIR`` (or set ``REPRO_OBS_DIR``) and
every bench mirrors its result table there; benches that run the
serving simulator additionally attach an observer + flight recorder to
each run and dump the Chrome trace, the metrics snapshot, the summary,
the critical-path attribution JSON and the flight-recorder JSONL per
(system, rate) run.
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from dataclasses import dataclass, replace

from repro.baselines import ServingSystem
from repro.core.plan import ParallelConfig
from repro.scenario import (
    ScenarioRuntime,
    build_trace,
    make_observer,
    plan_system,
    simulate,
)
from repro.serving.metrics import SLA_ATTAINMENT_TARGET
from repro.util.tables import format_table

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

def bench_seed(default: int) -> int:
    """The seed a bench should thread into its RNGs.

    Returns ``default`` unless ``REPRO_BENCH_SEED`` is set, in which case
    every bench-local seed collapses onto the override — one knob probes
    seed sensitivity across the whole suite. The defaults match the
    checked-in baselines under ``benchmarks/results/``.
    """
    env = os.environ.get("REPRO_BENCH_SEED")
    return default if env is None else int(env)


#: Seed every bench threads into its planner/trace RNGs unless it pins a
#: bench-local default through :func:`bench_seed`.
BENCH_SEED = bench_seed(7)


def seed_overridden() -> bool:
    """True when ``REPRO_BENCH_SEED`` redirects the benches off-baseline."""
    return os.environ.get("REPRO_BENCH_SEED") is not None


def check_stable_hashing() -> None:
    """Warn when str-hash randomization is live during a timing bench.

    Cache keys are tuples of ints/floats/enums, so *results* never depend
    on ``PYTHONHASHSEED`` — but dict iteration order of str-keyed report
    tables does, and a randomized hash seed makes timing runs not exactly
    reproducible run-to-run. CI pins ``PYTHONHASHSEED=0``; do the same
    locally when comparing against the checked-in baselines.
    """
    if sys.flags.hash_randomization and os.environ.get(
        "PYTHONHASHSEED", "random"
    ) in ("", "random"):
        warnings.warn(
            "PYTHONHASHSEED is unset: timings are still valid but not "
            "bit-reproducible; set PYTHONHASHSEED=0 to match CI",
            stacklevel=2,
        )

#: Telemetry dump directory; set by ``--obs-dir`` (benchmarks/conftest)
#: or the ``REPRO_OBS_DIR`` environment variable. ``None`` disables all
#: per-run observability in the benches.
OBS_DIR: str | None = os.environ.get("REPRO_OBS_DIR") or None


def set_obs_dir(path: str | None) -> None:
    """Point the benches' telemetry dumps at ``path`` (None disables)."""
    global OBS_DIR
    OBS_DIR = path or None


def obs_path(filename: str) -> str:
    """Path of one dump file inside the (created) obs dir."""
    assert OBS_DIR is not None
    os.makedirs(OBS_DIR, exist_ok=True)
    return os.path.join(OBS_DIR, filename)


def maybe_scenario_observer() -> dict | None:
    """Spec-level ``observer`` block when ``--obs-dir`` is active.

    Benches put this in their spec and the runner attaches a flight
    recorder + attribution collector pair to each run; ``None`` keeps
    the run observer-free.
    """
    if OBS_DIR is None:
        return None
    return {"flight": True, "attribution": True}


def dump_observation(name: str, observer, metrics=None) -> None:
    """Write one observed run's telemetry set under the obs dir."""
    if OBS_DIR is None or observer is None:
        return
    observer.export(
        trace_path=obs_path(f"{name}-trace.json"),
        metrics_path=obs_path(f"{name}-metrics.json"),
    )
    if observer.recorder is not None:
        observer.recorder.write_jsonl(obs_path(f"{name}-flight.jsonl"))
    attribution = observer.attribution
    if attribution is not None and attribution.finished:
        # Full per-request timelines (AttributionCollector.to_payload),
        # so `python -m repro explain --from-dir` and the what-if
        # profiler can replay the dump without re-simulating; the
        # `slowest` digest stays for quick eyeballing.
        payload = attribution.to_payload()
        payload["slowest"] = [
            {
                "request_id": a.request_id,
                "total_s": a.total,
                "dominant": a.dominant[0],
                "detail": a.dominant_detail(),
                "components": dict(a.components),
            }
            for a in attribution.slowest(5)
        ]
        with open(obs_path(f"{name}-attribution.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    if metrics is not None:
        with open(obs_path(f"{name}-summary.json"), "w") as fh:
            json.dump(metrics.summary(), fh, indent=2, sort_keys=True)

#: Cross-server parallelism pinned for the testbed comparisons — the
#: paper's evaluated regime (tensor parallelism spanning GPU servers).
TESTBED_PARALLEL = ParallelConfig(8, 1, 8, 1)
CLUSTER_PARALLEL = ParallelConfig(16, 1, 16, 1)

SYSTEM_ORDER = ["DistServe", "DS-ATP", "DS-SwitchML", "HeroServe"]


def save_result(name: str, text: str) -> str:
    """Write a bench's table to benchmarks/results/<name>.txt.

    With ``--obs-dir`` active the table is mirrored there too, so one
    directory collects everything a bench session produced.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    if OBS_DIR is not None:
        with open(obs_path(f"{name}.txt"), "w") as fh:
            fh.write(text + "\n")
    return path


def assert_matches_baseline(name: str, text: str) -> None:
    """Assert ``text`` is byte-identical to results/<name>.txt.

    The scenario-spec refactor of the serving benches is pinned by this:
    each refactored bench renders its table from runs built *through*
    :mod:`repro.scenario` and must reproduce the checked-in baseline
    exactly. Skipped when ``REPRO_BENCH_SEED`` moves the suite off the
    baseline seeds, or when the baseline has not been generated yet.
    """
    if seed_overridden():
        return
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    if not os.path.exists(path):
        return
    with open(path) as fh:
        expected = fh.read()
    assert text + "\n" == expected, (
        f"{name}: scenario-built table diverged from checked-in baseline "
        f"{path} — the scenario runner no longer reproduces the "
        f"hand-wired construction byte-for-byte"
    )


def save_json(name: str, payload) -> str:
    """Write a machine-readable bench baseline to results/<name>.json.

    The ``BENCH_*.json`` files record the perf trajectory (per-phase ms,
    cache hit rates, speedups) that ``docs/PERFORMANCE.md`` documents and
    the CI perf-smoke job gates on.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if OBS_DIR is not None:
        with open(obs_path(f"{name}.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return path


def phase_breakdown_rows(
    phase_times: dict[str, float]
) -> list[list[str]]:
    """Format planner ``PlannerReport.phase_times`` for a table."""
    total = sum(phase_times.values()) or 1.0
    return [
        [name, f"{secs * 1e3:.1f}", f"{secs / total:.0%}"]
        for name, secs in sorted(
            phase_times.items(), key=lambda kv: -kv[1]
        )
    ]


def plan_all_systems(rt: ScenarioRuntime) -> dict[str, ServingSystem]:
    """Plan every §V system once on ``rt``'s topology, cost bank and
    forecast trace (the spec's ``system`` field is swept)."""
    return {
        name: plan_system(replace(rt, spec=replace(rt.spec, system=name)))
        for name in SYSTEM_ORDER
    }


@dataclass
class SweepPoint:
    """Metrics of one system at one offered rate."""

    system: str
    rate: float
    attainment: float
    mean_ttft: float
    mean_tpot: float
    mem_util: float


def sweep_systems(
    rt: ScenarioRuntime, rates: list[float], obs_prefix: str
) -> list[SweepPoint]:
    """Plan every system once, then replay a fresh trace per rate.

    Each rate's trace is the spec's workload at that rate. With the
    spec's ``observer`` block set (``--obs-dir``), each run's telemetry
    set is dumped as ``<obs_prefix>-<system>-r<rate>-*``.
    """
    systems = plan_all_systems(rt)
    spec = rt.spec
    points: list[SweepPoint] = []
    for rate in rates:
        trace = build_trace(replace(spec.workload, rate=rate))
        for name in SYSTEM_ORDER:
            observer = make_observer(spec.observer)
            m = simulate(spec, systems[name], trace, observer)
            dump_observation(
                f"{obs_prefix}-{name.lower()}-r{rate:g}", observer, m
            )
            points.append(
                SweepPoint(
                    system=name,
                    rate=rate,
                    attainment=m.attainment(),
                    mean_ttft=m.mean_ttft(),
                    mean_tpot=m.mean_tpot(),
                    mem_util=m.mean_memory_utilization(),
                )
            )
    return points


def max_passing_rate(
    points: list[SweepPoint],
    system: str,
    target: float = SLA_ATTAINMENT_TARGET,
) -> float:
    """Highest swept rate at which ``system`` met the attainment target."""
    passing = [
        p.rate
        for p in points
        if p.system == system and p.attainment >= target
    ]
    return max(passing) if passing else 0.0


def per_gpu(rate: float, n_gpus: int) -> float:
    """Per-GPU rate, the x-axis unit of the paper's scalability plots."""
    return rate / n_gpus


def sweep_table(
    points: list[SweepPoint], n_gpus: int, title: str
) -> str:
    """Render a sweep as the paper-style rows."""
    rows = []
    for p in points:
        rows.append(
            [
                p.system,
                f"{p.rate:.3f}",
                f"{per_gpu(p.rate, n_gpus) * 1e3:.2f}",
                f"{p.attainment:.2f}",
                f"{p.mean_ttft:.3f}",
                f"{p.mean_tpot * 1e3:.1f}",
            ]
        )
    return format_table(
        [
            "system",
            "rate r/s",
            "per-GPU mr/s",
            "attainment",
            "TTFT s",
            "TPOT ms",
        ],
        rows,
        title=title,
    )


def scalability_summary(
    points: list[SweepPoint], title: str
) -> tuple[str, dict[str, float]]:
    """Max passing rate per system plus HeroServe's improvement factors."""
    maxima = {
        name: max_passing_rate(points, name) for name in SYSTEM_ORDER
    }
    hero = maxima["HeroServe"]
    rows = []
    for name in SYSTEM_ORDER:
        factor = hero / maxima[name] if maxima[name] > 0 else float("nan")
        rows.append(
            [name, f"{maxima[name]:.3f}", f"{factor:.2f}x"]
        )
    return (
        format_table(
            ["system", "max rate @ 90% SLA", "HeroServe gain"],
            rows,
            title=title,
        ),
        maxima,
    )
