"""Engine throughput — the simulator's own hot-path baseline.

Unlike the ``bench_fig*`` benches (which reproduce the *paper's*
numbers), this one measures the *reproduction*: how many requests per
host wall-clock second the discrete-event engine simulates, and where
its Python time goes (event-queue handlers by tag, batch formation,
link-load bookkeeping, controller ticks). Each setting is a
:mod:`repro.scenario` spec planned and simulated through the runner's
steps; the run carries ``NullObserver(profiler=PhaseProfiler())``, so
the simulated *results* stay byte-identical to an unobserved run and
the throughput number prices the simulator, not the telemetry.

Next to each run the bench times a fixed pure-Python calibration loop
in the same process, and records throughput in host-independent units:
``requests_per_calibration`` is requests simulated per calibration-loop
duration, so a faster or slower host moves both sides of the ratio.

Results land in ``engine_throughput.txt`` (tables) and
``BENCH_engine.json`` (the machine-readable perf baseline the CI
perf-smoke job gates on: the work counters ``requests_finished`` and
``events_fired`` must not move, and a >25 % drop in
``requests_per_calibration`` on either topology fails the build). The
ROADMAP's engine-vectorization work is measured against this file.
"""

import statistics
import time
from dataclasses import astuple

import pytest

from repro.obs import NullObserver, PhaseProfiler
from repro.scenario import ScenarioSpec, build_runtime, plan_system, simulate

from common import (
    BENCH_SEED,
    CLUSTER_PARALLEL,
    TESTBED_PARALLEL,
    check_stable_hashing,
    save_json,
    save_result,
)
from repro.util.tables import format_table

#: Simulated seconds per setting — long enough that per-run fixed costs
#: (planning happens outside the profiled window) don't dominate and the
#: wall-clock window is wide enough for a stable req/s reading.
DURATION = 60.0

#: Iterations and timed repeats of the calibration loop.
CALIBRATION_ITERS = 200_000
CALIBRATION_REPEATS = 7

SETTINGS = {
    "testbed OPT-66B": dict(
        model="OPT-66B",
        topology={"kind": "testbed"},
        slo="testbed-chatbot",
        parallel=TESTBED_PARALLEL,
        rate=1.0,
    ),
    "2tracks OPT-175B": dict(
        model="OPT-175B",
        topology={"kind": "xtracks", "tracks": 2, "n_units": 1},
        slo="sim-chatbot",
        parallel=CLUSTER_PARALLEL,
        rate=1.2,
    ),
}


def calibration_s() -> float:
    """Median seconds of a fixed pure-Python loop (no program code):
    float arithmetic and dict traffic, the event loop's kind of work."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = time.perf_counter()
        table: dict[int, float] = {}
        acc = 0.0
        for i in range(CALIBRATION_ITERS):
            table[i & 1023] = acc
            acc += i * 0.5 / (1.0 + (i & 7))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def profile_setting(label: str, setting: dict) -> dict:
    """One profiled HeroServe run; returns its throughput and tables.

    The profiler's flat table holds the ``engine.run`` bracket, the
    dotted engine/controller sections and one phase per event tag.
    """
    spec = ScenarioSpec.from_dict(
        {
            "name": f"engine-{label}",
            "model": setting["model"],
            "topology": setting["topology"],
            "slo": setting["slo"],
            "parallel": astuple(setting["parallel"]),
            "forecast_q": 8,
            "workload": {
                "generator": "sharegpt",
                "rate": setting["rate"],
                "duration": DURATION,
                "seed": BENCH_SEED,
            },
        }
    )
    rt = build_runtime(spec)
    system = plan_system(rt)
    calibration = calibration_s()
    profiler = PhaseProfiler()
    metrics = simulate(
        spec, system, rt.trace, NullObserver(profiler=profiler)
    )
    phases = profiler.breakdown()
    counters = profiler.counters()
    run = phases.pop("engine.run")
    finished = counters["engine.requests_finished"]
    events = counters["engine.events_fired"]
    return {
        "wall_s": run.total,
        "requests_finished": finished,
        "requests_per_s": finished / run.total,
        "calibration_s": calibration,
        "requests_per_calibration": finished / run.total * calibration,
        "events_fired": events,
        "events_per_s": events / run.total,
        "sections": {n: s for n, s in phases.items() if "." in n},
        "event_handlers": {n: s for n, s in phases.items() if "." not in n},
        "sim_finished": metrics.n_finished,
        "report": profiler.report(f"{label} engine profile"),
    }


def run_engine_profile() -> dict[str, dict]:
    check_stable_hashing()
    return {
        label: profile_setting(label, setting)
        for label, setting in SETTINGS.items()
    }


def baseline_payload(snaps: dict[str, dict]) -> dict:
    """The BENCH_engine.json structure (see docs/PERFORMANCE.md).

    ``requests_per_calibration`` and the work counters are gated;
    section/handler tables are recorded so a regression can be
    attributed without re-profiling.
    """
    settings = {}
    for label, snap in snaps.items():
        settings[label] = {
            "requests_per_calibration": round(
                snap["requests_per_calibration"], 3
            ),
            "calibration_s": round(snap["calibration_s"], 5),
            "requests_per_s": round(snap["requests_per_s"], 1),
            "events_per_s": round(snap["events_per_s"], 1),
            "wall_s": round(snap["wall_s"], 4),
            "requests_finished": snap["requests_finished"],
            "events_fired": snap["events_fired"],
            "sections_ms": {
                name: round(stat.total * 1e3, 3)
                for name, stat in snap["sections"].items()
            },
            "event_handlers_ms": {
                name: round(stat.total * 1e3, 3)
                for name, stat in snap["event_handlers"].items()
            },
        }
    return {
        "seed": BENCH_SEED,
        "duration_s": DURATION,
        "calibration_iters": CALIBRATION_ITERS,
        "settings": settings,
    }


@pytest.mark.benchmark(group="engine")
def test_engine_throughput(benchmark):
    snaps = benchmark.pedantic(
        run_engine_profile, rounds=1, iterations=1
    )
    rows = []
    for label, snap in snaps.items():
        rows.append(
            [
                label,
                str(snap["requests_finished"]),
                str(snap["events_fired"]),
                f"{snap['wall_s']:.3f}",
                f"{snap['requests_per_s']:.0f}",
                f"{snap['events_per_s']:.0f}",
                f"{snap['requests_per_calibration']:.2f}",
            ]
        )
    table = format_table(
        ["setting", "requests", "events", "wall s", "req/s", "ev/s", "req/calib"],
        rows,
        title=(
            "Engine throughput: requests simulated per host wall-clock "
            "second (NullObserver with a PhaseProfiler — results "
            "byte-identical to an unobserved run)"
        ),
    )
    reports = "\n\n".join(snap["report"] for snap in snaps.values())
    print("\n" + table)
    print("\n" + reports)
    save_result("engine_throughput", table + "\n\n" + reports)
    save_json("BENCH_engine", baseline_payload(snaps))

    for label, snap in snaps.items():
        assert snap["requests_finished"] > 0, label
        assert snap["requests_per_s"] > 0, label
        assert snap["requests_finished"] == snap["sim_finished"], label
        # The hot-path sections must all have been exercised.
        for section in (
            "engine.batch_formation",
            "engine.link_load",
            "engine.controller_tick",
        ):
            assert section in snap["sections"], (label, section)
        assert snap["event_handlers"], label
        # Handler time is a subset of the bracketing run wall-clock.
        handler_s = sum(
            stat.total for stat in snap["event_handlers"].values()
        )
        assert handler_s <= snap["wall_s"] * 1.05, (
            label,
            handler_s,
            snap["wall_s"],
        )
