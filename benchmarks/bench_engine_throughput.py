"""Engine throughput — the simulator's own hot-path baseline.

Unlike the ``bench_fig*`` benches (which reproduce the *paper's*
numbers), this one measures the *reproduction*: how many requests per
host wall-clock second the discrete-event engine simulates, and where
its Python time goes (event-queue handlers by tag, batch formation,
link-load bookkeeping, controller ticks). The measurement harness is
:class:`repro.obs.SelfProfilingObserver` — a NullObserver carrying only
a :class:`~repro.obs.selfprof.SelfProfiler`, so the simulated *results*
stay byte-identical to an unobserved run and the throughput number
prices the simulator, not the telemetry.

Results land in ``engine_throughput.txt`` (tables) and
``BENCH_engine.json`` (the machine-readable perf baseline the CI
perf-smoke job gates on: a >25 % drop in requests-simulated/sec on
either topology fails the build). The ROADMAP's engine-vectorization
work is measured against this file.
"""

import pytest

from repro.core import SLA_SIM_CHATBOT, SLA_TESTBED_CHATBOT
from repro.baselines import HEROSERVE, build_system, simulate_trace
from repro.llm import A100, OPT_66B, OPT_175B, V100, CostModelBank
from repro.network import build_testbed, build_xtracks_cluster
from repro.obs import SelfProfiler, SelfProfilingObserver
from repro.serving import EngineConfig
from repro.util.rng import make_rng
from repro.workloads import generate_sharegpt_trace

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

SETTINGS = {
    "testbed OPT-66B": dict(
        builder=lambda: build_testbed(),
        model=OPT_66B,
        gpus={"A100": A100, "V100": V100},
        sla=SLA_TESTBED_CHATBOT,
        parallel=TESTBED_PARALLEL,
        rate=1.0,
    ),
    "2tracks OPT-175B": dict(
        builder=lambda: build_xtracks_cluster(2, n_units=1),
        model=OPT_175B,
        gpus={"A100": A100},
        sla=SLA_SIM_CHATBOT,
        parallel=CLUSTER_PARALLEL,
        rate=1.2,
    ),
}


def profile_setting(spec: dict) -> dict:
    """One profiled HeroServe run; returns the SelfProfiler snapshot."""
    built = spec["builder"]()
    trace = generate_sharegpt_trace(
        spec["rate"], DURATION, make_rng(BENCH_SEED)
    )
    system = build_system(
        HEROSERVE,
        built,
        spec["model"],
        CostModelBank(spec["model"], spec["gpus"]),
        spec["sla"],
        trace.representative_batch(8),
        arrival_rate=spec["rate"],
        forced_parallel=spec["parallel"],
    )
    selfprof = SelfProfiler()
    metrics = simulate_trace(
        system,
        trace,
        engine_config=EngineConfig(
            observer=SelfProfilingObserver(selfprof)
        ),
    )
    snap = selfprof.snapshot()
    snap["sim_finished"] = metrics.n_finished
    snap["report"] = selfprof.report()
    return snap


def run_engine_profile() -> dict[str, dict]:
    check_stable_hashing()
    return {
        label: profile_setting(spec)
        for label, spec in SETTINGS.items()
    }


def baseline_payload(snaps: dict[str, dict]) -> dict:
    """The BENCH_engine.json structure (see docs/PERFORMANCE.md).

    ``requests_per_s`` is the gated number; section/handler tables are
    recorded so a regression can be attributed without re-profiling.
    """
    settings = {}
    for label, snap in snaps.items():
        settings[label] = {
            "requests_per_s": round(snap["requests_per_s"], 1),
            "events_per_s": round(snap["events_per_s"], 1),
            "wall_s": round(snap["wall_s"], 4),
            "requests_finished": snap["requests_finished"],
            "events_fired": snap["events_fired"],
            "sections_ms": {
                name: round(row["total_s"] * 1e3, 3)
                for name, row in snap["sections"].items()
            },
            "event_handlers_ms": {
                name: round(row["total_s"] * 1e3, 3)
                for name, row in snap["event_handlers"].items()
            },
        }
    return {
        "seed": BENCH_SEED,
        "duration_s": DURATION,
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
            ]
        )
    table = format_table(
        ["setting", "requests", "events", "wall s", "req/s", "ev/s"],
        rows,
        title=(
            "Engine throughput: requests simulated per host wall-clock "
            "second (SelfProfilingObserver — results byte-identical "
            "to an unobserved run)"
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
            row["total_s"] for row in snap["event_handlers"].values()
        )
        assert handler_s <= snap["wall_s"] * 1.05, (
            label,
            handler_s,
            snap["wall_s"],
        )
