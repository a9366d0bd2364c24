"""Fig. 10 — Memory efficiency of storing KV cache.

Paper: serving the summarisation workload (OPT-175B, 0.07 req/s per
deployment) on the 2tracks and 8tracks clusters, HeroServe consistently
keeps the lowest KV-cache memory utilisation: its faster transfers and
token generation "result in more frequent KV cache refreshes, reducing
memory usage", keeping fewer concurrent requests resident.

We regenerate the per-system mean/peak utilisation of the decode
cluster's KV pool over the run.
"""

from dataclasses import astuple

import pytest

from repro.scenario import ScenarioSpec, build_runtime, make_observer, simulate

from common import (
    CLUSTER_PARALLEL,
    SYSTEM_ORDER,
    assert_matches_baseline,
    bench_seed,
    dump_observation,
    maybe_scenario_observer,
    plan_all_systems,
    save_result,
)
from repro.util.tables import format_table

RATE = 0.07  # the figure's request rate
DURATION = 600.0


def run_tracks(tracks: int) -> dict[str, dict[str, float]]:
    spec = ScenarioSpec.from_dict(
        {
            "name": f"fig10-{tracks}tracks",
            "model": "OPT-175B",
            "topology": {"kind": "xtracks", "tracks": tracks, "n_units": 1},
            "slo": "sim-summarization",
            "parallel": astuple(CLUSTER_PARALLEL),
            "forecast_q": 4,
            "workload": {
                "generator": "longbench",
                "rate": RATE,
                "duration": DURATION,
                "seed": bench_seed(10),
            },
            "observer": maybe_scenario_observer(),
        }
    )
    rt = build_runtime(spec)
    systems = plan_all_systems(rt)
    out: dict[str, dict[str, float]] = {}
    for name in SYSTEM_ORDER:
        observer = make_observer(spec.observer)
        m = simulate(spec, systems[name], rt.trace, observer)
        dump_observation(
            f"fig10_{tracks}tracks-{name.lower()}", observer, m
        )
        out[name] = {
            "mean_util": m.mean_memory_utilization(),
            "peak_util": m.peak_memory_utilization(),
            "mean_tpot": m.mean_tpot(),
            "finished": float(m.n_finished),
        }
    return out


@pytest.mark.benchmark(group="fig10")
@pytest.mark.parametrize("tracks", [2, 8])
def test_fig10_memory_efficiency(benchmark, tracks):
    res = benchmark.pedantic(
        run_tracks, args=(tracks,), rounds=1, iterations=1
    )
    rows = [
        [
            n,
            f"{res[n]['mean_util']:.1%}",
            f"{res[n]['peak_util']:.1%}",
            f"{res[n]['mean_tpot'] * 1e3:.1f}",
            int(res[n]["finished"]),
        ]
        for n in SYSTEM_ORDER
    ]
    table = format_table(
        ["system", "mean KV util", "peak KV util", "TPOT ms", "finished"],
        rows,
        title=(
            f"Fig. 10 — KV-cache memory utilisation, {tracks}tracks, "
            f"summarisation OPT-175B @ {RATE} req/s\n"
            "paper: HeroServe consistently lowest"
        ),
    )
    print("\n" + table)
    assert_matches_baseline(f"fig10_{tracks}tracks", table)
    save_result(f"fig10_{tracks}tracks", table)

    hero = res["HeroServe"]["mean_util"]
    for name in ("DistServe", "DS-ATP", "DS-SwitchML"):
        assert hero <= res[name]["mean_util"] * 1.02, name
    assert hero < res["DistServe"]["mean_util"]
