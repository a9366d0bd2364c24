"""Fig. 8 — Large-scale simulation: scalability/latency, OPT-175B.

Paper: on APEX-simulated clusters (2tracks and 8tracks wiring), HeroServe
improves scalability by 1.12-1.94x (2tracks) and 1.09-1.83x (8tracks)
over the baselines, and cuts per-token delay by 28.4-42.1 %; the 2tracks
fabric is core-constrained, so the Ethernet-only INA baselines suffer
extra congestion there.

Our rendition runs a scaled miniature of each wiring (one unit of the
paper's layout, 8-GPU A100 servers) with the cross-server TP16
deployment, sweeping offered rate under the simulation SLAs (4 s TTFT /
0.2 s TPOT chatbot).
"""

from dataclasses import astuple

import pytest

from repro.scenario import ScenarioSpec, build_runtime

from common import (
    CLUSTER_PARALLEL,
    assert_matches_baseline,
    bench_seed,
    maybe_scenario_observer,
    save_result,
    scalability_summary,
    sweep_systems,
    sweep_table,
)

RATES = [0.6, 0.9, 1.2, 1.5, 1.65, 1.8, 1.95, 2.1]
DURATION = 90.0


def run_tracks(tracks: int):
    """Plan every system at the mid rate, then sweep all rates."""
    spec = ScenarioSpec.from_dict(
        {
            "name": f"fig8-{tracks}tracks",
            "model": "OPT-175B",
            "topology": {"kind": "xtracks", "tracks": tracks, "n_units": 1},
            "slo": "sim-chatbot",
            "parallel": astuple(CLUSTER_PARALLEL),
            "workload": {
                "generator": "sharegpt",
                "rate": RATES[len(RATES) // 2],
                "duration": DURATION,
                "seed": bench_seed(8),
            },
            "observer": maybe_scenario_observer(),
        }
    )
    return sweep_systems(
        build_runtime(spec), RATES, obs_prefix=f"fig8_{tracks}tracks"
    )


@pytest.mark.benchmark(group="fig8")
@pytest.mark.parametrize("tracks", [2, 8])
def test_fig8_scalability(benchmark, tracks):
    points = benchmark.pedantic(
        run_tracks, args=(tracks,), rounds=1, iterations=1
    )
    n_gpus = CLUSTER_PARALLEL.total_gpus
    table = sweep_table(
        points,
        n_gpus,
        f"Fig. 8 — {tracks}tracks miniature, OPT-175B chatbot "
        f"(SLA {4}s TTFT / 200ms TPOT)",
    )
    band = "1.12-1.94x" if tracks == 2 else "1.09-1.83x"
    summary, maxima = scalability_summary(
        points, f"scalability (paper {tracks}tracks: {band})"
    )
    # Paper: TPOT down 28.4-42.1% at scale; report at the mid rate.
    mid = RATES[len(RATES) // 2]
    hero = next(
        p for p in points if p.system == "HeroServe" and p.rate == mid
    )
    reductions = {
        n: 1.0
        - hero.mean_tpot
        / next(
            p for p in points if p.system == n and p.rate == mid
        ).mean_tpot
        for n in ("DistServe", "DS-ATP", "DS-SwitchML")
    }
    text = (
        table
        + "\n\n"
        + summary
        + f"\n\nTPOT reduction at {mid} req/s "
        "(paper: 28.4-42.1%): "
        + ", ".join(f"{k}: {v:.1%}" for k, v in reductions.items())
    )
    print("\n" + text)
    assert_matches_baseline(f"fig8_{tracks}tracks", text)
    save_result(f"fig8_{tracks}tracks", text)

    assert maxima["HeroServe"] > 0
    for name in ("DistServe", "DS-ATP", "DS-SwitchML"):
        assert maxima["HeroServe"] >= maxima[name], name
    assert maxima["HeroServe"] > maxima["DistServe"]
    assert reductions["DistServe"] > 0.05
