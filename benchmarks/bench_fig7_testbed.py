"""Fig. 7 — Testbed scalability and latency, OPT-66B.

Four panels in the paper:

* (a)/(b) chatbot (ShareGPT, SLA 2.5 s TTFT / 0.15 s TPOT): HeroServe's
  max per-GPU rate at 90 % SLA attainment is 1.53x / 1.42x / 1.33x that
  of DistServe / DS-ATP / DS-SwitchML, and TPOT drops 18.6-49.2 %.
* (c)/(d) summarisation (LongBench, SLA 15 s / 0.15 s): 1.68x / 1.58x /
  1.35x, TTFT down 15.2-45.2 %, TPOT down 11.2-27.3 %.

All systems run the paper's cross-server deployment (TP8 prefill on one
server pair, TP8 decode on the other) and replay identical traces; the
sweep reports SLA attainment per offered rate, the max passing rate and
HeroServe's improvement factors.
"""

from dataclasses import astuple

import pytest

from repro.scenario import ScenarioSpec, build_runtime

from common import (
    TESTBED_PARALLEL,
    assert_matches_baseline,
    bench_seed,
    maybe_scenario_observer,
    save_result,
    scalability_summary,
    sweep_systems,
    sweep_table,
)

CHATBOT_RATES = [1.5, 2.0, 2.5, 2.75, 3.0, 3.25, 3.5, 3.75]
SUMMARIZATION_RATES = [0.04, 0.06, 0.07, 0.08, 0.09, 0.10, 0.11]
DURATION = 80.0


def run_workload(workload: str):
    """Plan every system at the mid rate, then sweep all rates."""
    if workload == "chatbot":
        generator, rates, duration = "sharegpt", CHATBOT_RATES, DURATION
    else:
        generator, rates, duration = (
            "longbench", SUMMARIZATION_RATES, 4 * DURATION
        )
    spec = ScenarioSpec.from_dict(
        {
            "name": f"fig7-{workload}",
            "model": "OPT-66B",
            "slo": f"testbed-{workload}",
            "parallel": astuple(TESTBED_PARALLEL),
            "workload": {
                "generator": generator,
                "rate": rates[len(rates) // 2],
                "duration": duration,
                "seed": bench_seed(3),
            },
            "observer": maybe_scenario_observer(),
        }
    )
    points = sweep_systems(
        build_runtime(spec), rates, obs_prefix=f"fig7_{workload}"
    )
    return points, TESTBED_PARALLEL.total_gpus


def tpot_reduction(points, rate, other):
    hero = next(
        p for p in points if p.system == "HeroServe" and p.rate == rate
    )
    base = next(
        p for p in points if p.system == other and p.rate == rate
    )
    return 1.0 - hero.mean_tpot / base.mean_tpot


@pytest.mark.benchmark(group="fig7")
def test_fig7a_b_chatbot(benchmark):
    points, n_gpus = benchmark.pedantic(
        run_workload, args=("chatbot",), rounds=1, iterations=1
    )
    table = sweep_table(
        points, n_gpus, "Fig. 7(a)/(b) — chatbot, OPT-66B testbed"
    )
    summary, maxima = scalability_summary(
        points,
        "scalability (paper: 1.53x / 1.42x / 1.33x over "
        "DistServe / DS-ATP / DS-SwitchML)",
    )
    mid = CHATBOT_RATES[2]
    reductions = {
        n: tpot_reduction(points, mid, n)
        for n in ("DistServe", "DS-ATP", "DS-SwitchML")
    }
    text = (
        table
        + "\n\n"
        + summary
        + "\n\nTPOT reduction at "
        + f"{mid} req/s (paper: 18.6-49.2%): "
        + ", ".join(f"{k}: {v:.1%}" for k, v in reductions.items())
    )
    print("\n" + text)
    assert_matches_baseline("fig7ab_chatbot", text)
    save_result("fig7ab_chatbot", text)

    # Shape: HeroServe sustains the highest rate, DistServe the lowest.
    assert maxima["HeroServe"] >= maxima["DS-SwitchML"]
    assert maxima["HeroServe"] >= maxima["DS-ATP"]
    assert maxima["HeroServe"] > maxima["DistServe"]
    assert maxima["HeroServe"] / maxima["DistServe"] > 1.15
    # TPOT reductions in (or near) the paper's band.
    assert reductions["DistServe"] > 0.10
    assert all(v > 0.0 for v in reductions.values())


@pytest.mark.benchmark(group="fig7")
def test_fig7c_d_summarization(benchmark):
    points, n_gpus = benchmark.pedantic(
        run_workload, args=("summarization",), rounds=1, iterations=1
    )
    table = sweep_table(
        points, n_gpus, "Fig. 7(c)/(d) — summarisation, OPT-66B testbed"
    )
    summary, maxima = scalability_summary(
        points,
        "scalability (paper: 1.68x / 1.58x / 1.35x over "
        "DistServe / DS-ATP / DS-SwitchML)",
    )
    mid = SUMMARIZATION_RATES[2]
    hero = next(
        p
        for p in points
        if p.system == "HeroServe" and p.rate == mid
    )
    dist = next(
        p
        for p in points
        if p.system == "DistServe" and p.rate == mid
    )
    ttft_red = 1.0 - hero.mean_ttft / dist.mean_ttft
    text = (
        table
        + "\n\n"
        + summary
        + f"\n\nTTFT reduction vs DistServe at {mid} req/s "
        f"(paper: 15.2-45.2%): {ttft_red:.1%}"
    )
    print("\n" + text)
    assert_matches_baseline("fig7cd_summarization", text)
    save_result("fig7cd_summarization", text)

    assert maxima["HeroServe"] >= maxima["DistServe"]
    assert ttft_red > 0.10
