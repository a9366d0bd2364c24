"""Ablations on the offline planner's design choices.

Two of the knobs DESIGN.md calls out:

* **random-swap perturbation** (Algorithm 2 step 3) — on vs off: the
  perturbation must never worsen the estimated network latency and the
  paper reports convergence within ~5 rounds;
* **max_candi** (Algorithm 1 step 1) — the paper: "setting max_candi =
  twenty usually yields near-optimal solutions"; we sweep the cap and
  check H(20) is within a few percent of the exhaustive optimum while
  solving faster.
"""

import pytest

from repro.comm import CommContext, SchemeKind
from repro.core import SLA_TESTBED_CHATBOT, OfflinePlanner, PlannerConfig
from repro.core.netestimate import estimate_network_latency
from repro.llm import A100, OPT_66B, V100, BatchSpec, CostModelBank
from repro.network import build_testbed
from repro.util.rng import make_rng
from repro.util.tables import format_table

from common import save_result


def run_perturbation_ablation():
    built = build_testbed()
    ctx = CommContext.from_built(built, heterogeneous=True)
    gpus = built.topology.gpu_ids()
    out = []
    # TP6 groups cannot fit a 4-GPU server, so the greedy balanced
    # k-means assignment has genuine room for the swap polish to help
    # (groups of <= 4 land on single servers and are already optimal).
    for seed in range(6):
        base = estimate_network_latency(
            ctx, gpus, 6, 2, OPT_66B, tokens=2048,
            scheme=SchemeKind.HYBRID, rng=make_rng(seed), perturb=False,
        )
        tuned = estimate_network_latency(
            ctx, gpus, 6, 2, OPT_66B, tokens=2048,
            scheme=SchemeKind.HYBRID, rng=make_rng(seed), perturb=True,
        )
        out.append((seed, base.t_network, tuned.t_network))
    return out


@pytest.mark.benchmark(group="ablation")
def test_ablation_perturbation(benchmark):
    rows_raw = benchmark.pedantic(
        run_perturbation_ablation, rounds=1, iterations=1
    )
    rows = [
        [
            seed,
            f"{t0 * 1e3:.2f}",
            f"{t1 * 1e3:.2f}",
            f"{(1 - t1 / t0):.1%}" if t0 > 0 else "-",
        ]
        for seed, t0, t1 in rows_raw
    ]
    table = format_table(
        ["seed", "T_n no-perturb ms", "T_n perturb ms", "improvement"],
        rows,
        title=(
            "Ablation — Algorithm 2 random-swap perturbation "
            "(TP6 x PP2 over the whole testbed)"
        ),
    )
    print("\n" + table)
    save_result("ablation_perturbation", table)
    for _, t0, t1 in rows_raw:
        assert t1 <= t0 * (1 + 1e-9)  # never worse
    # It must actually help for at least some initialisations.
    assert any(t1 < t0 * 0.999 for _, t0, t1 in rows_raw)


def run_maxcandi_sweep():
    built = build_testbed()
    bank = CostModelBank(OPT_66B, {"A100": A100, "V100": V100})
    ctx = CommContext.from_built(built, heterogeneous=True)
    batch = BatchSpec.uniform(8, 256, 220)
    out = []
    for cap in (2, 5, 10, 20, 60):
        planner = OfflinePlanner(
            ctx, OPT_66B, bank, SLA_TESTBED_CHATBOT, SchemeKind.HYBRID,
            config=PlannerConfig(max_candi=cap),
        )
        rep = planner.plan(batch, arrival_rate=0.5)
        out.append(
            (
                cap,
                rep.wall_time,
                rep.plan.scalability if rep.plan else 0.0,
            )
        )
    return out


@pytest.mark.benchmark(group="ablation")
def test_ablation_max_candi(benchmark):
    res = benchmark.pedantic(run_maxcandi_sweep, rounds=1, iterations=1)
    best_h = max(h for _, _, h in res)
    rows = [
        [cap, f"{t:.2f}", f"{h:.4f}", f"{h / best_h:.1%}"]
        for cap, t, h in res
    ]
    table = format_table(
        ["max_candi", "solve s", "best H", "vs optimum"],
        rows,
        title=(
            "Ablation — candidate cap (paper: max_candi = 20 is "
            "usually near-optimal)"
        ),
    )
    print("\n" + table)
    save_result("ablation_max_candi", table)
    h20 = next(h for cap, _, h in res if cap == 20)
    assert h20 >= 0.97 * best_h  # 20 candidates ~ near-optimal
