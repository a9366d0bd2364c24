"""What-if profiler baseline — the ranked bottleneck ladder per topology.

Runs :class:`repro.obs.WhatIfProfiler` end-to-end (observed baseline,
analytic catalog ranking, counterfactual re-simulation of every
intervention) on the two pinned operating points the tolerances were
measured at, and records the top-3 interventions per topology in
``BENCH_whatif.json``. The checked-in file is the answer to "what should
I upgrade first?" on each topology — docs/PERFORMANCE.md points here
before any optimisation work — and the validation assertion keeps the
analytic estimator honest against the simulator as both evolve.

With ``--obs-dir`` the full ladder lands as ``<label>-whatif.json``
alongside the other telemetry dumps.
"""

import json

import pytest

from repro.obs import (
    WHATIF_SETTINGS,
    WhatIfProfiler,
    render_ladder,
    whatif_spec,
)
from repro.scenario import ScenarioSpec, build_runtime, plan_system

import common
from common import (
    BENCH_SEED,
    assert_matches_baseline,
    check_stable_hashing,
    obs_path,
    save_json,
    save_result,
)

TOP_K = 3


def profile_setting(label: str):
    """One validated what-if ladder at a pinned operating point
    (``WHATIF_SETTINGS``, shared with ``python -m repro whatif``);
    returns (result, payload)."""
    spec = ScenarioSpec.from_dict(whatif_spec(label, seed=BENCH_SEED))
    rt = build_runtime(spec)
    system = plan_system(rt)
    result = WhatIfProfiler(system, rt.trace).ladder(validate=True)
    payload = result.to_payload(
        meta={
            "topology": label,
            "system": system.spec.name,
            "rate": spec.workload.rate,
            "duration": spec.workload.duration,
            "seed": BENCH_SEED,
        }
    )
    if common.OBS_DIR is not None:
        with open(obs_path(f"{label}-whatif.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return result, payload


def baseline_payload(results: dict) -> dict:
    """The BENCH_whatif.json structure: top-K ladder per topology."""
    settings = {}
    for label, (result, payload) in results.items():
        settings[label] = {
            "baseline": payload["baseline"],
            "max_rel_error": max(
                (
                    row["rel_error"]
                    for row in payload["interventions"]
                    if "rel_error" in row
                ),
                default=0.0,
            ),
            "top": [
                {
                    "key": row["intervention"]["key"],
                    "label": row["intervention"]["label"],
                    "d_p99_ttft_s": row["delta"]["p99_ttft_s"],
                    "d_throughput_rps": row["delta"]["throughput_rps"],
                    "resim_d_p99_ttft_s": row["resim_delta"][
                        "p99_ttft_s"
                    ],
                    "rel_error": row["rel_error"],
                }
                for row in payload["interventions"][:TOP_K]
            ],
        }
    return {"seed": BENCH_SEED, "top_k": TOP_K, "settings": settings}


@pytest.mark.benchmark(group="whatif")
def test_whatif_ladder(benchmark):
    check_stable_hashing()
    results = benchmark.pedantic(
        lambda: {label: profile_setting(label) for label in WHATIF_SETTINGS},
        rounds=1,
        iterations=1,
    )
    ladders = "\n\n".join(
        f"== {label} ==\n" + render_ladder(result)
        for label, (result, _) in results.items()
    )
    print("\n" + ladders)
    assert_matches_baseline("whatif_ladder", ladders)
    save_result("whatif_ladder", ladders)
    save_json("BENCH_whatif", baseline_payload(results))

    for label, (result, payload) in results.items():
        assert result.baseline.n_requests > 0, label
        # The analytic estimator must agree with the counterfactual
        # re-simulation on every catalog entry at the pinned settings.
        assert result.validated and result.all_within_tolerance, (
            label,
            render_ladder(result),
        )
        # The ladder must rank something actionable at the top.
        top = payload["interventions"][0]
        assert top["delta"]["p99_ttft_s"] > 0, (label, top)
