#!/usr/bin/env python
"""Quickstart: plan and serve OPT-66B on the paper's testbed.

Builds the Fig. 6 testbed (2 A100 + 2 V100 servers, two programmable
switches), runs HeroServe's offline planner for a ShareGPT-like chatbot
workload, simulates a minute of traffic, and prints the plan plus the
latency/SLA metrics the paper reports. The whole run is one declarative
scenario spec (``repro.testbed_spec``; docs/SCENARIOS.md).

Run:  python examples/quickstart.py
"""

from repro import SLA_TESTBED_CHATBOT, testbed_spec
from repro.obs import write_report
from repro.scenario import run_scenario
from repro.util import print_table, units


def main() -> None:
    rate = 1.0  # requests/s offered to the deployment
    # A minute of chatbot traffic, observed with SLO burn-rate alerts
    # and flight-recorder samples.
    spec = testbed_spec(
        rate,
        60.0,
        seed=0,
        observer={
            "flight": True,
            "slo": {
                "ttft": SLA_TESTBED_CHATBOT.ttft,
                "tpot": SLA_TESTBED_CHATBOT.tpot,
            },
        },
    )
    result = run_scenario(spec)
    print(result.system.built.topology.summary())
    print()
    print("Offline plan")
    print("------------")
    print(result.system.plan.summary())
    print()

    s = result.metrics.summary()
    print_table(
        ["metric", "value"],
        [
            ["requests served", int(s["finished"])],
            ["SLA attainment", f"{s['attainment']:.1%}"],
            ["mean TTFT", units.fmt_seconds(s["mean_ttft_s"])],
            ["p90 TTFT", units.fmt_seconds(s["p90_ttft_s"])],
            ["mean TPOT", units.fmt_seconds(s["mean_tpot_s"])],
            ["mean KV-memory utilisation", f"{s['mean_mem_util']:.1%}"],
            ["prefill batches", int(s["prefill_batches"])],
            ["decode iterations", int(s["decode_iterations"])],
        ],
        title=f"HeroServe on the testbed, chatbot @ {rate} req/s",
    )

    # One self-contained HTML dashboard for the run we just observed.
    write_report("report.html", observer=result.observer,
                 serving_metrics=result.metrics,
                 title=f"quickstart — HeroServe @ {rate} req/s")
    print("\nwrote report.html")


if __name__ == "__main__":
    main()
