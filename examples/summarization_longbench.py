#!/usr/bin/env python
"""Summarisation serving with LongBench-like long prompts.

The paper's second testbed workload (Fig. 7(c)/(d)): prompts of several
thousand tokens with short summaries, SLA 15 s TTFT / 0.15 s TPOT. Long
prompts make the prefill all-reduce payloads an order of magnitude
larger than the chatbot's (K_in * h bytes per synchronisation step), so
the communication-scheduling gap between systems widens — exactly the
paper's observation that HeroServe's TTFT advantage grows with input
length.

Run:  python examples/summarization_longbench.py [rate]
"""

import sys

from repro import ALL_SYSTEMS
from repro.core import SLA_TESTBED_SUMMARIZATION
from repro.scenario import ScenarioSpec, run_scenario
from repro.util import print_table


def main() -> None:
    rate = float(sys.argv[1]) if len(sys.argv) > 1 else 0.08
    results = [
        run_scenario(
            ScenarioSpec.from_dict(
                {
                    "name": "summarization-longbench",
                    "model": "OPT-66B",
                    "system": system.name,
                    "slo": "testbed-summarization",
                    "parallel": [8, 1, 8, 1],
                    "forecast_q": 4,
                    "workload": {
                        "generator": "longbench",
                        "rate": rate,
                        "duration": 120.0,
                        "seed": 17,
                    },
                }
            )
        )
        for system in ALL_SYSTEMS
    ]
    trace = results[0].trace
    stats = trace.stats()
    print(
        f"LongBench-like trace: {len(trace)} requests, "
        f"mean prompt {stats['input_mean']:.0f} tokens, "
        f"mean summary {stats['output_mean']:.0f} tokens"
    )
    rows = []
    for result in results:
        m = result.metrics
        rows.append(
            [
                result.spec.system,
                f"{m.attainment():.1%}",
                f"{m.mean_ttft():.2f}",
                f"{m.mean_tpot() * 1e3:.1f}",
                f"{m.mean_memory_utilization():.1%}",
            ]
        )
    print_table(
        ["system", "SLA att.", "TTFT s", "TPOT ms", "KV mem util"],
        rows,
        title=(
            f"OPT-66B summarisation on the testbed @ {rate} req/s "
            f"(SLA {SLA_TESTBED_SUMMARIZATION.ttft:.0f}s / "
            f"{SLA_TESTBED_SUMMARIZATION.tpot * 1e3:.0f}ms)"
        ),
    )


if __name__ == "__main__":
    main()
