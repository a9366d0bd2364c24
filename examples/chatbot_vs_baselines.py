#!/usr/bin/env python
"""Chatbot serving: HeroServe vs DistServe / DS-ATP / DS-SwitchML.

A small-scale rendition of the Fig. 7(a)/(b) comparison: all four systems
are deployed with the paper's cross-server parallelism (TP8 prefill on
the A100 servers, TP8 decode on the V100 servers) and replay the same
ShareGPT-like trace; the table shows why HeroServe's hybrid scheduling
wins — lower synchronisation latency, hence lower TTFT/TPOT and higher
SLA attainment at the same rate. Each run is one scenario spec that
differs only in its ``system`` field.

Run:  python examples/chatbot_vs_baselines.py [rate]
"""

import sys

from repro import ALL_SYSTEMS, testbed_spec
from repro.scenario import run_scenario
from repro.util import print_table


def main() -> None:
    rate = float(sys.argv[1]) if len(sys.argv) > 1 else 1.2
    rows = []
    for system in ALL_SYSTEMS:
        # The paper's evaluated regime: tensor parallelism spanning
        # servers.
        result = run_scenario(
            testbed_spec(
                rate, 90.0, seed=7, system=system.name, parallel=[8, 1, 8, 1]
            )
        )
        m = result.metrics
        rows.append(
            [
                system.name,
                f"{m.attainment():.1%}",
                f"{m.mean_ttft() * 1e3:.0f}",
                f"{m.p90_ttft() * 1e3:.0f}",
                f"{m.mean_tpot() * 1e3:.1f}",
                f"{m.p90_tpot() * 1e3:.1f}",
            ]
        )
    print_table(
        ["system", "SLA att.", "TTFT ms", "p90 TTFT", "TPOT ms", "p90 TPOT"],
        rows,
        title=(
            f"OPT-66B chatbot on the testbed @ {rate} req/s "
            f"({len(result.trace)} requests, TP8 prefill / TP8 decode)"
        ),
    )
    print(
        "HeroServe offloads tensor-parallel synchronisation onto NVLink\n"
        "and aggregates at the nearest switch; the baselines push every\n"
        "byte over 100G Ethernet."
    )


if __name__ == "__main__":
    main()
