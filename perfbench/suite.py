"""The benchmark's workloads, built as ``repro.scenario`` spec dicts.

Every workload is an open loop: Poisson arrivals generated in simulated
time, so the generator is exact and never runs late. All inputs come from
the workload seed through :func:`derived_seeds`; the program receives only
the generated spec. Why each workload exists is recorded in README.md.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

#: Seed the recorded digests (``digests.json``) were made with.
DEFAULT_SEED = 7

#: ShareGPT medians with narrower log-normal shapes than the generator's
#: defaults (1.0 / 0.8). With the default shapes 2tracks at 1.2 req/s sits
#: on the knee: SLO attainment over five seeds ranged 0.42-0.96, which no
#: regression bound can hold. With these shapes it stayed within 0.98-0.99.
LENGTHS = {"input_sigma": 0.5, "output_sigma": 0.4}


@dataclass(frozen=True)
class Seeds:
    """Independent seeds derived from one workload seed."""

    trace: int
    planner: int
    background: int
    faults: int


def derived_seeds(seed: int, piece: int = 0) -> Seeds:
    """Trace, planner, background and fault seeds of one piece of the
    workload at ``seed``."""
    trace, planner, background, faults = (
        int(child.generate_state(1)[0])
        for child in np.random.SeedSequence([seed, piece]).spawn(4)
    )
    return Seeds(trace, planner, background, faults)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: ``pieces`` independent runs of a spec.

    A workload run is split into pieces so that one invocation times
    many whole runs (host noise needs averages over many) while the
    simulated metrics pool every piece's requests (a p99 tail needs
    >= 1,000; pooling about twice that steadies it across seeds).
    """

    name: str
    #: (seeds, arrival seconds) -> scenario spec dict of one piece
    make: Callable[[Seeds, float], dict]
    pieces: int
    #: simulated seconds of arrivals per piece at full size
    duration: float

    def spec(self, seed: int, piece: int, scale: float = 1.0) -> dict:
        """The scenario spec dict of one piece at ``scale`` x duration."""
        return self.make(derived_seeds(seed, piece), self.duration * scale)


def _steady(seeds: Seeds, duration: float) -> dict:
    return {
        "name": "steady-2tracks",
        "model": "OPT-175B",
        "topology": {"kind": "xtracks", "tracks": 2, "n_units": 1},
        "parallel": [16, 1, 16, 1],
        "slo": "sim-chatbot",
        "workload": {
            "generator": "sharegpt",
            "rate": 1.2,
            "duration": duration,
            "seed": seeds.trace,
            "params": dict(LENGTHS),
        },
    }


def _plan(seeds: Seeds, duration: float) -> dict:
    return {
        "name": "plan-8tracks",
        "model": "OPT-175B",
        "topology": {"kind": "xtracks", "tracks": 8, "n_units": 1},
        "slo": "sim-chatbot",
        "workload": {
            "generator": "sharegpt",
            "rate": 2.4,
            "duration": duration,
            "seed": seeds.trace,
            "params": dict(LENGTHS),
        },
    }


def _storm(seeds: Seeds, duration: float) -> dict:
    return {
        "name": "storm-testbed",
        "model": "OPT-66B",
        "topology": {"kind": "testbed"},
        "parallel": [8, 1, 8, 1],
        "slo": "testbed-chatbot",
        "workload": {
            "generator": "sharegpt",
            "rate": 1.5,
            "duration": duration,
            "seed": seeds.trace,
            "params": dict(LENGTHS),
        },
        # Bursts for the whole arrival window; ending them there lets
        # every burst release before the drain horizon.
        "background": {"seed": seeds.background, "until": duration},
        "faults": {
            "seed": seeds.faults,
            "events": [
                # Just after the last arrival, while decodes still run: a
                # prefill pass priced on the dead switch before detection
                # pays the INA timeout for its whole length (up to 46 s
                # TTFT seen), a rare event no regression bound can hold.
                {
                    "time": duration + 1.0,
                    "kind": "switch_down",
                    "target": "switch#0",
                    "duration": 5.0,
                },
                {
                    "time": 0.5 * duration,
                    "kind": "link_degrade",
                    "target": "link#4",
                    "duration": 0.1 * duration,
                    "factor": 0.5,
                    "loss": 0.05,
                },
            ],
        },
        "observer": {"flight": True, "attribution": True},
    }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("steady-2tracks", _steady, pieces=24, duration=75.0),
        Workload("plan-8tracks", _plan, pieces=8, duration=15.0),
        Workload("storm-testbed", _storm, pieces=24, duration=60.0),
    )
}
