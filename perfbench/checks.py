"""Output checks, request accounting and latency statistics.

A run's :class:`Outcome` is plain data reduced from the simulator's
results; :func:`check_outcome` lists every way it is wrong. Nothing here
imports the program, so the checks can be tested on hand-made outcomes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10
#: Percentiles a tail may be, in tenths of a percent, lowest first.
TAIL_PERMILLE = (900, 990, 999)


@dataclass
class Outcome:
    """What one simulated run produced, reduced to plain data."""

    #: request ids of the offered trace
    offered: list[int]
    #: (id, arrival, first_token_time, finish_time, output_len) per
    #: finished request, in finishing order
    finished: list[tuple[int, float, float, float, int]]
    #: ids the engine still held (queued or in flight) at the horizon
    held: list[int]
    #: requests the engine dropped (it counts them; ids are not kept)
    dropped: int
    #: link-tracker registrations still open at drain
    open_at_drain: int
    double_releases: int
    #: (ttft, tpot) SLO in simulated seconds
    slo: tuple[float, float]
    #: the deployment plan the run used
    plan: str

    def ttfts(self) -> list[float]:
        return [first - arr for _, arr, first, _, _ in self.finished]

    def tpots(self) -> list[float]:
        # Same definition as RequestState.tpot.
        return [
            (fin - first) / max(out - 1, 1)
            for _, _, first, fin, out in self.finished
        ]

    def slo_met(self) -> int:
        """Finished requests meeting both the TTFT and the TPOT SLO."""
        ttft_slo, tpot_slo = self.slo
        return sum(
            a <= ttft_slo and b <= tpot_slo
            for a, b in zip(self.ttfts(), self.tpots())
        )

    def digest(self) -> str:
        """SHA-256 over the exact per-request results (and the plan)."""
        payload = {
            "finished": sorted(
                [rid, arr.hex(), first.hex(), fin.hex(), out]
                for rid, arr, first, fin, out in self.finished
            ),
            "held": sorted(self.held),
            "dropped": self.dropped,
            "plan": self.plan,
        }
        blob = json.dumps(payload, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()


def check_outcome(out: Outcome, expected_digest: str | None) -> list[str]:
    """Every problem with ``out``; empty when the run is correct.

    ``expected_digest`` is compared when given (the default seed at full
    size); other runs are checked for accounting and sanity only.
    """
    problems: list[str] = []
    offered = set(out.offered)
    if len(offered) != len(out.offered):
        problems.append("duplicate request ids in the trace")
    finished_ids = [rec[0] for rec in out.finished]
    finished = set(finished_ids)
    if len(finished) != len(finished_ids):
        problems.append("a request finished more than once")
    if finished - offered:
        problems.append(
            f"{len(finished - offered)} finished ids were never offered"
        )
    held = set(out.held)
    if held & finished:
        problems.append(f"{len(held & finished)} ids both held and finished")
    if held - offered:
        problems.append(f"{len(held - offered)} held ids were never offered")
    # Whatever is neither finished nor held must be exactly the dropped
    # requests: finished + dropped + unfinished == offered, as id sets.
    missing = offered - finished - held
    if len(missing) != out.dropped:
        problems.append(
            f"accounting: {len(offered)} offered, {len(finished)} "
            f"finished, {len(held)} unfinished, {out.dropped} dropped; "
            f"{len(missing)} ids unaccounted for"
        )
    bad = sum(
        not (math.isfinite(x) and x >= 0.0)
        for x in out.ttfts() + out.tpots()
    )
    if bad:
        problems.append(f"{bad} latencies not finite and >= 0")
    if out.open_at_drain:
        problems.append(
            f"{out.open_at_drain} link registrations open at drain"
        )
    if out.double_releases:
        problems.append(f"{out.double_releases} double releases")
    if expected_digest is not None and out.digest() != expected_digest:
        problems.append("digest differs from the one recorded")
    return problems


def slo_attainment(outcomes: list[Outcome]) -> float:
    """Share of *offered* requests meeting both SLOs (paper §V-A).

    Dropped requests and requests unfinished at the horizon are misses:
    the denominator is every offered request, not the finished ones.
    """
    offered = sum(len(o.offered) for o in outcomes)
    met = sum(o.slo_met() for o in outcomes)
    return met / offered if offered else 0.0


def median_and_tail(values: list[float]) -> dict[str, float]:
    """Median and the highest of p90, p99 and p99.9 that leaves
    TAIL_BEYOND samples beyond it.

    A percentile is the order statistic with exactly its share of the
    samples beyond it. With fewer than 100 samples the tail is p90 and
    its ``beyond`` count says how few samples lie past it.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(values)
    permille = TAIL_PERMILLE[0]
    for candidate in TAIL_PERMILLE:
        if n * (1000 - candidate) // 1000 >= TAIL_BEYOND:
            permille = candidate
    beyond = n * (1000 - permille) // 1000
    return {
        "p50": float(np.percentile(ordered, 50)),
        "tail": float(ordered[n - beyond - 1]),
        "tail_percentile": permille / 10,
        "beyond": beyond,
        "n": n,
    }
