"""Per-request critical-path attribution (:mod:`repro.obs.attribution`).

The tentpole invariant is the *exact telescoping decomposition*: every
finished request's named components — queue wait, fault redo, prefill
compute/allreduce, KV transfer, KV retry backoff, decode wait/compute/
allreduce — sum to its measured end-to-end latency (TTFT + decode time)
to float rounding, on the testbed and the 2tracks cluster, across
seeds, and under fault injection. Attribution is opt-in: it must change
nothing about the serving result, only annotate it (flat ``cp_*``
summary keys), and requests that retried or requeued must be neither
orphaned nor double-counted.
"""

from __future__ import annotations

import json
import math

import pytest

from repro import (
    HEROSERVE,
    SLA_TESTBED_CHATBOT,
    OPT_66B,
    CostModelBank,
    Observer,
    build_system,
    generate_sharegpt_trace,
    quick_testbed,
    simulate_trace,
)
from repro.core import SLA_SIM_CHATBOT
from repro.core.plan import ParallelConfig
from repro.faults import FaultEvent, FaultPlan
from repro.llm import A100, V100, OPT_175B
from repro.network import build_xtracks_cluster
from repro.obs import (
    CRITICAL_PATH_COMPONENTS,
    AttributionCollector,
    render_waterfall,
    render_waterfalls,
)
from repro.serving import EngineConfig
from repro.util.rng import make_rng

#: Decomposition is exact by construction; tolerances absorb only the
#: accumulated float rounding of the component subtractions.
REL_TOL = 1e-9
ABS_TOL = 1e-9


def run_testbed(seed: int, fault_plan=None, duration: float = 20.0):
    att = AttributionCollector()
    observer = Observer(attribution=att)
    _, metrics = quick_testbed(
        rate=1.0,
        duration=duration,
        seed=seed,
        observer=observer,
        faults=None if fault_plan is None else fault_plan.to_dict(),
    )
    return att, metrics


def run_2tracks(seed: int, duration: float = 20.0):
    built = build_xtracks_cluster(2, n_units=1)
    bank = CostModelBank(OPT_175B, {"A100": A100})
    trace = generate_sharegpt_trace(1.2, duration, make_rng(seed))
    system = build_system(
        HEROSERVE,
        built,
        OPT_175B,
        bank,
        SLA_SIM_CHATBOT,
        trace.representative_batch(8),
        arrival_rate=1.2,
        forced_parallel=ParallelConfig(16, 1, 16, 1),
    )
    att = AttributionCollector()
    observer = Observer(attribution=att)
    metrics = simulate_trace(
        system, trace, engine_config=EngineConfig(observer=observer)
    )
    return att, metrics


def assert_exact_decomposition(att: AttributionCollector) -> None:
    assert att.finished, "no requests attributed"
    for a in att.finished:
        assert set(a.components) == set(CRITICAL_PATH_COMPONENTS)
        assert all(v >= 0.0 for v in a.components.values()), a
        total = sum(a.components.values())
        assert math.isclose(
            total, a.total, rel_tol=REL_TOL, abs_tol=ABS_TOL
        ), (a.request_id, total, a.total)
        assert math.isclose(
            a.total,
            a.ttft + a.decode_latency,
            rel_tol=REL_TOL,
            abs_tol=ABS_TOL,
        )


class TestExactDecomposition:
    """Components telescope to the measured latency — the sum property."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_testbed_sum_property(self, seed):
        att, metrics = run_testbed(seed)
        assert_exact_decomposition(att)
        assert len(att.finished) == metrics.n_finished

    @pytest.mark.parametrize("seed", [0, 5])
    def test_2tracks_sum_property(self, seed):
        att, metrics = run_2tracks(seed)
        assert_exact_decomposition(att)
        assert len(att.finished) == metrics.n_finished

    def test_no_orphans_or_double_counting(self):
        att, metrics = run_testbed(0)
        finished_ids = [a.request_id for a in att.finished]
        # each request attributed exactly once ...
        assert len(finished_ids) == len(set(finished_ids))
        # ... and a finished request never lingers as a live timeline
        assert not (set(att.live) & set(finished_ids))

    def test_budget_shares_sum_to_one(self):
        att, _ = run_testbed(0)
        budget = att.budget()
        assert set(budget) == set(CRITICAL_PATH_COMPONENTS)
        assert math.isclose(
            sum(s["share"] for s in budget.values()), 1.0, rel_tol=1e-9
        )
        for stats in budget.values():
            assert stats["p50"] <= stats["p99"] + ABS_TOL

    def test_deterministic_across_runs(self):
        att1, _ = run_testbed(2)
        att2, _ = run_testbed(2)
        c1 = [(a.request_id, a.components) for a in att1.finished]
        c2 = [(a.request_id, a.components) for a in att2.finished]
        assert json.dumps(c1, sort_keys=True) == json.dumps(
            c2, sort_keys=True
        )


class TestSummaryIntegration:
    """Fleet budget lands as flat ``cp_*`` keys — and only opt-in."""

    def test_cp_keys_in_summary(self):
        att, metrics = run_testbed(0)
        summary = metrics.summary()
        assert summary["cp_requests"] == float(len(att.finished))
        for name in CRITICAL_PATH_COMPONENTS:
            assert f"cp_{name}_p50_s" in summary
            assert f"cp_{name}_p99_s" in summary

    def test_summary_unchanged_without_attribution(self):
        _, plain = quick_testbed(rate=1.0, duration=20.0, seed=0)
        _, attributed = run_testbed(0)
        att_summary = attributed.summary()
        stripped = {
            k: v
            for k, v in att_summary.items()
            if not k.startswith("cp_")
        }
        assert json.dumps(stripped, sort_keys=True) == json.dumps(
            plain.summary(), sort_keys=True
        )


class TestAllreduceDetail:
    """Per-policy shares carry the congested link/switch they priced."""

    def test_shares_populated_with_bottleneck(self):
        att, _ = run_testbed(0)
        shares = [s for a in att.finished for s in a.allreduce]
        assert shares, "no allreduce shares recorded"
        for s in shares:
            assert s.policy
            assert s.phase in ("prefill", "decode")
            assert s.seconds >= 0.0
            assert s.count >= 1
        assert any(s.seconds > 0.0 for s in shares)
        linked = [s for s in shares if s.bottleneck_link is not None]
        assert linked, "no share recorded a bottleneck link"
        for s in linked:
            assert s.bottleneck_kind
            assert 0.0 <= s.bottleneck_util <= 1.0

    def test_describe_names_link(self):
        att, _ = run_testbed(0)
        share = next(
            s
            for a in att.finished
            for s in a.allreduce
            if s.bottleneck_link is not None
        )
        text = share.describe()
        assert share.policy in text
        assert f"link {share.bottleneck_link}" in text
        assert share.bottleneck_kind in text

    def test_shares_sorted_descending(self):
        att, _ = run_testbed(0)
        for a in att.finished:
            secs = [s.seconds for s in a.allreduce]
            assert secs == sorted(secs, reverse=True)


class TestWaterfallRendering:
    def test_single_waterfall(self):
        att, _ = run_testbed(0)
        slowest = att.slowest(1)[0]
        text = render_waterfall(slowest)
        assert f"request {slowest.request_id}" in text
        assert "dominant:" in text
        assert slowest.dominant[0] in text

    def test_fleet_waterfalls_name_link(self):
        att, _ = run_testbed(0)
        text = render_waterfalls(att, slowest=3)
        assert "critical-path budget" in text
        assert "slowest 3 requests" in text
        assert "dominant:" in text
        # the comm-path line pins the decision to a concrete link
        assert "via link" in text

    def test_empty_collector(self):
        assert "no finished requests" in render_waterfalls(
            AttributionCollector()
        )


class TestAttributionUnderFaults:
    """Retry backoff and requeue redo surface as distinct components."""

    DECODE_CRASH = FaultPlan(
        events=(
            FaultEvent(
                time=2.0,
                kind="server_down",
                target="server#0",
                duration=2.0,
            ),
        ),
        seed=0,
    )
    PREFILL_CRASH = FaultPlan(
        events=(
            FaultEvent(
                time=2.0,
                kind="server_down",
                target="server#2",
                duration=3.0,
            ),
        ),
        seed=0,
    )

    def test_kv_retry_backoff_attributed(self):
        att, metrics = run_testbed(
            0, fault_plan=self.DECODE_CRASH, duration=12.0
        )
        assert metrics.fault_stats.kv_retries >= 1
        retried = [a for a in att.finished if a.kv_retries > 0]
        assert retried, "no attributed request recorded a KV retry"
        for a in retried:
            # the backoff wait is its own component, not folded into
            # the transfer itself
            assert a.components["kv_retry_backoff"] > 1e-3, a
        # and the decomposition stays exact under the fault
        assert_exact_decomposition(att)

    def test_prefill_redo_attributed(self):
        att, metrics = run_testbed(
            0, fault_plan=self.PREFILL_CRASH, duration=12.0
        )
        assert metrics.fault_stats.requests_lost >= 1
        requeued = [a for a in att.finished if a.requeues > 0]
        assert requeued, "no attributed request recorded a requeue"
        for a in requeued:
            # time between the doomed first prefill and the redo lands
            # in fault_redo, not in queue_wait or prefill_compute
            assert a.components["fault_redo"] > 1e-3, a
        assert_exact_decomposition(att)

    def test_failover_does_not_orphan(self):
        att, metrics = run_testbed(
            0, fault_plan=self.PREFILL_CRASH, duration=12.0
        )
        assert len(att.finished) == metrics.n_finished
        ids = [a.request_id for a in att.finished]
        assert len(ids) == len(set(ids))
        assert not (set(att.live) & set(ids))

    def test_fault_runs_deterministic(self):
        att1, _ = run_testbed(
            0, fault_plan=self.DECODE_CRASH, duration=12.0
        )
        att2, _ = run_testbed(
            0, fault_plan=self.DECODE_CRASH, duration=12.0
        )
        c1 = [(a.request_id, a.components) for a in att1.finished]
        c2 = [(a.request_id, a.components) for a in att2.finished]
        assert json.dumps(c1, sort_keys=True) == json.dumps(
            c2, sort_keys=True
        )
