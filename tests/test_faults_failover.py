"""End-to-end failover: INA->ring under faults, byte-identical without."""

import pytest

from repro import quick_testbed
from repro.comm import CommContext, SchemeKind
from repro.core import CentralController
from repro.faults import FaultEvent, FaultPlan, HealthRegistry
from repro.network import LinkLoadTracker, build_testbed


@pytest.fixture(scope="module")
def tb():
    return build_testbed()


def live_ctx(tb):
    base = CommContext.from_built(tb, heterogeneous=True)
    return CommContext(
        built=tb,
        route_table=base.route_table,
        linkstate=LinkLoadTracker(tb.topology),
        agg_latency=base.agg_latency,
        heterogeneous=True,
    )


BOTH_SWITCHES_PLAN = FaultPlan(
    events=(
        FaultEvent(
            time=2.0, kind="switch_down", target="switch#0", duration=4.0
        ),
        FaultEvent(
            time=2.0, kind="switch_down", target="switch#1", duration=4.0
        ),
    ),
    seed=0,
)


class TestPolicyFailover:
    """Groups degrade INA->ring on detection and return after hold-down."""

    def test_decide_rings_while_down_then_returns(self, tb):
        ctx = live_ctx(tb)
        health = HealthRegistry()
        c = CentralController(
            ctx=ctx, scheme=SchemeKind.HYBRID, health=health
        )
        gpus = tb.topology.gpu_ids()[:8]
        before = c.decide(gpus, 1e6)
        assert before.policy.mode == "hybrid-ina"

        for sw in tb.ina_capable_switches():
            health.mark_down("switch", sw, now=1.0)
        c.tick(1.2)  # past detect_delay -> failover
        during = c.decide(gpus, 1e6)
        assert during.policy.mode in ("hybrid-ring", "ring")
        assert health.failovers >= 1

        for sw in tb.ina_capable_switches():
            health.mark_up("switch", sw, now=3.0)
        c.tick(3.5)  # hold-down still active
        held = c.decide(gpus, 1e6)
        assert held.policy.mode in ("hybrid-ring", "ring")

        c.tick(4.5)  # hold-down expired -> mask cleared
        after = c.decide(gpus, 1e6)
        assert after.policy.mode == "hybrid-ina"

    def test_single_switch_loss_rehomes_not_rings(self, tb):
        """With one switch alive, aggregation re-homes instead of ringing."""
        ctx = live_ctx(tb)
        health = HealthRegistry()
        c = CentralController(
            ctx=ctx, scheme=SchemeKind.HYBRID, health=health
        )
        gpus = tb.topology.gpu_ids()[:8]
        dead, alive = tb.ina_capable_switches()[:2]
        health.mark_down("switch", dead, now=1.0)
        c.tick(1.2)
        d = c.decide(gpus, 1e6)
        assert d.policy.mode == "hybrid-ina"
        assert d.policy.switch == alive


class TestServingUnderFaults:
    def test_switch_crash_run_completes_with_fault_stats(self):
        _, metrics = quick_testbed(
            rate=1.0,
            duration=12.0,
            seed=0,
            faults=BOTH_SWITCHES_PLAN.to_dict(),
        )
        assert metrics.n_finished > 0
        s = metrics.summary()
        assert s["faults_injected"] == 4.0
        assert s["failovers"] >= 1.0
        assert s["mttr_s"] > 0.0
        assert s["degraded_seconds"] > 0.0

    def test_prefill_server_crash_requeues_requests(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    time=2.0,
                    kind="server_down",
                    target="server#2",  # prefill server (A100s)
                    duration=3.0,
                ),
            ),
            seed=0,
        )
        _, metrics = quick_testbed(
            rate=1.0, duration=12.0, seed=0, faults=plan.to_dict()
        )
        assert metrics.fault_stats is not None
        assert metrics.fault_stats.requests_lost >= 1
        assert metrics.fault_stats.prefill_redos >= 1
        # requeued requests still finish after the server returns
        assert metrics.n_finished > 0

    def test_decode_server_crash_retries_kv(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    time=2.0,
                    kind="server_down",
                    target="server#0",  # decode server (V100s)
                    duration=2.0,
                ),
            ),
            seed=0,
        )
        _, metrics = quick_testbed(
            rate=1.0, duration=12.0, seed=0, faults=plan.to_dict()
        )
        assert metrics.fault_stats is not None
        assert metrics.fault_stats.kv_retries >= 1
        assert metrics.n_finished > 0

    def test_outage_shorter_than_budget_never_exhausts(self):
        # The 2-3 s outages above sit far inside the default retry
        # budget (8 attempts, ~7+ s cumulative backoff): no transfer
        # may give up, so the new counter stays at zero.
        plan = FaultPlan(
            events=(
                FaultEvent(
                    time=2.0,
                    kind="server_down",
                    target="server#0",
                    duration=3.0,
                ),
            ),
            seed=0,
        )
        _, metrics = quick_testbed(
            rate=1.0, duration=12.0, seed=0, faults=plan.to_dict()
        )
        assert metrics.fault_stats.kv_exhausted == 0
        assert metrics.dropped == 0


class TestKvRetryBudget:
    def test_long_outage_exhausts_budget_and_fails_requests(self):
        # A decode outage far longer than the retry budget: transfers
        # burn through max_attempts, the batches fail into dropped /
        # requests_lost with the distinct kv_exhausted counter, and
        # requests arriving late enough still finish after recovery.
        plan = FaultPlan(
            events=(
                FaultEvent(
                    time=2.0,
                    kind="server_down",
                    target="server#0",
                    duration=12.0,
                ),
            ),
            seed=0,
        )
        _, metrics = quick_testbed(
            rate=1.0, duration=15.0, seed=0, faults=plan.to_dict()
        )
        fs = metrics.fault_stats
        assert fs.kv_exhausted >= 1
        assert metrics.dropped >= fs.kv_exhausted
        assert fs.requests_lost >= fs.kv_exhausted
        assert fs.kv_retries >= fs.kv_exhausted
        assert metrics.n_finished > 0
        s = metrics.summary()
        assert s["kv_exhausted"] == float(fs.kv_exhausted)


class TestByteIdentity:
    def test_empty_plan_equals_no_plan(self):
        _, base = quick_testbed(rate=1.0, duration=10.0, seed=0)
        _, empty = quick_testbed(
            rate=1.0, duration=10.0, seed=0, faults=FaultPlan.empty().to_dict()
        )
        assert empty.fault_stats is None
        assert empty.summary() == base.summary()
        assert [r.request_id for r in empty.finished] == [
            r.request_id for r in base.finished
        ]
        assert [r.finish_time for r in empty.finished] == [
            r.finish_time for r in base.finished
        ]
