"""Online replanning: drift detection, live plan transitions, parity.

Covers the :mod:`repro.core.replan` subsystem end to end on the
testbed: the hysteresis primitives, the drift detector, KV-migration
planning, a complete load-shift transition, rollback on a mid-migration
endpoint fault, and the byte-identity guarantees (plain runs match the
pinned golden; an armed-but-idle replanner changes nothing but the
zero-valued ``replan_*`` keys).
"""

import json
import math
import os

import pytest

from repro import (
    HEROSERVE,
    OPT_66B,
    CostModelBank,
    ReplanConfig,
    build_system,
    build_testbed,
    quick_testbed,
    simulate_trace,
)
from repro.core.kvtransfer import plan_kv_migration
from repro.core.plan import ParallelConfig
from repro.core.replan import (
    DriftDetector,
    OnlineReplanner,
    describe_plan,
    plan_signature,
)
from repro.core.objective import SLA_TESTBED_CHATBOT
from repro.faults import FaultEvent, FaultPlan
from repro.faults.health import HoldDown, SustainedThreshold
from repro.llm import A100, V100
from repro.obs import FlightRecorder, Observer
from repro.serving import EngineConfig
from repro.util.rng import make_rng
from repro.workloads import generate_loadshift_trace

GOLDEN = os.path.join(
    os.path.dirname(__file__), "data", "golden_quickstart_summary.json"
)

#: Aggressive detector settings that reliably trigger on the load shift.
AGGRESSIVE = dict(
    queue_high=3,
    pending_high=12,
    sustain_checks=4,
    cooldown_s=5.0,
    window_s=20.0,
    min_window_requests=4,
    target_parallel=ParallelConfig(8, 1, 8, 1),
)


@pytest.fixture(scope="module")
def built():
    return build_testbed()


@pytest.fixture(scope="module")
def bank():
    return CostModelBank(OPT_66B, {"A100": A100, "V100": V100})


def loadshift_setup(built, bank, seed=0):
    """(system, trace) for the canonical load-shift scenario: a modest
    TP4xPP2 starting plan that the post-shift backlog outgrows."""
    trace = generate_loadshift_trace(1.2, 0.5, 30.0, 60.0, make_rng(seed))
    system = build_system(
        HEROSERVE,
        built,
        OPT_66B,
        bank,
        SLA_TESTBED_CHATBOT,
        trace.representative_batch(8),
        arrival_rate=1.2,
        forced_parallel=ParallelConfig(4, 2, 4, 2),
    )
    return system, trace


class TestHysteresisPrimitives:
    def test_sustained_threshold_needs_consecutive_hits(self):
        st = SustainedThreshold(high=10.0, sustain=3)
        assert not st.update(11)
        assert not st.update(11)
        assert st.update(11)
        assert st.update(11)  # stays fired while over

    def test_any_dip_rearms(self):
        st = SustainedThreshold(high=10.0, sustain=2)
        assert not st.update(11)
        assert not st.update(9)  # dip resets the streak
        assert not st.update(11)
        assert st.update(11)

    def test_reset(self):
        st = SustainedThreshold(high=1.0, sustain=1)
        assert st.update(2)
        st.reset()
        assert st._over == 0

    def test_sustain_validated(self):
        with pytest.raises(ValueError):
            SustainedThreshold(high=1.0, sustain=0)

    def test_holddown_never_started_is_elapsed(self):
        hd = HoldDown(period=5.0)
        assert hd.elapsed(0.0)

    def test_holddown_blocks_then_releases(self):
        hd = HoldDown(period=5.0)
        hd.start(10.0)
        assert not hd.elapsed(14.9)
        assert hd.elapsed(15.0)


class TestDriftDetector:
    CALM = {
        "prefill_backlog": 0.0,
        "decode_backlog": 0.0,
        "fabric_congestion": 0.0,
        "policy_cost_drift": 1.0,
        "switch_pressure": 0.0,
    }

    def test_fires_after_sustained_breach(self):
        det = DriftDetector(ReplanConfig(sustain_checks=3, queue_high=8))
        hot = dict(self.CALM, prefill_backlog=9.0)
        assert det.update(hot) is None
        assert det.update(hot) is None
        assert det.update(hot) == "prefill_backlog"

    def test_dip_resets(self):
        det = DriftDetector(ReplanConfig(sustain_checks=2, queue_high=8))
        hot = dict(self.CALM, prefill_backlog=9.0)
        assert det.update(hot) is None
        assert det.update(self.CALM) is None
        assert det.update(hot) is None
        assert det.update(hot) == "prefill_backlog"

    def test_reset_clears_all(self):
        det = DriftDetector(ReplanConfig(sustain_checks=1, link_high=0.5))
        hot = dict(self.CALM, fabric_congestion=0.9)
        assert det.update(hot) == "fabric_congestion"
        det.reset()
        assert det.update(self.CALM) is None


class TestPlanHelpers:
    def test_signature_and_describe(self, built, bank):
        system, _ = loadshift_setup(built, bank)
        sig = plan_signature(system.plan)
        assert sig == plan_signature(system.plan)
        assert describe_plan(system.plan) == "pTP4xPP2/dTP4xPP2"

    def test_replanner_rejects_double_attach(self, built, bank):
        rp = OnlineReplanner(config=ReplanConfig())
        rp.attach("engine-a")
        rp.attach("engine-a")  # idempotent
        with pytest.raises(ValueError):
            rp.attach("engine-b")


class TestPlanKvMigration:
    def test_zero_tokens_is_free(self, built, bank):
        system, _ = loadshift_setup(built, bank)
        ctx = system.fresh_context()
        stages = system.plan.decode.stages
        dur, flows, moved = plan_kv_migration(
            ctx, system.model, 0, stages, stages
        )
        assert (dur, flows, moved) == (0.0, [], 0.0)

    def test_cross_placement_move_costs_time(self, built, bank):
        system, _ = loadshift_setup(built, bank)
        ctx = system.fresh_context()
        src = system.plan.decode.stages
        # Target: the prefill placement — guaranteed disjoint GPUs.
        dst = system.plan.prefill.stages
        dur, flows, moved = plan_kv_migration(
            ctx, system.model, 4096, src, dst
        )
        assert dur > 0.0
        assert flows
        assert moved > 0.0


class TestTransition:
    @pytest.fixture(scope="class")
    def outcome(self, built, bank):
        system, trace = loadshift_setup(built, bank)
        obs = Observer(recorder=FlightRecorder())
        metrics = simulate_trace(
            system,
            trace,
            engine_config=EngineConfig(observer=obs),
            replan=ReplanConfig(**AGGRESSIVE),
        )
        return trace, metrics, obs.recorder

    def test_transition_completes(self, outcome):
        _, metrics, _ = outcome
        s = metrics.summary()
        assert s["replan_transitions"] >= 1.0
        assert s["replan_rollbacks"] == 0.0
        assert s["replan_kv_bytes_moved"] > 0.0
        assert s["replan_transition_seconds"] > 0.0

    def test_no_request_dropped(self, outcome):
        trace, metrics, _ = outcome
        assert metrics.dropped == 0
        assert metrics.n_finished == len(trace)

    def test_timeline_records_cutover(self, outcome):
        _, _, recorder = outcome
        events = recorder.replan_timeline()
        done = [e for e in events if e["event"] == "transition_complete"]
        assert done
        assert done[0]["to_plan"] == "pTP8xPP1/dTP8xPP1"
        phases = [
            e["phase"]
            for e in events
            if e["event"] == "plan_transition"
        ]
        assert phases[:3] == ["quiesced", "migrate", "warm"]

    def test_budget_eventually_suppresses(self, outcome):
        _, _, recorder = outcome
        sup = [
            e
            for e in recorder.replan_timeline()
            if e["event"] == "replan_suppressed"
        ]
        # After the cutover the detector keeps firing on the tail
        # backlog but the plan is already optimal -> suppressions.
        assert sup
        assert all("why" in e for e in sup)


class TestRollback:
    def test_endpoint_fault_mid_migration_rolls_back(self, built, bank):
        system, trace = loadshift_setup(built, bank)
        # Kill a decode-endpoint server inside the migration window
        # (the fault-free migration spans ~42.6-43.1s).
        fault = FaultPlan(
            events=(
                FaultEvent(
                    time=42.8,
                    kind="server_down",
                    target="server#0",
                    duration=3.0,
                ),
            ),
            seed=0,
        )
        obs = Observer(recorder=FlightRecorder())
        metrics = simulate_trace(
            system,
            trace,
            engine_config=EngineConfig(observer=obs),
            fault_plan=fault,
            replan=ReplanConfig(**AGGRESSIVE),
        )
        s = metrics.summary()
        assert s["replan_rollbacks"] >= 1.0
        rb = [
            e
            for e in obs.recorder.replan_timeline()
            if e["event"] == "transition_rollback"
        ]
        assert rb and rb[0]["why"] == "fault_during_migration"
        # Rolled back cleanly: nothing dropped, every request finishes
        # (a later trigger completes the transition after recovery).
        assert metrics.dropped == 0
        assert metrics.n_finished == len(trace)
        assert s["replan_transitions"] >= 1.0


class TestByteIdentity:
    def test_plain_run_matches_golden(self):
        with open(GOLDEN) as fh:
            golden = json.load(fh)
        _, metrics = quick_testbed(rate=1.0, duration=12.0, seed=0)
        summary = metrics.summary()
        assert set(summary) == set(golden)
        for key, want in golden.items():
            got = summary[key]
            if isinstance(want, float) and math.isnan(want):
                assert math.isnan(got), key
            else:
                assert got == want, key

    def test_armed_idle_replanner_changes_nothing(self):
        # Default thresholds never fire at this gentle load: the armed
        # replanner must not perturb the simulation at all, only attach
        # zero-valued replan_* keys.
        with open(GOLDEN) as fh:
            golden = json.load(fh)
        _, metrics = quick_testbed(
            rate=1.0, duration=12.0, seed=0, replan={}
        )
        summary = metrics.summary()
        replan_keys = {k for k in summary if k.startswith("replan_")}
        assert replan_keys
        assert all(summary[k] == 0.0 for k in replan_keys)
        for key, want in golden.items():
            got = summary[key]
            if isinstance(want, float) and math.isnan(want):
                assert math.isnan(got), key
            else:
                assert got == want, key

    def test_plain_summary_has_no_replan_keys(self):
        _, metrics = quick_testbed(rate=0.5, duration=10.0, seed=3)
        assert metrics.replan_stats is None
        assert not any(
            k.startswith("replan_") for k in metrics.summary()
        )
