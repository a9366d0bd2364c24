"""Scenario runner: hand-wired parity, matrix fan-out, sweep reports.

The load-bearing guarantee: a scenario-built run is byte-identical to
the equivalent hand-wired constructor sequence (the refactored benches
assert the same against their checked-in result baselines), and matrix
fan-out across processes cannot perturb any cell.
"""

import pytest

from repro.baselines import HEROSERVE, build_fleet, build_system, simulate_trace
from repro.core import SLA_TESTBED_CHATBOT
from repro.core.plan import ParallelConfig
from repro.llm import OPT_66B, A100, V100, CostModelBank
from repro.network import build_testbed
from repro.obs import build_sweep_data, render_sweep_html, render_sweep_text
from repro.serving import EngineConfig
from repro.scenario import (
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    build_runtime,
    build_trace,
    make_observer,
    plan_system,
    run_matrix,
    run_scenario,
    simulate,
)
from repro.util.rng import make_rng
from repro.workloads import generate_session_trace, generate_sharegpt_trace

RATE = 1.0
DURATION = 20.0


def _spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="runner-test",
        model="OPT-66B",
        workload=WorkloadSpec(
            generator="sharegpt", rate=RATE, duration=DURATION, seed=0
        ),
        topology=TopologySpec(kind="testbed"),
        system="HeroServe",
        slo="testbed-chatbot",
        parallel=(8, 1, 8, 1),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _request_key(metrics):
    finished = (
        metrics.all_finished()
        if hasattr(metrics, "all_finished")
        else metrics.finished
    )
    return sorted(
        (r.request_id, r.ttft, r.finish_time) for r in finished
    )


class TestHandWiredParity:
    def test_single_system_byte_parity(self):
        """Scenario path == hand-wired build_system + simulate_trace."""
        built = build_testbed()
        bank = CostModelBank(OPT_66B, {"A100": A100, "V100": V100})
        trace = generate_sharegpt_trace(RATE, DURATION, make_rng(0))
        system = build_system(
            HEROSERVE,
            built,
            OPT_66B,
            bank,
            SLA_TESTBED_CHATBOT,
            trace.representative_batch(8),
            arrival_rate=RATE,
            forced_parallel=ParallelConfig(8, 1, 8, 1),
        )
        hand = simulate_trace(system, trace)

        res = run_scenario(_spec())
        assert _request_key(res.metrics) == _request_key(hand)
        assert res.metrics.summary() == hand.summary()

    def test_fleet_byte_parity(self):
        from repro.network import build_xtracks_cluster

        built = build_xtracks_cluster(2, n_units=2)
        bank = CostModelBank(OPT_66B, {"A100": A100})
        trace = generate_session_trace(0.2, DURATION, make_rng(3))
        fleet = build_fleet(
            HEROSERVE,
            built,
            OPT_66B,
            bank,
            SLA_TESTBED_CHATBOT,
            trace.representative_batch(8),
            arrival_rate=trace.mean_rate,
            n_replicas=2,
            forced_parallel=ParallelConfig(16, 1, 16, 1),
            router="kv-affinity",
        )
        hand = fleet.run(trace)

        res = run_scenario(
            _spec(
                workload=WorkloadSpec(
                    generator="sessions",
                    rate=0.2,
                    duration=DURATION,
                    seed=3,
                ),
                topology=TopologySpec(kind="xtracks", tracks=2, n_units=2),
                parallel=(16, 1, 16, 1),
                arrival_rate="trace-mean",
                n_replicas=2,
                router="kv-affinity",
            )
        )
        assert _request_key(res.metrics) == _request_key(hand)

    def test_runtime_realises_spec(self):
        rt = build_runtime(_spec(arrival_rate="trace-mean"))
        assert rt.model is OPT_66B
        assert rt.sla == SLA_TESTBED_CHATBOT
        assert rt.parallel == ParallelConfig(8, 1, 8, 1)
        assert rt.arrival_rate == pytest.approx(rt.trace.mean_rate)
        assert len(rt.trace) > 0

    def test_summary_shape(self):
        res = run_scenario(_spec(), cell="x=1")
        s = res.summary
        assert s["scenario"] == "runner-test"
        assert s["system"] == "HeroServe"
        assert s["cell"] == "x=1"
        assert s["finished"] == s["offered"]
        for key in ("attainment", "p50_ttft_s", "p99_ttft_s"):
            assert key in s

    def test_observer_attached_on_request(self):
        res = run_scenario(_spec(observer={"flight": True}))
        assert res.observer is not None
        assert res.observer.recorder is not None
        assert res.observer.attribution is None
        plain = run_scenario(_spec())
        assert plain.observer is None


class TestSteps:
    def test_steps_compose_to_run_scenario(self):
        """build_runtime -> plan_system -> simulate is run_scenario."""
        spec = _spec()
        res = run_scenario(spec)
        rt = build_runtime(spec)
        system = plan_system(rt)
        assert system.plan == res.system.plan
        metrics = simulate(spec, system, rt.trace)
        assert metrics.summary() == res.metrics.summary()
        assert _request_key(metrics) == _request_key(res.metrics)

    def test_one_plan_serves_many_traces(self):
        """Simulating a second trace on a planned system matches a run
        planned on the first trace and fed the second one: simulate
        never re-plans and leaves no state behind."""
        spec = _spec()
        rt = build_runtime(spec)
        system = plan_system(rt)
        other = build_trace(
            WorkloadSpec(
                generator="sharegpt", rate=2 * RATE, duration=DURATION, seed=3
            )
        )
        first = simulate(spec, system, other)
        simulate(spec, system, rt.trace)
        again = simulate(spec, system, other)
        assert _request_key(first) == _request_key(again)
        assert first.summary() == again.summary()

    def test_make_observer_blocks(self):
        assert make_observer(None) is None
        bare = make_observer({})
        assert bare.slo is None and bare.recorder is None
        obs = make_observer(
            {"attribution": True, "slo": {"ttft": 2.5, "tpot": 0.15}}
        )
        assert obs.attribution is not None and obs.recorder is None
        assert [(t.metric, t.threshold_s) for t in obs.slo.targets] == [
            ("ttft", 2.5),
            ("tpot", 0.15),
        ]

    def test_schemes_reach_the_engine(self):
        """The spec's ``schemes`` block widens the online policy tables
        exactly as ``EngineConfig(extra_schemes=...)`` does."""
        res = run_scenario(_spec(schemes=("ring-2stage",)))
        rt = build_runtime(_spec())
        hand = simulate_trace(
            plan_system(rt),
            rt.trace,
            engine_config=EngineConfig(extra_schemes=("ring-2stage",)),
        )
        assert res.metrics.summary() == hand.summary()
        assert _request_key(res.metrics) == _request_key(hand)


class TestMatrix:
    MATRIX_SPEC = dict(
        name="matrix-test",
        model="OPT-66B",
        workload=WorkloadSpec(
            generator="sharegpt", rate=0.8, duration=12.0, seed=1
        ),
        topology=TopologySpec(kind="testbed"),
        slo="testbed-chatbot",
        parallel=(8, 1, 8, 1),
        matrix={
            "system": ["DistServe", "HeroServe"],
            "workload.rate": [0.8, 1.2],
        },
    )

    def test_fanout_matches_inline(self):
        """processes=2 fan-out is byte-identical to inline execution."""
        spec = ScenarioSpec(**self.MATRIX_SPEC)
        inline = run_matrix(spec, processes=1)
        fanned = run_matrix(spec, processes=2)
        assert len(inline.summaries) == 4
        assert inline.summaries == fanned.summaries
        labels = [c.label for c in fanned.cells]
        assert labels == [
            "system=DistServe workload.rate=0.8",
            "system=DistServe workload.rate=1.2",
            "system=HeroServe workload.rate=0.8",
            "system=HeroServe workload.rate=1.2",
        ]
        for cell, summary in zip(fanned.cells, fanned.summaries):
            assert summary["cell"] == cell.label
            assert summary["system"] == cell.point["system"]

    def test_progress_callback_in_order(self):
        spec = ScenarioSpec(**self.MATRIX_SPEC)
        seen = []
        out = run_matrix(
            spec,
            processes=2,
            progress=lambda label, s: seen.append(label),
        )
        assert seen == [c.label for c in out.cells]


class TestSweepReport:
    SUMMARIES = [
        {
            "cell": "router=jsq",
            "finished": 10.0,
            "attainment": 0.9,
            "p50_ttft_s": 0.1,
            "p99_ttft_s": 0.4,
            "mean_tpot_s": 0.02,
            "router_affinity_hit_rate": 0.75,
            "router_kv_bytes_moved": 2.5e9,
        },
        {
            "cell": "router=round-robin",
            "finished": 10.0,
            "attainment": 0.8,
            "p50_ttft_s": 0.2,
            "p99_ttft_s": 0.9,
            "mean_tpot_s": 0.03,
            # sessionless run: no affinity hit rate at all
            "router_affinity_hit_rate": None,
            "router_kv_bytes_moved": 0.0,
        },
    ]

    def test_text_renders_na_for_missing_hit_rate(self):
        data = build_sweep_data(
            self.SUMMARIES, title="t", axes={"router": ["a", "b"]}
        )
        text = render_sweep_text(data)
        assert "router hit" in text
        assert "n/a" in text
        assert "0.75" in text
        # KV bytes scale to GB.
        assert "2.50" in text

    def test_optional_columns_dropped_when_absent(self):
        plain = [
            {
                "cell": "c",
                "finished": 1.0,
                "attainment": 1.0,
                "p50_ttft_s": 0.1,
                "p99_ttft_s": 0.2,
                "mean_tpot_s": 0.01,
            }
        ]
        text = render_sweep_text(build_sweep_data(plain))
        assert "router hit" not in text
        assert "replans" not in text
        assert "failovers" not in text

    def test_html_self_contained(self):
        data = build_sweep_data(
            self.SUMMARIES,
            title="sweep title",
            axes={"router": ["jsq", "round-robin"]},
            meta={"processes": 2},
        )
        page = render_sweep_html(data)
        assert page.lower().startswith("<!doctype html>")
        assert "sweep title" in page
        assert "n/a" in page
        assert "sweep-data" in page

    def test_end_to_end_matrix_report(self, tmp_path):
        from repro.obs import write_sweep_report

        spec = ScenarioSpec(**TestMatrix.MATRIX_SPEC)
        out = run_matrix(spec, processes=2)
        path = tmp_path / "sweep.html"
        data = write_sweep_report(
            str(path),
            out.summaries,
            title=spec.name,
            axes=out.axes,
        )
        assert path.exists() and path.stat().st_size > 0
        assert len(data["cells"]) == 4
        text = render_sweep_text(data)
        for label in ("system=DistServe workload.rate=0.8",):
            assert label in text
