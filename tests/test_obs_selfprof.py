"""Simulator hot-path profiling through the one :class:`PhaseProfiler`.

The BENCH_engine measurement harness: per-event-tag handler phases from
the :class:`~repro.sim.eventqueue.EventQueue`, the engine and controller
sections, and the ``engine.run`` bracket with its finished-request and
fired-event counters. The load-bearing property is *non-interference* —
a run measured through ``NullObserver(profiler=PhaseProfiler())`` must
produce a byte-identical ``summary()`` to an unobserved run, because the
profiler only times code, it never participates in simulation
decisions.
"""

from __future__ import annotations

import inspect
import json

import pytest

from repro import SLA_TESTBED_CHATBOT, OPT_66B, CostModelBank, quick_testbed
from repro.comm import CommContext, SchemeKind
from repro.core.planner import OfflinePlanner
from repro.llm import A100, V100, BatchSpec
from repro.network import build_testbed
from repro.obs import NULL_PROFILER, Observer, PhaseProfiler
from repro.obs.observer import OBSERVER_HOOKS, NullObserver
from repro.sim.eventqueue import EventQueue

ENGINE_SECTIONS = (
    "engine.batch_formation",
    "engine.link_load",
    "engine.controller_tick",
    "controller.poll",
    "controller.refresh",
)


@pytest.fixture(scope="module")
def profiled():
    """One testbed run timed by a span-free profiling observer."""
    observer = NullObserver(profiler=PhaseProfiler())
    _, metrics = quick_testbed(
        rate=1.0,
        duration=20.0,
        seed=0,
        observer=observer,
    )
    return observer.profiler, metrics


class TestSelfProfilerUnit:
    """The engine's accounting, driven by hand through the profiler."""

    def test_accumulates_sections_and_events(self):
        profiler = PhaseProfiler()
        profiler.record("engine.link_load", 0.5)
        profiler.record("engine.link_load", 0.25)
        profiler.record("decode_iter", 0.1)
        phases = profiler.breakdown()
        assert phases["engine.link_load"].total == pytest.approx(0.75)
        assert phases["engine.link_load"].count == 2
        assert phases["decode_iter"].total == pytest.approx(0.1)
        assert phases["decode_iter"].count == 1

    def test_run_bracketing_and_rates(self):
        profiler = PhaseProfiler()
        with profiler.phase("engine.run"):
            sum(range(1000))
        profiler.count("engine.requests_finished", 10)
        profiler.count("engine.events_fired", 100)
        run = profiler.breakdown()["engine.run"]
        counters = profiler.counters()
        assert run.count == 1
        assert counters["engine.requests_finished"] == 10
        assert counters["engine.events_fired"] == 100
        assert run.total > 0.0
        requests_per_s = counters["engine.requests_finished"] / run.total
        events_per_s = counters["engine.events_fired"] / run.total
        assert requests_per_s > 0.0
        assert events_per_s > requests_per_s

    def test_report_text(self):
        profiler = PhaseProfiler()
        profiler.record("engine.batch_formation", 0.002)
        profiler.record("decode_iter", 0.004)
        profiler.count("engine.events_fired", 3)
        text = profiler.report()
        assert "engine.batch_formation" in text
        assert "decode_iter" in text
        assert "engine.events_fired" in text
        assert "ms" in text


class TestEventQueueProfiling:
    def test_handler_time_by_tag(self):
        q = EventQueue()
        fired = []
        q.schedule(0.1, fired.append, "a", tag="alpha")
        q.schedule(0.2, fired.append, "b", tag="alpha")
        q.schedule(0.3, fired.append, "c")  # untagged
        profiler = PhaseProfiler()
        q.run(profiler=profiler)
        assert fired == ["a", "b", "c"]
        phases = profiler.breakdown()
        assert phases["alpha"].count == 2
        assert phases["untagged"].count == 1
        assert all(stat.total >= 0.0 for stat in phases.values())

    def test_no_profiler_records_nothing(self):
        q = EventQueue()
        q.schedule(0.1, lambda: None, tag="alpha")
        q.run()
        assert q.events_fired == 1
        assert NULL_PROFILER.phase_times() == {}


class TestEngineIntegration:
    def test_hot_path_sections_populated(self, profiled):
        profiler, metrics = profiled
        phases = profiler.breakdown()
        counters = profiler.counters()
        assert counters["engine.requests_finished"] == metrics.n_finished
        assert counters["engine.events_fired"] > metrics.n_finished
        run = phases["engine.run"]
        assert run.count == 1
        assert counters["engine.requests_finished"] / run.total > 0.0
        for section in ENGINE_SECTIONS:
            assert section in phases, section
        for tag in ("arrival", "prefill_done", "decode_iter"):
            assert tag in phases, tag

    def test_profiled_run_byte_identical(self, profiled):
        """The throughput number prices the simulator, not telemetry —
        and the profiler must not perturb the simulation at all."""
        _, metrics = profiled
        _, plain = quick_testbed(rate=1.0, duration=20.0, seed=0)
        assert json.dumps(
            metrics.summary(), sort_keys=True
        ) == json.dumps(plain.summary(), sort_keys=True)

    def test_full_observer_carries_engine_profile(self):
        """A full Observer times the engine in its one profiler."""
        observer = Observer()
        _, metrics = quick_testbed(
            rate=1.0,
            duration=15.0,
            seed=0,
            observer=observer,
        )
        counters = observer.profiler.counters()
        assert counters["engine.requests_finished"] == metrics.n_finished
        assert "engine.batch_formation" in observer.profiler.breakdown()

    def test_planner_only_observer_keeps_planner_phases(self):
        """A solve with no simulation reports only planner phases."""
        built = build_testbed()
        bank = CostModelBank(OPT_66B, {"A100": A100, "V100": V100})
        ctx = CommContext.from_built(built, heterogeneous=True)
        report = OfflinePlanner(
            ctx,
            OPT_66B,
            bank,
            SLA_TESTBED_CHATBOT,
            SchemeKind.HYBRID,
            observer=Observer(),
        ).plan(BatchSpec.uniform(8, 256, 220), arrival_rate=0.5)
        assert report.phase_times
        for name in report.phase_times:
            assert name.startswith(
                ("planner.", "grouping.", "netestimate.")
            ), name


class TestSnapshotReportRoundTrip:
    """The profile's tables are the bench file format — they must
    survive JSON, and the human-readable report must cover them all."""

    def test_snapshot_survives_json(self, profiled):
        profiler, _ = profiled
        snap = {
            "phases": profiler.phase_times(),
            "counters": profiler.counters(),
        }
        assert json.loads(json.dumps(snap)) == snap

    def test_report_names_every_snapshot_entry(self, profiled):
        profiler, _ = profiled
        text = profiler.report("engine profile")
        for name in profiler.breakdown():
            assert name in text, name
        for name, n in profiler.counters().items():
            assert name in text, name
            assert str(n) in text, name


class TestObserverHookParity:
    """Every hook is declared once, on :class:`NullObserver`, and every
    sink method named after a hook must accept exactly that hook's
    parameters — a drifted sink would otherwise crash on its first
    event (or, for a rare fault hook, deep into a long run)."""

    @staticmethod
    def public_hooks(cls) -> set[str]:
        return {
            name
            for name, member in inspect.getmembers(
                cls, predicate=inspect.isfunction
            )
            if not name.startswith("_")
        }

    @staticmethod
    def params(fn) -> list[tuple]:
        return [
            (p.name, p.kind, p.default)
            for p in inspect.signature(fn).parameters.values()
        ]

    def test_sink_methods_bind_the_hook_signatures(self):
        from repro.obs.attribution import AttributionCollector
        from repro.obs.observer import _MetricsSink, _TraceSink
        from repro.obs.recorder import FlightRecorder
        from repro.obs.slo import SLOMonitor

        sinks = (
            _TraceSink,
            _MetricsSink,
            AttributionCollector,
            FlightRecorder,
            SLOMonitor,
        )
        consumed = set()
        for sink in sinks:
            for hook in OBSERVER_HOOKS:
                method = getattr(sink, hook, None)
                if method is None:
                    continue
                consumed.add(hook)
                assert self.params(method) == self.params(
                    vars(NullObserver)[hook]
                ), f"{sink.__name__}.{hook}"
        assert consumed == set(OBSERVER_HOOKS)  # no hook left unused

    def test_null_observer_covers_observer_hooks(self):
        missing = self.public_hooks(Observer) - self.public_hooks(
            NullObserver
        )
        assert not missing, missing

    def test_generated_hooks_are_class_attributes(self):
        """Hook names stay enumerable from ``vars(NullObserver)``, and
        each generated fan-out is a class attribute of ``Observer``
        (perfbench wraps ``vars(Observer)[hook]``)."""
        assert set(OBSERVER_HOOKS) == self.public_hooks(Observer) - {
            "phase",
            "export",
        }
        for hook in OBSERVER_HOOKS:
            assert callable(vars(NullObserver).get(hook)), hook
            assert callable(vars(Observer).get(hook)), hook
            assert inspect.signature(
                vars(Observer)[hook]
            ) == inspect.signature(vars(NullObserver)[hook]), hook

    def test_profiling_null_observer_is_a_null_observer(self):
        profiler = PhaseProfiler()
        obs = NullObserver(profiler=profiler)
        assert obs.enabled is False  # engine stays on the no-op path
        assert obs.profiler is profiler
        with obs.phase("x"):
            pass
        assert profiler.breakdown()["x"].count == 1
        assert NullObserver().profiler is NULL_PROFILER

    def test_null_hooks_are_callable_no_ops(self):
        obs = NullObserver()
        obs.request_arrival(0.0, None)
        obs.request_dropped(0.0, None)
        obs.request_finished(0.0, None)
        obs.prefill_span(0.0, 1.0, 1, 10, 0.5, 0.5)
        obs.decode_span(0.0, 1.0, 1, 10, 0.5, 0.5)
        obs.kv_transfer_span(0.0, 1.0, 1, 10)
        obs.allreduce_span("prefill", 0.0, 1.0, {})
        obs.policy_selected(0, "p", "m")
        obs.monitor_tick(0.0, None, True)
        obs.kv_sample(0.0, 0, 1)
        obs.fault_injected(0.0, "k", 0)
        obs.health_transition(0.0, "k", 0, "s")
        obs.failover(0.0, 0, "d")
        obs.kv_retry(0.0, 1, 0.1)
        obs.requests_requeued(0.0, 1)
        obs.replan_event(0.0, "e", detail=1)
        obs.route_decision(0.0, 1, 0, "r", "why")
        obs.fleet_all_degraded(0.0, 2)
        obs.run_finished(0.0, None)
        with obs.phase("x"):
            pass
        obs.export()
