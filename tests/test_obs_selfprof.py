"""Simulator self-profiling (:mod:`repro.obs.selfprof`).

The BENCH_engine measurement harness: host wall-clock accumulators for
the engine hot path. The load-bearing property is *non-interference* —
a run measured through :class:`SelfProfilingObserver` must produce a
byte-identical ``summary()`` to an unobserved run, because the profiler
only times handlers, it never participates in simulation decisions.
"""

from __future__ import annotations

import json

import inspect

from repro import quick_testbed
from repro.obs import Observer, SelfProfiler, SelfProfilingObserver
from repro.obs.observer import NullObserver
from repro.sim.eventqueue import EventQueue


class TestSelfProfilerUnit:
    def test_accumulates_sections_and_events(self):
        sp = SelfProfiler()
        sp.add("engine.link_load", 0.5)
        sp.add("engine.link_load", 0.25)
        sp.event("decode_iter", 0.1)
        assert sp.sections["engine.link_load"] == [0.75, 2]
        assert sp.handlers["decode_iter"] == [0.1, 1]

    def test_run_bracketing_and_rates(self):
        sp = SelfProfiler()
        sp.run_started()
        sp.run_finished(n_finished=10, events_fired=100)
        assert sp.runs == 1
        assert sp.requests_finished == 10
        assert sp.events_fired == 100
        assert sp.wall_s > 0.0
        assert sp.requests_per_s > 0.0
        assert sp.events_per_s > sp.requests_per_s

    def test_zero_wall_clock_rates(self):
        sp = SelfProfiler()
        assert sp.requests_per_s == 0.0
        assert sp.events_per_s == 0.0

    def test_snapshot_shape(self):
        sp = SelfProfiler()
        sp.add("a", 0.1)
        sp.event("t", 0.2)
        sp.run_started()
        sp.run_finished(1, 2)
        snap = sp.snapshot()
        for key in (
            "runs",
            "wall_s",
            "events_fired",
            "events_per_s",
            "requests_finished",
            "requests_per_s",
            "sections",
            "event_handlers",
        ):
            assert key in snap, key
        assert snap["sections"]["a"] == {"total_s": 0.1, "count": 1.0}
        # snapshot is JSON-serialisable as-is (the bench file format)
        json.dumps(snap)

    def test_report_text(self):
        sp = SelfProfiler()
        sp.add("engine.batch_formation", 0.002)
        sp.event("decode_iter", 0.004)
        text = sp.report()
        assert "engine.batch_formation" in text
        assert "decode_iter" in text
        assert "us/call" in text


class TestEventQueueProfiling:
    def test_handler_time_by_tag(self):
        q = EventQueue()
        fired = []
        q.schedule(0.1, fired.append, "a", tag="alpha")
        q.schedule(0.2, fired.append, "b", tag="alpha")
        q.schedule(0.3, fired.append, "c")  # untagged
        sp = SelfProfiler()
        q.run(profiler=sp)
        assert fired == ["a", "b", "c"]
        assert sp.handlers["alpha"][1] == 2
        assert sp.handlers["untagged"][1] == 1
        assert all(acc[0] >= 0.0 for acc in sp.handlers.values())

    def test_no_profiler_records_nothing(self):
        q = EventQueue()
        q.schedule(0.1, lambda: None, tag="alpha")
        q.run()
        assert q.events_fired == 1


class TestEngineIntegration:
    def run_profiled(self):
        observer = SelfProfilingObserver()
        _, metrics = quick_testbed(
            rate=1.0,
            duration=20.0,
            seed=0,
            observer=observer,
        )
        return observer.selfprof, metrics

    def test_hot_path_sections_populated(self):
        sp, metrics = self.run_profiled()
        snap = sp.snapshot()
        assert snap["requests_finished"] == metrics.n_finished
        assert snap["requests_per_s"] > 0.0
        for section in (
            "engine.batch_formation",
            "engine.link_load",
            "engine.controller_tick",
            "controller.poll",
            "controller.refresh",
        ):
            assert section in snap["sections"], section
        for tag in ("arrival", "prefill_done", "decode_iter"):
            assert tag in snap["event_handlers"], tag

    def test_profiled_run_byte_identical(self):
        """The throughput number prices the simulator, not telemetry —
        and the profiler must not perturb the simulation at all."""
        _, profiled = self.run_profiled()
        _, plain = quick_testbed(rate=1.0, duration=20.0, seed=0)
        assert json.dumps(
            profiled.summary(), sort_keys=True
        ) == json.dumps(plain.summary(), sort_keys=True)

    def test_full_observer_carries_selfprof(self):
        """Observer(selfprof=...) profiles an otherwise-observed run."""
        sp = SelfProfiler()
        observer = Observer(selfprof=sp)
        _, metrics = quick_testbed(
            rate=1.0,
            duration=15.0,
            seed=0,
            observer=observer,
        )
        assert sp.requests_finished == metrics.n_finished
        assert "engine.batch_formation" in sp.sections


class TestSnapshotReportRoundTrip:
    """The snapshot IS the bench file format — it must survive JSON and
    the human-readable report must cover everything in it."""

    def populated(self) -> SelfProfiler:
        observer = SelfProfilingObserver()
        quick_testbed(
            rate=1.0,
            duration=15.0,
            seed=0,
            observer=observer,
        )
        return observer.selfprof

    def test_snapshot_survives_json(self):
        snap = self.populated().snapshot()
        assert json.loads(json.dumps(snap)) == snap

    def test_report_names_every_snapshot_entry(self):
        sp = self.populated()
        snap = sp.snapshot()
        text = sp.report()
        for section in snap["sections"]:
            assert section in text, section
        for tag in snap["event_handlers"]:
            assert tag in text, tag
        # headline rates appear with the snapshot's values
        assert f"{snap['requests_per_s']:,.0f}" in text


class TestObserverHookParity:
    """Every hook the engine may call on a full :class:`Observer` must
    exist on :class:`NullObserver` (and thus on
    :class:`SelfProfilingObserver`) — a hook added to one but not the
    other crashes unobserved runs, the worst possible failure mode for
    an observability layer."""

    @staticmethod
    def public_hooks(cls) -> set[str]:
        return {
            name
            for name, member in inspect.getmembers(
                cls, predicate=inspect.isfunction
            )
            if not name.startswith("_")
        }

    def test_null_observer_covers_observer_hooks(self):
        missing = self.public_hooks(Observer) - self.public_hooks(
            NullObserver
        )
        assert not missing, missing

    def test_selfprofiling_observer_is_a_null_observer(self):
        obs = SelfProfilingObserver()
        assert isinstance(obs, NullObserver)
        assert obs.enabled is False  # engine stays on the no-op path
        assert obs.selfprof is not None
        missing = self.public_hooks(Observer) - self.public_hooks(
            SelfProfilingObserver
        )
        assert not missing, missing

    def test_null_hooks_are_callable_no_ops(self):
        obs = NullObserver()
        obs.request_arrival(0.0, None)
        obs.request_dropped(0.0, None)
        obs.request_finished(0.0, None)
        obs.prefill_span()
        obs.decode_span()
        obs.kv_transfer_span()
        obs.allreduce_span()
        obs.policy_selected(0, "p", "m")
        obs.controller_tick(0.0, True)
        obs.sample_links(0.0, None)
        obs.kv_sample(0.0, 0, 1)
        obs.engine_tick(0.0, None)
        obs.fault_injected(0.0, "k", 0)
        obs.health_transition(0.0, "k", 0, "s")
        obs.failover(0.0, 0, "d")
        obs.kv_retry(0.0, 1, 0.1)
        obs.requests_requeued(0.0, 1)
        obs.run_finished(0.0, None)
        with obs.phase("x"):
            pass
        obs.export()
