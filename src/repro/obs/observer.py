"""The observer: one handle bundling tracing, metrics and profiling.

A single :class:`Observer` is threaded through
:class:`~repro.serving.engine.EngineConfig`,
:class:`~repro.core.controller.CentralController`,
:class:`~repro.core.scheduler.LoadAwareScheduler` and
:class:`~repro.core.planner.OfflinePlanner`. Call sites invoke small
semantic hooks (``request_finished``, ``allreduce_span``,
``controller_tick`` ...) instead of talking to the recorder directly, so
the disabled path — :class:`NullObserver`, the default everywhere — is a
handful of no-op method calls guarded by an ``enabled`` flag and the
simulator's behaviour and output stay byte-identical to an unobserved
run.

This mirrors the paper's §III-D monitoring agents: DCGM / switch
hardware counters become :class:`LinkLoadTracker` samples exported as
gauges, per-group policy decisions become labelled counters, and request
lifecycles become Chrome-trace swimlanes.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import NULL_PROFILER, PhaseProfiler
from repro.obs.trace import REQUEST_PID, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.network.linkstate import LinkLoadTracker
    from repro.obs.attribution import AttributionCollector
    from repro.obs.recorder import FlightRecorder
    from repro.obs.slo import SLOMonitor
    from repro.serving.engine import ServingSimulator
    from repro.serving.request import RequestState

__all__ = ["Observer", "NullObserver", "NULL_OBSERVER"]

#: Sampled per-link gauges skip links quieter than this utilisation, so
#: one busy fabric link is visible without exporting thousands of zeros.
LINK_GAUGE_MIN_UTIL = 0.01


def _span_if_valid(
    trace: TraceRecorder,
    track: str,
    name: str,
    start: float,
    end: float,
    tid: int,
    **args,
) -> None:
    if math.isnan(start) or math.isnan(end) or end < start:
        return
    trace.complete(
        track, name, start, end - start, pid=REQUEST_PID, tid=tid, **args
    )


class Observer:
    """Recording observer: traces + metrics + profiling all live."""

    enabled = True

    def __init__(
        self,
        slo: "SLOMonitor | None" = None,
        recorder: "FlightRecorder | None" = None,
        attribution: "AttributionCollector | None" = None,
    ) -> None:
        self.trace = TraceRecorder()
        self.metrics = MetricsRegistry()
        #: planner phases and the simulator hot path (host wall-clock)
        self.profiler = PhaseProfiler()
        #: optional burn-rate SLO monitor, fed on request finishes and
        #: evaluated on ``engine_tick``
        self.slo = slo
        #: optional flight recorder, sampled on ``engine_tick``
        self.recorder = recorder
        #: optional per-request critical-path attribution collector
        self.attribution = attribution

        m = self.metrics
        self._slo_alerts = m.counter(
            "repro_slo_alerts_total",
            "burn-rate alert transitions by SLO, severity and state",
        )
        self._requests = m.counter(
            "repro_requests_total", "request lifecycle events by kind"
        )
        self._prefill_batches = m.counter(
            "repro_prefill_batches_total", "prefill batches executed"
        )
        self._decode_iters = m.counter(
            "repro_decode_iterations_total", "decode iterations executed"
        )
        self._kv_transfers = m.counter(
            "repro_kv_transfers_total", "prefill->decode KV transfers"
        )
        self._policy_selections = m.counter(
            "repro_policy_selections_total",
            "per-group all-reduce policy decisions (paper Fig. 5 table)",
        )
        self._controller_refreshes = m.counter(
            "repro_controller_refreshes_total",
            "central controller Eq. 18 refresh rounds",
        )
        self._ttft = m.histogram(
            "repro_ttft_seconds", "time to first token, streamed"
        )
        self._tpot = m.histogram(
            "repro_tpot_seconds", "time per output token, streamed"
        )
        self._batch_size = m.histogram(
            "repro_batch_size",
            "batch width per prefill batch / decode iteration",
            buckets=tuple(float(b) for b in (1, 2, 4, 8, 16, 32, 64, 128)),
        )
        self._link_util = m.gauge(
            "repro_link_utilization",
            "sampled per-link utilisation (links above "
            f"{LINK_GAUGE_MIN_UTIL:.0%} only)",
        )
        self._link_util_kind = m.gauge(
            "repro_link_utilization_by_kind",
            "mean/max sampled utilisation per link kind",
        )
        self._link_util_class = m.histogram(
            "repro_link_utilization_by_class",
            "sampled utilisation distribution per link class "
            "(nvlink / ethernet_access leaders / ethernet_trunk "
            "inter-track)",
            buckets=(0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.5),
        )
        self._kv_util = m.gauge(
            "repro_kv_cache_utilization", "decode KV cache occupancy"
        )

    # -- request lifecycle --------------------------------------------------

    def request_arrival(self, ts: float, req: "RequestState") -> None:
        self._requests.inc(event="arrival")
        if self.attribution is not None:
            self.attribution.on_arrival(ts, req)
        self.trace.instant(
            "requests",
            "arrival",
            ts,
            request_id=req.request_id,
            input_len=req.input_len,
            output_len=req.output_len,
        )

    def request_dropped(self, ts: float, req: "RequestState") -> None:
        self._requests.inc(event="dropped")
        if self.attribution is not None:
            self.attribution.on_dropped(ts, req)
        self.trace.instant(
            "requests", "dropped", ts, request_id=req.request_id
        )

    def request_finished(self, ts: float, req: "RequestState") -> None:
        """Stream latency histograms and emit the lifecycle swimlane."""
        self._requests.inc(event="finished")
        self._ttft.observe(req.ttft)
        self._tpot.observe(req.tpot)
        if self.slo is not None:
            self.slo.record_request(ts, req)
        if self.attribution is not None:
            self.attribution.on_finished(ts, req)
        t = self.trace
        rid = req.request_id
        _span_if_valid(
            t,
            "requests",
            "queued",
            req.arrival_time,
            req.prefill_start,
            rid,
            request_id=rid,
        )
        _span_if_valid(
            t,
            "requests",
            "prefill",
            req.prefill_start,
            req.first_token_time,
            rid,
            request_id=rid,
            input_len=req.input_len,
        )
        _span_if_valid(
            t,
            "requests",
            "kv_transfer",
            req.first_token_time,
            req.kv_done_time,
            rid,
            request_id=rid,
        )
        _span_if_valid(
            t,
            "requests",
            "decode_wait",
            req.kv_done_time,
            req.decode_start,
            rid,
            request_id=rid,
        )
        _span_if_valid(
            t,
            "requests",
            "decode",
            req.decode_start,
            req.finish_time,
            rid,
            request_id=rid,
            output_len=req.output_len,
            ttft_s=req.ttft,
            tpot_s=req.tpot,
        )

    # -- engine passes -------------------------------------------------------

    def prefill_span(
        self, start: float, dur: float, n_requests: int, tokens: int,
        t_compute: float, t_comm: float,
        request_ids: tuple[int, ...] = (),
    ) -> None:
        self._prefill_batches.inc()
        self._batch_size.observe(n_requests, phase="prefill")
        if self.attribution is not None:
            self.attribution.on_prefill(start, request_ids, t_comm)
        self.trace.complete(
            "prefill",
            f"prefill[{n_requests}r/{tokens}t]",
            start,
            dur,
            n_requests=n_requests,
            tokens=tokens,
            t_compute_s=t_compute,
            t_comm_s=t_comm,
            request_ids=list(request_ids),
        )

    def decode_span(
        self, start: float, dur: float, q: int, context: int,
        t_compute: float, t_comm: float,
        request_ids: tuple[int, ...] = (),
    ) -> None:
        self._decode_iters.inc()
        self._batch_size.observe(q, phase="decode")
        if self.attribution is not None:
            self.attribution.on_decode(request_ids, t_comm)
        self.trace.complete(
            "decode",
            f"decode[q={q}]",
            start,
            dur,
            q=q,
            context_tokens=context,
            t_compute_s=t_compute,
            t_comm_s=t_comm,
            request_ids=list(request_ids),
        )

    def kv_transfer_span(
        self, start: float, dur: float, n_requests: int, tokens: int,
        request_ids: tuple[int, ...] = (),
    ) -> None:
        self._kv_transfers.inc()
        if self.attribution is not None:
            self.attribution.on_kv_span(dur, request_ids)
        self.trace.complete(
            "kv_transfer",
            f"kv[{n_requests}r/{tokens}t]",
            start,
            dur,
            n_requests=n_requests,
            tokens=tokens,
            request_ids=list(request_ids),
        )

    def allreduce_span(
        self,
        phase: str,
        start: float,
        dur: float,
        group: tuple[int, ...],
        policy: str,
        mode: str,
        steps: int,
        data_bytes: float,
        request_ids: tuple[int, ...] = (),
        bottleneck_link: int | None = None,
        bottleneck_kind: str = "",
        bottleneck_util: float = 0.0,
        switch: int | None = None,
    ) -> None:
        """One group's synchronisation slice of a pass, policy-labelled.

        Nested (by timestamps) inside the owning prefill/decode span.
        ``bottleneck_*`` names the most utilised link of the policy's
        footprint at decision time — the congestion it priced against.
        """
        if self.attribution is not None:
            self.attribution.on_allreduce(
                phase,
                request_ids,
                policy,
                dur,
                bottleneck_link,
                bottleneck_kind,
                bottleneck_util,
                switch,
            )
        self.trace.complete(
            "allreduce",
            f"allreduce:{policy}",
            start,
            dur,
            phase=phase,
            group="-".join(str(g) for g in group),
            policy=policy,
            mode=mode,
            steps=steps,
            data_bytes=data_bytes,
            request_ids=list(request_ids),
            bottleneck_link=bottleneck_link,
            bottleneck_kind=bottleneck_kind,
            bottleneck_util=bottleneck_util,
            switch=switch,
        )

    def policy_selected(
        self, group: tuple[int, ...], policy: str, mode: str
    ) -> None:
        self._policy_selections.inc(
            group="-".join(str(g) for g in group), policy=policy, mode=mode
        )

    # -- controller / link state ----------------------------------------------

    def controller_tick(self, ts: float, refreshed: bool) -> None:
        if refreshed:
            self._controller_refreshes.inc()
            self.trace.instant("controller", "refresh", ts)

    def sample_links(self, ts: float, linkstate: "LinkLoadTracker") -> None:
        """Export the monitoring agents' view as gauges/histograms."""
        for kind, (mean_u, max_u) in linkstate.utilization_by_kind().items():
            self._link_util_kind.set(mean_u, kind=kind, stat="mean")
            self._link_util_kind.set(max_u, kind=kind, stat="max")
        for cls, (mean_u, max_u) in (
            linkstate.utilization_by_class().items()
        ):
            self._link_util_class.observe(
                mean_u, link_class=cls, stat="mean"
            )
            self._link_util_class.observe(
                max_u, link_class=cls, stat="max"
            )
        for link_id, kind, util in linkstate.busy_links(
            LINK_GAUGE_MIN_UTIL
        ):
            self._link_util.set(util, link=str(link_id), kind=kind)

    def kv_sample(self, ts: float, used: int, capacity: int) -> None:
        if capacity > 0:
            self._kv_util.set(used / capacity)

    def engine_tick(self, ts: float, sim: "ServingSimulator") -> None:
        """One monitoring-cadence tick: sample the recorder, burn SLOs.

        Called by the engine on the same cadence as ``sample_links`` —
        controller refreshes for HeroServe runs, every Nth EWMA poll for
        baselines — so both run in *simulation* time and observed runs
        stay deterministic.
        """
        if self.recorder is not None:
            self.recorder.sample(ts, sim)
        if self.slo is not None:
            for alert in self.slo.evaluate(ts):
                self._slo_alerts.inc(
                    slo=alert.slo,
                    severity=alert.severity,
                    state=alert.state,
                )
                self.trace.instant(
                    "alerts",
                    f"{alert.severity}:{alert.state}",
                    ts,
                    slo=alert.slo,
                    burn_long=alert.burn_long,
                    burn_short=alert.burn_short,
                    message=alert.message,
                )

    # -- faults / failover ---------------------------------------------------
    #
    # Fault instruments are created lazily on the first fault event, so
    # observed fault-free runs export exactly the same metric names as
    # before the faults subsystem existed.

    def _fault_counter(self, attr: str, name: str, help: str):
        inst = getattr(self, attr, None)
        if inst is None:
            inst = self.metrics.counter(name, help)
            setattr(self, attr, inst)
        return inst

    def fault_injected(self, ts: float, kind: str, target: int) -> None:
        self._fault_counter(
            "_faults_injected",
            "repro_faults_injected_total",
            "fault events applied by the injector, by kind",
        ).inc(kind=kind)
        self.trace.instant("faults", f"inject:{kind}", ts, target=target)
        if self.recorder is not None:
            self.recorder.log_event(ts, "fault_injected", kind=kind,
                                    target=target)

    def health_transition(
        self, ts: float, kind: str, resource: int, state: str,
        detail: str = "",
    ) -> None:
        self._fault_counter(
            "_health_transitions",
            "repro_health_transitions_total",
            "detected resource health edges, by kind and state",
        ).inc(kind=kind, state=state)
        self.trace.instant(
            "faults",
            f"health:{kind}:{state}",
            ts,
            resource=resource,
            detail=detail,
        )
        if self.recorder is not None:
            self.recorder.log_event(
                ts, "health_transition", kind=kind, resource=resource,
                state=state, detail=detail,
            )

    def failover(
        self, ts: float, group: tuple[int, ...], direction: str
    ) -> None:
        self._fault_counter(
            "_failovers",
            "repro_failovers_total",
            "group policy-mask flips (ina->ring and back)",
        ).inc(direction=direction)
        self.trace.instant(
            "faults",
            f"failover:{direction}",
            ts,
            group="-".join(str(g) for g in group),
        )
        if self.recorder is not None:
            self.recorder.log_event(
                ts, "failover",
                group="-".join(str(g) for g in group),
                direction=direction,
            )

    def kv_retry(
        self, ts: float, attempt: int, delay: float,
        request_ids: tuple[int, ...] = (),
    ) -> None:
        self._fault_counter(
            "_kv_retries",
            "repro_kv_transfer_retries_total",
            "KV transfers deferred by backoff while decode unreachable",
        ).inc()
        if self.attribution is not None:
            self.attribution.on_kv_retry(request_ids)
        self.trace.instant(
            "faults",
            "kv_retry",
            ts,
            attempt=attempt,
            delay_s=delay,
            request_ids=list(request_ids),
        )

    def requests_requeued(
        self, ts: float, n: int, request_ids: tuple[int, ...] = ()
    ) -> None:
        self._fault_counter(
            "_requeued",
            "repro_requests_requeued_total",
            "requests that lost progress to a failure and redo prefill",
        ).inc(n)
        if self.attribution is not None:
            self.attribution.on_requeued(request_ids)
        self.trace.instant(
            "faults",
            "requeue",
            ts,
            n_requests=n,
            request_ids=list(request_ids),
        )
        if self.recorder is not None:
            self.recorder.log_event(ts, "requests_requeued", n=n)

    # -- online replanning ---------------------------------------------------

    def replan_event(self, ts: float, event: str, **detail) -> None:
        """One online-replanning lifecycle event (trigger, phase edge,
        cutover, rollback, suppression).

        ``detail`` must be JSON-serialisable; events land in the flight
        recorder's event stream, from which the report's "Plan
        transitions" timeline is built.
        """
        self._fault_counter(
            "_replan_events",
            "repro_replan_events_total",
            "online-replanning lifecycle events, by kind",
        ).inc(event=event)
        self.trace.instant("replan", event, ts, **detail)
        if self.recorder is not None:
            self.recorder.log_event(ts, event, **detail)

    def route_decision(
        self,
        ts: float,
        request_id: int,
        replica: int,
        router: str,
        reason: str,
        affinity_hit: bool | None = None,
        kv_fetch_bytes: float = 0.0,
    ) -> None:
        """One fleet routing decision (per request; recorder-bound).

        Counted by (router, reason); the full decision — including
        whether a session turn hit its KV-resident replica and how many
        resident bytes a miss dragged across the fabric — lands in the
        flight recorder's JSONL event stream as ``routing_decision``.
        Lazily instrumented like the fault counters, so fleets routed
        before the router layer existed export identical metric names.
        """
        self._fault_counter(
            "_route_decisions",
            "repro_route_decisions_total",
            "fleet routing decisions, by policy and reason",
        ).inc(router=router, reason=reason)
        if self.recorder is not None:
            detail: dict = {
                "request_id": request_id,
                "replica": replica,
                "router": router,
                "reason": reason,
            }
            if affinity_hit is not None:
                detail["affinity_hit"] = affinity_hit
            if kv_fetch_bytes:
                detail["kv_fetch_bytes"] = kv_fetch_bytes
            self.recorder.log_event(ts, "routing_decision", **detail)

    def fleet_all_degraded(self, ts: float, n_replicas: int) -> None:
        """Edge-triggered: every active replica is degraded at once, so
        the router fell back to least-backlog over degraded replicas."""
        self._fault_counter(
            "_fleet_all_degraded",
            "repro_fleet_all_degraded_total",
            "router fallbacks with every active replica degraded",
        ).inc()
        self.trace.instant(
            "faults", "fleet_all_degraded", ts, n_replicas=n_replicas
        )
        if self.recorder is not None:
            self.recorder.log_event(
                ts, "fleet_all_degraded", n_replicas=n_replicas
            )

    # -- run boundary --------------------------------------------------------

    def run_finished(self, ts: float, sim: "ServingSimulator") -> None:
        """End of a standalone engine run: attach derived summaries.

        When an attribution collector is present its fleet-wide
        critical-path budget is folded into the run's
        :class:`~repro.serving.metrics.ServingMetrics` (``cp_*`` summary
        keys). Absent one, this hook changes nothing — summaries stay
        byte-identical.
        """
        if self.attribution is not None and self.attribution.finished:
            sim.metrics.attribution_stats = (
                self.attribution.fleet_summary()
            )

    # -- profiling ----------------------------------------------------------

    def phase(self, name: str):
        """Wall-clock phase timer (planner phases, engine hot path)."""
        return self.profiler.phase(name)

    # -- export ---------------------------------------------------------------

    def export(
        self,
        trace_path: str | None = None,
        metrics_path: str | None = None,
    ) -> None:
        """Write collected telemetry to disk.

        ``trace_path`` ending in ``.jsonl`` gets the line-oriented dump;
        anything else gets Chrome-trace JSON (loadable in
        ``chrome://tracing`` / Perfetto). ``metrics_path`` gets the JSON
        snapshot, or the text exposition when it ends in ``.txt`` /
        ``.prom``. With a flight recorder attached, the metrics dump
        additionally carries a ``busiest_links`` table (peak sampled
        utilisation per link over the whole recording); recorder-less
        dumps are unchanged.
        """
        if trace_path is not None:
            if trace_path.endswith(".jsonl"):
                self.trace.write_jsonl(trace_path)
            else:
                self.trace.write_chrome(trace_path)
        if metrics_path is not None:
            busiest = (
                self.recorder.top_links()
                if self.recorder is not None and len(self.recorder)
                else []
            )
            if metrics_path.endswith((".txt", ".prom")):
                text = self.metrics.render_text()
                if busiest:
                    rows = [
                        "# busiest links (peak sampled utilisation)"
                    ] + [
                        f"# link {lid} [{kind}] {util:.3f}"
                        for lid, kind, util in busiest
                    ]
                    text += "\n".join(rows) + "\n"
                with open(metrics_path, "w") as fh:
                    fh.write(text)
            elif busiest:
                payload = self.metrics.snapshot()
                payload["busiest_links"] = [
                    {"link": lid, "kind": kind, "peak_util": util}
                    for lid, kind, util in busiest
                ]
                with open(metrics_path, "w") as fh:
                    json.dump(payload, fh, indent=2)
                    fh.write("\n")
            else:
                self.metrics.write_json(metrics_path)


class NullObserver:
    """Disabled observer: every hook is a no-op.

    The default on every config/constructor, so existing call sites and
    benchmarks pay only an attribute check (``obs.enabled``) or an empty
    method call when observability is off. The hooks are generated from
    :data:`OBSERVER_HOOKS`, so a hook added to :class:`Observer` is a
    no-op here without further code.

    ``NullObserver(profiler=PhaseProfiler())`` times the simulator hot
    path through :meth:`phase` while ``enabled`` stays ``False``: no
    spans, no metrics, and results byte-identical to an unobserved run.
    """

    enabled = False
    trace = None
    metrics = None
    slo = None
    recorder = None
    attribution = None

    def __init__(self, profiler=NULL_PROFILER) -> None:
        self.profiler = profiler

    def phase(self, name: str):
        return self.profiler.phase(name)

    def export(self, trace_path=None, metrics_path=None) -> None:
        pass


#: The per-event hooks: every public :class:`Observer` method except
#: ``phase`` and ``export``.
OBSERVER_HOOKS = tuple(
    name
    for name, member in vars(Observer).items()
    if callable(member)
    and not name.startswith("_")
    and name not in ("phase", "export")
)


def _no_op(self, *args, **kwargs) -> None:
    """Disabled observer hook."""


for _hook in OBSERVER_HOOKS:
    setattr(NullObserver, _hook, _no_op)
del _hook


#: Shared default instance (stateless, safe to share across engines).
NULL_OBSERVER = NullObserver()
