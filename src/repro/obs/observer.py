"""The observer: one event stream, fanned out to tracing, metrics and sinks.

A single observer is threaded through
:class:`~repro.serving.engine.EngineConfig`,
:class:`~repro.core.controller.CentralController`,
:class:`~repro.core.scheduler.LoadAwareScheduler` and
:class:`~repro.core.planner.OfflinePlanner`. Call sites fire small
semantic hooks (``request_finished``, ``allreduce_span``,
``monitor_tick`` ...) and never talk to a sink directly.

Every hook is declared once, with its signature and docstring, as a
no-op method of :class:`NullObserver`: that class is the event schema and
the disabled default everywhere, so an unobserved run pays a handful of
empty calls guarded by an ``enabled`` flag and stays byte-identical.
:class:`Observer` subclasses it; each of its hooks is a generated
fan-out calling, in order, the method of the same name on every sink
that defines one:

1. a trace sink (Chrome-trace swimlanes, :class:`TraceRecorder`);
2. a metrics sink (counters, gauges, histograms, :class:`MetricsRegistry`);
3. the optional :class:`~repro.obs.attribution.AttributionCollector`,
   :class:`~repro.obs.recorder.FlightRecorder` and
   :class:`~repro.obs.slo.SLOMonitor`.

SLO alerts reach the trace and the metrics through the monitor's own
:class:`~repro.obs.slo.AlertSink`, like any other alert subscriber.

This mirrors the paper's §III-D monitoring agents feeding one stream of
link and policy events to the controller: DCGM / switch hardware
counters become :class:`LinkLoadTracker` samples exported as gauges,
per-group policy decisions become labelled counters, and request
lifecycles become Chrome-trace swimlanes.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
from typing import TYPE_CHECKING

from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.profile import NULL_PROFILER, PhaseProfiler
from repro.obs.trace import REQUEST_PID, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.obs.attribution import AttributionCollector
    from repro.obs.recorder import FlightRecorder
    from repro.obs.slo import Alert, SLOMonitor
    from repro.serving.engine import ServingSimulator
    from repro.serving.request import RequestState

__all__ = ["Observer", "NullObserver", "NULL_OBSERVER", "OBSERVER_HOOKS"]

#: Sampled per-link gauges skip links quieter than this utilisation, so
#: one busy fabric link is visible without exporting thousands of zeros.
LINK_GAUGE_MIN_UTIL = 0.01


class NullObserver:
    """Disabled observer, and the declaration of every hook.

    The default on every config/constructor, so existing call sites and
    benchmarks pay only an attribute check (``obs.enabled``) or an empty
    method call when observability is off. Each public method other than
    :meth:`phase` and :meth:`export` is a hook; a sink consumes one by
    defining a method of the same name and signature.

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

    # -- request lifecycle --------------------------------------------------

    def request_arrival(self, ts: float, req: "RequestState") -> None:
        """A request entered the engine."""

    def request_dropped(self, ts: float, req: "RequestState") -> None:
        """A request was given up (its KV transfer exhausted its retries)."""

    def request_finished(self, ts: float, req: "RequestState") -> None:
        """A request produced its last token; its timestamps are final."""

    # -- engine passes -------------------------------------------------------

    def prefill_span(
        self, start: float, dur: float, n_requests: int, tokens: int,
        t_compute: float, t_comm: float,
        request_ids: tuple[int, ...] = (),
    ) -> None:
        """One prefill batch: ``t_comm`` of ``dur`` is synchronisation."""

    def decode_span(
        self, start: float, dur: float, q: int, context: int,
        t_compute: float, t_comm: float,
        request_ids: tuple[int, ...] = (),
    ) -> None:
        """One decode iteration over ``q`` requests."""

    def kv_transfer_span(
        self, start: float, dur: float, n_requests: int, tokens: int,
        request_ids: tuple[int, ...] = (),
    ) -> None:
        """One prefill->decode KV transfer of a batch."""

    def allreduce_span(
        self, phase: str, start: float, dur: float, decision: dict,
        request_ids: tuple[int, ...] = (),
    ) -> None:
        """One group's synchronisation slice of a pass, policy-labelled.

        Nested (by timestamps) inside the owning prefill/decode span.
        ``decision`` is the engine's per-group record: ``group``,
        ``policy``, ``mode``, ``steps``, ``step_time``, ``data_bytes``,
        ``switch`` and ``bottleneck_link``/``_kind``/``_util``, the most
        utilised link of the policy's footprint at decision time — the
        congestion it priced against.
        """

    def policy_selected(
        self, group: tuple[int, ...], policy: str, mode: str
    ) -> None:
        """A group's all-reduce policy was chosen (paper Fig. 5 table)."""

    def kv_sample(self, ts: float, used: int, capacity: int) -> None:
        """Decode KV-cache occupancy after a decode iteration."""

    # -- monitoring cadence ---------------------------------------------------

    def monitor_tick(
        self, ts: float, sim: "ServingSimulator", refreshed: bool
    ) -> None:
        """One monitoring-cadence tick: sample links, record, burn SLOs.

        Fired on every controller refresh of a HeroServe run
        (``refreshed`` true) and on every Nth EWMA link poll of a
        baseline (``refreshed`` false), so it runs in *simulation* time
        and observed runs stay deterministic.
        """

    # -- faults / failover ---------------------------------------------------

    def fault_injected(self, ts: float, kind: str, target: int) -> None:
        """The fault injector applied one fault event."""

    def health_transition(
        self, ts: float, kind: str, resource: int, state: str,
        detail: str = "",
    ) -> None:
        """Health detection saw a resource change state."""

    def failover(
        self, ts: float, group: tuple[int, ...], direction: str
    ) -> None:
        """A group's policy mask flipped (``ina->ring`` and back)."""

    def kv_retry(
        self, ts: float, attempt: int, delay: float,
        request_ids: tuple[int, ...] = (),
    ) -> None:
        """A KV transfer was deferred by backoff: decode unreachable."""

    def requests_requeued(
        self, ts: float, n: int, request_ids: tuple[int, ...] = ()
    ) -> None:
        """A failure wiped ``n`` requests' progress: they redo prefill."""

    # -- online replanning / fleet -------------------------------------------

    def replan_event(self, ts: float, event: str, **detail) -> None:
        """One online-replanning lifecycle event (trigger, phase edge,
        cutover, rollback, suppression).

        ``detail`` must be JSON-serialisable; events land in the flight
        recorder's event stream, from which the report's "Plan
        transitions" timeline is built.
        """

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
        """One fleet routing decision, including whether a session turn
        hit its KV-resident replica and how many resident bytes a miss
        dragged across the fabric."""

    def fleet_all_degraded(self, ts: float, n_replicas: int) -> None:
        """Edge-triggered: every active replica is degraded at once, so
        the router fell back to least-backlog over degraded replicas."""

    # -- run boundary --------------------------------------------------------

    def run_finished(self, ts: float, sim: "ServingSimulator") -> None:
        """End of a standalone engine run: attach derived summaries."""

    # -- not hooks -----------------------------------------------------------

    def phase(self, name: str):
        """Wall-clock phase timer (planner phases, engine hot path)."""
        return self.profiler.phase(name)

    def export(self, trace_path=None, metrics_path=None) -> None:
        pass


#: The hook names, in declaration order.
OBSERVER_HOOKS = tuple(
    name
    for name, member in vars(NullObserver).items()
    if callable(member)
    and not name.startswith("_")
    and name not in ("phase", "export")
)


def _span_if_valid(trace, name, start, end, rid, **args) -> None:
    if math.isnan(start) or math.isnan(end) or end < start:
        return
    trace.complete(
        "requests", name, start, end - start, pid=REQUEST_PID, tid=rid,
        request_id=rid, **args,
    )


def _group_label(group: tuple[int, ...]) -> str:
    return "-".join(str(g) for g in group)


class _TraceSink:
    """Request swimlanes, pass spans and instants on the trace.

    Sink methods take their hook's parameters; the types are declared
    on :class:`NullObserver`.
    """

    def __init__(self, trace: TraceRecorder) -> None:
        self.trace = trace

    def request_arrival(self, ts, req) -> None:
        self.trace.instant(
            "requests", "arrival", ts, request_id=req.request_id,
            input_len=req.input_len, output_len=req.output_len,
        )

    def request_dropped(self, ts, req) -> None:
        self.trace.instant(
            "requests", "dropped", ts, request_id=req.request_id
        )

    def request_finished(self, ts, req) -> None:
        t, r = self.trace, req
        rid = r.request_id
        _span_if_valid(t, "queued", r.arrival_time, r.prefill_start, rid)
        _span_if_valid(
            t, "prefill", r.prefill_start, r.first_token_time, rid,
            input_len=r.input_len,
        )
        _span_if_valid(
            t, "kv_transfer", r.first_token_time, r.kv_done_time, rid
        )
        _span_if_valid(
            t, "decode_wait", r.kv_done_time, r.decode_start, rid
        )
        _span_if_valid(
            t, "decode", r.decode_start, r.finish_time, rid,
            output_len=r.output_len, ttft_s=r.ttft, tpot_s=r.tpot,
        )

    def prefill_span(
        self, start, dur, n_requests, tokens, t_compute, t_comm,
        request_ids=(),
    ) -> None:
        self.trace.complete(
            "prefill", f"prefill[{n_requests}r/{tokens}t]", start, dur,
            n_requests=n_requests, tokens=tokens, t_compute_s=t_compute,
            t_comm_s=t_comm, request_ids=list(request_ids),
        )

    def decode_span(
        self, start, dur, q, context, t_compute, t_comm, request_ids=()
    ) -> None:
        self.trace.complete(
            "decode", f"decode[q={q}]", start, dur, q=q,
            context_tokens=context, t_compute_s=t_compute,
            t_comm_s=t_comm, request_ids=list(request_ids),
        )

    def kv_transfer_span(
        self, start, dur, n_requests, tokens, request_ids=()
    ) -> None:
        self.trace.complete(
            "kv_transfer", f"kv[{n_requests}r/{tokens}t]", start, dur,
            n_requests=n_requests, tokens=tokens,
            request_ids=list(request_ids),
        )

    def allreduce_span(
        self, phase, start, dur, decision, request_ids=()
    ) -> None:
        d = decision
        self.trace.complete(
            "allreduce", f"allreduce:{d['policy']}", start, dur,
            phase=phase, group=_group_label(d["group"]),
            policy=d["policy"], mode=d["mode"], steps=d["steps"],
            data_bytes=d["data_bytes"], request_ids=list(request_ids),
            bottleneck_link=d["bottleneck_link"],
            bottleneck_kind=d["bottleneck_kind"],
            bottleneck_util=d["bottleneck_util"], switch=d["switch"],
        )

    def monitor_tick(self, ts, sim, refreshed) -> None:
        if refreshed:
            self.trace.instant("controller", "refresh", ts)

    def slo_alert(self, alert: "Alert") -> None:
        self.trace.instant(
            "alerts", f"{alert.severity}:{alert.state}", alert.time,
            slo=alert.slo, burn_long=alert.burn_long,
            burn_short=alert.burn_short, message=alert.message,
        )

    def fault_injected(self, ts, kind, target) -> None:
        self.trace.instant("faults", f"inject:{kind}", ts, target=target)

    def health_transition(self, ts, kind, resource, state, detail="") -> None:
        self.trace.instant(
            "faults", f"health:{kind}:{state}", ts, resource=resource,
            detail=detail,
        )

    def failover(self, ts, group, direction) -> None:
        self.trace.instant(
            "faults", f"failover:{direction}", ts, group=_group_label(group)
        )

    def kv_retry(self, ts, attempt, delay, request_ids=()) -> None:
        self.trace.instant(
            "faults", "kv_retry", ts, attempt=attempt, delay_s=delay,
            request_ids=list(request_ids),
        )

    def requests_requeued(self, ts, n, request_ids=()) -> None:
        self.trace.instant(
            "faults", "requeue", ts, n_requests=n,
            request_ids=list(request_ids),
        )

    def replan_event(self, ts, event, **detail) -> None:
        self.trace.instant("replan", event, ts, **detail)

    def fleet_all_degraded(self, ts, n_replicas) -> None:
        self.trace.instant(
            "faults", "fleet_all_degraded", ts, n_replicas=n_replicas
        )


class _MetricsSink:
    """Counters, gauges and histograms in the registry."""

    def __init__(self, metrics: MetricsRegistry) -> None:
        self.metrics = m = metrics
        #: counters registered on their first event, see :meth:`_counter`
        self._lazy: dict[str, Counter] = {}
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

    def _counter(self, name: str, help: str) -> Counter:
        """A fault, replan or routing counter, registered on its first
        event so runs without such events export exactly the metric
        names they did before those subsystems existed."""
        inst = self._lazy.get(name)
        if inst is None:
            inst = self._lazy[name] = self.metrics.counter(name, help)
        return inst

    def request_arrival(self, ts, req) -> None:
        self._requests.inc(event="arrival")

    def request_dropped(self, ts, req) -> None:
        self._requests.inc(event="dropped")

    def request_finished(self, ts, req) -> None:
        self._requests.inc(event="finished")
        self._ttft.observe(req.ttft)
        self._tpot.observe(req.tpot)

    def prefill_span(
        self, start, dur, n_requests, tokens, t_compute, t_comm,
        request_ids=(),
    ) -> None:
        self._prefill_batches.inc()
        self._batch_size.observe(n_requests, phase="prefill")

    def decode_span(
        self, start, dur, q, context, t_compute, t_comm, request_ids=()
    ) -> None:
        self._decode_iters.inc()
        self._batch_size.observe(q, phase="decode")

    def kv_transfer_span(
        self, start, dur, n_requests, tokens, request_ids=()
    ) -> None:
        self._kv_transfers.inc()

    def policy_selected(self, group, policy, mode) -> None:
        self._policy_selections.inc(
            group=_group_label(group), policy=policy, mode=mode
        )

    def kv_sample(self, ts, used, capacity) -> None:
        if capacity > 0:
            self._kv_util.set(used / capacity)

    def monitor_tick(self, ts, sim, refreshed) -> None:
        """Export the monitoring agents' view as gauges/histograms."""
        if refreshed:
            self._controller_refreshes.inc()
        ls = sim.ctx.linkstate
        for kind, (mean_u, max_u) in ls.utilization_by_kind().items():
            self._link_util_kind.set(mean_u, kind=kind, stat="mean")
            self._link_util_kind.set(max_u, kind=kind, stat="max")
        for cls, (mean_u, max_u) in ls.utilization_by_class().items():
            self._link_util_class.observe(mean_u, link_class=cls, stat="mean")
            self._link_util_class.observe(max_u, link_class=cls, stat="max")
        for link_id, kind, util in ls.busy_links(LINK_GAUGE_MIN_UTIL):
            self._link_util.set(util, link=str(link_id), kind=kind)

    def slo_alert(self, alert: "Alert") -> None:
        self._slo_alerts.inc(
            slo=alert.slo, severity=alert.severity, state=alert.state
        )

    def fault_injected(self, ts, kind, target) -> None:
        self._counter(
            "repro_faults_injected_total",
            "fault events applied by the injector, by kind",
        ).inc(kind=kind)

    def health_transition(self, ts, kind, resource, state, detail="") -> None:
        self._counter(
            "repro_health_transitions_total",
            "detected resource health edges, by kind and state",
        ).inc(kind=kind, state=state)

    def failover(self, ts, group, direction) -> None:
        self._counter(
            "repro_failovers_total",
            "group policy-mask flips (ina->ring and back)",
        ).inc(direction=direction)

    def kv_retry(self, ts, attempt, delay, request_ids=()) -> None:
        self._counter(
            "repro_kv_transfer_retries_total",
            "KV transfers deferred by backoff while decode unreachable",
        ).inc()

    def requests_requeued(self, ts, n, request_ids=()) -> None:
        self._counter(
            "repro_requests_requeued_total",
            "requests that lost progress to a failure and redo prefill",
        ).inc(n)

    def replan_event(self, ts, event, **detail) -> None:
        self._counter(
            "repro_replan_events_total",
            "online-replanning lifecycle events, by kind",
        ).inc(event=event)

    def route_decision(
        self, ts, request_id, replica, router, reason, affinity_hit=None,
        kv_fetch_bytes=0.0,
    ) -> None:
        self._counter(
            "repro_route_decisions_total",
            "fleet routing decisions, by policy and reason",
        ).inc(router=router, reason=reason)

    def fleet_all_degraded(self, ts, n_replicas) -> None:
        self._counter(
            "repro_fleet_all_degraded_total",
            "router fallbacks with every active replica degraded",
        ).inc()


class Observer(NullObserver):
    """Recording observer: every hook fans out to the sinks defining it.

    The trace and metrics sinks are always present. ``attribution``,
    ``recorder`` and ``slo`` are optional sinks; each consumes the hooks
    it defines methods for (see ``docs/OBSERVABILITY.md`` for the table).
    """

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
        self.slo = slo
        self.recorder = recorder
        self.attribution = attribution
        trace_sink = _TraceSink(self.trace)
        metrics_sink = _MetricsSink(self.metrics)
        sinks = (trace_sink, metrics_sink, attribution, recorder, slo)
        #: hook name -> bound methods it fans out to; an absent sink is
        #: ``None``, whose type defines no hook
        self._subscribers = {
            hook: tuple(
                getattr(sink, hook)
                for sink in sinks
                if hasattr(type(sink), hook)
            )
            for hook in OBSERVER_HOOKS
        }
        if slo is not None:
            slo.sink.subscribe(trace_sink.slo_alert)
            slo.sink.subscribe(metrics_sink.slo_alert)

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
        ``.prom``. With a non-empty flight recorder attached, the metrics
        dump additionally carries a ``busiest_links`` table (peak sampled
        utilisation per link over the whole recording); recorder-less
        dumps are unchanged.
        """
        if trace_path is not None:
            if trace_path.endswith(".jsonl"):
                self.trace.write_jsonl(trace_path)
            else:
                self.trace.write_chrome(trace_path)
        if metrics_path is not None:
            # None and an empty recorder are both falsy
            busiest = self.recorder.top_links() if self.recorder else []
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


def _fan_out(hook: str):
    """Observer's ``hook``: call every subscribed sink method in order.

    Compiled with the declaration's own parameter list and forwarding
    positionally, so a hook costs about what a hand-written method
    would; repacking through ``*args, **kwargs`` made keyword calls
    three times as expensive.
    """
    decl = vars(NullObserver)[hook]
    params = list(inspect.signature(decl).parameters.values())[1:]
    # "ts, req" or "ts, event, **detail": the parameter list without
    # annotations or defaults doubles as the forwarding argument list
    names = ", ".join(
        str(p.replace(annotation=p.empty, default=p.empty)) for p in params
    )
    namespace: dict = {}
    exec(
        f"def {hook}(self, {names}):\n"
        f"    for fn in self._subscribers[{hook!r}]:\n"
        f"        fn({names})\n",
        namespace,
    )
    fan_out = namespace[hook]
    fan_out.__defaults__ = decl.__defaults__
    functools.update_wrapper(fan_out, decl)
    fan_out.__qualname__ = f"Observer.{hook}"
    return fan_out


for _hook in OBSERVER_HOOKS:
    setattr(Observer, _hook, _fan_out(_hook))
del _hook


#: Shared default instance (stateless, safe to share across engines).
NULL_OBSERVER = NullObserver()
