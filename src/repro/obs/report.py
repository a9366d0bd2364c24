"""Dashboard report: one self-contained HTML file + a terminal summary.

Folds the run's telemetry — :class:`~repro.obs.recorder.FlightRecorder`
timelines, :class:`~repro.obs.metrics.MetricsRegistry` snapshots, the
:class:`~repro.obs.slo.SLOMonitor` attainment/alert state and the
:class:`~repro.serving.metrics.ServingMetrics` reductions — into a
single HTML document with **no external assets**: styles are inline,
charts are inline SVG sparklines, and light/dark theming rides CSS
custom properties on ``prefers-color-scheme``. The same data renders as
a plain-text summary for terminals and CI logs.

Sections: SLO attainment table (per-target burn rates and status),
alert log, critical-path attribution (stacked per-component budget bars
and the slowest-request table, when an
:class:`~repro.obs.attribution.AttributionCollector` was attached),
cluster timeline sparkline tiles (queues, KV, per-kind link
utilisation, INA switch pressure), top-k busiest links, policy-flip
timeline, the per-group policy selection table, and the online
replanning "Plan transitions" event log (when ``--online-replan`` ran).
"""

from __future__ import annotations

import html
import json
import math
from typing import Any

__all__ = [
    "build_report_data",
    "render_html",
    "render_text",
    "write_report",
]


# ---------------------------------------------------------------------------
# data assembly
# ---------------------------------------------------------------------------


def _finite(x: Any) -> float | None:
    try:
        v = float(x)
    except (TypeError, ValueError):
        return None
    return v if math.isfinite(v) else None


def build_report_data(
    observer=None,
    serving_metrics=None,
    title: str = "repro serving run",
    meta: dict[str, Any] | None = None,
    whatif: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Fold observer + metrics into one JSON-serialisable report dict.

    ``whatif`` is an optional
    :meth:`~repro.obs.whatif.WhatIfResult.to_payload` dump; when given,
    the report gains a ranked "What-if" intervention ladder.
    """
    data: dict[str, Any] = {
        "title": title,
        "meta": dict(meta or {}),
        "summary": {},
        "slo": None,
        "flight": None,
        "attribution": None,
        "whatif": whatif,
        "policy_selections": [],
        "transitions": [],
    }
    if serving_metrics is not None:
        data["summary"] = {
            k: _finite(v) for k, v in serving_metrics.summary().items()
        }

    if observer is None:
        return data

    now = 0.0
    recorder = observer.recorder
    if recorder is not None:
        data["transitions"] = recorder.replan_timeline()
    if recorder is not None and len(recorder):
        samples = recorder.samples()
        now = samples[-1].time
        kinds = sorted(
            {k for s in samples for k in s.link_util}
        )
        switches = sorted(
            {sw for s in samples for sw in s.switch_pressure}
        )
        data["flight"] = {
            "n_samples": len(recorder),
            "evicted": recorder.evicted,
            "times": [s.time for s in samples],
            "series": {
                name: recorder.series(name)[1]
                for name in (
                    "prefill_queue",
                    "decode_pending",
                    "decode_active",
                    "kv_utilization",
                )
            },
            "link_kinds": {
                kind: recorder.link_kind_series(kind, "max")
                for kind in kinds
            },
            "switch_pressure": {
                str(sw): [
                    (s.time, s.switch_pressure[sw][1])
                    for s in samples
                    if sw in s.switch_pressure
                ]
                for sw in switches
            },
            "aggregators": {
                str(sw): [
                    (s.time, s.aggregators[sw])
                    for s in samples
                    if sw in s.aggregators
                ]
                for sw in sorted(
                    {sw for s in samples for sw in s.aggregators}
                )
            },
            "top_links": recorder.top_links(),
            "policy_flips": recorder.policy_flips(),
        }

    slo = observer.slo
    if slo is not None:
        data["slo"] = slo.snapshot(now)

    attribution = observer.attribution
    if attribution is not None and attribution.finished:
        data["attribution"] = {
            "n_requests": len(attribution.finished),
            "budget": attribution.budget(),
            "slowest": [
                {
                    "request_id": a.request_id,
                    "total_s": a.total,
                    "ttft_s": a.ttft,
                    "decode_s": a.decode_latency,
                    "dominant": a.dominant[0],
                    "dominant_s": a.dominant[1],
                    "detail": a.dominant_detail(),
                    "components": dict(a.components),
                    "requeues": a.requeues,
                    "kv_retries": a.kv_retries,
                }
                for a in attribution.slowest(5)
            ],
        }

    metrics = observer.metrics
    if metrics is not None:
        sel = metrics.get("repro_policy_selections_total")
        if sel is not None:
            data["policy_selections"] = sorted(
                (
                    {"labels": dict(k), "count": v}
                    for k, v in sel._values.items()
                ),
                key=lambda row: -row["count"],
            )
    return data


# ---------------------------------------------------------------------------
# inline SVG sparklines
# ---------------------------------------------------------------------------

_SPARK_W = 220
_SPARK_H = 44
_PAD = 3


def _sparkline_svg(
    times: list[float],
    values: list[float],
    fmt: str = "{:.2f}",
) -> str:
    """One 2px-line sparkline with endpoint dot and hover titles."""
    pts = [
        (t, v)
        for t, v in zip(times, values)
        if _finite(v) is not None
    ]
    if len(pts) < 2:
        return (
            f'<svg class="spark" viewBox="0 0 {_SPARK_W} {_SPARK_H}" '
            'role="img" aria-label="not enough samples"></svg>'
        )
    t0, t1 = pts[0][0], pts[-1][0]
    vs = [v for _, v in pts]
    lo, hi = min(vs), max(vs)
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    span_t = (t1 - t0) or 1.0

    def x(t: float) -> float:
        return _PAD + (t - t0) / span_t * (_SPARK_W - 2 * _PAD)

    def y(v: float) -> float:
        return _PAD + (hi - v) / (hi - lo) * (_SPARK_H - 2 * _PAD)

    path = " ".join(f"{x(t):.1f},{y(v):.1f}" for t, v in pts)
    ex, ey = x(pts[-1][0]), y(pts[-1][1])
    # Per-point hover targets (wider than the mark) with native titles.
    hover = []
    if len(pts) <= 400:
        half = (_SPARK_W - 2 * _PAD) / max(len(pts) - 1, 1) / 2
        for t, v in pts:
            cx = x(t)
            tip = html.escape(f"t={t:.1f}s: {fmt.format(v)}")
            hover.append(
                f'<rect x="{cx - half:.1f}" y="0" '
                f'width="{2 * half:.1f}" height="{_SPARK_H}" '
                f'fill="transparent"><title>{tip}</title></rect>'
            )
    return (
        f'<svg class="spark" viewBox="0 0 {_SPARK_W} {_SPARK_H}" '
        f'width="{_SPARK_W}" height="{_SPARK_H}" role="img">'
        f'<polyline points="{path}" fill="none" '
        'stroke="var(--series-1)" stroke-width="2" '
        'stroke-linejoin="round" stroke-linecap="round"/>'
        f'<circle cx="{ex:.1f}" cy="{ey:.1f}" r="4" '
        'fill="var(--series-1)" stroke="var(--surface-1)" '
        'stroke-width="2"/>'
        f"{''.join(hover)}"
        "</svg>"
    )


def _tile(label: str, value: str, spark: str) -> str:
    return (
        '<div class="tile">'
        f'<div class="tile-label">{html.escape(label)}</div>'
        f'<div class="tile-value">{html.escape(value)}</div>'
        f"{spark}"
        "</div>"
    )


# ---------------------------------------------------------------------------
# HTML rendering
# ---------------------------------------------------------------------------

_CSS = """
:root { color-scheme: light dark; }
.viz-root {
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --muted: #898781; --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --series-4: #8f5fd6; --series-5: #d6a21f; --series-6: #d64a8a;
  --series-7: #2ab5c9; --series-8: #7a8a2a; --series-9: #8a8a8a;
  --status-good: #0ca30c; --status-warning: #fab219;
  --status-critical: #d03b3b;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  color: var(--text-primary); background: var(--page);
  margin: 0; padding: 24px; line-height: 1.45;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    --surface-1: #1a1a19; --page: #0d0d0d;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --muted: #898781; --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
    --series-4: #9a6ee0; --series-5: #c9981f; --series-6: #e0569a;
    --series-7: #31aec1; --series-8: #8a9a35; --series-9: #9a9a9a;
  }
}
.viz-root .cpbar { display: flex; width: 100%; max-width: 640px;
  height: 18px; border-radius: 4px; overflow: hidden;
  border: 1px solid var(--border); margin: 4px 0 10px; }
.viz-root .cpbar span { display: block; height: 100%; }
.viz-root .cplegend { display: flex; flex-wrap: wrap; gap: 4px 14px;
  font-size: 12px; color: var(--text-secondary); margin: 2px 0 14px; }
.viz-root .cplegend .key { display: inline-block; width: 10px;
  height: 10px; border-radius: 2px; margin-right: 4px; }
.viz-root .cpbar-label { font-size: 12px;
  color: var(--text-secondary); }
.viz-root h1 { font-size: 20px; margin: 0 0 2px; }
.viz-root h2 { font-size: 14px; margin: 28px 0 10px;
  color: var(--text-secondary); text-transform: uppercase;
  letter-spacing: 0.04em; }
.viz-root .sub { color: var(--muted); font-size: 13px; margin: 0 0 18px; }
.viz-root table { border-collapse: collapse; font-size: 13px;
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 6px; }
.viz-root th, .viz-root td { padding: 6px 12px; text-align: left;
  border-bottom: 1px solid var(--grid); }
.viz-root td.num, .viz-root th.num { text-align: right;
  font-variant-numeric: tabular-nums; }
.viz-root tr:last-child td { border-bottom: none; }
.viz-root th { color: var(--text-secondary); font-weight: 600; }
.viz-root .tiles { display: flex; flex-wrap: wrap; gap: 12px; }
.viz-root .tile { background: var(--surface-1); padding: 10px 14px;
  border: 1px solid var(--border); border-radius: 6px; }
.viz-root .tile-label { font-size: 12px; color: var(--text-secondary); }
.viz-root .tile-value { font-size: 20px; font-weight: 600;
  margin: 2px 0 6px; }
.viz-root .spark { display: block; }
.viz-root .status { font-weight: 600; white-space: nowrap; }
.viz-root .status::before { content: "\\25CF\\00A0"; }
.viz-root .status.ok { color: var(--status-good); }
.viz-root .status.ticket { color: var(--status-warning); }
.viz-root .status.page { color: var(--status-critical); }
.viz-root .empty { color: var(--muted); font-size: 13px; }
"""


def _status_cell(paging: bool, ticketing: bool) -> str:
    if paging:
        return '<span class="status page">page</span>'
    if ticketing:
        return '<span class="status ticket">ticket</span>'
    return '<span class="status ok">met</span>'


def _fmt(v: Any, spec: str = "{:.3g}") -> str:
    f = _finite(v)
    return spec.format(f) if f is not None else "—"


def _slo_table(slo: dict | None) -> str:
    if not slo or not slo.get("targets"):
        return '<p class="empty">no SLO targets configured</p>'
    rows = []
    for t in slo["targets"]:
        att_fast = t.get("attainment_fast")
        att_slow = t.get("attainment_slow")
        rows.append(
            "<tr>"
            f"<td>{html.escape(t['name'])}</td>"
            f"<td class='num'>{t['objective']:.0%}</td>"
            f"<td class='num'>{_fmt(att_fast, '{:.1%}')}</td>"
            f"<td class='num'>{_fmt(att_slow, '{:.1%}')}</td>"
            f"<td class='num'>{t['burn_fast']:.2f}x</td>"
            f"<td class='num'>{t['burn_slow']:.2f}x</td>"
            f"<td class='num'>{t['n_slow']}</td>"
            f"<td>{_status_cell(t['paging'], t['ticketing'])}</td>"
            "</tr>"
        )
    return (
        "<table><thead><tr>"
        "<th>SLO</th><th class='num'>objective</th>"
        "<th class='num'>attain (fast win)</th>"
        "<th class='num'>attain (slow win)</th>"
        "<th class='num'>burn fast</th><th class='num'>burn slow</th>"
        "<th class='num'>requests</th><th>status</th>"
        f"</tr></thead><tbody>{''.join(rows)}</tbody></table>"
    )


def _alert_table(slo: dict | None) -> str:
    alerts = (slo or {}).get("alerts") or []
    if not alerts:
        return '<p class="empty">no alerts fired</p>'
    rows = []
    for a in alerts:
        cls = a["severity"] if a["state"] == "firing" else "ok"
        rows.append(
            "<tr>"
            f"<td class='num'>{a['time']:.1f}s</td>"
            f"<td><span class='status {cls}'>{a['severity']}</span></td>"
            f"<td>{html.escape(a['state'])}</td>"
            f"<td>{html.escape(a['slo'])}</td>"
            f"<td class='num'>{a['burn_long']:.1f}x</td>"
            f"<td class='num'>{_fmt(a['attainment'], '{:.1%}')}</td>"
            f"<td>{html.escape(a['message'])}</td>"
            "</tr>"
        )
    return (
        "<table><thead><tr>"
        "<th class='num'>time</th><th>severity</th><th>state</th>"
        "<th>SLO</th><th class='num'>burn</th>"
        "<th class='num'>attainment</th><th>detail</th>"
        f"</tr></thead><tbody>{''.join(rows)}</tbody></table>"
    )


def _transition_detail(ev: dict) -> str:
    """Compact ``key=value`` rendering of an event's extra fields."""
    parts = []
    for k, v in ev.items():
        if k in ("time", "event", "from_plan", "to_plan"):
            continue
        f = _finite(v)
        parts.append(f"{k}={f:.4g}" if f is not None else f"{k}={v}")
    return " ".join(parts)


def _transitions_section(transitions: list[dict]) -> str:
    if not transitions:
        return (
            '<p class="empty">no replanning activity — run with '
            "<code>--online-replan</code> to arm the drift "
            "detector</p>"
        )
    rows = []
    for ev in transitions:
        name = ev["event"]
        cls = {
            "transition_complete": "ok",
            "transition_rollback": "page",
            "replan_suppressed": "ticket",
        }.get(name, "")
        plan = ""
        if ev.get("from_plan") or ev.get("to_plan"):
            plan = (
                f"{ev.get('from_plan', '?')} &rarr; "
                f"{ev.get('to_plan', '?')}"
            )
        rows.append(
            "<tr>"
            f"<td class='num'>{ev['time']:.2f}s</td>"
            f"<td><span class='status {cls}'>{html.escape(name)}"
            "</span></td>"
            f"<td>{plan}</td>"
            f"<td>{html.escape(_transition_detail(ev))}</td>"
            "</tr>"
        )
    return (
        "<table><thead><tr>"
        "<th class='num'>time</th><th>event</th><th>plan</th>"
        "<th>detail</th>"
        f"</tr></thead><tbody>{''.join(rows)}</tbody></table>"
    )


def _timeline_tiles(flight: dict | None) -> str:
    if not flight:
        return (
            '<p class="empty">flight recorder disabled — run with the '
            "recorder attached to see timelines</p>"
        )
    times = flight["times"]
    tiles = []
    labels = {
        "prefill_queue": ("prefill queue", "{:.0f}"),
        "decode_pending": ("decode pending", "{:.0f}"),
        "decode_active": ("decode batch", "{:.0f}"),
        "kv_utilization": ("KV-cache utilisation", "{:.1%}"),
    }
    for key, (label, fmt) in labels.items():
        vals = flight["series"].get(key) or []
        if not vals:
            continue
        last = _finite(vals[-1])
        tiles.append(
            _tile(
                label,
                fmt.format(last) if last is not None else "—",
                _sparkline_svg(times, vals, fmt),
            )
        )
    for kind, (kt, kv) in sorted(flight["link_kinds"].items()):
        if not kv:
            continue
        tiles.append(
            _tile(
                f"{kind} link util (max)",
                "{:.1%}".format(kv[-1]),
                _sparkline_svg(kt, kv, "{:.1%}"),
            )
        )
    for sw, pts in sorted(flight["switch_pressure"].items()):
        if not pts:
            continue
        st = [p[0] for p in pts]
        sv = [p[1] for p in pts]
        tiles.append(
            _tile(
                f"INA switch {sw} port pressure",
                "{:.1%}".format(sv[-1]),
                _sparkline_svg(st, sv, "{:.1%}"),
            )
        )
    for sw, pts in sorted((flight.get("aggregators") or {}).items()):
        occ = [
            (t, c["pending"] / max(c["pending"] + c["free_slots"], 1))
            for t, c in pts
        ]
        if not occ:
            continue
        tiles.append(
            _tile(
                f"switch {sw} aggregator occupancy",
                "{:.1%}".format(occ[-1][1]),
                _sparkline_svg(
                    [p[0] for p in occ], [p[1] for p in occ], "{:.1%}"
                ),
            )
        )
    return f'<div class="tiles">{"".join(tiles)}</div>'


def _top_links_table(flight: dict | None) -> str:
    links = (flight or {}).get("top_links") or []
    if not links:
        return '<p class="empty">no link ever exceeded the record threshold</p>'
    rows = [
        "<tr>"
        f"<td class='num'>{lid}</td><td>{html.escape(kind)}</td>"
        f"<td class='num'>{util:.1%}</td>"
        "</tr>"
        for lid, kind, util in links
    ]
    return (
        "<table><thead><tr><th class='num'>link</th><th>kind</th>"
        "<th class='num'>peak util</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def _policy_tables(data: dict) -> str:
    out = []
    flips = (data.get("flight") or {}).get("policy_flips") or []
    if flips:
        rows = [
            "<tr>"
            f"<td class='num'>{f['time']:.1f}s</td>"
            f"<td>{html.escape(f['group'])}</td>"
            f"<td>{html.escape(f['from'])}</td>"
            f"<td>{html.escape(f['to'])}</td>"
            "</tr>"
            for f in flips
        ]
        out.append(
            "<table><thead><tr><th class='num'>time</th><th>group</th>"
            "<th>from</th><th>to</th></tr></thead>"
            f"<tbody>{''.join(rows)}</tbody></table>"
        )
    else:
        out.append(
            '<p class="empty">no policy flips recorded (static plan or '
            "stable load)</p>"
        )
    sels = data.get("policy_selections") or []
    if sels:
        rows = [
            "<tr>"
            f"<td>{html.escape(s['labels'].get('group', ''))}</td>"
            f"<td>{html.escape(s['labels'].get('policy', ''))}</td>"
            f"<td>{html.escape(s['labels'].get('mode', ''))}</td>"
            f"<td class='num'>{int(s['count'])}</td>"
            "</tr>"
            for s in sels[:20]
        ]
        out.append(
            "<h2>Policy selections</h2>"
            "<table><thead><tr><th>group</th><th>policy</th><th>mode</th>"
            "<th class='num'>selections</th></tr></thead>"
            f"<tbody>{''.join(rows)}</tbody></table>"
        )
    return "".join(out)


#: Stable component -> CSS series-colour assignment for the stacked bars.
_CP_COLORS = {
    "queue_wait": "var(--series-5)",
    "fault_redo": "var(--status-critical)",
    "prefill_compute": "var(--series-1)",
    "prefill_allreduce": "var(--series-2)",
    "kv_transfer": "var(--series-7)",
    "kv_retry_backoff": "var(--series-6)",
    "decode_wait": "var(--series-9)",
    "decode_compute": "var(--series-3)",
    "decode_allreduce": "var(--series-4)",
}


def _cp_stacked_bar(budget: dict, stat: str) -> str:
    """One horizontal stacked bar over the per-component ``stat``."""
    total = sum(s.get(stat, 0.0) for s in budget.values())
    if total <= 0:
        return ""
    segs = []
    for name, stats in budget.items():
        v = stats.get(stat, 0.0)
        frac = v / total
        if frac < 0.001:
            continue
        tip = html.escape(f"{name}: {v:.4f}s ({frac:.1%})")
        segs.append(
            f'<span style="width:{frac * 100:.2f}%;'
            f'background:{_CP_COLORS.get(name, "var(--muted)")}" '
            f'title="{tip}"></span>'
        )
    return (
        f'<div class="cpbar-label">{stat} budget '
        f"({total:.3f}s total)</div>"
        f'<div class="cpbar">{"".join(segs)}</div>'
    )


def _attribution_section(attribution: dict | None) -> str:
    """Stacked per-component budget bars + the slowest-request table."""
    if not attribution:
        return (
            '<p class="empty">attribution disabled — attach an '
            "AttributionCollector (or run `python -m repro explain`) "
            "to decompose per-request critical paths</p>"
        )
    budget = attribution.get("budget") or {}
    legend = "".join(
        f'<span><span class="key" style="background:'
        f'{_CP_COLORS.get(name, "var(--muted)")}"></span>'
        f"{html.escape(name)}</span>"
        for name, stats in budget.items()
        if stats.get("share", 0.0) >= 0.001
    )
    bars = (
        f'<p class="sub">over {attribution["n_requests"]} finished '
        "requests; segment = component share of the per-request "
        "p50/p99 time budget</p>"
        f"{_cp_stacked_bar(budget, 'p50')}"
        f"{_cp_stacked_bar(budget, 'p99')}"
        f'<div class="cplegend">{legend}</div>'
    )
    rows = []
    for r in attribution.get("slowest") or []:
        flags = []
        if r.get("requeues"):
            flags.append(f"{r['requeues']} requeue")
        if r.get("kv_retries"):
            flags.append(f"{r['kv_retries']} kv-retry")
        detail = r.get("detail") or ""
        if flags:
            detail = f"{detail} [{', '.join(flags)}]" if detail else (
                f"[{', '.join(flags)}]"
            )
        rows.append(
            "<tr>"
            f"<td class='num'>{r['request_id']}</td>"
            f"<td class='num'>{r['total_s']:.3f}s</td>"
            f"<td class='num'>{r['ttft_s']:.3f}s</td>"
            f"<td>{html.escape(r['dominant'])}</td>"
            f"<td class='num'>{r['dominant_s']:.3f}s</td>"
            f"<td>{html.escape(detail)}</td>"
            "</tr>"
        )
    table = (
        "<table><thead><tr>"
        "<th class='num'>request</th><th class='num'>total</th>"
        "<th class='num'>TTFT</th><th>dominant component</th>"
        "<th class='num'>time</th><th>detail</th>"
        f"</tr></thead><tbody>{''.join(rows)}</tbody></table>"
    )
    return bars + "<h2>Slowest requests</h2>" + table


def _whatif_section(whatif: dict | None) -> str:
    """Ranked intervention bars: predicted Δp99 TTFT per upgrade."""
    if not whatif or not whatif.get("interventions"):
        return (
            '<p class="empty">no what-if profile attached — run '
            "`python -m repro whatif` to rank counterfactual "
            "bottlenecks</p>"
        )
    base = whatif.get("baseline") or {}
    base_p99 = _finite(base.get("p99_ttft_s")) or 0.0
    rows = whatif["interventions"]
    max_gain = max(
        (row["delta"]["p99_ttft_s"] for row in rows), default=0.0
    )
    out = [
        '<p class="sub">predicted improvement if one resource were '
        f"k&times; faster/bigger; baseline p99 TTFT {base_p99:.3f}s"
        + (
            ", validated against counterfactual re-simulation"
            if whatif.get("validated")
            else ""
        )
        + "</p>"
    ]
    bars = []
    for row in rows:
        iv = row["intervention"]
        gain = row["delta"]["p99_ttft_s"]
        frac = gain / max_gain if max_gain > 0 else 0.0
        pct = gain / base_p99 if base_p99 > 0 else 0.0
        note = f"&Delta;p99 TTFT {gain:+.4f}s ({pct:+.1%})"
        if "rel_error" in row:
            ok = row.get("within_tolerance")
            cls = "ok" if ok else "page"
            verdict = "ok" if ok else "diverged"
            note += (
                f" &middot; resim {row['resim_delta']['p99_ttft_s']:+.4f}s "
                f'<span class="status {cls}">'
                f"err {row['rel_error']:.0%} {verdict}</span>"
            )
        bars.append(
            '<div class="cpbar-label">'
            f"{html.escape(iv['label'])} &mdash; {note}</div>"
            '<div class="cpbar"><span style="width:'
            f'{max(frac, 0.0) * 100:.2f}%;'
            'background:var(--series-1)"></span></div>'
        )
    out.append("".join(bars))
    return "".join(out)


def _summary_tiles(summary: dict) -> str:
    if not summary:
        return ""
    spec = [
        ("requests served", "finished", "{:.0f}"),
        ("SLA attainment", "attainment", "{:.1%}"),
        ("mean TTFT", "mean_ttft_s", "{:.3f}s"),
        ("p99 TTFT", "p99_ttft_s", "{:.3f}s"),
        ("mean TPOT", "mean_tpot_s", "{:.4f}s"),
        ("p99 TPOT", "p99_tpot_s", "{:.4f}s"),
    ]
    tiles = []
    for label, key, fmt in spec:
        v = _finite(summary.get(key))
        tiles.append(
            _tile(label, fmt.format(v) if v is not None else "—", "")
        )
    return f'<div class="tiles">{"".join(tiles)}</div>'


def render_html(data: dict[str, Any]) -> str:
    """Render the folded report data as one self-contained HTML page."""
    meta = data.get("meta") or {}
    sub = " · ".join(
        f"{html.escape(str(k))}={html.escape(str(v))}"
        for k, v in meta.items()
    )
    flight = data.get("flight")
    evicted_note = ""
    if flight and flight.get("evicted"):
        evicted_note = (
            f'<p class="sub">ring buffer evicted {flight["evicted"]} '
            "older samples</p>"
        )
    body = (
        f"<h1>{html.escape(data.get('title', 'serving run'))}</h1>"
        f'<p class="sub">{sub}</p>'
        f"{_summary_tiles(data.get('summary') or {})}"
        "<h2>SLO attainment</h2>"
        f"{_slo_table(data.get('slo'))}"
        "<h2>Alert log</h2>"
        f"{_alert_table(data.get('slo'))}"
        "<h2>Critical-path attribution</h2>"
        f"{_attribution_section(data.get('attribution'))}"
        "<h2>What-if: counterfactual bottleneck ladder</h2>"
        f"{_whatif_section(data.get('whatif'))}"
        "<h2>Cluster timeline</h2>"
        f"{evicted_note}"
        f"{_timeline_tiles(flight)}"
        "<h2>Busiest links</h2>"
        f"{_top_links_table(flight)}"
        "<h2>Policy-flip timeline</h2>"
        f"{_policy_tables(data)}"
        "<h2>Plan transitions</h2>"
        f"{_transitions_section(data.get('transitions') or [])}"
    )
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        '<meta name="viewport" content="width=device-width,initial-scale=1">'
        f"<title>{html.escape(data.get('title', 'report'))}</title>"
        f"<style>{_CSS}</style></head>"
        f'<body class="viz-root">{body}'
        "<script type=\"application/json\" id=\"report-data\">"
        f"{json.dumps(data, default=str)}"
        "</script></body></html>\n"
    )


# ---------------------------------------------------------------------------
# plain-text rendering
# ---------------------------------------------------------------------------


def render_text(data: dict[str, Any]) -> str:
    """Terminal-friendly summary of the same report data."""
    lines = [data.get("title", "serving run")]
    meta = data.get("meta") or {}
    if meta:
        lines.append(
            "  " + " ".join(f"{k}={v}" for k, v in meta.items())
        )
    summary = data.get("summary") or {}
    if summary:
        lines.append("summary:")
        for k, v in summary.items():
            f = _finite(v)
            lines.append(
                f"  {k:20s} {f:.4g}" if f is not None else f"  {k:20s} —"
            )
    slo = data.get("slo")
    if slo and slo.get("targets"):
        lines.append("SLOs:")
        for t in slo["targets"]:
            status = (
                "PAGE"
                if t["paging"]
                else "TICKET"
                if t["ticketing"]
                else "met"
            )
            att = t.get("attainment_slow")
            att_s = f"{att:.1%}" if att is not None else "n/a"
            lines.append(
                f"  {t['name']:24s} attain {att_s:>7s}  "
                f"burn {t['burn_fast']:.2f}x/{t['burn_slow']:.2f}x  "
                f"[{status}]"
            )
        alerts = slo.get("alerts") or []
        lines.append(f"alerts: {len(alerts)}")
        for a in alerts[:10]:
            lines.append(f"  {a['time']:8.1f}s {a['message']}")
        if len(alerts) > 10:
            lines.append(f"  ... and {len(alerts) - 10} more")
    attribution = data.get("attribution")
    if attribution:
        budget = attribution.get("budget") or {}
        lines.append(
            "critical path "
            f"({attribution['n_requests']} requests attributed):"
        )
        for name, stats in budget.items():
            if stats.get("p99", 0.0) < 1e-6:
                continue
            lines.append(
                f"  {name:20s} p50 {stats['p50']:.4f}s  "
                f"p99 {stats['p99']:.4f}s  "
                f"share {stats['share']:.1%}"
            )
        for r in attribution.get("slowest") or []:
            lines.append(
                f"  slowest req {r['request_id']}: "
                f"{r['total_s']:.3f}s total, dominant "
                f"{r['dominant']} {r['dominant_s']:.3f}s"
                + (f" ({r['detail']})" if r.get("detail") else "")
            )
    whatif = data.get("whatif")
    if whatif and whatif.get("interventions"):
        base_p99 = _finite(
            (whatif.get("baseline") or {}).get("p99_ttft_s")
        )
        lines.append(
            "what-if ladder"
            + (
                f" (baseline p99 TTFT {base_p99:.4f}s):"
                if base_p99 is not None
                else ":"
            )
        )
        for row in whatif["interventions"]:
            gain = row["delta"]["p99_ttft_s"]
            note = ""
            if "rel_error" in row:
                note = (
                    f"  [resim {row['resim_delta']['p99_ttft_s']:+.4f}s "
                    f"err {row['rel_error']:.0%}"
                    + (
                        "]"
                        if row.get("within_tolerance")
                        else " DIVERGED]"
                    )
                )
            lines.append(
                f"  {row['intervention']['label']:<36s} "
                f"dp99 TTFT {gain:+.4f}s{note}"
            )
    flight = data.get("flight")
    if flight:
        lines.append(
            f"flight recorder: {flight['n_samples']} samples"
            + (
                f" ({flight['evicted']} evicted)"
                if flight.get("evicted")
                else ""
            )
        )
        for lid, kind, util in flight.get("top_links", [])[:5]:
            lines.append(f"  link {lid:4d} [{kind}] peak {util:.1%}")
        flips = flight.get("policy_flips") or []
        lines.append(f"policy flips: {len(flips)}")
        for f in flips[:5]:
            lines.append(
                f"  {f['time']:8.1f}s {f['group']}: "
                f"{f['from']} -> {f['to']}"
            )
    transitions = data.get("transitions") or []
    if transitions:
        lines.append(f"plan transitions: {len(transitions)} events")
        for ev in transitions[:12]:
            plan = ""
            if ev.get("from_plan") or ev.get("to_plan"):
                plan = (
                    f" {ev.get('from_plan', '?')} -> "
                    f"{ev.get('to_plan', '?')}"
                )
            detail = _transition_detail(ev)
            lines.append(
                f"  {ev['time']:8.2f}s {ev['event']}{plan}"
                + (f"  [{detail}]" if detail else "")
            )
        if len(transitions) > 12:
            lines.append(
                f"  ... and {len(transitions) - 12} more"
            )
    return "\n".join(lines) + "\n"


def write_report(
    path: str,
    observer=None,
    serving_metrics=None,
    title: str = "repro serving run",
    meta: dict[str, Any] | None = None,
    whatif: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Build, render and write the HTML report; returns the data dict."""
    data = build_report_data(
        observer=observer,
        serving_metrics=serving_metrics,
        title=title,
        meta=meta,
        whatif=whatif,
    )
    with open(path, "w") as fh:
        fh.write(render_html(data))
    return data


# ---------------------------------------------------------------------------
# sweep reports (scenario matrix runs)
# ---------------------------------------------------------------------------

#: (column header, summary key, format) for the per-cell sweep table.
#: Router/replan columns only render when some cell carries the key.
_SWEEP_ALWAYS = (
    ("finished", "finished", "{:.0f}"),
    ("attainment", "attainment", "{:.1%}"),
    ("p50 TTFT s", "p50_ttft_s", "{:.3f}"),
    ("p99 TTFT s", "p99_ttft_s", "{:.3f}"),
    ("mean TPOT s", "mean_tpot_s", "{:.4f}"),
)
_SWEEP_OPTIONAL = (
    ("router hit", "router_affinity_hit_rate", "{:.2f}"),
    ("KV moved GB", "router_kv_bytes_moved", "{:.2f}"),
    ("replans", "replan_transitions", "{:.0f}"),
    ("failovers", "failovers", "{:.0f}"),
)


def build_sweep_data(
    summaries: list[dict],
    title: str = "scenario sweep",
    axes: dict[str, Any] | None = None,
    meta: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Fold per-cell scenario summaries into one sweep-report payload."""
    return {
        "title": title,
        "meta": dict(meta or {}),
        "axes": {k: list(v) for k, v in (axes or {}).items()},
        "cells": list(summaries),
    }


def _sweep_columns(cells: list[dict]) -> list[tuple[str, str, str]]:
    cols = list(_SWEEP_ALWAYS)
    for col in _SWEEP_OPTIONAL:
        if any(col[1] in c for c in cells):
            cols.append(col)
    return cols


def _sweep_cell_value(cell: dict, key: str, fmt: str) -> str:
    if key == "router_affinity_hit_rate" and cell.get(key) is None:
        # Sessionless traces have no follow-up turns to hit or miss.
        return "n/a"
    v = cell.get(key)
    if key == "router_kv_bytes_moved" and v is not None:
        v = _finite(v)
        v = v / 1e9 if v is not None else None
    return _fmt(v, fmt)


def render_sweep_html(data: dict[str, Any]) -> str:
    """Render a sweep payload as one self-contained HTML page."""
    cells = data.get("cells") or []
    cols = _sweep_columns(cells)
    axes = data.get("axes") or {}
    sub_bits = [
        f"{html.escape(str(k))} &isin; "
        f"[{html.escape(', '.join(str(v) for v in vs))}]"
        for k, vs in axes.items()
    ]
    for k, v in (data.get("meta") or {}).items():
        sub_bits.append(f"{html.escape(str(k))}={html.escape(str(v))}")
    header = "".join(
        ["<th>cell</th>"]
        + [f'<th class="num">{html.escape(h)}</th>' for h, _, _ in cols]
    )
    rows = []
    for cell in cells:
        label = str(cell.get("cell") or cell.get("scenario") or "run")
        tds = [f"<td>{html.escape(label)}</td>"] + [
            f'<td class="num">'
            f"{html.escape(_sweep_cell_value(cell, key, fmt))}</td>"
            for _, key, fmt in cols
        ]
        rows.append(f"<tr>{''.join(tds)}</tr>")
    table = (
        f"<table><thead><tr>{header}</tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
        if cells
        else '<p class="empty">no cells ran</p>'
    )
    body = (
        f"<h1>{html.escape(data.get('title', 'scenario sweep'))}</h1>"
        f'<p class="sub">{" &middot; ".join(sub_bits)}</p>'
        f"<h2>cells ({len(cells)})</h2>"
        f"{table}"
    )
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        '<meta name="viewport" content="width=device-width,initial-scale=1">'
        f"<title>{html.escape(data.get('title', 'scenario sweep'))}</title>"
        f"<style>{_CSS}</style></head>"
        f'<body class="viz-root">{body}'
        "<script type=\"application/json\" id=\"sweep-data\">"
        f"{json.dumps(data, default=str)}"
        "</script></body></html>\n"
    )


def render_sweep_text(data: dict[str, Any]) -> str:
    """Terminal-friendly table of the same sweep payload."""
    cells = data.get("cells") or []
    cols = _sweep_columns(cells)
    headers = ["cell"] + [h for h, _, _ in cols]
    table_rows = []
    for cell in cells:
        label = str(cell.get("cell") or cell.get("scenario") or "run")
        table_rows.append(
            [label]
            + [_sweep_cell_value(cell, key, fmt) for _, key, fmt in cols]
        )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in table_rows))
        if table_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [data.get("title", "scenario sweep")]
    for k, vs in (data.get("axes") or {}).items():
        lines.append(f"  axis {k}: {vs}")
    lines.append(
        "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    )
    lines.append("  ".join("-" * w for w in widths))
    for r in table_rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def write_sweep_report(
    path: str,
    summaries: list[dict],
    title: str = "scenario sweep",
    axes: dict[str, Any] | None = None,
    meta: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Build, render and write the sweep HTML; returns the data dict."""
    data = build_sweep_data(summaries, title=title, axes=axes, meta=meta)
    with open(path, "w") as fh:
        fh.write(render_sweep_html(data))
    return data
