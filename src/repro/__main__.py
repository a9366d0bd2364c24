"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
``info``       — package, model zoo and topology summary
``quickstart`` — plan + serve HeroServe on the paper's testbed
``compare``    — 4-system comparison at a given rate (Fig. 7 style)
``plan``       — run the offline planner and print the chosen plan
``schemes``    — list registered collectives with estimated step times
``report``     — run an observed simulation and render the HTML report
``explain``    — per-request critical-path waterfalls for the K slowest
``demo``       — chaos demo: fault-injected run -> flight JSONL + report
``replan``     — load-shift demo: online replanning executes a live plan
transition (quiesce -> KV migration -> warm -> cutover);
``--mid-fault link|server`` drops a fault into the migration window
``whatif``     — counterfactual bottleneck ladder: predicted gain per
resource upgrade (``--validate`` re-simulates each intervention and
exits nonzero when the analytic estimate diverges beyond tolerance)

``report`` and ``explain`` also accept ``--from-dir DIR`` to render
from a previous run's ``--obs-dir`` dumps (flight JSONL, attribution
JSON) instead of re-simulating; missing or older-format dumps degrade
to a clear message, not a traceback.

Fault flags (``quickstart`` / ``demo``): ``--fault-plan FILE`` injects
a JSON fault plan on the simulation clock; ``--mtbf S`` / ``--mttr S``
generate Poisson switch outages instead. ``--schemes LIST``
(``quickstart`` / ``demo``) adds extra registered collectives (e.g.
``ring-2stage,tree``) to every group's online policy table.
``--online-replan`` (``quickstart``) arms load-triggered online
replanning.

Observability flags (``quickstart`` / ``compare`` / ``plan``):
``--trace-out FILE``   — write a Chrome-tracing JSON (``.jsonl`` for the
line-oriented dump) of prefill/decode/KV-transfer/all-reduce spans;
``--metrics-out FILE`` — write the metrics snapshot (JSON, or text
exposition for ``.txt``/``.prom``); ``--flight-out FILE`` — write the
flight-recorder sample ring as JSONL; ``--slo-ttft S`` /
``--slo-tpot S`` — attach a burn-rate SLO monitor with the given
latency bounds; ``-v/-vv`` — INFO/DEBUG logging.

Every run subcommand builds one ``repro.scenario`` spec and runs it
through the scenario runner (``docs/SCENARIOS.md`` maps each subcommand
to its spec); the examples/ and benchmarks/ directories show the full
surface.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.comm import SchemeKind
from repro.core.objective import SLA_TESTBED_CHATBOT
from repro.obs import NULL_OBSERVER, WHATIF_SETTINGS, setup_logging

#: SLO targets of the observed runs when no ``--slo-*`` flag is given.
_TESTBED_SLO = {
    "ttft": SLA_TESTBED_CHATBOT.ttft,
    "tpot": SLA_TESTBED_CHATBOT.tpot,
}


def _observer_block(args, **block) -> "dict | None":
    """Spec ``observer`` block for the telemetry flags.

    ``block`` holds the keys a subcommand always observes with; plain
    runs get None unless an output or ``--slo-*`` flag asks for one.
    """
    if getattr(args, "flight_out", None):
        block["flight"] = True
    slo = {
        metric: bound
        for metric, bound in (
            ("ttft", getattr(args, "slo_ttft", None)),
            ("tpot", getattr(args, "slo_tpot", None)),
        )
        if bound is not None
    }
    if slo:
        block["slo"] = slo
    if block or getattr(args, "trace_out", None) or getattr(
        args, "metrics_out", None
    ):
        return block
    return None


def _schemes(args) -> list[str]:
    """Registered names from a ``--schemes a,b`` flag ([] when absent);
    an unknown name raises ``KeyError``."""
    from repro.comm import get_scheme

    raw = getattr(args, "schemes", None) or ""
    return [
        get_scheme(part.strip()).name
        for part in raw.split(",")
        if part.strip()
    ]


def _fault_block(args) -> "dict | None":
    """Spec ``faults`` block when fault flags were given.

    ``--fault-plan FILE`` loads a JSON plan; ``--mtbf S`` (with optional
    ``--mttr S``) generates a Poisson switch-outage plan over the run's
    duration, seeded from ``--seed`` for reproducibility.
    """
    path = getattr(args, "fault_plan", None)
    mtbf = getattr(args, "mtbf", None)
    if path is not None:
        with open(path) as fh:
            return json.load(fh)
    if mtbf is None:
        return None
    from repro.faults import poisson_plan
    from repro.util.rng import make_rng

    return poisson_plan(
        horizon_s=args.duration,
        mtbf_s=mtbf,
        mttr_s=args.mttr or mtbf / 10.0,
        rng=make_rng(args.seed),
        switches=1,
        seed=args.seed,
    ).to_dict()


def _testbed_run(args, **fields):
    """Run the quickstart scenario at the flags' rate/duration/seed."""
    from repro import testbed_spec
    from repro.scenario import run_scenario

    return run_scenario(
        testbed_spec(args.rate, args.duration, args.seed, **fields)
    )


def _print_summary(result, width: int = 20) -> None:
    print(result.system.plan.summary())
    print()
    for k, v in result.metrics.summary().items():
        print(f"  {k:{width}s} {v:.4g}")


def _export(observer, args, suffix: str = "") -> None:
    """Write requested outputs, optionally suffixing the file stem."""
    if observer is None:
        return

    def _name(path: str | None) -> str | None:
        if path is None or not suffix:
            return path
        root, ext = os.path.splitext(path)
        return f"{root}-{suffix}{ext}"

    observer.export(
        trace_path=_name(args.trace_out),
        metrics_path=_name(args.metrics_out),
    )
    flight = _name(getattr(args, "flight_out", None))
    if flight and observer.recorder is not None:
        observer.recorder.write_jsonl(flight)
    for path in (
        _name(args.trace_out), _name(args.metrics_out), flight
    ):
        if path:
            print(f"wrote {path}")
    if observer.slo is not None:
        for alert in observer.slo.sink.alerts:
            print(f"  alert @ {alert.time:.1f}s: {alert.message}")


def cmd_info(_args) -> int:
    import repro
    from repro.llm import HARDWARE_ZOO, MODEL_ZOO
    from repro.network import build_testbed, build_xtracks_cluster

    print(f"repro {repro.__version__} — HeroServe reproduction (CLUSTER'25)")
    print("\nmodels:")
    for name, m in sorted(MODEL_ZOO.items()):
        print(
            f"  {name:14s} L={m.n_layers:<3d} h={m.hidden_size:<6d} "
            f"A={m.n_heads:<3d} params={m.param_count / 1e9:.1f}B"
        )
    print("\nhardware profiles:", ", ".join(sorted(HARDWARE_ZOO)))
    print("\ntopologies:")
    print(" ", build_testbed().topology.summary())
    for t in (2, 8):
        print(" ", build_xtracks_cluster(t, n_units=1).topology.summary())

    from repro.workloads import registered_workloads

    print("\nworkload generators (scenario specs: workload.generator):")
    for gen in registered_workloads():
        print(f"  {gen.name:14s} {gen.description}")

    from repro.scenario.spec import SLO_BY_NAME, _TOP_LEVEL_KEYS

    print("\nSLO presets:", ", ".join(sorted(SLO_BY_NAME)))
    print(
        "\nscenario axes (matrix-sweepable spec fields, dotted paths):"
    )
    print(
        "  " + ", ".join(sorted(k for k in _TOP_LEVEL_KEYS if k != "matrix"))
    )
    print(
        "  e.g. matrix: {\"router\": [\"jsq\", \"kv-affinity\"], "
        "\"workload.rate\": [0.6, 1.0]}"
    )
    print("  (schema reference: docs/SCENARIOS.md; `repro scenario list`)")
    return 0


def cmd_scenario(args) -> int:
    from repro.scenario import (
        SpecValidationError,
        load_spec,
        run_matrix,
        run_scenario,
    )

    if args.scenario_cmd == "list":
        return _scenario_list()

    if args.scenario_cmd == "validate":
        failed = 0
        for path in args.specs:
            try:
                spec = load_spec(path)
            except SpecValidationError as exc:
                failed += 1
                print(f"FAIL {path}")
                for err in exc.errors:
                    print(f"  - {err}")
            except (OSError, RuntimeError) as exc:
                failed += 1
                print(f"FAIL {path}: {exc}")
            else:
                cells = ""
                if spec.matrix:
                    from repro.scenario import expand_matrix

                    cells = f" ({len(expand_matrix(spec))} matrix cells)"
                print(f"ok   {path}: {spec.name}{cells}")
        return 1 if failed else 0

    try:
        spec = load_spec(args.spec)
    except SpecValidationError as exc:
        print(exc)
        return 1

    if args.scenario_cmd == "run":
        if spec.matrix:
            print(
                f"{spec.name}: spec has a matrix table; "
                "use `repro scenario matrix`"
            )
            return 1
        result = run_scenario(spec)
        print(f"scenario {spec.name}: {len(result.trace)} requests")
        for k, v in sorted(result.summary.items()):
            if isinstance(v, float):
                print(f"  {k:28s} {v:.4g}")
            else:
                print(f"  {k:28s} {v}")
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(result.summary, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.json}")
        return 0

    # matrix
    if not spec.matrix:
        print(f"{spec.name}: spec has no matrix table; use `scenario run`")
        return 1
    from repro.obs.report import (
        build_sweep_data,
        render_sweep_html,
        render_sweep_text,
    )

    result = run_matrix(
        spec,
        processes=args.processes,
        progress=lambda label, s: print(
            f"  cell {label}: finished={s.get('finished', 0):.0f} "
            f"attainment={s.get('attainment', 0):.2f}"
        ),
    )
    data = build_sweep_data(
        result.summaries,
        title=f"scenario sweep — {spec.name}",
        axes=result.axes,
        meta={"model": spec.model, "cells": len(result.cells)},
    )
    print()
    print(render_sweep_text(data), end="")
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(render_sweep_html(data))
        print(f"wrote {args.report}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


def _scenario_list() -> int:
    from repro.baselines import SYSTEM_BY_NAME
    from repro.scenario.spec import GPU_PROFILES, SLO_BY_NAME
    from repro.serving import registered_routers
    from repro.workloads import registered_workloads

    print("scenario spec schema (docs/SCENARIOS.md):")
    fields = [
        ("name", "scenario label (required)"),
        ("model", "model-zoo name (required)"),
        ("workload", "{generator, rate, duration, seed, params} (required)"),
        ("topology", "{kind: testbed|xtracks, tracks, n_units}"),
        ("system", "serving system (default HeroServe)"),
        ("gpus", "cost-model GPU profiles (default per topology)"),
        ("parallel", "[tp_pre, pp_pre, tp_dec, pp_dec] or omit to sweep"),
        ("slo", "preset name or {ttft, tpot} seconds"),
        ("arrival_rate", "planner forecast r/s | 'trace-mean' | omit"),
        ("forecast_q", "representative-batch size (default 8)"),
        ("router", "fleet routing policy (needs n_replicas)"),
        ("n_replicas", "replica count; any value selects the fleet path"),
        ("background", "cross-traffic bursts {intensity, ..., seed, until}"),
        ("faults", "{seed, events: [{time, kind, target, ...}]}"),
        ("replan", "online replanning thresholds (ReplanConfig fields)"),
        ("schemes", "extra collectives for the online policy tables"),
        ("observer", "{flight: bool, attribution: bool, slo: {ttft, tpot}}"),
        ("matrix", "axis sweeps: dotted path -> list of values"),
    ]
    for name, doc in fields:
        print(f"  {name:14s} {doc}")
    print("\nworkload generators:")
    for gen in registered_workloads():
        params = ", ".join(gen.params) if gen.params else "-"
        print(f"  {gen.name:14s} {gen.description}")
        print(f"  {'':14s}   params: {params}")
    print("\nsystems:", ", ".join(sorted(SYSTEM_BY_NAME)))
    print("routers:", ", ".join(sorted(c.name for c in registered_routers())))
    print("SLO presets:", ", ".join(sorted(SLO_BY_NAME)))
    print("GPU profiles:", ", ".join(sorted(GPU_PROFILES)))
    print("\nexample specs: examples/scenarios/*.json")
    return 0


def cmd_quickstart(args) -> int:
    result = _testbed_run(
        args,
        faults=_fault_block(args),
        replan={} if args.online_replan else None,
        schemes=_schemes(args),
        observer=_observer_block(args),
    )
    _print_summary(result)
    _export(result.observer, args)
    return 0


def cmd_compare(args) -> int:
    from repro import ALL_SYSTEMS
    from repro.util import print_table

    rows = []
    for system in ALL_SYSTEMS:
        result = _testbed_run(
            args,
            system=system.name,
            parallel=[8, 1, 8, 1],
            observer=_observer_block(args),
        )
        _export(result.observer, args, suffix=system.name.lower())
        m = result.metrics
        rows.append(
            [
                system.name,
                f"{m.attainment():.1%}",
                f"{m.mean_ttft() * 1e3:.0f}",
                f"{m.mean_tpot() * 1e3:.1f}",
            ]
        )
    print_table(
        ["system", "SLA att.", "TTFT ms", "TPOT ms"],
        rows,
        title=f"OPT-66B chatbot on the testbed @ {args.rate} req/s",
    )
    return 0


def cmd_plan(args) -> int:
    from repro import (
        BatchSpec,
        CommContext,
        CostModelBank,
        OfflinePlanner,
        SchemeKind,
        build_testbed,
    )
    from repro.llm import A100, V100, get_model
    from repro.scenario import make_observer

    model = get_model(args.model)
    built = build_testbed()
    bank = CostModelBank(model, {"A100": A100, "V100": V100})
    from repro.comm import get_scheme

    scheme = SchemeKind(args.scheme)
    ctx = CommContext.from_built(
        built, heterogeneous=get_scheme(scheme).heterogeneous
    )
    observer = make_observer(_observer_block(args))
    planner = OfflinePlanner(
        ctx, model, bank, SLA_TESTBED_CHATBOT, scheme,
        observer=observer or NULL_OBSERVER,
    )
    report = planner.plan(
        BatchSpec.uniform(8, args.input_len, args.output_len),
        arrival_rate=args.rate,
    )
    print(
        f"candidates evaluated: {report.candidates_evaluated}, "
        f"feasible: {report.candidates_feasible}, "
        f"solve time: {report.wall_time:.2f}s"
    )
    if report.phase_times:
        print(observer.profiler.report("planner phase breakdown"))
    _export(observer, args)
    if report.plan is None:
        print("no SLA-feasible plan; rejections:")
        for r in report.rejected[:5]:
            print("  -", r)
        return 1
    print(report.plan.summary())
    return 0


def cmd_schemes(args) -> int:
    """List every registered collective and price one group step each."""
    from repro.comm import CommContext, allreduce_bytes, registered_schemes
    from repro.llm import get_model
    from repro.network import build_testbed, build_xtracks_cluster
    from repro.util import print_table

    built = (
        build_testbed()
        if args.topology == "testbed"
        else build_xtracks_cluster(2, n_units=1)
    )
    model = get_model(args.model)
    gpus = list(built.topology.gpu_ids())[: args.group_size]
    data = float(allreduce_bytes(model, args.tokens))
    rows = []
    for scheme in registered_schemes():
        # Each scheme prices on its own network view, exactly as the
        # planner would build its context.
        ctx = CommContext.from_built(
            built, heterogeneous=scheme.heterogeneous
        )
        est = scheme.estimate_time(ctx, gpus, data)
        rows.append(
            [
                scheme.name,
                "hetero" if scheme.heterogeneous else "homog",
                est.mode,
                "-" if est.ina_switch is None else str(est.ina_switch),
                f"{est.step_time * 1e6:.1f}",
                str(len(est.links)),
                scheme.failover_target(),
            ]
        )
    print_table(
        ["scheme", "view", "mode", "switch", "step us", "links", "failover"],
        rows,
        title=(
            f"{model.name} all-reduce ({args.tokens} tokens, "
            f"{data / 1e6:.2f} MB) over {len(gpus)} GPUs on "
            f"{args.topology}"
        ),
    )
    return 0


def cmd_routers(args) -> int:
    """List registered routing policies and the QoE classes."""
    from repro.serving import QOS_CLASSES, registered_routers
    from repro.util import print_table

    print_table(
        ["router", "policy"],
        [[cls.name, cls.description] for cls in registered_routers()],
        title="registered fleet routing policies (--router NAME)",
    )
    print()
    print_table(
        ["class", "load weight", "SLO scale", "meaning"],
        [
            [c.name, f"{c.load_weight:g}", f"{c.slo_scale:g}", c.description]
            for c in QOS_CLASSES.values()
        ],
        title="QoE/priority classes (TraceRequest.qos)",
    )
    return 0


def cmd_fleet(args) -> int:
    """Replay a multi-turn session trace through a routed replica fleet."""
    from dataclasses import replace

    from repro.scenario import (
        ScenarioSpec,
        build_runtime,
        plan_system,
        simulate,
    )
    from repro.util import print_table

    spec = ScenarioSpec.from_dict(
        {
            "name": "fleet",
            "model": "OPT-175B",
            # 12 servers x 8 GPUs
            "topology": {"kind": "xtracks", "tracks": 2, "n_units": 2},
            "slo": "sim-chatbot",
            "parallel": [16, 1, 16, 1],
            "workload": {
                "generator": "sessions",
                "rate": args.session_rate,
                "duration": args.duration,
                "seed": args.seed,
            },
            "arrival_rate": "trace-mean",
            "n_replicas": args.replicas,
            "router": args.router,
        }
    )
    rt = build_runtime(spec)
    # Never forecast below one request per new session.
    rt = replace(
        rt, arrival_rate=max(rt.arrival_rate, args.session_rate)
    )
    trace = rt.trace
    print(
        f"trace: {len(trace)} requests in "
        f"{len(set(r.session_id for r in trace))} sessions over "
        f"{trace.duration:.0f}s"
    )
    fleet = plan_system(rt)
    fm = simulate(spec, fleet, trace)
    s = fm.summary()
    rows = [
        ["router", fleet.router.name],
        ["finished", f"{s['finished']:.0f}"],
        ["routed per replica", "/".join(str(n) for n in fm.routed)],
        ["attainment", f"{s['attainment']:.2f}"],
        ["mean TTFT", f"{s['mean_ttft_s'] * 1e3:.0f} ms"],
        ["p99 TTFT", f"{s['p99_ttft_s'] * 1e3:.0f} ms"],
        ["p99 TPOT", f"{s['p99_tpot_s'] * 1e3:.1f} ms"],
        [
            "affinity hit rate",
            (
                f"{s['router_affinity_hit_rate']:.2f}"
                if "router_affinity_hit_rate" in s
                else "n/a"
            ),
        ],
        ["KV bytes moved", f"{s['router_kv_bytes_moved'] / 1e9:.2f} GB"],
        ["KV bytes saved", f"{s['router_kv_bytes_saved'] / 1e9:.2f} GB"],
        ["KV fetch wait", f"{s['router_kv_fetch_wait_s']:.2f} s"],
    ]
    for name, att in fm.qos_attainment().items():
        rows.append([f"attainment [{name}]", f"{att:.2f}"])
    print_table(
        ["metric", "value"],
        rows,
        title=(
            f"{fleet.router.name} router, {args.replicas} OPT-175B "
            "replicas on 2tracks"
        ),
    )
    return 0


def _find_run_file(
    directory: str, run: str | None, suffix: str
) -> "str | None":
    """The ``<run>{suffix}`` dump inside ``directory`` (None if absent)."""
    if run is not None:
        path = os.path.join(directory, f"{run}{suffix}")
        return path if os.path.isfile(path) else None
    candidates = sorted(
        f for f in os.listdir(directory) if f.endswith(suffix)
    )
    if not candidates:
        return None
    return os.path.join(directory, candidates[0])


def _load_attribution_dump(path: str):
    """AttributionCollector from a dump, or None + printed reason."""
    import json

    from repro.obs import AttributionCollector

    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"cannot read attribution dump {path}: {exc}")
        return None
    try:
        return AttributionCollector.from_payload(payload)
    except (KeyError, TypeError):
        print(
            f"attribution dump {path} has no per-request timelines "
            "(written by an older version?) — re-run the bench with "
            "--obs-dir to refresh it"
        )
        return None


def _report_from_dir(args) -> int:
    """Render the report from a previous run's ``--obs-dir`` dumps."""
    import json
    from types import SimpleNamespace

    from repro.obs import FlightRecorder, render_text, write_report

    directory = args.from_dir
    if not os.path.isdir(directory):
        print(f"--from-dir: {directory!r} is not a directory")
        return 0
    run = getattr(args, "run", None)
    flight_path = _find_run_file(directory, run, "-flight.jsonl")
    attr_path = _find_run_file(directory, run, "-attribution.json")
    summary_path = _find_run_file(directory, run, "-summary.json")
    whatif_path = _find_run_file(directory, run, "-whatif.json")
    if flight_path is None and attr_path is None:
        print(
            f"no *-flight.jsonl or *-attribution.json dumps in "
            f"{directory!r} — run a bench with --obs-dir (or "
            "`python -m repro whatif --json`) first"
        )
        return 0
    recorder = None
    if flight_path is not None:
        try:
            recorder = FlightRecorder.from_jsonl(flight_path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"cannot read flight dump {flight_path}: {exc}")
    attribution = (
        _load_attribution_dump(attr_path)
        if attr_path is not None
        else None
    )
    serving_metrics = None
    if summary_path is not None:
        try:
            with open(summary_path) as fh:
                summary = json.load(fh)
            serving_metrics = SimpleNamespace(
                summary=lambda: summary
            )
        except (OSError, ValueError) as exc:
            print(f"cannot read summary dump {summary_path}: {exc}")
    whatif = None
    if whatif_path is not None:
        try:
            with open(whatif_path) as fh:
                whatif = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"cannot read what-if dump {whatif_path}: {exc}")
    observer = SimpleNamespace(
        recorder=recorder,
        attribution=attribution,
        slo=None,
        metrics=None,
    )
    data = write_report(
        args.out,
        observer=observer,
        serving_metrics=serving_metrics,
        title=f"replay of {os.path.basename(directory)}",
        meta={"source": directory},
        whatif=whatif,
    )
    print(render_text(data), end="")
    print(f"wrote {args.out}")
    return 0


def cmd_report(args) -> int:
    from repro.obs import render_text, write_report

    if getattr(args, "from_dir", None):
        return _report_from_dir(args)

    result = _testbed_run(
        args,
        observer=_observer_block(
            args, flight=True, attribution=True, slo=_TESTBED_SLO
        ),
    )
    data = write_report(
        args.out,
        observer=result.observer,
        serving_metrics=result.metrics,
        title="HeroServe testbed run",
        meta={
            "system": "HeroServe",
            "rate": f"{args.rate:g} req/s",
            "duration": f"{args.duration:g}s",
            "seed": args.seed,
        },
    )
    print(render_text(data), end="")
    print(f"wrote {args.out}")
    return 0


def cmd_explain(args) -> int:
    """Attribute the slowest requests' latency along the critical path."""
    from repro.obs import render_waterfalls

    if getattr(args, "from_dir", None):
        directory = args.from_dir
        if not os.path.isdir(directory):
            print(f"--from-dir: {directory!r} is not a directory")
            return 0
        attr_path = _find_run_file(
            directory, getattr(args, "run", None), "-attribution.json"
        )
        if attr_path is None:
            print(
                f"no *-attribution.json dump in {directory!r} — run a "
                "bench with --obs-dir first"
            )
            return 0
        attribution = _load_attribution_dump(attr_path)
        if attribution is None or not attribution.finished:
            return 0
        print(f"replaying {attr_path}")
        print(
            render_waterfalls(attribution, slowest=args.slowest),
            end="",
        )
        return 0

    result = _testbed_run(
        args,
        faults=_fault_block(args),
        schemes=_schemes(args),
        observer=_observer_block(args, attribution=True),
    )
    attribution = result.observer.attribution
    if not attribution.finished:
        print("no requests finished — nothing to explain")
        return 1
    print(
        render_waterfalls(attribution, slowest=args.slowest), end=""
    )
    _export(result.observer, args)
    return 0


def cmd_demo(args) -> int:
    """Chaos demo: observed HeroServe run under fault injection."""
    from repro.obs import render_text, write_report

    if args.flight_out is None:
        # set here rather than via set_defaults(): argparse shares the
        # parent parser's actions, so a subparser-level default would
        # leak into every other subcommand using the obs flags.
        args.flight_out = "demo-flight.jsonl"
    # Default chaos: crash the first INA switch for 30 % of the run.
    faults = _fault_block(args) or {
        "seed": args.seed,
        "events": [
            {
                "time": 0.2 * args.duration,
                "kind": "switch_down",
                "target": "switch#0",
                "duration": 0.3 * args.duration,
            }
        ],
    }
    result = _testbed_run(
        args,
        faults=faults,
        schemes=_schemes(args),
        observer=_observer_block(
            args, attribution=True, slo=_TESTBED_SLO
        ),
    )
    observer = result.observer
    _print_summary(result)
    failovers = observer.recorder.events("failover")
    print(f"\nrecorded failovers: {len(failovers)}")
    for ev in failovers:
        print(
            f"  @ {ev['time']:.2f}s {ev.get('direction', '?')} "
            f"group {ev.get('group', '?')}"
        )
    _export(observer, args)
    data = write_report(
        args.out,
        observer=observer,
        serving_metrics=result.metrics,
        title="HeroServe chaos demo",
        meta={
            "system": "HeroServe",
            "rate": f"{args.rate:g} req/s",
            "duration": f"{args.duration:g}s",
            "seed": args.seed,
            "faults": len(faults["events"]),
        },
    )
    print(render_text(data), end="")
    print(f"wrote {args.out}")
    return 0


#: ``replan --mid-fault`` events, dropped into the KV-migration window.
_MID_FAULTS = {
    # Degrade an Ethernet link across the whole transition window;
    # migration flows contend with it but the cutover completes.
    "link": {
        "time": 40.0,
        "kind": "link_degrade",
        "target": "link#0",
        "duration": 8.0,
        "factor": 0.25,
    },
    # Kill a decode-endpoint server inside the migration itself; the
    # transition rolls back and retries after recovery.
    "server": {
        "time": 42.8,
        "kind": "server_down",
        "target": "server#0",
        "duration": 3.0,
    },
}


def cmd_replan(args) -> int:
    """Load-shift demo: online replanning rides out a workload swing.

    Serves a chatbot->summarisation load-shift trace on the testbed
    from a deliberately modest starting plan (TP4xPP2 per phase); the
    drift detector notices the post-shift prefill backlog and executes
    a live transition to TP8xPP1. ``--mid-fault`` drops a link or a
    decode-endpoint server into the middle of the KV migration: the
    link fault slows the migration but the transition completes; the
    server fault rolls the transition back cleanly (a later trigger
    retries after recovery). No request is ever dropped.
    """
    from repro.obs import render_text, write_report
    from repro.scenario import ScenarioSpec, run_scenario

    if args.flight_out is None:
        # set here rather than via set_defaults(): argparse shares the
        # parent parser's actions, so a subparser-level default would
        # leak into every other subcommand using the obs flags.
        args.flight_out = "replan-flight.jsonl"
    mid_fault = _MID_FAULTS.get(args.mid_fault)
    result = run_scenario(
        ScenarioSpec.from_dict(
            {
                "name": "replan",
                "model": "OPT-66B",
                "parallel": [4, 2, 4, 2],
                "workload": {
                    "generator": "loadshift",
                    "rate": args.rate_a,
                    "duration": args.duration,
                    "seed": args.seed,
                    "params": {
                        "rate_b": args.rate_b,
                        "shift_at": args.shift_at,
                    },
                },
                "faults": (
                    {"seed": args.seed, "events": [mid_fault]}
                    if mid_fault
                    else None
                ),
                "replan": {
                    "queue_high": 3,
                    "pending_high": 12,
                    "sustain_checks": 4,
                    "cooldown_s": 5.0,
                    "window_s": 20.0,
                    "min_window_requests": 4,
                    "target_parallel": [8, 1, 8, 1],
                },
                "observer": _observer_block(
                    args, attribution=True, slo=_TESTBED_SLO
                ),
            }
        )
    )
    observer = result.observer
    _print_summary(result, width=24)
    timeline = observer.recorder.replan_timeline()
    print(f"\nreplan timeline ({len(timeline)} events):")
    for ev in timeline:
        extra = " ".join(
            f"{k}={v}"
            for k, v in ev.items()
            if k not in ("time", "event")
        )
        print(f"  @ {ev['time']:7.2f}s {ev['event']:20s} {extra}")
    if args.summary_out:
        with open(args.summary_out, "w") as fh:
            json.dump(result.metrics.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.summary_out}")
    _export(observer, args)
    data = write_report(
        args.out,
        observer=observer,
        serving_metrics=result.metrics,
        title="HeroServe online-replanning demo",
        meta={
            "system": "HeroServe",
            "trace": result.trace.name,
            "rates": f"{args.rate_a:g}->{args.rate_b:g} req/s",
            "duration": f"{args.duration:g}s",
            "seed": args.seed,
            "mid_fault": args.mid_fault,
        },
    )
    print(render_text(data), end="")
    print(f"wrote {args.out}")
    return 0


def cmd_whatif(args) -> int:
    """Rank counterfactual resource upgrades by predicted tail gain."""
    from repro.obs import WhatIfProfiler, render_ladder, whatif_spec
    from repro.scenario import ScenarioSpec, build_runtime, plan_system

    spec = ScenarioSpec.from_dict(
        whatif_spec(args.topology, args.rate, args.duration, args.seed)
    )
    rt = build_runtime(spec)
    system = plan_system(rt)
    profiler = WhatIfProfiler(system, rt.trace)
    result = profiler.ladder(validate=args.validate)
    print(render_ladder(result, top=args.top))
    payload = result.to_payload(
        meta={
            "topology": args.topology,
            "system": system.spec.name,
            "rate": spec.workload.rate,
            "duration": spec.workload.duration,
            "seed": args.seed,
        }
    )
    out_paths = []
    if args.json:
        out_paths.append(args.json)
    obs_dir = os.environ.get("REPRO_OBS_DIR")
    if obs_dir:
        os.makedirs(obs_dir, exist_ok=True)
        out_paths.append(
            os.path.join(obs_dir, f"{args.topology}-whatif.json")
        )
    for path in out_paths:
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    if args.report:
        from repro.obs import write_report

        write_report(
            args.report,
            serving_metrics=profiler.baseline_metrics,
            title=f"what-if profile: {args.topology}",
            meta=payload["meta"],
            whatif=payload,
        )
        print(f"wrote {args.report}")
    if args.validate and not result.all_within_tolerance:
        print(
            "FAIL: analytic estimates diverge from re-simulation "
            "beyond the pinned tolerance"
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS instead of 0: the subparser re-parses this flag, and a
    # concrete default would clobber a "-v" given before the subcommand.
    common.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=argparse.SUPPRESS,
        help="-v for INFO, -vv for DEBUG (default WARNING)",
    )
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write spans as Chrome-tracing JSON (.jsonl for line dump)",
    )
    obs_flags.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write metrics snapshot (JSON; .txt/.prom for exposition)",
    )
    obs_flags.add_argument(
        "--flight-out",
        default=None,
        metavar="FILE",
        help="write the flight-recorder sample ring as JSONL",
    )
    obs_flags.add_argument(
        "--slo-ttft",
        type=float,
        default=None,
        metavar="S",
        help="TTFT SLO bound in seconds (attaches burn-rate alerting)",
    )
    obs_flags.add_argument(
        "--slo-tpot",
        type=float,
        default=None,
        metavar="S",
        help="TPOT SLO bound in seconds (attaches burn-rate alerting)",
    )

    fault_flags = argparse.ArgumentParser(add_help=False)
    fault_flags.add_argument(
        "--fault-plan",
        default=None,
        metavar="FILE",
        help="JSON fault plan to inject (see examples/faultplan.json)",
    )
    fault_flags.add_argument(
        "--mtbf",
        type=float,
        default=None,
        metavar="S",
        help="generate Poisson switch outages with this mean "
        "time between failures (seconds, simulation clock)",
    )
    fault_flags.add_argument(
        "--mttr",
        type=float,
        default=None,
        metavar="S",
        help="mean time to repair for --mtbf outages "
        "(default mtbf/10)",
    )

    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__, parents=[common],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "info", help="package and topology summary", parents=[common]
    )

    p = sub.add_parser(
        "quickstart",
        help="HeroServe on the testbed",
        parents=[common, obs_flags, fault_flags],
    )
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--schemes",
        default=None,
        metavar="LIST",
        help="comma-separated extra collectives for the online policy "
        "tables (e.g. ring-2stage,tree)",
    )
    p.add_argument(
        "--online-replan",
        action="store_true",
        help="arm load-triggered online replanning (live plan "
        "transitions with KV migration; adds replan_* summary keys)",
    )

    p = sub.add_parser(
        "compare",
        help="4-system comparison",
        parents=[common, obs_flags],
    )
    p.add_argument("--rate", type=float, default=1.2)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser(
        "plan",
        help="run the offline planner",
        parents=[common, obs_flags],
    )
    p.add_argument("--model", default="OPT-66B")
    p.add_argument(
        "--scheme",
        default="hybrid",
        choices=[s.value for s in SchemeKind],
    )
    p.add_argument("--rate", type=float, default=0.5)
    p.add_argument("--input-len", type=int, default=256)
    p.add_argument("--output-len", type=int, default=220)

    p = sub.add_parser(
        "schemes",
        help="list registered collectives with estimated step times",
        parents=[common],
    )
    p.add_argument(
        "--topology",
        default="testbed",
        choices=["testbed", "2tracks"],
    )
    p.add_argument("--model", default="OPT-66B")
    p.add_argument(
        "--group-size",
        type=int,
        default=8,
        help="GPUs in the priced tensor-parallel group (default 8)",
    )
    p.add_argument(
        "--tokens",
        type=int,
        default=256,
        help="tokens in flight per step (drives the payload; default 256)",
    )

    sub.add_parser(
        "routers",
        help="list fleet routing policies and QoE classes",
        parents=[common],
    )

    p = sub.add_parser(
        "fleet",
        help="multi-session trace through a routed replica fleet",
        parents=[common],
    )
    p.add_argument(
        "--router",
        default=None,
        metavar="NAME",
        help="routing policy (see `repro routers`; default jsq)",
    )
    p.add_argument(
        "--replicas",
        type=int,
        default=2,
        help="OPT-175B replicas packed onto the 2tracks miniature",
    )
    p.add_argument(
        "--session-rate",
        type=float,
        default=0.3,
        help="new sessions per second (default 0.3)",
    )
    p.add_argument("--duration", type=float, default=40.0)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser(
        "report",
        help="observed simulation -> self-contained HTML report",
        parents=[common, obs_flags],
    )
    p.add_argument(
        "--out",
        default="report.html",
        metavar="FILE",
        help="HTML report destination (default report.html)",
    )
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--from-dir",
        default=None,
        metavar="DIR",
        help="render from a previous run's --obs-dir dumps "
        "(flight/attribution/summary/whatif) instead of simulating",
    )
    p.add_argument(
        "--run",
        default=None,
        metavar="NAME",
        help="dump file prefix inside --from-dir (default: first found)",
    )

    p = sub.add_parser(
        "explain",
        help="critical-path waterfalls for the K slowest requests",
        parents=[common, obs_flags, fault_flags],
    )
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--slowest",
        type=int,
        default=5,
        metavar="K",
        help="how many of the slowest requests to explain (default 5)",
    )
    p.add_argument(
        "--from-dir",
        default=None,
        metavar="DIR",
        help="replay a previous run's *-attribution.json dump "
        "instead of simulating",
    )
    p.add_argument(
        "--run",
        default=None,
        metavar="NAME",
        help="dump file prefix inside --from-dir (default: first found)",
    )
    p.add_argument(
        "--schemes",
        default=None,
        metavar="LIST",
        help="comma-separated extra collectives for the online policy "
        "tables (e.g. ring-2stage,tree)",
    )

    p = sub.add_parser(
        "demo",
        help="chaos demo: fault-injected run -> flight JSONL + report",
        parents=[common, obs_flags, fault_flags],
    )
    p.add_argument(
        "--out",
        default="demo-report.html",
        metavar="FILE",
        help="HTML report destination (default demo-report.html)",
    )
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--duration", type=float, default=12.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--schemes",
        default=None,
        metavar="LIST",
        help="comma-separated extra collectives for the online policy "
        "tables (e.g. ring-2stage,tree)",
    )

    p = sub.add_parser(
        "replan",
        help="load-shift demo: live plan transition with KV migration",
        parents=[common, obs_flags],
    )
    p.add_argument(
        "--out",
        default="replan-report.html",
        metavar="FILE",
        help="HTML report destination (default replan-report.html)",
    )
    p.add_argument(
        "--summary-out",
        default=None,
        metavar="FILE",
        help="write the metrics summary (incl. replan_* keys) as JSON",
    )
    p.add_argument(
        "--rate-a",
        type=float,
        default=1.2,
        help="phase-1 (chatbot) arrival rate in req/s (default 1.2)",
    )
    p.add_argument(
        "--rate-b",
        type=float,
        default=0.5,
        help="phase-2 (summarisation) arrival rate (default 0.5)",
    )
    p.add_argument(
        "--shift-at",
        type=float,
        default=30.0,
        help="workload-shift time in seconds (default 30)",
    )
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--mid-fault",
        default="none",
        choices=["none", "link", "server"],
        help="inject a fault into the migration window: 'link' "
        "degrades an Ethernet link (transition still completes), "
        "'server' kills a decode endpoint (transition rolls back)",
    )

    p = sub.add_parser(
        "scenario",
        help="declarative scenario specs: run, matrix sweeps, validation",
        parents=[common],
    )
    scen_sub = p.add_subparsers(dest="scenario_cmd", required=True)
    sp = scen_sub.add_parser(
        "run", help="execute one (non-matrix) spec", parents=[common]
    )
    sp.add_argument("spec", metavar="SPEC", help="spec file (JSON/YAML)")
    sp.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the run summary as JSON",
    )
    sp = scen_sub.add_parser(
        "matrix",
        help="expand the spec's matrix and fan cells across processes",
        parents=[common],
    )
    sp.add_argument("spec", metavar="SPEC", help="spec file (JSON/YAML)")
    sp.add_argument(
        "--processes",
        type=int,
        default=2,
        metavar="N",
        help="worker processes (default 2; 1 runs cells inline)",
    )
    sp.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write the sweep report as self-contained HTML",
    )
    sp.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the sweep data (cells + axes) as JSON",
    )
    sp = scen_sub.add_parser(
        "validate",
        help="validate spec files, reporting field-level errors",
        parents=[common],
    )
    sp.add_argument(
        "specs", metavar="SPEC", nargs="+", help="spec files (JSON/YAML)"
    )
    scen_sub.add_parser(
        "list",
        help="spec schema, workload generators, sweepable axes",
        parents=[common],
    )

    p = sub.add_parser(
        "whatif",
        help="counterfactual bottleneck ladder over resource upgrades",
        parents=[common],
    )
    p.add_argument(
        "--topology",
        default="testbed",
        choices=sorted(WHATIF_SETTINGS),
    )
    p.add_argument(
        "--rate",
        type=float,
        default=None,
        help="arrival rate (default: the topology's pinned "
        "validation point)",
    )
    p.add_argument(
        "--duration",
        type=float,
        default=None,
        help="trace duration in seconds (default: pinned per topology)",
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="K",
        help="print only the top-K interventions (default: all)",
    )
    p.add_argument(
        "--validate",
        action="store_true",
        help="re-simulate every intervention and exit nonzero when the "
        "analytic estimate diverges beyond the pinned tolerance",
    )
    p.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the machine-readable ladder (also written to "
        "$REPRO_OBS_DIR/<topology>-whatif.json when set)",
    )
    p.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="also render an HTML report with the what-if section",
    )

    args = parser.parse_args(argv)
    # Fail on an unwritable output directory now, not after the run.
    for attr in (
        "trace_out",
        "metrics_out",
        "flight_out",
        "out",
        "json",
        "report",
        "summary_out",
    ):
        path = getattr(args, attr, None)
        if path:
            parent = os.path.dirname(path) or "."
            if not os.path.isdir(parent):
                parser.error(
                    f"--{attr.replace('_', '-')}: "
                    f"directory {parent!r} does not exist"
                )
    verbosity = getattr(args, "verbose", 0)
    if verbosity:
        setup_logging(verbosity)
    handlers = {
        "info": cmd_info,
        "quickstart": cmd_quickstart,
        "compare": cmd_compare,
        "plan": cmd_plan,
        "schemes": cmd_schemes,
        "routers": cmd_routers,
        "fleet": cmd_fleet,
        "report": cmd_report,
        "explain": cmd_explain,
        "demo": cmd_demo,
        "replan": cmd_replan,
        "scenario": cmd_scenario,
        "whatif": cmd_whatif,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
