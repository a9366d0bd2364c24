"""The repository's benchmark: entry point.

Run from the repository root::

    PYTHONHASHSEED=0 python3 perfbench/run.py --workload steady-2tracks \\
        --seed 7 --seconds 36 --trace 0

A workload is split into seeded pieces (``suite.py``). A repeat is one
whole run of one piece, timed from outside: spec -> plan -> simulate ->
outputs written. After one untimed warm-up repeat, the pieces repeat in
order: the first cycle through all of them always completes, and further
repeats run while another fits in ``--seconds``. ``--trace 0`` prints the
end-to-end metrics of ``BENCHMARK.json``: host times average each
piece's repeats (set-up time is a median) and are scaled to a reference
host speed measured by probes between the repeats; simulated metrics
pool the requests of the first cycle. ``--trace 1`` runs one cycle, each piece
untraced and then traced, and prints the per-layer metrics. Every
repeat's outputs are checked (``checks.py``). The last stdout line is
the result object; the line before it is a JSON report with host facts
and per-repeat detail. Its outputs go to ``.perfbench_out/`` under the
working directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
#: Start no further repeat past this many seconds, whatever ``--seconds``
#: says, so a run always ends well inside its time limit.
HARD_STOP_S = 120.0
#: Size of the untimed warm-up repeat (imports, first-call caches), as a
#: share of a piece's duration.
WARMUP_SCALE = 0.25
REPEAT_KEYS = (
    "piece", "traced", "wall_s", "setup_s", "simulate_s", "probes_s"
)
#: Iterations of one host-speed probe.
PROBE_ITERS = 250_000
#: Host seconds of repeat between two probes (at least one per repeat).
PROBE_EVERY_S = 0.7
#: The probe's time at the reference host speed that host times are
#: scaled to; about its median on the 2-vCPU host the benchmark was
#: built on, where it ranged 0.013-0.023 s as the host's speed drifted.
PROBE_REFERENCE_S = 0.02


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiply each piece's simulated duration (tests use tiny "
        "runs; the recorded digest is checked only at 1.0)",
    )
    return p.parse_args(argv)


def pinned_hash_seed() -> str | None:
    """Refuse to time under randomized str hashing.

    With ``PYTHONHASHSEED`` unset the process re-executes itself with it
    pinned to 0, the value the repository's timing benches use; a value
    of ``random`` is refused. Returns the pinned value.
    """
    value = os.environ.get("PYTHONHASHSEED")
    if value is None:
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    return value if value.isdigit() else None


class _Capture:
    """Records the instances (and results) of one method's calls."""

    def __init__(self, cls, name: str, before=None) -> None:
        self.cls, self.name, self.before = cls, name, before
        self.calls: list[tuple[object, object]] = []

    def __enter__(self) -> "_Capture":
        self.original = vars(self.cls)[self.name]
        original, calls, before = self.original, self.calls, self.before

        def capture(obj, *args, **kwargs):
            if before is not None:
                before(obj)
            result = original(obj, *args, **kwargs)
            calls.append((obj, result))
            return result

        setattr(self.cls, self.name, capture)
        return self

    def __exit__(self, *exc) -> None:
        setattr(self.cls, self.name, self.original)


class Bench:
    """One workload at one seed: repeats, checks and metrics."""

    def __init__(self, args) -> None:
        import suite

        self.args = args
        self.workload = suite.WORKLOADS[args.workload]
        self.seed = suite.DEFAULT_SEED if args.seed is None else args.seed
        self.out_dir = os.path.join(".perfbench_out", self.workload.name)
        os.makedirs(self.out_dir, exist_ok=True)
        with open(os.path.join(HERE, "digests.json")) as fh:
            recorded = json.load(fh).get(self.workload.name, {})
        self.expected_digest = (
            recorded.get("sha256")
            if self.seed == recorded.get("seed") and args.scale == 1.0
            else None
        )

    # -- one repeat -------------------------------------------------------

    def repeat(
        self, piece: int, store=None, scale: float | None = None
    ) -> dict:
        """Spec -> plan -> simulate -> outputs for one piece, timed from
        outside.

        With a span ``store`` every layer is traced and the planner runs
        its two estimation phases on one thread so spans nest; without
        one, the program runs exactly as the scenario runner runs it.
        """
        from spans import OBS_EXPORT, OUTPUTS, ROOT, Tracer

        from repro.core.planner import OfflinePlanner
        from repro.core.policy import PolicyCostTable
        from repro.serving.background import BackgroundTraffic
        from repro.serving.engine import ServingSimulator

        def span(name):
            return store.span(name) if store else contextlib.nullcontext()

        pairs = [0]

        def count_pairs(table) -> None:
            n = len(table.policies)
            pairs[0] += n * (n - 1)

        with contextlib.ExitStack() as stack:
            if store is not None:
                stack.enter_context(Tracer(store))
                stack.enter_context(
                    _Capture(
                        PolicyCostTable, "refresh_penalties", count_pairs
                    )
                )
            sims = stack.enter_context(_Capture(ServingSimulator, "run"))
            plans = stack.enter_context(_Capture(OfflinePlanner, "plan"))
            bgs = stack.enter_context(_Capture(BackgroundTraffic, "start"))
            t0 = time.perf_counter()
            with span(ROOT):
                spec, rt, system = self.setup(
                    piece, threads=store is None, scale=scale
                )
                t1 = time.perf_counter()
                metrics, observer = self._simulate(spec, rt, system)
                t2 = time.perf_counter()
                with span(OUTPUTS):
                    outcome = self._outcome(rt, system, sims.calls[-1][0])
                    self._write_results(piece, outcome)
                if observer is not None:
                    with span(OBS_EXPORT):
                        self._export(piece, observer, metrics)
            t3 = time.perf_counter()
        sim = sims.calls[-1][0]
        reports = [r for _, r in plans.calls]
        lookups = sum(
            r.cache_stats.get("hits", 0) + r.cache_stats.get("misses", 0)
            for r in reports
        )
        hits = sum(r.cache_stats.get("hits", 0) for r in reports)
        faults = metrics.fault_stats
        return {
            "wall_s": t3 - t0,
            "setup_s": t1 - t0,
            "simulate_s": t2 - t1,
            "outcome": outcome,
            "counts": {
                "workloads.requests": len(rt.trace),
                "planner.candidates": sum(
                    r.candidates_evaluated for r in reports
                ),
                "estcache.lookups": int(lookups),
                "estcache.hits": int(hits),
                "eventqueue.events": sim.queue.events_fired,
                "engine.decode_iters": metrics.decode_iterations,
                "engine.prefill_batches": metrics.prefill_batches,
                "controller.refreshes": (
                    sim.controller.refreshes if sim.controller else 0
                ),
                "policy.pairs_priced": pairs[0],
                "linkstate.open_at_drain": outcome.open_at_drain,
                "linkstate.double_releases": outcome.double_releases,
                "background.bursts": sum(
                    bg.bursts_started for bg, _ in bgs.calls
                ),
                "faults.injected": faults.faults_injected if faults else 0,
                "faults.failovers": faults.failovers if faults else 0,
            },
        }

    def setup(
        self, piece: int, threads: bool = True, scale: float | None = None
    ):
        """Spec -> planned deployment: ``build_runtime`` + ``build_system``.

        ``threads=False`` runs the planner's two estimation phases on
        one thread (same plan; traced runs need spans to nest). ``scale``
        overrides ``--scale`` (the warm-up repeat).
        """
        from suite import derived_seeds

        from repro.baselines import systems
        from repro.core.planner import PlannerConfig
        from repro.scenario import ScenarioSpec, runner

        spec = ScenarioSpec.from_dict(
            self.workload.spec(
                self.seed, piece, self.args.scale if scale is None else scale
            )
        )
        rt = runner.build_runtime(spec)
        system = systems.build_system(
            systems.SYSTEM_BY_NAME[spec.system],
            rt.built,
            rt.model,
            rt.bank,
            rt.sla,
            rt.trace.representative_batch(spec.forecast_q),
            arrival_rate=rt.arrival_rate,
            forced_parallel=rt.parallel,
            planner_config=PlannerConfig(
                seed=derived_seeds(self.seed, piece).planner,
                asynchronous=threads,
            ),
        )
        return spec, rt, system

    def _simulate(self, spec, rt, system):
        """``simulate_trace`` with the spec's background, faults and
        observer, translated as the scenario runner translates them."""
        from repro.baselines import systems
        from repro.faults.plan import FaultPlan
        from repro.obs import AttributionCollector, FlightRecorder, Observer
        from repro.serving.background import BackgroundTrafficConfig
        from repro.serving.engine import EngineConfig

        observer = None
        engine_config = None
        if spec.observer is not None:
            observer = Observer(
                recorder=(
                    FlightRecorder() if spec.observer.get("flight") else None
                ),
                attribution=(
                    AttributionCollector()
                    if spec.observer.get("attribution")
                    else None
                ),
            )
            engine_config = EngineConfig(observer=observer)
        bg_cfg = bg_seed = bg_until = None
        if spec.background is not None:
            knobs = dict(spec.background)
            bg_seed = knobs.pop("seed", None)
            bg_until = knobs.pop("until", None)
            bg_cfg = BackgroundTrafficConfig(**knobs)
        metrics = systems.simulate_trace(
            system,
            rt.trace,
            engine_config=engine_config,
            background=bg_cfg,
            background_seed=bg_seed,
            background_until=bg_until,
            fault_plan=(
                FaultPlan.from_dict(spec.faults) if spec.faults else None
            ),
        )
        return metrics, observer

    def _outcome(self, rt, system, sim):
        from checks import Outcome

        metrics = sim.metrics
        p = system.plan
        plan = repr(
            (
                str(p.parallel),
                p.prefill.stages,
                p.decode.stages,
                [c.mode for c in p.prefill.comm],
                [c.mode for c in p.decode.comm],
            )
        )
        return Outcome(
            offered=[r.request_id for r in rt.trace],
            finished=[
                (
                    r.request_id,
                    r.arrival_time,
                    r.first_token_time,
                    r.finish_time,
                    r.output_len,
                )
                for r in metrics.finished
            ],
            held=held_ids(sim),
            dropped=metrics.dropped,
            open_at_drain=sim.ctx.linkstate.active_registrations(),
            double_releases=sim.ctx.linkstate.double_releases,
            slo=(rt.sla.ttft, rt.sla.tpot),
            plan=plan,
        )

    def _write_results(self, piece: int, outcome) -> None:
        path = os.path.join(
            self.out_dir, f"results-{self.seed}-{piece}.json"
        )
        with open(path, "w") as fh:
            json.dump(
                {
                    "workload": self.workload.name,
                    "seed": self.seed,
                    "piece": piece,
                    "offered": len(outcome.offered),
                    "dropped": outcome.dropped,
                    "unfinished": outcome.held,
                    "finished": outcome.finished,
                    "plan": outcome.plan,
                },
                fh,
            )

    def _export(self, piece: int, observer, metrics) -> None:
        """The observed workload's outputs: flight JSONL, attribution
        payload and the HTML report."""
        from repro.obs import write_report

        stem = os.path.join(self.out_dir, f"run-{self.seed}-{piece}")
        observer.recorder.write_jsonl(stem + "-flight.jsonl")
        with open(stem + "-attribution.json", "w") as fh:
            json.dump(observer.attribution.to_payload(), fh)
        write_report(
            stem + "-report.html",
            observer=observer,
            serving_metrics=metrics,
            title=self.workload.name,
        )


def held_ids(sim) -> list[int]:
    """Ids of requests the engine still holds (queued, in flight, or in a
    pending event) when the run stops at its horizon.

    The engine keeps no list of unfinished requests, so this walks its
    queues and pending events. Should those internals be renamed, nothing
    is found and any held request fails the accounting check loudly.
    """
    from repro.serving.request import RequestState

    held: set[int] = set()

    def add(obj) -> None:
        if isinstance(obj, RequestState):
            held.add(obj.request_id)
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                add(item)
        elif isinstance(obj, dict):
            for item in obj.values():
                add(item)

    for attr in (
        "prefill_queue",
        "decode_pending",
        "decode_active",
        "_prefill_inflight",
        "_kv_inflight",
    ):
        add(getattr(sim, attr, None))
    for entry in getattr(sim.queue, "_heap", ()):
        if not entry.event.cancelled:
            add(entry.event.args)
    return sorted(held)


def host_facts(hash_seed: str) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": hash_seed,
        "machine": platform.machine(),
    }


def probe_host() -> float:
    """Seconds a fixed pure-Python loop takes now: the host's current
    speed, measured with no code of the program under test."""
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERS):
        total += i * i
    return time.perf_counter() - t0


def _run_repeats(bench, store, seconds: float) -> tuple[list[dict], list[str]]:
    """One untimed warm-up repeat, then the pieces in order.

    The first cycle through every piece always completes; after it,
    repeats go on while another fits in ``seconds``. With a span store
    exactly one cycle runs, each piece untraced and then traced.
    """
    from checks import check_outcome

    pieces = bench.workload.pieces
    repeats: list[dict] = []
    t_start = time.perf_counter()
    try:
        warm = bench.repeat(0, scale=min(bench.args.scale, WARMUP_SCALE))
    except Exception as exc:  # counted as a failure, then stop
        traceback.print_exc(file=sys.stderr)
        return repeats, [f"warm-up raised {type(exc).__name__}: {exc}"]
    problems = [f"warm-up: {p}" for p in check_outcome(warm["outcome"], None)]
    last_wall = 0.0
    done = 0
    while not problems:
        piece = done % pieces
        for traced in (False, True) if store is not None else (False,):
            if traced:
                store.current_run = len(repeats)
            # Neither the previous repeat's garbage nor the results kept so
            # far are the program's: collect the one and keep the other
            # out of the collector's scans while the repeat is timed.
            gc.collect()
            gc.freeze()
            probes = (
                []
                if traced
                else [
                    probe_host()
                    for _ in range(max(1, int(last_wall / PROBE_EVERY_S)))
                ]
            )
            try:
                rep = bench.repeat(piece, store if traced else None)
            except Exception as exc:  # counted as a failure, then stop
                traceback.print_exc(file=sys.stderr)
                problems.append(
                    f"piece {piece} raised {type(exc).__name__}: {exc}"
                )
                return repeats, problems
            rep.update(piece=piece, traced=traced, probes_s=probes)
            last_wall = rep["wall_s"]
            rep["problems"] = check_outcome(rep["outcome"], None)
            problems.extend(f"piece {piece}: {p}" for p in rep["problems"])
            repeats.append(rep)
        done += 1
        elapsed = time.perf_counter() - t_start
        if done >= pieces and (
            store is not None
            or elapsed * (done + 1) / done > seconds
            or elapsed > HARD_STOP_S
        ):
            break
    return repeats, problems


def _host_metrics(untraced: list[dict]) -> tuple[dict, dict]:
    """Host times of the timed repeats at the reference host speed;
    returns (metrics, the measured figures behind them).

    Pieces differ in work, and the last cycle may stop part way, so each
    piece's repeats are averaged first and every piece weighs the same.
    Set-up time is the median over all repeats. The host's speed drifts
    by up to half over minutes, and averaging inside one invocation
    cannot remove that. The probes run between the repeats measure it
    over the same seconds, so every time is scaled by the probe's
    reference time over its mean in this invocation.
    """
    by_piece: dict[int, list[dict]] = {}
    for r in untraced:
        by_piece.setdefault(r["piece"], []).append(r)

    def per_piece(key: str) -> list[float]:
        return [
            statistics.mean(r[key] for r in reps) for reps in by_piece.values()
        ]

    offered = sum(len(reps[0]["outcome"].offered) for reps in by_piece.values())
    measured = {
        "wall_s": statistics.mean(per_piece("wall_s")),
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
        "sim_req_per_s": offered / sum(per_piece("simulate_s")),
        "probe_s": statistics.mean(p for r in untraced for p in r["probes_s"]),
    }
    speed = PROBE_REFERENCE_S / measured["probe_s"]
    metrics = {
        "wall_s": measured["wall_s"] * speed,
        "setup_s": measured["setup_s"] * speed,
        "sim_req_per_s": measured["sim_req_per_s"] / speed,
    }
    return metrics, measured


def run(args, hash_seed: str) -> tuple[dict, dict]:
    """All repeats of one invocation; returns (result, report)."""
    from checks import median_and_tail, slo_attainment
    from spans import SpanStore, layer_split, subtree_split

    bench = Bench(args)
    store = SpanStore() if args.trace else None
    repeats, problems = _run_repeats(bench, store, args.seconds)

    untraced = [r for r in repeats if not r["traced"]]
    attempted = sum(len(r["outcome"].offered) for r in repeats)
    failed = sum(
        len(r["outcome"].offered) for r in repeats if r["problems"]
    )
    first = [r["outcome"] for r in untraced[: bench.workload.pieces]]
    complete = not problems and len(first) == bench.workload.pieces
    # Digest of the first cycle: the pieces' digests in piece order.
    digest = (
        hashlib.sha256("".join(o.digest() for o in first).encode()).hexdigest()
        if complete
        else None
    )
    by_piece: dict[int, set[str]] = {}
    for r in repeats:
        by_piece.setdefault(r["piece"], set()).add(r["outcome"].digest())
    if any(len(d) > 1 for d in by_piece.values()):
        problems.append("repeats of one piece gave different results")
    if (
        complete
        and bench.expected_digest is not None
        and digest != bench.expected_digest
    ):
        problems.append("digest differs from the one recorded")

    metrics: dict = {}
    report: dict = {
        "workload": bench.workload.name,
        "seed": bench.seed,
        "pieces": bench.workload.pieces,
        "scale": args.scale,
        "host": host_facts(hash_seed),
        "repeats": [{k: r[k] for k in REPEAT_KEYS} for r in repeats],
        "digest": digest,
        "digest_checked": bench.expected_digest is not None,
    }
    if complete and args.trace:
        metrics, split_error = _layer_metrics(repeats, layer_split(store))
        store.write(os.path.join(bench.out_dir, f"spans-{bench.seed}.npz"))
        report["split_error_s"] = split_error
        report["simulate_trace_split_s"] = subtree_split(
            store, "systems.simulate_trace"
        )
        if split_error > 1e-6 * metrics["traced.wall_s"]:
            problems.append(f"layer self times miss the wall by {split_error}")
    elif complete:
        ttft = median_and_tail([x for o in first for x in o.ttfts()])
        tpot = median_and_tail([x for o in first for x in o.tpots()])
        host, report["host_measured"] = _host_metrics(untraced)
        metrics = {
            **host,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0,
            "ttft_p50_s": ttft["p50"],
            "ttft_tail_s": ttft["tail"],
            "tpot_p50_s": tpot["p50"],
            "tpot_tail_s": tpot["tail"],
            "slo_attainment": slo_attainment(first),
        }
        report["ttft_tail"] = ttft
        report["tpot_tail"] = tpot
    if problems and not failed:  # a run-level check failed
        failed = attempted
    if problems:  # a raise before any request still counts as a failure
        attempted, failed = max(attempted, 1), max(failed, 1)
    report.update(
        requests_offered=attempted,
        requests_succeeded=attempted - failed,
        requests_failed=failed,
        requests_per_cycle={
            "offered": sum(len(o.offered) for o in first),
            "finished": sum(len(o.finished) for o in first),
            "dropped": sum(o.dropped for o in first),
            "unfinished": sum(len(o.held) for o in first),
        },
        problems=problems,
    )
    units = declared_units()
    result = {
        "correct": not problems and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }
    return result, report


def _layer_metrics(repeats, splits: dict[int, dict]) -> tuple[dict, float]:
    """Per-layer metrics: the traced repeats' splits and counts, summed."""
    total: dict = {}
    for i, rep in enumerate(repeats):
        if not rep["traced"]:
            continue
        for name, value in splits[i].items():
            total[name] = total.get(name, 0) + value
        for name, value in rep["counts"].items():
            total[name] = total.get(name, 0) + value
    traced = sum(r["wall_s"] for r in repeats if r["traced"])
    plain = sum(r["wall_s"] for r in repeats if not r["traced"])
    total["trace_overhead_frac"] = traced / plain - 1.0
    lookups = total["estcache.lookups"]
    total["estcache.hit_ratio"] = (
        total.pop("estcache.hits") / lookups if lookups else 0.0
    )
    return total, abs(total.pop("split_error_s"))


def declared_units() -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` (the contract, at the
    repository root) declares them."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {
        m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(
            "perfbench: src/repro not found; run from the repository root",
            file=sys.stderr,
        )
        return 2
    hash_seed = pinned_hash_seed()
    if hash_seed is None:
        print(
            "perfbench: refusing to time with PYTHONHASHSEED="
            f"{os.environ.get('PYTHONHASHSEED')!r}; unset it or pin it",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import suite

    if args.workload not in suite.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(suite.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    result, report = run(args, hash_seed)
    path = os.path.join(
        ".perfbench_out",
        args.workload,
        f"report-{report['seed']}-trace{args.trace}.json",
    )
    with open(path, "w") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
