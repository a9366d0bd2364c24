"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import suite  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

#: Small enough for seconds per run, large enough for a tail sample.
TINY = {"steady-2tracks": 0.1, "plan-8tracks": 0.5, "storm-testbed": 0.1}


def run_bench(workload, trace=0, seed=None, cwd=ROOT):
    cmd = [
        sys.executable,
        os.path.join(BENCH_DIR, "run.py"),
        "--workload", workload,
        "--seconds", "0",
        "--trace", str(trace),
        "--scale", str(TINY[workload]),
    ]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=170
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(suite.WORKLOADS)


@pytest.mark.parametrize("workload", list(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    report, result = parse(run_bench(workload, trace=trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    assert report["host"]["PYTHONHASHSEED"] == "0"
    assert {"python", "numpy", "nproc"} <= set(report["host"])


def test_other_seed_changes_the_trace_not_the_metric_names():
    report_a, result_a = parse(run_bench("steady-2tracks", seed=1))
    report_b, result_b = parse(run_bench("steady-2tracks", seed=2))
    assert report_a["digest"] != report_b["digest"]
    assert set(result_a["metrics"]) == set(result_b["metrics"])


def test_two_traced_runs_give_identical_counts():
    counts = []
    for _ in range(2):
        report, result = parse(run_bench("storm-testbed", trace=1))
        counts.append(
            {
                name: m["value"]
                for name, m in result["metrics"].items()
                if m["unit"] == "count"
            }
        )
        assert report["split_error_s"] < 1e-6
    assert counts[0] == counts[1]
    assert counts[0]["faults.injected"] > 0
    assert counts[0]["obs.hook_calls"] > 0


def test_derived_seeds_are_pinned_and_distinct():
    seeds = suite.derived_seeds(suite.DEFAULT_SEED, 0)
    assert seeds == suite.derived_seeds(suite.DEFAULT_SEED, 0)
    assert len(set(vars(seeds).values())) == 4
    assert seeds != suite.derived_seeds(suite.DEFAULT_SEED + 1, 0)
    assert seeds != suite.derived_seeds(suite.DEFAULT_SEED, 1)
    spec_a = suite.WORKLOADS["storm-testbed"].spec(1, 0)
    spec_b = suite.WORKLOADS["storm-testbed"].spec(2, 0)
    for key in ("workload", "background", "faults"):
        assert spec_a[key]["seed"] != spec_b[key]["seed"]


@pytest.fixture(scope="module")
def tiny_outcome():
    """A real outcome from one tiny in-process repeat."""
    import run

    args = argparse.Namespace(
        workload="storm-testbed", seed=None, seconds=0, trace=0,
        scale=TINY["storm-testbed"],
    )
    rep = run.Bench(args).repeat(0)
    return rep["outcome"]


def test_real_outcome_passes(tiny_outcome):
    assert checks.check_outcome(tiny_outcome, tiny_outcome.digest()) == []


def test_corrupted_digest_fails(tiny_outcome):
    bad = "0" * 64
    problems = checks.check_outcome(tiny_outcome, bad)
    assert any("digest" in p for p in problems)


def test_removed_request_fails(tiny_outcome):
    out = checks.Outcome(**vars(tiny_outcome))
    out.finished = out.finished[1:]
    problems = checks.check_outcome(out, None)
    assert any("accounting" in p for p in problems)
    assert out.digest() != tiny_outcome.digest()


def test_held_and_dropped_requests_are_accounted():
    base = dict(
        offered=[0, 1, 2, 3],
        finished=[(0, 0.0, 0.5, 1.0, 3)],
        held=[1, 2],
        dropped=1,
        open_at_drain=0,
        double_releases=0,
        slo=(1.0, 1.0),
        plan="TP1",
    )
    assert checks.check_outcome(checks.Outcome(**base), None) == []
    out = checks.Outcome(**base)
    # Offered-request denominator: one of four met the SLO.
    assert checks.slo_attainment([out]) == 0.25
    assert checks.check_outcome(
        checks.Outcome(**dict(base, dropped=0)), None
    )
    assert checks.check_outcome(
        checks.Outcome(**dict(base, open_at_drain=2)), None
    )


def test_tail_leaves_ten_samples_beyond():
    stats = checks.median_and_tail([float(i) for i in range(100)])
    assert stats["tail"] == 89.0
    assert stats["beyond"] == 10
    assert stats["tail_percentile"] == 90.0
    stats = checks.median_and_tail([float(i) for i in range(2160)])
    assert stats["tail_percentile"] == 99.0
    assert stats["beyond"] == 21
    assert stats["tail"] == 2138.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("steady-2tracks", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
