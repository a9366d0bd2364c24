"""The ``python -m repro`` command-line interface."""

import json
import logging
import os
import sys

import pytest

from repro.__main__ import main
from repro.obs.logging_config import PACKAGE_LOGGER

sys.path.insert(0, os.path.dirname(__file__))
try:
    from make_cli_goldens import CLI_GOLDENS, read_golden, scrub
finally:
    sys.path.pop(0)


def assert_golden(name: str, argv: list[str], out: str) -> None:
    """``out`` is byte-identical to the pinned stdout of ``argv``.

    ``argv`` may add output-path flags to the golden command; their
    ``wrote`` lines are scrubbed on both sides.
    """
    golden_argv = CLI_GOLDENS[name]
    assert argv[: len(golden_argv)] == golden_argv, argv
    assert scrub(out) == read_golden(name), name


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "OPT-66B" in out
        assert "testbed" in out

    def test_plan_hybrid(self, capsys):
        assert main(["plan", "--scheme", "hybrid", "--rate", "0.3"]) == 0
        out = capsys.readouterr().out
        assert "scheme=hybrid" in out
        assert "prefill" in out

    def test_plan_ring(self, capsys):
        assert main(["plan", "--scheme", "ring", "--rate", "0.3"]) == 0
        assert "scheme=ring" in capsys.readouterr().out

    def test_plan_unknown_model(self):
        with pytest.raises(KeyError):
            main(["plan", "--model", "GPT-7"])

    def test_bad_scheme_rejected(self):
        with pytest.raises(SystemExit):
            main(["plan", "--scheme", "teleportation"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_quickstart_small(self, capsys):
        argv = ["quickstart", "--rate", "0.4", "--duration", "20"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "attainment" in out
        assert_golden("quickstart", argv, out)

    def test_compare_small(self, capsys):
        argv = ["compare", "--rate", "0.8", "--duration", "20"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for name in ("DistServe", "DS-ATP", "DS-SwitchML", "HeroServe"):
            assert name in out
        assert_golden("compare", argv, out)

    def test_fleet(self, capsys):
        argv = ["fleet"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "routed per replica" in out
        assert_golden("fleet", argv, out)

    def test_replan_mid_fault_server(self, capsys, tmp_path):
        argv = [
            "replan", "--mid-fault", "server",
            "--out", str(tmp_path / "replan.html"),
            "--flight-out", str(tmp_path / "flight.jsonl"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "replan timeline" in out
        assert (tmp_path / "replan.html").exists()
        assert_golden("replan", argv, out)

    def test_whatif_testbed(self, capsys):
        argv = ["whatif", "--topology", "testbed"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "bottleneck ladder" in out
        assert_golden("whatif", argv, out)


class TestCliObservability:
    def test_quickstart_writes_trace_and_metrics(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert main(
            [
                "quickstart",
                "--rate",
                "0.4",
                "--duration",
                "20",
                "--trace-out",
                str(trace_path),
                "--metrics-out",
                str(metrics_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert f"wrote {trace_path}" in out
        assert f"wrote {metrics_path}" in out

        blob = json.loads(trace_path.read_text())
        names = {e["name"] for e in blob["traceEvents"]}
        assert any(n.startswith("prefill[") for n in names)
        assert any(n.startswith("allreduce:") for n in names)

        metrics = json.loads(metrics_path.read_text())
        metric_names = {m["name"] for m in metrics["metrics"]}
        assert "repro_ttft_seconds" in metric_names
        assert "repro_policy_selections_total" in metric_names

    def test_quickstart_jsonl_trace(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        assert main(
            [
                "quickstart",
                "--rate",
                "0.4",
                "--duration",
                "10",
                "--trace-out",
                str(trace_path),
            ]
        ) == 0
        lines = trace_path.read_text().strip().splitlines()
        assert lines
        assert all(json.loads(line)["name"] for line in lines)

    def test_metrics_text_exposition(self, tmp_path):
        metrics_path = tmp_path / "metrics.prom"
        assert main(
            [
                "quickstart",
                "--rate",
                "0.4",
                "--duration",
                "10",
                "--metrics-out",
                str(metrics_path),
            ]
        ) == 0
        text = metrics_path.read_text()
        assert "# TYPE repro_ttft_seconds histogram" in text
        assert "repro_ttft_seconds_count" in text

    def test_plan_phase_breakdown_with_metrics_out(
        self, capsys, tmp_path
    ):
        assert main(
            [
                "plan",
                "--rate",
                "0.3",
                "--metrics-out",
                str(tmp_path / "m.json"),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "planner phase breakdown" in out
        assert "grouping.kmeans" in out

    def test_compare_suffixes_outputs_per_system(self, tmp_path):
        assert main(
            [
                "compare",
                "--rate",
                "0.8",
                "--duration",
                "10",
                "--metrics-out",
                str(tmp_path / "m.json"),
            ]
        ) == 0
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == [
            "m-distserve.json",
            "m-ds-atp.json",
            "m-ds-switchml.json",
            "m-heroserve.json",
        ]

    def test_compare_suffixes_only_the_basename(
        self, tmp_path, monkeypatch
    ):
        """Only the file name's extension is split off: an extension-less
        name or a dotted directory keeps its directory."""
        (tmp_path / "runs.v2").mkdir()
        monkeypatch.chdir(tmp_path)
        assert main(
            [
                "compare",
                "--rate",
                "0.8",
                "--duration",
                "10",
                "--trace-out",
                "./trace",
                "--metrics-out",
                "runs.v2/m",
            ]
        ) == 0
        suffixes = ["distserve", "ds-atp", "ds-switchml", "heroserve"]
        assert sorted(
            p.name for p in tmp_path.iterdir() if p.is_file()
        ) == [f"trace-{s}" for s in suffixes]
        assert sorted(p.name for p in (tmp_path / "runs.v2").iterdir()) == [
            f"m-{s}" for s in suffixes
        ]

    def test_verbose_flag_configures_logging(self, tmp_path):
        logger = logging.getLogger(PACKAGE_LOGGER)
        saved_handlers = list(logger.handlers)
        saved_level = logger.level
        try:
            assert main(
                ["-v", "quickstart", "--rate", "0.4", "--duration", "10"]
            ) == 0
            assert logger.level == logging.INFO
        finally:
            logger.handlers = saved_handlers
            logger.setLevel(saved_level)


class TestCliFaults:
    def test_quickstart_with_fault_plan(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {
                    "seed": 0,
                    "events": [
                        {
                            "time": 2.0,
                            "kind": "switch_down",
                            "target": "switch#0",
                            "duration": 4.0,
                        }
                    ],
                }
            )
        )
        assert main(
            [
                "quickstart",
                "--rate", "0.5",
                "--duration", "15",
                "--fault-plan", str(plan),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "faults_injected" in out
        assert "degraded_seconds" in out

    def test_quickstart_mtbf_generates_chaos(self, capsys):
        assert main(
            [
                "quickstart",
                "--rate", "0.5",
                "--duration", "20",
                "--mtbf", "8",
                "--mttr", "2",
            ]
        ) == 0
        assert "faults_injected" in capsys.readouterr().out

    def test_demo_writes_flight_and_report(self, capsys, tmp_path):
        out_html = tmp_path / "demo.html"
        flight = tmp_path / "flight.jsonl"
        argv = [
            "demo",
            "--out", str(out_html),
            "--flight-out", str(flight),
        ]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "recorded failovers" in text
        assert_golden("demo", argv, text)
        assert out_html.exists()
        lines = [
            json.loads(line)
            for line in flight.read_text().splitlines()
        ]
        assert any(
            row.get("event") == "failover" for row in lines
        )


class TestCliExplain:
    def test_explain_prints_waterfalls(self, capsys):
        argv = [
            "explain",
            "--rate", "1.0",
            "--duration", "30",
            "--seed", "0",
            "--slowest", "5",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "critical-path budget" in out
        assert "slowest 5 requests" in out
        assert "dominant:" in out
        # names the concrete network element the comm priced through
        assert "via link" in out
        assert_golden("explain", argv, out)

    def test_explain_with_fault_plan(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {
                    "seed": 0,
                    "events": [
                        {
                            "time": 2.0,
                            "kind": "server_down",
                            "target": "server#0",
                            "duration": 2.0,
                        }
                    ],
                }
            )
        )
        assert main(
            [
                "explain",
                "--rate", "1.0",
                "--duration", "12",
                "--fault-plan", str(plan),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "kv_retry_backoff" in out

    def test_report_includes_attribution_section(
        self, capsys, tmp_path
    ):
        out_html = tmp_path / "report.html"
        argv = [
            "report",
            "--rate", "1.0",
            "--duration", "30",
            "--seed", "0",
            "--out", str(out_html),
        ]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "critical path" in text
        assert_golden("report", argv, text)
        html_text = out_html.read_text()
        assert "Critical-path attribution" in html_text
        assert "cpbar" in html_text
        assert "Slowest requests" in html_text
