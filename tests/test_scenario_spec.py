"""Scenario spec schema: validation, loading, round-tripping.

The spec layer's contract is that a bad file fails with *every*
field-level problem listed (dotted paths), and a good file round-trips
``from_dict -> to_dict -> from_dict`` losslessly.
"""

import json

import pytest

from repro.scenario import (
    ScenarioSpec,
    SpecValidationError,
    TopologySpec,
    WorkloadSpec,
    expand_matrix,
    load_spec,
    validate_spec,
)

GOOD = {
    "name": "good",
    "model": "OPT-66B",
    "topology": {"kind": "testbed"},
    "slo": "testbed-chatbot",
    "parallel": [8, 1, 8, 1],
    "workload": {
        "generator": "sharegpt",
        "rate": 1.0,
        "duration": 10.0,
        "seed": 0,
    },
}


def _paths(errors):
    return {e.path for e in errors}


class TestValidation:
    def test_good_spec_clean(self):
        assert validate_spec(GOOD) == []

    def test_non_mapping_rejected(self):
        errs = validate_spec([1, 2])
        assert _paths(errs) == {"$"}

    def test_all_errors_collected_in_one_pass(self):
        bad = {
            "name": "",
            "model": "GPT-9",
            "system": "NoSuchSystem",
            "workload": {
                "generator": "nope",
                "rate": -1.0,
                "duration": 10.0,
            },
            "slo": "no-such-slo",
            "parallel": [8, 1, 8],
            "bogus_key": 1,
        }
        paths = _paths(validate_spec(bad))
        assert {
            "name", "model", "system", "workload.generator",
            "workload.rate", "slo", "parallel", "bogus_key",
        } <= paths

    def test_dotted_paths_for_nested_fields(self):
        bad = dict(
            GOOD,
            topology={"kind": "mesh", "tracks": 0, "extra": 1},
            workload={
                "generator": "sharegpt",
                "rate": 1.0,
                "duration": 10.0,
                "params": {"not_a_knob": 5},
            },
        )
        paths = _paths(validate_spec(bad))
        assert "topology.kind" in paths
        assert "topology.tracks" in paths
        assert "topology.extra" in paths
        assert "workload.params.not_a_knob" in paths

    def test_unknown_generator_param_names_accepted_set(self):
        bad = dict(
            GOOD,
            workload={
                "generator": "diurnal",
                "rate": 1.0,
                "duration": 10.0,
                "params": {"peak_rate": 2.0, "wrong": 1},
            },
        )
        errs = validate_spec(bad)
        assert _paths(errs) == {"workload.params.wrong"}
        assert "peak_rate" in errs[0].message

    def test_router_requires_fleet(self):
        bad = dict(GOOD, router="jsq")
        assert "router" in _paths(validate_spec(bad))
        ok = dict(GOOD, router="jsq", n_replicas=2)
        assert validate_spec(ok) == []

    def test_unknown_router_rejected(self):
        bad = dict(GOOD, router="magic", n_replicas=2)
        errs = validate_spec(bad)
        assert "router" in _paths(errs)
        assert "kv-affinity" in errs[0].message

    def test_fleet_path_rejects_single_system_blocks(self):
        bad = dict(
            GOOD,
            n_replicas=2,
            background={"intensity": 0.5},
            faults={"events": []},
            replan={"queue_high": 5},
        )
        paths = _paths(validate_spec(bad))
        assert {"background", "faults", "replan"} <= paths

    def test_background_fields_checked(self):
        bad = dict(
            GOOD,
            background={
                "intensity": -1.0,
                "whatever": 2,
                "seed": "x",
            },
        )
        paths = _paths(validate_spec(bad))
        assert {
            "background.intensity",
            "background.whatever",
            "background.seed",
        } <= paths

    def test_fault_events_checked(self):
        bad = dict(
            GOOD,
            faults={
                "events": [
                    {"kind": "meteor", "time": -1.0},
                    {"kind": "switch_down", "time": 5.0,
                     "target": "switch#0"},
                ]
            },
        )
        paths = _paths(validate_spec(bad))
        assert "faults.events[0].kind" in paths
        assert "faults.events[0].time" in paths
        assert "faults.events[0].target" in paths
        assert not any(p.startswith("faults.events[1]") for p in paths)

    def test_replan_target_parallel_checked(self):
        bad = dict(GOOD, replan={"target_parallel": [8, 1], "nope": 1})
        paths = _paths(validate_spec(bad))
        assert "replan.target_parallel" in paths
        assert "replan.nope" in paths

    def test_explicit_slo_mapping(self):
        ok = dict(GOOD, slo={"ttft": 2.0, "tpot": 0.1})
        assert validate_spec(ok) == []
        bad = dict(GOOD, slo={"ttft": -2.0})
        paths = _paths(validate_spec(bad))
        assert {"slo.ttft", "slo.tpot"} <= paths

    def test_matrix_axes_checked(self):
        bad = dict(GOOD, matrix={"nonsense.path": [1], "router": "jsq"})
        paths = _paths(validate_spec(bad))
        assert "matrix.nonsense.path" in paths
        assert "matrix.router" in paths  # values must be a list

    def test_gpus_checked(self):
        bad = dict(GOOD, gpus=["A100", "H999"])
        assert "gpus[1]" in _paths(validate_spec(bad))

    def test_schemes_checked(self):
        ok = dict(GOOD, schemes=["ring-2stage", "tree"])
        assert validate_spec(ok) == []
        bad = dict(GOOD, schemes=["tree", "warp-drive"])
        assert _paths(validate_spec(bad)) == {"schemes[1]"}
        assert "schemes" in _paths(validate_spec(dict(GOOD, schemes="tree")))

    def test_observer_slo_checked(self):
        ok = dict(GOOD, observer={"slo": {"ttft": 2.5}})
        assert validate_spec(ok) == []
        bad = dict(
            GOOD, observer={"slo": {"ttft": 0, "p99": 1.0}, "flight": 1}
        )
        assert _paths(validate_spec(bad)) == {
            "observer.slo.ttft",
            "observer.slo.p99",
            "observer.flight",
        }
        empty = dict(GOOD, observer={"slo": {}})
        assert _paths(validate_spec(empty)) == {"observer.slo"}


class TestFromDict:
    def test_raises_with_every_error(self):
        with pytest.raises(SpecValidationError) as exc:
            ScenarioSpec.from_dict(
                {"name": "", "model": "?", "workload": {}},
                source="inline",
            )
        err = exc.value
        assert err.source == "inline"
        assert len(err.errors) >= 3
        assert "inline" in str(err)

    def test_round_trip(self):
        spec = ScenarioSpec.from_dict(
            dict(
                GOOD,
                router="jsq",
                n_replicas=2,
                arrival_rate="trace-mean",
                schemes=["tree"],
                observer={"flight": True, "slo": {"tpot": 0.1}},
                matrix={"router": ["jsq", "kv-affinity"]},
            )
        )
        assert spec.schemes == ("tree",)
        again = ScenarioSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_defaults_applied(self):
        spec = ScenarioSpec.from_dict(
            {
                "name": "d",
                "model": "OPT-66B",
                "workload": {
                    "generator": "sharegpt",
                    "rate": 1.0,
                    "duration": 5.0,
                },
            }
        )
        assert spec.system == "HeroServe"
        assert spec.topology == TopologySpec()
        assert spec.slo == "testbed-chatbot"
        assert spec.workload.seed == 0
        assert spec.forecast_q == 8
        assert spec.parallel is None
        assert spec.schemes == ()
        assert "schemes" not in spec.to_dict()


class TestLoadSpec:
    def test_json_file(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(GOOD))
        spec = load_spec(str(p))
        assert spec.name == "good"

    def test_yaml_file(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        p = tmp_path / "s.yaml"
        p.write_text(yaml.safe_dump(GOOD))
        spec = load_spec(str(p))
        assert spec.name == "good"
        assert spec.workload.generator == "sharegpt"

    def test_bad_json_reports_source(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(SpecValidationError, match="invalid JSON"):
            load_spec(str(p))

    def test_invalid_spec_reports_file(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"name": "x", "model": "?"}))
        with pytest.raises(SpecValidationError) as exc:
            load_spec(str(p))
        assert exc.value.source == str(p)


class TestExampleSpecs:
    """The checked-in example specs must always validate."""

    @pytest.mark.parametrize(
        "fname",
        [
            "router_matrix.json",
            "systems_smoke_matrix.json",
            "multitenant_diurnal.yaml",
        ],
    )
    def test_example_validates(self, fname):
        import os

        path = os.path.join(
            os.path.dirname(__file__), "..", "examples", "scenarios",
            fname,
        )
        if fname.endswith(".yaml"):
            pytest.importorskip("yaml")
        spec = load_spec(path)
        assert spec.name
        if spec.matrix:
            cells = expand_matrix(spec)
            assert len(cells) >= 2


class TestMatrixExpansion:
    def test_cells_cartesian_in_declaration_order(self):
        spec = ScenarioSpec.from_dict(
            dict(
                GOOD,
                n_replicas=2,
                router="jsq",
                matrix={
                    "router": ["jsq", "kv-affinity"],
                    "workload.rate": [0.5, 1.0],
                },
            )
        )
        cells = expand_matrix(spec)
        assert len(cells) == 4
        assert [c.point for c in cells] == [
            {"router": "jsq", "workload.rate": 0.5},
            {"router": "jsq", "workload.rate": 1.0},
            {"router": "kv-affinity", "workload.rate": 0.5},
            {"router": "kv-affinity", "workload.rate": 1.0},
        ]
        assert cells[0].spec.router == "jsq"
        assert cells[3].spec.workload.rate == 1.0
        assert cells[3].spec.matrix is None
        # Labels carry the axis assignments for reports.
        assert cells[1].label == "router=jsq workload.rate=1"

    def test_cell_specs_are_validated(self):
        spec = ScenarioSpec.from_dict(
            dict(GOOD, matrix={"workload.rate": [1.0, -3.0]})
        )
        with pytest.raises(SpecValidationError, match="workload.rate"):
            expand_matrix(spec)

    def test_no_matrix_rejected(self):
        spec = ScenarioSpec.from_dict(GOOD)
        with pytest.raises(ValueError, match="no matrix"):
            expand_matrix(spec)
