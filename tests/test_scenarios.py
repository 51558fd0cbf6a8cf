"""Tests for repro.scenarios — specs, packs, and scoring.

The contract under test: a ScenarioSpec is a validated, hashable bundle
of (experiment, scale, faults, guard) knobs; packs expand to valid
specs; and run_scenario produces a plain-data document whose digest is
a pure function of the spec — the byte-identity contract frozen
regressions replay against.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.scenarios import (
    PACKS,
    ScenarioError,
    ScenarioSpec,
    get_pack,
    list_packs,
    load_scenario_file,
    parse_scenario_doc,
    payload_drift,
    run_scenario,
    scenario,
    score_scenario,
)


class TestScenarioSpec:
    def test_builder_defaults(self):
        s = scenario("plain")
        assert s.experiment == "fig2" and s.scale == "ci"
        assert s.faults is None and s.guard is None

    def test_off_normalises_to_none(self):
        assert scenario("a", faults="off").faults is None
        assert scenario("b", guard="off").guard is None

    def test_validation_names_the_field(self):
        with pytest.raises(ScenarioError, match="experiment"):
            scenario("x", experiment="fig42")
        with pytest.raises(ScenarioError, match="scale"):
            scenario("x", scale="huge")
        with pytest.raises(ScenarioError, match="guard"):
            scenario("x", guard="paranoid")
        with pytest.raises(ScenarioError, match="guard injection"):
            scenario("x", guard_inject="meteor")
        with pytest.raises(ScenarioError, match="fault"):
            scenario("x", faults="bogus")
        with pytest.raises(ScenarioError, match="name"):
            scenario("spaces in names?")

    def test_hash_covers_identity_not_presentation(self):
        a = scenario("one", faults="lossy", fault_seed=3)
        b = scenario("two", faults="lossy", fault_seed=3,
                     description="same behaviour, different label",
                     tags=("x",))
        c = scenario("one", faults="lossy", fault_seed=4)
        assert a.spec_hash == b.spec_hash
        assert a.spec_hash != c.spec_hash

    def test_dict_round_trip(self):
        s = scenario("rt", experiment="fig3", faults="straggler:0.25",
                     fault_seed=2, guard="observe", tags=("t1", "t2"),
                     description="round trip")
        assert ScenarioSpec.from_dict(s.as_dict()) == s

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ScenarioError, match="unknown"):
            ScenarioSpec.from_dict({"name": "x", "wat": 1})

    def test_with_revalidates(self):
        s = scenario("base")
        assert s.with_(experiment="fig3").experiment == "fig3"
        with pytest.raises(ScenarioError):
            s.with_(experiment="fig42")


class TestScenarioDocs:
    def test_parse_single_and_list_and_wrapper(self):
        one = parse_scenario_doc({"name": "solo"}, origin="t")
        assert [s.name for s in one] == ["solo"]
        two = parse_scenario_doc(
            [{"name": "a"}, {"name": "b", "experiment": "fig3"}],
            origin="t",
        )
        assert [s.name for s in two] == ["a", "b"]
        wrapped = parse_scenario_doc(
            {"name": "pack", "scenarios": [{"name": "c"}]}, origin="t"
        )
        assert [s.name for s in wrapped] == ["c"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            parse_scenario_doc(
                [{"name": "a"}, {"name": "a", "experiment": "fig3"}],
                origin="t",
            )

    def test_load_json_file(self, tmp_path):
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(
            [{"name": "fromfile", "faults": "lossy", "fault_seed": 1}]
        ))
        specs = load_scenario_file(path)
        assert specs[0].name == "fromfile"
        assert specs[0].faults == "lossy"

    def test_yaml_gated_on_dependency(self, tmp_path):
        path = tmp_path / "scen.yaml"
        path.write_text("- name: y\n")
        try:
            import yaml  # noqa: F401
            assert load_scenario_file(path)[0].name == "y"
        except ImportError:
            with pytest.raises(ScenarioError, match="PyYAML"):
                load_scenario_file(path)


#: any value a JSON document can hold
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
SPEC_FIELDS = ("name", "experiment", "scale", "faults", "fault_seed",
               "guard", "guard_cadence", "guard_inject", "description",
               "tags")


class TestScenarioFieldTypes:
    """A wrong-typed field is a ScenarioError that names it, whatever
    the value; a non-string fault spec used to reach ``.strip()``."""

    @pytest.mark.parametrize("field,value", [
        ("faults", 3), ("faults", ["lossy"]), ("faults", {"a": 1}),
        ("experiment", ["fig2"]), ("scale", ["ci"]),
        ("guard_cadence", True), ("fault_seed", True),
        ("guard", 1), ("guard_inject", ["overflow16"]),
        ("description", 5),
    ])
    def test_wrong_type_names_the_field(self, field, value):
        with pytest.raises(ScenarioError, match=field):
            parse_scenario_doc({"name": "x", field: value})

    def test_campaign_file_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        for field, value in (("faults", 3), ("experiment", ["fig2"]),
                             ("scale", ["ci"]), ("guard_cadence", True)):
            bad.write_text(json.dumps({"name": "x", field: value}))
            assert main(["campaign", "run", str(bad)]) == 2
            err = capsys.readouterr().err
            assert field in err and "Traceback" not in err

    @settings(max_examples=150, deadline=None)
    @given(doc=st.dictionaries(st.sampled_from(SPEC_FIELDS), JSON_VALUES)
           | JSON_VALUES)
    def test_any_json_document_parses_or_is_a_scenario_error(self, doc):
        try:
            specs = parse_scenario_doc(doc)
        except ScenarioError:
            return
        for spec in specs:
            assert ScenarioSpec.from_dict(spec.as_dict()) == spec


class TestPacks:
    def test_all_pack_scenarios_are_valid_and_unique(self):
        seen = set()
        for pack in PACKS.values():
            for s in pack.scenarios:
                assert isinstance(s, ScenarioSpec)
                assert s.name not in seen
                seen.add(s.name)

    def test_expected_packs_exist(self):
        assert set(PACKS) == {
            "baseline", "degraded-tofud", "straggler-storm",
            "partition-rejoin", "overflow-drill", "mixed-chaos",
        }

    def test_unknown_pack_lists_valid_names(self):
        with pytest.raises(ScenarioError, match="valid: .*mixed-chaos"):
            get_pack("nope")

    def test_list_packs_catalogue(self):
        doc = list_packs()
        assert set(doc) == set(PACKS)
        entry = doc["overflow-drill"]["scenarios"][0]
        assert {"name", "hash", "describe"} <= set(entry)


class TestRunAndScore:
    @pytest.fixture(scope="class")
    def baseline_doc(self):
        return run_scenario(scenario("base", experiment="fig2"))

    def test_document_shape_and_digest_stability(self, baseline_doc):
        doc = baseline_doc
        assert doc["passed"] is True
        assert doc["failures"] == []
        assert doc["figures"]["latency"]["series"]
        again = run_scenario(scenario("base2", experiment="fig2"))
        # Same behaviour => same digest, regardless of the spec name.
        assert again["digest"] != doc["digest"]  # spec is in the doc
        assert again["figures"] == doc["figures"]

    def test_faulted_scenario_drifts(self, baseline_doc):
        doc = run_scenario(scenario(
            "hurt", experiment="fig2",
            faults="degraded:0.5,loss_rate=0.05", fault_seed=1,
        ))
        drift = payload_drift(doc, baseline_doc)
        assert drift["points"] > 0
        assert drift["max"] > 0.0
        assert doc["counters"].get("mpi.messages.lost", 0) > 0

    def test_score_orders_by_severity(self, baseline_doc):
        mild = run_scenario(scenario(
            "mild", experiment="fig2", faults="lossy:0.01", fault_seed=1))
        harsh = run_scenario(scenario(
            "harsh", experiment="fig2",
            faults="degraded:0.5,loss_rate=0.1", fault_seed=1))
        s_mild = score_scenario(mild, baseline_doc)
        s_harsh = score_scenario(harsh, baseline_doc)
        assert s_harsh["badness"] > s_mild["badness"] >= 0.0
        base_score = score_scenario(baseline_doc, baseline_doc)
        assert base_score["badness"] == 0.0

    def test_strict_guard_failure_is_an_outcome(self):
        doc = run_scenario(scenario(
            "strict", experiment="fig4", guard="strict",
            guard_inject="overflow16",
        ))
        assert doc["figures"] is None
        assert doc["passed"] is False
        assert any("GuardViolation" in f["error"] for f in doc["failures"])
        score = score_scenario(doc, None)
        assert score["failures"] == 1
        assert score["badness"] > 0

    def test_repair_guard_remediates(self):
        doc = run_scenario(scenario(
            "rescue", experiment="fig4", guard="repair",
            guard_inject="overflow16",
        ))
        assert doc["failures"] == []
        score = score_scenario(doc, None)
        assert score["remediations"] >= 1
        assert score["remediation_rate"] > 0
