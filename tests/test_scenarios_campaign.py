"""Tests for repro.scenarios.campaign and .autopilot — the chaos
campaign runner and the coverage autopilot.

The contracts under test: a campaign plan is deduped, baseline-complete
and budget-capped; the campaign document (scoreboard included) is
identical at any --jobs and restored byte-identically from a journal;
the autopilot is a pure function of (pack, budget, seed); and frozen
regressions replay to the same digest.
"""

import json

import pytest

from repro.cli import main
from repro.core.frozen import FrozenFileError, frozen_paths
from repro.scenarios import scenario
from repro.scenarios.autopilot import run_autopilot
from repro.scenarios.campaign import (
    CampaignError,
    freeze_scenario,
    plan_campaign,
    replay_frozen,
    resolve_selector,
    run_campaign,
)


def _fast_specs():
    """Three cheap fig2 scenarios with distinct behaviour."""
    return [
        scenario("lossy-a", faults="lossy:0.05", fault_seed=1),
        scenario("straggler-b", faults="straggler:1.0,straggler_factor=3",
                 fault_seed=1),
        scenario("partition-c", faults="partition", fault_seed=1),
    ]


def _strip_seconds(doc):
    doc = json.loads(json.dumps(doc))
    for e in doc["scenarios"]:
        e.pop("seconds", None)
    return doc


class TestPlanning:
    def test_baselines_injected_and_ordered_first(self):
        plan = plan_campaign("t", _fast_specs())
        assert plan.ordered[0].name == "baseline-fig2-ci"
        assert [s.name for s in plan.ordered[1:]] == \
            ["lossy-a", "straggler-b", "partition-c"]
        assert plan.baselines[("fig2", "ci")] == "baseline-fig2-ci"

    def test_duplicates_keep_first_name(self):
        dup = scenario("copycat", faults="lossy:0.05", fault_seed=1)
        plan = plan_campaign("t", _fast_specs() + [dup])
        names = [s.name for s in plan.ordered]
        assert "copycat" not in names and "lossy-a" in names

    def test_fault_free_scenario_is_its_own_baseline(self):
        specs = [scenario("clean"), scenario("dirty", faults="lossy")]
        plan = plan_campaign("t", specs)
        assert plan.baselines[("fig2", "ci")] == "clean"
        assert len(plan.ordered) == 2

    def test_budget_truncates_and_records(self):
        plan = plan_campaign("t", _fast_specs(), budget=3)
        # baseline + two scenarios fit; the third is recorded as dropped.
        assert len(plan.ordered) == 3
        assert plan.truncated == ["partition-c"]

    def test_budget_must_be_positive(self):
        with pytest.raises(CampaignError, match="budget"):
            plan_campaign("t", _fast_specs(), budget=0)

    def test_selector_resolves_packs_and_files(self, tmp_path):
        name, specs = resolve_selector("mixed-chaos")
        assert name == "mixed-chaos" and specs
        path = tmp_path / "mine.json"
        path.write_text(json.dumps([{"name": "solo", "faults": "lossy"}]))
        name, specs = resolve_selector(str(path))
        assert name == "mine" and specs[0].name == "solo"


class TestCampaignRun:
    @pytest.fixture(scope="class")
    def plan(self):
        return plan_campaign("fast", _fast_specs())

    def test_scoreboard_identical_across_jobs(self, plan):
        doc1 = run_campaign(plan, jobs=1)
        doc4 = run_campaign(plan, jobs=4)
        assert _strip_seconds(doc1) == _strip_seconds(doc4)
        assert [e["name"] for e in doc1["scoreboard"]]
        assert all(e["badness"] > 0 for e in doc1["scoreboard"])

    def test_journal_resume_restores_byte_identically(self, plan, tmp_path):
        jnl = tmp_path / "camp.jnl"
        doc1 = run_campaign(plan, journal_path=str(jnl))
        doc2 = run_campaign(plan, resume_path=str(jnl))
        assert _strip_seconds(doc1) == _strip_seconds(doc2)
        # Every scenario was restored, none re-executed.
        assert all(e["status"] == "done" for e in doc2["scenarios"])

    def test_resume_rejects_foreign_journal(self, plan, tmp_path):
        jnl = tmp_path / "other.jnl"
        other = plan_campaign("other", [scenario("solo", faults="lossy")])
        run_campaign(other, journal_path=str(jnl))
        with pytest.raises(CampaignError, match="fingerprint"):
            run_campaign(plan, resume_path=str(jnl))

    def test_out_path_written_atomically(self, plan, tmp_path):
        out = tmp_path / "doc.json"
        doc = run_campaign(plan, out_path=str(out))
        assert json.loads(out.read_text()) == json.loads(json.dumps(doc))


class TestFreezeReplay:
    def test_freeze_and_replay_round_trip(self, tmp_path):
        plan = plan_campaign("f", [scenario("pin", faults="lossy:0.05",
                                            fault_seed=1)])
        doc = run_campaign(plan)
        entry = next(e for e in doc["scenarios"] if e["name"] == "pin")
        path = freeze_scenario(entry, tmp_path, provenance={"by": "test"})
        frozen = json.loads(path.read_text())
        assert frozen["expect"]["digest"] == entry["digest"]
        result = replay_frozen(path)
        assert result["ok"] is True
        assert result["actual"] == entry["digest"]

    def test_replay_detects_drift(self, tmp_path):
        plan = plan_campaign("f", [scenario("pin", faults="lossy:0.05",
                                            fault_seed=1)])
        doc = run_campaign(plan)
        entry = dict(next(e for e in doc["scenarios"]
                          if e["name"] == "pin"))
        entry["digest"] = "0" * 16  # sabotage the expectation
        path = freeze_scenario(entry, tmp_path)
        assert replay_frozen(path)["ok"] is False

    def test_frozen_paths_handles_dir_file_missing(self, tmp_path):
        (tmp_path / "a.json").write_text("{}")
        (tmp_path / "b.json").write_text("{}")
        kind = "frozen scenario"
        assert len(frozen_paths([tmp_path], kind)) == 2
        assert frozen_paths([tmp_path / "a.json"], kind) == \
            [tmp_path / "a.json"]
        with pytest.raises(FrozenFileError, match="no frozen scenarios"):
            frozen_paths([tmp_path / "missing"], kind)

    @pytest.mark.parametrize("text, match", [
        ("5", "not a JSON object"),
        ('{"version": 1, "name": "x"}', "missing 'spec'"),
        ('{"version": 1, "name": "x", "spec": [], "expect": {}}',
         "'spec' is list"),
        ("{not json", "cannot load frozen scenario"),
    ])
    def test_malformed_frozen_file_is_a_typed_error(
        self, tmp_path, capsys, text, match
    ):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(FrozenFileError, match=match):
            replay_frozen(path)
        assert main(["campaign", "replay", str(path)]) == 2
        assert match in capsys.readouterr().err


class TestAutopilot:
    def test_deterministic_across_jobs_and_repeats(self, tmp_path):
        def one(jobs, tag):
            d = tmp_path / tag
            doc = run_autopilot(pack="partition-rejoin", budget=6, seed=11,
                                jobs=jobs, freeze=1, freeze_dir=str(d))
            frozen = sorted(p.read_text() for p in d.glob("*.json"))
            doc = json.loads(json.dumps(doc))
            for item in doc["frozen"]:
                item.pop("path", None)
            return doc, frozen

        doc1, fr1 = one(1, "a")
        doc2, fr2 = one(2, "b")
        doc3, fr3 = one(1, "c")
        assert doc1 == doc2 == doc3
        assert fr1 == fr2 == fr3
        assert doc1["spent"] <= 6
        assert doc1["frozen"]

    def test_different_seeds_diverge(self):
        a = run_autopilot(pack="partition-rejoin", budget=5, seed=1)
        b = run_autopilot(pack="partition-rejoin", budget=5, seed=2)
        names_a = [e["name"] for e in a["scoreboard"]]
        names_b = [e["name"] for e in b["scoreboard"]]
        # Seed population is shared; the mutants explored differ.
        assert a != b
        assert set(names_a) & set(names_b)


class TestCampaignCLI:
    def test_list(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "mixed-chaos" in out and "partition-rejoin" in out

    def test_list_json(self, capsys):
        assert main(["campaign", "list", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "overflow-drill" in doc

    def test_unknown_pack_exits_2_with_names(self, capsys):
        assert main(["campaign", "run", "nope"]) == 2
        err = capsys.readouterr().err
        assert "valid:" in err and "mixed-chaos" in err

    def test_unknown_autopilot_pack_exits_2(self, capsys):
        assert main(["campaign", "autopilot", "--pack", "nope",
                     "--budget", "2"]) == 2
        assert "valid:" in capsys.readouterr().err

    def test_run_spec_file(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(
            [{"name": "solo", "faults": "lossy:0.05", "fault_seed": 1}]
        ))
        assert main(["campaign", "run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "solo" in out and "scoreboard" in out

    def test_replay_missing_target_exits_2(self, tmp_path, capsys):
        assert main(["campaign", "replay",
                     str(tmp_path / "nothing")]) == 2

    def test_faults_list_presets(self, capsys):
        assert main(["faults", "--list-presets"]) == 0
        out = capsys.readouterr().out
        assert "partition" in out and "severity knob" in out

    def test_faults_list_presets_json(self, capsys):
        assert main(["faults", "--list-presets", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["lossy"]["severity_knob"] == "loss_rate"

    def test_unknown_preset_exits_2_with_names(self, capsys):
        assert main(["faults", "--severities", "off,wat"]) == 2
        err = capsys.readouterr().err
        assert "valid:" in err and "lossy" in err
