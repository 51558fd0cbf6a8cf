"""The crashpoint campaign runner: determinism, coverage, recovery.

The acceptance criteria under test:

* a sweep is a pure function of ``(workloads, seed, budget)`` — the
  verdict document is byte-identical across reruns and across
  ``--jobs`` values;
* the ``stores`` workload covers every durable store (run journal,
  serve job log, metric store, atomic snapshot) and a full sweep over
  all of its durability points recovers cleanly at every one;
* the frozen golden crashpoints replay green — and stop being green
  when the torn-tail repair they were frozen against is disabled,
  which is exactly the previously-unhandled fault path this harness
  first found;
* the budget selector samples deterministically and in execution
  order.
"""

from pathlib import Path

import pytest

from repro.chaos import (
    enumerate_points,
    freeze_crashpoint,
    replay_crashpoint,
    run_crashpoint,
    run_crashpoints,
    select_points,
)
from repro.core.atomicio import canonical_json

GOLDEN_DIR = Path(__file__).parent / "golden" / "chaos"


class TestEnumeration:
    def test_stores_catalogue_covers_every_store(self):
        baseline, points = enumerate_points("stores")
        assert baseline["digests"]  # the convergence target
        labels = {p["label"] for p in points}
        assert any(la.startswith("journal/") for la in labels)
        assert "serve/jobs.log" in labels
        assert any(la.startswith("metrics/") for la in labels)
        assert "snap/state.json" in labels
        ops = {p["op"] for p in points}
        assert ops == {"append", "write"}
        assert [p["k"] for p in points] == list(range(1, len(points) + 1))

    def test_enumeration_is_deterministic(self):
        a = enumerate_points("stores")
        b = enumerate_points("stores")
        assert canonical_json(a) == canonical_json(b)


class TestSelection:
    def test_budget_covers_all(self):
        assert select_points(5, None, 0, "w") == [1, 2, 3, 4, 5]
        assert select_points(5, 9, 0, "w") == [1, 2, 3, 4, 5]

    def test_zero_budget_selects_nothing(self):
        assert select_points(5, 0, 0, "w") == []

    def test_subset_is_seeded_sorted_and_sized(self):
        picked = select_points(40, 7, 3, "w")
        assert picked == select_points(40, 7, 3, "w")
        assert len(picked) == 7
        assert picked == sorted(picked)
        assert all(1 <= k <= 40 for k in picked)
        assert picked != select_points(40, 7, 4, "w")  # seed matters


class TestStoresSweep:
    def test_full_sweep_recovers_at_every_point(self):
        doc = run_crashpoints(["stores"], seed=7, budget=None)
        wl = doc["workloads"]["stores"]
        assert wl["points_run"] == wl["points_total"]
        assert doc["violations"] == []
        assert doc["ok"]
        # Every injected fault actually fired: no point "completed".
        assert all(p["outcome"] != "completed" for p in doc["points"])

    def test_sweep_is_byte_deterministic_across_jobs(self):
        a = run_crashpoints(["stores"], seed=3, budget=4, jobs=1)
        b = run_crashpoints(["stores"], seed=3, budget=4, jobs=3)
        assert canonical_json(a) == canonical_json(b)

    def test_different_seeds_change_the_fault_plan(self):
        a = run_crashpoints(["stores"], seed=0, budget=6)
        b = run_crashpoints(["stores"], seed=1, budget=6)
        modes_a = [(p["k"], p["mode"]) for p in a["points"]]
        modes_b = [(p["k"], p["mode"]) for p in b["points"]]
        assert modes_a != modes_b

    def test_verdict_has_no_absolute_paths(self):
        doc = run_crashpoints(["stores"], seed=7, budget=3)
        text = canonical_json(doc)
        assert "/tmp/" not in text
        assert "repro-chaos-" not in text


@pytest.mark.slow
class TestFourStoreCoverage:
    def test_budgeted_sweep_over_every_workload(self):
        doc = run_crashpoints(seed=7, budget=1)
        assert sorted(doc["workloads"]) == [
            "campaign", "run", "serve", "stores",
        ]
        for wl in doc["workloads"].values():
            assert wl["points_run"] == 1
            assert wl["points_total"] >= 1
        assert doc["ok"], doc["violations"]


class TestFrozenRegressions:
    def test_goldens_replay_green(self):
        frozen = sorted(GOLDEN_DIR.glob("*.json"))
        assert len(frozen) >= 2  # the torn-append worst offenders
        for path in frozen:
            verdict = replay_crashpoint(path)
            assert verdict["ok"], (path.name, verdict)
            assert verdict["frozen"]["mode"] == verdict["mode"]

    def test_freeze_round_trips(self, tmp_path):
        path = tmp_path / "frozen.json"
        doc = freeze_crashpoint(path, "stores", 7, 2)
        assert doc["workload"] == "stores"
        assert doc["mode"] == "torn"
        verdict = replay_crashpoint(path)
        assert verdict["k"] == 2
        assert verdict["ok"]

    def test_freeze_rejects_out_of_range_point(self, tmp_path):
        with pytest.raises(ValueError):
            freeze_crashpoint(tmp_path / "f.json", "stores", 7, 10_000)

    def test_replay_rejects_non_crashpoint_file(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"kind": "something-else"}\n')
        with pytest.raises(ValueError):
            replay_crashpoint(bogus)

    @pytest.mark.parametrize("text, match", [
        ("5", "not a JSON object"),
        ('{"workload": "stores", "seed": null, "k": 2}', "'seed' is"),
        ('{"workload": "stores", "seed": 7}', "missing 'k'"),
    ])
    def test_malformed_frozen_file_exits_2(
        self, tmp_path, capsys, text, match
    ):
        from repro.cli import main
        from repro.core.frozen import FrozenFileError

        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(FrozenFileError, match=match):
            replay_crashpoint(path)
        assert main(["chaos", "replay", str(path)]) == 2
        assert match in capsys.readouterr().err

    def test_sweep_catches_the_torn_append_bug_again(self, monkeypatch):
        """The regression the goldens freeze: without the torn-tail
        repair before appends, a partial record fuses with the next
        append and both are lost.  Disabling the repair must make the
        frozen crashpoints bite again — proof the sweep detects this
        fault path and the fix is what handles it."""
        import repro.core.atomicio as atomicio

        monkeypatch.setattr(atomicio, "repair_torn_tail", lambda p: 0)
        baseline, _ = enumerate_points("stores")
        bitten = [
            k for k in (2, 6)  # the frozen journal/job-log torn appends
            if not run_crashpoint("stores", 7, k, baseline)["ok"]
        ]
        assert bitten == [2, 6], \
            "disabled repair should re-expose the torn bug"


class TestChaosCLI:
    def test_crashpoints_json_and_out(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "verdict.json"
        rc = main([
            "chaos", "crashpoints", "--seed", "7", "--budget", "2",
            "--workloads", "stores", "--out", str(out), "--json",
        ])
        captured = capsys.readouterr().out
        assert rc == 0
        assert out.read_text().strip() == captured.strip()
        assert '"kind": "chaos-crashpoints"' in captured

    def test_crashpoints_rejects_unknown_workload(self, capsys):
        from repro.cli import main

        rc = main(["chaos", "crashpoints", "--workloads", "nope"])
        assert rc == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_replay_cli_runs_the_goldens(self, capsys):
        from repro.cli import main

        rc = main(["chaos", "replay", str(GOLDEN_DIR)])
        assert rc == 0
        assert "still recover" in capsys.readouterr().out
