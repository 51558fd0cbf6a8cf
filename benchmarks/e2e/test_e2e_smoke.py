"""Smoke checks of the end-to-end benchmark.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py

One short ``ci-sweep`` run feeds all three checks.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


@pytest.fixture(scope="module")
def ci_sweep(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    store, out = tmp / "metrics", tmp / "ci-sweep.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "ci-sweep",
         "--seed", "0", "--seconds", "2", "--trace", "0", "--out", str(out)],
        cwd=ROOT, env=dict(ENV, REPRO_METRICS_DIR=str(store)),
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines(), json.loads(out.read_text()), store


def test_ci_sweep_prints_every_metric_with_its_unit(ci_sweep):
    lines, doc, _ = ci_sweep
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    rows = {line.split()[0]: line.split() for line in lines[:-1]
            if line.startswith("   ")}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert rows[m["name"]][2] == m["unit"]
    assert rows["fail_ratio"][1:3] == ["0", "ratio"]
    (run,) = doc["runs"]
    assert run["e2e"]["fail_ratio"]["value"] == 0


def _compare(tmp_path, a_runs, b_runs):
    paths = []
    for name, runs in (("a", a_runs), ("b", b_runs)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"runs": runs}))
        paths.append(str(path))
    return subprocess.run(
        [sys.executable, str(HERE / "compare.py"), *paths],
        capture_output=True, text=True, timeout=60,
    )


def test_compare_flags_a_30_percent_slowdown(ci_sweep, tmp_path):
    _, doc, _ = ci_sweep
    parent = [copy.deepcopy(doc["runs"][0]) for _ in range(5)]
    change = copy.deepcopy(parent)
    for run in change:
        for m in run["e2e"].values():
            if m["unit"] == "s":
                m["value"] *= 1.3
                m["samples"] = [v * 1.3 for v in m["samples"]]

    same = _compare(tmp_path, parent, parent)
    assert same.returncode == 0, same.stdout
    assert "REGRESSION" not in same.stdout

    slow = _compare(tmp_path, parent, change)
    assert slow.returncode == 1, slow.stdout
    flagged = {line.split()[1] for line in slow.stdout.splitlines()
               if line.startswith("ci-sweep") and "REGRESSION" in line}
    assert flagged == {m["name"] for m in SPEC["end_to_end"]
                       if m["unit"] == "s"}


def test_two_documents_pass_the_trend_gate(ci_sweep):
    _, doc, store = ci_sweep
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import run as e2e_run
    from repro.obs.collector import MetricsStore

    (written,) = MetricsStore(store).load_last()
    assert written[1]["meta"]["suite"] == "e2e"
    MetricsStore(store).write(e2e_run.metric_document(doc["runs"], SPEC, 0))

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "bench", "trend", "--store",
         str(store), "--json"],
        env=ENV, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    verdict = json.loads(proc.stdout)
    assert verdict["ok"]
    for m in SPEC["end_to_end"]:
        entry = verdict["metrics"][f"e2e.ci-sweep.{m['name']}"]
        assert entry["status"] == "ok"
        assert entry["tolerance"] == m["bound"]
    assert verdict["metrics"]["e2e.ci-sweep.fail_ratio"]["status"] == "ok"
