"""Safety net for the journalled runner: the record sequence of every
journal ``repro run`` and ``repro campaign run`` write.

A journal's sequence is pinned for a fresh run, a resume from a copy
truncated after its 2nd ``task_done``, and a resume from a complete
journal.  Each record is reduced to ``type``, task key (first 16 hex
digits), ``experiment``, ``index``, ``label``, the ``run_start``
``resumed`` flag and the ``run_end`` status; seconds, worker and
payload bytes vary run to run and are left out.  Regenerate with
``pytest tests/test_journal_sequences.py --update-golden``.
"""

import json
import shutil
from pathlib import Path

from repro.cli import main
from repro.core.atomicio import decode_record

FIELDS = ("type", "key", "experiment", "index", "label", "resumed",
          "status")

COMMANDS = {
    "run": ["run", "fig1"],
    "campaign": ["campaign", "run", "mixed-chaos", "--budget", "3",
                 "--json"],
}


def _records(path):
    lines = Path(path).read_text().splitlines()
    return [decode_record(line) for line in lines]


def _sequence(path):
    out = []
    for rec in _records(path):
        if "key" in rec:
            rec["key"] = rec["key"][:16]
        out.append(" ".join(
            f"{name}={rec[name]}" if name in ("resumed", "status")
            else str(rec[name])
            for name in FIELDS if name in rec
        ))
    return out


def _truncate_after_done(src, dst, n):
    """Copy ``src`` up to and including its ``n``-th ``task_done``: the
    journal a crash right after that completion leaves behind."""
    kept, done = [], 0
    for line in Path(src).read_text().splitlines(keepends=True):
        kept.append(line)
        if decode_record(line)["type"] == "task_done":
            done += 1
            if done == n:
                break
    Path(dst).write_text("".join(kept))


def _journal_states(tmp_path, argv):
    fresh = tmp_path / "fresh.jnl"
    assert main(argv + ["--journal", str(fresh)]) == 0
    partial = tmp_path / "partial.jnl"
    _truncate_after_done(fresh, partial, 2)
    complete = tmp_path / "complete.jnl"
    shutil.copy(fresh, complete)
    assert main(argv + ["--resume", str(partial)]) == 0
    assert main(argv + ["--resume", str(complete)]) == 0
    return {"fresh": fresh, "resumed-partial": partial,
            "resumed-complete": complete}


def test_journal_record_sequences(tmp_path, capsys, golden):
    doc = {}
    for name, argv in COMMANDS.items():
        root = tmp_path / name
        root.mkdir()
        states = _journal_states(root, argv)
        doc[name] = {state: _sequence(p) for state, p in states.items()}
    capsys.readouterr()
    golden("journal_sequences.json", doc)


def _strip_seconds(doc):
    for entry in doc["scenarios"]:
        entry.pop("seconds", None)
    return doc


def test_campaign_partial_resume_runs_only_unfinished(tmp_path, capsys):
    argv = ["campaign", "run", "mixed-chaos", "--budget", "5", "--json"]
    assert main(argv) == 0
    uninterrupted = json.loads(capsys.readouterr().out)
    fresh = tmp_path / "fresh.jnl"
    assert main(argv + ["--journal", str(fresh)]) == 0
    capsys.readouterr()
    partial = tmp_path / "partial.jnl"
    _truncate_after_done(fresh, partial, 2)
    first = _records(partial)
    finished = {r["key"] for r in first if r["type"] == "task_done"}
    planned = [r["key"] for r in first if r["type"] == "task_dispatch"]
    assert len(finished) == 2 and len(planned) > 2

    assert main(argv + ["--resume", str(partial)]) == 0
    resumed = json.loads(capsys.readouterr().out)
    second = _records(partial)[len(first):]
    assert [r["type"] for r in second[:1]] == ["run_start"]
    assert second[0]["resumed"] is True
    dispatched = [r["key"] for r in second if r["type"] == "task_dispatch"]
    assert dispatched == [k for k in planned if k not in finished]
    done = [r["key"] for r in second if r["type"] == "task_done"]
    assert sorted(done) == sorted(dispatched)
    assert second[-1] == {"type": "run_end", "status": "complete"}
    assert _strip_seconds(resumed) == _strip_seconds(uninterrupted)
