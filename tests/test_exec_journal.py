"""Tests for the crash-safe run journal (repro.exec.journal).

The write-ahead-log contract under test: every record is checksummed
and fsync'd; a torn tail (crash mid-append) is dropped silently; a
corrupt interior record is skipped and counted; replay restores every
completed sweep point whose source fingerprint still matches, and a
resumed run's merged figures are byte-identical to an uninterrupted
run.  The hypothesis property pins the recovery semantics for *any*
byte-offset truncation, with or without a garbage tail.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exec import (
    Engine,
    JournalError,
    JournalState,
    JournalWriter,
    Task,
    TaskResult,
    journal_summary,
    load_journal,
    task_key,
    verify_journal,
)
from repro.core.atomicio import RecordError, decode_record, encode_record
from repro.exec.cache import source_fingerprint


def _task(index=0, kind="test_ok", **params):
    return Task("test", "ci", index, kind, params=params)


def _result(task, value, seconds=0.25, worker="inline"):
    return TaskResult(task, value, seconds, worker=worker)


def _write_run(path, n=3, status="complete", fingerprint="fp"):
    """A journal with ``n`` completed tasks; returns the task list."""
    tasks = [_task(i, n=i) for i in range(n)]
    with JournalWriter(path) as w:
        w.run_start(["test"], "ci", 1, fingerprint)
        for t in tasks:
            w.task_dispatch(t)
        for i, t in enumerate(tasks):
            w.task_done(t, _result(t, {"value": i}))
        if status is not None:
            w.run_end(status)
    return tasks


class TestRecordCodec:
    def test_roundtrip(self):
        doc = {"type": "run_start", "keys": ["fig1"], "jobs": 4}
        assert decode_record(encode_record(doc).strip()) == doc

    def test_tampered_record_rejected(self):
        line = encode_record({"type": "task_done", "key": "abc"})
        with pytest.raises(RecordError, match="checksum"):
            decode_record(line.replace("abc", "abd"))

    def test_non_json_rejected(self):
        with pytest.raises(RecordError, match="undecodable"):
            decode_record("not json at all")

    def test_untyped_record_rejected(self):
        with pytest.raises(RecordError, match="typed"):
            decode_record(json.dumps({"key": "x"}))

    def test_task_key_ignores_trace_flag(self):
        a = _task(0, n=1)
        b = _task(0, n=1)
        b.trace = True
        assert task_key(a) == task_key(b)

    def test_task_key_distinguishes_params_and_faults(self):
        base = _task(0, n=1)
        assert task_key(base) != task_key(_task(0, n=2))
        faulted = _task(0, n=1)
        faulted.fault_spec, faulted.fault_seed = "lossy", 7
        assert task_key(base) != task_key(faulted)


class TestWriterAndLoader:
    def test_complete_journal_replays(self, tmp_path):
        path = tmp_path / "run.jnl"
        tasks = _write_run(path, n=3)
        state = load_journal(path)
        assert state.complete
        assert not state.torn_tail
        assert state.corrupt_records == 0
        assert state.runs == 1
        assert set(state.completed) == {task_key(t) for t in tasks}
        for i, t in enumerate(tasks):
            assert state.restore_payload(task_key(t)) == {"value": i}

    def test_torn_tail_dropped_silently(self, tmp_path):
        path = tmp_path / "run.jnl"
        _write_run(path, n=3)
        text = path.read_text()
        path.write_text(text + '{"type": "task_done", "key": "half')
        state = load_journal(path)
        assert state.torn_tail
        assert state.corrupt_records == 0
        assert len(state.completed) == 3

    def test_corrupt_interior_record_skipped_and_counted(self, tmp_path):
        path = tmp_path / "run.jnl"
        tasks = _write_run(path, n=3)
        lines = path.read_text().splitlines()
        # Flip a byte inside the *second* task_done; later records must
        # still replay.
        idx = next(i for i, l in enumerate(lines) if '"task_done"' in l) + 1
        lines[idx] = lines[idx][:-5] + "XXXX" + lines[idx][-1]
        path.write_text("\n".join(lines) + "\n")
        state = load_journal(path)
        assert state.corrupt_records == 1
        assert not state.torn_tail
        assert len(state.completed) == 2
        assert task_key(tasks[-1]) in state.completed

    def test_payload_digest_mismatch_rejected(self, tmp_path):
        path = tmp_path / "run.jnl"
        (t,) = _write_run(path, n=1)
        state = load_journal(path)
        rec = state.completed[task_key(t)]
        rec["digest"] = "0" * 64
        with pytest.raises(JournalError, match="digest"):
            state.restore_payload(task_key(t))

    def test_last_record_wins(self, tmp_path):
        path = tmp_path / "run.jnl"
        t = _task(0)
        with JournalWriter(path) as w:
            w.run_start(["test"], "ci", 1, "fp")
            w.task_done(t, _result(t, "first"))
            w.task_failed(t, TaskResult(t, None, 0.1, "pool", error="boom"))
        state = load_journal(path)
        assert task_key(t) in state.failed
        assert task_key(t) not in state.completed

    def test_done_supersedes_interrupted(self, tmp_path):
        path = tmp_path / "run.jnl"
        t = _task(0)
        with JournalWriter(path) as w:
            w.run_start(["test"], "ci", 1, "fp")
            w.task_interrupted(t, "graceful shutdown")
            w.task_done(t, _result(t, "late"))
        state = load_journal(path)
        assert task_key(t) in state.completed
        assert task_key(t) not in state.interrupted

    def test_not_a_journal_raises(self, tmp_path):
        path = tmp_path / "noise.jnl"
        path.write_text("hello\nworld\n")
        with pytest.raises(JournalError, match="run_start"):
            load_journal(path)

    def test_resumed_segment_unions_with_first(self, tmp_path):
        path = tmp_path / "run.jnl"
        tasks = [_task(i) for i in range(2)]
        with JournalWriter(path) as w:
            w.run_start(["test"], "ci", 1, "fp")
            w.task_done(tasks[0], _result(tasks[0], "a"))
        with JournalWriter(path) as w:  # second process appends
            w.run_start(["test"], "ci", 1, "fp", resumed=True)
            w.task_done(tasks[1], _result(tasks[1], "b"))
            w.run_end("complete")
        state = load_journal(path)
        assert state.runs == 2
        assert state.complete
        assert len(state.completed) == 2


class TestVerifyAndSummary:
    def test_verify_clean(self, tmp_path):
        path = tmp_path / "run.jnl"
        _write_run(path, n=2)
        doc = verify_journal(path)
        assert doc["ok"]
        assert doc["complete"]
        assert doc["tasks"] == {
            "completed": 2, "failed": 0, "interrupted": 0, "pending": 0,
        }

    def test_verify_flags_corruption(self, tmp_path):
        path = tmp_path / "run.jnl"
        _write_run(path, n=2)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-5] + "XXXX" + lines[1][-1]
        path.write_text("\n".join(lines) + "\n")
        doc = verify_journal(path)
        assert not doc["ok"]
        assert doc["corrupt_records"] == 1

    def test_interrupted_run_has_pending(self, tmp_path):
        path = tmp_path / "run.jnl"
        tasks = [_task(i) for i in range(3)]
        with JournalWriter(path) as w:
            w.run_start(["test"], "ci", 1, "fp")
            for t in tasks:
                w.task_dispatch(t)
            w.task_done(tasks[0], _result(tasks[0], "a"))
        doc = verify_journal(path)
        assert not doc["complete"]
        assert doc["tasks"]["completed"] == 1
        assert doc["tasks"]["pending"] == 2

    def test_summary_carries_meta_and_entries(self, tmp_path):
        path = tmp_path / "run.jnl"
        _write_run(path, n=2)
        doc = journal_summary(path)
        assert doc["keys"] == ["test"]
        assert doc["scale"] == "ci"
        assert doc["jobs"] == 1
        labels = {e["label"] for e in doc["entries"]}
        assert labels == {"test[n=0]", "test[n=1]"}
        assert all(e["status"] == "done" for e in doc["entries"])


class TestRecordShape:
    """A record that decodes but has the wrong shape is one corrupt
    record, never a crash in a reader."""

    @pytest.mark.parametrize("bad", [
        {"type": "task_done", "label": "x", "payload": "", "seconds": 0.1},
        {"type": "task_done", "key": "k", "seconds": 0.1},
        {"type": "task_failed", "key": ["k"], "label": "x"},
        {"type": "task_interrupted", "label": "x"},
        {"type": "task_dispatch", "label": "x"},
        {"type": "task_done", "key": "k", "label": "x", "seconds": "1"},
        {"type": "task_done", "key": "k", "label": "x", "index": "0"},
        {"type": "task_done", "key": "k", "label": "x", "guard": [1]},
    ], ids=["no-key", "no-label", "list-key", "interrupted-no-key",
            "dispatch-no-key", "str-seconds", "str-index", "list-guard"])
    def test_wrong_shape_counts_as_corrupt(self, tmp_path, capsys, bad):
        from repro.cli import main
        from repro.exec import guard_summary

        path = tmp_path / "run.jnl"
        tasks = _write_run(path, n=2, status=None)
        with open(path, "a") as f:
            f.write(encode_record(bad))
        with JournalWriter(path) as w:
            w.run_end("complete")
        state = load_journal(path)
        assert state.corrupt_records == 1
        assert state.records == 1 + 2 * 2 + 1
        assert set(state.completed) == {task_key(t) for t in tasks}
        assert not verify_journal(path)["ok"]
        assert len(journal_summary(path)["entries"]) == 2
        assert guard_summary(path)["mode"] == "off"
        assert main(["journal", "verify", str(path), "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["corrupt_records"] == 1
        assert main(["journal", "show", str(path)]) == 0
        assert main(["guard", "report", str(path)]) == 0


class TestEngineResume:
    def test_resume_restores_all_and_reports_identical(self, tmp_path):
        jnl = tmp_path / "run.jnl"
        with JournalWriter(jnl) as w:
            e1 = Engine(jobs=1, journal=w)
            first = e1.run_many(["fig5"])
        e2 = Engine(jobs=1, resume_state=load_journal(jnl))
        second = e2.run_many(["fig5"])
        assert second["fig5"].report == first["fig5"].report
        assert e2.stats.resume == {"restored": 4, "executed": 0, "stale": 0}

    def test_stale_fingerprint_forces_reexecution(self, tmp_path):
        jnl = tmp_path / "run.jnl"
        with JournalWriter(jnl) as w:
            first = Engine(jobs=1, journal=w).run_many(["fig5"])
        # Rewrite the run_start with a bogus fingerprint: every restored
        # record inherits it and must be treated as stale.
        records = [decode_record(l) for l in jnl.read_text().splitlines()]
        for rec in records:
            if rec["type"] == "run_start":
                rec["fingerprint"] = "stale" * 12
        jnl.write_text("".join(encode_record(r) for r in records))
        e2 = Engine(jobs=1, resume_state=load_journal(jnl))
        second = e2.run_many(["fig5"])
        assert second["fig5"].report == first["fig5"].report
        assert e2.stats.resume["restored"] == 0
        assert e2.stats.resume["stale"] == 4
        assert e2.stats.resume["executed"] == 4

    def test_partial_journal_executes_only_remainder(self, tmp_path):
        jnl = tmp_path / "run.jnl"
        with JournalWriter(jnl) as w:
            first = Engine(jobs=1, journal=w).run_many(["fig5"])
        # Keep run_start + the first two task_done records: a crash
        # after two completions.
        lines = jnl.read_text().splitlines()
        kept, done = [], 0
        for line in lines:
            if '"task_done"' in line:
                done += 1
                if done > 2:
                    continue
            kept.append(line)
        jnl.write_text("\n".join(kept) + "\n")
        e2 = Engine(jobs=1, resume_state=load_journal(jnl))
        second = e2.run_many(["fig5"])
        assert second["fig5"].report == first["fig5"].report
        assert e2.stats.resume["restored"] == 2
        assert e2.stats.resume["executed"] == 2

    def test_restored_results_never_rewritten_to_journal(self, tmp_path):
        jnl = tmp_path / "run.jnl"
        with JournalWriter(jnl) as w:
            Engine(jobs=1, journal=w).run_many(["lst1"])
        before = sum(
            1 for l in jnl.read_text().splitlines() if '"task_done"' in l
        )
        with JournalWriter(jnl) as w:
            Engine(
                jobs=1, journal=w, resume_state=load_journal(jnl)
            ).run_many(["lst1"])
        after = sum(
            1 for l in jnl.read_text().splitlines() if '"task_done"' in l
        )
        assert after == before  # restored points are not re-journalled

    def test_journal_records_fingerprint(self, tmp_path):
        jnl = tmp_path / "run.jnl"
        with JournalWriter(jnl) as w:
            Engine(jobs=1, journal=w).run_many(["lst1"])
        state = load_journal(jnl)
        assert state.meta["fingerprint"] == source_fingerprint()


class TestTruncationProperty:
    """Any prefix of a valid journal — optionally with a garbage tail —
    loads cleanly, and never invents completions."""

    @staticmethod
    def _full_journal(tmp_path):
        path = tmp_path / "prop.jnl"
        if path.exists():
            path.unlink()  # JournalWriter appends: start fresh
        _write_run(path, n=4)
        return path

    # tmp_path is shared across examples, but _full_journal rewrites
    # the file from scratch every time, so reuse is safe.
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cut=st.integers(min_value=0, max_value=10_000),
           tail=st.sampled_from(["", "garbage", '{"type": "task_done"',
                                 "\x00\x01\x02"]))
    def test_any_prefix_loads(self, tmp_path, cut, tail):
        path = self._full_journal(tmp_path)
        full = path.read_text()
        full_state = load_journal(path)
        cut = min(cut, len(full))
        path.write_text(full[:cut] + tail)
        first_line_end = full.index("\n") + 1
        if cut < first_line_end:
            # The run_start record itself may be destroyed; a clean
            # JournalError ("not a journal") is then the contract.
            try:
                state = load_journal(path)
            except JournalError:
                return
        else:
            state = load_journal(path)  # must load: run_start is intact
        assert isinstance(state, JournalState)
        # Recovery can only lose work, never invent it.
        assert set(state.completed) <= set(full_state.completed)
        for key in state.completed:
            assert state.restore_payload(key) == \
                full_state.restore_payload(key)
