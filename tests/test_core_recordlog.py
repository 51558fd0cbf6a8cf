"""Tests for the one durable record log (repro.core.atomicio.RecordLog).

The contracts under test:

* an incremental :meth:`RecordLog.read` always adds up to a fresh
  reader's full read of the same file, whatever mix of appends, second
  writers, garbage, stray ``\\r``, bad UTF-8, torn fragments, repairs,
  replacement and truncation produced it;
* the run journal and the serve job log are schemas over that one
  reader, so the same damaged bytes give both the same record, corrupt
  and torn-tail counts.
"""

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atomicio import (
    RecordLog,
    encode_record,
    repair_torn_tail,
)
from repro.exec.journal import load_journal
from repro.serve.store import JobStore


class _Reader:
    """One long-lived reader accumulating what its reads return."""

    def __init__(self, path):
        self.log = RecordLog(path)
        self.records, self.corrupt = [], 0

    def view(self):
        """Every record, the corrupt line count, and the torn flag."""
        try:
            reset, (records, corrupt), (tail, tail_corrupt, torn) = \
                self.log.read()
        except FileNotFoundError:
            self.records, self.corrupt = [], 0
            return None
        if reset:
            self.records, self.corrupt = [], 0
        self.records += records
        self.corrupt += corrupt
        return self.records + tail, self.corrupt + tail_corrupt, torn


def _fresh(path):
    """A new reader's full read, in :meth:`_Reader.view`'s form."""
    try:
        reset, (records, corrupt), (tail, tail_corrupt, torn) = \
            RecordLog(path).read()
    except FileNotFoundError:
        return None
    assert reset
    return records + tail, corrupt + tail_corrupt, torn


#: One step against a shared log: (operation, writer, text).  Writer 1
#: is a second RecordLog standing in for another process.
_STEPS = st.tuples(
    st.sampled_from([
        "append", "garbage", "cr", "utf8", "torn", "unterminated",
        "repair", "replace", "shrink",
    ]),
    st.integers(0, 1),
    st.text(alphabet='ab{}":\r', max_size=8),
)


def _step(path, writers, op, writer, text):
    if op == "append":
        writers[writer].append({"type": "note", "n": writer, "text": text})
    elif op == "repair":
        repair_torn_tail(path)
    elif op == "replace":
        other = path.with_name("other.log")
        RecordLog(other).append({"type": "note", "pad": "x" * 300})
        os.replace(other, path)
    elif op == "shrink":
        if path.exists():
            with open(path, "r+b") as f:
                f.truncate(path.stat().st_size // 2)
    else:
        with open(path, "ab") as f:
            if op == "garbage":
                f.write(f"not json {text}\n".encode())
            elif op == "cr":
                f.write(encode_record({"type": "note", "cr": text})
                        .rstrip("\n").encode() + b"\r")
            elif op == "utf8":
                f.write(b'{"type": "note", "bad": "\xff\xfe"}\n')
            elif op == "torn":
                f.write(('{"type": "note", "n' + text).encode())
            else:  # a record that decodes, its newline not yet written
                f.write(encode_record({"type": "note", "late": text})
                        .rstrip("\n").encode())


def _types(read):
    """``(reset, complete-line types, tail types)`` of one read."""
    reset, (records, _), (tail, _, _) = read
    return reset, [r["type"] for r in records], [r["type"] for r in tail]


class TestIncrementalRead:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_STEPS, min_size=1, max_size=14))
    def test_incremental_read_equals_a_fresh_read(self, steps):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "records.log"
            writers = [RecordLog(path), RecordLog(path)]
            reader = _Reader(path)
            for op, writer, text in steps:
                _step(path, writers, op, writer, text)
                assert reader.view() == _fresh(path), op

    def test_missing_log_raises_and_forgets_the_offset(self, tmp_path):
        log = RecordLog(tmp_path / "r.log")
        with pytest.raises(FileNotFoundError):
            log.read()
        log.append({"type": "a"})
        log.append({"type": "b"})
        assert _types(log.read()) == (True, ["a", "b"], [])
        assert _types(log.read()) == (False, [], [])  # nothing new
        (tmp_path / "r.log").unlink()
        with pytest.raises(FileNotFoundError):
            log.read()
        log.append({"type": "c"})
        assert _types(log.read()) == (True, ["c"], [])

    def test_unterminated_tail_is_never_cached(self, tmp_path):
        path = tmp_path / "r.log"
        log = RecordLog(path)
        log.append({"type": "a"})
        with open(path, "a", newline="") as f:
            f.write(encode_record({"type": "x"}).rstrip("\n") + "\rgarb")
        # The \r split a decodable line off the unterminated end: it
        # belongs to each read's tail only, and "garb" is torn.
        first = log.read()
        assert _types(first) == (True, ["a"], ["x"]) and first[2][2]
        second = log.read()
        assert _types(second) == (False, [], ["x"]) and second[2][2]
        log.append({"type": "b"})  # repairs the unterminated end away
        third = log.read()
        assert _types(third) == (False, ["b"], []) and not third[2][2]


_NOTES = [
    {"type": "run_start", "version": 1, "keys": ["fig1"], "scale": "ci",
     "jobs": 1, "fingerprint": "fp"},
    {"type": "job_submitted", "job": "job-000001", "kind": "run",
     "spec": {}, "t": 1.0},
    {"type": "task_done", "key": "k1", "label": "fig1[0]", "seconds": 0.5},
    {"type": "job_leased", "job": "job-000001", "attempt": 1, "pid": 7,
     "timeout": 30.0, "t": 2.0},
]


class TestOneReaderForBothLogs:
    @pytest.mark.parametrize("tail", [
        b"",
        b'{"type": "task_done", "key',
        encode_record({"type": "run_end", "status": "complete"})
        .rstrip("\n").encode(),
        b"garbage\r",
    ])
    def test_same_bytes_same_counts(self, tmp_path, tail):
        path = tmp_path / "jobs.log"
        log = RecordLog(path)
        for rec in _NOTES[:2]:
            log.append(rec)
        flipped = encode_record(_NOTES[2]).replace("fig1", "fig2")
        with open(path, "ab") as f:
            f.write(b"not json\n" + b'{"type": "\xff"}\n')
            f.write(flipped.encode())
            f.write(encode_record(_NOTES[2]).rstrip("\n").encode()
                    + b"\rgarbage\n")
        for rec in _NOTES[3:]:
            log.append(rec)
        with open(path, "ab") as f:
            f.write(tail)
        journal = load_journal(path)
        jobs = JobStore(tmp_path).load()
        assert (journal.records, journal.corrupt_records,
                journal.torn_tail) == \
            (jobs.records, jobs.corrupt_records, jobs.torn_tail)
        assert journal.records == 4 + tail.startswith(b"{\"check")
        assert journal.corrupt_records == 4 + (tail == b"garbage\r")
