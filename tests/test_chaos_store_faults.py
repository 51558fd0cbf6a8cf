"""Injected store faults outside the sweep: ENOSPC/EIO on the metric
store's sequence assignment, FileLock contention between two real
processes while fsync failures are injected, the serve store's
durability health surface, and the daemon-id lease arbitration field.

These are the direct-injection companions to the crashpoint sweep in
``test_chaos_crashpoints.py``: instead of crashing a whole workload,
each test aims one errno at one syscall of one store and checks the
blast radius — the failed operation must not consume a sequence
number, leave a temp file, hold the lock, or corrupt a neighbour.
"""

import errno
import json
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.faultio import InjectError
from repro.core.atomicio import (
    FileLock,
    FileLockTimeout,
    io_policy,
    orphan_tmp_files,
)
from repro.obs.collector import SCHEMA_VERSION, MetricsStore, metric
from repro.serve.store import JobStore


def _doc(tag: str) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "kind": "run",
        "meta": {"tag": tag, "git_sha": None},
        "metrics": {"points": metric(1, "exact")},
    }


class TestMetricsStoreSequenceFaults:
    def test_enospc_consumes_no_sequence_number(self, tmp_path):
        store = MetricsStore(tmp_path)
        store.write(_doc("first"))
        with pytest.raises(OSError) as err:
            with io_policy(
                InjectError("replace", errno.ENOSPC,
                            path_contains="metrics-")
            ):
                store.write(_doc("lost"))
        assert err.value.errno == errno.ENOSPC
        # The failed write left nothing: no document, no temp file,
        # and the next write takes the seq the failed one would have.
        assert len(store) == 1
        assert orphan_tmp_files(tmp_path, force=True) == []
        path = store.write(_doc("second"))
        assert path.name == "metrics-000002-run.json"
        assert [d["meta"]["tag"] for _, d in store.load_last()] == [
            "first", "second",
        ]

    def test_eio_during_payload_write_is_clean_too(self, tmp_path):
        store = MetricsStore(tmp_path)
        with pytest.raises(OSError) as err:
            with io_policy(
                InjectError("write", errno.EIO, path_contains="metrics-")
            ):
                store.write(_doc("doomed"))
        assert err.value.errno == errno.EIO
        assert len(store) == 0
        assert orphan_tmp_files(tmp_path, force=True) == []
        assert store.write(_doc("ok")).name == "metrics-000001-run.json"

    def test_failed_write_releases_the_store_lock(self, tmp_path):
        store = MetricsStore(tmp_path)
        with pytest.raises(OSError):
            with io_policy(InjectError("replace", errno.ENOSPC)):
                store.write(_doc("x"))
        probe = FileLock(tmp_path / ".lock")
        assert probe.acquire(blocking=False)  # nobody left holding it
        probe.release()

    def test_sequence_skips_quarantined_documents(self, tmp_path):
        store = MetricsStore(tmp_path)
        store.write(_doc("good"))
        (tmp_path / "metrics-000002-run.json").write_text("{not json")
        docs = store.load_last()  # quarantines the corrupt file
        assert [d["meta"]["tag"] for _, d in docs] == ["good"]
        assert len(store.corrupt_documents()) == 1
        # seq 2 is burnt by the quarantined file, never reused
        assert store.write(_doc("next")).name == "metrics-000003-run.json"


_HOLDER = textwrap.dedent("""\
    import sys, time
    from repro.core.atomicio import FileLock

    lock = FileLock(sys.argv[1])
    lock.acquire()
    print("held", flush=True)
    time.sleep(float(sys.argv[2]))
    lock.release()
""")


def _hold_lock(path: Path, seconds: float) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, "-c", _HOLDER, str(path), str(seconds)],
        stdout=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout.readline().strip() == "held"
    return proc


@pytest.mark.slow
class TestTwoProcessLockContention:
    def test_contended_write_fails_clean_after_the_lock_frees(
        self, tmp_path
    ):
        """A second process holds the store lock; our write waits its
        turn, then hits an injected fsync ENOSPC — the failure must
        still release the lock and burn no sequence number."""
        store = MetricsStore(tmp_path)
        proc = _hold_lock(tmp_path / ".lock", 0.5)
        try:
            t0 = time.monotonic()
            with pytest.raises(OSError) as err:
                with io_policy(
                    InjectError("replace", errno.ENOSPC,
                                path_contains="metrics-")
                ):
                    store.write(_doc("contended"))
            assert err.value.errno == errno.ENOSPC
            assert time.monotonic() - t0 >= 0.2  # really waited
        finally:
            proc.wait(timeout=10)
        probe = FileLock(tmp_path / ".lock")
        assert probe.acquire(blocking=False)
        probe.release()
        assert store.write(_doc("after")).name == "metrics-000001-run.json"

    def test_bounded_acquire_names_the_holding_pid(self, tmp_path):
        proc = _hold_lock(tmp_path / ".lock", 1.5)
        try:
            with pytest.raises(FileLockTimeout) as err:
                FileLock(tmp_path / ".lock").acquire(timeout=0.2)
            assert f"held by pid {proc.pid}" in str(err.value)
        finally:
            proc.wait(timeout=10)


class TestJobStoreDurabilityHealth:
    def test_append_repairs_a_torn_tail_before_writing(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.submit("run", {"key": "fig1"})
        with open(store.log_path, "a") as f:
            f.write('{"torn-mid-append')  # crash wreckage, no newline
        # The next append must truncate the torn tail instead of
        # fusing onto it — both records stay intact.
        store.job_leased(job_id, 1, pid=0, timeout=60.0,
                         daemon_id="d-test")
        state = store.load()
        assert state.corrupt_records == 0
        assert not state.torn_tail
        assert state.jobs[job_id].status == "leased"

    def test_health_counts_corruption_and_orphans(self, tmp_path):
        store = JobStore(tmp_path)
        store.submit("run", {"key": "fig1"})
        healthy = store.health()
        assert healthy == {
            "records": 1, "corrupt_records": 0, "torn_tail": False,
            "orphan_tmp": 0,
        }
        with open(store.log_path, "a") as f:
            f.write('{"not-a-record"}\n{"torn')
        (store.results_dir.mkdir(parents=True, exist_ok=True))
        (store.results_dir / ".res.json.999999999.tmp").write_text("x")
        sick = store.health()
        assert sick["corrupt_records"] == 1
        assert sick["torn_tail"] is True
        assert sick["orphan_tmp"] == 1  # pid 999999999 is long dead

    def test_sweep_orphans_reclaims_dead_pid_tmp_files(self, tmp_path):
        store = JobStore(tmp_path)
        store.submit("run", {"key": "fig1"})
        orphan = store.state_dir / ".jobs.log.999999999.tmp"
        orphan.write_text("x")
        removed = store.sweep_orphans()
        assert removed == [orphan]
        assert store.health()["orphan_tmp"] == 0


class TestDaemonIdArbitration:
    def test_lease_records_and_exposes_the_daemon_id(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.submit("run", {"key": "fig1"})
        store.job_leased(job_id, 1, pid=123, timeout=60.0,
                         daemon_id="d-1-abc")
        job = store.load().jobs[job_id]
        assert job.daemon_id == "d-1-abc"
        assert job.as_dict()["daemon_id"] == "d-1-abc"

    def test_daemon_id_is_digest_neutral_scheduling_metadata(
        self, tmp_path
    ):
        store = JobStore(tmp_path)
        job_id = store.submit("run", {"key": "fig1"})
        store.job_leased(job_id, 1, pid=123, timeout=60.0,
                         daemon_id="d-1-abc")
        store.job_done(job_id, {"run": "ff" * 8}, result={"kind": "run"})
        job = store.load().jobs[job_id]
        assert job.daemon_id is None       # cleared off-lease
        assert "daemon_id" not in job.as_dict()
        assert job.digests == {"run": "ff" * 8}

    def test_requeue_clears_the_stale_daemon_id(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.submit("run", {"key": "fig1"})
        store.job_leased(job_id, 1, pid=123, timeout=60.0,
                         daemon_id="d-1-abc")
        store.job_requeued(job_id, 1, reason="daemon-restart", delay=0.0)
        job = store.load().jobs[job_id]
        assert job.status == "queued"
        assert job.daemon_id is None

    def test_old_logs_without_daemon_field_still_load(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.submit("run", {"key": "fig1"})
        store.job_leased(job_id, 1, pid=123, timeout=60.0)  # pre-field
        job = store.load().jobs[job_id]
        assert job.status == "leased"
        assert job.daemon_id is None  # absent, not a crash


#: A store file that decodes to something other than a metric document
#: is damage, quarantined like one that does not decode at all.
MISSHAPEN_DOCUMENTS = {
    "undecodable": b"{rot",
    "not-utf8": b'\xff\xfe{"a":1}',
    "not-an-object": b"[1,2]",
    "metric-not-an-object":
        b'{"schema":%d,"kind":"run","metrics":{"x":5}}' % SCHEMA_VERSION,
    "value-not-a-number": b'{"schema":%d,"kind":"run",'
                          b'"metrics":{"x":{"value":"5"}}}' % SCHEMA_VERSION,
    "unknown-kind":
        b'{"schema":%d,"kind":"nope","metrics":{}}' % SCHEMA_VERSION,
    "meta-not-an-object":
        b'{"schema":%d,"kind":"run","meta":null,"metrics":{}}'
        % SCHEMA_VERSION,
}


class TestVerifySurfaces:
    def test_journal_verify_counts_orphan_tmp_neighbours(self, tmp_path):
        from repro.exec.journal import JournalWriter, verify_journal

        path = tmp_path / "run.jnl"
        with JournalWriter(path) as w:
            w.run_start(keys=["k"], scale="ci", jobs=1, fingerprint="fp")
            w.run_end("complete")
        assert verify_journal(path)["orphan_tmp"] == 0
        (tmp_path / ".run.jnl.999999999.tmp").write_text("x")
        doc = verify_journal(path)
        assert doc["orphan_tmp"] == 1
        assert doc["ok"]  # orphans are reported, not a corruption

    def test_bench_list_reports_quarantined_documents(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        for name, content in MISSHAPEN_DOCUMENTS.items():
            store = MetricsStore(tmp_path / name)
            store.write(_doc("good"))
            (store.directory / "metrics-000002-run.json").write_bytes(content)
            rc = main(["bench", "list", "--store", str(store.directory),
                       "--json"])
            assert rc == 0, name
            listing = json.loads(capsys.readouterr().out)
            assert listing["corrupt_documents"] == 1, name
            assert len(listing["documents"]) == 1, name

    @pytest.mark.parametrize(
        "content", MISSHAPEN_DOCUMENTS.values(), ids=MISSHAPEN_DOCUMENTS
    )
    def test_bench_trend_skips_quarantined_documents(
        self, tmp_path, capsys, content
    ):
        from repro.cli import main

        store = MetricsStore(tmp_path)
        store.write(_doc("good"))
        (tmp_path / "metrics-000002-run.json").write_bytes(content)
        rc = main(["bench", "trend", "--store", str(tmp_path), "--json"])
        assert rc == 0
        verdict = json.loads(capsys.readouterr().out)
        assert [d["file"] for d in verdict["documents"]] == [
            "metrics-000001-run.json"]
        assert len(store.corrupt_documents()) == 1

    def test_unreadable_entry_is_quarantined(self, tmp_path, capsys):
        """An entry whose read fails (here a directory under a document
        name) is damage like undecodable bytes, not a traceback."""
        from repro.cli import main

        store = MetricsStore(tmp_path)
        store.write(_doc("good"))
        (tmp_path / "metrics-000002-run.json").mkdir()
        rc = main(["bench", "list", "--store", str(tmp_path), "--json"])
        assert rc == 0
        listing = json.loads(capsys.readouterr().out)
        assert listing["corrupt_documents"] == 1
        assert len(listing["documents"]) == 1
        assert main(["bench", "trend", "--store", str(tmp_path)]) == 0
        assert [p.name for p in store.corrupt_documents()] == [
            "metrics-000002-run.json.corrupt"]


#: any value a JSON document can hold (``NaN`` and infinities included:
#: Python's json module reads and writes them)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)

#: where a fuzzed value goes in a well-formed document
DOC_PATHS = (
    ("schema",), ("kind",), ("meta",), ("meta", "git_sha"), ("metrics",),
    ("metrics", "points"), ("metrics", "points", "value"),
    ("metrics", "points", "direction"), ("metrics", "points", "tolerance"),
    ("metrics", "new"), ("scenarios",), ("scenarios", 0),
    ("scenarios", 0, "name"), ("scenarios", 0, "badness"),
    ("scenarios", 0, "drift_max"), ("digest",), ("volatile",),
)


class TestMetricStoreFuzz:
    """Whatever bytes a store file holds, ``bench list`` and ``bench
    trend`` quarantine it or fail with a typed error (exit 2), never a
    traceback; a document of another schema version stays a refusal."""

    @staticmethod
    def _commands(content: bytes) -> list:
        """``(argv, exit status, stdout, stderr)`` of each command over
        a store holding one good document and then ``content``."""
        import contextlib
        import io
        import tempfile

        from repro.cli import main

        out = []
        with tempfile.TemporaryDirectory() as tmp:
            store = MetricsStore(tmp)
            good = _doc("good")
            good["meta"]["git_sha"] = "cafe"
            store.write(good)
            (store.directory / "metrics-000002-run.json").write_bytes(content)
            for argv in (["bench", "list", "--json"], ["bench", "list"],
                         ["bench", "trend"], ["bench", "trend", "--json"],
                         ["bench", "trend", "--since", "cafe"]):
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), \
                        contextlib.redirect_stderr(stderr):
                    rc = main(argv + ["--store", tmp])
                out.append((argv, rc, stdout.getvalue(), stderr.getvalue()))
        return out

    def _check(self, content: bytes, refused: bool) -> None:
        for argv, rc, stdout, stderr in self._commands(content):
            if refused:
                assert rc == 2 and "schema" in stderr, (argv, stderr)
                continue
            assert rc in ((0,) if argv[1] == "list" else (0, 1)), (argv, rc)
            if argv == ["bench", "list", "--json"]:
                listing = json.loads(stdout)
                assert listing["documents"][0]["git_sha"] == "cafe"
                assert (len(listing["documents"])
                        + listing["corrupt_documents"]) == 2

    @settings(max_examples=100, deadline=None)
    @given(content=st.binary(max_size=64)
           | JSON_VALUES.map(lambda v: json.dumps(v).encode()))
    def test_arbitrary_bytes(self, content):
        try:
            doc = json.loads(content.decode("utf-8"))
        except ValueError:
            doc = None
        self._check(content, isinstance(doc, dict)
                    and doc.get("schema") != SCHEMA_VERSION)

    @settings(max_examples=150, deadline=None)
    @given(path=st.sampled_from(DOC_PATHS), value=JSON_VALUES)
    def test_any_json_value_in_any_field(self, path, value):
        doc = _doc("fuzzed")
        doc["scenarios"] = [{"name": "s", "badness": 0.5, "drift_max": None}]
        doc["digest"] = "feed"
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        self._check(json.dumps(doc).encode(),
                    doc.get("schema") != SCHEMA_VERSION)

    def test_other_schema_version_is_refused(self):
        doc = dict(_doc("future"), schema=SCHEMA_VERSION + 1)
        self._check(json.dumps(doc).encode(), refused=True)
