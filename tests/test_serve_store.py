"""Unit tests for the serve job store, the shared deterministic
backoff helper, and the FileLock timeout diagnostic.

The durability claims under test:

* the job log replays with the WAL recovery rules — last record wins,
  a torn tail is dropped silently, a corrupt interior record is
  skipped and counted, a cancel is sticky-terminal;
* re-dispatch backoff is a pure function of ``(job_id, attempt)`` —
  the acceptance criterion — bounded by the cap and decorrelated
  across jobs;
* an incremental load equals a full replay of the same log, whatever
  mix of writers, corruption, tears and repairs produced it, and a
  returned state is a snapshot later loads never change;
* ``FileLock.acquire(timeout=...)`` raises a :class:`FileLockTimeout`
  naming the holding pid instead of blocking forever, proven against
  a real second process.
"""

import dataclasses
import os
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atomicio import (
    FileLock,
    FileLockTimeout,
    encode_record,
    repair_torn_tail,
)
from repro.exec.backoff import backoff_delay, backoff_schedule
from repro.serve.store import (
    JobStore,
    ServeStoreError,
    job_backoff,
)


class TestBackoffDeterminism:
    def test_pure_function_of_key_and_attempt(self):
        for attempt in range(8):
            assert backoff_delay("job-000001", attempt) == \
                backoff_delay("job-000001", attempt)
        assert job_backoff("job-000042", 3) == job_backoff("job-000042", 3)

    def test_distinct_keys_decorrelate(self):
        delays = {backoff_delay(f"job-{i:06d}", 2) for i in range(20)}
        assert len(delays) == 20  # no two jobs share a retry instant

    def test_exponential_window_with_jitter_bounds(self):
        base, cap = 0.25, 30.0
        for attempt in range(12):
            window = min(cap, base * 2 ** attempt)
            d = backoff_delay("k", attempt, base=base, cap=cap)
            assert window / 2 <= d < window

    def test_cap_bounds_the_worst_case(self):
        assert backoff_delay("k", 1000, cap=5.0) < 5.0

    def test_schedule_matches_pointwise(self):
        sched = backoff_schedule("job-000007", 5)
        assert sched == [backoff_delay("job-000007", a) for a in range(5)]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="attempt"):
            backoff_delay("k", -1)
        with pytest.raises(ValueError, match="base"):
            backoff_delay("k", 0, base=0.0)
        with pytest.raises(ValueError, match="cap"):
            backoff_delay("k", 0, base=1.0, cap=0.5)

    def test_seed_changes_the_schedule(self):
        assert backoff_delay("k", 3, seed=0) != backoff_delay("k", 3, seed=1)


class TestJobLogReplay:
    def test_submit_assigns_sequential_ids(self, tmp_path):
        store = JobStore(tmp_path)
        assert store.submit("run", {"key": "lst1"}) == "job-000001"
        assert store.submit("campaign", {"selector": "smoke"}) == "job-000002"
        state = store.load()
        assert state.jobs["job-000001"].kind == "run"
        assert state.jobs["job-000002"].status == "queued"

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ServeStoreError, match="unknown job kind"):
            JobStore(tmp_path).submit("dance", {})

    def test_lease_heartbeat_done_lifecycle(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit("run", {})
        store.job_leased(job, 1, pid=1234, timeout=30.0)
        assert store.get(job).status == "leased"
        assert store.get(job).attempt == 1
        store.job_heartbeat(job, pid=1234)
        store.job_done(job, {"run": "abcd"}, result={"kind": "run"})
        final = store.get(job)
        assert final.status == "done"
        assert final.digests == {"run": "abcd"}
        assert final.terminal

    def test_requeue_applies_backoff_gate(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit("run", {})
        store.job_leased(job, 1, pid=1, timeout=0.1)
        store.job_requeued(job, 2, "lease-expired", delay=3600.0)
        rec = store.get(job)
        assert rec.status == "queued"
        assert rec.attempt == 2
        assert rec.requeues == 1
        assert not rec.leasable(time.time())  # still inside the backoff
        assert rec.leasable(time.time() + 3601.0)

    def test_last_record_wins(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit("run", {})
        store.job_leased(job, 1, pid=1, timeout=30.0)
        store.job_failed(job, "BrokenThing: nope")
        assert store.get(job).status == "failed"
        assert "BrokenThing" in store.get(job).error

    def test_cancel_is_sticky_terminal(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit("run", {})
        store.job_leased(job, 1, pid=1, timeout=30.0)
        store.job_cancelled(job)
        # A worker that finished after the cancel cannot revive the job.
        store.job_done(job, {"run": "abcd"})
        assert store.get(job).status == "cancelled"

    def test_lease_staleness_uses_heartbeat_freshness(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit("run", {})
        now = time.time()
        store.append({"type": "job_leased", "job": job, "attempt": 1,
                      "pid": 1, "timeout": 1.0}, t=now - 10.0)
        assert store.get(job).lease_stale(now)
        store.append({"type": "job_heartbeat", "job": job, "pid": 1},
                     t=now - 0.2)
        assert not store.get(job).lease_stale(now)

    def test_torn_tail_is_dropped_silently(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit("run", {})
        with open(store.log_path, "a") as f:
            f.write('{"type": "job_done", "job": "' + job)  # torn append
        state = store.load()
        assert state.torn_tail
        assert state.corrupt_records == 0
        assert state.jobs[job].status == "queued"  # the tear never counted

    def test_corrupt_interior_is_skipped_and_counted(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit("run", {})
        with open(store.log_path, "a") as f:
            f.write("garbage not json\n")
            f.write(encode_record({
                "type": "job_done", "job": job, "digests": {"run": "ff"},
                "t": time.time(),
            }))
        state = store.load()
        assert state.corrupt_records == 1
        assert state.jobs[job].status == "done"  # later records still load

    def test_unknown_record_types_are_ignored(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit("run", {})
        store.append({"type": "job_promoted", "job": job})
        assert store.get(job).status == "queued"

    def test_queue_depths(self, tmp_path):
        store = JobStore(tmp_path)
        a = store.submit("run", {})
        b = store.submit("run", {})
        store.submit("run", {})
        store.job_leased(a, 1, pid=1, timeout=30.0)
        store.job_cancelled(b)
        depths = store.load().by_status()
        assert depths == {"queued": 1, "leased": 1, "done": 0,
                          "failed": 0, "cancelled": 1}


class TestRecordShape:
    """A record that decodes but has the wrong shape is one corrupt
    record: it never crashes a load and never half-applies to a job."""

    @pytest.mark.parametrize("bad", [
        {"type": "job_submitted", "job": "job-000002", "spec": {}},
        {"type": "job_submitted", "kind": "run", "spec": {}},
        {"type": "job_submitted", "job": "job-000002", "kind": "run",
         "spec": [1]},
        {"type": "job_leased", "job": "job-000001", "attempt": "2"},
        {"type": "job_leased", "job": "job-000001", "timeout": "30"},
        {"type": "job_requeued", "job": "job-000001", "delay": "1"},
        {"type": "job_done", "job": "job-000001", "t": "late"},
        {"type": "job_done", "job": ["job-000001"]},
        {"type": "job_failed"},
        {"type": "job_done", "job": "job-000001", "digests": "ff"},
    ], ids=["no-kind", "no-job", "list-spec", "str-attempt",
            "str-timeout", "str-delay", "str-t", "list-job",
            "failed-no-job", "str-digests"])
    def test_wrong_shape_counts_as_corrupt(self, tmp_path, bad):
        store = JobStore(tmp_path)
        job = store.submit("run", {"key": "lst1"})
        store.job_leased(job, 1, pid=1, timeout=30.0)
        before = _view(store.load())
        with open(store.log_path, "a") as f:
            f.write(encode_record(bad))
        state = store.load()
        assert state.corrupt_records == 1
        jobs, records, _, _ = _view(state)
        assert (jobs, records) == before[:2]  # nothing half-applied
        assert _view(JobStore(tmp_path).load()) == _view(state)
        assert store.health(state)["corrupt_records"] == 1
        assert not state.jobs[job].lease_stale(time.time())


def _view(state):
    """Everything a replay yields, deep-copied so later loads cannot
    reach it."""
    return (
        {j: dataclasses.asdict(r) for j, r in state.jobs.items()},
        state.records, state.corrupt_records, state.torn_tail,
    )


#: One step against a shared state dir: (operation, writer, job, text).
#: ``writer`` 1 is a second store standing in for another process.
_STEPS = st.tuples(
    st.sampled_from([
        "submit", "leased", "heartbeat", "requeued", "done", "failed",
        "cancelled", "unknown", "garbage", "torn", "unterminated",
        "repair", "snapshot",
    ]),
    st.integers(0, 1),
    st.integers(0, 3),
    st.text(alphabet='ab{}":\r', max_size=8),
)


def _step(stores, op, writer, job, text, snapshots):
    store = stores[writer]
    jobs = sorted(JobStore(store.state_dir).load().jobs) or ["job-000009"]
    job_id = jobs[job % len(jobs)]
    if op == "submit":
        store.submit("run", {"key": "lst1", "n": job})
    elif op == "leased":
        store.job_leased(job_id, job + 1, pid=job, timeout=30.0,
                         daemon_id=f"d-{writer}")
    elif op == "heartbeat":
        store.job_heartbeat(job_id, job)
    elif op == "requeued":
        store.job_requeued(job_id, job, "lease-expired", 0.5)
    elif op == "done":
        store.job_done(job_id, {"run": text or "ff"}, result={"n": job})
    elif op == "failed":
        store.job_failed(job_id, f"Boom: {text}")
    elif op == "cancelled":
        store.job_cancelled(job_id)
    elif op == "unknown":
        store.append({"type": "job_promoted", "job": job_id})
    elif op == "repair":
        repair_torn_tail(store.log_path)
    elif op == "snapshot":
        state = stores[0].load()
        snapshots.append((state, _view(state)))
    else:
        with open(store.log_path, "a", newline="") as f:
            if op == "garbage":
                f.write(f"not json {text}\n")
            elif op == "torn":
                f.write('{"type": "job_done", "job' + text)
            else:  # a record that decodes, its newline not yet written
                f.write(encode_record({
                    "type": "job_failed", "job": job_id,
                    "error": "unterminated", "t": 1.0,
                }).rstrip("\n"))


class TestIncrementalReplay:
    """A store's cached, incremental :meth:`JobStore.load` must always
    equal a fresh store's full replay of the same log."""

    @settings(max_examples=50, deadline=None)
    @given(st.lists(_STEPS, min_size=1, max_size=12))
    def test_incremental_load_equals_a_full_replay(self, steps):
        with tempfile.TemporaryDirectory() as d:
            stores = [JobStore(d), JobStore(d)]
            snapshots = []
            for op, writer, job, text in steps:
                _step(stores, op, writer, job, text, snapshots)
                assert _view(stores[0].load()) == \
                    _view(JobStore(d).load()), (op, writer)
            # Later loads never changed a snapshot handed out earlier.
            for state, view in snapshots:
                assert _view(state) == view

    def test_snapshot_is_not_changed_by_later_loads(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit("run", {})
        queued = store.load()
        store.job_leased(job, 1, pid=1, timeout=30.0)
        leased = store.load()
        frozen = [_view(queued), _view(leased)]
        with open(store.log_path, "a") as f:
            f.write(encode_record({
                "type": "job_done", "job": job, "digests": {"run": "ff"},
                "t": 2.0,
            }).rstrip("\n"))
        during = store.load()
        assert during.jobs[job].status == "done"  # the tail decodes
        # The next append repairs the unterminated tail away.
        store.append({"type": "job_heartbeat", "job": job, "pid": 1}, t=3.0)
        after = store.load()
        assert [_view(queued), _view(leased)] == frozen
        assert during.jobs[job].status == "done"
        assert after.jobs[job].status == "leased"
        assert after.jobs[job].heartbeat_at == 3.0
        assert after.records == 3 and not after.torn_tail

    def test_replaced_or_shrunk_log_is_replayed_in_full(self, tmp_path):
        store = JobStore(tmp_path)
        store.submit("run", {})
        store.submit("run", {})
        assert len(store.load().jobs) == 2
        other = JobStore(tmp_path / "other")
        other.submit("faults", {"pad": "x" * 1000})  # longer: only the
        os.replace(other.log_path, store.log_path)  # new inode tells
        assert [j.kind for j in store.load().jobs.values()] == ["faults"]
        with open(store.log_path, "r+b") as f:
            f.truncate(0)
        assert store.load().jobs == {}

    def test_concurrent_loads_while_appending_never_raise(self, tmp_path):
        store = JobStore(tmp_path)
        writer = JobStore(tmp_path)
        job = writer.submit("run", {})
        errors = []
        done = threading.Event()

        def reader():
            try:
                while not done.is_set():
                    state = store.load()
                    assert state.jobs[job].status in ("queued", "leased")
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for i in range(40):
            writer.job_leased(job, i + 1, pid=i, timeout=30.0)
            writer.job_heartbeat(job, i)
        done.set()
        for t in threads:
            t.join()
        assert errors == []
        assert _view(store.load()) == _view(JobStore(tmp_path).load())


class TestFileLockTimeout:
    def test_timeout_names_the_holder(self, tmp_path):
        lock_path = tmp_path / "contended.lock"
        holder = subprocess.Popen(
            [sys.executable, "-c", textwrap.dedent(f"""
                import sys, time
                sys.path.insert(0, {str(Path(__file__).resolve().parent.parent / 'src')!r})
                from repro.core.atomicio import FileLock
                lock = FileLock({str(lock_path)!r})
                lock.acquire()
                print("held", flush=True)
                time.sleep(60)
            """)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            assert holder.stdout.readline().strip() == "held"
            contender = FileLock(lock_path)
            with pytest.raises(FileLockTimeout) as err:
                contender.acquire(timeout=0.3)
            assert f"held by pid {holder.pid}" in str(err.value)
            assert "since" in str(err.value)
        finally:
            holder.kill()
            holder.wait()
        # The holder is dead: the lock is acquirable again.
        assert contender.acquire(timeout=5.0)
        contender.release()

    def test_zero_timeout_fails_fast_under_contention(self, tmp_path):
        first = FileLock(tmp_path / "l")
        assert first.acquire()
        second = FileLock(tmp_path / "l")
        t0 = time.monotonic()
        with pytest.raises(FileLockTimeout):
            second.acquire(timeout=0.0)
        assert time.monotonic() - t0 < 1.0
        first.release()

    def test_negative_timeout_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="timeout"):
            FileLock(tmp_path / "l").acquire(timeout=-1.0)

    def test_unbounded_and_nonblocking_paths_still_work(self, tmp_path):
        lock = FileLock(tmp_path / "l")
        assert lock.acquire()  # blocking default
        assert lock.held
        lock.release()
        assert lock.acquire(blocking=False)
        lock.release()
