"""Tests for graceful shutdown, the worker watchdog, and crash recovery.

Three layers:

* Scheduler units — a set ``cancel_event`` drains inline and pool maps
  into ``interrupted`` (not failed) results; the watchdog trips on a
  stale heartbeat and tears the pool down.
* Subprocess crash tests — a ``repro run all --journal`` killed with
  SIGKILL mid-run resumes to byte-identical reports (at ``--jobs`` 1
  and 4); SIGINT exits with the resumable status 75 and leaves a
  clean, verifiable journal; two concurrent runs sharing one cache
  directory never corrupt an entry.
* CLI graceful-interrupt behaviour for ``repro faults`` and
  ``repro trace summarize`` (partial results with an ``interrupted``
  marker, no traceback).

The sleep executors are registered into the task registry at import
time; pool workers inherit them through the fork start method.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exec import RESUMABLE_EXIT_CODE, Scheduler, Task
from repro.exec import tasks as tasks_mod
from repro.mpi.faults import fault_drift_report

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _ok(value=42):
    return value


def _sleep(seconds=30.0):
    time.sleep(seconds)
    return "overslept"


tasks_mod._EXECUTORS.update(test_sd_ok=_ok, test_sd_sleep=_sleep)


def _task(kind, index=0, **params):
    return Task("test", "ci", index, kind, params=params)


class TestInlineDrain:
    def test_preset_cancel_interrupts_everything(self):
        ev = threading.Event()
        ev.set()
        sched = Scheduler(jobs=1, cancel_event=ev)
        results = sched.map([_task("test_sd_ok", i) for i in range(3)])
        assert sched.interrupted
        assert all(r.interrupted for r in results)
        # Interrupted is resumable, not failed.
        assert not any(r.failed for r in results)
        assert all("Interrupted" in r.error for r in results)

    def test_cancel_mid_run_keeps_finished_work(self):
        ev = threading.Event()
        sched = Scheduler(jobs=1, cancel_event=ev)
        seen = []

        def hook(result):
            seen.append(result)
            if len(seen) == 1:
                ev.set()  # cancel lands after the first completion

        sched.on_result = hook
        results = sched.map([_task("test_sd_ok", i) for i in range(4)])
        assert results[0].value == 42 and not results[0].interrupted
        assert all(r.interrupted for r in results[1:])

    def test_on_result_streams_in_completion_order(self):
        sched = Scheduler(jobs=1)
        seen = []
        sched.on_result = seen.append
        results = sched.map([_task("test_sd_ok", i) for i in range(3)])
        assert seen == results

    def test_resumable_exit_code_is_distinct(self):
        assert RESUMABLE_EXIT_CODE == 75  # EX_TEMPFAIL, not 0/1/2

    def test_grace_validation(self):
        with pytest.raises(ValueError, match="grace"):
            Scheduler(jobs=1, grace=-1.0)
        with pytest.raises(ValueError, match="heartbeat_timeout"):
            Scheduler(jobs=2, heartbeat_timeout=0.0)


@pytest.mark.skipif(not _HAS_FORK, reason="needs the fork start method")
class TestPoolDrain:
    def test_cancel_drains_pool_within_grace(self):
        ev = threading.Event()
        ev.set()
        sched = Scheduler(jobs=2, cancel_event=ev, grace=0.5)
        tasks = [_task("test_sd_sleep", i, seconds=30.0) for i in range(3)]
        t0 = time.perf_counter()
        results = sched.map(tasks)
        assert time.perf_counter() - t0 < 20.0  # not the 30s sleeps
        assert sched.interrupted
        assert all(r.interrupted for r in results)

    def test_watchdog_trips_on_stale_heartbeat(self, monkeypatch):
        monkeypatch.setattr(
            Scheduler, "_heartbeat_stale", lambda self, d, s: True
        )
        sched = Scheduler(jobs=2, heartbeat_timeout=0.5)
        tasks = [_task("test_sd_sleep", i, seconds=30.0) for i in range(3)]
        t0 = time.perf_counter()
        results = sched.map(tasks)
        assert time.perf_counter() - t0 < 20.0
        assert sched.interrupted
        assert all(r.interrupted for r in results)
        assert any("watchdog" in r.error for r in results)

    def test_healthy_run_survives_watchdog(self):
        sched = Scheduler(jobs=2, heartbeat_timeout=30.0)
        results = sched.map([_task("test_sd_ok", i) for i in range(4)])
        assert not sched.interrupted
        assert [r.value for r in results] == [42] * 4

    def test_heartbeat_staleness_logic(self, tmp_path):
        sched = Scheduler(jobs=2, heartbeat_timeout=1.0)
        started = time.time()
        # No heartbeat yet, startup not overdue: not stale.
        assert not sched._heartbeat_stale(str(tmp_path), started)
        # Fresh heartbeat: not stale.
        hb = tmp_path / "hb-123"
        hb.write_text(str(time.time()))
        assert not sched._heartbeat_stale(str(tmp_path), started)
        # Ancient heartbeat: stale.
        past = time.time() - 60.0
        os.utime(hb, (past, past))
        assert sched._heartbeat_stale(str(tmp_path), started)
        # No heartbeat at all and startup overdue: stale.
        hb.unlink()
        assert sched._heartbeat_stale(str(tmp_path), started - 60.0)


# ---------------------------------------------------------------------------
# Subprocess crash tests
# ---------------------------------------------------------------------------

_ENV = dict(
    os.environ,
    PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
)


def _cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=_ENV, timeout=300, **kw,
    )


def _wait_for_done_records(journal, n, timeout=120.0):
    """Block until ``n`` fsync'd task_done records are on disk."""
    deadline = time.time() + timeout
    count = 0
    while time.time() < deadline:
        try:
            count = sum(
                1 for line in open(journal) if '"task_done"' in line
            )
        except FileNotFoundError:
            count = 0
        if count >= n:
            return count
        time.sleep(0.01)
    raise AssertionError(
        f"journal never reached {n} task_done records (got {count})"
    )


def _children(pid):
    """Pids whose parent is ``pid`` (read from ``/proc``)."""
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while we looked
        if int(fields[1]) == pid:
            kids.append(int(stat.parent.name))
    return kids


def _running(pid):
    """True while ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _normalize_timing(doc):
    """Zero every wall-clock field: the only legitimate difference
    between a resumed and an uninterrupted ``--json`` document."""
    if isinstance(doc, dict):
        return {
            k: 0.0 if k in ("seconds", "total_seconds")
            else _normalize_timing(v)
            for k, v in doc.items()
        }
    if isinstance(doc, list):
        return [_normalize_timing(v) for v in doc]
    return doc


@pytest.fixture(scope="module")
def baseline_all():
    """One uninterrupted ``repro run all`` (reports + json)."""
    reports = _cli("run", "all")
    assert reports.returncode == 0, reports.stderr
    stats = _cli("run", "all", "--quiet", "--json")
    assert stats.returncode == 0, stats.stderr
    return reports.stdout, json.loads(stats.stdout)


@pytest.mark.skipif(not _HAS_FORK, reason="needs the fork start method")
class TestCrashRecovery:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_sigkill_then_resume_byte_identical(
        self, tmp_path, baseline_all, jobs
    ):
        reports, _ = baseline_all
        journal = tmp_path / "crash.jnl"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "all", "--quiet",
             "--journal", str(journal), "--jobs", str(jobs)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=_ENV,
        )
        try:
            _wait_for_done_records(journal, 3)
            workers = _children(proc.pid)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        # No pool worker outlives the killed run.
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline and any(map(_running, workers)):
            time.sleep(0.05)
        assert not [w for w in workers if _running(w)]
        # The torn journal must verify (a torn tail is not corruption)…
        check = _cli("journal", "verify", str(journal))
        assert check.returncode == 0, check.stdout + check.stderr
        # …and the resumed run's figures are byte-identical.
        resumed = _cli("run", "all", "--resume", str(journal))
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == reports
        assert "restored" in resumed.stderr

    def test_resumed_json_identical_modulo_timing(
        self, tmp_path, baseline_all
    ):
        _, stats = baseline_all
        journal = tmp_path / "crash.jnl"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "all", "--quiet",
             "--journal", str(journal)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=_ENV,
        )
        try:
            _wait_for_done_records(journal, 3)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        resumed = _cli("run", "all", "--quiet", "--json",
                       "--resume", str(journal))
        assert resumed.returncode == 0, resumed.stderr
        assert _normalize_timing(json.loads(resumed.stdout)) == \
            _normalize_timing(stats)

    def test_sigint_drains_to_resumable_exit(self, tmp_path, baseline_all):
        reports, _ = baseline_all
        journal = tmp_path / "int.jnl"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", "all", "--quiet",
             "--journal", str(journal), "--jobs", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_ENV, text=True,
        )
        try:
            _wait_for_done_records(journal, 2)
        finally:
            proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=300)
        if proc.returncode == 0:
            # The run finished before the signal landed (tiny CI box):
            # nothing to drain, nothing more to assert.
            pytest.skip("run completed before SIGINT arrived")
        assert proc.returncode == RESUMABLE_EXIT_CODE
        assert "Traceback" not in err
        assert "resume with" in err
        # No temp droppings, and the journal verifies clean.
        assert list(tmp_path.glob(".*.tmp")) == []
        check = _cli("journal", "verify", str(journal))
        assert check.returncode == 0
        resumed = _cli("run", "all", "--resume", str(journal))
        assert resumed.returncode == 0
        assert resumed.stdout == reports

    def test_concurrent_runs_share_cache_cleanly(self, tmp_path):
        cache_dir = tmp_path / "cache"
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "run", "fig5", "--quiet",
                 "--cache-dir", str(cache_dir)],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=_ENV,
            )
            for _ in range(2)
        ]
        for p in procs:
            p.wait(timeout=300)
        assert all(p.returncode == 0 for p in procs)
        assert list(cache_dir.glob("*.corrupt")) == []
        assert list(cache_dir.glob(".*.tmp")) == []
        # The surviving entry is valid: a third run hits the cache.
        third = _cli("run", "fig5", "--quiet", "--stats",
                     "--cache-dir", str(cache_dir))
        assert third.returncode == 0
        assert "1 hits" in third.stdout


# ---------------------------------------------------------------------------
# Graceful interrupts for the auxiliary commands (faults / trace)
# ---------------------------------------------------------------------------

class TestFaultSweepInterrupt:
    def test_cancel_before_start_yields_marker(self):
        doc = fault_drift_report(
            severities=["off", "lossy"], repetitions=1, cancel=lambda: True
        )
        assert doc["interrupted"] is True
        assert doc["severities"] == {}

    def test_cancel_after_first_severity_keeps_partial(self):
        calls = []

        def cancel():
            calls.append(None)
            return len(calls) > 1  # let "off" run, stop before "lossy"

        doc = fault_drift_report(
            severities=["off", "lossy"], repetitions=1, cancel=cancel
        )
        assert doc["interrupted"] is True
        assert list(doc["severities"]) == ["off"]
        # Ratio post-processing still works on the partial document.
        assert doc["severities"]["off"]["allreduce_slowdown"] == 1.0

    def test_render_marks_interrupted(self):
        from repro.core.report import render_fault_sweep

        doc = fault_drift_report(
            severities=["off"], repetitions=1, cancel=lambda: True
        )
        assert "(interrupted: partial results)" in render_fault_sweep(doc)

    def test_cli_exits_resumable_on_interrupt(self, monkeypatch, capsys):
        from repro import cli

        class _PreCancelled:
            def __init__(self):
                self.event = threading.Event()
                self.event.set()

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                pass

        monkeypatch.setattr(cli, "_GracefulShutdown", _PreCancelled)
        status = cli.main(["faults", "--json", "--repetitions", "1"])
        assert status == RESUMABLE_EXIT_CODE
        doc = json.loads(capsys.readouterr().out)
        assert doc["interrupted"] is True


class TestTraceSummarizeInterrupt:
    def test_interrupt_yields_marker_document(
        self, monkeypatch, capsys, tmp_path
    ):
        from repro import cli

        trace = tmp_path / "t.json"
        status = cli.main(["run", "lst1", "--quiet", "--trace", str(trace)])
        assert status == 0

        class _PreCancelled:
            def __init__(self):
                self.event = threading.Event()
                self.event.set()

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                pass

        monkeypatch.setattr(cli, "_GracefulShutdown", _PreCancelled)
        capsys.readouterr()
        status = cli.main(["trace", "summarize", str(trace), "--json"])
        assert status == RESUMABLE_EXIT_CODE
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"interrupted": True}
