"""Daemon control-loop tests: lease expiry, re-dispatch, drain, cancel.

Driven at the :meth:`ServeDaemon.tick` level with real worker
subprocesses and aggressively small lease timeouts, so the whole
lease-expire-requeue-complete cycle runs in seconds.  The headline
assertions:

* a worker that stops heartbeating mid-job (the ``_wedge_attempts``
  test lever) gets its lease expired and the job re-dispatched with
  the deterministic backoff — and the *final metric-document digest
  is byte-identical* to an uninterrupted in-process run;
* a SIGKILL'd worker is re-dispatched the same way, without waiting
  out the lease timeout (the daemon reaps the dead process) — but a
  worker exit seen after a load that predates its ``job_done`` never
  requeues the finished job;
* a job whose leases keep expiring degrades to the typed terminal
  ``failed`` state after ``max_attempts`` instead of wedging the
  queue;
* drain stops leasing and reports 75 while work remains, 0 when done;
* cancel kills the worker and is sticky;
* workers forked from the worker template yield the in-process
  digest, a SIGKILL'd template leaves its workers to the orphan path
  and is replaced, and drain reaps the template;
* a worker forked with the job's kind and spec in its lease yields the
  digest of the command-line worker, which reads the job from the log;
* :meth:`ServeDaemon.run_forever` wakes on submit, cancel, drain and
  worker exit instead of waiting out its poll.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.serve import client as sc
from repro.serve.api import start_api
from repro.serve.daemon import DaemonConfig, ServeDaemon, _Template
from repro.serve.store import JobStore, job_backoff

pytestmark = pytest.mark.slow

#: Daemons built by the current test; their templates are closed at
#: teardown so no test leaves a process behind.
_LIVE = []


@pytest.fixture(autouse=True)
def _close_templates():
    yield
    while _LIVE:
        _LIVE.pop().template.close()


def _daemon(tmp_path, **overrides):
    kwargs = dict(
        state_dir=tmp_path / "state",
        workers=2,
        lease_timeout=1.5,
        heartbeat=0.1,
        poll=0.05,
        max_attempts=3,
        grace=3.0,
    )
    kwargs.update(overrides)
    daemon = ServeDaemon(DaemonConfig(**kwargs))
    _LIVE.append(daemon)
    return daemon


def _running(pid):
    """True while ``pid`` runs; a zombie (killed, not yet reaped by its
    new parent) counts as gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _drive(daemon, job_id, timeout=180.0):
    """Tick until the job is terminal; returns its final record."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        state = daemon.tick()
        job = state.jobs[job_id]
        if job.terminal:
            return job
        time.sleep(0.05)
    raise AssertionError(
        f"{job_id} not terminal within {timeout}s "
        f"(status: {daemon.store.get(job_id).status})"
    )


def _expected_run_digest(key="lst1", scale="ci", faults=None, seed=0):
    """The digest an uninterrupted in-process run yields — what the
    CLI's ``repro run KEY --metrics-dir`` would stamp."""
    from repro.exec import Engine
    from repro.obs.collector import collect_run, document_digest

    engine = Engine(jobs=1, fault_spec=faults, fault_seed=seed)
    outcomes = engine.run_many([key], scale=scale)
    return document_digest(
        collect_run(engine.stats, outcomes, keys=[key], scale=scale)
    )


class TestHappyPath:
    def test_job_runs_to_done_with_cli_identical_digest(self, tmp_path):
        daemon = _daemon(tmp_path)
        job_id = daemon.store.submit("run", {"key": "lst1", "scale": "ci"})
        job = _drive(daemon, job_id)
        assert job.status == "done"
        assert job.attempt == 1
        assert job.digests["run"] == _expected_run_digest()
        # The full result document is on disk, digest included.
        result = json.loads(
            daemon.store.result_path(job_id).read_text()
        )
        assert result["digest"] == job.digests["run"]

    def test_exit_seen_after_a_stale_load_keeps_the_job_done(
        self, tmp_path, monkeypatch,
    ):
        daemon = _daemon(tmp_path, workers=1)
        job_id = daemon.store.submit("run", {"key": "lst1"})
        leased = daemon.tick()
        assert leased.jobs[job_id].status == "leased"
        proc = daemon._procs[job_id]
        _wait_for(lambda: daemon.template.pump()
                  or daemon.template.reported({proc.pid}))
        # The tick's first load predates the worker's job_done, as
        # when the worker finishes while the tick is reading the log.
        loads = [leased]
        real_load = daemon.store.load
        monkeypatch.setattr(
            daemon.store, "load",
            lambda: loads.pop() if loads else real_load(),
        )
        state = daemon.tick()
        assert state.jobs[job_id].status == "done"
        assert "job_requeued" not in {
            rec["type"] for rec in _log_records(daemon.store)
        }

    def test_workers_cap_concurrent_leases(self, tmp_path):
        daemon = _daemon(tmp_path, workers=1, lease_timeout=30.0)
        a = daemon.store.submit("run", {"key": "lst1", "_wedge_attempts": 9})
        b = daemon.store.submit("run", {"key": "lst1"})
        state = daemon.tick()
        assert state.jobs[a].status == "leased"
        assert state.jobs[b].status == "queued"  # no free slot
        daemon.drain()


class TestLeaseExpiry:
    def test_stalled_worker_is_redispatched_and_digest_matches(
        self, tmp_path,
    ):
        # Attempt 1 wedges (alive but silent); the lease expires, the
        # daemon re-dispatches, attempt 2 completes.
        daemon = _daemon(tmp_path)
        job_id = daemon.store.submit(
            "run", {"key": "lst1", "scale": "ci", "_wedge_attempts": 1},
        )
        job = _drive(daemon, job_id)
        assert job.status == "done"
        assert job.attempt == 2
        assert job.requeues == 1
        assert job.last_requeue_reason == "lease-expired"
        # The re-run is byte-identical to an uninterrupted run: the
        # test lever never reaches the engine.
        assert job.digests["run"] == _expected_run_digest()

    def test_requeue_delay_is_the_deterministic_backoff(self, tmp_path):
        daemon = _daemon(tmp_path)
        job_id = daemon.store.submit(
            "run", {"key": "lst1", "_wedge_attempts": 1},
        )
        _drive(daemon, job_id)
        requeues = [
            rec for rec in _log_records(daemon.store)
            if rec["type"] == "job_requeued"
        ]
        assert len(requeues) == 1
        assert requeues[0]["delay"] == job_backoff(job_id, 1)

    def test_sigkilled_worker_is_redispatched(self, tmp_path):
        daemon = _daemon(tmp_path, lease_timeout=60.0)
        job_id = daemon.store.submit(
            "run", {"key": "lst1", "_wedge_attempts": 1},
        )
        state = daemon.tick()
        pid = state.jobs[job_id].worker_pid
        assert pid is not None
        import os

        os.kill(pid, signal.SIGKILL)
        # The daemon notices the dead process immediately — no need to
        # wait out the 60s lease timeout.
        job = _drive(daemon, job_id, timeout=120.0)
        assert job.status == "done"
        assert job.requeues == 1

    def test_exhausted_attempts_fail_terminally(self, tmp_path):
        daemon = _daemon(tmp_path, max_attempts=2, lease_timeout=0.8)
        job_id = daemon.store.submit(
            "run", {"key": "lst1", "_wedge_attempts": 99},
        )
        job = _drive(daemon, job_id)
        assert job.status == "failed"
        assert "LeaseExpired" in job.error
        assert "2 attempt(s) exhausted" in job.error


class TestDrainAndCancel:
    def test_drain_with_queued_work_reports_resumable(self, tmp_path):
        daemon = _daemon(tmp_path)
        daemon.store.submit("run", {"key": "lst1"})
        assert daemon.drain() == 75
        # Draining daemons lease nothing.
        assert daemon.store.load().jobs["job-000001"].status == "queued"

    def test_drain_after_completion_is_clean(self, tmp_path):
        daemon = _daemon(tmp_path)
        job_id = daemon.store.submit("run", {"key": "lst1"})
        _drive(daemon, job_id)
        assert daemon.drain() == 0

    def test_cancel_kills_the_worker_and_sticks(self, tmp_path):
        daemon = _daemon(tmp_path, lease_timeout=60.0)
        job_id = daemon.store.submit(
            "run", {"key": "lst1", "_wedge_attempts": 99},
        )
        state = daemon.tick()
        assert state.jobs[job_id].status == "leased"
        daemon.store.job_cancelled(job_id)
        state = daemon.tick()
        assert state.jobs[job_id].status == "cancelled"
        # Sticky: nothing ever revives it, and drain is clean.
        assert daemon.drain() == 0


class TestRestartRecovery:
    def test_fresh_daemon_requeues_stale_inherited_lease(self, tmp_path):
        store = JobStore(tmp_path / "state")
        job_id = store.submit("run", {"key": "lst1"})
        # A lease from a long-dead predecessor daemon (stale heartbeat,
        # dead pid).
        store.append({"type": "job_leased", "job": job_id, "attempt": 1,
                      "pid": 999999, "timeout": 0.5},
                     t=time.time() - 60.0)
        daemon = _daemon(tmp_path)
        job = _drive(daemon, job_id)
        assert job.status == "done"
        assert job.last_requeue_reason == "daemon-restart"
        assert job.digests["run"] == _expected_run_digest()


class TestWorkerTemplate:
    def test_forked_jobs_match_the_in_process_digest(self, tmp_path):
        daemon = _daemon(tmp_path)
        specs = [
            {"key": "lst1", "scale": "ci"},
            {"key": "fig1", "scale": "ci"},
            {"key": "fig2", "scale": "ci", "faults": "lossy", "seed": 3},
        ]
        jobs = [daemon.store.submit("run", spec) for spec in specs]
        for job_id, spec in zip(jobs, specs):
            job = _drive(daemon, job_id)
            assert job.status == "done", job.error
            assert job.digests["run"] == _expected_run_digest(
                spec["key"], faults=spec.get("faults"),
                seed=spec.get("seed", 0),
            )
        status = daemon.template.status()
        assert status["alive"] and status["forked"] == 3
        assert status["restarts"] == 0

    def test_sigkilled_template_leaves_workers_to_the_orphan_path(
        self, tmp_path,
    ):
        daemon = _daemon(tmp_path)
        wedged = daemon.store.submit(
            "run", {"key": "lst1", "_wedge_attempts": 1},
        )
        orphan = daemon.tick().jobs[wedged].worker_pid
        first = daemon.template.status()["pid"]
        os.kill(first, signal.SIGKILL)
        daemon.template.proc.wait(timeout=10)
        # The worker runs in its own session: the template's death
        # does not take it down.
        assert _running(orphan)

        job_id = daemon.store.submit("run", {"key": "lst1"})
        job = _drive(daemon, job_id)
        assert job.status == "done"
        assert job.digests["run"] == _expected_run_digest()
        status = daemon.template.status()
        assert status["alive"] and status["pid"] != first
        assert status["restarts"] == 1

        # The wedged lease still expires; its orphan is killed by pid
        # and attempt 2 completes through the new template.
        job = _drive(daemon, wedged)
        assert job.status == "done"
        assert job.last_requeue_reason == "lease-expired"
        assert job.requeues == 1
        assert not _running(orphan)

    def test_drain_reaps_the_template(self, tmp_path):
        daemon = _daemon(tmp_path)
        job_id = daemon.store.submit("run", {"key": "lst1"})
        worker = daemon.tick().jobs[job_id].worker_pid
        template = daemon.template.status()["pid"]
        _drive(daemon, job_id)
        assert daemon.drain() == 0
        assert not daemon.template.status()["alive"]
        # Reaped, not merely dead: no /proc entry, not even a zombie.
        for pid in (template, worker):
            assert not Path(f"/proc/{pid}").exists(), pid

    def test_lease_spec_matches_the_command_line_worker(self, tmp_path):
        store = JobStore(tmp_path / "state")
        spec = {"key": "fig2", "scale": "ci", "faults": "lossy", "seed": 3}
        forked, cli = store.submit("run", spec), store.submit("run", spec)
        template = _Template(store.state_dir)
        template.ensure()
        try:
            worker = template.fork(store.get(forked), 1, 0.1)
            template.release(worker.pid)
            assert worker.wait(timeout=120.0) == 0
        finally:
            template.close()
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [sys.executable, "-m", "repro.serve.worker",
             str(store.state_dir), cli],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        state = store.load()
        assert state.jobs[forked].status == "done"
        assert state.jobs[forked].digests == state.jobs[cli].digests


@pytest.fixture()
def looping(tmp_path):
    """A one-worker daemon whose loop runs with a 5 s poll, behind a
    live API: anything faster than the poll came from a wake."""
    daemon = _daemon(tmp_path, workers=1, poll=5.0, lease_timeout=30.0)
    shutdown = threading.Event()
    server = start_api(daemon, shutdown, port=0)
    host, port = server.server_address[:2]
    exit_code = []
    loop = threading.Thread(
        target=lambda: exit_code.append(daemon.run_forever(shutdown))
    )
    loop.start()
    try:
        yield daemon, f"http://{host}:{port}", loop, exit_code
    finally:
        shutdown.set()
        daemon.wake()
        loop.join(timeout=60.0)
        server.shutdown()
        server.server_close()


def _wait_for(predicate, timeout=60.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.01)
    raise AssertionError(f"not within {timeout}s")


class TestEventDrivenLoop:
    def test_submit_and_worker_exit_wake_the_loop(self, looping):
        daemon, url, _, _ = looping
        # The first job waits out the template's imports; it also
        # leaves the loop asleep on its 5 s poll.
        warm = sc.submit_job("run", {"key": "lst1"}, url=url)["job_id"]
        assert sc.wait_for_job(warm, url=url, timeout=60.0, poll=0.05)["status"] == "done"
        first = sc.submit_job("run", {"key": "lst1"}, url=url)["job_id"]
        second = sc.submit_job("run", {"key": "lst1"}, url=url)["job_id"]
        sc.wait_for_job(second, url=url, timeout=60.0, poll=0.05)
        state = daemon.store.load()
        a, b = state.jobs[first], state.jobs[second]
        assert a.status == b.status == "done"
        assert a.finished_at - a.submitted_at < 2.0
        # One worker: the second job waited for the first one's exit.
        assert b.leased_at >= a.finished_at
        assert b.leased_at - a.finished_at < 1.0

    def test_cancel_wakes_the_loop_to_kill_the_worker(self, looping):
        daemon, url, _, _ = looping
        job_id = sc.submit_job(
            "run", {"key": "lst1", "_wedge_attempts": 99}, url=url,
        )["job_id"]
        pid = _wait_for(lambda: daemon.store.get(job_id).worker_pid)
        sc.cancel_job(job_id, url=url)
        t0 = time.time()
        _wait_for(lambda: not _running(pid), timeout=5.0)
        assert time.time() - t0 < 1.0

    def test_drain_returns_without_waiting_out_the_poll(self, looping):
        _, url, loop, exit_code = looping
        time.sleep(0.2)  # the loop is asleep on its poll
        t0 = time.time()
        sc.drain(url=url)
        loop.join(timeout=10.0)
        assert not loop.is_alive()
        assert time.time() - t0 < 1.0
        assert exit_code == [0]


def _log_records(store):
    from repro.core.atomicio import decode_record

    return [
        decode_record(line)
        for line in store.log_path.read_text().splitlines()
    ]
