"""HTTP API + client + CLI tests for the serve daemon.

The server under test is the real :func:`repro.serve.api.start_api`
on an ephemeral port over a real :class:`ServeDaemon`; the client is
the real :mod:`repro.serve.client`.  Most endpoint tests leave the
control loop un-ticked, so jobs stay queued and no workers spawn —
fast and deterministic.  One end-to-end test (marked ``slow``) runs
the full loop: submit over HTTP, daemon leases a worker, the result
and metric digests come back over the API, and the ``repro serve``
CLI subcommands drive the same daemon from a subprocess.  A spec the
command's parser rejects gets a 400 from ``POST /api/jobs`` and exit 2
from ``repro serve submit``, and appends nothing to the job log; every
spec the suite, CI and the benchmark submit is accepted as submitted.
"""

import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.serve import client as sc
from repro.serve.api import start_api
from repro.serve.client import ServeClientError
from repro.serve.daemon import DaemonConfig, ServeDaemon

_REPO = Path(__file__).resolve().parent.parent
_ENV = dict(os.environ, PYTHONPATH=str(_REPO / "src"))


@pytest.fixture()
def served(tmp_path):
    """An un-ticked daemon with a live ephemeral-port API."""
    daemon = ServeDaemon(DaemonConfig(
        state_dir=tmp_path / "state", workers=2,
        lease_timeout=5.0, heartbeat=0.1, poll=0.05,
    ))
    shutdown = threading.Event()
    server = start_api(daemon, shutdown, port=0)
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}"
    try:
        yield daemon, url, shutdown
    finally:
        server.shutdown()
        server.server_close()


def _cli(*argv, env=_ENV, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env,
        cwd=str(_REPO), timeout=timeout,
    )


class TestEndpoints:
    def test_healthz_reports_queue_depths(self, served):
        daemon, url, _ = served
        daemon.store.submit("run", {"key": "lst1"})
        doc = sc.healthz(url=url)
        assert doc["ok"] is True
        assert doc["draining"] is False
        assert doc["queue"]["queued"] == 1
        assert doc["state_dir"] == str(daemon.store.state_dir)
        # Un-ticked: the worker template has not been started yet.
        assert doc["template"] == {
            "pid": None, "alive": False, "forked": 0, "restarts": 0,
        }

    def test_submit_then_get_and_list(self, served):
        _, url, _ = served
        doc = sc.submit_job("run", {"key": "lst1", "scale": "ci"}, url=url)
        job_id = doc["job_id"]
        assert job_id == "job-000001"
        got = sc.get_job(job_id, url=url)
        assert got["status"] == "queued"
        assert got["spec"] == {"key": "lst1", "scale": "ci"}
        listing = sc.list_jobs(url=url)
        assert [j["job_id"] for j in listing["jobs"]] == [job_id]

    def test_get_job_replays_the_log_once(self, served, monkeypatch):
        daemon, url, _ = served
        job_id = sc.submit_job("run", {"key": "lst1"}, url=url)["job_id"]
        loads = []
        real_load = daemon.store.load
        monkeypatch.setattr(
            daemon.store, "load", lambda: loads.append(1) or real_load(),
        )
        doc = sc.get_job(job_id, url=url)
        assert loads == [1]
        assert doc["status"] == "queued"
        assert doc["store"] == {"records": 1, "corrupt_records": 0,
                                "torn_tail": False, "orphan_tmp": 0}

    def test_submit_unknown_kind_is_a_client_error(self, served):
        _, url, _ = served
        with pytest.raises(ServeClientError, match="unknown job kind"):
            sc.submit_job("dance", {}, url=url)

    def test_unknown_job_is_404(self, served):
        _, url, _ = served
        with pytest.raises(ServeClientError, match="job-999999"):
            sc.get_job("job-999999", url=url)

    def test_result_before_done_is_a_conflict(self, served):
        _, url, _ = served
        job_id = sc.submit_job("run", {"key": "lst1"}, url=url)["job_id"]
        with pytest.raises(ServeClientError, match="no result yet"):
            sc.job_result(job_id, url=url)

    def test_journal_of_unstarted_job_is_empty(self, served):
        _, url, _ = served
        job_id = sc.submit_job("run", {"key": "lst1"}, url=url)["job_id"]
        assert sc.job_journal(job_id, url=url)["lines"] == []
        assert sc.job_journal(job_id, tail=3, url=url)["lines"] == []

    def test_cancel_is_effective_then_conflicts(self, served):
        _, url, _ = served
        job_id = sc.submit_job("run", {"key": "lst1"}, url=url)["job_id"]
        assert sc.cancel_job(job_id, url=url)["status"] == "cancelled"
        with pytest.raises(ServeClientError, match="already cancelled"):
            sc.cancel_job(job_id, url=url)

    def test_drain_sets_shutdown_and_submit_conflicts(self, served):
        daemon, url, shutdown = served
        assert sc.drain(url=url)["draining"] is True
        assert shutdown.is_set()
        daemon.draining = True  # what run_forever's drain() would set
        with pytest.raises(ServeClientError, match="draining"):
            sc.submit_job("run", {"key": "lst1"}, url=url)

    def test_wait_for_job_times_out_with_status(self, served):
        _, url, _ = served
        job_id = sc.submit_job("run", {"key": "lst1"}, url=url)["job_id"]
        with pytest.raises(ServeClientError, match="queued"):
            sc.wait_for_job(job_id, url=url, timeout=0.2, poll=0.05)

    def test_unreachable_daemon_has_a_helpful_hint(self):
        with pytest.raises(ServeClientError, match="is it running"):
            sc.healthz(url="http://127.0.0.1:1")


class TestCliClient:
    def test_submit_status_jobs_cancel_roundtrip(self, served):
        _, url, _ = served
        out = _cli("serve", "submit", "run", "--key", "lst1",
                   "--scale", "ci", "--url", url, "--json")
        assert out.returncode == 0, out.stderr
        job_id = json.loads(out.stdout)["job_id"]

        out = _cli("serve", "status", job_id, "--url", url, "--json")
        doc = json.loads(out.stdout)
        assert doc["status"] == "queued"
        assert doc["spec"]["key"] == "lst1"

        out = _cli("serve", "jobs", "--url", url)
        assert job_id in out.stdout and "queued" in out.stdout

        out = _cli("serve", "cancel", job_id, "--url", url)
        assert out.returncode == 0
        assert "cancelled" in out.stdout

    def test_spec_file_merges_under_flags(self, served, tmp_path):
        _, url, _ = served
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"key": "overridden", "seed": 7}))
        out = _cli("serve", "submit", "run", "--spec", str(spec),
                   "--key", "lst1", "--url", url, "--json")
        assert out.returncode == 0, out.stderr
        job_id = json.loads(out.stdout)["job_id"]
        doc = json.loads(
            _cli("serve", "status", job_id, "--url", url, "--json").stdout
        )
        assert doc["spec"] == {"key": "lst1", "seed": 7}

    def test_url_from_environment(self, served):
        _, url, _ = served
        env = dict(_ENV, REPRO_SERVE_URL=url)
        out = _cli("serve", "jobs", "--json", env=env)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == {"jobs": []}

    def test_unreachable_daemon_exits_2(self):
        out = _cli("serve", "jobs", "--url", "http://127.0.0.1:1")
        assert out.returncode == 2
        assert "is it running" in out.stderr

    def test_drain_command(self, served):
        _, url, shutdown = served
        out = _cli("serve", "drain", "--url", url)
        assert out.returncode == 0
        assert shutdown.is_set()


def _post_job(url, kind, spec):
    """``POST /api/jobs``: (HTTP status, response document)."""
    request = urllib.request.Request(
        url + "/api/jobs", method="POST",
        data=json.dumps({"kind": kind, "spec": spec}).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


#: (kind, spec, the parser's complaint).
BAD_SPECS = [
    ("run", {"key": "nope"}, "unknown experiment 'nope'"),
    ("run", {"jobs": "x"}, "argument --jobs: invalid int value: 'x'"),
    ("run", {"scale": "huge"}, "argument --scale: invalid choice: 'huge'"),
    ("run", {"faults": "bogus"}, "bad fault spec 'bogus'"),
    ("run", {"grace": -1}, "grace must be >= 0"),
    ("run", {"frobnicate": 1}, "unknown run job spec key(s)"),
    ("run", {"trace": "t.json"}, "unknown run job spec key(s)"),
    ("faults", {"nranks": -3}, "argument --nranks: must be >= 1, got -3"),
    ("faults", {"severities": "nope"}, "bad fault spec 'nope'"),
    ("faults", {"metrics_dir": "M"}, "unknown faults job spec key(s)"),
    ("campaign", {"selector": "nope"}, "unknown scenario pack 'nope'"),
    ("campaign", {"grace": -1}, "grace must be >= 0"),
    ("campaign", {"out": "c.json"}, "unknown campaign job spec key(s)"),
    ("autopilot", {"budget": "x"},
     "argument --budget: invalid int value: 'x'"),
    ("autopilot", {"budget": 0}, "autopilot budget must be >= 1, got 0"),
    ("autopilot", {"freeze_dir": "D"}, "unknown autopilot job spec key(s)"),
    ("dance", {}, "unknown job kind 'dance'"),
]


def test_bad_specs_are_rejected_at_submit(served, tmp_path, capsys):
    daemon, url, _ = served
    path = tmp_path / "spec.json"
    for kind, spec, message in BAD_SPECS:
        status, doc = _post_job(url, kind, spec)
        assert status == 400 and message in doc["error"], (spec, doc)
        if kind != "dance":  # the CLI's own choices reject this kind
            path.write_text(json.dumps(spec))
            assert cli_main(["serve", "submit", kind, "--spec", str(path),
                             "--url", url]) == 2, spec
            assert message in capsys.readouterr().err
    assert daemon.store.load().records == 0


#: Specs the suite, CI and the benchmark submit, plus ``jobs: 0`` (one
#: worker per CPU, as on the CLI).
GOOD_SPECS = [
    ("run", {}),
    ("run", {"jobs": 0}),
    ("run", {"key": "lst1", "scale": "ci"}),
    ("run", {"key": "fig2", "scale": "ci", "faults": "lossy", "seed": 3}),
    ("run", {"key": "lst1", "_wedge_attempts": 1}),
    ("run", {"key": "lst1", "seed": None}),
    ("faults", {"nranks": 4, "repetitions": 1, "severities": "off,lossy"}),
    ("campaign", {"selector": "mixed-chaos", "budget": 8}),
    ("autopilot", {"budget": 3, "seed": 1, "pack": "mixed-chaos"}),
]


def test_good_specs_are_submitted_as_given(served):
    daemon, url, _ = served
    for kind, spec in GOOD_SPECS:
        status, doc = _post_job(url, kind, spec)
        assert status == 200, (spec, doc)
        job = daemon.store.get(doc["job_id"])
        assert (job.kind, job.spec) == (kind, spec)


class TestStartValidation:
    @pytest.mark.parametrize("flags, message", [
        (["--port", "70000"], "cannot bind port 70000"),
        (["--port", "-1"], "cannot bind port -1"),
        (["--poll", "-1"], "poll interval must be positive"),
        (["--poll", "0"], "poll interval must be positive"),
        (["--grace", "-1"], "drain grace must be >= 0"),
        (["--heartbeat", "5", "--lease-timeout", "2"],
         "must be shorter than the lease timeout"),
        (["--heartbeat", "2", "--lease-timeout", "2"],
         "must be shorter than the lease timeout"),
    ])
    def test_bad_start_flags_exit_2_without_traceback(
        self, tmp_path, flags, message,
    ):
        out = _cli("serve", "start", "--state-dir", str(tmp_path / "s"),
                   *flags, timeout=60)
        assert out.returncode == 2, out.stderr
        assert message in out.stderr
        assert "Traceback" not in out.stderr

    def test_zero_grace_and_ephemeral_port_are_valid(self, tmp_path):
        DaemonConfig(state_dir=tmp_path, port=0, grace=0.0).validate()


@pytest.mark.slow
class TestEndToEnd:
    def test_submit_wait_result_metrics_over_http(self, tmp_path):
        daemon = ServeDaemon(DaemonConfig(
            state_dir=tmp_path / "state", workers=2,
            lease_timeout=30.0, heartbeat=0.2, poll=0.05,
        ))
        shutdown = threading.Event()
        server = start_api(daemon, shutdown, port=0)
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        loop = threading.Thread(
            target=daemon.run_forever, args=(shutdown,), daemon=True,
        )
        loop.start()
        try:
            job_id = sc.submit_job(
                "run", {"key": "lst1", "scale": "ci"}, url=url,
            )["job_id"]
            final = sc.wait_for_job(job_id, url=url, timeout=300.0,
                                    poll=0.1)
            assert final["status"] == "done", final
            digest = final["digests"]["run"]

            result = sc.job_result(job_id, url=url)
            assert result["digest"] == digest
            metrics = sc.job_metrics(job_id, url=url)
            assert metrics["digests"]["run"] == digest
            assert metrics["metrics_dir"] == str(daemon.store.metrics_dir)
            # The worker journaled the run: the tail endpoint serves it.
            lines = sc.job_journal(job_id, tail=5, url=url)["lines"]
            assert lines

            # `repro serve submit --wait` sees the same daemon and
            # exits 0 on done.
            out = _cli("serve", "submit", "run", "--key", "lst1",
                       "--scale", "ci", "--url", url, "--wait",
                       "--timeout", "300", "--json", timeout=360)
            assert out.returncode == 0, out.stderr
            waited = json.loads(out.stdout)
            assert waited["status"] == "done"
            assert waited["digests"]["run"] == digest

            # Both jobs were forked from one live template.
            template = sc.healthz(url=url)["template"]
            assert template["alive"] and template["forked"] == 2
            assert template["restarts"] == 0
            out = _cli("serve", "status", job_id, "--url", url)
            assert (f"worker template: pid {template['pid']} (alive), "
                    "2 forked, 0 restart(s)") in out.stdout
        finally:
            shutdown.set()
            loop.join(timeout=60)
            server.shutdown()
            server.server_close()

    def test_wedged_job_surfaces_requeue_over_http(self, tmp_path):
        daemon = ServeDaemon(DaemonConfig(
            state_dir=tmp_path / "state", workers=1,
            lease_timeout=1.0, heartbeat=0.1, poll=0.05,
        ))
        shutdown = threading.Event()
        server = start_api(daemon, shutdown, port=0)
        host, port = server.server_address[:2]
        url = f"http://{host}:{port}"
        loop = threading.Thread(
            target=daemon.run_forever, args=(shutdown,), daemon=True,
        )
        loop.start()
        try:
            job_id = sc.submit_job(
                "run",
                {"key": "lst1", "scale": "ci", "_wedge_attempts": 1},
                url=url,
            )["job_id"]
            final = sc.wait_for_job(job_id, url=url, timeout=300.0,
                                    poll=0.1)
            assert final["status"] == "done"
            assert final["requeues"] == 1
            assert final["last_requeue_reason"] == "lease-expired"
        finally:
            shutdown.set()
            loop.join(timeout=60)
            server.shutdown()
            server.server_close()
