"""The serve daemon's stdlib-only HTTP API.

A :class:`http.server.ThreadingHTTPServer` running in a daemon thread
next to the control loop.  Every response is JSON; every mutation is
one durable append to the job log, so the API adds no state of its
own — a client talking to a daemon that dies mid-request loses at
most the response, never the submit.  A submit or cancel then wakes
the control loop, so it acts at once instead of at its next poll.

Endpoints::

    GET  /healthz                     liveness, queue depths, template
    GET  /api/jobs                    all jobs (replayed view)
    POST /api/jobs                    submit {kind, spec} -> {job_id};
                                      400 on a spec the CLI rejects
    GET  /api/jobs/JOB                one job's status document
    GET  /api/jobs/JOB/journal?tail=N per-job run-journal tail (JSONL)
    GET  /api/jobs/JOB/result         final result document
    GET  /api/jobs/JOB/metrics        the job's metric-document digests
    POST /api/jobs/JOB/cancel         sticky cancel
    POST /api/drain                   stop leasing; daemon exits 75
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..cli import UsageError, job_command
from .store import ServeStoreError
from .daemon import ServeDaemon

__all__ = ["start_api"]


def _routes(daemon: ServeDaemon, shutdown: threading.Event):
    """Build the route table: (method, path parts) -> (status, doc)."""
    store = daemon.store

    def healthz() -> Tuple[int, Dict[str, Any]]:
        state = store.load()
        return 200, {
            "ok": True,
            "state_dir": str(store.state_dir),
            "daemon_id": daemon.daemon_id,
            "draining": daemon.draining,
            "workers": daemon.config.workers,
            "queue": state.by_status(),
            "records": state.records,
            "corrupt_records": state.corrupt_records,
            "store": store.health(state),
            "template": daemon.template.status(),
        }

    def list_jobs() -> Tuple[int, Dict[str, Any]]:
        state = store.load()
        return 200, {
            "jobs": [
                state.jobs[j].as_dict() for j in sorted(state.jobs)
            ],
        }

    def submit(body: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
        kind = body.get("kind")
        spec = body.get("spec") or {}
        if daemon.draining:
            return 409, {"error": "daemon is draining; not accepting jobs"}
        try:
            job_command(kind, spec)  # parses as what the worker runs
            job_id = store.submit(kind, spec)
        except (UsageError, ServeStoreError) as exc:
            return 400, {"error": str(exc)}
        daemon.wake()
        return 200, {"job_id": job_id, "kind": kind}

    def get_job(job_id: str) -> Tuple[int, Dict[str, Any]]:
        state = store.load()
        try:
            doc = store.get(job_id, state).as_dict()
        except ServeStoreError as exc:
            return 404, {"error": str(exc)}
        doc["store"] = store.health(state)
        doc["template"] = daemon.template.status()
        return 200, doc

    def journal_tail(
        job_id: str, tail: Optional[int]
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            store.get(job_id)
        except ServeStoreError as exc:
            return 404, {"error": str(exc)}
        path = store.journal_path(job_id)
        if not path.exists():
            return 200, {"job_id": job_id, "lines": []}
        lines = path.read_text().splitlines()
        if tail is not None:
            lines = lines[-tail:]
        return 200, {"job_id": job_id, "lines": lines}

    def result(job_id: str) -> Tuple[int, Dict[str, Any]]:
        try:
            job = store.get(job_id)
        except ServeStoreError as exc:
            return 404, {"error": str(exc)}
        path = store.result_path(job_id)
        if not path.exists():
            return 409, {
                "error": f"{job_id} has no result yet "
                f"(status: {job.status})",
            }
        return 200, json.loads(path.read_text())

    def metrics(job_id: str) -> Tuple[int, Dict[str, Any]]:
        try:
            job = store.get(job_id)
        except ServeStoreError as exc:
            return 404, {"error": str(exc)}
        return 200, {
            "job_id": job_id,
            "status": job.status,
            "digests": job.digests,
            "metrics_dir": str(store.metrics_dir),
        }

    def cancel(job_id: str) -> Tuple[int, Dict[str, Any]]:
        try:
            job = store.get(job_id)
        except ServeStoreError as exc:
            return 404, {"error": str(exc)}
        if job.terminal:
            return 409, {
                "error": f"{job_id} is already {job.status}",
            }
        store.job_cancelled(job_id)
        daemon.wake()
        return 200, {"job_id": job_id, "status": "cancelled"}

    def drain() -> Tuple[int, Dict[str, Any]]:
        shutdown.set()
        return 200, {"draining": True}

    return {
        "healthz": healthz, "list_jobs": list_jobs, "submit": submit,
        "get_job": get_job, "journal_tail": journal_tail,
        "result": result, "metrics": metrics, "cancel": cancel,
        "drain": drain,
    }


class _Handler(BaseHTTPRequestHandler):
    routes: Dict[str, Any] = {}  # injected by start_api

    # Silence the default per-request stderr logging.
    def log_message(self, fmt: str, *args: Any) -> None:  # noqa: A003
        pass

    def _reply(self, status: int, doc: Dict[str, Any]) -> None:
        body = json.dumps(doc, indent=2, sort_keys=True).encode() + b"\n"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> Optional[Dict[str, Any]]:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        try:
            doc = json.loads(self.rfile.read(length))
        except (ValueError, UnicodeDecodeError):
            return None
        return doc if isinstance(doc, dict) else None

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        r = self.routes
        if parts == ["healthz"]:
            self._reply(*r["healthz"]())
        elif parts == ["api", "jobs"]:
            self._reply(*r["list_jobs"]())
        elif len(parts) == 3 and parts[:2] == ["api", "jobs"]:
            self._reply(*r["get_job"](parts[2]))
        elif len(parts) == 4 and parts[:2] == ["api", "jobs"]:
            job_id, leaf = parts[2], parts[3]
            if leaf == "journal":
                qs = parse_qs(url.query)
                tail = None
                if "tail" in qs:
                    try:
                        tail = max(0, int(qs["tail"][0]))
                    except ValueError:
                        self._reply(400, {"error": "tail must be an int"})
                        return
                self._reply(*r["journal_tail"](job_id, tail))
            elif leaf == "result":
                self._reply(*r["result"](job_id))
            elif leaf == "metrics":
                self._reply(*r["metrics"](job_id))
            else:
                self._reply(404, {"error": f"no such endpoint {self.path!r}"})
        else:
            self._reply(404, {"error": f"no such endpoint {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        r = self.routes
        if parts == ["api", "jobs"]:
            body = self._body()
            if body is None:
                self._reply(400, {"error": "request body must be a JSON "
                                           "object"})
                return
            self._reply(*r["submit"](body))
        elif parts == ["api", "drain"]:
            self._reply(*r["drain"]())
        elif (
            len(parts) == 4 and parts[:2] == ["api", "jobs"]
            and parts[3] == "cancel"
        ):
            self._reply(*r["cancel"](parts[2]))
        else:
            self._reply(404, {"error": f"no such endpoint {self.path!r}"})


class _Server(ThreadingHTTPServer):
    # In-flight responses must outlive the control loop: a client that
    # POSTs /api/drain wakes the main loop *immediately*, and the
    # daemon must not exit before that client has read its response.
    # Non-daemon handler threads joined on server_close() guarantee
    # every accepted request is answered in full.
    daemon_threads = False
    block_on_close = True


def start_api(
    daemon: ServeDaemon,
    shutdown: threading.Event,
    host: Optional[str] = None,
    port: Optional[int] = None,
) -> ThreadingHTTPServer:
    """Start the HTTP server in a daemon thread; returns the server
    (``server.server_address`` carries the bound port — pass port 0 in
    tests for an ephemeral one).  Stop it with ``server.shutdown()``
    followed by ``server.server_close()`` — the close joins in-flight
    request threads, so responses are never torn by process exit."""
    handler = type("BoundHandler", (_Handler,), {
        "routes": _routes(daemon, shutdown),
    })
    server = _Server(
        (daemon.config.host if host is None else host,
         daemon.config.port if port is None else port),
        handler,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server
