"""The per-job worker process and the template it is forked from.

The daemon keeps one *template* process (:func:`template_main`) that
has imported what a ``run`` job needs and then waits on a control
pipe.  For each lease the template forks a worker, which runs
:func:`main` — the same body ``python -m repro.serve.worker STATE JOB``
runs — so a job pays a fork instead of an interpreter start and a
numpy import.  The lease carries the job's kind and spec, so a forked
worker starts without replaying the job log; the command line reads
the job from the log.  The worker's lifecycle is deliberately
*independent* of the daemon's: it talks to the world only through the
shared state directory (heartbeats into ``jobs.log``, checkpoints into
its per-job run journal, the final document into ``results/``), so a
daemon that dies mid-job leaves an orphan worker that keeps making
durable progress — the restarted daemon sees its fresh heartbeats and
leaves the lease alone.

A job runs the command-table entry of ``repro run``, ``repro faults``,
``repro campaign run`` or ``repro campaign autopilot``: its spec is
parsed by the CLI's own parser (:func:`repro.cli.job_command`), the
per-job journal is passed as ``--resume`` when a previous attempt left
a valid segment and as ``--journal`` otherwise, and the document is
collected as ``--metrics-dir`` would, so a job's metric-document
``digest`` is identical to the CLI's at any job count.

Exit contract: 0 = job_done appended; 1 = job_failed appended (typed
terminal error); 75 = drained on SIGTERM with the journal checkpointed
(the daemon requeues the job without burning an attempt).  A SIGKILL'd
worker appends nothing — its lease goes stale and the daemon
re-dispatches with backoff.

Spec keys starting with ``_`` are test levers, dropped by the parse
(they never reach the engine, so they cannot perturb digests).
``_wedge_attempts: K`` makes attempts ``<= K`` wedge — stop
heartbeating and hang until killed — which is how the test suite
produces a deterministic lease expiry.

Template protocol: one JSON object per line.  The daemon writes
``{"job", "attempt", "heartbeat", "kind", "spec"}`` to fork a worker
and ``{"go": pid}`` once it has appended that worker's
``job_leased``; the template answers a fork with ``{"pid"}``, a go
with ``{"pid", "started"}`` and each reaped worker with ``{"pid",
"exit"}``.  A forked worker waits on its own gate pipe until the go,
so its first record can never precede its lease, and once the go is
answered it runs even if the template dies.  The template
is single-threaded, holds no store lock or log fd, and has run nothing,
so every process-global a worker inherits is at import-time state.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import select
import signal
import sys
import threading
import time
from types import SimpleNamespace
from typing import Any, Dict, Optional, Tuple

from ..core.atomicio import atomic_write_text, canonical_json
from ..exec.journal import RESUMABLE_EXIT_CODE
from .store import JobStore

__all__ = ["execute_job", "finalize_job", "main", "template_main"]

#: Modules the template imports before its first fork: the CLI, whose
#: parser every job's spec goes through (and with it the ``run`` path),
#: and the collector.  Other job kinds import lazily inside the worker,
#: so the template stays no larger than a cold worker.
TEMPLATE_PRELOAD = ("repro.cli", "repro.obs.collector")

#: Default seconds between worker heartbeats into the job log.
DEFAULT_HEARTBEAT_S = 1.0


class _Heartbeat:
    """Background thread appending ``job_heartbeat`` records until
    stopped; the lease-freshness signal the daemon watches."""

    def __init__(self, store: JobStore, job_id: str, interval: float) -> None:
        self._store = store
        self._job_id = job_id
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                self._store.job_heartbeat(self._job_id, os.getpid())
            except OSError:  # pragma: no cover - state dir vanished
                return
            self._stop.wait(self._interval)

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()


def _job_summary(kind: str, doc: Dict[str, Any]) -> Dict[str, Any]:
    """The small status payload recorded in ``job_done`` (the full
    document lives in ``results/``)."""
    summary: Dict[str, Any] = {"kind": kind}
    if kind == "run":
        summary["experiments"] = doc.get("meta", {}).get("keys")
    elif kind == "campaign":
        summary["scenarios"] = len(doc.get("scenarios") or [])
    elif kind == "autopilot":
        summary["scenarios"] = len(doc.get("scenarios") or [])
    elif kind == "faults":
        summary["metrics"] = len(doc.get("metrics") or {})
    return summary


def execute_job(
    store: JobStore,
    job_id: str,
    kind: str,
    spec: Dict[str, Any],
    cancel: threading.Event,
) -> Tuple[Optional[Dict[str, Any]], bool]:
    """Run one job's command-table entry to its metric document.

    Returns ``(document, interrupted)`` — ``interrupted=True`` means a
    graceful drain checkpointed the job instead of finishing it.  What
    the command says on stderr is kept out of the worker's; a command
    that ends in a usage error raises it as :class:`UsageError`.
    """
    from ..cli import UsageError, job_command

    command, args = job_command(kind, spec, store.journal_path(job_id))
    said = io.StringIO()
    with contextlib.redirect_stderr(said):
        doc, code = command.run(args, SimpleNamespace(event=cancel), None)
    if code == RESUMABLE_EXIT_CODE:
        return None, True
    if doc is None:
        raise UsageError(said.getvalue().strip() or f"exit {code}")
    return command.collect(doc), False


def finalize_job(
    store: JobStore, job_id: str, kind: str, doc: Dict[str, Any]
) -> str:
    """Persist a finished job's document — metric store, ``results/``,
    ``job_done`` — and return the metric-document digest.  Shared by
    the worker and the chaos serve workload so both finalize jobs with
    byte-identical artifacts."""
    from ..obs.collector import MetricsStore, document_digest

    digest = document_digest(doc)
    MetricsStore(store.metrics_dir).write(doc)
    summary = _job_summary(kind, doc)
    atomic_write_text(
        store.result_path(job_id),
        canonical_json({
            "job_id": job_id,
            "kind": kind,
            "digest": digest,
            "document": doc,
        }) + "\n",
    )
    store.job_done(job_id, {kind: digest}, result=summary)
    return digest


def _wedge() -> None:  # pragma: no cover - killed, never returns
    """Test lever: simulate a worker whose process lives but whose
    progress (and heartbeat) stopped — the lease-expiry trigger."""
    while True:
        time.sleep(3600)


def main(
    argv: Optional[list] = None,
    kind: Optional[str] = None,
    spec: Optional[Dict[str, Any]] = None,
) -> int:
    """Run one leased job.  A forked worker passes the ``kind`` and
    ``spec`` its lease carries; without them the job is read from the
    log."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.worker",
        description="execute one leased serve job (daemon-internal)",
    )
    parser.add_argument("state_dir")
    parser.add_argument("job_id")
    parser.add_argument("--attempt", type=int, default=1)
    parser.add_argument("--heartbeat", type=float,
                        default=DEFAULT_HEARTBEAT_S)
    args = parser.parse_args(argv)

    store = JobStore(args.state_dir)
    if kind is None:
        job = store.get(args.job_id)
        kind, spec = job.kind, job.spec

    cancel = threading.Event()

    def _on_term(signum: int, frame: Any) -> None:
        cancel.set()

    signal.signal(signal.SIGTERM, _on_term)
    signal.signal(signal.SIGINT, _on_term)

    wedge_until = int(spec.get("_wedge_attempts", 0))
    if args.attempt <= wedge_until:
        # Deliberately no heartbeat: the daemon must observe a stale
        # lease and re-dispatch.  (Test-only path.)
        _wedge()

    heartbeat = _Heartbeat(store, args.job_id, args.heartbeat)
    heartbeat.start()
    try:
        doc, interrupted = execute_job(
            store, args.job_id, kind, spec, cancel
        )
    except Exception as exc:  # typed terminal state, not a wedged queue
        heartbeat.stop()
        store.job_failed(args.job_id, f"{type(exc).__name__}: {exc}")
        print(f"{args.job_id} failed: {exc}", file=sys.stderr)
        return 1
    heartbeat.stop()
    if interrupted:
        # Drained on SIGTERM: the per-job journal holds every fsync'd
        # completion; the daemon requeues without burning an attempt.
        print(f"{args.job_id} drained (checkpointed)", file=sys.stderr)
        return RESUMABLE_EXIT_CODE

    try:
        finalize_job(store, args.job_id, kind, doc)
    except OSError as exc:
        # A result write that hits a full/sick disk must degrade to a
        # typed terminal record, not an unexplained traceback that
        # leaves the lease to expire (found by the chaos sweep).
        store.job_failed(
            args.job_id, f"ResultWriteError: {type(exc).__name__}: {exc}"
        )
        print(f"{args.job_id} failed writing result: {exc}",
              file=sys.stderr)
        return 1
    return 0


def _worker_child(
    state_dir: str, lease: Dict[str, Any], gate: int, inherited: list
) -> int:
    """The forked side of one lease: detach from the template, wait
    for the daemon's ``go``, then run :func:`main`."""
    os.setsid()  # orphan-tolerant: survives template and daemon death
    signal.set_wakeup_fd(-1)
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGCHLD):
        signal.signal(sig, signal.SIG_DFL)
    devnull = os.open(os.devnull, os.O_RDWR)
    for fd in (0, 1, 2):
        os.dup2(devnull, fd)  # also drops the control pipe
    os.close(devnull)
    for fd in inherited:
        os.close(fd)
    if not os.read(gate, 1):
        # The template exited before the daemon recorded this lease:
        # run nothing, so no record of ours can precede a job_leased.
        return RESUMABLE_EXIT_CODE
    os.close(gate)
    return main([
        state_dir, lease["job"],
        "--attempt", str(lease["attempt"]),
        "--heartbeat", str(lease["heartbeat"]),
    ], kind=lease["kind"], spec=lease["spec"])


def template_main(state_dir: str) -> int:
    """Preload the ``run`` path and build the CLI parser, then fork one
    worker per lease read from stdin until stdin closes (the daemon
    drained or died; running workers live on in their own sessions)."""
    for name in TEMPLATE_PRELOAD:
        importlib.import_module(name)
    from ..cli import job_command

    job_command("run", {})  # builds the parser every fork then inherits
    wake_r, wake_w = os.pipe()
    for fd in (wake_r, wake_w):
        os.set_blocking(fd, False)
    signal.set_wakeup_fd(wake_w)
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)
    gates: Dict[int, int] = {}  # worker pid -> write end of its gate
    pending = b""

    def reply(msg: Dict[str, Any]) -> None:
        os.write(1, json.dumps(msg).encode() + b"\n")

    while True:
        ready, _, _ = select.select([0, wake_r], [], [])
        if wake_r in ready:
            os.read(wake_r, 4096)
            while True:
                try:
                    pid, status = os.waitpid(-1, os.WNOHANG)
                except ChildProcessError:
                    break
                if not pid:
                    break
                gate = gates.pop(pid, None)
                if gate is not None:
                    os.close(gate)
                reply({"pid": pid,
                       "exit": os.waitstatus_to_exitcode(status)})
        if 0 not in ready:
            continue
        data = os.read(0, 65536)
        if not data:
            return 0
        *lines, pending = (pending + data).split(b"\n")
        for line in lines:
            msg = json.loads(line)
            if "go" in msg:
                gate = gates.pop(msg["go"], None)
                if gate is not None:
                    os.write(gate, b"g")
                    os.close(gate)
                reply({"pid": msg["go"], "started": True})
                continue
            gate_r, gate_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                # Whatever happens, the worker never returns into this
                # loop or runs the template's exit handlers.
                code = 1
                try:
                    code = _worker_child(
                        state_dir, msg, gate_r,
                        [wake_r, wake_w, gate_w, *gates.values()],
                    )
                finally:
                    os._exit(code)
            os.close(gate_r)
            gates[pid] = gate_w
            reply({"pid": pid})


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
