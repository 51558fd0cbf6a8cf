"""The serve daemon: lease, supervise, requeue, drain.

The control loop is a single idempotent :meth:`ServeDaemon.tick` —
replay the job log, reap finished workers, expire stale leases,
lease what's leasable — run repeatedly by :meth:`run_forever`.  All
state lives in the log, none in the process, so the loop is trivially
crash-tolerant: a daemon killed between any two ticks restarts into
exactly the state the log describes.

Ticks run on events: a submit, cancel or drain through the API
(:meth:`ServeDaemon.wake`) and a worker's exit report from the
template wake the loop at once.  ``poll`` is only the longest it
sleeps between ticks, which is what still drives lease expiry,
backoff gates and noticing a dead template.

Supervision rules (the job lifecycle state machine, see
``docs/SERVE.md``):

* a worker that *exits 75* drained on SIGTERM — its job is requeued
  at the **same** attempt with no backoff (a drain is the operator's
  doing, not the job's fault);
* a worker that *dies* (crash, SIGKILL) leaves its job leased; the
  daemon requeues it at ``attempt+1`` after the deterministic backoff
  :func:`~repro.serve.store.job_backoff` — the same happens when an
  orphan worker's *heartbeat goes stale* (lease expiry);
* a job whose leases expire ``max_attempts`` times degrades to the
  typed terminal ``failed`` state ("LeaseExpired: ...") instead of
  wedging the queue;
* a *cancelled* job's worker is terminated; the cancel record is
  sticky, so even a racing ``job_done`` cannot revive the job.

Workers are orphan-tolerant by design: a daemon SIGKILL'd mid-job
leaves its workers running; on restart the daemon sees their fresh
heartbeats and leaves the leases alone — re-leasing would double-run
the job.  Only a *stale* lease (no heartbeat inside the lease
timeout) is ever re-dispatched.

Workers are forked from one *worker template* (see
:mod:`repro.serve.worker`), a process the daemon starts on its first
tick that has already imported the ``run`` path.  A lease hands the
template the job's kind and spec, so a worker never replays the job
log to find its job.  Each worker runs in its own session, so a
template that dies leaves its workers running; the daemon then
watches them like a predecessor's orphans and starts a new template
for the next lease.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from ..exec.journal import RESUMABLE_EXIT_CODE
from .store import JobRecord, JobStore, ServeState, job_backoff

__all__ = ["DaemonConfig", "ServeDaemon"]

#: Seconds to wait for the template's answer to a lease (its first
#: answer waits out its imports) and for its exit on drain.
_TEMPLATE_TIMEOUT_S = 60.0

#: The template's entry point.  The command line names
#: ``repro.serve.worker``, as its forked workers' do.
_TEMPLATE_MAIN = (
    "import sys; from repro.serve.worker import template_main; "
    "sys.exit(template_main(sys.argv[1]))"
)


@dataclass
class DaemonConfig:
    """Everything `repro serve start` can tune."""

    state_dir: Union[str, os.PathLike]
    host: str = "127.0.0.1"
    port: int = 8750
    workers: int = 2
    lease_timeout: float = 30.0
    heartbeat: float = 1.0
    poll: float = 0.5
    max_attempts: int = 3
    grace: float = 5.0

    def validate(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(
                f"cannot bind port {self.port}: must be 0-65535"
            )
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.lease_timeout <= 0:
            raise ValueError("lease timeout must be positive")
        if self.heartbeat <= 0:
            raise ValueError("heartbeat interval must be positive")
        if self.heartbeat >= self.lease_timeout:
            # Every lease would go stale between two heartbeats.
            raise ValueError(
                f"heartbeat interval ({self.heartbeat:g}s) must be "
                f"shorter than the lease timeout ({self.lease_timeout:g}s)"
            )
        if self.poll <= 0:
            raise ValueError("poll interval must be positive")
        if self.max_attempts < 1:
            raise ValueError("max attempts must be >= 1")
        if self.grace < 0:
            raise ValueError("drain grace must be >= 0")


class _Template:
    """The daemon's end of the worker template's control pipe."""

    def __init__(self, state_dir: Path) -> None:
        self.state_dir = state_dir
        self.proc: Optional[subprocess.Popen] = None
        #: Workers forked, and templates started to replace a dead one.
        self.forked = 0
        self.restarts = 0
        self._pending = b""
        self._eof = False
        # Answers not yet claimed, and worker pid -> exit status.
        self._forks: List[int] = []
        self._started: List[int] = []
        self._exits: Dict[int, int] = {}

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def status(self) -> Dict[str, Any]:
        """The ``template`` block of ``/healthz`` and ``serve status``."""
        return {
            "pid": None if self.proc is None else self.proc.pid,
            "alive": self.alive(),
            "forked": self.forked,
            "restarts": self.restarts,
        }

    def ensure(self) -> None:
        """Start the template unless one is running."""
        if self.alive():
            return
        if self.proc is not None:
            self.pump()  # what it reported before it died
            self.proc.stdin.close()
            self.proc.stdout.close()
            self.restarts += 1
        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src if not existing else f"{src}{os.pathsep}{existing}"
        )
        self._pending = b""
        self._eof = False
        self._forks.clear()
        self._started.clear()
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _TEMPLATE_MAIN, str(self.state_dir)],
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            bufsize=0,  # requests go out whole; closing writes nothing
            start_new_session=True,
        )

    def fileno(self) -> Optional[int]:
        """The pipe the template reports on, while it can still say
        something (``None`` once it has read EOF)."""
        if self.proc is None or self.proc.stdout.closed or self._eof:
            return None
        return self.proc.stdout.fileno()

    def pump(self, timeout: float = 0.0) -> None:
        """Read what the template has reported, waiting up to
        ``timeout`` seconds for the first line."""
        fd = self.fileno()
        if fd is None:
            return
        while select.select([fd], [], [], timeout)[0]:
            data = os.read(fd, 65536)
            if not data:
                self._eof = True  # the template is gone
                return
            *lines, self._pending = (self._pending + data).split(b"\n")
            for line in lines:
                msg = json.loads(line)
                if "exit" in msg:
                    self._exits[msg["pid"]] = msg["exit"]
                elif "started" in msg:
                    self._started.append(msg["pid"])
                else:
                    self._forks.append(msg["pid"])
            timeout = 0.0

    def _ask(self, msg: Dict[str, Any], answers: List[int]) -> int:
        """Send one request and wait for its answer in ``answers``."""
        self.proc.stdin.write(json.dumps(msg).encode() + b"\n")
        deadline = time.monotonic() + _TEMPLATE_TIMEOUT_S
        while not answers:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self.alive():
                raise OSError(f"worker template did not answer {msg}")
            self.pump(min(remaining, 0.5))
        return answers.pop(0)

    def fork(
        self, job: JobRecord, attempt: int, heartbeat: float
    ) -> "_Worker":
        """Fork a worker for one lease; it waits for :meth:`release`."""
        pid = self._ask(
            {"job": job.job_id, "attempt": attempt, "heartbeat": heartbeat,
             "kind": job.kind, "spec": job.spec},
            self._forks,
        )
        self.forked += 1
        return _Worker(self, pid)

    def release(self, pid: int) -> None:
        """Let a forked worker start: its lease is on record."""
        try:
            self._ask({"go": pid}, self._started)
        except OSError:
            # The template died first: the worker exits unstarted, and
            # its lease goes stale and is re-dispatched.
            pass

    def exit_status(self, pid: int) -> Optional[int]:
        self.pump()
        return self._exits.pop(pid, None)

    def reported(self, pids: Set[int]) -> bool:
        """True when an exit of one of ``pids`` has been read off the
        pipe but not yet claimed."""
        return not pids.isdisjoint(self._exits)

    def close(self) -> None:
        """Close the control pipe and reap the template."""
        if self.proc is None:
            return
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=_TEMPLATE_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # pragma: no cover - wedged
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class _Worker:
    """One forked worker, with the part of the ``Popen`` interface the
    daemon uses.  Its exit status arrives through the template that
    forked it, so once that template has died an unreported worker is
    :meth:`orphaned`: :meth:`poll` stays ``None`` and :meth:`wait`
    returns ``None``."""

    def __init__(self, template: _Template, pid: int) -> None:
        self._template = template
        self._origin = template.proc
        self.pid = pid
        self.returncode: Optional[int] = None

    def poll(self) -> Optional[int]:
        if self.returncode is None:
            self.returncode = self._template.exit_status(self.pid)
        return self.returncode

    def orphaned(self) -> bool:
        # Origin first: a template that is dead has already written
        # every exit it will ever report.
        return self._origin.poll() is not None and self.poll() is None

    def wait(self, timeout: Optional[float] = None) -> Optional[int]:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            code = self.poll()
            if code is not None or self.orphaned():
                return code
            remaining = 0.5
            if deadline is not None:
                remaining = min(remaining, deadline - time.monotonic())
                if remaining <= 0:
                    raise subprocess.TimeoutExpired(str(self.pid), timeout)
            self._template.pump(remaining)

    def _signal(self, sig: int) -> None:
        if self.poll() is None:
            try:
                os.kill(self.pid, sig)
            except ProcessLookupError:  # pragma: no cover - raced its exit
                pass

    def kill(self) -> None:
        self._signal(signal.SIGKILL)

    def terminate(self) -> None:
        self._signal(signal.SIGTERM)


class ServeDaemon:
    """The lease/requeue/backoff supervisor over one state directory."""

    def __init__(self, config: DaemonConfig) -> None:
        config.validate()
        self.config = config
        self.store = JobStore(config.state_dir)
        self.draining = False
        #: This daemon instance's identity, stamped (digest-neutrally)
        #: onto every lease record it writes.  Unique across restarts
        #: even under pid reuse — the arbitration hook multi-daemon
        #: state-dir sharing builds on.
        self.daemon_id = f"d-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        #: The process this daemon forks its workers from.
        self.template = _Template(self.store.state_dir)
        #: Workers forked for this daemon, by job id.
        self._procs: Dict[str, _Worker] = {}
        #: Jobs leased by *this* process — distinguishes a lease we
        #: watched die (``lease-expired``) from one inherited from a
        #: predecessor daemon (``daemon-restart``).
        self._mine: Set[str] = set()
        #: The socket pair :meth:`wake` writes to while
        #: :meth:`run_forever` runs.
        self._wake: Optional[Tuple[socket.socket, socket.socket]] = None
        self._wake_lock = threading.Lock()
        self._log = lambda msg: print(msg, file=sys.stderr, flush=True)
        # A predecessor may have died between temp-write and rename;
        # its orphaned temp files are dead weight, sweep them now.
        swept = self.store.sweep_orphans()
        if swept:
            self._log(f"swept {len(swept)} orphaned temp file(s)")

    # -- helpers -----------------------------------------------------------
    def _requeue(self, job_id: str, attempt: int, reason: str) -> None:
        """Requeue or, past the attempt budget, fail terminally."""
        if reason == "drain":
            # Operator-initiated: same attempt, immediately leasable.
            self.store.job_requeued(job_id, attempt, "drain", 0.0)
            return
        if attempt >= self.config.max_attempts:
            self.store.job_failed(
                job_id,
                f"LeaseExpired: no heartbeat within "
                f"{self.config.lease_timeout:g}s on attempt {attempt}; "
                f"{self.config.max_attempts} attempt(s) exhausted",
            )
            self._log(f"{job_id}: failed after {attempt} expired lease(s)")
            return
        # The record carries the attempt that just failed; the next
        # lease is attempt+1.  Delay is the pure (job_id, attempt)
        # backoff.
        delay = job_backoff(job_id, attempt)
        self.store.job_requeued(job_id, attempt, reason, delay)
        self._log(
            f"{job_id}: requeued ({reason}), attempt {attempt + 1} "
            f"in {delay:.2f}s"
        )

    @staticmethod
    def _pid_alive(pid: Optional[int]) -> bool:
        if not pid:
            return False
        try:
            os.kill(pid, 0)
        except (OSError, ProcessLookupError):
            return False
        return True

    # -- the control loop --------------------------------------------------
    def tick(self, now: Optional[float] = None) -> ServeState:
        """One supervision pass; returns the replayed state it acted on."""
        now = time.time() if now is None else now
        state = self.store.load()

        # 1. Reap workers this daemon owns.
        exits: Dict[str, int] = {}
        for job_id, proc in list(self._procs.items()):
            code = proc.poll()
            if code is None:
                if proc.orphaned():
                    # Its template died, so no exit status will come:
                    # watch it like a predecessor's orphan (heartbeat
                    # staleness, then ``_pid_alive``).
                    del self._procs[job_id]
                    self._log(f"{job_id}: worker template died; pid "
                              f"{proc.pid} left to lease expiry")
                continue
            del self._procs[job_id]
            exits[job_id] = code
        if exits:
            # A worker appends its outcome before it exits: a state
            # loaded before the exit was seen may lack that record,
            # and would requeue a finished job.
            state = self.store.load()
        for job_id, code in exits.items():
            job = state.jobs.get(job_id)
            if job is None or job.status != "leased":
                continue  # worker recorded its own outcome (or cancel won)
            if code == RESUMABLE_EXIT_CODE:
                self._requeue(job_id, job.attempt, "drain")
            else:
                # Crashed/killed without a terminal record: the lease
                # is dead the moment the process is — no need to wait
                # out the timeout.
                self._requeue(job_id, job.attempt, "lease-expired")
            state = self.store.load()

        # 2. Kill workers of cancelled jobs (no checkpoint courtesy —
        # the cancel record is sticky, the work is unwanted).
        for job_id, proc in list(self._procs.items()):
            job = state.jobs.get(job_id)
            if job is not None and job.status == "cancelled":
                proc.kill()
                proc.wait()
                del self._procs[job_id]

        # 3. Expire stale leases: a worker (ours or an orphan's) whose
        # heartbeat stopped inside the lease timeout.  The worker is
        # killed before the requeue so two workers never run one job.
        requeued = False
        for job in list(state.jobs.values()):
            if not job.lease_stale(now):
                continue
            proc = self._procs.pop(job.job_id, None)
            if proc is not None:
                proc.kill()
                proc.wait()
            elif self._pid_alive(job.worker_pid):
                try:
                    os.kill(job.worker_pid, signal.SIGKILL)  # type: ignore[arg-type]
                except OSError:  # pragma: no cover - raced its exit
                    pass
            # The lease record's daemon stamp is the durable arbiter
            # of whose lease this was; ``_mine`` covers logs written
            # before the stamp existed.
            reason = (
                "lease-expired"
                if job.daemon_id == self.daemon_id
                or job.job_id in self._mine
                else "daemon-restart"
            )
            self._requeue(job.job_id, job.attempt, reason)
            requeued = True
        if requeued:
            state = self.store.load()

        # 4. Lease queued jobs into free worker slots (oldest first).
        if not self.draining:
            self.template.ensure()
            busy = sum(1 for j in state.jobs.values() if j.status == "leased")
            leased_any = False
            for job in sorted(
                (j for j in state.jobs.values() if j.leasable(now)),
                key=lambda j: j.job_id,
            ):
                if busy >= self.config.workers:
                    break
                attempt = job.attempt + 1
                try:
                    proc = self.template.fork(
                        job, attempt, self.config.heartbeat
                    )
                except OSError as exc:
                    # The next tick starts a fresh template.
                    self._log(f"{job.job_id}: not leased: {exc}")
                    break
                try:
                    self.store.job_leased(
                        job.job_id, attempt, proc.pid,
                        self.config.lease_timeout, daemon_id=self.daemon_id,
                    )
                except BaseException:
                    proc.kill()  # never run a job without its lease
                    raise
                self.template.release(proc.pid)
                self._procs[job.job_id] = proc
                self._mine.add(job.job_id)
                busy += 1
                leased_any = True
                self._log(
                    f"{job.job_id}: leased to pid {proc.pid} "
                    f"(attempt {attempt})"
                )
            if leased_any:
                state = self.store.load()
        return state

    # -- lifecycle ---------------------------------------------------------
    def wake(self) -> None:
        """Make :meth:`run_forever` tick now rather than at the end of
        its poll.  Safe from any thread; a no-op while the loop is not
        running."""
        with self._wake_lock:
            if self._wake is None:
                return
            try:
                self._wake[1].send(b"\0")
            except BlockingIOError:
                pass  # the loop has plenty of wakes pending already

    def _sleep(self, wake_r: socket.socket) -> None:
        """Wait for a wake, a report from the template, or the end of
        the poll, whichever comes first."""
        if self.template.reported({p.pid for p in self._procs.values()}):
            return  # an exit was read during the tick: reap it now
        pipe = self.template.fileno()
        fds = [wake_r] if pipe is None else [wake_r, pipe]
        ready = select.select(fds, [], [], self.config.poll)[0]
        if pipe in ready:
            # Read it now: a pipe at EOF stays readable, and once read
            # the template's fileno() no longer offers it.
            self.template.pump()

    def run_forever(
        self, shutdown: Optional[threading.Event] = None
    ) -> int:
        """Tick until ``shutdown`` fires, then drain.  Returns the
        process exit status (75 when unfinished jobs remain — the
        resumable contract)."""
        shutdown = shutdown or threading.Event()
        wake = socket.socketpair()
        for sock in wake:
            sock.setblocking(False)
        with self._wake_lock:
            self._wake = wake
        # Setting ``shutdown`` (a signal handler, the API's drain)
        # wakes the loop as well.
        threading.Thread(
            target=lambda: shutdown.wait() and self.wake(), daemon=True,
        ).start()
        try:
            while not shutdown.is_set():
                # Clear before the tick, so a wake during it is kept.
                try:
                    while wake[0].recv(4096):
                        pass
                except BlockingIOError:
                    pass
                self.tick()
                self._sleep(wake[0])
        finally:
            with self._wake_lock:
                self._wake = None
                for sock in wake:
                    sock.close()
        return self.drain()

    def drain(self) -> int:
        """Graceful shutdown: stop leasing, SIGTERM workers so they
        checkpoint, requeue what they hand back, report 75 if work
        remains."""
        self.draining = True
        for proc in self._procs.values():
            proc.terminate()
        deadline = time.monotonic() + self.config.grace
        for proc in list(self._procs.values()):
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        # Final reap pass records drain requeues for handed-back jobs.
        state = self.tick()
        # Reaping the template folds its workers' CPU time and peak RSS
        # into this process's rusage.
        self.template.close()
        unfinished = state.unfinished()
        if unfinished:
            self._log(
                f"drained with {len(unfinished)} unfinished job(s); "
                f"resume with: repro serve start --state-dir "
                f"{self.store.state_dir}"
            )
            return RESUMABLE_EXIT_CODE
        self._log("drained clean: no unfinished jobs")
        return 0
