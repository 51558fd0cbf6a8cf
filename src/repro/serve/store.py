"""The serve daemon's durable job database: the schema of ``jobs.log``.

``jobs.log`` is a :class:`~repro.core.atomicio.RecordLog` — the single
source of truth for the queue, with that type's framing and recovery
rules.

State-dir layout::

    STATE_DIR/
      serve.lock          advisory FileLock serialising appends + ids
      jobs.log            the job log (this module)
      journals/JOB.jsonl  per-job run journal (repro.exec.journal)
      results/JOB.json    final result document (atomic_write_text)
      metrics/            MetricsStore of per-job metric documents

Record vocabulary (``type`` field):

* ``job_submitted`` — id, kind (run/faults/campaign/autopilot), spec
* ``job_leased``    — id, attempt, worker pid, lease timeout, and the
  leasing daemon's ``daemon_id`` (digest-neutral scheduling metadata:
  the arbitration hook multi-daemon sharing of one state dir needs)
* ``job_heartbeat`` — id, worker pid (refreshes lease freshness)
* ``job_requeued``  — id, next attempt, reason
  (``lease-expired`` / ``drain`` / ``daemon-restart``), backoff delay
* ``job_done``      — id, metric-document digest(s), result summary
* ``job_failed``    — id, typed terminal error
* ``job_cancelled`` — id (sticky: wins over a racing ``job_done``)

Replay is last-record-wins per job, with one exception: a cancel is
*sticky-terminal* — once a job is cancelled, no later record revives
it, so a worker that finishes after the cancel cannot resurrect the
job.  Every record carries a wall-clock ``t``; time drives *lease
expiry and backoff gating only*, never results or digests, so the
queue's outputs stay deterministic while its scheduling is temporal.
A record that lacks a field its type needs, or carries a field of the
wrong type, is corrupt.
"""

from __future__ import annotations

import copy
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Union

from ..core.atomicio import FileLock, RecordLog, conforms, orphan_tmp_files
from ..exec.backoff import backoff_delay

__all__ = [
    "JOB_KINDS",
    "JOB_TERMINAL_STATUSES",
    "JobRecord",
    "JobStore",
    "ServeState",
    "ServeStoreError",
    "job_backoff",
]

#: Job kinds a worker knows how to execute.
JOB_KINDS = ("run", "faults", "campaign", "autopilot")

#: Statuses from which a job never leaves.
JOB_TERMINAL_STATUSES = ("done", "failed", "cancelled")

#: Backoff knobs for lease re-dispatch (shared helper with the
#: scheduler's fresh-pool retries; see :mod:`repro.exec.backoff`).
REDISPATCH_BASE_S = 0.25
REDISPATCH_CAP_S = 30.0

#: Fields each record type needs before it can be folded.
_NEEDS = {
    "job_submitted": ("job", "kind"),
    "job_leased": ("job",),
    "job_heartbeat": ("job",),
    "job_requeued": ("job",),
    "job_done": ("job",),
    "job_failed": ("job",),
    "job_cancelled": ("job",),
}

#: The types a field must have, in any record that carries it.
_TYPES = {
    "job": str,
    "kind": str,
    "spec": (dict, type(None)),
    "t": (int, float),
    "attempt": int,
    "delay": (int, float),
    "timeout": (int, float, type(None)),
    "digests": (dict, type(None)),
}


class ServeStoreError(ValueError):
    """A job-store operation that cannot be honoured (unknown job,
    unknown kind, malformed state dir)."""


def job_backoff(job_id: str, attempt: int) -> float:
    """Seconds a re-dispatched job waits before becoming leasable —
    the pure deterministic function of ``(job_id, attempt)`` the
    acceptance contract demands."""
    return backoff_delay(
        job_id, attempt, base=REDISPATCH_BASE_S, cap=REDISPATCH_CAP_S
    )


@dataclass
class JobRecord:
    """One job's replayed view: the fold of its log records."""

    job_id: str
    kind: str
    spec: Dict[str, Any]
    submitted_at: float
    status: str = "queued"  # queued | leased | done | failed | cancelled
    attempt: int = 0  # completed lease attempts (0 = never leased)
    worker_pid: Optional[int] = None
    daemon_id: Optional[str] = None  # daemon that took the live lease
    lease_timeout: Optional[float] = None
    leased_at: Optional[float] = None
    heartbeat_at: Optional[float] = None
    not_before: float = 0.0  # backoff gate: leasable once now >= this
    requeues: int = 0
    last_requeue_reason: Optional[str] = None
    error: Optional[str] = None
    digests: Dict[str, str] = field(default_factory=dict)
    result_summary: Optional[Dict[str, Any]] = None
    finished_at: Optional[float] = None

    @property
    def terminal(self) -> bool:
        return self.status in JOB_TERMINAL_STATUSES

    def leasable(self, now: float) -> bool:
        return self.status == "queued" and now >= self.not_before

    def lease_stale(self, now: float) -> bool:
        """True when the job is leased but its worker has gone silent
        longer than the lease timeout — the re-dispatch trigger."""
        if self.status != "leased" or self.lease_timeout is None:
            return False
        freshest = max(self.heartbeat_at or 0.0, self.leased_at or 0.0)
        return now - freshest > self.lease_timeout

    def as_dict(self) -> Dict[str, Any]:
        """The status document the API and CLI render."""
        doc: Dict[str, Any] = {
            "job_id": self.job_id,
            "kind": self.kind,
            "status": self.status,
            "attempt": self.attempt,
            "requeues": self.requeues,
            "submitted_at": self.submitted_at,
            "spec": self.spec,
        }
        if self.worker_pid is not None and self.status == "leased":
            doc["worker_pid"] = self.worker_pid
        if self.daemon_id is not None and self.status == "leased":
            doc["daemon_id"] = self.daemon_id
        if self.last_requeue_reason:
            doc["last_requeue_reason"] = self.last_requeue_reason
        if self.error is not None:
            doc["error"] = self.error
        if self.digests:
            doc["digests"] = dict(self.digests)
        if self.result_summary is not None:
            doc["result"] = self.result_summary
        if self.finished_at is not None:
            doc["finished_at"] = self.finished_at
        return doc


@dataclass
class ServeState:
    """The whole queue, replayed from ``jobs.log``."""

    jobs: Dict[str, JobRecord] = field(default_factory=dict)
    records: int = 0
    corrupt_records: int = 0
    torn_tail: bool = False

    def by_status(self) -> Dict[str, int]:
        depths = {s: 0 for s in
                  ("queued", "leased", "done", "failed", "cancelled")}
        for job in self.jobs.values():
            depths[job.status] = depths.get(job.status, 0) + 1
        return depths

    def unfinished(self) -> List[JobRecord]:
        return [j for j in self.jobs.values() if not j.terminal]


def _fold(
    state: ServeState, records: List[Dict[str, Any]], owned: Set[str]
) -> None:
    """Fold decoded records into the replayed state; a record of the
    wrong shape counts as corrupt and changes nothing.

    ``owned`` names the records of ``state`` that no snapshot shares;
    any other record is copied before its first change, so a state
    handed out earlier never changes under its holder.
    """
    for rec in records:
        if conforms(rec, _NEEDS, _TYPES):
            state.records += 1
            _apply(state, rec, owned)
        else:
            state.corrupt_records += 1


def _apply(state: ServeState, rec: Dict[str, Any], owned: Set[str]) -> None:
    kind = rec["type"]
    t = float(rec.get("t", 0.0))
    if kind == "job_submitted":
        state.jobs[rec["job"]] = JobRecord(
            job_id=rec["job"],
            kind=rec["kind"],
            spec=rec.get("spec") or {},
            submitted_at=t,
            not_before=t,
        )
        owned.add(rec["job"])
        return
    job = state.jobs.get(rec.get("job", ""))
    if job is None:
        return  # orphan record (its submit was corrupt): ignore
    if job.status == "cancelled":
        return  # sticky-terminal: nothing revives a cancelled job
    if job.job_id not in owned:
        job = state.jobs[job.job_id] = copy.copy(job)
        owned.add(job.job_id)
    if kind == "job_leased":
        job.status = "leased"
        job.attempt = int(rec.get("attempt", job.attempt + 1))
        job.worker_pid = rec.get("pid")
        job.daemon_id = rec.get("daemon")
        job.lease_timeout = rec.get("timeout")
        job.leased_at = t
        job.heartbeat_at = t
    elif kind == "job_heartbeat":
        if job.status == "leased":
            job.heartbeat_at = t
    elif kind == "job_requeued":
        job.status = "queued"
        job.attempt = int(rec.get("attempt", job.attempt))
        job.worker_pid = None
        job.daemon_id = None
        job.requeues += 1
        job.last_requeue_reason = rec.get("reason")
        job.not_before = t + float(rec.get("delay", 0.0))
    elif kind == "job_done":
        job.status = "done"
        job.digests = dict(rec.get("digests") or {})
        job.result_summary = rec.get("result")
        job.error = None
        job.daemon_id = None  # the lease (and its daemon) is over
        job.finished_at = t
    elif kind == "job_failed":
        job.status = "failed"
        job.error = rec.get("error")
        job.daemon_id = None
        job.finished_at = t
    elif kind == "job_cancelled":
        job.status = "cancelled"
        job.worker_pid = None
        job.daemon_id = None
        job.finished_at = t
    # unknown record types are ignored (forward compatibility)


class JobStore:
    """Filesystem handle on one serve state directory.

    All appends and id assignment happen under the ``serve.lock``
    FileLock so the daemon, its workers, and any CLI client can share
    the log safely; reads replay the log without locking (the record
    framing makes a mid-append read safe — the unfinished line fails
    its checksum and is dropped as a torn tail).

    Each instance caches the fold of the log's complete lines and
    folds only the records its :class:`~repro.core.atomicio.RecordLog`
    reads past them; a thread lock guards the cache, so threads may
    share one store.  A new process always starts with a full replay.
    """

    LOCK_NAME = "serve.lock"
    LOG_NAME = "jobs.log"

    def __init__(self, state_dir: Union[str, os.PathLike]) -> None:
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.log_path = self.state_dir / self.LOG_NAME
        self.journals_dir = self.state_dir / "journals"
        self.results_dir = self.state_dir / "results"
        self.metrics_dir = self.state_dir / "metrics"
        self._log = RecordLog(self.log_path)
        self._cache_lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        """Forget the cached fold."""
        self._folded = ServeState()
        #: Cached records no snapshot has been handed yet.
        self._owned: Set[str] = set()

    def _lock(self) -> FileLock:
        return FileLock(self.state_dir / self.LOCK_NAME)

    # -- append side -------------------------------------------------------
    def append(self, doc: Dict[str, Any], t: Optional[float] = None) -> None:
        """Durably append one record (lock → repair → write → fsync →
        unlock)."""
        doc = {**doc, "t": time.time() if t is None else t}
        with self._lock():
            self._log.append(doc)

    def submit(self, kind: str, spec: Dict[str, Any]) -> str:
        """Assign the next ``job-NNNNNN`` id and journal the submit."""
        if kind not in JOB_KINDS:
            raise ServeStoreError(
                f"unknown job kind {kind!r} (expected one of "
                f"{', '.join(JOB_KINDS)})"
            )
        if not isinstance(spec, dict):
            raise ServeStoreError("job spec must be a JSON object")
        with self._lock():
            state = self.load()
            seq = 1 + max(
                (int(j.split("-")[-1]) for j in state.jobs
                 if j.startswith("job-")), default=0,
            )
            job_id = f"job-{seq:06d}"
            self._log.append({
                "type": "job_submitted",
                "job": job_id,
                "kind": kind,
                "spec": spec,
                "t": time.time(),
            })
        return job_id

    # -- record vocabulary -------------------------------------------------
    def job_leased(
        self,
        job_id: str,
        attempt: int,
        pid: int,
        timeout: float,
        daemon_id: Optional[str] = None,
    ) -> None:
        doc: Dict[str, Any] = {
            "type": "job_leased", "job": job_id, "attempt": attempt,
            "pid": pid, "timeout": timeout,
        }
        if daemon_id is not None:
            doc["daemon"] = daemon_id
        self.append(doc)

    def job_heartbeat(self, job_id: str, pid: int) -> None:
        self.append({"type": "job_heartbeat", "job": job_id, "pid": pid})

    def job_requeued(
        self, job_id: str, attempt: int, reason: str, delay: float
    ) -> None:
        self.append({
            "type": "job_requeued", "job": job_id, "attempt": attempt,
            "reason": reason, "delay": delay,
        })

    def job_done(
        self,
        job_id: str,
        digests: Dict[str, str],
        result: Optional[Dict[str, Any]] = None,
    ) -> None:
        doc: Dict[str, Any] = {
            "type": "job_done", "job": job_id, "digests": digests,
        }
        if result is not None:
            doc["result"] = result
        self.append(doc)

    def job_failed(self, job_id: str, error: str) -> None:
        self.append({"type": "job_failed", "job": job_id, "error": error})

    def job_cancelled(self, job_id: str) -> None:
        self.append({"type": "job_cancelled", "job": job_id})

    # -- read side ---------------------------------------------------------
    def load(self) -> ServeState:
        """Replay ``jobs.log``; an absent log is an empty queue.

        Only the records appended since the previous load are folded.
        The returned state is a snapshot: later loads never change it.
        The log's unterminated end is folded into the snapshot alone.
        """
        with self._cache_lock:
            try:
                reset, (records, corrupt), (tail, tail_corrupt, torn) = \
                    self._log.read()
            except FileNotFoundError:
                self._reset()
                return ServeState()
            if reset:
                self._reset()
            _fold(self._folded, records, self._owned)
            self._folded.corrupt_records += corrupt
            snapshot = ServeState(
                jobs=dict(self._folded.jobs),
                records=self._folded.records,
                corrupt_records=self._folded.corrupt_records + tail_corrupt,
                torn_tail=torn,
            )
            self._owned.clear()
        # The tail touches the snapshot only: copy what it changes.
        _fold(snapshot, tail, set())
        return snapshot

    def get(
        self, job_id: str, state: Optional[ServeState] = None
    ) -> JobRecord:
        """One job's record, from ``state`` or a fresh :meth:`load`."""
        job = (self.load() if state is None else state).jobs.get(job_id)
        if job is None:
            raise ServeStoreError(f"unknown job {job_id!r}")
        return job

    # -- store health ------------------------------------------------------
    def _artifact_dirs(self) -> List[Path]:
        return [self.state_dir, self.journals_dir, self.results_dir,
                self.metrics_dir]

    def health(self, state: Optional[ServeState] = None) -> Dict[str, Any]:
        """Durability health of the state dir: record counts, corrupt
        interior records, torn tail, and orphaned atomic-write temp
        files across every artifact directory.  The block ``repro
        serve status`` and ``/healthz`` surface."""
        if state is None:
            state = self.load()
        orphans = sum(
            len(orphan_tmp_files(d)) for d in self._artifact_dirs()
        )
        return {
            "records": state.records,
            "corrupt_records": state.corrupt_records,
            "torn_tail": state.torn_tail,
            "orphan_tmp": orphans,
        }

    def sweep_orphans(self, force: bool = False) -> List[Path]:
        """Remove orphaned atomic-write temp files (dead writer pid)
        from every artifact directory; returns the paths removed.  The
        daemon runs this on startup."""
        from ..core.atomicio import sweep_orphan_tmp
        removed: List[Path] = []
        for d in self._artifact_dirs():
            removed.extend(sweep_orphan_tmp(d, force=force))
        return removed

    # -- per-job artifacts -------------------------------------------------
    def journal_path(self, job_id: str) -> Path:
        self.journals_dir.mkdir(parents=True, exist_ok=True)
        return self.journals_dir / f"{job_id}.jsonl"

    def result_path(self, job_id: str) -> Path:
        self.results_dir.mkdir(parents=True, exist_ok=True)
        return self.results_dir / f"{job_id}.json"
