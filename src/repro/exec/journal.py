"""Crash-safe run journal: its schema and the one journalled runner.

The journal is a :class:`~repro.core.atomicio.RecordLog`: one
checksummed, fsync'd record per event, with that type's framing and
recovery rules.  :func:`journalled` alone writes and restores a run's
records, for ``repro run``, ``repro campaign run``, serve jobs and the
chaos workloads: completed tasks whose segment fingerprint still
matches are restored without re-execution, and the merged result is
byte-identical to an uninterrupted run at any ``--jobs``.

Record types: ``run_start`` (the caller's header -- experiment set,
scale, jobs, fault spec -- plus fingerprint and ``resumed`` flag),
``task_dispatch``, ``task_done`` (task key digest, payload digest +
pickled payload, timing, worker, optional trace and guard documents),
``task_failed``, ``task_interrupted`` (graceful shutdown or watchdog),
and ``run_end`` (``complete`` / ``interrupted``).  A resumed run
appends a new ``run_start`` segment to the *same* file, so a second
crash resumes from the union of both segments.  A record that lacks a
field its type needs, or carries a field of the wrong type (down to a
guard document's ``events`` and ``violations``), is corrupt.

``RESUMABLE_EXIT_CODE`` (75, BSD ``EX_TEMPFAIL``) is what the CLI exits
with after a graceful SIGINT/SIGTERM drain — distinct from 0 (pass),
1 (claims failed) and 2 (usage error), so schedulers can requeue.
"""

from __future__ import annotations

import base64
import hashlib
import os
import pickle
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.atomicio import (
    RecordLog,
    canonical_json,
    conforms,
    orphan_tmp_files,
)
from .scheduler import Scheduler, TaskResult
from .tasks import Task

__all__ = [
    "RESUMABLE_EXIT_CODE",
    "JOURNAL_FORMAT_VERSION",
    "JournalError",
    "JournalState",
    "JournalWriter",
    "JournalledRun",
    "journalled",
    "task_key",
    "load_journal",
    "try_load_journal",
    "verify_journal",
    "journal_summary",
    "guard_summary",
]

#: Exit status of a gracefully-interrupted (and therefore resumable)
#: run — BSD sysexits' EX_TEMPFAIL, the conventional "try again" code.
RESUMABLE_EXIT_CODE = 75

JOURNAL_FORMAT_VERSION = 1


class JournalError(ValueError):
    """A journal file that cannot be interpreted at all."""


#: Fields each record type needs before it can be folded.
_NEEDS = {
    "task_dispatch": ("key",),
    "task_done": ("key", "label"),
    "task_failed": ("key", "label"),
    "task_interrupted": ("key", "label"),
}

#: The types a field must have, in any record that carries it.
_TYPES = {
    "key": str,
    "label": str,
    "experiment": str,
    "index": int,
    "seconds": (int, float, type(None)),
    "worker": str,
    "trace": dict,
    "guard": dict,
}

#: The types a guard document's fields must have, when present.
_GUARD_TYPES = {"events": list, "violations": int}


def _well_formed(rec: Dict[str, Any]) -> bool:
    guard = rec.get("guard", {})
    return conforms(rec, _NEEDS, _TYPES) and all(
        isinstance(guard[f], t) for f, t in _GUARD_TYPES.items() if f in guard
    )


def task_key(task: Task) -> str:
    """Content digest identifying one task's *payload*: everything that
    determines the result (experiment, scale, index, kind, params,
    fault plan, and the guard settings when — and only when — the mode
    can remediate the payload), nothing that doesn't (the ``trace``
    flag, observe/strict guard modes)."""
    return hashlib.sha256(canonical_json(task.identity()).encode()).hexdigest()


def _encode_payload(value: Any) -> Tuple[str, str]:
    """Pickle a task payload for the journal; returns
    ``(base64 text, sha256 digest of the pickle bytes)``."""
    blob = pickle.dumps(value, protocol=4)
    return (
        base64.b64encode(blob).decode("ascii"),
        hashlib.sha256(blob).hexdigest(),
    )


def _decode_payload(text: str, digest: Optional[str] = None) -> Any:
    blob = base64.b64decode(text.encode("ascii"))
    if digest is not None and hashlib.sha256(blob).hexdigest() != digest:
        raise JournalError("payload digest mismatch")
    return pickle.loads(blob)


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------

class JournalWriter:
    """Append-only journal: every record is fsync'd before the engine
    moves on, so anything the journal claims happened, happened."""

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._log = RecordLog(self.path)

    def append(self, doc: Dict[str, Any]) -> None:
        self._log.append(doc)

    def close(self) -> None:
        """Nothing to release: each append opens and closes the file."""

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass

    # -- record vocabulary -------------------------------------------------
    def run_start(
        self,
        keys: List[str],
        scale: str,
        jobs: int,
        fingerprint: str,
        fault_spec: Optional[str] = None,
        fault_seed: int = 0,
        resumed: bool = False,
        guard: Optional[Dict[str, Any]] = None,
    ) -> None:
        doc: Dict[str, Any] = {
            "type": "run_start",
            "version": JOURNAL_FORMAT_VERSION,
            "keys": list(keys),
            "scale": scale,
            "jobs": jobs,
            "fingerprint": fingerprint,
            "fault_spec": fault_spec,
            "fault_seed": fault_seed,
            "resumed": resumed,
        }
        if guard is not None:
            # Only present for guarded/injected runs: a guard-free
            # journal stays byte-identical to earlier versions, and
            # resume validation can demand matching guard settings.
            doc["guard"] = guard
        self.append(doc)

    def task_dispatch(self, task: Task) -> None:
        self.append({
            "type": "task_dispatch",
            "key": task_key(task),
            "experiment": task.experiment,
            "index": task.index,
            "kind": task.kind,
            "label": task.label,
        })

    def task_done(self, task: Task, result: Any) -> None:
        """Journal a completed task (``result`` is a
        :class:`~repro.exec.scheduler.TaskResult`)."""
        payload, digest = _encode_payload(result.value)
        doc: Dict[str, Any] = {
            "type": "task_done",
            "key": task_key(task),
            "experiment": task.experiment,
            "index": task.index,
            "label": task.label,
            "seconds": result.seconds,
            "worker": result.worker,
            "digest": digest,
            "payload": payload,
        }
        if result.trace is not None:
            doc["trace"] = result.trace
        if getattr(result, "guard", None) is not None:
            # The guard document (events + remediation chain) is part of
            # the durable record, so ``--resume`` replays remediation
            # decisions byte-identically instead of re-deriving them.
            doc["guard"] = result.guard
        self.append(doc)

    def task_failed(self, task: Task, result: Any) -> None:
        self.append({
            "type": "task_failed",
            "key": task_key(task),
            "experiment": task.experiment,
            "index": task.index,
            "label": task.label,
            "seconds": result.seconds,
            "worker": result.worker,
            "error": result.error,
            "attempts": result.attempts,
        })

    def task_interrupted(self, task: Task, reason: str) -> None:
        self.append({
            "type": "task_interrupted",
            "key": task_key(task),
            "experiment": task.experiment,
            "index": task.index,
            "label": task.label,
            "reason": reason,
        })

    def run_end(self, status: str) -> None:
        self.append({"type": "run_end", "status": status})


# ---------------------------------------------------------------------------
# loader
# ---------------------------------------------------------------------------

@dataclass
class JournalState:
    """Everything recoverable from a journal file.

    ``completed`` maps task-key digests to their ``task_done`` records
    (each stamped with the ``fingerprint`` of the segment that produced
    it); a task that later failed or was re-dispatched is superseded in
    record order, so the *last* word wins — the WAL replay rule.
    """

    path: Path
    meta: Optional[Dict[str, Any]] = None  # last run_start record
    completed: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    failed: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    interrupted: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    dispatched: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    records: int = 0
    corrupt_records: int = 0
    torn_tail: bool = False
    runs: int = 0
    complete: bool = False

    def restore_payload(self, key: str) -> Any:
        """Decode the journalled payload of a completed task."""
        rec = self.completed[key]
        return _decode_payload(rec["payload"], rec.get("digest"))


def load_journal(path: Union[str, os.PathLike]) -> JournalState:
    """Replay a journal file into a :class:`JournalState`, with the
    :class:`~repro.core.atomicio.RecordLog` recovery rules.  Raises
    :class:`JournalError` only when no valid ``run_start`` record
    exists at all."""
    state = JournalState(path=Path(path))
    _, (records, corrupt), (tail, tail_corrupt, torn) = \
        RecordLog(path).read()
    state.corrupt_records = corrupt + tail_corrupt
    state.torn_tail = torn
    for rec in records + tail:
        if not _well_formed(rec):
            state.corrupt_records += 1
            continue
        state.records += 1
        kind, key = rec["type"], rec.get("key")
        if kind == "run_start":
            state.meta = rec
            state.runs += 1
            state.complete = False
        elif kind == "task_dispatch":
            state.dispatched[key] = rec
        elif kind == "task_done":
            if state.meta is not None:
                rec.setdefault("fingerprint", state.meta.get("fingerprint"))
            state.completed[key] = rec
            state.failed.pop(key, None)
            state.interrupted.pop(key, None)
        elif kind == "task_failed":
            state.failed[key] = rec
            state.completed.pop(key, None)
        elif kind == "task_interrupted":
            if key not in state.completed:
                state.interrupted[key] = rec
        elif kind == "run_end":
            state.complete = rec.get("status") == "complete"
        # unknown record types are ignored (forward compatibility)
    if state.meta is None:
        raise JournalError(
            f"{path}: no valid run_start record — not a journal "
            "(or corrupted beyond recovery)"
        )
    return state


def try_load_journal(
    path: Union[str, os.PathLike]
) -> Optional[JournalState]:
    """:func:`load_journal`, or None when ``path`` is absent or holds
    no journal: the caller starts over."""
    try:
        return load_journal(path)
    except (JournalError, OSError):
        return None


# ---------------------------------------------------------------------------
# the journalled runner
# ---------------------------------------------------------------------------

@dataclass
class JournalledRun:
    """What :func:`journalled` yields: the tasks restored from the
    resume state (by position in ``tasks``) and the number of stale
    journalled completions, which re-run."""

    scheduler: Scheduler
    tasks: List[Task]
    restored: Dict[int, TaskResult]
    stale: int

    @property
    def pending(self) -> List[Task]:
        return [t for i, t in enumerate(self.tasks) if i not in self.restored]

    def map(self) -> List[TaskResult]:
        """Run the pending tasks in one scheduler submission; returns
        every task's result in task order, restored ones included."""
        fresh = iter(self.scheduler.map(self.pending))
        return [
            self.restored[i] if i in self.restored else next(fresh)
            for i in range(len(self.tasks))
        ]


def _restore(
    tasks: Sequence[Task], fingerprint: str, state: JournalState
) -> Tuple[Dict[int, TaskResult], int]:
    """Results of the tasks journalled done by a segment with this
    ``fingerprint`` whose payload decodes, and how many other
    completions were stale: the journal can cost work, never change a
    result."""
    restored: Dict[int, TaskResult] = {}
    stale = 0
    for i, task in enumerate(tasks):
        key = task_key(task)
        rec = state.completed.get(key)
        if rec is None:
            continue
        if rec.get("fingerprint") != fingerprint:
            stale += 1
            continue
        try:
            value = state.restore_payload(key)
        except Exception:
            stale += 1  # torn/corrupt payload: recompute
            continue
        restored[i] = TaskResult(
            task, value, rec.get("seconds", 0.0),
            worker=rec.get("worker", "journal"),
            trace=rec.get("trace"), guard=rec.get("guard"),
        )
    return restored, stale


@contextmanager
def journalled(
    scheduler: Scheduler,
    tasks: Sequence[Task],
    fingerprint: str,
    journal: Optional[JournalWriter] = None,
    resume: Optional[JournalState] = None,
    header: Optional[Dict[str, Any]] = None,
) -> Iterator[JournalledRun]:
    """Restore ``tasks`` from ``resume``, then yield a
    :class:`JournalledRun` whose ``map()`` runs the rest on
    ``scheduler``.

    With a ``journal``: ``run_start`` (``header``, fingerprint,
    ``resumed``) and the ``task_dispatch`` plan go out before any work,
    each result as the scheduler reports it (ahead of the caller's own
    ``on_result`` hook), and ``run_end`` on a normal exit -- after
    whatever the caller does in the block, such as cache writes.  An
    exception leaves the segment open, as a crash would.
    """
    restored, stale = (
        ({}, 0) if resume is None else _restore(tasks, fingerprint, resume)
    )
    run = JournalledRun(scheduler, list(tasks), restored, stale)
    hook = scheduler.on_result
    if journal is not None:
        journal.run_start(
            fingerprint=fingerprint, resumed=resume is not None,
            **(header or {}),
        )
        for task in run.pending:
            journal.task_dispatch(task)

        def stream(r: TaskResult) -> None:
            if r.interrupted:
                journal.task_interrupted(r.task, r.error or "interrupted")
            elif r.failed:
                journal.task_failed(r.task, r)
            else:
                journal.task_done(r.task, r)
            if hook is not None:
                hook(r)

        scheduler.on_result = stream
    try:
        yield run
    finally:
        scheduler.on_result = hook
    if journal is not None:
        journal.run_end("interrupted" if scheduler.interrupted else "complete")


# ---------------------------------------------------------------------------
# inspection (the ``repro journal show|verify`` documents)
# ---------------------------------------------------------------------------

def verify_journal(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Integrity report: record counts, checksum failures, torn tail,
    orphaned atomic-write temp files next to the journal, completion
    status.  ``ok`` is True iff no interior corruption."""
    return _verify_doc(load_journal(path))


def _verify_doc(state: JournalState) -> Dict[str, Any]:
    pending = [
        k for k in state.dispatched
        if k not in state.completed and k not in state.failed
        and k not in state.interrupted
    ]
    return {
        "path": str(state.path),
        "version": (state.meta or {}).get("version"),
        "records": state.records,
        "corrupt_records": state.corrupt_records,
        "torn_tail": state.torn_tail,
        "orphan_tmp": len(orphan_tmp_files(state.path.parent)),
        "runs": state.runs,
        "complete": state.complete,
        "fingerprint": (state.meta or {}).get("fingerprint"),
        "tasks": {
            "completed": len(state.completed),
            "failed": len(state.failed),
            "interrupted": len(state.interrupted),
            "pending": len(pending),
        },
        "ok": state.corrupt_records == 0,
    }


def journal_summary(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """The ``repro journal show`` document: run metadata plus one entry
    per task in journal order (status, timing, worker)."""
    state = load_journal(path)
    doc = _verify_doc(state)
    meta = state.meta or {}
    for name in ("keys", "scale", "jobs", "fault_spec", "fault_seed",
                 "resumed"):
        doc[name] = meta.get(name)
    doc["entries"] = [
        {"label": rec["label"], "status": "done",
         "seconds": rec.get("seconds"), "worker": rec.get("worker")}
        for rec in state.completed.values()
    ] + [
        {"label": rec["label"], "status": "failed",
         "seconds": rec.get("seconds"), "error": rec.get("error")}
        for rec in state.failed.values()
    ] + [
        {"label": rec["label"], "status": "interrupted",
         "reason": rec.get("reason")}
        for rec in state.interrupted.values()
    ]
    return doc


def guard_summary(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """The ``repro guard report`` document for a journal file.

    Same shape as ``RunStats.guard_report()`` so one renderer serves
    both a live run's ``--guard-out`` file and a post-mortem journal.
    A guard-free journal yields ``{"mode": "off"}``.
    """
    state = load_journal(path)
    meta_guard = (state.meta or {}).get("guard") or {}
    doc: Dict[str, Any] = {"mode": meta_guard.get("mode", "off")}
    if "cadence" in meta_guard:
        doc["cadence"] = meta_guard["cadence"]
    if "inject" in meta_guard:
        doc["inject"] = meta_guard["inject"]
    tasks: List[Dict[str, Any]] = []
    events = violations = degraded = 0
    recs = sorted(
        state.completed.values(),
        key=lambda r: (r.get("experiment", ""), r.get("index", 0)),
    )
    for rec in recs:
        guard = rec.get("guard")
        if guard is None:
            continue
        events += len(guard.get("events", ()))
        violations += guard.get("violations", 0)
        is_degraded = "remediation" in guard
        degraded += is_degraded
        tasks.append({
            "experiment": rec.get("experiment"),
            "label": rec.get("label"),
            "degraded": is_degraded,
            "guard": guard,
        })
    doc.update(
        events=events, violations=violations,
        degraded_tasks=degraded, tasks=tasks,
    )
    return doc
