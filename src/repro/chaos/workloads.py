"""Chaos workloads: small, deterministic exercises of every durable
store, built to be *re-executable* after a crash.

Each workload is a pure recipe against a private root directory:

* ``stores``   — a scripted pass over every storage primitive: the
  run-journal WAL, the serve job log, the metrics store, and a plain
  atomic snapshot.  Milliseconds per execution, so a full sweep over
  all of its durability points is cheap.
* ``run``      — a real engine run (``fig1`` at CI scale) with the
  journal, the result cache, and a metric document; recovery is
  ``--resume`` and must reproduce the baseline document digest.
* ``campaign`` — a budget-2 ``mixed-chaos`` campaign through the
  journal-backed campaign runner; recovery resumes the campaign.
* ``serve``    — a job-log lifecycle (submit → lease → execute →
  finalize) through the real serve store and worker execution path;
  recovery is what a restarted daemon does: re-lease and re-run.

The recovery contract, shared by all of them: *recover by re-running
the workload against whatever the crash left behind* (with resume
where the workload supports it), then check the invariants —

* ``recovery_loads``   every store loads without an exception;
* ``digest_converges`` the recovered state digest equals the
  uninterrupted baseline's, byte for byte;
* ``no_orphan_tmp``    no ``.tmp`` orphans survive recovery;
* ``clean_replay``     no corrupt interior records remain (skipped
  for ``bitflip`` injections: an append-only log cannot heal in-place
  media corruption — there the contract is *counted and converged*,
  which the first two invariants enforce).
"""

from __future__ import annotations

import hashlib
import os
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..core.atomicio import (
    atomic_write_text,
    canonical_json,
    orphan_tmp_files,
    sweep_orphan_tmp,
)
from ..exec.journal import (
    JournalWriter,
    _encode_payload,
    load_journal,
    try_load_journal,
)

__all__ = ["WORKLOADS", "Workload", "make_workload", "state_digest_of"]


def _check(name: str, ok: bool, detail: str = "") -> Dict[str, Any]:
    doc: Dict[str, Any] = {"name": name, "status": "ok" if ok else "violated"}
    if not ok and detail:
        doc["detail"] = detail
    return doc


def _skip(name: str) -> Dict[str, Any]:
    return {"name": name, "status": "skipped"}


def _digest(doc: Any) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()[:16]


class Workload:
    """Base class: a deterministic, re-executable storage exercise."""

    name = "workload"

    #: Directories (relative to the root) that hold atomic-write
    #: artifacts — the orphan sweep covers these.
    artifact_dirs: List[str] = []

    def execute(self, root: Path) -> Dict[str, Any]:
        """Run the workload to completion in ``root``; returns the
        baseline summary (``{"digests": {...}}``)."""
        raise NotImplementedError

    def recover(
        self, root: Path, baseline: Dict[str, Any], mode: Optional[str]
    ) -> List[Dict[str, Any]]:
        """Recover ``root`` after a crash and return invariant checks."""
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------
    def _dirs(self, root: Path) -> List[Path]:
        return [root / d for d in self.artifact_dirs]

    def _sweep(self, root: Path) -> int:
        """Recovery-time orphan sweep.  ``force=True`` because in the
        in-process simulation the 'crashed process' pid is our own —
        a real recoverer would see a dead pid."""
        removed = 0
        for d in self._dirs(root):
            removed += len(sweep_orphan_tmp(d, force=True))
        return removed

    def _orphans_left(self, root: Path) -> int:
        return sum(len(orphan_tmp_files(d, force=True))
                   for d in self._dirs(root))

    def _standard_invariants(
        self,
        root: Path,
        baseline: Dict[str, Any],
        mode: Optional[str],
        digests: Dict[str, str],
        corrupt: int,
    ) -> List[Dict[str, Any]]:
        checks = [
            _check(
                "digest_converges",
                digests == baseline["digests"],
                f"recovered {digests} != baseline {baseline['digests']}",
            ),
            _check(
                "no_orphan_tmp",
                self._orphans_left(root) == 0,
                "orphan .tmp files survived recovery",
            ),
        ]
        if mode == "bitflip":
            # In-place media corruption of an append-only log is
            # permanent; the contract is detection + convergence.
            checks.append(_skip("clean_replay"))
        else:
            checks.append(_check(
                "clean_replay", corrupt == 0,
                f"{corrupt} corrupt interior record(s) after recovery",
            ))
        return checks


# ---------------------------------------------------------------------------
# stores: scripted pass over every primitive
# ---------------------------------------------------------------------------
class StoresWorkload(Workload):
    """Every storage primitive in one fast, idempotent script.

    Each step inspects the store's replayed state and performs only
    the missing work, so executing the script again *is* recovery —
    the same discipline ``--resume`` and the serve daemon follow.
    """

    name = "stores"
    artifact_dirs = [
        "journal", "serve", "serve/results", "serve/metrics",
        "metrics", "snap",
    ]

    JOURNAL_TASKS = 3
    _METRIC_DIGEST = "0123456789abcdef"

    # -- the script --------------------------------------------------------
    def _op_journal(self, root: Path) -> None:
        path = root / "journal" / "run.jnl"
        st = try_load_journal(path)
        with JournalWriter(path) as w:
            if st is None:
                w.run_start(
                    keys=["chaos"], scale="ci", jobs=1,
                    fingerprint="chaos-fp",
                )
            for i in range(self.JOURNAL_TASKS):
                key = f"point-{i}"
                if st is not None and key in st.completed:
                    continue
                payload, digest = _encode_payload({"i": i, "value": i * i})
                w.append({
                    "type": "task_done", "key": key, "experiment": "chaos",
                    "index": i, "label": f"chaos[{i}]", "seconds": 0.0,
                    "worker": 0, "digest": digest, "payload": payload,
                })
            if st is None or not st.complete:
                w.run_end("complete")

    def _op_joblog(self, root: Path) -> None:
        from ..serve.store import JobStore

        store = JobStore(root / "serve")
        state = store.load()
        if not state.jobs:
            job_id = store.submit("run", {"key": "fig1", "scale": "ci"})
        else:
            job_id = sorted(state.jobs)[0]
        job = store.load().jobs[job_id]
        if job.status == "queued" and job.attempt == 0:
            store.job_leased(
                job_id, 1, pid=0, timeout=60.0, daemon_id="chaos-daemon"
            )
            store.job_heartbeat(job_id, 0)
            job = store.load().jobs[job_id]
        if not job.terminal:
            atomic_write_text(
                store.result_path(job_id),
                canonical_json({"job_id": job_id, "chaos": True}) + "\n",
            )
            store.job_done(
                job_id, {"run": self._METRIC_DIGEST}, result={"kind": "run"}
            )

    def _op_metrics(self, root: Path) -> None:
        from ..obs.collector import SCHEMA_VERSION, MetricsStore, metric

        store = MetricsStore(root / "metrics")
        docs = store.load_last(kind="run")  # quarantines corrupt files
        if not docs:
            store.write({
                "schema": SCHEMA_VERSION,
                "kind": "run",
                "meta": {"workload": "chaos-stores", "git_sha": None},
                "metrics": {
                    "chaos_points": metric(self.JOURNAL_TASKS, "exact"),
                },
            })

    def _op_snapshot(self, root: Path) -> None:
        path = root / "snap" / "state.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = canonical_json(
            {"chaos": True, "values": [1, 2, 3]}
        ) + "\n"
        if not path.exists() or path.read_text(errors="replace") != payload:
            atomic_write_text(path, payload)

    def _script(self, root: Path) -> None:
        self._op_journal(root)
        self._op_joblog(root)
        self._op_metrics(root)
        self._op_snapshot(root)

    # -- state digest ------------------------------------------------------
    def _state(self, root: Path) -> Dict[str, Any]:
        """The *logical* durable state — what replay yields, not the
        raw bytes (re-execution appends benign duplicate records)."""
        from ..obs.collector import MetricsStore
        from ..serve.store import JobStore

        st = load_journal(root / "journal" / "run.jnl")
        serve = JobStore(root / "serve").load()
        metrics = MetricsStore(root / "metrics").load_last()
        return {
            "journal": {
                "completed": sorted(st.completed),
                "complete": st.complete,
                "fingerprint": (st.meta or {}).get("fingerprint"),
            },
            "jobs": [
                {
                    "job_id": j.job_id, "kind": j.kind, "status": j.status,
                    "digests": j.digests, "error": j.error, "spec": j.spec,
                }
                for _, j in sorted(serve.jobs.items())
            ],
            "metric_digests": sorted({d.get("digest") for _, d in metrics}),
            "snapshot": (root / "snap" / "state.json").read_text(
                errors="replace"
            ),
        }

    def _corrupt_count(self, root: Path) -> int:
        from ..obs.collector import MetricsStore
        from ..serve.store import JobStore

        st = load_journal(root / "journal" / "run.jnl")
        serve = JobStore(root / "serve").load()
        quarantined = len(MetricsStore(root / "metrics").corrupt_documents())
        return st.corrupt_records + serve.corrupt_records + quarantined

    # -- the workload API --------------------------------------------------
    def execute(self, root: Path) -> Dict[str, Any]:
        self._script(root)
        return {"digests": {"state": _digest(self._state(root))}}

    def recover(
        self, root: Path, baseline: Dict[str, Any], mode: Optional[str]
    ) -> List[Dict[str, Any]]:
        self._sweep(root)
        self._script(root)
        digests = {"state": _digest(self._state(root))}
        return self._standard_invariants(
            root, baseline, mode, digests, self._corrupt_count(root)
        )


class _ResumingWorkload(Workload):
    """A workload whose recovery resumes its own journal, ``JOURNAL``,
    and must converge to the same metric-document digest, ``DIGEST``;
    a subclass's ``_run(root, resume)`` returns that digest."""

    def execute(self, root: Path) -> Dict[str, Any]:
        return {"digests": {self.DIGEST: self._run(root, resume=False)}}

    def recover(
        self, root: Path, baseline: Dict[str, Any], mode: Optional[str]
    ) -> List[Dict[str, Any]]:
        from ..obs.collector import MetricsStore

        self._sweep(root)
        digests = {self.DIGEST: self._run(root, resume=True)}
        st = load_journal(root / self.JOURNAL)
        corrupt = st.corrupt_records + len(
            MetricsStore(root / "metrics").corrupt_documents()
        )
        return self._standard_invariants(
            root, baseline, mode, digests, corrupt
        )


# ---------------------------------------------------------------------------
# run: a real engine run with journal + cache + metrics
# ---------------------------------------------------------------------------
class RunWorkload(_ResumingWorkload):
    """One ``repro run fig1 --scale ci`` with every durability layer
    attached; recovery is ``--resume`` and must converge to the same
    metric-document digest."""

    name = "run"
    artifact_dirs = [".", "cache", "metrics"]

    JOURNAL = "run.jnl"
    DIGEST = "run"

    KEYS = ["fig1"]
    SCALE = "ci"

    def _run(self, root: Path, resume: bool) -> str:
        from ..exec.cache import ResultCache
        from ..exec.engine import Engine
        from ..obs.collector import MetricsStore, collect_run, document_digest

        journal_path = root / self.JOURNAL
        resume_state = try_load_journal(journal_path) if resume else None
        cache = ResultCache(root / "cache")
        engine = Engine(jobs=1, cache=cache, resume_state=resume_state)
        with JournalWriter(journal_path) as w:
            engine.journal = w
            outcomes = engine.run_many(self.KEYS, scale=self.SCALE)
        doc = collect_run(
            engine.stats, outcomes, keys=self.KEYS, scale=self.SCALE,
            sha=None,
        )
        MetricsStore(root / "metrics").write(doc)
        return document_digest(doc)



# ---------------------------------------------------------------------------
# campaign: the journal-backed mixed-chaos campaign runner
# ---------------------------------------------------------------------------
class CampaignWorkload(_ResumingWorkload):
    """A budget-capped ``mixed-chaos`` campaign; recovery resumes the
    campaign journal and must converge to the same campaign document
    digest."""

    name = "campaign"
    artifact_dirs = [".", "metrics"]

    JOURNAL = "campaign.jnl"
    DIGEST = "campaign"
    SELECTOR = "mixed-chaos"
    BUDGET = 2

    def _run(self, root: Path, resume: bool) -> str:
        from ..obs.collector import (
            MetricsStore,
            collect_campaign,
            document_digest,
        )
        from ..scenarios.campaign import (
            plan_campaign,
            resolve_selector,
            run_campaign,
        )

        name, specs = resolve_selector(self.SELECTOR)
        plan = plan_campaign(name, specs, budget=self.BUDGET)
        journal_path = root / self.JOURNAL
        resume_path = (
            str(journal_path)
            if resume and try_load_journal(journal_path) else None
        )
        doc = run_campaign(
            plan,
            jobs=1,
            journal_path=None if resume_path else str(journal_path),
            resume_path=resume_path,
        )
        mdoc = collect_campaign(doc, sha=None)
        MetricsStore(root / "metrics").write(mdoc)
        return document_digest(mdoc)



# ---------------------------------------------------------------------------
# serve: the job-store lifecycle through the real worker path
# ---------------------------------------------------------------------------
class ServeWorkload(Workload):
    """Submit → lease → execute → finalize through the real serve
    store and worker execution path (in-process, no subprocesses);
    recovery is exactly what a restarted daemon does — re-lease the
    unfinished job and run it again, resuming its per-job journal —
    and must converge to the same metric-document digest."""

    name = "serve"
    artifact_dirs = [
        "state", "state/journals", "state/results", "state/metrics",
    ]

    SPEC = {"key": "fig1", "scale": "ci"}

    def _store(self, root: Path):
        from ..serve.store import JobStore

        return JobStore(root / "state")

    def _finish(self, store, job_id: str, attempt: int, daemon: str) -> str:
        from ..serve.worker import execute_job, finalize_job

        store.job_leased(
            job_id, attempt, os.getpid(), 60.0, daemon_id=daemon
        )
        doc, interrupted = execute_job(
            store, job_id, "run", dict(self.SPEC), threading.Event()
        )
        assert not interrupted  # no cancel event is ever set here
        return finalize_job(store, job_id, "run", doc)

    def execute(self, root: Path) -> Dict[str, Any]:
        store = self._store(root)
        job_id = store.submit("run", dict(self.SPEC))
        digest = self._finish(store, job_id, 1, "chaos-daemon-1")
        return {"digests": {"run": digest}}

    def recover(
        self, root: Path, baseline: Dict[str, Any], mode: Optional[str]
    ) -> List[Dict[str, Any]]:
        from ..obs.collector import MetricsStore

        store = self._store(root)
        store.sweep_orphans(force=True)
        state = store.load()
        if not state.jobs:
            job_id = store.submit("run", dict(self.SPEC))
        else:
            job_id = sorted(state.jobs)[0]
        job = store.load().jobs[job_id]
        if job.status == "done":
            digest = job.digests.get("run", "")
        else:
            digest = self._finish(
                store, job_id, job.attempt + 1, "chaos-daemon-2"
            )
        digests = {"run": digest}
        state = store.load()
        corrupt = state.corrupt_records + len(
            MetricsStore(store.metrics_dir).corrupt_documents()
        )
        # None when never written past its torn first append.
        jstate = try_load_journal(store.journal_path(job_id))
        if jstate is not None:
            corrupt += jstate.corrupt_records
        return self._standard_invariants(
            root, baseline, mode, digests, corrupt
        )


WORKLOADS = ("stores", "run", "campaign", "serve")

_CLASSES = {
    cls.name: cls
    for cls in (StoresWorkload, RunWorkload, CampaignWorkload, ServeWorkload)
}


def make_workload(name: str) -> Workload:
    """Instantiate a workload by name; raises ``ValueError`` on an
    unknown one (the CLI's exit-2 contract)."""
    try:
        return _CLASSES[name]()
    except KeyError:
        raise ValueError(
            f"unknown chaos workload {name!r}; expected one of "
            f"{', '.join(WORKLOADS)}"
        ) from None


def state_digest_of(workload: Workload, root: Path) -> Dict[str, str]:
    """Expose a workload's recovered digest set (test helper)."""
    if isinstance(workload, StoresWorkload):
        return {"state": _digest(workload._state(root))}
    raise ValueError(f"{workload.name} has no inspectable state digest")
