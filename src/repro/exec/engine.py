"""The experiment engine: task graph + scheduler + cache + metrics.

``Engine`` is what ``repro run`` drives: it decomposes each requested
experiment into sweep-point tasks, schedules them (optionally on a
process pool), merges the payloads, evaluates the paper's claims, and
records per-task and per-experiment wall-clock plus cache statistics
into a :class:`RunStats` that renders through :mod:`repro.core.report`.

When several experiments run together (``repro run all``) their tasks
are flattened into a single scheduler submission, so a 4-way pool keeps
working on fig4's simulations while fig3's message-size points drain —
no per-experiment barrier.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, List, Optional, Sequence

from ..core.benchmark import WallTimer
from ..core.experiments import (
    REGISTRY,
    Outcome,
    evaluate_outcome,
    failed_outcome,
    scale_params,
)
from ..guard.monitor import parse_guard_mode
from ..mpi.faults import parse_fault_spec
from ..obs import TraceRecorder
from .cache import CacheStats, ResultCache, source_fingerprint
from .journal import JournalState, JournalWriter, journalled
from .scheduler import Scheduler, TaskResult
from .tasks import GUARD_INJECTIONS, decompose, merge_results

__all__ = [
    "Engine",
    "ExperimentStats",
    "RunStats",
    "TaskMetric",
    "run_experiment_cached",
]


@dataclass
class TaskMetric:
    """Timing (and, on failure, diagnostic) of one executed task."""

    experiment: str
    label: str
    seconds: float
    worker: str  # "inline" or "pool"
    error: Optional[str] = None
    attempts: int = 1
    #: guard document (events + remediation chain) for guarded tasks
    #: whose monitor saw anything; None otherwise, keeping unguarded
    #: stats output byte-identical.
    guard: Optional[Dict[str, Any]] = None

    @property
    def degraded(self) -> bool:
        """True when the task only completed via the remediation chain."""
        return bool(self.guard and self.guard.get("remediation"))

    def as_dict(self) -> Dict[str, Any]:
        doc = {
            "experiment": self.experiment,
            "label": self.label,
            "seconds": self.seconds,
            "worker": self.worker,
        }
        if self.error is not None:
            doc["error"] = self.error
        if self.attempts != 1:
            doc["attempts"] = self.attempts
        if self.guard is not None:
            doc["guard"] = self.guard
        if self.degraded:
            doc["degraded"] = True
        return doc


@dataclass
class ExperimentStats:
    """Per-experiment execution record for one engine run."""

    key: str
    scale: str
    cached: bool
    passed: bool
    seconds: float  # summed task work time (0.0 on a cache hit)
    tasks: List[TaskMetric] = field(default_factory=list)
    failed_tasks: int = 0
    #: tasks drained by a graceful shutdown / watchdog — resumable,
    #: so the experiment has no outcome rather than a failed one.
    interrupted_tasks: int = 0
    #: size of the experiment's task plan when no task ran (a cache
    #: hit); None means ``tasks`` is the plan.
    planned: Optional[int] = None

    @property
    def planned_tasks(self) -> int:
        """Sweep points in the experiment's plan, run or cached."""
        return len(self.tasks) if self.planned is None else self.planned

    def as_dict(self) -> Dict[str, Any]:
        doc = {
            "key": self.key,
            "scale": self.scale,
            "cached": self.cached,
            "passed": self.passed,
            "seconds": self.seconds,
            "ntasks": len(self.tasks),
            "failed_tasks": self.failed_tasks,
            "tasks": [t.as_dict() for t in self.tasks],
        }
        if self.interrupted_tasks:
            doc["interrupted_tasks"] = self.interrupted_tasks
        return doc


@dataclass
class RunStats:
    """Everything ``--stats`` / ``--json`` reports about an engine run."""

    jobs: int
    experiments: List[ExperimentStats] = field(default_factory=list)
    cache: Optional[CacheStats] = None
    total_seconds: float = 0.0
    fallback_reason: Optional[str] = None
    fault_spec: Optional[str] = None
    fault_seed: int = 0
    #: restored/executed/stale task counts when the run resumed from a
    #: journal (reported by ``--stats`` and ``repro journal show`` —
    #: deliberately *not* by ``--json``, whose output must stay
    #: byte-identical to an uninterrupted run).
    resume: Optional[Dict[str, int]] = None
    #: True after a graceful shutdown or watchdog trip — the run is
    #: incomplete but resumable from its journal.
    interrupted: bool = False
    #: active ``--guard`` mode (None keeps every output byte-identical
    #: to a guard-free run), its sentinel cadence, and any synthetic
    #: numerical-fault injection.
    guard_mode: Optional[str] = None
    guard_cadence: int = 16
    guard_inject: Optional[str] = None

    @property
    def failed_tasks(self) -> int:
        return sum(e.failed_tasks for e in self.experiments)

    @property
    def interrupted_tasks(self) -> int:
        return sum(e.interrupted_tasks for e in self.experiments)

    @property
    def planned_tasks(self) -> int:
        """Tasks in the run's plan: the same whether or not outcomes
        came from the cache, so it stays a pure function of the run."""
        return sum(e.planned_tasks for e in self.experiments)

    def _guarded_metrics(self) -> List[TaskMetric]:
        return [
            t for e in self.experiments for t in e.tasks if t.guard is not None
        ]

    @property
    def degraded_tasks(self) -> int:
        return sum(1 for t in self._guarded_metrics() if t.degraded)

    @property
    def guard_events(self) -> int:
        return sum(
            len(t.guard.get("events", ())) for t in self._guarded_metrics()
        )

    @property
    def guard_violations(self) -> int:
        return sum(
            int(t.guard.get("violations", 0)) for t in self._guarded_metrics()
        )

    def guard_report(self) -> Optional[Dict[str, Any]]:
        """Aggregate guard document (``--guard-out`` / ``repro guard
        report``): run-level summary plus every task's guard record."""
        if self.guard_mode is None:
            return None
        doc: Dict[str, Any] = {
            "mode": self.guard_mode,
            "cadence": self.guard_cadence,
            "events": self.guard_events,
            "violations": self.guard_violations,
            "degraded_tasks": self.degraded_tasks,
            "tasks": [
                {
                    "experiment": t.experiment,
                    "label": t.label,
                    "degraded": t.degraded,
                    "guard": t.guard,
                }
                for t in self._guarded_metrics()
            ],
        }
        if self.guard_inject is not None:
            doc["inject"] = self.guard_inject
        return doc

    def as_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "jobs": self.jobs,
            "total_seconds": self.total_seconds,
            "failed_tasks": self.failed_tasks,
            "experiments": [e.as_dict() for e in self.experiments],
        }
        if self.cache is not None:
            doc["cache"] = self.cache.as_dict()
        if self.fallback_reason is not None:
            doc["fallback_reason"] = self.fallback_reason
        if self.fault_spec is not None:
            doc["faults"] = {"spec": self.fault_spec, "seed": self.fault_seed}
        if self.interrupted:
            doc["interrupted"] = True
        if self.guard_mode is not None:
            guard: Dict[str, Any] = {
                "mode": self.guard_mode,
                "cadence": self.guard_cadence,
                "events": self.guard_events,
                "violations": self.guard_violations,
                "degraded_tasks": self.degraded_tasks,
            }
            if self.guard_inject is not None:
                guard["inject"] = self.guard_inject
            doc["guard"] = guard
        return doc

    def render(self) -> str:
        from ..core.report import render_run_stats

        return render_run_stats(self)

    def publish_metrics(self, recorder: TraceRecorder) -> None:
        """Absorb these counters into a recorder's metrics — the one
        document the ad-hoc stats bags feed when tracing is on."""
        recorder.set_gauge("exec.jobs", self.jobs)
        recorder.count("exec.experiments", len(self.experiments))
        recorder.count(
            "exec.experiments.cached",
            sum(1 for e in self.experiments if e.cached),
        )
        recorder.count(
            "exec.experiments.failed",
            sum(1 for e in self.experiments if not e.passed),
        )
        recorder.count("exec.tasks", self.planned_tasks)
        recorder.count("exec.tasks.failed", self.failed_tasks)
        for e in self.experiments:
            for t in e.tasks:
                recorder.observe("exec.task_seconds", t.seconds)
        if self.cache is not None:
            for name, value in self.cache.as_dict().items():
                recorder.count(f"cache.{name}", value)
        if self.resume is not None:
            for name, value in self.resume.items():
                recorder.count(f"exec.resume.{name}", value)
        if self.interrupted:
            recorder.count("exec.interrupted")
            recorder.count("exec.tasks.interrupted", self.interrupted_tasks)
        if self.guard_mode is not None:
            recorder.count("guard.run.events", self.guard_events)
            recorder.count("guard.run.violations", self.guard_violations)
            recorder.count("guard.run.degraded_tasks", self.degraded_tasks)


class Engine:
    """Schedule, cache and account for experiment runs.

    Parameters
    ----------
    jobs:
        Worker processes; 1 (default) runs everything in-process,
        0/None means one per CPU.
    cache:
        A :class:`ResultCache` to consult/fill, or None to always
        recompute.
    task_timeout:
        Per-task wall-clock bound in seconds (enforced in pool mode);
        an expired task degrades its experiment instead of hanging the
        run.
    retries:
        Fresh-pool retries (with exponential backoff) after a worker
        crash breaks the pool.
    fault_spec / fault_seed:
        Deterministic fault-injection plan threaded to every task
        (see :mod:`repro.mpi.faults`); ``None``/"off" disables it and
        keeps output byte-identical to the fault-free path.
    recorder:
        A :class:`~repro.obs.TraceRecorder` to collect spans (one per
        task, one per experiment, cache hit/miss annotated), the MPI
        simulator's virtual-clock event track, and metrics; ``None``
        (default) keeps tracing off and the run byte-identical to the
        untraced path.
    journal / resume_state:
        A :class:`~repro.exec.journal.JournalWriter` and a loaded
        :class:`~repro.exec.journal.JournalState`, handed to
        :func:`~repro.exec.journal.journalled`: every dispatch and
        completion is appended (fsync'd) before the run proceeds, and
        completed sweep points whose source fingerprint still matches
        are restored without re-execution (stale ones re-run), so the
        merged figures are byte-identical to an uninterrupted run.
    cancel_event / grace / heartbeat_timeout:
        Graceful-shutdown plumbing, threaded to the scheduler — see
        :class:`~repro.exec.scheduler.Scheduler`.
    guard_mode / guard_cadence / guard_inject:
        The run's ``--guard`` setting (``None``/"off" disables guards
        and keeps output byte-identical), the sentinel check cadence,
        and an optional synthetic numerical-fault injection from
        :data:`~repro.exec.tasks.GUARD_INJECTIONS`.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        cache: Optional[ResultCache] = None,
        task_timeout: Optional[float] = None,
        retries: int = 1,
        fault_spec: Optional[str] = None,
        fault_seed: int = 0,
        recorder: Optional[TraceRecorder] = None,
        journal: Optional[JournalWriter] = None,
        resume_state: Optional[JournalState] = None,
        cancel_event: Optional[threading.Event] = None,
        grace: float = 5.0,
        heartbeat_timeout: Optional[float] = None,
        guard_mode: Optional[str] = None,
        guard_cadence: int = 16,
        guard_inject: Optional[str] = None,
    ) -> None:
        self.scheduler = Scheduler(
            jobs=jobs, task_timeout=task_timeout, retries=retries,
            cancel_event=cancel_event, grace=grace,
            heartbeat_timeout=heartbeat_timeout,
        )
        self.cache = cache
        self.recorder = recorder
        self.journal = journal
        self.resume_state = resume_state
        # Validate eagerly (and normalise "off" to None) so a bad spec
        # fails the run before any work is scheduled.
        self.fault_spec = (
            fault_spec
            if parse_fault_spec(fault_spec, seed=fault_seed) is not None
            else None
        )
        self.fault_seed = fault_seed
        self.guard_mode = parse_guard_mode(guard_mode)
        if guard_cadence < 1:
            raise ValueError("guard cadence must be >= 1")
        self.guard_cadence = guard_cadence
        if guard_inject is not None and guard_inject not in GUARD_INJECTIONS:
            raise ValueError(
                f"unknown guard injection {guard_inject!r}; "
                f"expected one of {', '.join(GUARD_INJECTIONS)}"
            )
        self.guard_inject = guard_inject
        self.stats = RunStats(
            jobs=self.scheduler.jobs,
            cache=cache.stats if cache is not None else None,
            fault_spec=self.fault_spec,
            fault_seed=fault_seed,
            guard_mode=self.guard_mode,
            guard_cadence=guard_cadence,
            guard_inject=guard_inject,
        )

    # -- single experiment ------------------------------------------------
    def run(
        self,
        key: str,
        scale: str = "ci",
        extra_params: Optional[Dict[str, Any]] = None,
    ) -> Outcome:
        """Run (or fetch) one experiment; equivalent to the serial
        :func:`repro.core.experiments.run_experiment`."""
        return self.run_many([key], scale=scale, extra_params=extra_params)[key]

    # -- many experiments, one scheduler submission -----------------------
    def run_many(
        self,
        keys: Sequence[str],
        scale: str = "ci",
        extra_params: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Outcome]:
        """Run several experiments, flattening their tasks into one
        scheduler submission.  Returns outcomes keyed like ``keys``."""
        with WallTimer() as wall:
            outcomes: Dict[str, Outcome] = {}
            pending: List[tuple] = []
            for key in keys:
                if key not in REGISTRY:
                    raise KeyError(
                        f"unknown experiment {key!r}; have {sorted(REGISTRY)}"
                    )
                cached = self._cache_get(key, scale, extra_params)
                if cached is not None:
                    outcomes[key] = cached
                    with self._span(
                        f"experiment:{key}", category="experiment",
                        key=key, scale=scale, cache="hit",
                        passed=cached.passed,
                    ):
                        pass  # zero-work span: the outcome came cached
                    self.stats.experiments.append(
                        ExperimentStats(
                            key=key, scale=scale, cached=True,
                            passed=cached.passed, seconds=0.0,
                            planned=len(decompose(key, scale)),
                        )
                    )
                else:
                    pending.append((
                        key,
                        decompose(
                            key, scale,
                            fault_spec=self.fault_spec,
                            fault_seed=self.fault_seed,
                            trace=self.recorder is not None,
                            guard_mode=self.guard_mode,
                            guard_cadence=self.guard_cadence,
                            guard_inject=self.guard_inject,
                        ),
                    ))

            if pending:
                # The payloads merge through the figures, so import them
                # before the pool forks: workers then inherit numpy and
                # the simulators instead of each importing them again.
                from ..core import figures  # noqa: F401
            # One scheduler submission for every pending sweep point; the
            # journalled runner restores, journals and streams results.
            header = {
                "keys": list(keys), "scale": scale,
                "jobs": self.scheduler.jobs, "fault_spec": self.fault_spec,
                "fault_seed": self.fault_seed, "guard": self.guard_meta(),
            }
            with journalled(
                self.scheduler, [t for _, ts in pending for t in ts],
                source_fingerprint(), journal=self.journal,
                resume=self.resume_state, header=header,
            ) as run:
                if self.resume_state is not None:
                    with self._span(
                        "journal:restore", category="journal",
                        restored=len(run.restored), stale=run.stale,
                    ):
                        pass
                    self.stats.resume = {
                        "restored": len(run.restored),
                        "executed": len(run.pending),
                        "stale": run.stale,
                    }
                with self._span(
                    "schedule", category="engine",
                    ntasks=len(run.pending), jobs=self.scheduler.jobs,
                ) as sched_attrs:
                    results = iter(run.map())
                    if self.scheduler.fallback_reason is not None:
                        sched_attrs["fallback"] = (
                            self.scheduler.fallback_reason
                        )
                self.stats.fallback_reason = self.scheduler.fallback_reason
                # Cache writes in _finish precede the journal's run_end.
                for key, tasks in pending:
                    chunk = list(islice(results, len(tasks)))
                    if any(r.interrupted for r in chunk):
                        self._finish_interrupted(key, scale, chunk)
                    else:
                        outcomes[key] = self._finish(
                            key, scale, chunk, extra_params
                        )
                self.stats.interrupted = (
                    self.stats.interrupted or self.scheduler.interrupted
                )
        self.stats.total_seconds += wall.seconds
        return outcomes

    # -- internals --------------------------------------------------------
    def guard_meta(self) -> Optional[Dict[str, Any]]:
        """Guard settings for the journal's run header; None when guards
        are fully off (keeps guard-free journals byte-identical)."""
        if self.guard_mode is None and self.guard_inject is None:
            return None
        meta: Dict[str, Any] = {
            "mode": self.guard_mode or "off",
            "cadence": self.guard_cadence,
        }
        if self.guard_inject is not None:
            meta["inject"] = self.guard_inject
        return meta

    def _span(self, name: str, category: str = "engine", **attrs: Any):
        """Span on this engine's recorder, or a no-op context."""
        if self.recorder is None:
            return nullcontext(attrs)
        return self.recorder.span(name, category=category, **attrs)

    def _finish_interrupted(
        self, key: str, scale: str, results: Sequence[TaskResult]
    ) -> None:
        """Account for an experiment cut short by a shutdown: no
        outcome, nothing cached — just honest statistics, so the
        journal + stats agree on what remains to resume."""
        self.stats.interrupted = True
        with self._span(
            f"experiment:{key}", category="experiment",
            key=key, scale=scale, interrupted=True,
        ):
            pass
        self._account(key, scale, results, passed=False)

    def _account(
        self, key: str, scale: str, results: Sequence[TaskResult],
        passed: bool,
    ) -> None:
        """Per-task metrics and the experiment's stats entry."""
        metrics = [
            TaskMetric(
                experiment=key, label=r.task.label, seconds=r.seconds,
                worker=r.worker, error=r.error, attempts=r.attempts,
                guard=r.guard,
            )
            for r in results
        ]
        self.stats.experiments.append(
            ExperimentStats(
                key=key,
                scale=scale,
                cached=False,
                passed=passed,
                seconds=sum(m.seconds for m in metrics),
                tasks=metrics,
                failed_tasks=sum(1 for r in results if r.failed),
                interrupted_tasks=sum(1 for r in results if r.interrupted),
            )
        )

    def _cache_key_params(
        self, key: str, scale: str, extra_params: Optional[Dict[str, Any]]
    ) -> Dict[str, Any]:
        params = scale_params(key, scale)
        if extra_params:
            params.update(extra_params)
        if self.fault_spec is not None:
            # Faulted outcomes must never shadow (or be shadowed by)
            # fault-free ones: the plan is part of the content address.
            params["__faults__"] = {
                "spec": self.fault_spec, "seed": self.fault_seed,
            }
        if self.guard_mode == "repair" or self.guard_inject is not None:
            # Repair can change payloads (remediation) and an injection
            # always does — both are part of the content address.
            # observe/strict never alter a successful result, so their
            # cache keys stay identical to an unguarded run.
            params["__guard__"] = self.guard_meta()
        return params

    def _cache_get(
        self, key: str, scale: str, extra_params: Optional[Dict[str, Any]]
    ) -> Optional[Outcome]:
        if self.cache is None:
            return None
        return self.cache.get(
            key, scale, self._cache_key_params(key, scale, extra_params)
        )

    def _finish(
        self,
        key: str,
        scale: str,
        results: Sequence[TaskResult],
        extra_params: Optional[Dict[str, Any]],
    ) -> Outcome:
        if self.recorder is not None:
            # Fold each task's recorder document in deterministic task
            # order — completion order played no part, so the virtual
            # event track is identical for any --jobs value.
            for r in results:
                self.recorder.merge(r.trace)
        failures = [(r.task.label, r.error) for r in results if r.failed]
        with self._span(
            f"experiment:{key}", category="experiment",
            key=key, scale=scale,
            cache="miss" if self.cache is not None else "off",
        ) as exp_attrs:
            if failures:
                # Failure isolation: a crashed/timed-out sweep point
                # degrades this experiment to a diagnostic outcome; other
                # experiments in the run are untouched, and the bad result
                # never reaches the cache.
                outcome = failed_outcome(key, failures)
            else:
                result = merge_results(key, scale, [r.value for r in results])
                outcome = evaluate_outcome(key, result)
                if self.cache is not None:
                    self.cache.put(
                        key, scale, outcome,
                        self._cache_key_params(key, scale, extra_params),
                    )
            exp_attrs["passed"] = outcome.passed
            exp_attrs["failed_tasks"] = len(failures)
        self._account(key, scale, results, outcome.passed)
        return outcome


def run_experiment_cached(
    key: str,
    scale: str = "ci",
    jobs: Optional[int] = 1,
    cache_dir: Optional[str] = None,
    extra_params: Optional[Dict[str, Any]] = None,
) -> Outcome:
    """One-shot convenience: engine + cache for a single experiment."""
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    return Engine(jobs=jobs, cache=cache).run(
        key, scale=scale, extra_params=extra_params
    )
