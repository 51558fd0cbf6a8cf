"""Execution engine: scheduled, cached, observable experiment runs.

The experiment layer's answer to "runs as fast as the hardware allows":

* :mod:`repro.exec.tasks` — every registered experiment decomposed into
  independent sweep-point tasks (the task graph);
* :mod:`repro.exec.scheduler` — process-pool fan-out with deterministic
  result ordering and a graceful in-process fallback;
* :mod:`repro.exec.cache` — content-addressed on-disk outcome cache
  keyed by experiment + scale + parameters + a fingerprint of the
  ``repro`` sources;
* :mod:`repro.exec.engine` — ties the three together and records
  per-task timings and cache statistics (:class:`RunStats`);
* :mod:`repro.exec.journal` — crash-safe write-ahead log of every
  dispatch/completion; ``--journal`` records, ``--resume`` restores
  completed sweep points and re-runs only the remainder.

Usage::

    from repro.exec import Engine, ResultCache

    engine = Engine(jobs=4, cache=ResultCache())
    outcomes = engine.run_many(["fig1", "fig4"], scale="ci")
    print(engine.stats.render())
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "RESUMABLE_EXIT_CODE": "journal",
    "JournalError": "journal",
    "JournalState": "journal",
    "JournalWriter": "journal",
    "guard_summary": "journal",
    "journal_summary": "journal",
    "load_journal": "journal",
    "task_key": "journal",
    "verify_journal": "journal",
    "GUARD_INJECTIONS": "tasks",
    "Task": "tasks",
    "decompose": "tasks",
    "execute_task": "tasks",
    "merge_results": "tasks",
    "Scheduler": "scheduler",
    "TaskResult": "scheduler",
    "backoff_delay": "backoff",
    "backoff_schedule": "backoff",
    "effective_jobs": "scheduler",
    "CacheStats": "cache",
    "ResultCache": "cache",
    "source_fingerprint": "cache",
    "DEFAULT_CACHE_DIR": "cache",
    "Engine": "engine",
    "ExperimentStats": "engine",
    "RunStats": "engine",
    "TaskMetric": "engine",
    "run_experiment_cached": "engine",
})
