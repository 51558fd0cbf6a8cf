"""`repro serve`: a crash-tolerant sweep daemon.

The CLI-per-run model becomes a long-running service: clients submit
run/faults/campaign/autopilot jobs over a stdlib-only HTTP API, a
daemon leases them to worker subprocesses, and every state transition
is an fsync'd checksummed record in an append-only job log — the same
write-ahead-log discipline as :mod:`repro.exec.journal`, lifted from
one run's tasks to the whole queue's jobs.  ``kill -9`` of the daemon
(or a worker) loses nothing: restart replays the log, re-leases the
interrupted jobs, and each job resumes from its own per-job run
journal, producing metric documents byte-identical to an uninterrupted
CLI invocation.

Layers:

* :mod:`repro.serve.store` — the durable job database (state-dir
  layout, record vocabulary, last-record-wins replay);
* :mod:`repro.serve.worker` — the worker template the daemon forks
  workers from, and the worker body that runs one leased job's
  ``repro`` command-table entry under a heartbeat;
* :mod:`repro.serve.daemon` — the lease/requeue/backoff control loop
  plus graceful drain (SIGTERM → exit 75 with a resume hint);
* :mod:`repro.serve.api` — the HTTP endpoints (submit, status,
  journal tail, results, metrics, cancel, drain, ``/healthz``);
* :mod:`repro.serve.client` — the urllib client the ``repro serve
  submit|status|jobs|drain`` commands use.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "JOB_TERMINAL_STATUSES": "store",
    "JobRecord": "store",
    "JobStore": "store",
    "ServeState": "store",
    "ServeStoreError": "store",
    "DaemonConfig": "daemon",
    "ServeDaemon": "daemon",
})
