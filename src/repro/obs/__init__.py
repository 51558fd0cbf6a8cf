"""Observability layer: spans, virtual-clock event traces, metrics.

``repro.obs`` is how you see *inside* a run.  It is zero-dependency and
off by default — with no recorder installed every instrumentation point
is a cheap None check and the repo's output stays byte-identical.

* :mod:`repro.obs.trace` — :func:`trace_span` / :class:`TraceRecorder`:
  wall-clock spans around tasks and experiments, plus the
  virtual-clock event records the MPI discrete-event simulator emits
  (sends, receives, computes, retransmits, phase marks).  The virtual
  track is a pure function of (seed, config): stable across ``--jobs``.
  The recorder also keeps the run's metrics — counters, gauges and
  log2-bucket histograms — as the plain document it exports
  (``count`` / ``set_gauge`` / ``observe``, associative ``merge``).
* :mod:`repro.obs.export` — Chrome ``chrome://tracing`` JSON, flat
  JSONL, and the text summary behind ``repro trace summarize``.
* :mod:`repro.obs.collector` — per-run metric documents: every run
  snapshots into a versioned JSON document in a ``.repro-metrics/``
  store (atomic writes, lock-sequenced filenames), and ``repro bench
  trend`` diffs the last N with direction-aware tolerances.

Usage::

    from repro.obs import TraceRecorder, recording, write_trace

    rec = TraceRecorder()
    with recording(rec):
        engine = Engine(jobs=4, recorder=rec)
        engine.run_many(["fig2", "fig3"])
    write_trace(rec, "out.json")          # open in chrome://tracing
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "DEFAULT_TOLERANCE": "collector",
    "SCHEMA_VERSION": "collector",
    "MetricsStore": "collector",
    "bench_trend": "collector",
    "collect_autopilot": "collector",
    "collect_bench": "collector",
    "collect_campaign": "collector",
    "collect_faults": "collector",
    "collect_run": "collector",
    "document_digest": "collector",
    "strip_volatile": "collector",
    "Span": "trace",
    "TraceRecorder": "trace",
    "get_recorder": "trace",
    "set_recorder": "trace",
    "recording": "trace",
    "trace_span": "trace",
    "virtual_event": "trace",
    "WALL_PID": "export",
    "VIRTUAL_PID": "export",
    "chrome_trace": "export",
    "jsonl_lines": "export",
    "virtual_track": "export",
    "write_trace": "export",
    "load_trace": "export",
    "summarize_trace": "export",
})
