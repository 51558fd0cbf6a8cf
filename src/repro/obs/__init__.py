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

from .collector import (
    DEFAULT_TOLERANCE,
    SCHEMA_VERSION,
    MetricsStore,
    bench_trend,
    collect_autopilot,
    collect_bench,
    collect_campaign,
    collect_faults,
    collect_run,
    document_digest,
    strip_volatile,
)
from .trace import (
    Span,
    TraceRecorder,
    get_recorder,
    recording,
    set_recorder,
    trace_span,
    virtual_event,
)
from .export import (
    VIRTUAL_PID,
    WALL_PID,
    chrome_trace,
    jsonl_lines,
    load_trace,
    summarize_trace,
    virtual_track,
    write_trace,
)

__all__ = [
    "DEFAULT_TOLERANCE",
    "SCHEMA_VERSION",
    "MetricsStore",
    "bench_trend",
    "collect_autopilot",
    "collect_bench",
    "collect_campaign",
    "collect_faults",
    "collect_run",
    "document_digest",
    "strip_volatile",
    "Span",
    "TraceRecorder",
    "get_recorder",
    "set_recorder",
    "recording",
    "trace_span",
    "virtual_event",
    "WALL_PID",
    "VIRTUAL_PID",
    "chrome_trace",
    "jsonl_lines",
    "virtual_track",
    "write_trace",
    "load_trace",
    "summarize_trace",
]
