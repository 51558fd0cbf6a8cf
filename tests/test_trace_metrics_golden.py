"""Golden snapshot of a trace's metrics in every form they leave a run.

A fixed traced workload — one faulted Fig. 2 point (``mpi.*`` counters,
the ``mpi.ingress_busy_seconds`` histogram), Fig. 1 kernel-model and
roofline evaluations (``kernel.*``, ``roofline.*``), the merge of a
second recorder's document, and a hand-built :class:`RunStats` (the
``exec.jobs`` gauge, fixed task seconds) — is recorded and pinned in
``tests/golden/trace_metrics.json`` as:

* the recorder's ``as_dict()["metrics"]`` document;
* the JSONL ``metric`` records;
* the Chrome export's ``otherData``;
* the ``repro trace summarize`` text of the trace written as ``.json``
  and as ``.jsonl``, as exact strings.

Regenerate after an intentional change with::

    PYTHONPATH=src python -m pytest tests/test_trace_metrics_golden.py \\
        --update-golden
"""

import json

from repro.blas.kernels import KERNELS
from repro.core import figures
from repro.core.report import render_trace_summary
from repro.exec.cache import CacheStats
from repro.exec.engine import ExperimentStats, RunStats, TaskMetric
from repro.ftypes import lookup_format
from repro.machine import Roofline
from repro.mpi.faults import active_plan, parse_fault_spec
from repro.obs import (
    TraceRecorder,
    chrome_trace,
    jsonl_lines,
    load_trace,
    recording,
    summarize_trace,
    write_trace,
)


def _kernel_points(sizes):
    for n in sizes:
        figures.fig1_axpy_point("Float16", n)
        Roofline().evaluate(KERNELS["axpy"], lookup_format("Float32"), n)


def _run_stats() -> RunStats:
    tasks = [
        TaskMetric(experiment="fig2", label=f"fig2[{i}]", seconds=s,
                   worker="pool")
        for i, s in enumerate((0.25, 1.5, 3.0, 1500.0))
    ]
    return RunStats(
        jobs=2,
        experiments=[ExperimentStats(
            key="fig2", scale="ci", cached=False, passed=True,
            seconds=1504.75, tasks=tasks,
        )],
        cache=CacheStats(hits=1, misses=3, writes=3),
    )


def _recorded() -> TraceRecorder:
    worker = TraceRecorder()
    with recording(worker):
        _kernel_points((1 << 20,))
    rec = TraceRecorder()
    with recording(rec):
        with active_plan(parse_fault_spec("lossy", seed=1)):
            figures.fig2_pingpong_point(nbytes=65536)
        _kernel_points((1024, 1 << 16))
    rec.merge(worker.as_dict())
    _run_stats().publish_metrics(rec)
    return rec


def test_trace_metrics_match_golden(tmp_path, golden):
    rec = _recorded()
    metrics = rec.as_dict()["metrics"]
    # Counters and gauges are floats: scenario digests hash them as
    # canonical JSON, where 3 and 3.0 differ.
    for kind in ("counters", "gauges"):
        assert all(type(v) is float for v in metrics[kind].values()), kind
    for h in metrics["histograms"].values():
        assert list(h["buckets"]) == sorted(h["buckets"], key=int)
    summaries = {}
    for suffix in (".json", ".jsonl"):
        path = write_trace(rec, tmp_path / f"t{suffix}")
        summaries[suffix] = render_trace_summary(
            summarize_trace(load_trace(path))
        )
    golden("trace_metrics.json", {
        "metrics": metrics,
        "jsonl_metric_records": [
            record for record in map(json.loads, jsonl_lines(rec))
            if record["type"] == "metric"
        ],
        "chrome_other_data": chrome_trace(rec)["otherData"],
        "summary_text": summaries,
    })
