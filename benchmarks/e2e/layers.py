"""Per-layer metrics from the spans of traced operations.

A traced operation is one or more traced ``repro`` processes (a
cold+warm pair on ``ci-sweep``).  Each process left a span list from
:mod:`tracer`; a span's *self time* is its duration minus the part its
child spans cover, and a layer's *time* is the summed duration of its
outermost spans (renderers call renderers, so nested spans of one name
count once).  Every value is per traced operation unless it is a ratio.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Sequence

#: span name -> metric of the layer's time.
TIMED = {
    "exec.scheduler": "exec.scheduler.map_s",
    "mpi.run": "mpi.run_s",
    "shallowwaters.run": "shallowwaters.run_s",
    "exec.cache.get": "exec.cache.get_s",
    "exec.cache.put": "exec.cache.put_s",
    "exec.journal.append": "exec.journal.append_s",
    "core.atomicio.durable_append": "core.atomicio.durable_append_s",
    "core.atomicio.atomic_write": "core.atomicio.atomic_write_s",
    "core.report.render": "core.report.render_s",
    "obs.collector.store_write": "obs.collector.store_write_s",
    "scenarios.run": "scenarios.run_s",
    "guard.escalate": "guard.escalate_s",
}

#: span name -> call-count metric.
COUNTED = {
    "exec.journal.append": "exec.journal.appends",
    "scenarios.run": "scenarios.runs",
    "guard.escalate": "guard.escalations",
    "mpi.run": "mpi.runs",
}


def _duration(span: Dict[str, Any]) -> float:
    return span["end"] - span["start"]


def self_times(spans: Sequence[Dict[str, Any]]) -> List[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += _duration(span)
    return [_duration(s) - c for s, c in zip(spans, covered)]


def _outermost(spans: Sequence[Dict[str, Any]], name: str) -> List[Dict]:
    """Spans called ``name`` with no ancestor of the same name."""
    out = []
    for span in spans:
        if span["name"] != name:
            continue
        parent = span["parent"]
        while parent is not None and spans[parent]["name"] != name:
            parent = spans[parent]["parent"]
        if parent is None:
            out.append(span)
    return out


def layer_metrics(ops: Sequence[Sequence[Dict[str, Any]]]) -> Dict[str, Any]:
    """Per-layer metrics over traced operations.

    ``ops`` holds, per operation, one ``{"wall": s, "spans": [...]}``
    entry per traced process.  Returns ``name -> (value, unit)``; a
    metric whose layer never ran is left out.
    """
    n = len(ops)
    total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    attrs: Dict[str, float] = defaultdict(float)
    unattributed = 0.0
    for op in ops:
        for proc in op:
            spans = proc["spans"]
            selfs = self_times(spans)
            unattributed += proc["wall"] - sum(selfs)
            for span, own in zip(spans, selfs):
                name = span["name"]
                total[name + ".self"] += own
                calls[name] += 1
            for name in {s["name"] for s in spans}:
                total[name] += sum(map(_duration, _outermost(spans, name)))
            for span in spans:
                # A call that raised (a blown-up Float16 run, a failed
                # rank) has a duration but no attributes.
                name = span["name"]
                if name == "exec.scheduler" and "tasks" in span:
                    attrs["tasks"] += span["tasks"]
                    attrs["task_s"] += span["task_s"]
                    attrs["busy_capacity"] += _duration(span) * span["jobs"]
                elif name == "exec.cache.get" and "hit" in span:
                    attrs["hits"] += span["hit"]
                elif name == "mpi.run" and "messages" in span:
                    attrs["messages"] += span["messages"]
                    attrs["retransmits"] += span["retransmits"]
                elif name == "shallowwaters.run" and "steps" in span:
                    attrs["steps"] += span["steps"]
                    attrs["cell_steps"] += span["steps"] * span["cells"]

    out: Dict[str, Any] = {
        "exec.scheduler.tasks": (attrs["tasks"] / n, "count"),
        "exec.scheduler.task_s": (attrs["task_s"] / n, "s"),
        "unattributed_s": (unattributed / n, "s"),
    }
    for span_name, metric in TIMED.items():
        if calls[span_name]:
            out[metric] = (total[span_name] / n, "s")
    for span_name, metric in COUNTED.items():
        if calls[span_name]:
            out[metric] = (calls[span_name] / n, "count")
    for span_name in ("exec.engine", "exec.scheduler", "exec.task"):
        if calls[span_name]:
            out[span_name + ".self_s"] = (total[span_name + ".self"] / n, "s")
    if attrs["busy_capacity"]:
        out["exec.scheduler.busy_ratio"] = (
            attrs["task_s"] / attrs["busy_capacity"], "ratio")
    if calls["exec.cache.get"]:
        out["exec.cache.hit_ratio"] = (
            attrs["hits"] / calls["exec.cache.get"], "ratio")
    writes = (calls["core.atomicio.durable_append"]
              + calls["core.atomicio.atomic_write"])
    if writes:
        out["core.atomicio.writes"] = (writes / n, "count")
    if calls["mpi.run"]:
        out["mpi.messages"] = (attrs["messages"] / n, "count")
        out["mpi.retransmits"] = (attrs["retransmits"] / n, "count")
        out["mpi.messages_per_s"] = (
            attrs["messages"] / total["mpi.run"], "1/s")
    if calls["shallowwaters.run"]:
        out["shallowwaters.steps"] = (attrs["steps"] / n, "count")
        out["shallowwaters.cell_steps_per_s"] = (
            attrs["cell_steps"] / total["shallowwaters.run"], "1/s")
    return out
