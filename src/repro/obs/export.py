"""Trace exporters: Chrome ``chrome://tracing`` JSON, flat JSONL, summary.

One recorder, three views:

* :func:`chrome_trace` — the Trace Event Format dict that
  ``chrome://tracing`` / Perfetto load directly.  Wall spans live on
  ``pid`` :data:`WALL_PID` (one row per thread); the MPI simulator's
  virtual-clock track lives on ``pid`` :data:`VIRTUAL_PID` (one row per
  rank, "timestamps" are virtual microseconds).  Metrics ride along
  under ``otherData``.
* :func:`jsonl_lines` — one JSON object per line (``type``:
  ``span`` | ``event`` | ``metric``) for grep/jq pipelines.
* :func:`summarize_trace` — a compact summary document that
  :func:`repro.core.report.render_trace_summary` renders as text
  (``repro trace summarize out.json``).

:func:`write_trace` picks the format from the file suffix
(``.jsonl`` → JSONL, anything else → Chrome JSON);
:func:`load_trace` reads either back into the canonical
``{"spans", "events", "metrics"}`` document.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Union

from .trace import TraceRecorder

__all__ = [
    "WALL_PID",
    "VIRTUAL_PID",
    "chrome_trace",
    "jsonl_lines",
    "virtual_track",
    "write_trace",
    "load_trace",
    "summarize_trace",
]

#: Chrome-trace process ids for the two tracks.
WALL_PID = 1
VIRTUAL_PID = 2

Doc = Dict[str, Any]


def _canonical(trace: Union[TraceRecorder, Doc]) -> Doc:
    return trace.as_dict() if isinstance(trace, TraceRecorder) else trace


# ---------------------------------------------------------------------------
def chrome_trace(trace: Union[TraceRecorder, Doc]) -> Doc:
    """Trace Event Format document for ``chrome://tracing``.

    Every event carries the required ``ph``/``ts``/``pid``/``tid``
    keys.  Wall-span timestamps are microseconds relative to the
    earliest span (so the viewer opens near t=0); virtual-track
    timestamps are virtual microseconds straight from the simulator.
    """
    doc = _canonical(trace)
    spans = doc.get("spans") or []
    events: List[Doc] = [
        {
            "name": "process_name", "ph": "M", "ts": 0,
            "pid": WALL_PID, "tid": 0,
            "args": {"name": "wall clock (tasks, experiments)"},
        },
        {
            "name": "process_name", "ph": "M", "ts": 0,
            "pid": VIRTUAL_PID, "tid": 0,
            "args": {"name": "virtual clock (MPI simulation, per rank)"},
        },
    ]
    t0 = min((s["start"] for s in spans), default=0.0)
    for s in spans:
        events.append({
            "name": s["name"],
            "cat": s.get("cat", "span"),
            "ph": "X",
            "ts": (s["start"] - t0) * 1e6,
            "dur": (s["end"] - s["start"]) * 1e6,
            "pid": WALL_PID,
            "tid": s.get("tid", 0),
            "args": s.get("attrs") or {},
        })
    for e in doc.get("events") or []:
        attrs = e.get("attrs") or {}
        entry: Doc = {
            "name": e["name"],
            "cat": "virtual",
            "ts": e["t"] * 1e6,
            "pid": VIRTUAL_PID,
            "tid": e.get("rank", 0),
            "args": attrs,
        }
        # Operations with a known virtual duration render as complete
        # ("X") events; the rest are instants on the rank's row.
        if "seconds" in attrs:
            entry["ph"] = "X"
            entry["dur"] = attrs["seconds"] * 1e6
        else:
            entry["ph"] = "i"
            entry["s"] = "t"
        events.append(entry)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"metrics": doc.get("metrics") or {}},
    }


def jsonl_lines(trace: Union[TraceRecorder, Doc]) -> Iterator[str]:
    """Flat JSONL view: one record per line, ``type``-discriminated."""
    doc = _canonical(trace)
    for s in doc.get("spans") or []:
        yield json.dumps({"type": "span", **s}, sort_keys=True)
    for e in doc.get("events") or []:
        yield json.dumps({"type": "event", **e}, sort_keys=True)
    metrics = doc.get("metrics") or {}
    for kind in ("counters", "gauges"):
        for name, value in sorted((metrics.get(kind) or {}).items()):
            yield json.dumps(
                {"type": "metric", "kind": kind[:-1], "name": name,
                 "value": value},
                sort_keys=True,
            )
    for name, hist in sorted((metrics.get("histograms") or {}).items()):
        yield json.dumps(
            {"type": "metric", "kind": "histogram", "name": name, **hist},
            sort_keys=True,
        )


def virtual_track(doc: Doc) -> List[Doc]:
    """The virtual-time events of a trace document, in recorded order.

    Accepts the canonical document, a Chrome export, or a loaded JSONL
    document; this is the track the determinism tests compare
    byte-for-byte across ``--jobs`` values and repeated runs.
    """
    if "traceEvents" in doc:
        return [
            e for e in doc["traceEvents"]
            if e.get("pid") == VIRTUAL_PID and e.get("ph") != "M"
        ]
    return list(doc.get("events") or [])


# ---------------------------------------------------------------------------
def write_trace(trace: Union[TraceRecorder, Doc], path: Union[str, Path]) -> Path:
    """Write a trace to disk; ``.jsonl`` suffix selects JSONL, anything
    else the Chrome Trace Event JSON.  The write is atomic and fsync'd
    (temp file + rename), so a crash mid-flush can never leave a torn
    trace behind — the file either exists complete or not at all."""
    # Imported here so ``import repro.obs`` stays dependency-free (the
    # core package init pulls in the whole figure stack).
    from ..core.atomicio import atomic_write_text

    path = Path(path)
    if path.suffix == ".jsonl":
        text = "\n".join(jsonl_lines(trace)) + "\n"
    else:
        text = json.dumps(chrome_trace(trace), sort_keys=True)
    return atomic_write_text(path, text)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


def _objects(value: Any) -> bool:
    return isinstance(value, list) and all(isinstance(v, dict) for v in value)


def _checked(doc: Doc) -> Doc:
    """``doc`` if it has the canonical shape the summary walks."""
    metrics = doc.get("metrics") or {}
    _require(_objects(doc.get("spans") or []), "spans are not objects")
    _require(_objects(doc.get("events") or []), "events are not objects")
    _require(isinstance(metrics, dict) and _objects(
        [metrics.get(k) or {} for k in ("counters", "gauges", "histograms")]
        + list((metrics.get("histograms") or {}).values())
    ), "metrics are not objects")
    return doc


def load_trace(path: Union[str, Path]) -> Doc:
    """Read a trace file back into the canonical document
    (``ValueError`` when the file is not a trace)."""
    path = Path(path)
    text = path.read_text()
    if path.suffix == ".jsonl":
        doc: Doc = {"spans": [], "events": [],
                    "metrics": {"counters": {}, "gauges": {},
                                "histograms": {}}}
        for line in text.splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            _require(isinstance(rec, dict), "a JSONL record is not an object")
            kind = rec.pop("type")
            if kind == "span":
                doc["spans"].append(rec)
            elif kind == "event":
                doc["events"].append(rec)
            else:
                mkind = rec.pop("kind")
                name = rec.pop("name")
                if mkind == "histogram":
                    doc["metrics"]["histograms"][name] = rec
                else:
                    doc["metrics"][mkind + "s"][name] = rec["value"]
        return _checked(doc)
    loaded = json.loads(text)
    _require(isinstance(loaded, dict), "the trace is not an object")
    if "traceEvents" not in loaded:
        return _checked(loaded)  # already canonical
    other = loaded.get("otherData") or {}
    _require(isinstance(other, dict), "otherData is not an object")
    _require(_objects(loaded["traceEvents"]), "traceEvents are not objects")
    doc = {"spans": [], "events": [], "metrics": other.get("metrics") or {}}
    for e in loaded["traceEvents"]:
        if e.get("ph") == "M":
            continue
        if e.get("pid") == VIRTUAL_PID:
            doc["events"].append({
                "name": e["name"],
                "rank": e.get("tid", 0),
                "t": e["ts"] / 1e6,
                "attrs": e.get("args") or {},
            })
        else:
            doc["spans"].append({
                "name": e["name"],
                "cat": e.get("cat", "span"),
                "start": e["ts"] / 1e6,
                "end": (e["ts"] + e.get("dur", 0.0)) / 1e6,
                "tid": e.get("tid", 0),
                "attrs": e.get("args") or {},
            })
    return _checked(doc)


# ---------------------------------------------------------------------------
def summarize_trace(trace: Union[TraceRecorder, Doc], top: int = 10) -> Doc:
    """Condense a trace into the summary document the CLI renders.

    Carries: span count/total wall seconds and the ``top`` slowest
    spans; virtual-event counts by kind, per-rank event counts and the
    virtual makespan; every metric counter, gauge and histogram.
    """
    doc = _canonical(trace)
    spans = doc.get("spans") or []
    events = doc.get("events") or []
    top_spans = sorted(
        spans, key=lambda s: s["end"] - s["start"], reverse=True
    )[:top]
    by_kind: Dict[str, int] = {}
    by_rank: Dict[int, int] = {}
    for e in events:
        by_kind[e["name"]] = by_kind.get(e["name"], 0) + 1
        r = e.get("rank", 0)
        by_rank[r] = by_rank.get(r, 0) + 1
    return {
        "nspans": len(spans),
        "wall_seconds": (
            max(s["end"] for s in spans) - min(s["start"] for s in spans)
            if spans else 0.0
        ),
        "top_spans": [
            {
                "name": s["name"],
                "cat": s.get("cat", "span"),
                "seconds": s["end"] - s["start"],
                "attrs": s.get("attrs") or {},
            }
            for s in top_spans
        ],
        "nevents": len(events),
        "events_by_kind": dict(sorted(by_kind.items())),
        "ranks": len(by_rank),
        "virtual_seconds": max((e["t"] for e in events), default=0.0),
        "metrics": doc.get("metrics") or {},
    }
