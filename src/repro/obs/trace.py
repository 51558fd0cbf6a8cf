"""Zero-dependency span tracer and virtual-clock event recorder.

Two kinds of record, two clocks:

* **Spans** — wall-clock intervals around real work (one per executed
  task, per experiment merge, per engine run).  Timestamps come from
  ``time.perf_counter`` (monotonic, so nesting invariants are exact)
  plus a per-recorder epoch anchor so spans from different processes
  line up on one timeline when exported.
* **Events** — virtual-clock records emitted by the discrete-event MPI
  simulator (sends, receives, computes, retransmits, timeouts, phase
  marks).  They carry *only* simulation data — rank, virtual time,
  message attributes — never wall-clock times or process ids, which is
  what makes the virtual track a pure function of (seed, config):
  byte-identical across ``--jobs`` values and across runs.

A recorder is installed process-wide with :func:`recording` (the same
pattern as :func:`repro.mpi.faults.active_plan`); instrumented code
asks :func:`get_recorder` and does nothing when tracing is off, so the
untraced path stays byte-identical and near-zero overhead.  Pool
workers build their own :class:`TraceRecorder` per task and ship
``as_dict()`` back with the task result; the parent merges the plain
documents in deterministic task order.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "TraceRecorder",
    "get_recorder",
    "set_recorder",
    "recording",
    "trace_span",
    "virtual_event",
]


@dataclass
class Span:
    """One closed wall-clock interval.

    ``start``/``end`` are ``time.perf_counter`` readings local to the
    recorder that produced the span; add the recorder's ``epoch`` to
    place them on the shared (absolute) timeline.  ``parent`` is the
    ``span_id`` of the enclosing span in the same recorder, or None.
    """

    span_id: int
    name: str
    start: float
    end: float
    category: str = "span"
    parent: Optional[int] = None
    tid: int = 0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _SpanStack(threading.local):
    def __init__(self) -> None:
        self.stack: List[int] = []


class TraceRecorder:
    """Thread-safe collector of spans, virtual events and metrics.

    ``metrics`` is the ``{"counters", "gauges", "histograms"}`` document
    :meth:`as_dict` ships.  :meth:`count` adds to a monotone float
    counter, :meth:`set_gauge` overwrites a float, :meth:`observe` adds
    to a histogram (count/sum/min/max; bucket ``"0"`` holds values below
    1, bucket ``"k"`` values in ``[2**(k-1), 2**k)``).  Merging adds
    counters and histograms and takes incoming gauges.  A name has one
    kind; negative increments and observations are errors.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: absolute-time anchor: epoch seconds at perf_counter zero.
        self.epoch = time.time() - time.perf_counter()
        self.spans: List[Span] = []
        self.events: List[Dict[str, Any]] = []
        self.metrics: Dict[str, Dict[str, Any]] = {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        self._next_id = 0
        self._tids: Dict[int, int] = {}  # thread ident -> small stable tid
        self._stack = _SpanStack()

    # -- spans -------------------------------------------------------------
    def _tid(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            if ident not in self._tids:
                self._tids[ident] = len(self._tids)
            return self._tids[ident]

    @contextmanager
    def span(
        self, name: str, category: str = "span", **attrs: Any
    ) -> Iterator[Dict[str, Any]]:
        """Record a span around the block; yields the (mutable) attr
        dict so the block can annotate it (e.g. ``cache: hit``).  The
        span is recorded even when the block raises, with an ``error``
        attribute."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = self._stack.stack[-1] if self._stack.stack else None
        self._stack.stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        except BaseException as exc:
            attrs["error"] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            end = time.perf_counter()
            self._stack.stack.pop()
            tid = self._tid()  # before the lock: _tid locks too
            with self._lock:
                self.spans.append(
                    Span(
                        span_id=span_id,
                        name=name,
                        start=start,
                        end=end,
                        category=category,
                        parent=parent,
                        tid=tid,
                        attrs=dict(attrs),
                    )
                )

    # -- virtual events ----------------------------------------------------
    def event(self, name: str, rank: int, t: float, **attrs: Any) -> None:
        """Record one virtual-clock event.

        ``t`` is virtual seconds.  Nothing wall-clock or process-local
        may enter here: the exported virtual track must be a pure
        function of the simulated configuration.
        """
        with self._lock:
            self.events.append(
                {"name": name, "rank": rank, "t": t, "attrs": attrs}
            )

    # -- metrics -----------------------------------------------------------
    def _table(self, kind: str, name: str, initial: Any) -> Dict[str, Any]:
        """The ``kind`` table holding ``name``, added as ``initial`` on
        first use unless another kind owns the name.  Call under the
        lock."""
        table = self.metrics[kind]
        if name not in table:
            for other, owner in self.metrics.items():
                if name in owner:
                    raise ValueError(
                        f"metric {name!r} already registered as a "
                        f"{other[:-1]}"
                    )
            table[name] = initial
        return table

    def count(self, name: str, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {name!r} cannot be decremented (got {amount})"
            )
        with self._lock:
            self._table("counters", name, 0.0)[name] += amount

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._table("gauges", name, 0.0)[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        if value < 0:
            raise ValueError(
                f"histogram {name!r} takes non-negative values, got {value}"
            )
        bucket = 0 if value < 1.0 else int(math.floor(math.log2(value))) + 1
        self._fold(name, {"count": 1, "sum": value, "min": value,
                          "max": value, "buckets": {bucket: 1}})

    def _fold(self, name: str, other: Dict[str, Any]) -> None:
        """Add histogram document ``other`` into histogram ``name``."""
        empty = {"count": 0, "sum": 0.0, "min": None, "max": None,
                 "buckets": {}}
        with self._lock:
            h = self._table("histograms", name, empty)[name]
            h["count"] += int(other.get("count", 0))
            h["sum"] += float(other.get("sum", 0.0))
            for bound, pick in (("min", min), ("max", max)):
                if other.get(bound) is not None:
                    h[bound] = other[bound] if h[bound] is None else (
                        pick(h[bound], other[bound]))
            for k, n in (other.get("buckets") or {}).items():
                k = str(int(k))
                h["buckets"][k] = h["buckets"].get(k, 0) + int(n)

    # -- merge / export ----------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """Plain-data snapshot (picklable/JSON-able) for shipping across
        process boundaries; span times are converted to absolute epoch
        seconds so recorders with different anchors merge cleanly."""
        m = self.metrics
        with self._lock:
            return {
                "spans": [
                    {
                        "span_id": s.span_id,
                        "name": s.name,
                        "cat": s.category,
                        "start": self.epoch + s.start,
                        "end": self.epoch + s.end,
                        "parent": s.parent,
                        "tid": s.tid,
                        "attrs": s.attrs,
                    }
                    for s in self.spans
                ],
                "events": [dict(e) for e in self.events],
                "metrics": {
                    "counters": dict(sorted(m["counters"].items())),
                    "gauges": dict(sorted(m["gauges"].items())),
                    "histograms": {
                        name: {**h, "buckets": {
                            k: h["buckets"][k]
                            for k in sorted(h["buckets"], key=int)
                        }}
                        for name, h in sorted(m["histograms"].items())
                    },
                },
            }

    def merge(self, doc: Optional[Dict[str, Any]]) -> None:
        """Fold a worker recorder's ``as_dict`` into this recorder.

        Spans arrive with absolute times; they are re-anchored to this
        recorder's epoch (so every span again shares one clock) and
        re-identified so ids stay unique.  Events append in call order —
        the engine merges task documents in deterministic task order,
        which keeps the virtual track stable across ``--jobs``.
        """
        if not doc:
            return
        spans = doc.get("spans") or []
        with self._lock:
            base = self._next_id
            remap = {
                s["span_id"]: base + i for i, s in enumerate(spans)
            }
            for s in spans:
                self.spans.append(
                    Span(
                        span_id=remap[s["span_id"]],
                        name=s["name"],
                        start=s["start"] - self.epoch,
                        end=s["end"] - self.epoch,
                        category=s.get("cat", "span"),
                        parent=remap.get(s.get("parent")),
                        tid=s.get("tid", 0),
                        attrs=dict(s.get("attrs") or {}),
                    )
                )
            self._next_id = base + len(spans)
            for e in doc.get("events") or []:
                self.events.append(dict(e))
        metrics = doc.get("metrics") or {}
        for name, value in (metrics.get("counters") or {}).items():
            self.count(name, float(value))
        for name, value in (metrics.get("gauges") or {}).items():
            self.set_gauge(name, value)
        for name, hist in (metrics.get("histograms") or {}).items():
            self._fold(name, hist)


# ---------------------------------------------------------------------------
# Active-recorder plumbing (how `repro run --trace` reaches the layers)
# ---------------------------------------------------------------------------
_ACTIVE: Optional[TraceRecorder] = None


def get_recorder() -> Optional[TraceRecorder]:
    """The process-wide recorder instrumented code reports to
    (None = tracing off)."""
    return _ACTIVE


def set_recorder(recorder: Optional[TraceRecorder]) -> None:
    global _ACTIVE
    _ACTIVE = recorder


@contextmanager
def recording(recorder: Optional[TraceRecorder]) -> Iterator[Optional[TraceRecorder]]:
    """Scope a recorder over a block (restores the previous one)."""
    previous = get_recorder()
    set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)


@contextmanager
def trace_span(
    name: str, category: str = "span", **attrs: Any
) -> Iterator[Dict[str, Any]]:
    """Span against the active recorder; a cheap no-op when tracing is
    off (the yielded attr dict is then simply discarded)."""
    rec = get_recorder()
    if rec is None:
        yield attrs
        return
    with rec.span(name, category=category, **attrs) as a:
        yield a


def virtual_event(name: str, rank: int, t: float, **attrs: Any) -> None:
    """Virtual-clock event against the active recorder; no-op when off."""
    rec = get_recorder()
    if rec is not None:
        rec.event(name, rank, t, **attrs)
