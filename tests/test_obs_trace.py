"""Unit tests for the observability layer: spans, events, exporters."""

import json
import threading

import pytest

from repro.obs import (
    VIRTUAL_PID,
    WALL_PID,
    TraceRecorder,
    chrome_trace,
    get_recorder,
    jsonl_lines,
    load_trace,
    recording,
    summarize_trace,
    trace_span,
    virtual_event,
    virtual_track,
    write_trace,
)


class TestSpans:
    def test_span_records_interval_and_attrs(self):
        rec = TraceRecorder()
        with rec.span("work", category="task", key="fig1"):
            pass
        (s,) = rec.spans
        assert s.name == "work"
        assert s.category == "task"
        assert s.attrs == {"key": "fig1"}
        assert s.end >= s.start

    def test_nested_spans_carry_parent_ids(self):
        rec = TraceRecorder()
        with rec.span("outer"):
            with rec.span("inner"):
                pass
        inner = next(s for s in rec.spans if s.name == "inner")
        outer = next(s for s in rec.spans if s.name == "outer")
        assert inner.parent == outer.span_id
        assert outer.parent is None

    def test_block_can_annotate_attrs(self):
        rec = TraceRecorder()
        with rec.span("exp") as attrs:
            attrs["cache"] = "hit"
        assert rec.spans[0].attrs["cache"] == "hit"

    def test_span_recorded_on_exception_with_error_attr(self):
        rec = TraceRecorder()
        with pytest.raises(RuntimeError):
            with rec.span("boom"):
                raise RuntimeError("kaput")
        (s,) = rec.spans
        assert s.attrs["error"] == "RuntimeError: kaput"

    def test_sibling_spans_share_parent(self):
        rec = TraceRecorder()
        with rec.span("outer"):
            with rec.span("a"):
                pass
            with rec.span("b"):
                pass
        outer = next(s for s in rec.spans if s.name == "outer")
        for name in ("a", "b"):
            child = next(s for s in rec.spans if s.name == name)
            assert child.parent == outer.span_id

    def test_thread_spans_do_not_inherit_foreign_parent(self):
        rec = TraceRecorder()
        seen = {}

        def worker():
            with rec.span("threaded"):
                pass
            seen["done"] = True

        with rec.span("main"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        threaded = next(s for s in rec.spans if s.name == "threaded")
        assert seen["done"]
        assert threaded.parent is None  # other thread, other stack
        main = next(s for s in rec.spans if s.name == "main")
        assert threaded.tid != main.tid


class TestActiveRecorder:
    def test_off_by_default(self):
        assert get_recorder() is None

    def test_trace_span_is_noop_when_off(self):
        with trace_span("ignored") as attrs:
            attrs["x"] = 1  # writable but discarded
        assert get_recorder() is None

    def test_virtual_event_is_noop_when_off(self):
        virtual_event("send", 0, 0.0)  # must not raise

    def test_recording_scopes_and_restores(self):
        rec = TraceRecorder()
        with recording(rec):
            assert get_recorder() is rec
            with trace_span("inside"):
                pass
            virtual_event("mark", 1, 0.5, label="x")
        assert get_recorder() is None
        assert [s.name for s in rec.spans] == ["inside"]
        assert rec.events == [
            {"name": "mark", "rank": 1, "t": 0.5, "attrs": {"label": "x"}}
        ]


class TestMerge:
    def test_merge_appends_events_in_order(self):
        parent, worker = TraceRecorder(), TraceRecorder()
        parent.event("a", 0, 0.0)
        worker.event("b", 1, 1.0)
        worker.event("c", 1, 2.0)
        parent.merge(worker.as_dict())
        assert [e["name"] for e in parent.events] == ["a", "b", "c"]

    def test_merge_remaps_span_ids_and_parents(self):
        parent, worker = TraceRecorder(), TraceRecorder()
        with parent.span("p"):
            pass
        with worker.span("outer"):
            with worker.span("inner"):
                pass
        parent.merge(worker.as_dict())
        ids = [s.span_id for s in parent.spans]
        assert len(ids) == len(set(ids))  # unique after merge
        inner = next(s for s in parent.spans if s.name == "inner")
        outer = next(s for s in parent.spans if s.name == "outer")
        assert inner.parent == outer.span_id

    def test_merge_none_is_noop(self):
        rec = TraceRecorder()
        rec.merge(None)
        assert rec.spans == [] and rec.events == []

    def test_merge_folds_metrics(self):
        parent, worker = TraceRecorder(), TraceRecorder()
        parent.count("n", 2)
        worker.count("n", 3)
        parent.merge(worker.as_dict())
        assert parent.metrics["counters"]["n"] == 5

    def test_merged_spans_share_parent_timeline(self):
        parent, worker = TraceRecorder(), TraceRecorder()
        with worker.span("w"):
            pass
        with parent.span("p"):
            pass
        parent.merge(worker.as_dict())
        doc = parent.as_dict()
        starts = [s["start"] for s in doc["spans"]]
        # Both absolute times land in the same epoch neighbourhood
        # (seconds apart, not perf_counter-anchor apart).
        assert abs(starts[0] - starts[1]) < 60.0


class TestChromeExport:
    def _recorder(self):
        rec = TraceRecorder()
        with rec.span("task", category="task"):
            pass
        rec.event("send", 0, 1e-6, dest=1, nbytes=8)
        rec.event("compute", 1, 2e-6, seconds=1e-6)
        rec.count("mpi.messages")
        return rec

    def test_every_event_has_required_keys(self):
        doc = chrome_trace(self._recorder())
        assert doc["traceEvents"]
        for e in doc["traceEvents"]:
            for key in ("ph", "ts", "pid", "tid", "name"):
                assert key in e, f"missing {key} in {e}"

    def test_two_processes_wall_and_virtual(self):
        doc = chrome_trace(self._recorder())
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {WALL_PID, VIRTUAL_PID}

    def test_span_becomes_complete_event(self):
        doc = chrome_trace(self._recorder())
        span = next(
            e for e in doc["traceEvents"]
            if e["pid"] == WALL_PID and e["ph"] == "X"
        )
        assert span["name"] == "task" and span["dur"] >= 0

    def test_virtual_events_use_rank_as_tid(self):
        doc = chrome_trace(self._recorder())
        send = next(
            e for e in doc["traceEvents"] if e["name"] == "send"
        )
        assert send["pid"] == VIRTUAL_PID and send["tid"] == 0
        assert send["ph"] == "i"  # no duration: an instant
        compute = next(
            e for e in doc["traceEvents"] if e["name"] == "compute"
        )
        assert compute["ph"] == "X"  # carries seconds: a slice

    def test_metrics_ride_in_other_data(self):
        doc = chrome_trace(self._recorder())
        assert doc["otherData"]["metrics"]["counters"]["mpi.messages"] == 1

    def test_document_is_json_serialisable(self):
        json.dumps(chrome_trace(self._recorder()))


class TestFileRoundTrip:
    def _recorder(self):
        rec = TraceRecorder()
        with rec.span("s"):
            pass
        rec.event("mark", 2, 0.5, label="phase")
        rec.count("c", 4)
        rec.set_gauge("g", 1.5)
        rec.observe("h", 3.0)
        return rec

    def test_chrome_round_trip(self, tmp_path):
        rec = self._recorder()
        path = write_trace(rec, tmp_path / "t.json")
        doc = load_trace(path)
        assert [e["name"] for e in doc["events"]] == ["mark"]
        assert doc["events"][0]["rank"] == 2
        assert doc["metrics"]["counters"]["c"] == 4
        assert [s["name"] for s in doc["spans"]] == ["s"]

    def test_jsonl_round_trip(self, tmp_path):
        rec = self._recorder()
        path = write_trace(rec, tmp_path / "t.jsonl")
        doc = load_trace(path)
        assert [e["name"] for e in doc["events"]] == ["mark"]
        assert doc["metrics"]["counters"]["c"] == 4
        assert doc["metrics"]["gauges"]["g"] == 1.5
        assert doc["metrics"]["histograms"]["h"]["count"] == 1

    def test_jsonl_lines_are_valid_json(self):
        for line in jsonl_lines(self._recorder()):
            rec = json.loads(line)
            assert rec["type"] in ("span", "event", "metric")

    def test_virtual_track_from_both_views(self, tmp_path):
        rec = self._recorder()
        canonical = virtual_track(rec.as_dict())
        chrome = virtual_track(chrome_trace(rec))
        assert len(canonical) == len(chrome) == 1
        assert chrome[0]["pid"] == VIRTUAL_PID


class TestSummarize:
    def test_summary_fields(self):
        rec = TraceRecorder()
        with rec.span("slow"):
            pass
        rec.event("send", 0, 1.0)
        rec.event("send", 1, 2.0)
        rec.event("recv", 1, 3.0)
        doc = summarize_trace(rec)
        assert doc["nspans"] == 1
        assert doc["nevents"] == 3
        assert doc["events_by_kind"] == {"recv": 1, "send": 2}
        assert doc["ranks"] == 2
        assert doc["virtual_seconds"] == 3.0
        assert doc["top_spans"][0]["name"] == "slow"

    def test_summary_of_empty_trace(self):
        doc = summarize_trace(TraceRecorder())
        assert doc["nspans"] == 0 and doc["nevents"] == 0
        assert doc["wall_seconds"] == 0.0

    def test_render_trace_summary_text(self):
        from repro.core.report import render_trace_summary

        rec = TraceRecorder()
        with rec.span("t", category="task"):
            pass
        rec.event("send", 0, 1e-5)
        rec.count("mpi.messages", 7)
        rec.observe("h", 2.0)
        text = render_trace_summary(summarize_trace(rec))
        assert "1 span(s)" in text
        assert "send" in text
        assert "mpi.messages" in text
        assert "histogram" in text
