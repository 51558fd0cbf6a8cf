"""Unit tests for the trace recorder's metrics: counters, gauges and
histograms kept as the plain document ``as_dict()["metrics"]`` ships."""

import json

import pytest

from repro.obs import TraceRecorder


def _metrics(rec: TraceRecorder) -> dict:
    return rec.as_dict()["metrics"]


def _histogram(*values: float) -> dict:
    rec = TraceRecorder()
    for v in values:
        rec.observe("h", v)
    return _metrics(rec)["histograms"]["h"]


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        rec = TraceRecorder()
        rec.count("n")
        rec.count("n", 2.5)
        assert rec.metrics["counters"]["n"] == 3.5

    def test_same_name_returns_same_instrument(self):
        """One name is one counter: increments land on a single float."""
        rec = TraceRecorder()
        rec.count("n", 2)
        rec.count("n", 3)
        assert _metrics(rec)["counters"] == {"n": 5.0}
        assert type(rec.metrics["counters"]["n"]) is float

    def test_rejects_negative_increment(self):
        rec = TraceRecorder()
        with pytest.raises(ValueError):
            rec.count("n", -1)
        with pytest.raises(ValueError):
            rec.merge({"metrics": {"counters": {"n": -1}}})
        assert rec.metrics["counters"] == {}

    def test_name_kind_collision_is_an_error(self):
        rec = TraceRecorder()
        rec.count("x")
        taken = "already registered as a counter"
        with pytest.raises(ValueError, match=taken):
            rec.set_gauge("x", 1)
        with pytest.raises(ValueError, match=taken):
            rec.observe("x", 1.0)
        rec.set_gauge("g", 1)
        taken = "already registered as a gauge"
        with pytest.raises(ValueError, match=taken):
            rec.count("g")
        with pytest.raises(ValueError, match=taken):
            rec.merge({"metrics": {"histograms": {"g": {"count": 0}}}})
        assert _metrics(rec)["histograms"] == {}


class TestGauge:
    def test_last_write_wins(self):
        rec = TraceRecorder()
        rec.set_gauge("jobs", 4)
        rec.set_gauge("jobs", 2)
        assert rec.metrics["gauges"]["jobs"] == 2.0
        assert type(rec.metrics["gauges"]["jobs"]) is float


class TestHistogram:
    def test_bucket_layout(self):
        # bucket 0 holds values below 1; v >= 1 goes to floor(log2 v) + 1
        for value, bucket in ((0.0, "0"), (0.5, "0"), (1.0, "1"),
                              (1.9, "1"), (2.0, "2"), (1024.0, "11")):
            assert _histogram(value)["buckets"] == {bucket: 1}, value

    def test_observe_tracks_count_sum_min_max(self):
        h = _histogram(1.0, 3.0, 0.25)
        assert h["count"] == 3
        assert h["sum"] == 4.25
        assert h["min"] == 0.25 and h["max"] == 3.0
        assert h["sum"] / h["count"] == pytest.approx(4.25 / 3)

    def test_rejects_negative_observation(self):
        rec = TraceRecorder()
        with pytest.raises(ValueError):
            rec.observe("h", -0.1)
        assert rec.metrics["histograms"] == {}

    def test_merge_equals_union_of_observations(self):
        a, b = TraceRecorder(), TraceRecorder()
        for v in (0.5, 2.0):
            a.observe("h", v)
        for v in (8.0, 0.1):
            b.observe("h", v)
        a.merge(b.as_dict())
        assert _metrics(a)["histograms"]["h"] == _histogram(0.5, 2.0, 8.0, 0.1)


class TestRegistry:
    def test_as_dict_is_sorted_and_json_stable(self):
        rec = TraceRecorder()
        rec.count("b")
        rec.count("a")
        for v in (2.0, 1024.0, 0.5):
            rec.observe("h", v)
        m = _metrics(rec)
        text = json.dumps(m, sort_keys=True)
        assert json.loads(text) == m
        assert list(m["counters"]) == ["a", "b"]
        # bucket keys are decimal strings in numeric order
        assert list(m["histograms"]["h"]["buckets"]) == ["0", "2", "11"]
        assert list(m["histograms"]["h"]) == [
            "count", "sum", "min", "max", "buckets"]

    def test_merge_adds_counters_overwrites_gauges(self):
        a, b = TraceRecorder(), TraceRecorder()
        a.count("n", 1)
        a.set_gauge("g", 1)
        b.count("n", 2)
        b.set_gauge("g", 9)
        a.merge(b.as_dict())
        assert a.metrics["counters"]["n"] == 3
        assert a.metrics["gauges"]["g"] == 9

    def test_merge_accepts_plain_dict(self):
        a = TraceRecorder()
        a.merge({"metrics": {
            "counters": {"n": 4}, "gauges": {},
            "histograms": {"h": {"count": 1, "sum": 2.0, "min": 2.0,
                                 "max": 2.0, "buckets": {"2": 1}}}}})
        assert a.metrics["counters"]["n"] == 4.0
        assert type(a.metrics["counters"]["n"]) is float
        assert _metrics(a)["histograms"]["h"] == _histogram(2.0)

    def test_round_trips_through_json(self):
        a = TraceRecorder()
        a.count("n", 3)
        a.set_gauge("g", 2)
        for v in (1.5, 300.0, 0.1):
            a.observe("h", v)
        b = TraceRecorder()
        b.merge(json.loads(json.dumps(a.as_dict())))
        assert _metrics(b) == _metrics(a)

    def test_is_empty(self):
        rec = TraceRecorder()
        assert _metrics(rec) == {"counters": {}, "gauges": {},
                                 "histograms": {}}
        rec.count("n", 0)
        assert _metrics(rec)["counters"] == {"n": 0.0}
        empty = TraceRecorder()
        empty.merge({"metrics": {"histograms": {"h": {"count": 0}}}})
        assert _metrics(empty)["histograms"]["h"] == {
            "count": 0, "sum": 0.0, "min": None, "max": None, "buckets": {}}
