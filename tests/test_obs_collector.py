"""Unit + property tests for the per-run metric-document pipeline.

What is pinned here:

* the store: lock-sequenced filenames, atomic round-trips, kind
  filtering, schema-version refusal;
* the identity contract: :func:`document_digest` hashes only the
  deterministic view, so *any* volatile content (jobs, wall seconds,
  cache counters) leaves the digest untouched — a hypothesis property,
  because that invariance is what the ``--jobs``/``--resume``
  byte-identity matrix rests on;
* the trend gate algebra: direction-aware comparisons are scale
  invariant, regression/improved are mutually exclusive, and the
  higher/lower baselines (median of previous) are invariant under
  permutation of the history — aggregation order can never flip a
  verdict;
* timing provenance: ``measure_seconds_detail`` records the protocol,
  ``Timing.from_value`` still reads the legacy bare-float shape.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atomicio import canonical_json
from repro.core.benchmark import Timing, measure_seconds, measure_seconds_detail
from repro.exec.engine import ExperimentStats, RunStats, TaskMetric
from repro.obs.collector import (
    DEFAULT_TOLERANCE,
    SCHEMA_VERSION,
    MetricsStore,
    _compare,
    bench_trend,
    collect_bench,
    collect_campaign,
    collect_faults,
    collect_run,
    document_digest,
    git_sha,
    infer_direction,
    metric,
    strip_volatile,
)


def _bench_doc(value: float, direction: str = "higher", name: str = "m"):
    return {
        "schema": SCHEMA_VERSION,
        "kind": "bench",
        "meta": {"git_sha": "cafe", "sim_core": "batched"},
        "metrics": {name: metric(value, direction)},
    }


# ---------------------------------------------------------------------------
# Metric entries and direction inference
# ---------------------------------------------------------------------------

class TestMetricEntry:
    def test_bool_becomes_number(self):
        assert metric(True, "exact")["value"] == 1.0

    def test_rejects_unknown_direction(self):
        with pytest.raises(ValueError, match="direction"):
            metric(1.0, "sideways")

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            metric(1.0, "higher", tolerance=-0.1)

    def test_optional_fields_are_omitted_when_unset(self):
        assert set(metric(2.0, "lower")) == {"value", "direction"}

    @pytest.mark.parametrize("name,expected", [
        ("object_seconds", "lower"),
        ("allreduce_us", "lower"),
        ("batched_events_per_sec", "higher"),
        ("speedup", "higher"),
        ("pingpong_speedup", "higher"),
        ("identical", "exact"),
        ("messages", "info"),
    ])
    def test_infer_direction(self, name, expected):
        assert infer_direction(name) == expected


# ---------------------------------------------------------------------------
# Timing provenance (and the legacy bare-float reader)
# ---------------------------------------------------------------------------

class TestTimingProvenance:
    def test_detail_records_protocol(self):
        t = measure_seconds_detail(lambda: None, repeat=3, warmup=2,
                                   min_time=0.0)
        assert t.repeat == 3 and t.warmup == 2 and t.iters == 1
        assert t.seconds >= 0.0

    def test_autorange_iters_recorded(self):
        t = measure_seconds_detail(lambda: None, repeat=1, warmup=0,
                                   min_time=1e-4)
        assert t.iters >= 1 and t.min_time == 1e-4

    def test_measure_seconds_is_the_detail_value(self):
        # Same protocol, scalar view: the float API stays.
        assert isinstance(measure_seconds(lambda: None, repeat=1), float)

    def test_from_value_reads_legacy_floats(self):
        t = Timing.from_value(0.25)
        assert t.seconds == 0.25
        assert t.repeat == 1 and t.warmup == 0 and t.iters == 1

    def test_from_value_reads_dict_shape(self):
        t = Timing.from_value({"seconds": 0.5, "repeat": 7, "min_time": 0.2,
                               "iters": 8, "warmup": 1})
        assert t == Timing(seconds=0.5, repeat=7, warmup=1, min_time=0.2,
                           iters=8)

    def test_round_trip(self):
        t = Timing(seconds=1.5, repeat=5, warmup=1, min_time=0.1, iters=4)
        assert Timing.from_value(t.as_dict()) == t
        assert "seconds" not in t.provenance()


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------

class TestMetricsStore:
    def test_sequenced_filenames_and_order(self, tmp_path):
        store = MetricsStore(tmp_path / "m")
        p1 = store.write(_bench_doc(1.0))
        p2 = store.write(_bench_doc(2.0))
        assert [p.name for p in store.paths()] == [p1.name, p2.name]
        assert p1.name == "metrics-000001-bench.json"
        assert p2.name == "metrics-000002-bench.json"
        assert len(store) == 2

    def test_round_trip_and_digest_stamp(self, tmp_path):
        store = MetricsStore(tmp_path)
        doc = _bench_doc(3.0)
        path = store.write(doc)
        loaded = store.load(path)
        assert loaded["digest"] == document_digest(doc)
        assert loaded["metrics"] == doc["metrics"]

    def test_kind_filter(self, tmp_path):
        store = MetricsStore(tmp_path)
        store.write(_bench_doc(1.0))
        faults = dict(_bench_doc(2.0), kind="faults")
        store.write(faults)
        assert [d["kind"] for _, d in store.load_last(kind="faults")] == [
            "faults"
        ]
        assert len(store.paths("bench")) == 1

    def test_load_last_window(self, tmp_path):
        store = MetricsStore(tmp_path)
        for v in (1.0, 2.0, 3.0):
            store.write(_bench_doc(v))
        last2 = store.load_last(2)
        assert [d["metrics"]["m"]["value"] for _, d in last2] == [2.0, 3.0]

    def test_unknown_schema_refused(self, tmp_path):
        store = MetricsStore(tmp_path)
        with pytest.raises(ValueError, match="schema"):
            store.write(dict(_bench_doc(1.0), schema=99))
        bad = tmp_path / "metrics-000009-bench.json"
        bad.write_text(json.dumps({"schema": 99, "kind": "bench"}))
        with pytest.raises(ValueError, match="schema"):
            store.load(bad)

    def test_foreign_files_ignored(self, tmp_path):
        store = MetricsStore(tmp_path)
        (tmp_path / "notes.txt").write_text("not a document")
        (tmp_path / "metrics-xyz-bench.json").write_text("{}")
        store.write(_bench_doc(1.0))
        assert len(store) == 1


# ---------------------------------------------------------------------------
# Digest: volatile-blindness (the --jobs/--resume identity substrate)
# ---------------------------------------------------------------------------

volatile_strategy = st.dictionaries(
    st.sampled_from(["jobs", "total_seconds", "cache", "resume", "x"]),
    st.one_of(
        st.integers(min_value=0, max_value=64),
        st.floats(min_value=0, max_value=1e3, allow_nan=False),
    ),
    max_size=5,
)


class TestGitSha:
    def test_default_is_the_sources_checkout_not_the_cwd(
        self, tmp_path, monkeypatch
    ):
        """``meta.git_sha`` (and so every document digest) is the same
        wherever the command runs from."""
        import repro

        repo_root = Path(repro.__file__).resolve().parents[2]
        monkeypatch.chdir(tmp_path)
        assert git_sha() == git_sha(repo_root)


class TestDigest:
    def test_strip_volatile_is_idempotent(self):
        doc = dict(_bench_doc(1.0), volatile={"jobs": 4})
        assert strip_volatile(strip_volatile(doc)) == strip_volatile(doc)
        assert "volatile" not in strip_volatile(doc)

    @given(v1=volatile_strategy, v2=volatile_strategy)
    @settings(max_examples=50, deadline=None)
    def test_digest_blind_to_volatile(self, v1, v2):
        a = dict(_bench_doc(1.5), volatile=v1)
        b = dict(_bench_doc(1.5), volatile=v2)
        assert document_digest(a) == document_digest(b)

    def test_digest_sees_deterministic_changes(self):
        assert document_digest(_bench_doc(1.0)) != document_digest(
            _bench_doc(1.0 + 1e-9)
        )


# ---------------------------------------------------------------------------
# Collectors
# ---------------------------------------------------------------------------

def _fake_stats(jobs=1, seconds=0.5):
    return RunStats(
        jobs=jobs,
        experiments=[
            ExperimentStats(
                key="fig2", scale="ci", cached=False, passed=True,
                seconds=seconds,
                tasks=[TaskMetric(experiment="fig2", label="fig2[0]",
                                  seconds=seconds, worker="inline")],
            ),
        ],
        total_seconds=seconds * 2,
    )


def _fake_outcomes():
    return {
        "fig2": SimpleNamespace(
            passed=True,
            claim_results=[("latency matches", True), ("bw matches", True)],
        ),
    }


class TestCollectors:
    def test_collect_run_separates_volatile(self):
        doc = collect_run(_fake_stats(jobs=1, seconds=0.5),
                          _fake_outcomes(), scale="ci", sha="cafe")
        other = collect_run(_fake_stats(jobs=8, seconds=9.9),
                            _fake_outcomes(), scale="ci", sha="cafe")
        assert doc["volatile"]["jobs"] == 1 and other["volatile"]["jobs"] == 8
        assert document_digest(doc) == document_digest(other)
        assert doc["metrics"]["claims.checked"]["value"] == 2.0
        assert doc["metrics"]["experiment.fig2.passed"]["value"] == 1.0
        assert doc["metrics"]["exec.tasks"]["direction"] == "exact"

    def test_collect_run_guard_metrics_gated_on_mode(self):
        stats = _fake_stats()
        assert "guard.events" not in collect_run(stats, sha="x")["metrics"]
        stats.guard_mode = "observe"
        doc = collect_run(stats, sha="x")
        assert doc["metrics"]["guard.events"]["direction"] == "exact"
        assert doc["meta"]["guard"]["mode"] == "observe"

    def test_collect_faults_is_deterministic(self):
        from repro.mpi.faults import fault_drift_report

        sweep = lambda: fault_drift_report(
            seed=3, severities=["off", "lossy"], nranks=4, repetitions=1,
        )
        a = collect_faults(sweep(), sha="cafe")
        b = collect_faults(sweep(), sha="cafe")
        assert a == b
        assert a["metrics"]["faults.lossy.pingpong_inflation"][
            "direction"] == "exact"
        assert all(m["direction"] == "exact" for m in a["metrics"].values())

    def test_collect_campaign_scoreboard_and_volatile_seconds(self):
        campaign = {
            "campaign": "mini", "fingerprint": "abcd", "total": 2,
            "baselines": ["base"], "truncated": [],
            "scenarios": [
                {"name": "base", "status": "ok", "seconds": 1.25},
                {"name": "chaos", "status": "ok", "seconds": 2.5},
            ],
            "scoreboard": [
                {"name": "chaos", "describe": "chaos run", "badness": 3.5,
                 "drift_max": 0.25, "claims_failed": 1, "failures": 0,
                 "remediations": 2, "fault_events": 7, "digest": "dead"},
            ],
        }
        doc = collect_campaign(campaign, sha="cafe")
        assert doc["metrics"]["scenario.chaos.badness"]["value"] == 3.5
        assert doc["metrics"]["campaign.badness.max"]["value"] == 3.5
        assert doc["scenarios"][0]["name"] == "chaos"
        assert doc["volatile"]["seconds"] == {"base": 1.25, "chaos": 2.5}
        slower = dict(campaign)
        slower["scenarios"] = [
            dict(e, seconds=e["seconds"] * 10) for e in campaign["scenarios"]
        ]
        assert document_digest(collect_campaign(slower, sha="cafe")) == \
            document_digest(doc)

    def test_collect_bench_directions_and_provenance(self):
        results = {
            "figures": {
                "fig3": {
                    "object_seconds": 2.0,
                    "batched_seconds": {"seconds": 1.0, "repeat": 3,
                                        "warmup": 1, "min_time": 0.0,
                                        "iters": 1},
                    "speedup": 2.0,
                    "identical": True,
                    "messages": 1234,
                    "sizes": [4, 1024],
                },
            },
        }
        doc = collect_bench(results, python="3.12.0", sha="cafe")
        m = doc["metrics"]
        assert m["bench.figures.fig3.object_seconds"]["direction"] == "lower"
        assert m["bench.figures.fig3.batched_seconds"]["timing"][
            "repeat"] == 3
        assert m["bench.figures.fig3.speedup"]["direction"] == "higher"
        assert m["bench.figures.fig3.identical"]["value"] == 1.0
        assert m["bench.figures.fig3.messages"]["direction"] == "exact"
        assert "bench.figures.fig3.sizes" not in m  # config, not a metric

    def test_collect_bench_reads_the_committed_baseline(self):
        # The repo's own BENCH_simcore.json (timing-dict shape) collects.
        with open("BENCH_simcore.json") as f:
            results = json.load(f)
        doc = collect_bench(results, python=results.get("python"), sha="x")
        assert any(k.endswith("fig3_collectives.speedup")
                   for k in doc["metrics"])


# ---------------------------------------------------------------------------
# Trend gate algebra
# ---------------------------------------------------------------------------

tol_strategy = st.floats(min_value=0.0, max_value=0.5, allow_nan=False)
value_strategy = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)


class TestCompareAlgebra:
    @given(value=value_strategy, baseline=value_strategy, tol=tol_strategy,
           scale=st.floats(min_value=1e-2, max_value=1e2, allow_nan=False),
           direction=st.sampled_from(["higher", "lower"]))
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, value, baseline, tol, scale, direction):
        # Relative tolerance: rescaling the unit never flips a verdict
        # (modulo float rounding at the exact boundary, excluded by the
        # strict inequalities in _compare being measure-zero for these
        # generated values... so just check agreement holds).
        a = _compare(value, baseline, direction, tol)
        b = _compare(value * scale, baseline * scale, direction, tol)
        boundary = abs(abs(value - baseline) - tol * baseline)
        if boundary > 1e-9 * max(value, baseline):
            assert a == b

    @given(value=value_strategy, baseline=value_strategy, tol=tol_strategy)
    @settings(max_examples=200, deadline=None)
    def test_higher_lower_are_mirrors(self, value, baseline, tol):
        flip = {"regression": "improved", "improved": "regression",
                "ok": "ok"}
        assert _compare(value, baseline, "lower", tol) == flip[
            _compare(value, baseline, "higher", tol)
        ]

    def test_exact_gates_on_any_change(self):
        assert _compare(1.0, 1.0, "exact", 0.5) == "ok"
        assert _compare(1.0 + 1e-12, 1.0, "exact", 0.5) == "regression"

    def test_within_tolerance_is_ok(self):
        assert _compare(95.0, 100.0, "higher", 0.10) == "ok"
        assert _compare(105.0, 100.0, "lower", 0.10) == "ok"
        assert _compare(89.0, 100.0, "higher", 0.10) == "regression"
        assert _compare(112.0, 100.0, "lower", 0.10) == "regression"
        assert _compare(115.0, 100.0, "higher", 0.10) == "improved"


class TestBenchTrend:
    def test_new_metric_does_not_gate(self, tmp_path):
        store = MetricsStore(tmp_path)
        store.write(_bench_doc(1.0))
        verdict = bench_trend(store)
        assert verdict["metrics"]["m"]["status"] == "new"
        assert verdict["ok"]

    def test_info_never_gates(self, tmp_path):
        store = MetricsStore(tmp_path)
        store.write(_bench_doc(1.0, "info"))
        store.write(_bench_doc(1e9, "info"))
        assert bench_trend(store)["ok"]

    def test_per_metric_tolerance_overrides_default(self, tmp_path):
        store = MetricsStore(tmp_path)
        doc = _bench_doc(100.0)
        doc["metrics"]["m"]["tolerance"] = 0.5
        store.write(doc)
        latest = _bench_doc(60.0)
        latest["metrics"]["m"]["tolerance"] = 0.5
        store.write(latest)
        # -40% passes the 0.5 per-metric tolerance, would fail 0.10.
        assert bench_trend(store, tolerance=DEFAULT_TOLERANCE)["ok"]

    def test_kinds_gate_independently(self, tmp_path):
        store = MetricsStore(tmp_path)
        store.write(_bench_doc(100.0))
        store.write(dict(_bench_doc(100.0), kind="faults"))
        store.write(_bench_doc(50.0))
        verdict = bench_trend(store)
        # Cross-kind name collisions get kind-qualified; the faults
        # doc's metric is its kind's latest with no history (new), so
        # only the bench kind regresses.
        assert verdict["regressions"] == ["bench:m"]
        assert verdict["metrics"]["bench:m"]["status"] == "regression"
        assert verdict["metrics"]["faults:m"]["status"] == "new"

    @given(
        history=st.lists(value_strategy, min_size=2, max_size=6),
        latest=value_strategy,
        direction=st.sampled_from(["higher", "lower"]),
        seed=st.randoms(),
    )
    @settings(max_examples=25, deadline=None)
    def test_verdict_invariant_under_history_permutation(
        self, tmp_path_factory, history, latest, direction, seed,
    ):
        # The higher/lower baseline is the median of previous values:
        # the order runs happened in can never flip the verdict.
        def build(order):
            root = tmp_path_factory.mktemp("store")
            store = MetricsStore(root)
            for v in order:
                store.write(_bench_doc(v, direction))
            store.write(_bench_doc(latest, direction))
            verdict = bench_trend(store, last=len(order) + 1)
            verdict["documents"] = None  # filenames differ per temp dir
            return verdict

        shuffled = list(history)
        seed.shuffle(shuffled)
        assert build(history) == build(shuffled)

    def test_verdict_is_canonical_json_stable(self, tmp_path):
        store = MetricsStore(tmp_path)
        store.write(_bench_doc(1.0))
        store.write(_bench_doc(1.01))
        a = canonical_json(bench_trend(store))
        b = canonical_json(bench_trend(store))
        assert a == b
