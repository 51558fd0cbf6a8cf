"""Golden-schema regression tests for metric documents.

Canonical documents of each kind — built from fixed, fully
deterministic inputs (pinned stats objects, a handcrafted campaign doc,
a frozen bench-results dict, pinned git sha) — are committed under
``tests/golden/metrics/`` and compared field-by-field.  Any change to
the document schema (a renamed metric, a moved field, a direction flip,
a new volatile key) fails with a per-field diff naming the drift, which
makes schema evolution an explicit review event rather than a silent
break of every stored ``.repro-metrics/`` history.

Updating after an *intentional* schema change::

    PYTHONPATH=src python -m pytest tests/test_metrics_golden.py \
        --update-golden
    git diff tests/golden/metrics/   # review the schema drift, commit

(Bump ``SCHEMA_VERSION`` when the change breaks old readers.)
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict

import pytest

from repro.exec.engine import ExperimentStats, RunStats, TaskMetric
from repro.obs.collector import (
    collect_bench,
    collect_campaign,
    collect_faults,
    collect_run,
)

GOLDEN_DIR = Path(__file__).parent / "golden" / "metrics"

#: every fixed input pins this sha so snapshots never depend on HEAD.
SHA = "0123456789ab"


# ---------------------------------------------------------------------------
# Fixed deterministic inputs, one per document kind
# ---------------------------------------------------------------------------

def _run_document() -> Dict[str, Any]:
    stats = RunStats(
        jobs=2,
        experiments=[
            ExperimentStats(
                key="fig2", scale="ci", cached=False, passed=True,
                seconds=0.75,
                tasks=[
                    TaskMetric(experiment="fig2", label="fig2[0]",
                               seconds=0.5, worker="pool"),
                    TaskMetric(experiment="fig2", label="fig2[1]",
                               seconds=0.25, worker="pool"),
                ],
            ),
            ExperimentStats(
                key="fig3", scale="ci", cached=True, passed=False,
                seconds=0.0, failed_tasks=1,
                tasks=[
                    TaskMetric(experiment="fig3", label="fig3[0]",
                               seconds=0.5, worker="pool",
                               error="RankFailedError: rank 3"),
                ],
            ),
        ],
        total_seconds=1.5,
        fault_spec="lossy:0.1",
        fault_seed=3,
        guard_mode="observe",
        guard_cadence=16,
    )
    outcomes = {
        "fig2": SimpleNamespace(
            passed=True,
            claim_results=[("latency within envelope", True),
                           ("bandwidth saturates", True)],
        ),
        "fig3": SimpleNamespace(
            passed=False,
            claim_results=[("allreduce scales", False)],
        ),
    }
    return collect_run(stats, outcomes, keys=["fig2", "fig3"], scale="ci",
                       sha=SHA)


def _faults_document() -> Dict[str, Any]:
    sweep = {
        "seed": 3,
        "nranks": 8,
        "sizes": [8, 4096],
        "repetitions": 1,
        "severities": {
            "off": {
                "spec": None, "failed_ranks": [], "straggler_ranks": [],
                "pingpong_us": [1.1, 2.2], "allreduce_us": 14.5,
                "pingpong_inflation": 1.0, "allreduce_slowdown": 1.0,
            },
            "lossy": {
                "spec": "lossy", "failed_ranks": [],
                "straggler_ranks": [], "pingpong_us": [1.9, 3.8],
                "allreduce_us": 29.0, "pingpong_inflation": 1.75,
                "allreduce_slowdown": 2.0,
            },
            "failstop": {
                "spec": "failstop", "failed_ranks": [3, 5],
                "straggler_ranks": [], "error": "RankFailedError: rank 3",
            },
        },
    }
    return collect_faults(sweep, sha=SHA)


def _campaign_document() -> Dict[str, Any]:
    campaign = {
        "campaign": "mini-chaos",
        "fingerprint": "feedbeef",
        "total": 3,
        "baselines": ["fig2-ci-baseline"],
        "truncated": ["dropped-one"],
        "scenarios": [
            {"name": "fig2-ci-baseline", "status": "ok", "baseline": True,
             "seconds": 1.5, "digest": "aaaa"},
            {"name": "lossy-storm", "status": "ok", "seconds": 2.25,
             "digest": "bbbb"},
            {"name": "sick-links", "status": "error", "seconds": 0.5,
             "error": "boom"},
        ],
        "scoreboard": [
            {"name": "lossy-storm", "hash": "bbbb",
             "describe": "fig2 under heavy loss", "badness": 4.25,
             "drift_max": 0.5, "drift_mean": 0.25, "claims_failed": 1,
             "failures": 0, "remediations": 2, "fault_events": 17,
             "digest": "bbbb"},
        ],
    }
    return collect_campaign(campaign, sha=SHA)


def _bench_document() -> Dict[str, Any]:
    results = {
        "figures": {
            "fig3_collectives": {
                "object_seconds": {"seconds": 10.5, "repeat": 1,
                                   "warmup": 0, "min_time": 0.0,
                                   "iters": 1},
                "batched_seconds": {"seconds": 4.2, "repeat": 1,
                                    "warmup": 0, "min_time": 0.0,
                                    "iters": 1},
                "speedup": 2.5,
                "identical": True,
                "sizes": [4, 1024, 262144],
                "nranks": 1536,
            },
        },
        "points": {
            "allreduce_1024B_1536r_reps5": {
                "object_seconds": 2.0,  # legacy bare-float shape
                "batched_seconds": 0.8,
                "speedup": 2.5,
                "messages": 55296,
                "object_events_per_sec": 27648,
                "batched_events_per_sec": 69120,
            },
        },
    }
    return collect_bench(results, python="3.12.0", sha=SHA)


KINDS = {
    "run": _run_document,
    "faults": _faults_document,
    "campaign": _campaign_document,
    "bench": _bench_document,
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_golden_metric_document(kind: str, golden) -> None:
    # A schema drift that breaks old readers also bumps SCHEMA_VERSION.
    golden(f"metrics/{kind}.json", KINDS[kind]())


def test_all_kind_snapshots_committed() -> None:
    missing = [k for k in sorted(KINDS)
               if not (GOLDEN_DIR / f"{k}.json").exists()]
    assert not missing, f"missing golden metric documents for: {missing}"


def test_documents_build_deterministically() -> None:
    """The fixed inputs really are fixed: two builds serialise
    identically (what makes these snapshots sound)."""
    for kind, build in KINDS.items():
        a = json.dumps(build(), sort_keys=True)
        b = json.dumps(build(), sort_keys=True)
        assert a == b, f"{kind} document is not deterministic"
