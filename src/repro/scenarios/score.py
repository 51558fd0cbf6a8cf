"""Scenario execution and scoring.

:func:`run_scenario` is the payload behind the ``scenario_run`` exec
Task kind: inside one (worker) process it decomposes the scenario's
experiment into its sweep-point tasks, runs them under the scenario's
fault plan and a per-point guard monitor with a scenario-wide metrics
recorder, merges the figure, evaluates the experiment's claims, and
returns one plain-data document — figures, claims, per-point guard
records, ``mpi.*``/``guard.*`` counters, and any numerical/resilience
failures — capped by a content digest.  Everything in the document is
a pure function of the spec, so the digest is what frozen regressions
replay against.

Scoring (:func:`score_scenario`) compares a scenario document against
its fault-free baseline document: relative **figure drift** per shared
numeric leaf, **guard remediation** counts, failed claims, typed
failures, and fault-counter volume, combined into one deterministic
``badness`` number the campaign scoreboard sorts by.  Bigger badness =
the scenario hurt the reproduction more — exactly what the autopilot
climbs toward.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Dict, List, Optional

from ..core.atomicio import canonical_json
from ..core.benchmark import SweepResult
from ..core.experiments import evaluate_outcome, failed_outcome
from ..guard.monitor import GuardConfig, GuardMonitor, guarding
from ..obs import TraceRecorder, recording
from .spec import ScenarioSpec

__all__ = [
    "run_scenario",
    "run_scenario_task",
    "figure_doc",
    "payload_drift",
    "score_scenario",
]


# ---------------------------------------------------------------------------
# Figure serialisation (plain JSON data, any experiment)
# ---------------------------------------------------------------------------
def _field_stats(z: Any) -> Dict[str, Any]:
    import numpy as np

    z = np.asarray(z, dtype=np.float64)
    return {
        "shape": list(z.shape),
        "mean": float(z.mean()),
        "std": float(z.std()),
        "min": float(z.min()),
        "max": float(z.max()),
        "abs_sum": float(np.abs(z).sum()),
    }


def figure_doc(result: Any) -> Any:
    """Serialise any experiment result to plain JSON data.

    Handles sweep results (Figs. 1/2/3/5 and their panel dicts), the
    Fig. 4 field result (summary statistics, matching
    ``tests/golden/fig4.json``), and listing strings.
    """
    if isinstance(result, SweepResult):
        return {
            "title": result.title,
            "xlabel": result.xlabel,
            "ylabel": result.ylabel,
            "series": {
                label: {"x": list(s.x), "y": list(s.y)}
                for label, s in result.series.items()
            },
        }
    if isinstance(result, dict):
        return {name: figure_doc(panel) for name, panel in result.items()}
    if isinstance(result, str):
        return {"listing": result}
    if hasattr(result, "vorticity_f64"):  # fig4's field result
        return {
            "correlation": float(result.correlation),
            "nrmse": float(result.nrmse),
            "f64_runtime_ratio": float(result.f64_runtime_ratio),
            "vorticity_f64": _field_stats(result.vorticity_f64),
            "vorticity_f16": _field_stats(result.vorticity_f16),
        }
    return {"repr": repr(result)}


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------
def run_scenario(spec: ScenarioSpec) -> Dict[str, Any]:
    """Run one scenario to a plain-data document (pure in the spec).

    Sweep points run serially inside this process; each gets a fresh
    guard monitor (mirroring the engine's per-task monitors) so
    remediation chains stay per-point, while one scenario-wide recorder
    accumulates the simulator's ``mpi.*`` fault counters.  Numerical
    and resilience failures (guard violations, failed ranks, deadlocks)
    are *outcomes*, not errors: they land in ``failures`` and degrade
    the claims, never raise.
    """
    from ..exec.tasks import decompose, execute_task, merge_results
    from ..mpi.simulator import DeadlockError, RankFailedError

    tasks = decompose(
        spec.experiment,
        spec.scale,
        fault_spec=spec.faults,
        fault_seed=spec.fault_seed,
        guard_mode=spec.guard,
        guard_cadence=spec.guard_cadence,
        guard_inject=spec.guard_inject,
    )
    recorder = TraceRecorder()
    payloads: List[Any] = []
    failures: List[Dict[str, str]] = []
    guard_docs: List[Dict[str, Any]] = []
    with recording(recorder):
        for task in tasks:
            monitor = (
                GuardMonitor(GuardConfig(
                    mode=spec.guard, cadence=spec.guard_cadence
                ))
                if spec.guard
                else None
            )
            try:
                with guarding(monitor):
                    payloads.append(execute_task(task))
            except (FloatingPointError, RankFailedError,
                    DeadlockError) as exc:
                failures.append({
                    "task": task.label,
                    "error": f"{type(exc).__name__}: {exc}",
                })
                payloads.append(None)
            if monitor is not None:
                gdoc = monitor.as_dict()
                if gdoc is not None:
                    guard_docs.append({"task": task.label, "guard": gdoc})

    if failures:
        figures = None
        outcome = failed_outcome(
            spec.experiment, [(f["task"], f["error"]) for f in failures]
        )
    else:
        result = merge_results(spec.experiment, spec.scale, payloads)
        figures = figure_doc(result)
        outcome = evaluate_outcome(spec.experiment, result)

    counters = {
        name: value
        for name, value in sorted(recorder.metrics["counters"].items())
        if name.startswith(("mpi.", "guard."))
    }
    doc: Dict[str, Any] = {
        "spec": spec.as_dict(),
        "figures": figures,
        "failures": failures,
        "claims": [
            {"text": text, "ok": ok} for text, ok in outcome.claim_results
        ],
        "passed": outcome.passed,
        "guard": guard_docs,
        "counters": counters,
    }
    doc["digest"] = hashlib.sha256(
        canonical_json(doc).encode()
    ).hexdigest()[:16]
    return doc


def run_scenario_task(spec: Dict[str, Any]) -> Dict[str, Any]:
    """`scenario_run` Task executor: params carry the spec as a dict."""
    return run_scenario(ScenarioSpec.from_dict(spec))


# ---------------------------------------------------------------------------
# Drift + scoring
# ---------------------------------------------------------------------------
def _flatten(doc: Any, prefix: str = "") -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    if isinstance(doc, dict):
        for k, v in doc.items():
            out.update(_flatten(v, f"{prefix}/{k}"))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            out.update(_flatten(v, f"{prefix}[{i}]"))
    else:
        out[prefix] = doc
    return out


def _rel_drift(a: float, b: float) -> float:
    """Bounded relative difference in [0, 2]; non-finite mismatches
    count as full drift (an Inf/NaN figure is maximally wrong)."""
    a_bad, b_bad = not math.isfinite(a), not math.isfinite(b)
    if a_bad or b_bad:
        if a_bad and b_bad and repr(a) == repr(b):
            return 0.0
        return 2.0
    if a == b:
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def payload_drift(
    doc: Dict[str, Any], baseline: Dict[str, Any]
) -> Optional[Dict[str, Any]]:
    """Per-leaf relative drift of a scenario's figures vs its baseline.

    None when either side has no figures (a failed scenario has nothing
    to diff — its failures are scored directly instead).
    """
    figs, base = doc.get("figures"), baseline.get("figures")
    if figs is None or base is None:
        return None
    cur, ref = _flatten(figs), _flatten(base)
    drifts: List[float] = []
    worst_path, worst = "", -1.0
    for path in sorted(set(cur) & set(ref)):
        a, b = cur[path], ref[path]
        if isinstance(a, bool) or isinstance(b, bool):
            continue
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            continue
        d = _rel_drift(float(a), float(b))
        drifts.append(d)
        if d > worst:
            worst_path, worst = path, d
    if not drifts:
        return {"max": 0.0, "mean": 0.0, "points": 0, "worst": ""}
    return {
        "max": max(drifts),
        "mean": sum(drifts) / len(drifts),
        "points": len(drifts),
        "worst": worst_path,
    }


#: fault counters that feed the score's volume term.
_FAULT_COUNTERS = (
    "mpi.messages.lost", "mpi.retransmits", "mpi.timeouts",
    "mpi.failed_ranks",
)


def score_scenario(
    doc: Dict[str, Any], baseline: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    """Deterministic score of one scenario document vs its baseline.

    ``badness`` combines (weights chosen so each term lands in the same
    few-units range at CI scale): figure drift, failed claims, typed
    failures, guard remediations/violations, and log-compressed fault
    traffic.  A fault-free baseline scores itself at 0.
    """
    drift = payload_drift(doc, baseline) if baseline is not None else None
    claims_failed = sum(1 for c in doc["claims"] if not c["ok"])
    violations = sum(g["guard"].get("violations", 0) for g in doc["guard"])
    remediations = sum(
        1 for g in doc["guard"] if "remediation" in g["guard"]
    )
    guarded = len(doc["guard"])
    fault_events = sum(
        doc["counters"].get(name, 0) for name in _FAULT_COUNTERS
    )
    badness = 0.0
    if drift is not None:
        badness += min(drift["max"], 2.0) * 5.0 + drift["mean"] * 5.0
    badness += 2.0 * claims_failed
    badness += 3.0 * len(doc["failures"])
    badness += 2.0 * remediations + 0.5 * min(violations, 8)
    badness += 0.25 * math.log10(1.0 + fault_events)
    return {
        "drift": drift,
        "claims_failed": claims_failed,
        "failures": len(doc["failures"]),
        "violations": violations,
        "remediations": remediations,
        "remediation_rate": (
            remediations / guarded if guarded else 0.0
        ),
        "fault_events": int(fault_events),
        "badness": round(badness, 9),
    }
