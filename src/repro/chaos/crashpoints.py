"""The crashpoint campaign runner: enumerate, crash, recover, judge.

One sweep is a pure function of ``(workloads, seed, budget)``:

1. **Enumerate** — execute each workload once in a scratch root under
   a :class:`~repro.chaos.faultio.CountingIO` policy.  That single
   pass is both the uninterrupted *baseline* (its digests are the
   convergence target) and the catalogue of durability points (every
   WAL append and atomic write, in execution order).
2. **Select** — all points when the budget covers them, otherwise a
   seeded hash-ranked subset (re-sorted ascending), so a budgeted
   sweep still samples the whole execution deterministically.
3. **Crash** — re-execute the workload in a fresh root under a
   :class:`~repro.chaos.faultio.CrashpointIO` armed at point ``k``;
   the injected mode (power cut, torn write, ENOSPC, EIO, bit flip)
   is a hash of ``(seed, workload, k)``.
4. **Recover + judge** — run the workload's recovery against the
   wreckage with no policy installed and record the invariant checks
   (see :mod:`repro.chaos.workloads`).

The verdict document contains no wall-clock, no pids and no absolute
paths, so ``repro chaos crashpoints --seed S --budget N`` produces
byte-identical output across reruns and ``--jobs`` values — which is
also what makes a frozen worst offender (:func:`freeze_crashpoint` /
:func:`replay_crashpoint`) a replayable regression test instead of a
flaky repro recipe.
"""

from __future__ import annotations

import hashlib
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core.atomicio import PowerCut, atomic_write_text, canonical_json
from ..core.frozen import load_frozen
from .faultio import CountingIO, CrashpointIO, mode_for
from .workloads import WORKLOADS, make_workload

__all__ = [
    "CHAOS_SCHEMA_VERSION",
    "enumerate_points",
    "freeze_crashpoint",
    "replay_crashpoint",
    "run_crashpoint",
    "run_crashpoints",
    "select_points",
]

CHAOS_SCHEMA_VERSION = 1


def enumerate_points(
    workload_name: str,
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """One uninterrupted counting pass; returns ``(baseline, points)``
    where ``baseline`` is the workload summary (digests) and
    ``points`` the ordered durability-point catalogue."""
    workload = make_workload(workload_name)
    from ..core.atomicio import io_policy

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        root = Path(tmp)
        policy = CountingIO(root)
        with io_policy(policy):
            baseline = workload.execute(root)
    return baseline, [p.as_dict() for p in policy.points]


def select_points(
    n: int, budget: Optional[int], seed: int, workload: str
) -> List[int]:
    """The deterministic point subset a budget buys: every ``k`` when
    the budget covers all ``n``, else the first ``budget`` points of a
    seeded hash ranking, re-sorted into execution order."""
    ks = list(range(1, n + 1))
    if budget is None or budget >= n:
        return ks
    if budget <= 0:
        return []
    ranked = sorted(
        ks,
        key=lambda k: hashlib.sha256(
            f"chaos-select:{seed}:{workload}:{k}".encode()
        ).hexdigest(),
    )
    return sorted(ranked[:budget])


def run_crashpoint(
    workload_name: str,
    seed: int,
    k: int,
    baseline: Dict[str, Any],
) -> Dict[str, Any]:
    """Crash one workload execution at point ``k``, recover, judge.

    Returns the point verdict: what was injected, how the execution
    ended (``power-cut`` / ``io-error`` / ``completed``), and the
    invariant checks from recovery.
    """
    from ..core.atomicio import io_policy

    workload = make_workload(workload_name)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        root = Path(tmp)
        policy = CrashpointIO(seed, workload_name, k, root)
        outcome = "completed"
        try:
            with io_policy(policy):
                workload.execute(root)
        except PowerCut:
            outcome = "power-cut"
        except OSError:
            # An injected errno the workload let propagate: the
            # process survived but the command failed — recovery must
            # still converge.
            outcome = "io-error"
        point = (
            policy.point.as_dict() if policy.point is not None
            else {"k": k, "op": "?", "label": "?"}
        )
        mode = policy.mode or mode_for(seed, workload_name, k, point["op"])
        try:
            checks = workload.recover(root, baseline, mode)
        except BaseException as exc:  # noqa: BLE001 - judged, not raised
            checks = [{
                "name": "recovery_loads",
                "status": "violated",
                "detail": f"{type(exc).__name__}: "
                          f"{str(exc).replace(str(root), '<root>')}",
            }]
        else:
            checks = [
                {"name": "recovery_loads", "status": "ok"}, *checks,
            ]
    invariants = {c["name"]: c["status"] for c in checks}
    details = {
        c["name"]: c["detail"] for c in checks
        if c["status"] == "violated" and c.get("detail")
    }
    verdict: Dict[str, Any] = {
        "workload": workload_name,
        "k": point["k"],
        "op": point["op"],
        "label": point["label"],
        "mode": mode,
        "outcome": outcome,
        "invariants": invariants,
        "ok": all(v != "violated" for v in invariants.values()),
    }
    if details:
        verdict["details"] = details
    return verdict


def _point_task(args: Tuple[str, int, int, Dict[str, Any]]) -> Dict[str, Any]:
    """Process-pool entry: one crashpoint in a worker process (each
    worker installs its own process-global I/O policy, which is why
    parallel sweeps shard at process granularity)."""
    workload_name, seed, k, baseline = args
    return run_crashpoint(workload_name, seed, k, baseline)


def run_crashpoints(
    workloads: Optional[Sequence[str]] = None,
    seed: int = 0,
    budget: Optional[int] = 16,
    jobs: int = 1,
) -> Dict[str, Any]:
    """The full sweep: every selected crashpoint of every workload,
    folded into one deterministic verdict document (``ok`` is the CI
    gate; ``violations`` names each failed invariant)."""
    names = list(workloads) if workloads else list(WORKLOADS)
    for name in names:
        make_workload(name)  # validate early: exit-2 before any work
    plans: List[Tuple[str, int, Dict[str, Any]]] = []
    workload_docs: Dict[str, Dict[str, Any]] = {}
    for name in names:
        baseline, points = enumerate_points(name)
        ks = select_points(len(points), budget, seed, name)
        workload_docs[name] = {
            "points_total": len(points),
            "points_run": len(ks),
            "baseline_digests": baseline["digests"],
        }
        plans.extend((name, k, baseline) for k in ks)

    tasks = [(name, seed, k, baseline) for name, k, baseline in plans]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_point_task, tasks))
    else:
        results = [_point_task(t) for t in tasks]

    results.sort(key=lambda r: (r["workload"], r["k"]))
    violations = [
        f"{r['workload']}:k={r['k']}:{name}"
        for r in results
        for name, status in sorted(r["invariants"].items())
        if status == "violated"
    ]
    return {
        "schema": CHAOS_SCHEMA_VERSION,
        "kind": "chaos-crashpoints",
        "seed": seed,
        "budget": budget,
        "workloads": {n: workload_docs[n] for n in sorted(workload_docs)},
        "points": results,
        "violations": violations,
        "ok": not violations,
    }


# ---------------------------------------------------------------------------
# frozen regressions
# ---------------------------------------------------------------------------
def freeze_crashpoint(
    path: Union[str, Path], workload: str, seed: int, k: int
) -> Dict[str, Any]:
    """Freeze one crashpoint as a replayable regression file.  The
    file pins everything needed to reproduce the injection —
    ``(workload, seed, k)`` plus the resolved op/mode/label for human
    readers — and :func:`replay_crashpoint` re-runs it from scratch."""
    baseline, points = enumerate_points(workload)
    if not 1 <= k <= len(points):
        raise ValueError(
            f"point k={k} out of range: {workload} has "
            f"{len(points)} durability points"
        )
    point = points[k - 1]
    doc = {
        "schema": CHAOS_SCHEMA_VERSION,
        "kind": "chaos-regression",
        "workload": workload,
        "seed": seed,
        "k": k,
        "op": point["op"],
        "label": point["label"],
        "mode": mode_for(seed, workload, k, point["op"]),
    }
    atomic_write_text(
        Path(path), canonical_json(doc) + "\n", durable=False
    )
    return doc


def replay_crashpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Replay one frozen crashpoint file; returns its point verdict
    (with the frozen expectation echoed under ``"frozen"``)."""
    frozen = load_frozen(
        path, "frozen crashpoint", {"workload": str, "seed": int, "k": int}
    )
    baseline, _ = enumerate_points(frozen["workload"])
    verdict = run_crashpoint(
        frozen["workload"], frozen["seed"], frozen["k"], baseline
    )
    verdict["frozen"] = {
        "path": Path(path).name,
        "op": frozen.get("op"),
        "mode": frozen.get("mode"),
        "label": frozen.get("label"),
    }
    return verdict
