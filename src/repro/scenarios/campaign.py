"""Campaign runner: scenario packs -> exec Tasks -> scored scoreboard.

A campaign is an ordered list of scenarios (a built-in pack, a spec
file, or autopilot-generated mutants) evaluated as ``scenario_run``
exec Tasks on the PR 1 :class:`~repro.exec.scheduler.Scheduler` —
results arrive in submission order, so the scoreboard is deterministic
at any ``--jobs``.  The runner:

* prepends the fault-free **baseline** each distinct (experiment,
  scale) needs for drift scoring (a pack scenario that *is* fault-free
  doubles as the baseline, it is not run twice);
* enforces ``--budget N`` as a cap on total scenario evaluations,
  baselines included (dropped scenarios are counted, never silent);
* journals every completion through the PR 4 WAL (`--journal`), so a
  killed campaign resumes (`--resume`) restoring finished scenarios
  byte-identically and re-running only the rest;
* scores each scenario against its baseline
  (:func:`~repro.scenarios.score.score_scenario`) and persists the
  campaign document via :mod:`repro.core.atomicio`.

Freezing and replaying: :func:`freeze_scenario` pins a scenario's spec
+ result digest into ``tests/golden/scenarios/`` and
:func:`replay_frozen` re-runs the spec and compares digests — the
"worst offenders become regression tests" loop the autopilot closes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.atomicio import atomic_write_text, canonical_json
from ..core.frozen import load_frozen
from ..exec.journal import JournalWriter, load_journal, task_key
from ..exec.scheduler import Scheduler, TaskResult
from ..exec.tasks import Task
from .library import get_pack
from .score import run_scenario, score_scenario
from .spec import ScenarioError, ScenarioSpec, load_scenario_file, scenario

__all__ = [
    "CampaignError",
    "CampaignPlan",
    "resolve_selector",
    "plan_campaign",
    "run_campaign",
    "freeze_scenario",
    "replay_frozen",
]

#: frozen-regression document format version.
FROZEN_VERSION = 1


class CampaignError(ValueError):
    """A campaign that cannot run: bad selector, resume mismatch."""


def _is_baseline(spec: ScenarioSpec) -> bool:
    """Fault-free, unguarded, uninjected — usable as a drift reference."""
    return (spec.faults is None and spec.guard is None
            and spec.guard_inject is None)


def resolve_selector(selector: str) -> Tuple[str, List[ScenarioSpec]]:
    """Turn a CLI selector into ``(campaign name, specs)``.

    A selector naming an existing file (or looking like a path) loads a
    JSON/YAML spec document; anything else must be a built-in pack.
    Unknown pack names raise :class:`~repro.scenarios.spec.
    ScenarioError` listing the valid ones — the CLI's exit-2 contract.
    """
    path = Path(selector)
    if (path.suffix.lower() in (".json", ".yaml", ".yml")
            or "/" in selector or path.is_file()):
        return path.stem, load_scenario_file(path)
    pack = get_pack(selector)
    return pack.name, list(pack.scenarios)


class CampaignPlan:
    """Ordered, budgeted, baseline-complete evaluation plan."""

    def __init__(self, name: str, ordered: List[ScenarioSpec],
                 baselines: Dict[Tuple[str, str], str],
                 truncated: List[str]) -> None:
        self.name = name
        #: baselines first, then scenarios, in first-seen order.
        self.ordered = ordered
        #: (experiment, scale) -> baseline scenario name.
        self.baselines = baselines
        #: names dropped by the budget cap.
        self.truncated = truncated

    @property
    def fingerprint(self) -> str:
        """Content hash of the full ordered plan (journal validation,
        campaign identity)."""
        return hashlib.sha256(canonical_json(
            [s.as_dict() for s in self.ordered]
        ).encode()).hexdigest()[:16]


def plan_campaign(
    name: str,
    specs: Sequence[ScenarioSpec],
    budget: Optional[int] = None,
) -> CampaignPlan:
    """Dedupe, inject baselines, and budget a scenario list.

    Duplicate behaviour (same :attr:`spec_hash`) keeps the first name.
    Every distinct (experiment, scale) gets exactly one baseline — a
    fault-free scenario already in the list serves as its own.  The
    budget caps *total* evaluations; a scenario whose baseline would
    not fit is dropped too (recorded in ``truncated``).
    """
    if budget is not None and budget < 1:
        raise CampaignError(f"budget must be >= 1, got {budget}")
    deduped: List[ScenarioSpec] = []
    seen_hashes: Dict[str, str] = {}
    for s in specs:
        if s.spec_hash in seen_hashes:
            continue
        seen_hashes[s.spec_hash] = s.name
        deduped.append(s)

    baselines: Dict[Tuple[str, str], ScenarioSpec] = {}
    for s in deduped:
        key = (s.experiment, s.scale)
        if _is_baseline(s) and key not in baselines:
            baselines[key] = s

    base_order: List[ScenarioSpec] = []
    scen_order: List[ScenarioSpec] = []
    truncated: List[str] = []
    total = 0
    for s in deduped:
        key = (s.experiment, s.scale)
        own_baseline = _is_baseline(s) and baselines.get(key) is s
        if own_baseline:
            cost = 1 if s not in base_order else 0
        else:
            need_base = key not in baselines or (
                baselines[key] not in base_order)
            cost = 1 + (1 if need_base else 0)
        if budget is not None and total + cost > budget:
            truncated.append(s.name)
            continue
        total += cost
        if own_baseline:
            base_order.append(s)
            continue
        if key not in baselines:
            baselines[key] = scenario(
                f"baseline-{s.experiment}-{s.scale}",
                experiment=s.experiment, scale=s.scale,
                description="implicit fault-free drift reference",
            )
        if baselines[key] not in base_order:
            base_order.append(baselines[key])
        scen_order.append(s)
    return CampaignPlan(
        name,
        base_order + scen_order,
        {key: b.name for key, b in baselines.items() if b in base_order},
        truncated,
    )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------
def _make_tasks(plan: CampaignPlan) -> List[Task]:
    return [
        Task(
            experiment=f"scenario:{s.name}",
            scale=s.scale,
            index=i,
            kind="scenario_run",
            params={"spec": s.as_dict()},
        )
        for i, s in enumerate(plan.ordered)
    ]


def run_campaign(
    plan: CampaignPlan,
    *,
    jobs: int = 1,
    journal_path: Optional[str] = None,
    resume_path: Optional[str] = None,
    cancel: Optional[Any] = None,
    grace: float = 2.0,
    task_timeout: Optional[float] = None,
    out_path: Optional[str] = None,
    on_progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Evaluate a campaign plan to its scored document.

    Deterministic at any ``jobs`` (results are consumed in submission
    order) and under resume (restored payloads are the journalled
    bytes).  ``resume_path`` implies journalling to the same file; a
    journal whose fingerprint does not match this plan raises
    :class:`CampaignError` (exit 2 at the CLI, like ``repro run``'s
    meta mismatch).  Wall-clock ``seconds`` ride on each scenario entry
    but are excluded from the scoreboard — the deterministic surface.
    """
    tasks = _make_tasks(plan)
    fingerprint = plan.fingerprint

    restored: Dict[int, TaskResult] = {}
    if resume_path:
        state = load_journal(resume_path)
        meta = state.meta or {}
        if meta.get("fingerprint") != fingerprint:
            raise CampaignError(
                f"journal {resume_path} records campaign fingerprint "
                f"{meta.get('fingerprint')!r}, this plan is "
                f"{fingerprint!r}: not the same campaign"
            )
        for t in tasks:
            rec = state.record_for(t)
            if rec is None or rec.get("fingerprint") != fingerprint:
                continue
            try:
                value = state.restore_payload(task_key(t))
            except Exception:
                continue  # undecodable payload: re-run the scenario
            restored[t.index] = TaskResult(
                task=t, value=value, seconds=rec.get("seconds", 0.0),
                worker="resume",
            )
        journal_path = resume_path

    pending = [t for t in tasks if t.index not in restored]
    writer = JournalWriter(journal_path) if journal_path else None
    results: Dict[int, TaskResult] = dict(restored)
    try:
        if writer is not None:
            writer.run_start(
                keys=[f"scenario:{s.name}" for s in plan.ordered],
                scale="campaign",
                jobs=jobs,
                fingerprint=fingerprint,
                resumed=bool(restored),
            )
            for t in pending:
                writer.task_dispatch(t)
        if pending:
            scheduler = Scheduler(
                jobs=jobs, task_timeout=task_timeout, cancel_event=cancel,
                grace=grace,
            )
            if writer is not None:
                def _stream(r: TaskResult) -> None:
                    if r.interrupted:
                        writer.task_interrupted(
                            r.task, r.error or "interrupted")
                    elif r.failed:
                        writer.task_failed(r.task, r)
                    else:
                        writer.task_done(r.task, r)
                scheduler.on_result = _stream
            if on_progress is not None:
                prev = scheduler.on_result

                def _progress(r: TaskResult) -> None:
                    if prev is not None:
                        prev(r)
                    status = ("interrupted" if r.interrupted
                              else "failed" if r.failed else "done")
                    on_progress(f"{r.task.experiment}: {status}")
                scheduler.on_result = _progress
            for r in scheduler.map(pending):
                results[r.task.index] = r
        interrupted = any(r.interrupted for r in results.values())
        if writer is not None:
            writer.run_end("interrupted" if interrupted else "complete")
    finally:
        if writer is not None:
            writer.close()

    doc = _assemble(plan, results)
    if out_path:
        atomic_write_text(
            out_path, json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
    return doc


def _assemble(
    plan: CampaignPlan, results: Dict[int, TaskResult]
) -> Dict[str, Any]:
    """Score completed scenarios and build the campaign document."""
    baseline_payloads: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for i, s in enumerate(plan.ordered):
        r = results.get(i)
        if (r is not None and not r.failed and not r.interrupted
                and plan.baselines.get((s.experiment, s.scale)) == s.name):
            baseline_payloads[(s.experiment, s.scale)] = r.value

    entries: List[Dict[str, Any]] = []
    scoreboard: List[Dict[str, Any]] = []
    interrupted = False
    for i, s in enumerate(plan.ordered):
        is_base = plan.baselines.get((s.experiment, s.scale)) == s.name
        entry: Dict[str, Any] = {
            "name": s.name,
            "hash": s.spec_hash,
            "spec": s.as_dict(),
            "describe": s.describe(),
            "baseline": is_base,
        }
        r = results.get(i)
        if r is None or r.interrupted:
            entry["status"] = "interrupted"
            interrupted = True
            entries.append(entry)
            continue
        if r.failed:
            entry["status"] = "error"
            entry["error"] = r.error
            entries.append(entry)
            continue
        payload = r.value
        base = (None if is_base
                else baseline_payloads.get((s.experiment, s.scale)))
        score = score_scenario(payload, base)
        entry.update({
            "status": "done",
            "seconds": r.seconds,
            "digest": payload["digest"],
            "passed": payload["passed"],
            "score": score,
            "counters": payload["counters"],
            "failures": payload["failures"],
        })
        entries.append(entry)
        if not is_base:
            drift = score["drift"] or {}
            scoreboard.append({
                "name": s.name,
                "hash": s.spec_hash,
                "describe": s.describe(),
                "badness": score["badness"],
                "drift_max": drift.get("max"),
                "drift_mean": drift.get("mean"),
                "claims_failed": score["claims_failed"],
                "failures": score["failures"],
                "remediations": score["remediations"],
                "fault_events": score["fault_events"],
                "digest": payload["digest"],
            })
    scoreboard.sort(key=lambda e: (-e["badness"], e["name"]))
    return {
        "campaign": plan.name,
        "fingerprint": plan.fingerprint,
        "total": len(plan.ordered),
        "baselines": sorted(plan.baselines.values()),
        "truncated": plan.truncated,
        "interrupted": interrupted,
        "scenarios": entries,
        "scoreboard": scoreboard,
    }


# ---------------------------------------------------------------------------
# Frozen regressions: freeze + replay
# ---------------------------------------------------------------------------
def freeze_scenario(
    entry: Dict[str, Any],
    dest_dir: Path,
    provenance: Optional[Dict[str, Any]] = None,
) -> Path:
    """Pin one scored campaign entry as a replayable regression file.

    The frozen document carries the full spec (replay re-runs it from
    scratch), the expected result digest (the byte-identity contract),
    and the score/provenance for the reader.  Written atomically; the
    file name is the scenario name.
    """
    dest_dir = Path(dest_dir)
    dest_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "version": FROZEN_VERSION,
        "name": entry["name"],
        "spec": entry["spec"],
        "expect": {
            "digest": entry["digest"],
            "passed": entry["passed"],
        },
        "score": entry["score"],
        "provenance": provenance or {},
    }
    path = dest_dir / f"{entry['name']}.json"
    atomic_write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def replay_frozen(path: Path) -> Dict[str, Any]:
    """Re-run one frozen scenario and compare result digests.

    The digest covers figures, claims, guard records, failures, and
    fault counters — byte-identity of everything the scenario produced
    when it was frozen.
    """
    path = Path(path)
    doc = load_frozen(
        path, "frozen scenario", {"name": str, "spec": dict, "expect": dict}
    )
    if doc.get("version") != FROZEN_VERSION:
        raise CampaignError(
            f"{path}: unsupported frozen-scenario version "
            f"{doc.get('version')!r}"
        )
    spec = ScenarioSpec.from_dict(doc["spec"])
    payload = run_scenario(spec)
    expected = doc["expect"].get("digest")
    return {
        "path": str(path),
        "name": doc["name"],
        "hash": spec.spec_hash,
        "expected": expected,
        "actual": payload["digest"],
        "ok": payload["digest"] == expected,
        "passed": payload["passed"],
    }
