"""Per-run metric documents: collect, store, and trend-gate them.

The paper's core claim is quantitative, so the repo's performance story
cannot end at a one-shot text summary: every run — experiments, fault
sweeps, chaos campaigns, benchmark sessions — snapshots into a
**versioned metric document** written atomically into a
``.repro-metrics/`` store, and ``repro bench trend`` diffs the last N
documents with direction-aware tolerances, failing CI when a metric
regresses beyond its tolerance.

A metric document has three layers:

``meta``
    Run identity: document kind, git sha, seed, sim core, scale, the
    experiment keys / campaign fingerprint.  Deterministic — the same
    logical run produces the same meta at any ``--jobs``.
``metrics``
    Named entries ``{"value": x, "direction": ...}`` where direction is
    one of ``higher`` (bigger is better: events/sec, GFLOPS, speedups),
    ``lower`` (smaller is better: seconds, latencies), ``exact``
    (deterministic quantities that must not move at all: task counts,
    claim verdicts, virtual-clock latencies, scenario badness) or
    ``info`` (recorded, never gated).  Entries may carry a per-metric
    ``tolerance`` and a ``timing`` provenance block
    (repeat/min_time/iters — see :class:`repro.core.benchmark.Timing`).
``volatile``
    The declared-nondeterministic envelope: worker count, wall-clock
    seconds, cache hit counts.  :func:`strip_volatile` removes it, and
    :func:`document_digest` hashes only what remains — which is why a
    run's document digest is **byte-identical across ``--jobs 1/4`` and
    after ``--resume``** (pinned by ``tests/test_metric_document_
    matrix.py``).

:func:`bench_trend` loads the last N documents from a
:class:`MetricsStore`, groups them by kind, and compares the newest
document of each kind against its predecessors: ``higher``/``lower``
metrics regress when they fall outside ``tolerance`` of the median of
the previous values, ``exact`` metrics regress on any change from the
immediately preceding document.  The verdict is a pure function of the
store contents — byte-identical however the documents were produced.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

# NB: ``repro.core`` imports are deferred to call time — ``repro.obs``
# sits below ``repro.core`` in the import graph (machine.roofline pulls
# in obs.trace while repro.core is still initialising).

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_STORE_DIR",
    "DEFAULT_TOLERANCE",
    "DIRECTIONS",
    "KINDS",
    "MetricsStore",
    "bench_trend",
    "collect_autopilot",
    "collect_bench",
    "collect_campaign",
    "collect_faults",
    "collect_run",
    "document_digest",
    "git_sha",
    "infer_direction",
    "metric",
    "strip_volatile",
]

#: metric-document schema version; bump on any breaking shape change
#: (the golden snapshots under ``tests/golden/metrics/`` make that an
#: explicit review event).
SCHEMA_VERSION = 1

#: where documents land unless ``--metrics-dir`` / the store says else.
DEFAULT_STORE_DIR = ".repro-metrics"

#: default relative tolerance for higher/lower metrics — the paper's
#: own "within ~10%" bar.
DEFAULT_TOLERANCE = 0.10

DIRECTIONS = ("higher", "lower", "exact", "info")
KINDS = ("run", "faults", "campaign", "autopilot", "bench")

#: the one key a document may carry that is excluded from its digest.
VOLATILE_KEY = "volatile"

_FILE_RE = re.compile(r"^metrics-(\d{6})-([a-z]+)\.json$")


# ---------------------------------------------------------------------------
# Document primitives
# ---------------------------------------------------------------------------
def metric(
    value: Union[int, float, bool],
    direction: str = "info",
    tolerance: Optional[float] = None,
    unit: Optional[str] = None,
    timing: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One metric entry.  Booleans become 1.0/0.0 so every value is a
    number; ``tolerance`` (relative) overrides the trend default for
    this metric only."""
    if direction not in DIRECTIONS:
        raise ValueError(
            f"metric direction must be one of {DIRECTIONS}, "
            f"got {direction!r}"
        )
    entry: Dict[str, Any] = {
        "value": float(value), "direction": direction,
    }
    if tolerance is not None:
        if tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {tolerance}")
        entry["tolerance"] = float(tolerance)
    if unit is not None:
        entry["unit"] = unit
    if timing is not None:
        entry["timing"] = dict(timing)
    return entry


def infer_direction(name: str) -> str:
    """Direction from a field name, for collectors over ad-hoc docs:
    ``*_seconds``/``*_us`` time lower-is-better, ``*_per_sec`` and
    ``speedup`` higher-is-better, ``identical`` is exact, anything
    else is informational."""
    if name == "identical":
        return "exact"
    if name.endswith(("_seconds", "seconds", "_us")):
        return "lower"
    if name.endswith("_per_sec") or name == "speedup" or name.endswith(
        "_speedup"
    ):
        return "higher"
    return "info"


def git_sha(root: Union[str, Path, None] = None) -> Optional[str]:
    """HEAD commit sha, read straight from ``.git`` (no subprocess).

    Walks up from ``root`` (default: cwd) to the repository top; None
    when there is no resolvable git checkout — documents written from a
    tarball still collect, just without provenance."""
    here = Path(root) if root is not None else Path.cwd()
    for candidate in (here, *here.resolve().parents):
        git_dir = candidate / ".git"
        if git_dir.is_file():  # worktree: "gitdir: <path>"
            try:
                target = git_dir.read_text().split(":", 1)[1].strip()
            except (OSError, IndexError):
                return None
            git_dir = Path(target)
        if not git_dir.is_dir():
            continue
        try:
            head = (git_dir / "HEAD").read_text().strip()
        except OSError:
            return None
        if head.startswith("ref:"):
            ref = head.split(None, 1)[1]
            try:
                return (git_dir / ref).read_text().strip()[:12]
            except OSError:
                # packed refs
                try:
                    for line in (git_dir / "packed-refs").read_text(
                    ).splitlines():
                        if line.endswith(ref):
                            return line.split()[0][:12]
                except OSError:
                    pass
                return None
        return head[:12] or None
    return None


def _new_document(
    kind: str,
    meta: Dict[str, Any],
    metrics: Dict[str, Dict[str, Any]],
    scenarios: Optional[List[Dict[str, Any]]] = None,
    volatile: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    if kind not in KINDS:
        raise ValueError(f"document kind must be one of {KINDS}, got {kind!r}")
    doc: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "meta": meta,
        "metrics": metrics,
    }
    if scenarios is not None:
        doc["scenarios"] = scenarios
    if volatile:
        doc[VOLATILE_KEY] = volatile
    return doc


def strip_volatile(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic view of a document: everything but the
    declared-volatile envelope.  Idempotent."""
    return {k: v for k, v in doc.items() if k != VOLATILE_KEY}


def document_digest(doc: Dict[str, Any]) -> str:
    """Content hash of the deterministic view — equal for the same
    logical run at any ``--jobs`` and after ``--resume``."""
    import hashlib

    from ..core.atomicio import canonical_json

    return hashlib.sha256(
        canonical_json(strip_volatile(doc)).encode()
    ).hexdigest()[:16]


def _base_meta(sha: Any = "auto") -> Dict[str, Any]:
    return {
        "git_sha": git_sha() if sha == "auto" else sha,
        # Every world runs a BatchedEngine; the key stays so document
        # digests, goldens and stored trend history remain unchanged.
        "sim_core": "batched",
    }


# ---------------------------------------------------------------------------
# Collectors: one per run shape
# ---------------------------------------------------------------------------
def collect_run(
    stats: Any,
    outcomes: Optional[Dict[str, Any]] = None,
    keys: Optional[Sequence[str]] = None,
    scale: str = "ci",
    sha: Any = "auto",
) -> Dict[str, Any]:
    """Metric document for one engine run (``repro run``).

    ``stats`` is duck-typed to :class:`repro.exec.engine.RunStats`;
    ``outcomes`` maps experiment key to its
    :class:`~repro.core.experiments.Outcome` (claims land as exact
    metrics).  Worker count, wall-clock, cache and resume counters go
    to the volatile envelope — everything else is a pure function of
    (experiments, scale, fault plan, guard settings).
    """
    outcomes = outcomes or {}
    experiments = list(stats.experiments)
    meta = _base_meta(sha)
    meta.update({
        "keys": list(keys) if keys is not None
        else [e.key for e in experiments],
        "scale": scale,
        "seed": stats.fault_seed,
        "faults": stats.fault_spec,
        "guard": (
            {
                "mode": stats.guard_mode,
                "cadence": stats.guard_cadence,
                "inject": stats.guard_inject,
            }
            if stats.guard_mode is not None else None
        ),
        "interrupted": bool(stats.interrupted),
    })
    metrics: Dict[str, Dict[str, Any]] = {
        "exec.experiments": metric(len(experiments), "exact"),
        "exec.experiments.failed": metric(
            sum(1 for e in experiments if not e.passed), "exact"
        ),
        "exec.tasks": metric(
            sum(len(e.tasks) for e in experiments), "exact"
        ),
        "exec.tasks.failed": metric(stats.failed_tasks, "exact"),
    }
    claims_checked = claims_failed = 0
    for key, outcome in sorted(outcomes.items()):
        results = getattr(outcome, "claim_results", None) or []
        claims_checked += len(results)
        failed = sum(1 for _, ok in results if not ok)
        claims_failed += failed
        metrics[f"experiment.{key}.passed"] = metric(
            bool(outcome.passed), "exact"
        )
        metrics[f"experiment.{key}.claims_failed"] = metric(failed, "exact")
    metrics["claims.checked"] = metric(claims_checked, "exact")
    metrics["claims.failed"] = metric(claims_failed, "exact")
    if stats.guard_mode is not None:
        metrics["guard.events"] = metric(stats.guard_events, "exact")
        metrics["guard.violations"] = metric(stats.guard_violations, "exact")
        metrics["guard.degraded_tasks"] = metric(
            stats.degraded_tasks, "exact"
        )
    volatile: Dict[str, Any] = {
        "jobs": stats.jobs,
        "total_seconds": stats.total_seconds,
        "experiments_cached": sum(1 for e in experiments if e.cached),
    }
    if stats.cache is not None:
        volatile["cache"] = stats.cache.as_dict()
    if stats.resume is not None:
        volatile["resume"] = dict(stats.resume)
    if getattr(stats, "fallback_reason", None):
        volatile["fallback_reason"] = stats.fallback_reason
    return _new_document("run", meta, metrics, volatile=volatile)


def collect_faults(sweep_doc: Dict[str, Any], sha: Any = "auto",
                   ) -> Dict[str, Any]:
    """Metric document for a ``repro faults`` severity sweep.

    Every number in the sweep is a virtual-clock quantity — a pure
    function of (seed, severities, nranks, sizes, repetitions) — so all
    metrics are ``exact``: any movement is a model change, which is
    exactly what the trend gate should surface."""
    meta = _base_meta(sha)
    meta.update({
        "seed": sweep_doc["seed"],
        "nranks": sweep_doc["nranks"],
        "sizes": list(sweep_doc["sizes"]),
        "repetitions": sweep_doc["repetitions"],
        "interrupted": bool(sweep_doc.get("interrupted")),
    })
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, entry in sweep_doc["severities"].items():
        prefix = f"faults.{name}"
        metrics[f"{prefix}.errors"] = metric(
            1 if entry.get("error") else 0, "exact"
        )
        metrics[f"{prefix}.failed_ranks"] = metric(
            len(entry.get("failed_ranks") or ()), "exact"
        )
        metrics[f"{prefix}.stragglers"] = metric(
            len(entry.get("straggler_ranks") or ()), "exact"
        )
        for field in ("pingpong_inflation", "allreduce_slowdown",
                      "allreduce_us"):
            value = entry.get(field)
            if value is not None:
                metrics[f"{prefix}.{field}"] = metric(value, "exact")
    return _new_document("faults", meta, metrics)


def _scoreboard_metrics(
    scoreboard: Sequence[Dict[str, Any]],
) -> Dict[str, Dict[str, Any]]:
    """Per-scenario exact metrics from a campaign/autopilot scoreboard
    (deterministic at any ``--jobs`` — PR 7's contract)."""
    metrics: Dict[str, Dict[str, Any]] = {}
    for e in scoreboard:
        prefix = f"scenario.{e['name']}"
        metrics[f"{prefix}.badness"] = metric(e["badness"], "exact")
        if e.get("drift_max") is not None:
            metrics[f"{prefix}.drift_max"] = metric(e["drift_max"], "exact")
        for field in ("claims_failed", "failures", "remediations",
                      "fault_events"):
            metrics[f"{prefix}.{field}"] = metric(e.get(field, 0), "exact")
    return metrics


def _scenario_view(
    scoreboard: Sequence[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """The per-scenario aggregate view carried on campaign/autopilot
    documents (rendered by ``repro bench trend``)."""
    return [
        {
            "name": e["name"],
            "describe": e.get("describe", ""),
            "badness": e["badness"],
            "drift_max": e.get("drift_max"),
            "claims_failed": e.get("claims_failed", 0),
            "failures": e.get("failures", 0),
            "remediations": e.get("remediations", 0),
            "fault_events": e.get("fault_events", 0),
            "digest": e.get("digest"),
        }
        for e in scoreboard
    ]


def collect_campaign(campaign_doc: Dict[str, Any], sha: Any = "auto",
                     ) -> Dict[str, Any]:
    """Metric document for a ``repro campaign run`` document: campaign
    totals plus one exact badness/drift block per scored scenario, with
    the scoreboard itself riding along as the aggregate view."""
    scoreboard = campaign_doc.get("scoreboard") or []
    meta = _base_meta(sha)
    meta.update({
        "campaign": campaign_doc["campaign"],
        "fingerprint": campaign_doc["fingerprint"],
        "interrupted": bool(campaign_doc.get("interrupted")),
    })
    errors = sum(
        1 for e in campaign_doc.get("scenarios", ())
        if e.get("status") == "error"
    )
    badnesses = [e["badness"] for e in scoreboard]
    metrics: Dict[str, Dict[str, Any]] = {
        "campaign.scenarios": metric(campaign_doc.get("total", 0), "exact"),
        "campaign.errors": metric(errors, "exact"),
        "campaign.truncated": metric(
            len(campaign_doc.get("truncated") or ()), "exact"
        ),
        "campaign.badness.max": metric(
            max(badnesses) if badnesses else 0.0, "exact"
        ),
        "campaign.badness.mean": metric(
            sum(badnesses) / len(badnesses) if badnesses else 0.0, "exact"
        ),
    }
    metrics.update(_scoreboard_metrics(scoreboard))
    volatile = {
        "seconds": {
            e["name"]: e["seconds"]
            for e in campaign_doc.get("scenarios", ())
            if e.get("seconds") is not None
        },
    }
    return _new_document(
        "campaign", meta, metrics,
        scenarios=_scenario_view(scoreboard), volatile=volatile,
    )


def collect_autopilot(auto_doc: Dict[str, Any], sha: Any = "auto",
                      ) -> Dict[str, Any]:
    """Metric document for a ``repro campaign autopilot`` search."""
    a = auto_doc["autopilot"]
    scoreboard = auto_doc.get("scoreboard") or []
    meta = _base_meta(sha)
    meta.update({
        "pack": a["pack"],
        "seed": a["seed"],
        "budget": a["budget"],
        "interrupted": bool(auto_doc.get("interrupted")),
    })
    badnesses = [e["badness"] for e in scoreboard]
    metrics: Dict[str, Dict[str, Any]] = {
        "autopilot.spent": metric(auto_doc.get("spent", 0), "exact"),
        "autopilot.rounds": metric(auto_doc.get("rounds", 0), "exact"),
        "autopilot.evaluated": metric(auto_doc.get("evaluated", 0), "exact"),
        "autopilot.errors": metric(
            len(auto_doc.get("errors") or ()), "exact"
        ),
        "autopilot.badness.max": metric(
            max(badnesses) if badnesses else 0.0, "exact"
        ),
    }
    metrics.update(_scoreboard_metrics(scoreboard))
    return _new_document(
        "autopilot", meta, metrics, scenarios=_scenario_view(scoreboard),
    )


def collect_bench(
    results: Dict[str, Any],
    python: Optional[str] = None,
    sha: Any = "auto",
) -> Dict[str, Any]:
    """Metric document for a benchmark session (the ``BENCH_simcore``
    shape: section -> entry -> fields).

    Timings may be bare floats (the pre-provenance shape) or
    :class:`~repro.core.benchmark.Timing` dicts — both are accepted via
    :meth:`Timing.from_value`, and the provenance (repeat, min_time,
    iters) rides on the metric entry when present.  Directions are
    inferred from field names (:func:`infer_direction`), so seconds
    gate lower-is-better and events/sec/speedups higher-is-better.
    """
    from ..core.benchmark import Timing

    meta = _base_meta(sha)
    meta["suite"] = "simcore"
    if python is not None:
        meta["python"] = python
    metrics: Dict[str, Dict[str, Any]] = {}
    for section, entries in sorted(results.items()):
        if not isinstance(entries, dict):
            continue
        for name, fields in sorted(entries.items()):
            if not isinstance(fields, dict):
                continue
            for field, value in sorted(fields.items()):
                mname = f"bench.{section}.{name}.{field}"
                if isinstance(value, bool):
                    metrics[mname] = metric(value, "exact")
                elif isinstance(value, dict) and "seconds" in value:
                    timing = Timing.from_value(value)
                    metrics[mname] = metric(
                        timing.seconds, infer_direction(field) if
                        infer_direction(field) != "info" else "lower",
                        unit="s", timing=timing.provenance(),
                    )
                elif isinstance(value, (int, float)):
                    direction = infer_direction(field)
                    if direction == "info" and isinstance(value, int):
                        # counts (messages, nranks) are deterministic
                        direction = "exact"
                    metrics[mname] = metric(value, direction)
                # non-numeric config (size lists, labels): not a metric
    # Bench timings are wall-clock: the whole document is measurement,
    # so nothing needs a volatile envelope — trend tolerances do the
    # wobble absorption instead.
    return _new_document("bench", meta, metrics)


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------
class MetricsStore:
    """A directory of metric documents, one JSON file per run.

    Files are named ``metrics-NNNNNN-<kind>.json``; the sequence number
    is assigned under an advisory :class:`~repro.core.atomicio.FileLock`
    so concurrent writers never collide, and every write goes through
    :func:`~repro.core.atomicio.atomic_write_text` so a crash can never
    tear a document.  Ordering is by sequence number — no wall clock
    involved, which keeps store listings (and therefore trend verdicts)
    deterministic.

    A document that no longer parses as JSON (bit-flipped on disk, or
    torn by a pre-atomic-write tool) is *quarantined* on read — renamed
    to ``<name>.corrupt``, skipped, and counted — instead of aborting
    every listing and trend verdict with a traceback.  Schema-version
    mismatches still raise: that's a deliberate refusal, not damage.
    Quarantined sequence numbers are never reused.
    """

    #: Suffix appended to documents that failed to decode.
    CORRUPT_SUFFIX = ".corrupt"

    def __init__(self, directory: Union[str, Path, None] = None) -> None:
        self.directory = Path(directory or DEFAULT_STORE_DIR)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Paths this instance quarantined (see also
        #: :meth:`corrupt_documents` for the directory-wide view).
        self.quarantined: List[Path] = []

    def _lock(self) -> Any:
        from ..core.atomicio import FileLock

        return FileLock(self.directory / ".lock")

    def paths(self, kind: Optional[str] = None) -> List[Path]:
        """Document files, oldest first (sequence order)."""
        out: List[Tuple[int, Path]] = []
        for p in self.directory.iterdir():
            m = _FILE_RE.match(p.name)
            if m is None:
                continue
            if kind is not None and m.group(2) != kind:
                continue
            out.append((int(m.group(1)), p))
        return [p for _, p in sorted(out)]

    def __len__(self) -> int:
        return len(self.paths())

    def corrupt_documents(self) -> List[Path]:
        """Quarantined documents (``*.json.corrupt``), oldest first."""
        return sorted(
            self.directory.glob("metrics-*.json" + self.CORRUPT_SUFFIX)
        )

    def _quarantine(self, path: Path) -> Path:
        """Rename an undecodable document out of the store's namespace
        so later listings skip it; the bytes are preserved for a
        post-mortem."""
        target = path.with_name(path.name + self.CORRUPT_SUFFIX)
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - raced with another reader
            pass
        self.quarantined.append(target)
        return target

    def _last_seq(self) -> int:
        """Highest sequence number ever assigned — quarantined files
        included, so their numbers are not silently reused."""
        last = 0
        for p in self.directory.iterdir():
            name = p.name
            if name.endswith(self.CORRUPT_SUFFIX):
                name = name[: -len(self.CORRUPT_SUFFIX)]
            m = _FILE_RE.match(name)
            if m is not None:
                last = max(last, int(m.group(1)))
        return last

    def write(self, doc: Dict[str, Any]) -> Path:
        """Persist one document; returns its path.  The document gains
        a ``digest`` field (deterministic-view hash) on the way out."""
        from ..core.atomicio import atomic_write_text, canonical_json

        if doc.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                f"document schema {doc.get('schema')!r} != {SCHEMA_VERSION}"
            )
        kind = doc["kind"]
        doc = dict(doc)
        doc["digest"] = document_digest(doc)
        with self._lock():
            seq = self._last_seq() + 1
            path = self.directory / f"metrics-{seq:06d}-{kind}.json"
            atomic_write_text(
                path, canonical_json(doc) + "\n", durable=False
            )
        return path

    def load(self, path: Union[str, Path]) -> Dict[str, Any]:
        import json

        doc = json.loads(Path(path).read_text())
        if doc.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                f"{path}: unsupported metric-document schema "
                f"{doc.get('schema')!r}"
            )
        return doc

    def load_last(
        self, n: Optional[int] = None, kind: Optional[str] = None,
    ) -> List[Tuple[Path, Dict[str, Any]]]:
        """The last ``n`` decodable documents (all when None), oldest
        first.  Undecodable files are quarantined and skipped, so one
        corrupt document cannot take down every listing and trend
        verdict built on the store."""
        import json

        out: List[Tuple[Path, Dict[str, Any]]] = []
        for p in self.paths(kind):
            try:
                out.append((p, self.load(p)))
            except json.JSONDecodeError:
                self._quarantine(p)
        if n is not None:
            out = out[-n:]
        return out


# ---------------------------------------------------------------------------
# The trend gate
# ---------------------------------------------------------------------------
def _compare(
    value: float,
    baseline: float,
    direction: str,
    tolerance: float,
) -> str:
    """ok / regression / improved for one metric against its baseline."""
    if direction == "exact":
        return "ok" if value == baseline else "regression"
    allowed = tolerance * abs(baseline)
    if direction == "higher":
        if value < baseline - allowed:
            return "regression"
        if value > baseline + allowed:
            return "improved"
        return "ok"
    # lower
    if value > baseline + allowed:
        return "regression"
    if value < baseline - allowed:
        return "improved"
    return "ok"


def bench_trend(
    store: MetricsStore,
    last: int = 10,
    kind: Optional[str] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    since: Optional[str] = None,
) -> Dict[str, Any]:
    """Direction-aware trend verdict over the store's last documents.

    Documents are grouped by kind; within each kind the newest document
    is compared against its predecessors in the window: the baseline is
    the **median** of previous values for ``higher``/``lower`` metrics
    (robust to one wobbly run, order-invariant) and the immediately
    preceding value for ``exact`` metrics.  A metric with no history is
    ``new``; ``info`` metrics are listed but never gate.  The verdict is
    deterministic in the store contents alone.

    ``since`` windows the history on provenance instead of count: every
    document *older* than the first whose recorded ``meta.git_sha``
    matches the given (prefix) sha is dropped before the ``last``
    window applies.  An old accepted regression stops tripping the
    gate once you rebaseline with ``--since`` at the sha that landed
    it.  A sha no document carries is an error, never a silent
    full-history pass.
    """
    if last < 1:
        raise ValueError(f"last must be >= 1, got {last}")
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    if since is not None:
        if not since:
            raise ValueError("since must be a non-empty sha (prefix)")
        everything = store.load_last(None, kind=kind)
        start = next(
            (i for i, (_, d) in enumerate(everything)
             if str(d.get("meta", {}).get("git_sha") or "")
             .startswith(since)),
            None,
        )
        if start is None:
            raise ValueError(
                f"--since {since!r}: no document in the store records "
                "that git sha"
            )
        loaded = everything[start:][-last:]
    else:
        loaded = store.load_last(last, kind=kind)
    by_kind: Dict[str, List[Tuple[Path, Dict[str, Any]]]] = {}
    for path, doc in loaded:
        by_kind.setdefault(doc["kind"], []).append((path, doc))

    documents = [
        {"file": p.name, "kind": d["kind"], "digest": d.get("digest")}
        for p, d in loaded
    ]
    # Collector metric names are kind-namespaced (exec., faults.,
    # scenario., bench.) so plain names are normally unique; when two
    # kinds do share one, every occurrence gets kind-qualified so no
    # verdict entry can shadow another.
    name_kinds: Dict[str, set] = {}
    for docs in by_kind.values():
        latest = docs[-1][1]
        for name in latest.get("metrics", {}):
            name_kinds.setdefault(name, set()).add(latest["kind"])

    metrics_out: Dict[str, Dict[str, Any]] = {}
    regressions: List[str] = []
    scenarios: Optional[List[Dict[str, Any]]] = None
    for docs in by_kind.values():
        latest = docs[-1][1]
        previous = [d for _, d in docs[:-1]]
        if latest.get("scenarios"):
            scenarios = latest["scenarios"]
        for name in sorted(latest.get("metrics", {})):
            entry = latest["metrics"][name]
            direction = entry.get("direction", "info")
            tol = entry.get("tolerance")
            tol = tolerance if tol is None else tol
            value = entry["value"]
            out: Dict[str, Any] = {
                "latest": value,
                "direction": direction,
                "kind": latest["kind"],
            }
            history = [
                d["metrics"][name]["value"]
                for d in previous
                if name in d.get("metrics", {})
            ]
            out["history"] = len(history)
            if direction == "info":
                out["status"] = "info"
            elif not history:
                out["status"] = "new"
            else:
                baseline = (
                    history[-1] if direction == "exact" else median(history)
                )
                out["baseline"] = baseline
                out["tolerance"] = tol
                if baseline:
                    out["delta"] = (value - baseline) / abs(baseline)
                out["status"] = _compare(value, baseline, direction, tol)
            key = (
                name if len(name_kinds[name]) == 1
                else f"{latest['kind']}:{name}"
            )
            if out.get("status") == "regression":
                regressions.append(key)
            metrics_out[key] = out
    verdict: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "last": last,
        "tolerance": tolerance,
        "documents": documents,
        "metrics": metrics_out,
        "regressions": sorted(regressions),
        "ok": not regressions,
    }
    if kind is not None:
        verdict["kind"] = kind
    if since is not None:
        verdict["since"] = since
    if scenarios is not None:
        verdict["scenarios"] = scenarios
    return verdict
