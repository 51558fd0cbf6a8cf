"""Plain-text rendering of benchmark results (the "plots" of this repo).

Every figure generator in :mod:`repro.core.figures` returns a
:class:`~repro.core.benchmark.SweepResult`; these helpers print it as an
aligned table with one column per series — the rows the paper's plots
are drawn from.  ``EXPERIMENTS.md`` is produced from these renders.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from .benchmark import Series, SweepResult

__all__ = [
    "render_table",
    "render_sweep",
    "render_run_stats",
    "render_fault_sweep",
    "render_trace_summary",
    "render_journal",
    "render_guard_report",
    "render_scenario_packs",
    "render_campaign",
    "render_autopilot",
    "render_replay",
    "render_bench_trend",
    "render_metric_store",
    "render_chaos_verdict",
    "render_chaos_replay",
    "format_si",
]


def format_si(value: float, digits: int = 3) -> str:
    """Human formatting: exact integers up to 10^7, compact floats beyond."""
    if value == 0:
        return "0"
    if float(value).is_integer() and abs(value) < 1e7:
        return str(int(value))
    a = abs(value)
    if 1e-3 <= a < 1e6:
        return f"{value:.{digits}g}"
    return f"{value:.{digits}e}"


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    min_width: int = 8,
) -> str:
    """Fixed-width ASCII table."""
    srows = [[str(c) for c in row] for row in rows]
    widths = [max(min_width, len(h)) for h in headers]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt_row(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    lines = [fmt_row(list(headers)), fmt_row(["-" * w for w in widths])]
    lines.extend(fmt_row(row) for row in srows)
    return "\n".join(lines)


def render_profile(profile, top: int = 20) -> str:
    """Render a :class:`cProfile.Profile` as a top-``top`` table.

    Rows are ordered by cumulative time (the useful view for "where did
    the run go"), with per-call totals alongside.
    """
    import pstats

    stats = pstats.Stats(profile)
    stats.sort_stats("cumulative")
    width, funcs = stats.get_print_list([top])
    rows = []
    for func in funcs:
        cc, nc, tt, ct, _callers = stats.stats[func]
        filename, lineno, name = func
        if filename == "~":
            where = name  # builtins print as "<...>"
        else:
            where = f"{filename.rsplit('/', 1)[-1]}:{lineno}({name})"
        calls = str(nc) if cc == nc else f"{nc}/{cc}"
        rows.append(
            [calls, f"{tt:.3f}", f"{ct:.3f}",
             f"{ct / nc:.6f}" if nc else "-", where]
        )
    total_tt = sum(s[2] for s in stats.stats.values())
    header = (
        f"profile: {stats.total_calls} function calls in "
        f"{total_tt:.3f}s CPU; top {len(rows)} by cumulative time"
    )
    table = render_table(
        ["ncalls", "tottime", "cumtime", "percall", "function"], rows,
        min_width=6,
    )
    return header + "\n" + table


def render_run_stats(stats) -> str:
    """Render a :class:`repro.exec.engine.RunStats` as text tables.

    One row per experiment (status, cache source, task count, summed
    task seconds, slowest task), followed by the cache counters and, if
    the scheduler fell back to in-process execution, the reason why.
    Takes the stats object duck-typed to keep this module free of an
    import on the exec layer.
    """
    guarded = bool(getattr(stats, "guard_mode", None))
    rows = []
    for e in stats.experiments:
        slowest = max(e.tasks, key=lambda t: t.seconds) if e.tasks else None
        row = [
            e.key,
            e.scale,
            "PASS" if e.passed else "FAIL",
            "cache" if e.cached else "run",
            len(e.tasks),
            f"{e.seconds:.3f}",
            f"{slowest.label} ({slowest.seconds:.3f}s)" if slowest else "-",
        ]
        if guarded:
            row.append(_experiment_guard_cell(e.tasks))
        rows.append(row)
    header = (
        f"experiment engine: jobs={stats.jobs}, "
        f"wall={stats.total_seconds:.3f}s"
    )
    if getattr(stats, "fault_spec", None):
        header += (
            f", faults={stats.fault_spec} (seed {stats.fault_seed})"
        )
    if guarded:
        header += f", guard={stats.guard_mode} (cadence {stats.guard_cadence}"
        if getattr(stats, "guard_inject", None):
            header += f", inject {stats.guard_inject}"
        header += ")"
    headers = ["experiment", "scale", "status", "source", "tasks",
               "task s", "slowest task"]
    if guarded:
        headers.append("guard")
    lines = [header, render_table(headers, rows)]
    failures = [
        (t.label, t.error)
        for e in stats.experiments
        for t in e.tasks
        if getattr(t, "error", None)
    ]
    if failures:
        lines.append(f"task failures ({len(failures)}):")
        lines.extend(f"  {label}: {error}" for label, error in failures)
    if stats.cache is not None:
        lines.append(str(stats.cache))
    if getattr(stats, "fallback_reason", None):
        lines.append(f"scheduler fallback: {stats.fallback_reason}")
    resume = getattr(stats, "resume", None)
    if resume:
        note = (
            f"resume: {resume['restored']} task(s) restored from journal, "
            f"{resume['executed']} executed"
        )
        if resume.get("stale"):
            note += f" ({resume['stale']} stale: source changed)"
        lines.append(note)
    if guarded:
        lines.append(
            f"guard: {stats.guard_events} event(s), "
            f"{stats.guard_violations} violation(s), "
            f"{stats.degraded_tasks} degraded task(s)"
        )
        for e in stats.experiments:
            for t in e.tasks:
                if getattr(t, "degraded", False):
                    lines.append("  " + _degraded_line(
                        t.label, t.guard.get("remediation") or {}
                    ))
    if getattr(stats, "interrupted", False):
        lines.append(
            f"run interrupted: {stats.interrupted_tasks} task(s) "
            "unfinished (resumable)"
        )
    return "\n".join(lines)


def _experiment_guard_cell(tasks) -> str:
    """The guard column for one experiment's row: event/degraded counts,
    or ``clean`` when every guarded task came through untouched."""
    events = sum(
        len((t.guard or {}).get("events", ())) for t in tasks
    )
    degraded = sum(1 for t in tasks if getattr(t, "degraded", False))
    if not events and not degraded:
        return "clean"
    cell = f"{events} ev"
    if degraded:
        cell += f", {degraded} degraded"
    return cell


def _degraded_line(label: str, remediation: dict) -> str:
    """One-line remediation chain for a rescued task."""
    steps = " -> ".join(
        entry["step"]
        for entry in remediation.get("chain", ())
        if entry.get("applied")
    ) or "none"
    line = f"{label}: degraded via {steps}"
    if remediation.get("exhausted"):
        line += " (exhausted)"
    return line


def render_guard_report(doc) -> str:
    """Render a guard report document as text.

    Accepts the ``RunStats.guard_report()`` / ``--guard-out`` shape and
    the journal-derived :func:`repro.exec.journal.guard_summary` shape
    (they are the same).  Duck-typed on the dict to keep this module
    free of an import on the exec layer.
    """
    mode = doc.get("mode", "off")
    header = f"guard: mode={mode}"
    if doc.get("cadence") is not None:
        header += f", cadence={doc['cadence']}"
    if doc.get("inject"):
        header += f", inject={doc['inject']}"
    if mode == "off" and not doc.get("tasks"):
        return header + " (no guard data recorded)"
    lines = [
        header,
        f"{doc.get('events', 0)} event(s), "
        f"{doc.get('violations', 0)} violation(s), "
        f"{doc.get('degraded_tasks', 0)} degraded task(s)",
    ]
    for entry in doc.get("tasks") or ():
        guard = entry.get("guard") or {}
        if entry.get("degraded"):
            lines.append("  " + _degraded_line(
                entry.get("label", "-"), guard.get("remediation") or {}
            ))
        else:
            lines.append(
                f"  {entry.get('label', '-')}: "
                f"{len(guard.get('events', ()))} event(s), "
                f"{guard.get('violations', 0)} violation(s)"
            )
        for ev in guard.get("events", ()):
            step = f" @step {ev['step']}" if ev.get("step") is not None else ""
            lines.append(
                f"    [{ev.get('severity', '?')}] {ev.get('site', '?')}"
                f"/{ev.get('name', '?')}{step}: {ev.get('message', '')}"
            )
    return "\n".join(lines)


def render_fault_sweep(doc) -> str:
    """Render a :func:`repro.mpi.faults.fault_drift_report` document.

    One row per severity: PingPong latency inflation and Allreduce
    slowdown over the fault-free baseline, failed-rank coverage, and
    the resilience error surfaced (if the run could not complete).
    """
    def ratio(v) -> str:
        return f"{v:.2f}x" if v is not None else "-"

    rows = []
    for name, entry in doc["severities"].items():
        failed = entry.get("failed_ranks") or []
        stragglers = entry.get("straggler_ranks") or []
        rows.append([
            name,
            ratio(entry.get("pingpong_inflation")),
            ratio(entry.get("allreduce_slowdown")),
            f"{len(failed)}/{doc['nranks']}",
            len(stragglers),
            "error" if entry.get("error") else "ok",
        ])
    header = (
        f"fault severity sweep: seed={doc['seed']}, "
        f"nranks={doc['nranks']}, sizes={doc['sizes']}"
    )
    if doc.get("interrupted"):
        header += " (interrupted: partial results)"
    lines = [
        header,
        render_table(
            ["severity", "pingpong", "allreduce", "failed", "stragglers",
             "status"],
            rows,
        ),
    ]
    for name, entry in doc["severities"].items():
        if entry.get("error"):
            lines.append(f"{name}: {entry['error']}")
    return "\n".join(lines)


def render_journal(doc) -> str:
    """Render a journal inspection document as text.

    Accepts either the ``repro journal verify`` document (integrity
    counters only) or the richer ``repro journal show`` one (adds run
    metadata and the per-task table when present).  Duck-typed on the
    dict to keep this module free of an import on the exec layer.
    """
    tasks = doc.get("tasks") or {}
    status = "complete" if doc.get("complete") else "resumable"
    lines = [
        f"journal {doc['path']}: {status}, "
        f"{doc.get('records', 0)} record(s) over {doc.get('runs', 0)} "
        f"run segment(s)"
    ]
    counts = ", ".join(
        f"{tasks.get(k, 0)} {k}"
        for k in ("completed", "failed", "interrupted", "pending")
    )
    lines.append(f"tasks: {counts}")
    if doc.get("keys") is not None:
        meta = f"run: {' '.join(doc['keys'])} --scale {doc.get('scale')}"
        if doc.get("jobs") is not None:
            meta += f" --jobs {doc['jobs']}"
        if doc.get("fault_spec"):
            meta += (f" --faults {doc['fault_spec']} "
                     f"--seed {doc.get('fault_seed', 0)}")
        if doc.get("resumed"):
            meta += "  (resumed)"
        lines.append(meta)
    integrity = []
    if doc.get("corrupt_records"):
        integrity.append(f"{doc['corrupt_records']} corrupt record(s) "
                         "skipped")
    if doc.get("torn_tail"):
        integrity.append("torn tail dropped (crash mid-append)")
    if doc.get("orphan_tmp"):
        integrity.append(f"{doc['orphan_tmp']} orphaned .tmp file(s) "
                         "beside the journal")
    lines.append(
        "integrity: " + ("; ".join(integrity) if integrity else "ok")
    )
    entries = doc.get("entries")
    if entries:
        rows = [
            [
                e.get("label", "-"),
                e.get("status", "-"),
                f"{e['seconds']:.3f}" if e.get("seconds") is not None
                else "-",
                e.get("worker") or e.get("error") or e.get("reason") or "-",
            ]
            for e in entries
        ]
        lines.append(render_table(["task", "status", "seconds", "detail"],
                                  rows))
    return "\n".join(lines)


def _drift_cell(value) -> str:
    return f"{value:.4f}" if isinstance(value, (int, float)) else "-"


def _scoreboard_table(scoreboard) -> str:
    rows = [
        [
            e["name"],
            f"{e['badness']:.3f}",
            _drift_cell(e.get("drift_max")),
            e.get("claims_failed", 0),
            e.get("failures", 0),
            e.get("remediations", 0),
            e.get("fault_events", 0),
        ]
        for e in scoreboard
    ]
    return render_table(
        ["scenario", "badness", "drift", "claims!", "failures",
         "repairs", "faults"],
        rows,
    )


def render_scenario_packs(doc) -> str:
    """Render the :func:`repro.scenarios.list_packs` catalogue."""
    lines = []
    for name, pack in doc.items():
        lines.append(f"{name}: {pack['description']}")
        for s in pack["scenarios"]:
            lines.append(f"  {s['name']:<22} {s['describe']}")
        lines.append("")
    return "\n".join(lines).rstrip()


def render_campaign(doc) -> str:
    """Render a campaign document: run header, per-scenario status, and
    the badness-sorted scoreboard."""
    header = (
        f"campaign {doc['campaign']} [{doc['fingerprint']}]: "
        f"{doc['total']} scenario run(s), "
        f"{len(doc.get('baselines', []))} baseline(s)"
    )
    if doc.get("interrupted"):
        header += " (interrupted: partial results)"
    lines = [header]
    if doc.get("truncated"):
        lines.append(
            "budget truncated: " + ", ".join(doc["truncated"])
        )
    status_rows = []
    for e in doc["scenarios"]:
        status_rows.append([
            e["name"],
            "baseline" if e.get("baseline") else "scenario",
            e.get("status", "-"),
            f"{e['seconds']:.2f}" if e.get("seconds") is not None else "-",
            e.get("digest", e.get("error", "-"))[:40],
        ])
    lines.append(render_table(
        ["name", "role", "status", "seconds", "digest"], status_rows
    ))
    if doc.get("scoreboard"):
        lines.append("")
        lines.append("scoreboard (worst first):")
        lines.append(_scoreboard_table(doc["scoreboard"]))
    return "\n".join(lines)


def render_autopilot(doc) -> str:
    """Render an autopilot document: search header, scoreboard, and the
    frozen worst offenders."""
    a = doc["autopilot"]
    header = (
        f"autopilot pack={a['pack']} seed={a['seed']}: "
        f"spent {doc['spent']}/{a['budget']} evaluation(s) over "
        f"{doc['rounds']} mutation round(s), "
        f"{doc['evaluated']} scenario(s) scored"
    )
    if doc.get("interrupted"):
        header += " (interrupted)"
    lines = [header]
    if doc.get("errors"):
        for err in doc["errors"]:
            lines.append(f"error: {err['name']}: {err['error']}")
    if doc.get("scoreboard"):
        lines.append(_scoreboard_table(doc["scoreboard"]))
    for item in doc.get("frozen", []):
        where = f" -> {item['path']}" if "path" in item else ""
        lines.append(
            f"frozen: {item['name']} (badness {item['badness']:.3f}, "
            f"digest {item['digest']}){where}"
        )
    return "\n".join(lines)


def render_replay(rows) -> str:
    """Render frozen-scenario replay results (one row per file)."""
    table = render_table(
        ["scenario", "expected", "actual", "verdict"],
        [
            [r["name"], r["expected"], r["actual"],
             "ok" if r["ok"] else "DRIFTED"]
            for r in rows
        ],
    )
    bad = sum(1 for r in rows if not r["ok"])
    verdict = (
        f"{len(rows)} frozen scenario(s): all replay byte-identical"
        if not bad else
        f"{len(rows)} frozen scenario(s): {bad} DRIFTED from frozen digest"
    )
    return table + "\n" + verdict


def render_trace_summary(doc) -> str:
    """Render a :func:`repro.obs.summarize_trace` document as text.

    Wall side first (span count, wall seconds, slowest spans), then the
    virtual side (event counts by kind, ranks, virtual makespan), then
    every metric.  Duck-typed on the summary dict to keep this module
    free of an import on the obs layer.
    """
    lines = [
        f"trace: {doc['nspans']} span(s) over "
        f"{doc['wall_seconds']:.3f}s wall; "
        f"{doc['nevents']} virtual event(s) on {doc['ranks']} rank(s), "
        f"virtual makespan {format_si(doc['virtual_seconds'])}s"
    ]
    if doc.get("top_spans"):
        rows = [
            [s["name"], s.get("cat", "span"), f"{s['seconds']:.4f}"]
            for s in doc["top_spans"]
        ]
        lines.append("slowest spans:")
        lines.append(render_table(["span", "category", "seconds"], rows))
    if doc.get("events_by_kind"):
        rows = [[k, v] for k, v in doc["events_by_kind"].items()]
        lines.append("virtual events:")
        lines.append(render_table(["kind", "count"], rows))
    metrics = doc.get("metrics") or {}
    counters = metrics.get("counters") or {}
    gauges = metrics.get("gauges") or {}
    scalar_rows = [
        [name, "counter", format_si(value)]
        for name, value in sorted(counters.items())
    ] + [
        [name, "gauge", format_si(value)]
        for name, value in sorted(gauges.items())
    ]
    if scalar_rows:
        lines.append("metrics:")
        lines.append(render_table(["metric", "kind", "value"], scalar_rows))
    histograms = metrics.get("histograms") or {}
    if histograms:
        rows = []
        for name, h in sorted(histograms.items()):
            count = h.get("count", 0)
            mean = h.get("sum", 0.0) / count if count else 0.0
            rows.append([
                name,
                count,
                format_si(mean),
                format_si(h["min"]) if h.get("min") is not None else "-",
                format_si(h["max"]) if h.get("max") is not None else "-",
            ])
        lines.append("histograms:")
        lines.append(render_table(["histogram", "count", "mean", "min",
                                   "max"], rows))
    return "\n".join(lines)


def render_sweep(result: SweepResult, digits: int = 3) -> str:
    """Render a SweepResult as '<xlabel> | one column per series'."""
    labels = result.labels()
    if not labels:
        return f"{result.title}: (empty)"
    # Union of x grids, sorted.
    xs: List[float] = sorted({x for s in result.series.values() for x in s.x})
    headers = [result.xlabel] + labels
    rows = []
    for x in xs:
        row: List[str] = [format_si(x, digits)]
        for label in labels:
            s = result.series[label]
            try:
                row.append(format_si(s.at(x), digits))
            except KeyError:
                row.append("-")
        rows.append(row)
    header = f"{result.title}   [{result.ylabel}]"
    return header + "\n" + render_table(headers, rows)


def _trend_value(value) -> str:
    return format_si(value, 4) if isinstance(value, (int, float)) else "-"


def render_bench_trend(doc) -> str:
    """Render a :func:`repro.obs.collector.bench_trend` verdict: the
    document window, one row per metric (regressions first), the latest
    scenario aggregate view when a campaign/autopilot document is in
    the window, and the gate verdict line."""
    kinds = sorted({d["kind"] for d in doc["documents"]})
    header = (
        f"bench trend: {len(doc['documents'])} document(s) "
        f"[{', '.join(kinds)}], window {doc['last']}, "
        f"tolerance {doc['tolerance'] * 100:g}%"
    )
    if doc.get("since"):
        header += f", since {doc['since']}"
    lines = [header]
    order = {"regression": 0, "improved": 1, "ok": 2, "new": 3, "info": 4}
    names = sorted(
        doc["metrics"],
        key=lambda n: (order.get(doc["metrics"][n]["status"], 9), n),
    )
    rows = []
    for name in names:
        m = doc["metrics"][name]
        delta = m.get("delta")
        rows.append([
            name,
            m["direction"],
            _trend_value(m.get("baseline")),
            _trend_value(m["latest"]),
            f"{delta * 100:+.1f}%" if delta is not None else "-",
            "REGRESSED" if m["status"] == "regression" else m["status"],
        ])
    lines.append(render_table(
        ["metric", "direction", "baseline", "latest", "delta", "verdict"],
        rows,
    ))
    if doc.get("scenarios"):
        lines.append("")
        lines.append("latest scenario aggregates:")
        lines.append(_scoreboard_table(doc["scenarios"]))
    lines.append("")
    if doc["regressions"]:
        lines.append(
            f"REGRESSED: {len(doc['regressions'])} metric(s) beyond "
            "tolerance: " + ", ".join(doc["regressions"])
        )
    else:
        gated = sum(
            1 for m in doc["metrics"].values()
            if m["status"] in ("ok", "improved")
        )
        lines.append(
            f"OK: no regression beyond tolerance ({gated} gated "
            f"metric(s), {len(doc['metrics'])} total)"
        )
    return "\n".join(lines)


def render_metric_store(listing) -> str:
    """Render a metric-store document listing (``repro bench list``)."""
    rows = [
        [d["file"], d["kind"], d["metrics"], d.get("digest") or "-",
         d.get("git_sha") or "-"]
        for d in listing["documents"]
    ]
    table = render_table(
        ["document", "kind", "metrics", "digest", "git sha"], rows
    )
    head = (
        f"metric store {listing['store']}: "
        f"{len(listing['documents'])} document(s)"
    )
    if listing.get("corrupt_documents"):
        head += (f", {listing['corrupt_documents']} quarantined "
                 "corrupt document(s)")
    return head + "\n" + table


def render_serve_jobs(doc) -> str:
    """Render the ``repro serve jobs`` listing."""
    jobs = doc.get("jobs", [])
    if not jobs:
        return "no jobs submitted"
    rows = [
        [
            j["job_id"], j["kind"], j["status"], j["attempt"],
            j.get("requeues", 0),
            next(iter(j.get("digests", {}).values()), None)
            or j.get("error", "-")[:40] or "-",
        ]
        for j in jobs
    ]
    table = render_table(
        ["job", "kind", "status", "attempt", "requeues", "digest/error"],
        rows,
    )
    return f"{len(jobs)} job(s)\n" + table


def render_serve_status(doc) -> str:
    """Render one job's status document (``repro serve status``)."""
    lines = [
        f"{doc['job_id']}: {doc['status']} "
        f"(kind {doc['kind']}, attempt {doc['attempt']}, "
        f"{doc.get('requeues', 0)} requeue(s))"
    ]
    if doc.get("last_requeue_reason"):
        lines.append(f"  last requeue: {doc['last_requeue_reason']}")
    if doc.get("worker_pid"):
        lines.append(f"  worker pid: {doc['worker_pid']}")
    if doc.get("error"):
        lines.append(f"  error: {doc['error']}")
    for kind, digest in sorted(doc.get("digests", {}).items()):
        lines.append(f"  metric digest ({kind}): {digest}")
    result = doc.get("result")
    if result:
        detail = ", ".join(
            f"{k}={v}" for k, v in sorted(result.items()) if k != "kind"
        )
        if detail:
            lines.append(f"  result: {detail}")
    store = doc.get("store")
    if store:
        health = []
        if store.get("corrupt_records"):
            health.append(f"{store['corrupt_records']} corrupt "
                          "record(s) skipped")
        if store.get("torn_tail"):
            health.append("torn tail repaired")
        if store.get("orphan_tmp"):
            health.append(f"{store['orphan_tmp']} orphaned .tmp "
                          "file(s)")
        lines.append(
            "  store: " + ("; ".join(health) if health else "healthy")
        )
    template = doc.get("template")
    if template:
        lines.append(
            f"  worker template: pid {template['pid']} "
            f"({'alive' if template['alive'] else 'down'}), "
            f"{template['forked']} forked, "
            f"{template['restarts']} restart(s)"
        )
    tail = doc.get("journal_tail")
    if tail:
        lines.append(f"  journal tail ({len(tail)} record(s)):")
        lines.extend(f"    {line}" for line in tail)
    return "\n".join(lines)


def _recovery(point) -> str:
    """The chaos "recovery" cell: ``ok``, or the violated invariants."""
    if point["ok"]:
        return "ok"
    return ", ".join(sorted(
        n for n, s in point.get("invariants", {}).items() if s == "violated"
    ))


def render_chaos_verdict(doc) -> str:
    """Render the ``repro chaos crashpoints`` verdict document."""
    lines = [
        f"chaos crashpoints: seed {doc['seed']}, "
        f"budget {doc['budget']} per workload"
    ]
    for name, wl in sorted(doc.get("workloads", {}).items()):
        lines.append(
            f"  {name}: {wl['points_run']}/{wl['points_total']} "
            "durability point(s) swept"
        )
    rows = [
        [p["workload"], p["k"], p["op"], p["label"], p["mode"],
         p["outcome"], _recovery(p)]
        for p in doc.get("points", [])
    ]
    if rows:
        lines.append(render_table(
            ["workload", "k", "op", "file", "mode", "outcome",
             "recovery"],
            rows,
        ))
    if doc.get("violations"):
        lines.append(
            f"VIOLATED: {len(doc['violations'])} invariant check(s) — "
            + ", ".join(doc["violations"])
        )
        for p in doc.get("points", []):
            for name, detail in sorted(p.get("details", {}).items()):
                lines.append(
                    f"  {p['workload']}:k={p['k']}:{name}: {detail}"
                )
    else:
        lines.append(
            "all recoveries converged: digests match the "
            "uninterrupted run, no orphans, no fused records"
        )
    return "\n".join(lines)


def render_chaos_replay(verdicts) -> str:
    """Render ``repro chaos replay`` results, one frozen file a row."""
    if not verdicts:
        return "no frozen crashpoints replayed"
    rows = [
        [
            v.get("frozen", {}).get("path", "-"),
            v["workload"], v["k"], v["mode"], v["outcome"], _recovery(v),
        ]
        for v in verdicts
    ]
    table = render_table(
        ["frozen", "workload", "k", "mode", "outcome", "recovery"], rows
    )
    bad = sum(1 for v in verdicts if not v["ok"])
    tail = (
        f"{bad} frozen crashpoint(s) bite again" if bad
        else f"all {len(verdicts)} frozen crashpoint(s) still recover"
    )
    return table + "\n" + tail
