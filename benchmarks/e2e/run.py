#!/usr/bin/env python3
"""End-to-end benchmark of the ``repro`` CLI, with per-layer timing.

Usage (from the repository root)::

    python benchmarks/e2e/run.py --seed 0 --out bench-e2e.json
    python benchmarks/e2e/run.py --workload ci-sweep --seed 3 \\
        --seconds 20 --trace 0

With no ``--workload`` every workload runs untraced, then every workload
runs traced.  The untraced pass gives the end-to-end metrics: real CLI
processes timed from outside, for ``--seconds`` per workload after set-up
and warm-up.  The traced pass runs a fixed number of operations through
``tracer.py``, alternating with as many untraced ones, and gives the
per-layer metrics; its spans go to ``bench-e2e-trace.jsonl``.
``--trace 0`` or ``--trace 1`` runs only one pass.

Every metric is printed with its name and unit; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` whose
metrics are those ``BENCHMARK.json`` names for the pass that ran.  When
``$REPRO_METRICS_DIR`` is set, the end-to-end metrics also go there as a
``bench`` metric document (``meta.suite = "e2e"``) that ``repro bench
trend`` gates with each metric's bound as its tolerance.

Exit status: 0 when every operation passed its checks, 1 when one
failed, 2 when the checkout has no program to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Sequence

from harness import ROOT, SRC, program_present
from workloads import WORKLOADS, Abort, OpFailed, cli_import_seconds

TRACE_FILE = "bench-e2e-trace.jsonl"


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (0..100) of ``values``."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: set-up, warm-up, then operations."""
    work = Path(tempfile.mkdtemp(prefix=".e2e-work-", dir=ROOT))
    workload = WORKLOADS[name](work, seed)
    run: Dict[str, Any] = {
        "workload": name, "seed": seed, "trace": trace,
        "attempted": 0, "failed": 0, "problems": [],
        "setup": [], "samples": [],
    }
    op_walls: Dict[bool, List[float]] = {False: [], True: []}
    traced: List[list] = []

    def attempt(fn):
        run["attempted"] += 1
        try:
            return fn()
        except OpFailed as exc:
            run["failed"] += 1
            run["problems"].append(str(exc))
            return None

    def one_op(traced_op: bool) -> None:
        out = attempt(lambda: workload.op(traced_op))
        if out is None:
            return
        samples, procs = out
        op_walls[traced_op].append(sum(s["wall"] for s in samples))
        if traced_op:
            traced.append(procs)
        else:
            run["samples"].extend(samples)

    try:
        try:
            workload.prepare()
            run["setup"] = workload.start(timed_setup=not trace)
            if trace:
                import_s = cli_import_seconds(work)
            attempt(workload.warmup)
            if trace:
                for _ in range(workload.traced_ops):
                    one_op(False)
                    one_op(True)
            else:
                deadline = time.perf_counter() + seconds
                while True:
                    one_op(False)
                    remaining = deadline - time.perf_counter()
                    # Start another operation only while at least half
                    # of a typical one still fits in the budget.
                    if not op_walls[False] or remaining < median(
                            op_walls[False]) / 2:
                        break
        except (Abort, OpFailed) as exc:  # set-up failed, or no way on
            run["attempted"] += 1
            run["failed"] += 1
            run["problems"].append(str(exc))
        finally:
            try:
                workload.close()
            except OpFailed as exc:
                run["failed"] += 1
                run["problems"].append(str(exc))
        if run["failed"]:
            return run
        if trace:
            layers, run["spans"] = workload.layers(traced)
            layers["cli.import_s"] = (import_s, "s")
            layers["trace_overhead_ratio"] = (
                median(op_walls[True]) / median(op_walls[False]) - 1.0,
                "ratio")
            run["layers"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in sorted(layers.items())}
        else:
            run["e2e"] = e2e_metrics(run, workload)
        return run
    finally:
        shutil.rmtree(work, ignore_errors=True)


def e2e_metrics(run: dict, workload) -> Dict[str, dict]:
    """End-to-end metrics of an untraced run, with their samples."""
    ops = [s for s in run["samples"] if s["phase"] == "op"]
    warm = [s for s in run["samples"] if s["phase"] == "warm"] or ops
    walls = [s["wall"] for s in ops]
    cpu, rss, n = workload.totals(run["samples"])

    def entry(value: float, unit: str, samples: List[float]) -> dict:
        return {"value": value, "unit": unit, "samples": samples}

    return {
        "setup_s": entry(median(run["setup"]), "s", run["setup"]),
        "op_p50_s": entry(median(walls), "s", walls),
        "op_p80_s": entry(percentile(walls, 80), "s", walls),
        "warm_op_p50_s": entry(
            median([s["wall"] for s in warm]), "s",
            [s["wall"] for s in warm]),
        "cpu_per_op_s": entry(cpu / n, "s", [cpu / n]),
        "peak_rss_mb": entry(rss, "MB", [rss]),
        "fail_ratio": entry(run["failed"] / run["attempted"], "ratio",
                            [run["failed"] / run["attempted"]]),
    }


def print_run(run: dict) -> None:
    mode = "traced" if run["trace"] else "untraced"
    print(f"== {run['workload']} (seed {run['seed']}, {mode}): "
          f"{run['attempted']} attempted, {run['failed']} failed")
    for problem in run["problems"]:
        print(f"   FAILED: {problem.splitlines()[0]}")
    for name, m in sorted(run.get("e2e", {}).items()):
        print(f"   {name:<30} {m['value']:>14.6g} {m['unit']:<6} "
              f"n={len(m['samples'])}")
    for name, m in run.get("layers", {}).items():
        print(f"   {name:<30} {m['value']:>14.6g} {m['unit']}")


def result_line(runs: List[dict], spec: Dict[str, Any]) -> dict:
    """The last stdout line: the ``BENCHMARK.json`` metrics of the pass
    that ran (qualified by workload when several ran)."""
    qualify = len({r["workload"] for r in runs}) > 1
    metrics: Dict[str, dict] = {}
    for run in runs:
        section = "per_layer" if run["trace"] else "end_to_end"
        got = run.get("layers" if run["trace"] else "e2e", {})
        for m in spec[section]:
            if m["name"] not in got:
                continue
            key = f"{run['workload']}:{m['name']}" if qualify else m["name"]
            metrics[key] = {"value": got[m["name"]]["value"],
                            "unit": m["unit"]}
    failed = sum(r["failed"] for r in runs)
    expected = sum(
        len(spec["per_layer" if r["trace"] else "end_to_end"]) for r in runs)
    return {
        "correct": failed == 0 and len(metrics) == expected,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": metrics,
    }


def metric_document(runs: List[dict], spec: Dict[str, Any],
                    seed: int) -> Dict[str, Any]:
    """A ``bench`` metric document of the untraced runs' end-to-end
    metrics, each gated by its bound (``repro bench trend``)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.obs.collector import SCHEMA_VERSION, git_sha, metric

    metrics: Dict[str, dict] = {}
    for run in runs:
        if run["trace"] or "e2e" not in run:
            continue
        prefix = f"e2e.{run['workload']}"
        for m in spec["end_to_end"]:
            metrics[f"{prefix}.{m['name']}"] = metric(
                run["e2e"][m["name"]]["value"], m["better"],
                tolerance=m["bound"], unit=m["unit"],
            )
        metrics[f"{prefix}.fail_ratio"] = metric(
            run["e2e"]["fail_ratio"]["value"], "exact", unit="ratio")
    return {
        "schema": SCHEMA_VERSION,
        "kind": "bench",
        "meta": {"suite": "e2e", "seed": seed, "git_sha": git_sha(ROOT),
                 "python": platform.python_version()},
        "metrics": metrics,
    }


def write_trace(runs: List[dict], path: Path) -> None:
    """One JSON line per span, tagged with its workload, operation and
    process; ``parent`` indexes the spans of the same process."""
    with open(path, "w") as f:
        for run in runs:
            for op, procs in enumerate(run.pop("spans", [])):
                for proc, spans in enumerate(procs):
                    for span in spans:
                        f.write(json.dumps({
                            "workload": run["workload"],
                            "op": f"{run['workload']}:{op}",
                            "proc": proc, **span,
                        }, sort_keys=True) + "\n")


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["all", *WORKLOADS],
                    default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per untraced run "
                    "(default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=None,
                    help="run only the untraced (0) or traced (1) pass")
    ap.add_argument("--out", default=None, metavar="FILE",
                    help="write every run, with its samples, as JSON")
    args = ap.parse_args(argv)

    if not program_present():
        print(f"no repro program under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    # A terminated benchmark still stops the processes it started: the
    # exit unwinds through every workload's clean-up.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec[
        "run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    passes = [False, True] if args.trace is None else [bool(args.trace)]

    started = time.perf_counter()
    runs = []
    for trace in passes:
        for name in names:
            run = measure(name, args.seed, seconds, trace)
            print_run(run)
            runs.append(run)
    total = time.perf_counter() - started
    print(f"== total {total:.1f} s")

    if any(r.get("spans") for r in runs):
        write_trace(runs, ROOT / TRACE_FILE)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"benchmark": "e2e", "seed": args.seed, "seconds": seconds,
             "total_s": total, "runs": runs}, indent=1) + "\n")
    store = os.environ.get("REPRO_METRICS_DIR")
    if store and any("e2e" in r for r in runs):
        doc = metric_document(runs, spec, args.seed)
        from repro.obs.collector import MetricsStore

        print(f"== metric document {MetricsStore(store).write(doc)}")
    result = result_line(runs, spec)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
