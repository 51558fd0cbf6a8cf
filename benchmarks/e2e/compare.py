#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs against the bounds.

Usage::

    python benchmarks/e2e/compare.py A B

``A`` (the parent) and ``B`` (the change) are each a ``run.py --out``
document or a directory of them; the runs of one side are pooled.  For
every end-to-end metric of ``BENCHMARK.json`` and every workload it
prints both sides' medians and quartiles and the change against the
metric's bound.  The quartiles are over the side's runs, or over the
samples of its one run.  A pair whose spread (quartile distance over
median, the wider side's) exceeds the bound is *unresolved*, unless
every run of B beats every run of A.  ``fail_ratio`` may not grow at
all.

It also checks that the counts which must repeat exactly do, between
every two traced runs of one workload and seed: ``mpi.messages``,
``mpi.retransmits``, ``shallowwaters.steps``, ``exec.scheduler.tasks``
and ``exec.journal.appends``.

Exit status: 1 on a regression or a count mismatch, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median
from typing import Dict, List, Sequence

from harness import ROOT

EXACT_COUNTS = (
    "mpi.messages",
    "mpi.retransmits",
    "shallowwaters.steps",
    "exec.scheduler.tasks",
    "exec.journal.appends",
)


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them;
    a single value is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def load_runs(path: Path) -> List[dict]:
    runs = []
    for f in sorted(path.glob("*.json")) if path.is_dir() else [path]:
        doc = json.loads(f.read_text())
        if "runs" not in doc:
            raise SystemExit(f"{f}: not a run.py --out document")
        runs.extend(doc["runs"])
    return runs


def side_stats(runs: List[dict], metric: str) -> tuple:
    """``(values, (q1, median, q3))`` of one metric over one side; one
    run's quartiles come from its samples."""
    values = [r["e2e"][metric]["value"] for r in runs]
    if len(values) >= 2:
        return values, quartiles(values)
    return values, quartiles(runs[0]["e2e"][metric]["samples"])


def verdict(a: List[float], qa: tuple, b: List[float], qb: tuple,
            better: str, bound: float) -> tuple:
    """``(worsening share, spread, verdict)`` for one pair."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (median(b) - median(a)) / median(a)
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
    b_wins = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if spread > bound:
        return worse, spread, "better" if b_wins else "unresolved"
    if worse > bound:
        return worse, spread, "REGRESSION"
    return worse, spread, "better" if worse < -bound else "ok"


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = [load_runs(Path(p)) for p in argv]
    bad = 0

    print(f"{'workload':<15} {'metric':<14} {'A median [q1, q3]':>30} "
          f"{'B median [q1, q3]':>30} {'delta':>7} {'bound':>6}  verdict")
    for w in (w["name"] for w in spec["workloads"]):
        untraced = [[r for r in runs
                     if r["workload"] == w and not r["trace"]]
                    for runs in sides]
        if not all(untraced):
            print(f"{w:<15} (no untraced run on both sides)")
            continue
        # A run with a failed operation has no metrics, only its count.
        per_side = [[r for r in runs if "e2e" in r] for runs in untraced]
        for m in spec["end_to_end"] if all(per_side) else ():
            (a, qa), (b, qb) = (side_stats(runs, m["name"])
                                for runs in per_side)
            worse, spread, word = verdict(a, qa, b, qb, m["better"],
                                          m["bound"])
            bad += word == "REGRESSION"
            cells = [f"{median(v):.4g} [{q[0]:.4g}, {q[2]:.4g}]"
                     for v, q in ((a, qa), (b, qb))]
            print(f"{w:<15} {m['name']:<14} {cells[0]:>30} {cells[1]:>30} "
                  f"{worse:>+7.1%} {m['bound']:>6.2f}  {word}"
                  + (f" (spread {spread:.1%})" if word == "unresolved"
                     else ""))
        failed = [sum(r["failed"] for r in runs) /
                  sum(r["attempted"] for r in runs) for runs in untraced]
        word = "REGRESSION" if failed[1] > failed[0] else "ok"
        bad += word == "REGRESSION"
        print(f"{w:<15} {'fail_ratio':<14} {failed[0]:>30.4g} "
              f"{failed[1]:>30.4g} {'':>7} {'0':>6}  {word}")

    counts: Dict[tuple, Dict[str, list]] = defaultdict(
        lambda: defaultdict(list))
    for runs in sides:
        for r in runs:
            for name in EXACT_COUNTS:
                if name in r.get("layers", {}):
                    counts[(r["workload"], r["seed"])][name].append(
                        r["layers"][name]["value"])
    if not counts:
        print("exact counts: no traced runs to compare")
    for (w, seed), by_name in sorted(counts.items()):
        for name, values in sorted(by_name.items()):
            same = len(set(values)) == 1
            bad += not same
            shown = ", ".join(f"{v:g}" for v in sorted(set(values)))
            print(f"exact counts: {w} seed {seed} {name} = {shown} over "
                  f"{len(values)} traced run(s) "
                  f"{'ok' if same else 'MISMATCH'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
