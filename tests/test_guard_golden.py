"""Golden-figure regression for the guard subsystem (satellite of the
robustness PR).

Two promises are pinned here:

1. **Guards off/observe change nothing.**  The Fig. 4 scalar results
   and vorticity-field statistics match the committed snapshot in
   ``tests/golden/fig4.json`` with guards off, and an ``observe``-mode
   engine run produces byte-identical field arrays.
2. **Repair reproduces the paper's rescue.**  A deliberately
   overflowing Float16 point (``--guard-inject overflow16``) completes
   under ``--guard repair`` with a ``degraded`` annotation, and the
   rescued scaled Float16 field still tracks Float64 (corr > 0.98) —
   the paper's §III-B claim, reached *through* the remediation ladder.

The snapshot pins summary statistics rather than raw array bytes so it
survives libm differences across platforms (same policy as the other
golden figures, RTOL 1e-9).  Regenerate after an intentional model
change with ``pytest tests/test_guard_golden.py --update-golden``.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict

import numpy as np
import pytest

from repro.core.experiments import REGISTRY
from repro.exec import Engine


def _field_stats(z: np.ndarray) -> Dict[str, Any]:
    z = np.asarray(z, dtype=np.float64)
    return {
        "shape": list(z.shape),
        "mean": float(z.mean()),
        "std": float(z.std()),
        "min": float(z.min()),
        "max": float(z.max()),
        "abs_sum": float(np.abs(z).sum()),
    }


def _fig4_doc(result) -> Dict[str, Any]:
    return {
        "correlation": float(result.correlation),
        "nrmse": float(result.nrmse),
        "f64_runtime_ratio": float(result.f64_runtime_ratio),
        "vorticity_f64": _field_stats(result.vorticity_f64),
        "vorticity_f16": _field_stats(result.vorticity_f16),
    }


def test_fig4_golden_with_guards_off(golden):
    golden("fig4.json", _fig4_doc(REGISTRY["fig4"].run("ci")))


def test_fig4_byte_identical_under_observe():
    off = Engine(jobs=1)
    on = Engine(jobs=1, guard_mode="observe")
    o_off, o_on = off.run("fig4"), on.run("fig4")
    # The whole outcome (fields, claims, report text) is byte-identical.
    assert pickle.dumps(o_off) == pickle.dumps(o_on)
    # ... and the observe run recorded nothing on a healthy figure.
    assert on.stats.guard_events == 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_forced_overflow_rescued_under_repair():
    engine = Engine(jobs=1, guard_mode="repair", guard_inject="overflow16")
    outcome = engine.run("fig4")
    # The injected point overflowed (violation recorded) and was rescued
    # by the scaling step alone — the paper's own Fig. 4 remedy.
    assert engine.stats.guard_violations >= 1
    assert engine.stats.degraded_tasks == 1
    (degraded,) = [
        t for e in engine.stats.experiments for t in e.tasks if t.degraded
    ]
    applied = [
        e["step"]
        for e in degraded.guard["remediation"]["chain"]
        if e["applied"]
    ]
    assert applied == ["scale"]
    assert degraded.guard["remediation"]["final_overrides"] == {
        "scaling": 1024.0
    }
    # The rescued scaled Float16 field still tracks Float64 — §III-B's
    # "qualitatively indistinguishable" (corr > 0.98) claim survives
    # the rescue, checked by the figure's own claim machinery.
    assert outcome.passed
    corr_claims = [
        ok for text, ok in outcome.claim_results if "corr" in text
    ]
    assert corr_claims and all(corr_claims)


def test_rescued_field_tracks_float64_directly():
    """Re-run the rescue at the task level and compare fields directly:
    the remediated (scaled) Float16 vorticity correlates > 0.98 with
    Float64 and contains no NaN/Inf."""
    from repro.exec.tasks import decompose, execute_task, merge_results
    from repro.guard import GuardConfig, GuardMonitor, guarding

    tasks = decompose(
        "fig4", guard_mode="repair", guard_inject="overflow16"
    )
    payloads = []
    with np.errstate(all="ignore"):
        for t in tasks:
            with guarding(GuardMonitor(GuardConfig(mode="repair"))):
                payloads.append(execute_task(t))
    result = merge_results("fig4", "ci", payloads)
    assert result.correlation > 0.98
    assert np.isfinite(result.vorticity_f16).all()
