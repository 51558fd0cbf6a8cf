"""Golden-figure regression tests: Figs. 1/2/3/5 sweep data, snapshotted.

Every curve the repo reproduces is a pure function of its models, so the
ci-scale sweep data can be pinned byte-for-byte: these tests compare the
current figure output against the committed snapshots in
``tests/golden/*.json`` and fail with a per-point diff when any value
drifts.  That turns "a model change silently bent Fig. 3" into a red
test naming the exact curve and point.

Updating the snapshots (after an *intentional* model change)::

    PYTHONPATH=src python -m pytest tests/test_golden_figures.py \
        --update-golden
    git diff tests/golden/      # inspect the drift, then commit it

The comparison (the shared ``golden`` fixture in ``conftest.py``)
allows a tiny relative tolerance (1e-9) so snapshots survive libm
differences between platforms; anything larger is a real behaviour
change.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

import pytest

from repro.core.benchmark import SweepResult
from repro.core.experiments import REGISTRY

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Experiments with sweep-shaped results worth pinning (fig4 returns
#: arrays, lst1 a listing — both covered by their own tests).
GOLDEN_KEYS = ["fig1", "fig2", "fig3", "fig5"]


def _sweep_doc(result: Any) -> Dict[str, Any]:
    """Serialise a SweepResult (or a dict of panels) to plain JSON data."""
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
    return {name: _sweep_doc(panel) for name, panel in result.items()}


def _golden_path(key: str) -> Path:
    return GOLDEN_DIR / f"{key}.json"


@pytest.mark.parametrize("key", GOLDEN_KEYS)
def test_golden_figure(key: str, golden) -> None:
    golden(f"{key}.json", _sweep_doc(REGISTRY[key].run("ci")))


def test_golden_snapshots_all_committed() -> None:
    """Every pinned experiment has a committed snapshot (catches a
    forgotten --update-golden on a freshly added key)."""
    missing = [k for k in GOLDEN_KEYS if not _golden_path(k).exists()]
    assert not missing, f"missing golden snapshots for: {missing}"


def test_golden_snapshot_is_deterministic() -> None:
    """Two runs of the same sweep serialise identically — the property
    that makes snapshot testing sound in the first place."""
    a = json.dumps(_sweep_doc(REGISTRY["fig5"].run("ci")), sort_keys=True)
    b = json.dumps(_sweep_doc(REGISTRY["fig5"].run("ci")), sort_keys=True)
    assert a == b
