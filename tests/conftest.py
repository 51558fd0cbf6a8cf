"""Shared fixtures for the test suite."""

import json
from pathlib import Path
from typing import Any, Dict, List

import numpy as np
import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Relative tolerance for numeric golden values: generous enough for libm
#: variation across CI platforms, far below any real model change.
GOLDEN_RTOL = 1e-9


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_sw_params():
    """A small, fast shallow-water configuration."""
    from repro.shallowwaters import ShallowWaterParams

    return ShallowWaterParams(nx=32, ny=16)


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="regenerate the tests/golden/ snapshots from the current "
        "code instead of comparing against them (inspect "
        "`git diff tests/golden/` before committing)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running test (full-scale experiment)"
    )


def _flatten(doc: Any, prefix: str = "") -> Dict[str, Any]:
    """Flatten nested dicts/lists to ``path -> leaf`` for diffing."""
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


def _close(a: Any, b: Any) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b or abs(a - b) <= GOLDEN_RTOL * max(abs(a), abs(b))
    return a == b


def golden_drift(golden: Any, current: Any) -> List[str]:
    """Readable per-leaf drift report between two JSON documents."""
    gold_flat, cur_flat = _flatten(golden), _flatten(current)
    lines: List[str] = []
    for path in sorted(set(gold_flat) - set(cur_flat)):
        lines.append(f"  {path}: in golden, missing from current")
    for path in sorted(set(cur_flat) - set(gold_flat)):
        lines.append(f"  {path}: new in current, not in golden")
    for path in sorted(set(gold_flat) & set(cur_flat)):
        g, c = gold_flat[path], cur_flat[path]
        if _close(g, c):
            continue
        note = ""
        if isinstance(g, (int, float)) and isinstance(c, (int, float)):
            scale = max(abs(g), abs(c))
            note = f"  (rel drift {abs(g - c) / scale if scale else 0.0:.2e})"
        lines.append(f"  {path}: golden {g!r} != current {c!r}{note}")
    return lines


@pytest.fixture
def golden(request: pytest.FixtureRequest):
    """``golden(name, doc)`` compares ``doc`` with ``tests/golden/<name>``.

    Numbers match within :data:`GOLDEN_RTOL`; everything else exactly.
    Under ``--update-golden`` the snapshot is rewritten from ``doc``
    instead (atomically, so a crash cannot tear a committed snapshot)
    and the test skips::

        PYTHONPATH=src python -m pytest tests/test_golden_figures.py \\
            --update-golden
        git diff tests/golden/      # inspect the drift, then commit it
    """
    from repro.core.atomicio import atomic_write_text

    def check(name: str, doc: Any) -> None:
        path = GOLDEN_DIR / name
        if request.config.getoption("--update-golden"):
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                path, json.dumps(doc, indent=2, sort_keys=True) + "\n"
            )
            pytest.skip(f"regenerated {path}")
        assert path.exists(), (
            f"missing golden snapshot {path}; generate it with "
            f"`pytest {request.node.path} --update-golden` and commit "
            "the result"
        )
        drift = golden_drift(json.loads(path.read_text()), doc)
        assert not drift, (
            f"current output drifted from tests/golden/{name} "
            f"({len(drift)} leaf/leaves):\n" + "\n".join(drift)
            + "\n(intentional? regenerate with --update-golden, review "
            "`git diff tests/golden/`, and commit)"
        )

    return check
