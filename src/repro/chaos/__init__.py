"""Deterministic storage-chaos harness.

Seeded, pure-hash I/O fault injection threaded through the
:mod:`repro.core.atomicio` checkpoints, plus the crashpoint campaign
runner behind ``repro chaos crashpoints``: enumerate every durability
point a workload performs, re-execute crashing at each point, and
assert that recovery converges — same digests, no orphans, no fused
records, quarantine instead of corruption.  See ``docs/CHAOS.md``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "APPEND_MODES": "faultio",
    "CHAOS_SCHEMA_VERSION": "crashpoints",
    "COUNTED_OPS": "faultio",
    "WORKLOADS": "workloads",
    "WRITE_MODES": "faultio",
    "CountingIO": "faultio",
    "CrashpointIO": "faultio",
    "InjectError": "faultio",
    "IOPoint": "faultio",
    "Workload": "workloads",
    "enumerate_points": "crashpoints",
    "freeze_crashpoint": "crashpoints",
    "make_workload": "workloads",
    "mode_for": "faultio",
    "replay_crashpoint": "crashpoints",
    "run_crashpoint": "crashpoints",
    "run_crashpoints": "crashpoints",
    "select_points": "crashpoints",
})
