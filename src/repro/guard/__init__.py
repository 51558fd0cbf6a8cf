"""repro.guard — runtime numerical-robustness subsystem.

The paper's reduced-precision story (§III-B, Figs. 4–5) is about
numerical fragility: Float16 ShallowWaters overflows to Inf/NaN and
drowns in subnormals unless multiplicative scaling and compensated
integration rescue it.  This package turns that from a post-mortem
(garbage in a figure) into a runtime discipline:

* :mod:`~repro.guard.sentinels` — cheap vectorised health probes
  (NaN/Inf, overflow-risk headroom, subnormal census, exponent-range
  occupancy) sharing one classifier with the sherlog workflow;
* :mod:`~repro.guard.contracts` — declarative invariant contracts with
  tolerances, recorded as structured :class:`GuardEvent` s;
* :mod:`~repro.guard.monitor` — the active-guard plumbing and the
  ``observe``/``strict``/``repair`` mode policy;
* :mod:`~repro.guard.policy` — the ``scale → compensated → promote``
  remediation ladder that degrades a failing sweep point gracefully
  instead of failing the run.

Guards are strictly opt-in: with no active monitor every
instrumentation site is a single ``None`` check and all outputs are
byte-identical to an unguarded build.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "CONTRACT_KINDS": "contracts",
    "Contract": "contracts",
    "FieldHealth": "sentinels",
    "GUARD_MODES": "monitor",
    "GuardConfig": "monitor",
    "GuardEvent": "contracts",
    "GuardMonitor": "monitor",
    "GuardViolation": "contracts",
    "REMEDIABLE_KINDS": "policy",
    "REMEDIATION_ORDER": "policy",
    "RESCUE_SCALING": "policy",
    "SEVERITIES": "contracts",
    "escalate": "policy",
    "get_guard": "monitor",
    "guarding": "monitor",
    "parse_guard_mode": "monitor",
    "probe": "sentinels",
    "probe_value": "sentinels",
    "remediate_params": "policy",
    "set_guard": "monitor",
})
