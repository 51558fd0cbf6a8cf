"""repro.scenarios — declarative adversity: packs, campaigns, autopilot.

The fault presets (PR 2) and guard injections (PR 5) are point tools;
this package generalises them into a declarative robustness layer:

* :mod:`~repro.scenarios.spec` — :class:`ScenarioSpec`, a named,
  validated, hashable bundle of (experiment, scale, fault plan, guard
  policy, injection), loadable from JSON/YAML or built in Python;
* :mod:`~repro.scenarios.library` — the built-in packs (``baseline``,
  ``degraded-tofud``, ``straggler-storm``, ``partition-rejoin``,
  ``overflow-drill``, ``mixed-chaos``);
* :mod:`~repro.scenarios.score` — scenario execution (one exec Task per
  scenario) and drift/remediation scoring against fault-free baselines;
* :mod:`~repro.scenarios.campaign` — the journal-backed, resumable,
  ``--jobs``-deterministic campaign runner and frozen-regression
  freeze/replay;
* :mod:`~repro.scenarios.autopilot` — a seeded mutation search that
  climbs toward maximal drift/remediation under a task budget and
  freezes the worst offenders as replayable regressions.

Everything downstream of a spec is a pure function of it — campaign
scoreboards and frozen digests are byte-stable across repeated runs,
``--jobs`` values, and ``--resume``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ScenarioError": "spec",
    "ScenarioSpec": "spec",
    "scenario": "spec",
    "load_scenario_file": "spec",
    "parse_scenario_doc": "spec",
    "PACKS": "library",
    "ScenarioPack": "library",
    "get_pack": "library",
    "list_packs": "library",
    "run_scenario": "score",
    "figure_doc": "score",
    "payload_drift": "score",
    "score_scenario": "score",
})
