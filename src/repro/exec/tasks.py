"""Task graph: experiments decomposed into independent sweep points.

Every registered experiment is a *sweep* over independent points — per
(precision, size) axpy panels for Fig. 1, per-message-size PingPong
points for Fig. 2, per-(collective, size) worlds for Fig. 3, one
simulation per precision for Fig. 4, one grid size per point for
Fig. 5.  :func:`decompose` turns ``(experiment, scale)`` into a flat
list of :class:`Task` objects, :func:`execute_task` runs one of them
(in-process or inside a pool worker — tasks are plain picklable data),
and :func:`merge_results` reassembles the payloads into exactly the
result object the serial generator returns.

The invariant the tests pin down::

    merge_results(key, scale, [execute_task(t) for t in decompose(key, scale)])
        == REGISTRY[key].run(scale)           # byte-identical reports

because both sides are built from the same ``figN_*_point`` /
``assemble_figN`` halves in :mod:`repro.core.figures`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..core.experiments import FIG3_BENCHES, SCALES, scale_params
from ..guard.monitor import get_guard
from ..guard.policy import REMEDIABLE_KINDS, escalate

__all__ = [
    "GUARD_INJECTIONS",
    "Task",
    "decompose",
    "execute_task",
    "merge_results",
]

#: Synthetic numerical-fault injections (``--guard-inject``).  Applied at
#: decomposition time — the injected parameters *are* the task's params,
#: so caches, journals, and resume validation stay consistent for free.
#: ``overflow16``: run the Fig. 4 Float16 point with an oversized scaling
#: (2^14) and plain integration, which overflows to Inf at every scale.
GUARD_INJECTIONS = ("overflow16",)

_OVERFLOW16_SCALING = 16384.0


@dataclass
class Task:
    """One independent unit of experiment work (picklable).

    ``fault_spec``/``fault_seed`` carry the run's fault-injection plan
    as plain data, so a pool worker reconstructs exactly the same
    deterministic :class:`~repro.mpi.faults.FaultPlan` the serial path
    uses — faulted runs stay byte-identical across ``--jobs`` values.
    ``trace`` asks the executing worker to record a task-local
    :class:`~repro.obs.TraceRecorder` (span + virtual events + metrics)
    and ship it back with the result.  ``guard_mode``/``guard_cadence``
    carry the run's ``--guard`` setting the same way ``fault_spec``
    carries the fault plan: the worker builds its own
    :class:`~repro.guard.GuardMonitor` from them, so guarded runs stay
    deterministic across ``--jobs`` values.
    """

    experiment: str
    scale: str
    index: int  # position within the experiment's task list
    kind: str  # executor name, e.g. "fig1_point"
    params: Dict[str, Any] = field(default_factory=dict)
    fault_spec: Optional[str] = None
    fault_seed: int = 0
    trace: bool = False
    guard_mode: Optional[str] = None
    guard_cadence: int = 16

    @property
    def label(self) -> str:
        """Short human-readable identity for metrics tables."""
        args = ",".join(f"{k}={v}" for k, v in self.params.items() if not
                        isinstance(v, (list, tuple, dict)))
        return f"{self.experiment}[{args}]" if args else self.experiment

    def identity(self) -> Dict[str, Any]:
        """Everything that determines this task's payload — and nothing
        that doesn't (``trace`` changes what rides alongside the result,
        never the result itself).  The run journal digests this document
        to recognise the same sweep point across process lifetimes.

        Guard settings enter the identity only in ``repair`` mode — the
        one mode that can change a payload (by remediating it).
        ``observe``/``strict`` never alter a successful result, so their
        task identities (and hence cache keys, journal digests, and
        resume compatibility) match an unguarded run exactly.
        """
        doc = {
            "experiment": self.experiment,
            "scale": self.scale,
            "index": self.index,
            "kind": self.kind,
            "params": self.params,
            "fault_spec": self.fault_spec,
            "fault_seed": self.fault_seed,
        }
        if self.guard_mode == "repair":
            doc["guard"] = {
                "mode": self.guard_mode,
                "cadence": self.guard_cadence,
            }
        return doc


def _figure(name: str):
    """Executor calling ``repro.core.figures.<name>``.  The figures
    (and with them numpy and the simulators) are imported when a task
    runs, not when the plan is made."""

    def run(**params: Any) -> Any:
        from ..core import figures

        return getattr(figures, name)(**params)

    return run


#: kind -> callable executed with ``**task.params``.
_EXECUTORS = {
    "fig1_point": _figure("fig1_axpy_point"),
    "fig2_point": _figure("fig2_pingpong_point"),
    "fig3_point": _figure("fig3_collectives_point"),
    "fig4_field": _figure("fig4_field"),
    "fig4_ratio": _figure("fig4_runtime_ratio"),
    "fig5_point": _figure("fig5_speedup_point"),
    "lst1_listing": _figure("listing_muladd"),
}

_FIG1_FORMATS = ("Float16", "Float32", "Float64")


def decompose(
    key: str,
    scale: str = "ci",
    fault_spec: Optional[str] = None,
    fault_seed: int = 0,
    trace: bool = False,
    guard_mode: Optional[str] = None,
    guard_cadence: int = 16,
    guard_inject: Optional[str] = None,
) -> List[Task]:
    """Decompose one registered experiment into independent tasks.

    Tasks are returned in a deterministic order that
    :func:`merge_results` relies on; indices are contiguous from 0.
    A non-None ``fault_spec`` is stamped onto every task so
    :func:`execute_task` activates the fault plan around execution;
    ``trace=True`` stamps every task to record and return a trace;
    ``guard_mode``/``guard_cadence`` stamp the run's ``--guard``
    setting.  ``guard_inject`` applies a synthetic numerical fault from
    :data:`GUARD_INJECTIONS` by rewriting the affected task's params.
    """
    if guard_inject is not None and guard_inject not in GUARD_INJECTIONS:
        raise ValueError(
            f"unknown guard injection {guard_inject!r}; "
            f"expected one of {', '.join(GUARD_INJECTIONS)}"
        )
    params = scale_params(key, scale)
    tasks: List[Task] = []

    def add(kind: str, **task_params: Any) -> None:
        tasks.append(
            Task(
                experiment=key,
                scale=scale,
                index=len(tasks),
                kind=kind,
                params=task_params,
                fault_spec=fault_spec,
                fault_seed=fault_seed,
                trace=trace,
                guard_mode=guard_mode,
                guard_cadence=guard_cadence,
            )
        )

    if key == "fig1":
        for fmt in _FIG1_FORMATS:
            for n in params["sizes"]:
                add("fig1_point", fmt=fmt, n=n)
    elif key == "fig2":
        for n in params["sizes"]:
            add("fig2_point", nbytes=n, repetitions=params["repetitions"])
    elif key == "fig3":
        for bench in FIG3_BENCHES:
            for n in params["sizes"]:
                add(
                    "fig3_point",
                    bench=bench,
                    nbytes=n,
                    nranks=params["nranks"],
                    repetitions=params["repetitions"],
                )
    elif key == "fig4":
        add(
            "fig4_field",
            nx=params["nx"], ny=params["ny"], nsteps=params["nsteps"],
            dtype="float64",
        )
        if guard_inject == "overflow16":
            # Synthetic overflow: an oversized scaling pushes the state
            # past Float16's floatmax within the first few steps.
            add(
                "fig4_field",
                nx=params["nx"], ny=params["ny"], nsteps=params["nsteps"],
                dtype="float16", scaling=_OVERFLOW16_SCALING,
                integration="standard",
            )
        else:
            add(
                "fig4_field",
                nx=params["nx"], ny=params["ny"], nsteps=params["nsteps"],
                dtype="float16", scaling=params["scaling"],
                integration="compensated",
            )
        add("fig4_ratio", scaling=params["scaling"])
    elif key == "fig5":
        for nx in params["nxs"]:
            add("fig5_point", nx=nx)
    elif key == "lst1":
        add("lst1_listing")
    else:  # new experiment registered without a decomposition
        raise KeyError(
            f"no task decomposition for experiment {key!r}; "
            f"known: {sorted(SCALES)}"
        )
    return tasks


def execute_task(task: Task) -> Any:
    """Run one task and return its payload (called in pool workers).

    When the task carries a fault spec, the deterministic fault plan is
    activated for the duration of the task — every simulated MPI world
    the figure code builds picks it up.

    Under an active ``repair`` guard, remediable tasks route through the
    :func:`~repro.guard.policy.escalate` rescue ladder: a numerical
    failure re-runs the point with scaling, then compensated
    integration, then promoted to Float32 — all inside this (worker)
    process, so the remediation chain is a pure function of the task
    and identical at any ``--jobs``.
    """
    try:
        fn = _EXECUTORS[task.kind]
    except KeyError:
        if task.kind == "scenario_run":
            # Resolved lazily so pool workers (which import only this
            # module) find it without a tasks <-> scenarios import cycle.
            from ..scenarios.score import run_scenario_task

            fn = _EXECUTORS[task.kind] = run_scenario_task
        else:
            raise KeyError(f"unknown task kind {task.kind!r}") from None

    def call(params: Dict[str, Any]) -> Any:
        if task.fault_spec:
            from ..mpi.faults import active_plan, parse_fault_spec

            plan = parse_fault_spec(task.fault_spec, seed=task.fault_seed)
            with active_plan(plan):
                return fn(**params)
        return fn(**params)

    monitor = get_guard()
    if (
        monitor is None
        or monitor.mode != "repair"
        or task.kind not in REMEDIABLE_KINDS
    ):
        return call(task.params)
    return escalate(task.label, task.params, call, monitor)


def merge_results(key: str, scale: str, payloads: Sequence[Any]) -> Any:
    """Reassemble task payloads into the serial generator's result.

    ``payloads`` must be in :func:`decompose` order (the scheduler
    guarantees deterministic ordering regardless of completion order).
    """
    from ..core import figures

    params = scale_params(key, scale)
    if key == "fig1":
        sizes = params["sizes"]
        points = {
            fmt: list(payloads[i * len(sizes):(i + 1) * len(sizes)])
            for i, fmt in enumerate(_FIG1_FORMATS)
        }
        return figures.assemble_fig1(sizes, list(_FIG1_FORMATS), points)
    if key == "fig2":
        return figures.assemble_fig2(params["sizes"], list(payloads))
    if key == "fig3":
        sizes = params["sizes"]
        points = {
            bench: list(payloads[i * len(sizes):(i + 1) * len(sizes)])
            for i, bench in enumerate(FIG3_BENCHES)
        }
        return figures.assemble_fig3(sizes, params["nranks"], points)
    if key == "fig4":
        z64, z16, ratio = payloads
        return figures.assemble_fig4(z64, z16, ratio)
    if key == "fig5":
        return figures.assemble_fig5(params["nxs"], list(payloads))
    if key == "lst1":
        (listing,) = payloads
        return listing
    raise KeyError(f"no merge rule for experiment {key!r}")
