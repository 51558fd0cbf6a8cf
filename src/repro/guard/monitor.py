"""Guard runtime: config, the active monitor, and ambient plumbing.

Mirrors the active-recorder pattern of :mod:`repro.obs.trace`: a
:class:`GuardMonitor` is installed for the duration of a task via
:func:`guarding`, instrumentation sites fetch it with :func:`get_guard`
(a single ``None`` check when guards are off), and the collected events
serialise to a plain dict that rides along in task results, journal
records, and reports.

Modes
-----
``observe``
    Record sentinels and contract violations; never raise, never change
    any computed value — output stays byte-identical to guards-off.
``strict``
    Additionally raise :class:`GuardViolation` the moment a
    violation-severity event is recorded, failing the task with a
    structured numerical error (distinguishable from a crash).
``repair``
    Like strict inside the computation, but the exec layer catches the
    violation and escalates through the remediation chain
    (:mod:`repro.guard.policy`), annotating the result as degraded.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

from .contracts import Contract, GuardEvent, GuardViolation

if TYPE_CHECKING:
    from .sentinels import FieldHealth

__all__ = [
    "GUARD_MODES",
    "GuardConfig",
    "GuardMonitor",
    "get_guard",
    "guarding",
    "parse_guard_mode",
    "set_guard",
]

#: Accepted ``--guard`` values; ``off`` normalises to no guard at all.
GUARD_MODES = ("off", "observe", "strict", "repair")

#: Cap on recorded events per monitor.  Overflow is counted, not lost
#: silently; the cap keeps guard documents bounded on pathological runs
#: while truncation stays deterministic (events arrive in program order).
DEFAULT_MAX_EVENTS = 256


def parse_guard_mode(spec: Optional[str]) -> Optional[str]:
    """Normalise a ``--guard`` spec; ``None``/``"off"`` mean disabled."""
    if spec is None:
        return None
    mode = spec.strip().lower()
    if mode not in GUARD_MODES:
        raise ValueError(
            f"unknown guard mode {spec!r}; expected one of {', '.join(GUARD_MODES)}"
        )
    return None if mode == "off" else mode


@dataclass(frozen=True)
class GuardConfig:
    """Static guard settings for one run/task."""

    mode: str = "observe"
    #: steps between ShallowWaters sentinel/contract checks.
    cadence: int = 16
    max_events: int = DEFAULT_MAX_EVENTS

    def __post_init__(self) -> None:
        if self.mode not in GUARD_MODES or self.mode == "off":
            raise ValueError(f"bad guard mode for an active config: {self.mode!r}")
        if self.cadence < 1:
            raise ValueError("guard cadence must be >= 1")


class GuardMonitor:
    """Collects guard events for one task and applies mode policy.

    Thread-safe (MPI rank generators and pool workers may interleave);
    everything recorded is deterministic — no wall-clock, no ids.
    """

    def __init__(self, config: GuardConfig):
        self.config = config
        self._lock = threading.Lock()
        self.events: List[GuardEvent] = []
        self.dropped = 0
        self.violations = 0
        #: remediation record set by the policy engine when this task
        #: had to be rescued (mode=repair only).
        self.remediation: Optional[Dict[str, Any]] = None

    @property
    def mode(self) -> str:
        return self.config.mode

    @property
    def cadence(self) -> int:
        return self.config.cadence

    @property
    def escalates(self) -> bool:
        return self.mode in ("strict", "repair")

    # -- recording ---------------------------------------------------------
    def record(self, event: GuardEvent) -> None:
        """Record an event; raise :class:`GuardViolation` when escalating.

        The event is recorded *before* any raise so the guard document
        still shows what tripped when the task fails or is remediated.
        """
        with self._lock:
            if event.severity == "violation":
                self.violations += 1
            if len(self.events) < self.config.max_events:
                self.events.append(event)
            else:
                self.dropped += 1
        self._publish(event)
        if event.severity == "violation" and self.escalates:
            raise GuardViolation(f"[{event.site}] {event.message}", event)

    def _publish(self, event: GuardEvent) -> None:
        """Mirror the event into the active obs trace, if one is on."""
        from ..obs.trace import get_recorder

        rec = get_recorder()
        if rec is None:
            return
        rec.count("guard.events")
        if event.severity == "violation":
            rec.count("guard.violations")
        rec.count(f"guard.site.{event.site}")

    # -- sentinel entry points --------------------------------------------
    def sentinel(
        self, site: str, health: FieldHealth, step: Optional[int] = None
    ) -> FieldHealth:
        """Record the outcome of a sentinel probe.

        NaN/Inf hits are violations (fatal numerics); subnormal load and
        overflow-risk headroom are warnings — advisory signals that never
        abort a run (a healthy scaled Float16 state legitimately sits a
        couple of binades under ``floatmax``).
        """
        if not health.healthy:
            self.record(GuardEvent(
                site=site, kind="sentinel", name="nan_inf",
                severity="violation",
                message=(
                    f"{health.name}: {health.nans} NaN(s), "
                    f"{health.infs} Inf(s) in {health.fmt} field "
                    f"of {health.size} values"
                ),
                step=step, data=health.as_dict(),
            ))
            return health
        if health.overflow_risk:
            self.record(GuardEvent(
                site=site, kind="sentinel", name="overflow_risk",
                severity="warning",
                message=(
                    f"{health.name}: {health.overflow_risk} value(s) within "
                    f"{health.headroom_bits} binade(s) of {health.fmt} "
                    f"floatmax (max |x| = {health.max_abs:.6g})"
                ),
                step=step, data=health.as_dict(),
            ))
        if health.subnormals:
            self.record(GuardEvent(
                site=site, kind="sentinel", name="subnormal_fraction",
                severity="warning",
                message=(
                    f"{health.name}: {health.subnormals}/{health.size} "
                    f"value(s) subnormal in {health.fmt} "
                    f"({100.0 * health.subnormal_fraction:.3f}%)"
                ),
                step=step, data=health.as_dict(),
            ))
        return health

    # -- contract entry point ---------------------------------------------
    def check(
        self,
        site: str,
        contract: Contract,
        value: float,
        reference: Optional[float] = None,
        step: Optional[int] = None,
        **data: Any,
    ) -> bool:
        """Evaluate a contract; record (and possibly raise) on violation.

        Returns ``True`` when the contract holds.
        """
        message = contract.evaluate(value, reference)
        if message is None:
            return True
        payload: Dict[str, Any] = {"value": float(value)}
        if reference is not None:
            payload["reference"] = float(reference)
        payload.update(data)
        self.record(GuardEvent(
            site=site, kind="contract", name=contract.name,
            severity="violation", message=message, step=step, data=payload,
        ))
        return False

    # -- serialisation -----------------------------------------------------
    def as_dict(self) -> Optional[Dict[str, Any]]:
        """Guard document for task results/journals; ``None`` when the
        monitor saw nothing (keeps clean tasks' records unchanged)."""
        with self._lock:
            if not self.events and self.remediation is None:
                return None
            doc: Dict[str, Any] = {
                "mode": self.mode,
                "events": [e.as_dict() for e in self.events],
                "violations": self.violations,
            }
            if self.dropped:
                doc["dropped"] = self.dropped
            if self.remediation is not None:
                doc["remediation"] = self.remediation
            return doc


# ---------------------------------------------------------------------------
# Ambient active monitor (same shape as obs.trace's active recorder).

_active = threading.local()


def get_guard() -> Optional[GuardMonitor]:
    """The monitor guarding the current task, or ``None``."""
    return getattr(_active, "monitor", None)


def set_guard(monitor: Optional[GuardMonitor]) -> Optional[GuardMonitor]:
    """Install ``monitor`` as the active guard; returns the previous one."""
    previous = get_guard()
    _active.monitor = monitor
    return previous


@contextmanager
def guarding(monitor: Optional[GuardMonitor]) -> Iterator[Optional[GuardMonitor]]:
    """Scope ``monitor`` as the active guard for the enclosed block."""
    previous = set_guard(monitor)
    try:
        yield monitor
    finally:
        set_guard(previous)
