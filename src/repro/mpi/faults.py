"""Deterministic fault models for the TofuD simulation (resilience layer).

Fugaku-class machines treat link degradation, stragglers and node
failure as routine operating conditions; a reproduction that only ever
sees a pristine network says nothing about how far the Fig. 2/3 curves
drift under them.  :class:`FaultPlan` is a *seeded, pure* fault model:
every decision ("is this link degraded?", "is this message lost?",
"is this rank a straggler?") is a hash of ``(seed, coordinates)``, so

* the same seed reproduces the same faults byte-for-byte, in-process or
  across a process pool (the plan travels as plain data);
* no mutable RNG state leaks between simulations — two engines sharing
  a plan cannot perturb each other.

The plan is consulted at two layers: :class:`~repro.mpi.network.
TofuDNetwork` applies per-link latency/bandwidth multipliers, and the
discrete-event :class:`~repro.mpi.simulator.Engine` applies message
loss (with timeout-based retransmission charged to the virtual clock),
per-rank compute slowdown, and hard rank failure (with receive timeouts
raising :class:`~repro.mpi.simulator.RankFailedError` instead of
hanging).

``parse_fault_spec`` turns CLI strings (``degraded``, ``lossy:0.05``,
``loss_rate=0.02,straggler_fraction=0.25``) into plans, and
``fault_drift_report`` sweeps severities to report how far PingPong and
Allreduce latencies drift from the fault-free baseline.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

__all__ = [
    "FaultPlan",
    "FaultSpecError",
    "FAULT_PRESETS",
    "parse_fault_spec",
    "list_presets",
    "get_active_plan",
    "set_active_plan",
    "active_plan",
    "fault_drift_report",
]


class FaultSpecError(ValueError):
    """A malformed ``--faults`` spec string.

    One consistent, typed error for every way a spec can be wrong —
    empty segments, duplicate keys, unknown presets/parameters, bad
    severities or values — so callers (CLI, scenario specs) can catch
    a single exception type and print its message verbatim.
    """


def _hash01(seed: int, *parts: Any) -> float:
    """Deterministic uniform draw in [0, 1) from (seed, parts).

    A pure function — the whole reproducibility story of the fault
    layer rests on there being no RNG state anywhere.
    """
    h = hashlib.sha256(str(seed).encode())
    for p in parts:
        h.update(b"\0")
        h.update(str(p).encode())
    return int.from_bytes(h.digest()[:8], "big") / 2.0**64


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of every fault the simulation should see.

    All decision methods are pure functions of ``seed`` and their
    arguments; fractions are probabilities in [0, 1], factors are
    multipliers >= 1 applied to the healthy timing.
    """

    seed: int = 0
    #: fraction of node pairs whose link is degraded.
    link_degrade_fraction: float = 0.0
    #: latency multiplier on degraded links.
    degrade_latency_factor: float = 1.0
    #: bandwidth divisor on degraded links (2.0 = half the bandwidth).
    degrade_bandwidth_factor: float = 1.0
    #: probability any single transmission attempt is lost in transit.
    loss_rate: float = 0.0
    #: virtual seconds the transport waits before retransmitting.
    retransmit_timeout: float = 10e-6
    #: attempts before the transport gives up dropping (keeps runs finite).
    max_retransmits: int = 8
    #: fraction of ranks that run slow.
    straggler_fraction: float = 0.0
    #: compute/software-time multiplier for straggler ranks.
    straggler_factor: float = 1.0
    #: explicitly failed ranks (never execute, drop all their traffic).
    failed_ranks: Tuple[int, ...] = ()
    #: additionally fail each rank with this probability.
    failure_fraction: float = 0.0
    #: virtual-clock timeout for blocked receives; ``None`` leaves the
    #: engine's deadlock detection as the only backstop.
    recv_timeout: Optional[float] = None
    #: fraction of ranks cut off from the rest of the world during the
    #: partition window (partition + rejoin: the cut *heals*).
    partition_fraction: float = 0.0
    #: virtual second the network partition opens.
    partition_start: float = 0.0
    #: virtual seconds the partition lasts before the cut heals.
    partition_duration: float = 0.0

    def __post_init__(self) -> None:
        for name in ("link_degrade_fraction", "loss_rate",
                     "straggler_fraction", "failure_fraction",
                     "partition_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        for name in ("degrade_latency_factor", "degrade_bandwidth_factor",
                     "straggler_factor"):
            if getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be >= 1, got "
                                 f"{getattr(self, name)}")
        if self.retransmit_timeout <= 0:
            raise ValueError("retransmit_timeout must be positive")
        if self.max_retransmits < 1:
            raise ValueError("max_retransmits must be >= 1")
        if self.recv_timeout is not None and self.recv_timeout <= 0:
            raise ValueError("recv_timeout must be positive or None")
        if self.partition_start < 0:
            raise ValueError("partition_start must be >= 0")
        if self.partition_duration < 0:
            raise ValueError("partition_duration must be >= 0")
        object.__setattr__(self, "failed_ranks",
                           tuple(sorted(set(self.failed_ranks))))

    # -- decisions (all pure) ---------------------------------------------
    def link_is_degraded(self, node_a: int, node_b: int) -> bool:
        """Whether the (undirected) link between two nodes is degraded."""
        if self.link_degrade_fraction <= 0.0:
            return False
        a, b = (node_a, node_b) if node_a <= node_b else (node_b, node_a)
        return _hash01(self.seed, "link", a, b) < self.link_degrade_fraction

    def link_multipliers(self, node_a: int, node_b: int) -> Tuple[float, float]:
        """(latency multiplier, serialisation multiplier) for a link."""
        if self.link_is_degraded(node_a, node_b):
            return self.degrade_latency_factor, self.degrade_bandwidth_factor
        return 1.0, 1.0

    def is_lost(self, src: int, dst: int, time: float, attempt: int) -> bool:
        """Whether transmission ``attempt`` of a message injected at
        virtual ``time`` is lost."""
        if self.loss_rate <= 0.0:
            return False
        return _hash01(
            self.seed, "loss", src, dst, f"{time:.12e}", attempt
        ) < self.loss_rate

    def is_straggler(self, rank: int) -> bool:
        if self.straggler_fraction <= 0.0:
            return False
        return _hash01(self.seed, "straggler", rank) < self.straggler_fraction

    def compute_factor(self, rank: int) -> float:
        """Multiplier on a rank's local work (compute + MPI software)."""
        return self.straggler_factor if self.is_straggler(rank) else 1.0

    def is_failed(self, rank: int) -> bool:
        if rank in self.failed_ranks:
            return True
        if self.failure_fraction <= 0.0:
            return False
        return _hash01(self.seed, "fail", rank) < self.failure_fraction

    def failed_ranks_in(self, nranks: int) -> List[int]:
        """All failed ranks of an ``nranks``-rank world."""
        return [r for r in range(nranks) if self.is_failed(r)]

    def straggler_ranks_in(self, nranks: int) -> List[int]:
        return [r for r in range(nranks) if self.is_straggler(r)]

    # -- partition + rejoin -----------------------------------------------
    @property
    def partition_active(self) -> bool:
        """Whether this plan ever opens a network partition."""
        return self.partition_fraction > 0.0 and self.partition_duration > 0.0

    def in_partition(self, rank: int) -> bool:
        """Whether a rank sits on the isolated side of the cut."""
        if self.partition_fraction <= 0.0:
            return False
        return _hash01(
            self.seed, "partition", rank
        ) < self.partition_fraction

    def partition_ranks_in(self, nranks: int) -> List[int]:
        """All isolated ranks of an ``nranks``-rank world."""
        if not self.partition_active:
            return []
        return [r for r in range(nranks) if self.in_partition(r)]

    def partition_delay(
        self, src: int, dst: int, time: float
    ) -> Tuple[float, int]:
        """(blocked seconds, lost attempts) for a message injected at
        virtual ``time``.

        A message crossing the cut during the partition window is lost
        on every transmission attempt until the cut heals; the transport
        keeps retrying on its retransmit timeout (a partition is a
        *transient* condition — unlike random loss there is no give-up
        cap, the window itself bounds the charge), so the message lands
        on the first attempt after ``partition_start +
        partition_duration``.  Pure closed-form arithmetic: no loop, no
        state, identical at any ``--jobs``.
        """
        if not self.partition_active:
            return 0.0, 0
        if self.in_partition(src) == self.in_partition(dst):
            return 0.0, 0
        return self.cut_delay(time)

    def cut_delay(self, time: float) -> Tuple[float, int]:
        """:meth:`partition_delay` of a message known to cross the cut
        (callers that cache each rank's side skip the membership hashes)."""
        heal = self.partition_start + self.partition_duration
        if time < self.partition_start or time >= heal:
            return 0.0, 0
        attempts = max(1, math.ceil((heal - time) / self.retransmit_timeout))
        delay = attempts * self.retransmit_timeout
        if time + delay < heal:  # float-roundoff guard on the ceil
            attempts += 1
            delay += self.retransmit_timeout
        return delay, attempts

    @property
    def any_link_faults(self) -> bool:
        return self.link_degrade_fraction > 0.0

    @property
    def any_message_faults(self) -> bool:
        """Whether per-message injection-time faults (loss, partition)
        need consulting — the simulator's retransmit-delay gate."""
        return self.loss_rate > 0.0 or self.partition_active

    def describe(self) -> str:
        """One-line summary of the active fault classes."""
        bits = [f"seed={self.seed}"]
        if self.link_degrade_fraction > 0:
            bits.append(
                f"links:{self.link_degrade_fraction:g}"
                f"(x{self.degrade_latency_factor:g} lat,"
                f" /{self.degrade_bandwidth_factor:g} bw)"
            )
        if self.loss_rate > 0:
            bits.append(f"loss:{self.loss_rate:g}")
        if self.straggler_fraction > 0:
            bits.append(
                f"stragglers:{self.straggler_fraction:g}"
                f"(x{self.straggler_factor:g})"
            )
        if self.failed_ranks or self.failure_fraction > 0:
            failed = ",".join(map(str, self.failed_ranks)) or \
                f"p={self.failure_fraction:g}"
            bits.append(f"failed:{failed}")
        if self.partition_active:
            bits.append(
                f"partition:{self.partition_fraction:g}"
                f"(@{self.partition_start:g}s"
                f" for {self.partition_duration:g}s)"
            )
        return " ".join(bits) if len(bits) > 1 else f"{bits[0]} (no faults)"

    def to_spec(self) -> str:
        """Serialise back to a ``parse_fault_spec`` string.

        Round-trips: ``parse_fault_spec(plan.to_spec(), seed=plan.seed)
        == plan``.  The seed is *not* part of the spec (it travels
        separately, like ``--seed``); a fault-free plan serialises to
        ``"off"``.
        """
        default = FaultPlan(seed=self.seed)
        parts = []
        for f in fields(self):
            if f.name == "seed":
                continue
            value = getattr(self, f.name)
            if value == getattr(default, f.name):
                continue
            if f.name == "failed_ranks":
                parts.append(f"failed_ranks={'+'.join(map(str, value))}")
            elif f.name == "max_retransmits":
                parts.append(f"max_retransmits={value}")
            elif value is None:
                parts.append(f"{f.name}=none")
            else:
                parts.append(f"{f.name}={value!r}")
        return ",".join(parts) if parts else "off"


# ---------------------------------------------------------------------------
# Named severities and spec parsing
# ---------------------------------------------------------------------------
#: preset name -> FaultPlan keyword overrides.  ``off`` parses to None.
FAULT_PRESETS: Dict[str, Dict[str, Any]] = {
    "off": {},
    "degraded": {
        "link_degrade_fraction": 0.25,
        "degrade_latency_factor": 4.0,
        "degrade_bandwidth_factor": 2.0,
    },
    "lossy": {
        "loss_rate": 0.02,
        "retransmit_timeout": 10e-6,
    },
    "straggler": {
        "straggler_fraction": 0.125,
        "straggler_factor": 3.0,
    },
    "failstop": {
        "failure_fraction": 0.05,
        "recv_timeout": 500e-6,
    },
    "partition": {
        "partition_fraction": 0.25,
        "partition_start": 5e-6,
        "partition_duration": 60e-6,
    },
}

#: the knob a ``preset:severity`` suffix overrides.
_PRIMARY_KNOB = {
    "degraded": "link_degrade_fraction",
    "lossy": "loss_rate",
    "straggler": "straggler_fraction",
    "failstop": "failure_fraction",
    "partition": "partition_fraction",
}

_PRESET_SUMMARY = {
    "off": "fault-free baseline (parses to no plan)",
    "degraded": "a fraction of TofuD links run at higher latency and "
                "lower bandwidth",
    "lossy": "transmission attempts are lost and retransmitted on a "
             "timeout charged to the virtual clock",
    "straggler": "a fraction of ranks run their compute and MPI "
                 "software time slower",
    "failstop": "ranks fail at start of run; blocked receives time out "
                "with RankFailedError",
    "partition": "a rank subset is cut off for a window of virtual "
                 "time, then the cut heals and traffic resumes",
}

_FIELD_TYPES = {f.name: f.type for f in fields(FaultPlan)}


def list_presets() -> Dict[str, Dict[str, Any]]:
    """Catalogue of fault presets for ``repro faults --list-presets``.

    Maps preset name to its knob overrides, the knob a ``:severity``
    suffix tunes, a one-line summary, and the plan description the
    preset expands to (``off`` expands to no plan at all).
    """
    doc: Dict[str, Dict[str, Any]] = {}
    for name in sorted(FAULT_PRESETS):
        knobs = FAULT_PRESETS[name]
        doc[name] = {
            "knobs": dict(knobs),
            "severity_knob": _PRIMARY_KNOB.get(name),
            "summary": _PRESET_SUMMARY[name],
            "plan": FaultPlan(**knobs).describe() if knobs else None,
        }
    return doc


def _parse_value(key: str, raw: str) -> Any:
    if key == "failed_ranks":
        return tuple(int(tok) for tok in raw.split("+") if tok)
    if key in ("max_retransmits", "seed"):
        return int(raw)
    if key == "recv_timeout":
        return None if raw in ("none", "off") else float(raw)
    return float(raw)


def parse_fault_spec(spec: Optional[str], seed: int = 0) -> Optional[FaultPlan]:
    """Build a :class:`FaultPlan` from a CLI spec string.

    Grammar (comma-separated)::

        off | <preset>[:severity][,key=value...] | key=value[,key=value...]

    ``severity`` overrides the preset's primary knob (e.g.
    ``lossy:0.1`` = 10% loss); ``failed_ranks`` values join ranks with
    ``+`` (``failed_ranks=0+3``).  Returns None for ``off``/empty.

    Every malformed spec — empty segments from doubled or trailing
    commas, duplicate explicit keys, unknown presets/parameters, bad
    severities or values, out-of-range knobs — raises
    :class:`FaultSpecError` with a message naming the offending piece.
    """
    if spec is None:
        return None
    spec = spec.strip()
    if spec in ("", "off", "none"):
        return None

    def fail(reason: str) -> "FaultSpecError":
        return FaultSpecError(f"bad fault spec {spec!r}: {reason}")

    params: Dict[str, Any] = {}
    explicit: set = set()
    tokens = [t.strip() for t in spec.split(",")]
    for i, token in enumerate(tokens):
        if not token:
            raise fail(
                "empty segment (leading, trailing, or doubled comma)"
            )
        if "=" in token:
            key, _, raw = token.partition("=")
            key = key.strip()
            if key not in _FIELD_TYPES or key == "seed":
                raise fail(
                    f"unknown fault parameter {key!r}; valid: "
                    + ", ".join(sorted(k for k in _FIELD_TYPES if k != "seed"))
                )
            if key in explicit:
                raise fail(f"duplicate fault parameter {key!r}")
            explicit.add(key)
            try:
                params[key] = _parse_value(key, raw.strip())
            except (TypeError, ValueError) as exc:
                raise fail(f"bad value for {key!r}: {raw!r}") from exc
        elif i == 0:
            name, _, severity = token.partition(":")
            if name not in FAULT_PRESETS:
                raise fail(
                    f"unknown fault preset {name!r}; valid: "
                    + ", ".join(sorted(FAULT_PRESETS))
                )
            params.update(FAULT_PRESETS[name])
            if severity:
                knob = _PRIMARY_KNOB.get(name)
                if knob is None:
                    raise fail(
                        f"bad severity {severity!r} for preset {name!r}"
                        " (it has no severity knob)"
                    )
                try:
                    params[knob] = float(severity)
                except ValueError as exc:
                    raise fail(
                        f"bad severity {severity!r} for preset {name!r}"
                    ) from exc
                # A later key=value for the same knob is a duplicate
                # setting, not an override of a preset default.
                explicit.add(knob)
        else:
            raise fail(
                f"token {token!r} must be key=value "
                "(presets only lead the spec)"
            )
    if not params:
        return None
    try:
        return FaultPlan(seed=seed, **params)
    except ValueError as exc:
        if isinstance(exc, FaultSpecError):
            raise
        raise fail(str(exc)) from exc


# ---------------------------------------------------------------------------
# Active-plan plumbing (how `repro run --faults` reaches MPIWorld)
# ---------------------------------------------------------------------------
_ACTIVE: Optional[FaultPlan] = None


def get_active_plan() -> Optional[FaultPlan]:
    """The process-wide fault plan :class:`~repro.mpi.comm.MPIWorld`
    defaults to (None = fault-free)."""
    return _ACTIVE


def set_active_plan(plan: Optional[FaultPlan]) -> None:
    global _ACTIVE
    _ACTIVE = plan


@contextmanager
def active_plan(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Scope a fault plan over a block (restores the previous plan)."""
    previous = get_active_plan()
    set_active_plan(plan)
    try:
        yield plan
    finally:
        set_active_plan(previous)


# ---------------------------------------------------------------------------
# Severity sweep: how far do the Fig. 2/3 curves drift?
# ---------------------------------------------------------------------------
def _safe_ratio(value: Optional[float], base: Optional[float]) -> Optional[float]:
    if value is None or base is None or base <= 0:
        return None
    return value / base


def fault_drift_report(
    seed: int = 0,
    severities: Sequence[str] = ("off", "degraded", "lossy",
                                 "straggler", "failstop", "partition"),
    nranks: int = 16,
    sizes: Sequence[int] = (1024, 65536),
    repetitions: int = 2,
    cancel: Optional[Callable[[], bool]] = None,
) -> Dict[str, Any]:
    """Sweep fault severities; report drift from the fault-free baseline.

    For each severity the report carries the PingPong latency table
    (Fig. 2's benchmark), an ``nranks``-rank Allreduce latency (Fig. 3's
    headline collective), their inflation/slowdown ratios over the
    ``off`` baseline, the failed-rank coverage, and any resilience error
    the run surfaced (:class:`RankFailedError` diagnostics).

    ``cancel`` is polled between severities (the CLI wires it to its
    SIGINT/SIGTERM handler): when it returns True — or a
    ``KeyboardInterrupt`` lands mid-severity — the sweep stops early
    and the partial document carries ``"interrupted": True`` instead of
    raising, so already-measured severities are never thrown away.
    """
    # Imported here: benchsuite -> comm -> simulator -> network -> faults.
    from .benchsuite import AllreduceBench, PingPong
    from .bindings import IMB_C
    from .simulator import DeadlockError, RankFailedError

    names = list(severities)
    if "off" not in names:
        names.insert(0, "off")

    doc: Dict[str, Any] = {
        "seed": seed,
        "nranks": nranks,
        "sizes": list(sizes),
        "repetitions": repetitions,
        "severities": {},
    }
    for name in names:
        if cancel is not None and cancel():
            doc["interrupted"] = True
            break
        plan = parse_fault_spec(name, seed=seed)
        entry: Dict[str, Any] = {
            "spec": name,
            "plan": plan.describe() if plan else "fault-free",
            "failed_ranks": plan.failed_ranks_in(nranks) if plan else [],
            "straggler_ranks": plan.straggler_ranks_in(nranks) if plan else [],
            "pingpong_us": None,
            "allreduce_us": None,
            "error": None,
        }
        try:
            try:
                pp = PingPong(repetitions=repetitions).run(
                    IMB_C, sizes=sizes, faults=plan
                )
                entry["pingpong_us"] = {
                    str(s): lat for s, lat in zip(pp.sizes, pp.latency_us)
                }
            except (RankFailedError, DeadlockError) as exc:
                entry["error"] = f"PingPong: {exc}"
            bench = AllreduceBench(
                nranks=nranks, ranks_per_node=4, shape=None,
                repetitions=repetitions,
            )
            try:
                ar = bench.run(IMB_C, sizes=sizes[-1:], faults=plan)
                entry["allreduce_us"] = ar.latency_us[-1]
            except (RankFailedError, DeadlockError) as exc:
                prev = entry["error"]
                msg = f"Allreduce: {exc}"
                entry["error"] = f"{prev}; {msg}" if prev else msg
        except KeyboardInterrupt:
            # Mid-severity interrupt: drop the half-measured point and
            # return everything finished so far as a partial document.
            doc["interrupted"] = True
            break
        doc["severities"][name] = entry

    base = doc["severities"].get("off") or {
        "pingpong_us": None, "allreduce_us": None,
    }
    base_pp = base["pingpong_us"] or {}
    for entry in doc["severities"].values():
        pp = entry["pingpong_us"] or {}
        ratios = [
            _safe_ratio(pp.get(k), base_pp.get(k))
            for k in base_pp
            if _safe_ratio(pp.get(k), base_pp.get(k)) is not None
        ]
        entry["pingpong_inflation"] = max(ratios) if ratios else None
        entry["allreduce_slowdown"] = _safe_ratio(
            entry["allreduce_us"], base["allreduce_us"]
        )
    return doc
