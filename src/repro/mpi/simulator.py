"""Deterministic discrete-event MPI simulator.

The substrate for Figs. 2-3.  Every MPI rank is a Python generator that
*yields* communication operations; the engine advances a virtual clock,
routes messages over the :class:`~repro.mpi.network.TofuDNetwork`, and
charges binding software costs from a
:class:`~repro.mpi.bindings.BindingProfile`.  Collective algorithms
(:mod:`repro.mpi.collectives`) are ordinary sub-generators built from
sends/receives, so their latency *emerges* from real message flows —
1536-rank Allreduce really performs ~11 rounds of pairwise exchanges
across the torus.  A payload-free barrier or Allreduce is one
:class:`Collective` op, which the engine expands into that generator.

Semantics (blocking MPI, one outstanding operation per rank):

* ``Send`` — the sender is busy for its endpoint software time; eager
  messages let it continue immediately afterwards, rendezvous blocks it
  until the data has arrived at the receiver (the synchronous large-
  message behaviour of Fujitsu MPI).
* ``Recv`` — completes at ``max(post time, arrival) + endpoint time``.
* ``SendRecv`` — simultaneous exchange (used by the collectives to
  avoid deadlock, like MPI_Sendrecv).
* ``Compute`` — local work (reduction arithmetic, model time).
* ``Now`` — reads the rank's virtual clock (the benchmark timer).
* ``Collective`` — a whole payload-free collective (see its class).

Payloads are real Python/numpy objects, so data correctness is testable;
benchmarks may send ``payload=None`` with an explicit byte count to skip
data handling at 1536-rank scale.

:class:`Engine` runs these semantics in four layers, each exactly
value-preserving:

1. **Timing tables.**  ``wire_time`` (topology hops + protocol choice)
   and ``endpoint_time`` (binding software costs, including the
   memory-hierarchy bounce-buffer copy) are pure functions of
   ``(src, dest, nbytes)`` for a given engine, so both are memoised:
   the cached objects are the exact values a fresh call returns.

2. **Tuple events.**  The heap holds ``(time, seq, kind, a, b)`` tuples
   (kind 0 = resume a rank, 1 = deliver a message, 2 = any other
   closure: timeout probes and the non-blocking ops' resumes and
   completions).  ``seq`` is unique, so events run in exact
   ``(time, seq)`` order and every side effect (trace events, guard
   probes, stats) happens at one fixed point in that order.

3. **Wave commits.**  When every queued event is a rank resume (no
   delivery or closure in flight), the engine pops the whole heap as
   one *wave* and resumes the generators in heap order.  A wave in
   which every active rank yields one equal Collective is committed
   from its compiled table (layer 4).  Otherwise the head of the wave
   that dispatches before any resume it schedules comes due is
   committed in wave order if it has at least eight members, all
   *neutral* ops (Compute / Now / Mark: each touches only its own
   clock and schedules one resume).  The rest of the wave, and any
   wave that cannot commit, is dispatched one by one in exact heap
   order, interleaved with the events those dispatches schedule, so
   point-to-point traffic and heterogeneous phases (tree reductions,
   linear gathers, fold-ins) run event by event.  Waves are attempted
   only in *fast mode* (no faults, no tracing, no guard, no recv
   timeout), so observability hooks see every event one at a time.

4. **Compiled collectives.**  A wave in which every active rank yields
   one equal :class:`Collective` is evaluated from its round table
   (:mod:`repro.mpi.schedules`) as float64 columns and committed up to
   the first member that leaves to run code touching another rank; any
   other Collective is expanded into its generator, op by op.

The resume-before-dispatch move inside a wave is sound because resuming
a rank generator has no engine-visible side effects: the value passed
in was fixed when its completion was committed, and program code only
computes and yields the next op.  The differential tests check every
layer against a reference object core (one closure per event, no
tables, no waves) kept with the test suite.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..guard.contracts import Contract
from ..guard.monitor import get_guard
from ..obs.trace import get_recorder
from .bindings import BindingProfile, IMB_C
from .faults import FaultPlan
from .network import TofuDNetwork

__all__ = [
    "Send",
    "Recv",
    "SendRecv",
    "Isend",
    "Irecv",
    "Wait",
    "Waitall",
    "Compute",
    "Now",
    "Mark",
    "Collective",
    "DeadlockError",
    "RankFailedError",
    "Engine",
    "EngineStats",
    "RankProgram",
]

# Event kinds: resume rank ``a`` with value ``b`` / deliver _Message
# ``b`` to rank ``a`` / run closure ``a``.
_ADV, _DELIVER, _OTHER = 0, 1, 2

#: below this wave size the numpy column setup costs more than it saves.
_MIN_VECTOR_WAVE = 8

#: wire-timing tables shared across engines with the same (hashable,
#: fault-free) network value — figure sweeps rebuild worlds per size and
#: binding, but hop counts and protocol choices depend only on the
#: network.
_WIRE_CACHES: Dict[Any, Dict[Tuple[int, int, int], Any]] = {}

#: the arrival time of a message to a failed rank.
_NEVER = float("inf")

#: Per-rank virtual clocks may stall but never run backwards; a
#: violation means an event handler rewound ``state.time`` — a
#: scheduling bug that would silently corrupt every derived timing.
_CLOCK_CONTRACT = Contract(
    name="rank_clock_monotonic",
    kind="non_decreasing",
    description="per-rank virtual clock must never decrease",
)


# ---------------------------------------------------------------------------
# Operations a rank may yield
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Send:
    dest: int
    nbytes: int
    payload: Any = None
    tag: int = 0


@dataclass(frozen=True)
class Recv:
    source: int
    tag: int = 0


@dataclass(frozen=True)
class SendRecv:
    dest: int
    send_nbytes: int
    source: int
    send_payload: Any = None
    send_tag: int = 0
    recv_tag: int = 0


@dataclass(frozen=True)
class Isend:
    """Non-blocking send: yields a request id immediately; the sender is
    busy only for the local injection (eager copy / rendezvous setup)."""

    dest: int
    nbytes: int
    payload: Any = None
    tag: int = 0


@dataclass(frozen=True)
class Irecv:
    """Non-blocking receive: posts the match and yields a request id."""

    source: int
    tag: int = 0


@dataclass(frozen=True)
class Wait:
    """Block until a request completes; yields the received payload
    (``None`` for send requests)."""

    request: int


@dataclass(frozen=True)
class Waitall:
    """Block until every request completes; yields the list of payloads
    in request order."""

    requests: Tuple[int, ...]


@dataclass(frozen=True)
class Compute:
    seconds: float


@dataclass(frozen=True)
class Now:
    pass


@dataclass(frozen=True)
class Mark:
    """Zero-cost trace annotation: records a virtual-clock phase mark
    (collective phase boundaries, algorithm switches) when tracing is
    on and is a plain no-op otherwise — it never advances the clock, so
    yielding it cannot change any simulated timing."""

    name: str
    info: Any = None


@dataclass(frozen=True)
class Collective:
    """A whole payload-free collective as one op.

    ``kind`` is ``"barrier"`` (dissemination) or ``"allreduce"``
    (recursive doubling); its per-rank message flow is the generator
    :meth:`expand` returns from :mod:`repro.mpi.collectives`.  The
    engine drives that generator in the rank's place (exactly what
    ``yield from`` would do), so every rank still issues the same sends,
    receives and computes; in fast mode the engine may instead evaluate
    a whole wave of equal ``Collective`` ops at once from its round
    table (:mod:`repro.mpi.schedules`).  The rank resumes with ``None``.
    """

    kind: str
    nbytes: int = 0
    root: int = 0
    tag_base: int = 0

    def expand(self, rank: int, size: int) -> Generator:
        """This rank's share of the collective, as today's generator."""
        from . import collectives

        if self.kind == "barrier":
            return collectives.barrier_dissemination(
                rank, size, tag_base=self.tag_base
            )
        if self.kind == "allreduce":
            return collectives.allreduce_recursive_doubling(
                rank, size, self.nbytes, None, tag=self.tag_base
            )
        raise ValueError(f"unknown collective {self.kind!r}")


RankProgram = Callable[..., Generator]


class DeadlockError(RuntimeError):
    """No runnable event but ranks are still blocked."""


class RankFailedError(RuntimeError):
    """A communication partner failed (or a timeout expired waiting on
    it); raised instead of letting the simulation hang in deadlock.

    Carries the observing rank, the peer it was waiting on (if known),
    and the virtual time of detection for post-mortem diagnostics.
    """

    def __init__(
        self,
        message: str,
        rank: Optional[int] = None,
        peer: Optional[int] = None,
        time: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.peer = peer
        self.time = time


@dataclass
class EngineStats:
    """Aggregate traffic statistics of one simulation run.

    Filled by the engine as messages move; useful both for tests (did
    the collective really send p log p messages?) and for communication
    analysis of rank programs.
    """

    messages: int = 0
    bytes_sent: int = 0
    eager_messages: int = 0
    rendezvous_messages: int = 0
    shm_messages: int = 0
    max_hops: int = 0
    #: per-rank counts of messages sent.
    sends_by_rank: Dict[int, int] = field(default_factory=dict)
    #: fault-layer counters: transmissions lost in transit, timeout-based
    #: retransmissions charged to the virtual clock, receive/send
    #: timeouts that fired, and ranks failed at start of run.
    messages_lost: int = 0
    retransmits: int = 0
    timeouts: int = 0
    failed_ranks: int = 0

    def record(self, src: int, nbytes: int, protocol: str, hops: int) -> None:
        self.messages += 1
        self.bytes_sent += nbytes
        if protocol == "eager":
            self.eager_messages += 1
        elif protocol == "rendezvous":
            self.rendezvous_messages += 1
        else:
            self.shm_messages += 1
        self.max_hops = max(self.max_hops, hops)
        self.sends_by_rank[src] = self.sends_by_rank.get(src, 0) + 1


# ---------------------------------------------------------------------------
# Engine internals
# ---------------------------------------------------------------------------
@dataclass
class _Message:
    src: int
    tag: int
    nbytes: int
    payload: Any
    arrival: float
    pipelined: bool = False


@dataclass
class _Request:
    """An outstanding non-blocking operation."""

    req_id: int
    kind: str  # "send" | "recv"
    source: int = -1
    tag: int = 0
    done: bool = False
    done_time: float = 0.0
    payload: Any = None
    nbytes: int = 0
    pipelined: bool = False


@dataclass
class _RankState:
    gen: Generator
    time: float = 0.0
    #: (source, tag) the rank is blocked receiving on, if any.
    waiting: Optional[Tuple[int, int]] = None
    #: completion floor from the send half of a SendRecv.
    recv_floor: float = 0.0
    done: bool = False
    result: Any = None
    #: outstanding non-blocking requests, by id.
    requests: Dict[int, _Request] = field(default_factory=dict)
    #: posted Irecvs awaiting a matching message, in posting order.
    irecv_posted: List[_Request] = field(default_factory=list)
    #: request ids a Wait/Waitall is currently blocked on.
    blocked_on: Optional[Tuple[int, ...]] = None
    #: monotonic request-id source (ids stay unique across completions).
    next_req_id: int = 0
    #: hard-failed rank (never executes; traffic to it is dropped).
    failed: bool = False
    #: bumped every resume; lets timeout events detect stale waits.
    wait_epoch: int = 0
    #: generators suspended under ``gen`` (the program below an expanded
    #: Collective), innermost last; ``gen``'s return value resumes them.
    outer: List[Generator] = field(default_factory=list)


class Engine:
    """Run a set of rank programs to completion over a network model
    (see the module docstring for how)."""

    def __init__(
        self,
        nranks: int,
        network: TofuDNetwork,
        binding: BindingProfile = IMB_C,
        bindings_by_rank: Optional[Dict[int, BindingProfile]] = None,
        faults: Optional[FaultPlan] = None,
        recv_timeout: Optional[float] = None,
    ):
        if nranks < 1:
            raise ValueError("need at least one rank")
        if nranks > network.topology.ranks:
            raise ValueError(
                f"{nranks} ranks exceed topology capacity "
                f"{network.topology.ranks}"
            )
        self.nranks = nranks
        self.network = network
        #: the fault model: explicit argument wins, else whatever plan
        #: the network itself was built with (one plan, two layers).
        self.faults = faults if faults is not None else network.faults
        #: virtual-clock bound on blocked receives/waits; a wait that
        #: outlives it raises RankFailedError instead of deadlocking.
        self.recv_timeout = (
            recv_timeout
            if recv_timeout is not None
            else (self.faults.recv_timeout if self.faults else None)
        )
        self._binding_default = binding
        self._bindings = bindings_by_rank or {}
        self._events: List[tuple] = []
        self._seq = itertools.count()
        self._mailbox: Dict[int, Dict[Tuple[int, int], List[_Message]]] = {
            r: {} for r in range(nranks)
        }
        self._states: List[_RankState] = []
        # Per-rank ingress channel: inter-node message bodies serialise
        # on the destination link, which makes fan-in patterns (linear
        # Gatherv) bandwidth-bound at the root.
        self._ingress_free: List[float] = [0.0] * nranks
        #: per-rank ingress-link busy seconds (serialisation charged to
        #: each destination) — the per-link utilisation the trace reports.
        self._ingress_busy: List[float] = [0.0] * nranks
        self.stats = EngineStats()
        #: recorder captured at construction; every event guard is a
        #: None check, so untraced runs pay (near) nothing.
        self._trace = get_recorder()
        #: guard monitor captured the same way; per-rank clock floors
        #: back the virtual-clock monotonicity contract — simulated time
        #: can stall but never run backwards for a rank.
        self._guard = get_guard()
        self._clock_floor: List[float] = [0.0] * nranks
        #: live (not-done) rank count; lets the loop stop the instant
        #: the last rank finishes instead of draining stale events.
        self._active = 0
        # Per-rank fault decisions are pure hashes of (seed, rank), so
        # each is drawn once per world rather than once per operation.
        plan = self.faults
        self._cpu_factor: Optional[List[float]] = (
            [plan.compute_factor(r) for r in range(nranks)]
            if plan is not None else None
        )
        #: each rank's side of the partition cut (``None`` without one).
        self._isolated: Optional[List[bool]] = (
            [plan.in_partition(r) for r in range(nranks)]
            if plan is not None and plan.partition_active else None
        )
        #: memoised exact timing tables.
        self._wire_cache: Dict[Tuple[int, int, int], Any] = {}
        if self.faults is None:
            try:
                self._wire_cache = _WIRE_CACHES.setdefault(self.network, {})
            except TypeError:
                pass  # unhashable network: keep the private table
        self._ep_cache: Dict[Tuple[int, int, bool], float] = {}
        #: flat rows for fast-mode sends and column fallbacks:
        #: (lat, ser, rdzv, shm, hops, ep_send, ep_recv, protocol).
        self._row_cache: Dict[Tuple[int, int, int], tuple] = {}
        #: counts of non-resume heap events: a wave is attempted only
        #: while both are zero.
        self._n_deliver = 0
        self._n_other = 0
        #: queued mailbox messages / posted irecvs anywhere — vector
        #: commits require both zero (a stale match would win first).
        self._mb_count = 0
        self._n_posted = 0
        #: wave commits need determinism the observability and fault
        #: layers would observe being reordered; they stay scalar.
        self._fast = (
            self.faults is None
            and self.recv_timeout is None
            and self._trace is None
            and self._guard is None
        )
        topo = self.network.topology
        self._rpn = topo.ranks_per_node
        #: dense node-to-node hop counts (None for huge allocations).
        self._hops_mat = topo.hops_matrix()
        #: (shm, base, per_hop) latency floors, which prove a compiled
        #: collective's exits final and order its pops — only trusted on
        #: the stock fault-free model, where any future message s→d
        #: needs at least this much flight time.
        self._lat_floor = (
            (
                self.network.shm_latency,
                self.network.base_latency,
                self.network.per_hop_latency,
            )
            if type(self.network) is TofuDNetwork
            and self.network.faults is None
            else None
        )
        #: the single binding profile when no per-rank overrides exist —
        #: lets the endpoint cache skip the per-call profile lookup.
        self._uniform_prof = None if self._bindings else self._binding_default

    # ------------------------------------------------------------------
    def binding(self, rank: int) -> BindingProfile:
        return self._bindings.get(rank, self._binding_default)

    # -- cached timing tables ------------------------------------------
    def _wire(self, src: int, dest: int, nbytes: int):
        hm = self._hops_mat
        if hm is None:
            key = (src, dest, nbytes)
        else:
            sn, dn = src // self._rpn, dest // self._rpn
            # Link faults act per node pair; a healthy wire's timing
            # depends only on the hop count (-1: same node) and size.
            if self.network.faults is None:
                key = (-1 if sn == dn else int(hm[sn, dn]), nbytes)
            else:
                key = (sn, dn, nbytes)
        w = self._wire_cache.get(key)
        if w is None:
            if hm is None:
                w = self.network.wire_time(src, dest, nbytes)
            else:
                h = int(hm[src // self._rpn, dest // self._rpn])
                w = self.network.wire_time(src, dest, nbytes, hops=h)
            self._wire_cache[key] = w
        return w

    def _ep(self, rank: int, nbytes: int, pipelined: bool) -> float:
        prof = self._uniform_prof
        if prof is None:
            prof = self.binding(rank)
        key = (id(prof), nbytes, pipelined)
        t = self._ep_cache.get(key)
        if t is None:
            t = prof.endpoint_time(nbytes, pipelined=pipelined)
            self._ep_cache[key] = t
        return t

    def _row(self, src: int, dest: int, nbytes: int) -> tuple:
        key = (src, dest, nbytes)
        row = self._row_cache.get(key)
        if row is None:
            w = self._wire(src, dest, nbytes)
            pipelined = w.protocol == "rendezvous"
            row = (
                w.latency_seconds,
                w.serial_seconds,
                pipelined,
                w.protocol == "shm",
                w.hops,
                self._ep(src, nbytes, pipelined),
                self._ep(dest, nbytes, pipelined),
                w.protocol,
            )
            self._row_cache[key] = row
        return row

    # -- tuple event plumbing ------------------------------------------
    def _schedule(self, time: float, fn: Callable[[], None]) -> None:
        self._n_other += 1
        heapq.heappush(self._events, (time, next(self._seq), _OTHER, fn, None))

    def _sched_adv(self, time: float, rank: int, value: Any) -> None:
        heapq.heappush(
            self._events, (time, next(self._seq), _ADV, rank, value)
        )

    def _sched_deliver(self, time: float, dest: int, msg: _Message) -> None:
        self._n_deliver += 1
        heapq.heappush(
            self._events, (time, next(self._seq), _DELIVER, dest, msg)
        )

    def _exec(self, ev: tuple) -> None:
        kind = ev[2]
        if kind == _ADV:
            self._advance(ev[3], ev[4])
        elif kind == _DELIVER:
            self._n_deliver -= 1
            self._deliver(ev[3], ev[4])
        else:
            self._n_other -= 1
            ev[3]()

    # -- fault helpers -----------------------------------------------------
    def _cpu(self, rank: int, seconds: float) -> float:
        """Local work time, inflated for straggler ranks."""
        if self._cpu_factor is not None:
            return seconds * self._cpu_factor[rank]
        return seconds

    def _rank_failed(self, rank: int) -> bool:
        return self._states[rank].failed if self._states else False

    def _retransmit_delay(self, src: int, dest: int, t: float) -> float:
        """Virtual time lost to dropped transmissions before one lands.

        A message crossing an open network partition is blocked (every
        attempt lost, charged to the clock) until the cut heals; random
        loss then applies to the attempt that finally reaches the wire.
        Each lost attempt charges the transport's retransmit timeout;
        random-loss attempts are capped so a run stays finite even at
        loss_rate 1, while a partition is bounded by its own window.
        """
        plan = self.faults
        if plan is None or not plan.any_message_faults:
            return 0.0
        delay = 0.0
        if (self._isolated is not None
                and self._isolated[src] != self._isolated[dest]):
            blocked, lost = plan.cut_delay(t)
            if lost:
                delay += blocked
                self.stats.messages_lost += lost
                self.stats.retransmits += lost
                if self._trace is not None:
                    self._trace.event(
                        "partition", src, t,
                        dest=dest, attempts=lost, seconds=blocked,
                    )
        if plan.loss_rate <= 0.0:
            return delay
        base = t + delay
        loss_delay = 0.0
        attempts = 0
        for attempt in range(plan.max_retransmits):
            if not plan.is_lost(src, dest, base, attempt):
                break
            loss_delay += plan.retransmit_timeout
            attempts += 1
            self.stats.messages_lost += 1
            self.stats.retransmits += 1
        if loss_delay > 0.0 and self._trace is not None:
            self._trace.event(
                "retransmit", src, base,
                dest=dest, attempts=attempts, seconds=loss_delay,
            )
        return delay + loss_delay

    def _arm_timeout(self, rank: int, t: float) -> None:
        """Bound a blocked wait: if the rank is still blocked (same wait
        epoch) when the timeout expires, raise RankFailedError."""
        if self.recv_timeout is None:
            return
        state = self._states[rank]
        epoch = state.wait_epoch
        deadline = t + self.recv_timeout

        def _check() -> None:
            st = self._states[rank]
            if st.done or st.wait_epoch != epoch:
                return
            if st.waiting is None and st.blocked_on is None:
                return  # completion already scheduled, not yet resumed
            self.stats.timeouts += 1
            if self._trace is not None:
                self._trace.event(
                    "timeout", rank, deadline,
                    timeout=self.recv_timeout,
                )
            what = st.waiting if st.waiting is not None else st.blocked_on
            peer: Optional[int] = None
            if st.waiting is not None:
                peer = st.waiting[0]
            hint = ""
            if peer is not None and 0 <= peer < self.nranks and \
                    self._rank_failed(peer):
                hint = f"; rank {peer} has failed"
            raise RankFailedError(
                f"rank {rank} timed out after {self.recv_timeout:g}s "
                f"waiting on {what} at t={deadline:.3e}{hint}",
                rank=rank, peer=peer, time=deadline,
            )

        self._schedule(deadline, _check)

    # ------------------------------------------------------------------
    def run(self, program: RankProgram, *args: Any) -> List[Any]:
        """Instantiate ``program(rank, nranks, *args)`` per rank and run.

        Returns the list of per-rank return values.
        """
        self._states = [
            _RankState(gen=program(r, self.nranks, *args))
            for r in range(self.nranks)
        ]
        for r in range(self.nranks):
            if self.faults is not None and self.faults.is_failed(r):
                # Fail-stop: the rank never executes; its result stays
                # None and every message to it is dropped on the floor.
                self._states[r].failed = True
                self._states[r].done = True
                self.stats.failed_ranks += 1
                if self._trace is not None:
                    self._trace.event("rank_failed", r, 0.0)
            else:
                self._active += 1
                self._sched_adv(0.0, r, None)
        if self.nranks and self.stats.failed_ranks == self.nranks:
            raise RankFailedError(
                f"all {self.nranks} ranks failed before start", time=0.0
            )
        self._loop()
        if self._trace is not None:
            self._publish_metrics()
        return [s.result for s in self._states]

    def _publish_metrics(self) -> None:
        """Absorb this world's :class:`EngineStats` (and the per-rank
        ingress-link utilisation) into the recorder's metrics.
        Counters add across worlds, so a whole sweep aggregates."""
        rec = self._trace
        s = self.stats
        rec.count("mpi.messages", s.messages)
        rec.count("mpi.bytes_sent", s.bytes_sent)
        rec.count("mpi.messages.eager", s.eager_messages)
        rec.count("mpi.messages.rendezvous", s.rendezvous_messages)
        rec.count("mpi.messages.shm", s.shm_messages)
        rec.count("mpi.messages.lost", s.messages_lost)
        rec.count("mpi.retransmits", s.retransmits)
        rec.count("mpi.timeouts", s.timeouts)
        rec.count("mpi.failed_ranks", s.failed_ranks)
        busy = [b for b in self._ingress_busy if b > 0.0]
        for b in busy:
            rec.observe("mpi.ingress_busy_seconds", b)
        if busy:
            rec.count("mpi.ingress_busy_seconds.total", sum(busy))

    def _loop(self) -> None:
        heap = self._events
        pop = heapq.heappop
        fast = self._fast
        while heap:
            if self._active == 0:
                # Every rank is done: whatever remains (stale timeout
                # probes, in-flight deliveries) can no longer change any
                # observable state, so stop instead of scanning the full
                # heap — at 10k+ ranks that drain dominated teardown.
                break
            if (
                fast
                and self._n_other == 0
                and self._n_deliver == 0
                and len(heap) > 1
            ):
                self._wave()
                continue
            ev = pop(heap)
            kind = ev[2]
            if kind == _ADV:
                self._advance(ev[3], ev[4])
            elif kind == _DELIVER:
                self._n_deliver -= 1
                self._deliver(ev[3], ev[4])
            else:
                self._n_other -= 1
                ev[3]()
        self._check_deadlock()

    def _check_deadlock(self) -> None:
        """Report the first eight blocked ranks if any rank never finished."""
        blocked = [i for i, s in enumerate(self._states) if not s.done]
        if blocked:
            details = []
            for i in blocked[:8]:
                st = self._states[i]
                what = st.waiting if st.waiting else st.blocked_on
                details.append(f"rank {i} waiting on {what}")
            raise DeadlockError("; ".join(details))

    # -- wave machinery -------------------------------------------------
    def _wave(self) -> None:
        """Pop the heap, which holds only rank resumes, as one wave.

        The generators are resumed in heap order.  If every active rank
        yields one equal Collective, the wave commits from its compiled
        table; any other Collective is expanded into its generator.
        Then, once a neutral member's resume comes due, the scalar order
        runs that rank on before any later member dispatches, so only
        the members before that point (the head) may commit: all
        neutral, and at least :data:`_MIN_VECTOR_WAVE` of them.  What is
        not committed is dispatched by :meth:`_drain_scalar`.
        """
        heap = self._events
        wave = sorted(heap)
        del heap[:]
        resume = self._resume
        ops = [resume(ev[3], ev[4], False) for ev in wave]
        if Collective in {op.__class__ for op in ops}:
            if self._commit_collective(wave, ops):
                return
            for i, op in enumerate(ops):
                if op.__class__ is Collective:
                    self._enter(wave[i][3], op)
                    ops[i] = resume(wave[i][3], None)
        cut = len(wave)
        due = float("inf")
        cpu = self._cpu
        for i, ev in enumerate(wave):
            op = ops[i]
            if op is None:
                continue
            if ev[0] > due:
                cut = i
                break
            cls = op.__class__
            if cls is Compute and op.seconds >= 0:
                due = min(due, ev[0] + cpu(ev[3], op.seconds))
            elif cls is Now or cls is Mark:
                due = min(due, ev[0])
            else:
                cut = 0  # the scalar path dispatches (or raises) it
                break
        if cut >= _MIN_VECTOR_WAVE:
            self._commit_neutral_wave(wave[:cut], ops)
            wave, ops = wave[cut:], ops[cut:]
        self._drain_scalar(wave, ops)

    def _commit_collective(self, wave: List[tuple], ops: List[Any]) -> bool:
        """Commit a wave in which every active rank yields one equal
        :class:`Collective`, evaluating its round table as columns.

        The wave holds every pending event (no deliveries, mailboxed
        messages or posted irecvs anywhere), so until the first member
        leaves the collective the event loop would run nothing but the
        collective's own events, which
        :func:`~repro.mpi.schedules.evaluate` evaluates and orders.  If
        every message is sent before the first member leaves, every
        member's exit time is final whatever runs next, so each rank's
        program is resumed ahead through Now / Mark / Compute to its
        next op.  When all of them reach one equal Collective again
        after the same local ops, the tables are chained and evaluated
        as one, and so on.  :meth:`_apply` commits the result; ops
        resumed ahead are replayed at their own events.  Returns False
        with no state changed when the first table cannot be proven
        exact (the caller then expands the op).
        """
        op = ops[0]
        n = self.nranks
        if (
            len(wave) < _MIN_VECTOR_WAVE
            or len(wave) != self._active
            or self._mb_count
            or self._n_posted
            or not all(o == op for o in ops)
        ):
            return False
        from . import schedules as sc

        sched = sc.schedule_for(op, n)
        if sched is None:
            return False
        entry = [st.time for st in self._states]
        order = np.empty(n, dtype=np.int64)
        order[[ev[3] for ev in wave]] = np.arange(len(wave))
        plan = sc.evaluate(sched, entry, order, self._columns,
                           self._ingress_free)
        if plan is None:
            return False
        parts = [sched]
        prefixes: List[List[Any]] = []
        ahead = None
        while self._settled(plan):
            exits = plan.t[plan.sched.exits].tolist()
            ahead = [self._look_ahead(r, exits[r]) for r in range(n)]
            prefix, nxt = ahead[0][:2]
            last, plan = plan.sched, None  # rebuilt if no chain holds
            if nxt.__class__ is not Collective or any(
                a[1] != nxt or a[0] != prefix for a in ahead
            ):
                break
            seg = sc.schedule_for(nxt, n)
            if seg is None:
                break
            try:
                chained = sc.Schedule.chain(parts + [seg], prefixes + [prefix])
            except ValueError:
                break
            plan = sc.evaluate(chained, entry, order, self._columns,
                               self._ingress_free)
            if plan is None:
                break
            parts.append(seg)
            prefixes.append(prefix)
            ahead = None
        if plan is None:
            plan = sc.evaluate(last, entry, order, self._columns,
                               self._ingress_free)
        self._apply(plan, wave, ahead)
        return True

    def _settled(self, plan: SimpleNamespace) -> bool:
        """Whether every exit time of ``plan`` is final whatever the
        ranks do next: all its messages are sent before the first exit,
        and none landing after it could be overtaken by a later message
        from the same sender (which lands at least a wire latency after
        that sender leaves)."""
        s = plan.sched
        leave = plan.t[s.exits].min()
        if not (plan.t[s.m_ev] < leave).all():
            return False
        late = np.flatnonzero(plan.arr >= leave)
        if not len(late):
            return True
        if self._lat_floor is None:
            return False
        floor = min(self._lat_floor[0], self._lat_floor[1])
        return bool(
            (plan.arr[late] < plan.t[s.exits[s.m_src[late]]] + floor).all()
        )

    def _look_ahead(self, rank: int, t: float) -> tuple:
        """Resume a rank that leaves a collective at ``t`` through its
        local ops: ``(local ops, next op or None, result when done)``."""
        seen: List[Any] = []
        value = None
        while True:
            try:
                op = self._next(rank, value, expand=False)
            except StopIteration as stop:
                return seen, None, stop.value
            cls = op.__class__
            if cls is Now:
                value = t
            elif cls is Mark or cls is Compute and op.seconds >= 0:
                if cls is Compute:
                    t = t + op.seconds
                value = None
            else:
                return seen, op, None
            seen.append(op)

    def _apply(self, plan: SimpleNamespace, wave: List[tuple],
               ahead: Optional[List[tuple]]) -> None:
        """Commit what ``plan`` pops before the first member leaves to
        run code that could touch another rank (see
        :meth:`_commit_collective`); ``ahead`` holds each rank's ops
        resumed ahead, if any.

        Without ``ahead``, members are resumed ahead in the order they
        leave for as long as each one only runs local ops and returns:
        such a member touches nothing, so the next one's exit time is
        still final.  (By time is enough: a member's exit depends only
        on sends made strictly earlier, as every wire takes time.)
        Members that return are committed as finished; the cut is the
        first exit, in pop order, of a member that does not, and with
        none there is nothing left to order.
        """
        from . import schedules as sc

        sched = plan.sched
        t, arr, sdone, creator, idx = (
            plan.t, plan.arr, plan.sdone, plan.creator, plan.idx,
        )
        rank = plan.rank
        exits = sched.exits
        if rank is None and self._lat_floor is None:
            rank = sc.pop_order(np.concatenate((t, arr)), creator, idx)
        if ahead is None:
            ahead = [None] * self.nranks
            by = t[exits] if rank is None else rank[exits]
            for r in np.argsort(by, kind="stable").tolist():
                ahead[r] = self._look_ahead(r, float(t[exits[r]]))
                if ahead[r][1] is not None:
                    break
        stay = [r for r, a in enumerate(ahead) if a is None or a[1] is not None]
        if not stay:
            done = np.ones(sched.n_ev + sched.n_msg, dtype=bool)
        else:
            if rank is None:
                rank = sc.pop_order(np.concatenate((t, arr)), creator, idx)
            done = rank < rank[exits[stay]].min()
        ser, rdzv, shm, hops = plan.cols
        states = self._states
        n_ev = sched.n_ev
        first, inm, out, m_ev, m_dst = (
            sched.first, sched.inm, sched.out, sched.m_ev, sched.m_dst,
        )
        ev_done = done[:n_ev]
        msg_done = done[n_ev:]
        sent = ev_done[m_ev]

        n_sent = int(sent.sum())
        s = self.stats
        if n_sent:
            s.messages += n_sent
            s.bytes_sent += int(sched.nbytes()[sent].sum())
            n_shm = int((shm & sent).sum())
            n_rdzv = int((rdzv & sent).sum())
            s.shm_messages += n_shm
            s.rendezvous_messages += n_rdzv
            s.eager_messages += n_sent - n_shm - n_rdzv
            s.max_hops = max(s.max_hops, int(hops[sent].max()))
            sends = s.sends_by_rank
            per_rank = np.bincount(sched.m_src[sent], minlength=self.nranks)
            for r in np.flatnonzero(per_rank).tolist():
                sends[r] = sends.get(r, 0) + int(per_rank[r])
            link = plan.ing[sent[plan.ing]]
            if len(link):
                d = m_dst[link]
                last = np.r_[d[1:] != d[:-1], True]
                ingress_free = self._ingress_free
                for dst, a in zip(d[last].tolist(), arr[link[last]].tolist()):
                    ingress_free[dst] = a
                busy = np.array(self._ingress_busy)
                np.add.at(busy, d, ser[link])
                self._ingress_busy[:] = busy.tolist()

        # Events created but not yet popped go on the heap in creation
        # order; an entry that has not popped keeps its own key.
        nxt = first + np.add.reduceat(ev_done.astype(np.int32), first)
        left = nxt > exits  # members that have returned
        nxt[left] = exits[left]
        made = np.where(left, -1, creator[nxt])
        ready = np.where(made >= 0, done[np.maximum(made, 0)], True)
        flying = np.flatnonzero(~msg_done & sent)
        new = np.concatenate((nxt[(made >= 0) & ready], n_ev + flying))
        if len(new):
            new = new[np.lexsort((idx[new], rank[creator[new]]))]
        heap = self._events
        seq = self._seq

        def message(m: int) -> _Message:
            return _Message(src=int(sched.m_src[m]), tag=int(sched.m_tag[m]),
                            nbytes=sched.msg_size(m), payload=None,
                            arrival=float(arr[m]), pipelined=bool(rdzv[m]))

        for e in new.tolist():
            if e < n_ev:
                heap.append((float(t[e]), next(seq), _ADV,
                             int(sched.rank_of(e)), None))
            else:
                m = e - n_ev
                heap.append((float(arr[m]), next(seq), _DELIVER,
                             int(m_dst[m]), message(m)))
        self._n_deliver += len(flying)
        for ev in wave:
            r = ev[3]
            if nxt[r] == first[r] and not left[r]:
                heap.append((ev[0], ev[1], _ADV, r, None))
        heapq.heapify(heap)
        # Messages that landed before their receive was posted.
        for m in np.flatnonzero(msg_done & ~done[sched.m_rcv]).tolist():
            self._mb_count += 1
            msg = message(m)
            self._mailbox[int(m_dst[m])].setdefault(
                (msg.src, msg.tag), []
            ).append(msg)
        # Each rank keeps what it has not dispatched yet: the rest of the
        # table, then any ops resumed ahead, as a replay over the program.
        for r, (e, ok, gone) in enumerate(
            zip(nxt.tolist(), ready.tolist(), left.tolist())
        ):
            st = states[r]
            if gone:
                seen, _, result = ahead[r]
                st.time = float(t[e]) + sum(
                    op.seconds for op in seen if op.__class__ is Compute
                )
                st.done = True
                st.result = result
                self._active -= 1
                continue
            if ok:
                st.time = float(t[e])
            else:
                p = e - 1
                m = int(inm[p])
                st.waiting = (int(sched.m_src[m]), int(sched.m_tag[m]))
                st.time = float(t[p])
                st.recv_floor = (
                    max(float(sdone[out[p]]), st.time)
                    if sched.kind[p] == sc.SENDRECV else st.time
                )
            j = e - int(first[r])
            if ahead[r] is None:
                if e < exits[r]:
                    st.outer.append(st.gen)
                    st.gen = sched.replay(r, j)
                continue
            seen, op, result = ahead[r]
            if op is None:  # the program has returned
                st.gen = sched.replay(r, j, seen, result)
            else:
                st.outer.append(st.gen)
                st.gen = sched.replay(r, j, seen + [op])

    def _columns(self, srcs: np.ndarray, dests: np.ndarray, nb) -> tuple:
        """``(lat, ser, rdzv, shm, hops, ep_send, ep_recv)`` columns of
        messages of ``nb`` bytes (one size, or one per message).  For
        one size on the stock network model the wire and endpoint
        formulas run as columns, in the scalar chain's order of float
        operations (so the floats are identical); otherwise they come
        from the cached rows."""
        net = self.network
        hm = self._hops_mat
        if not len(srcs):
            f, b = np.zeros(0), np.zeros(0, dtype=bool)
            return f, f, b, b, np.zeros(0, dtype=np.int64), f, f
        sizes = np.broadcast_to(nb, srcs.shape)
        nb = int(sizes[0])
        if (hm is None or type(net) is not TofuDNetwork
                or net.faults is not None or (sizes != nb).any()):
            rows = [self._row(a, b, c) for a, b, c in
                    zip(srcs.tolist(), dests.tolist(), sizes.tolist())]
            return tuple(np.array([rw[k] for rw in rows]) for k in range(7))
        ns = srcs // self._rpn
        nd = dests // self._rpn
        shm = ns == nd
        hops = np.where(shm, 0, hm[ns, nd])
        rdzv_b = nb > net.eager_threshold
        lat = net.base_latency + hops * float(net.per_hop_latency)
        if rdzv_b:
            lat = lat + net.rendezvous_overhead
        lat = np.where(shm, net.shm_latency, lat)
        ser = np.where(shm, nb / net.shm_bandwidth, nb / net.link_bandwidth)
        # shm messages never pipeline, mirroring _row's protocol test.
        rdzv = ~shm if rdzv_b else np.zeros(len(srcs), dtype=bool)
        return (lat, ser, rdzv, shm, hops,
                self._ep_column(srcs, nb, rdzv),
                self._ep_column(dests, nb, rdzv))

    def _ep_column(self, ranks: np.ndarray, nb: int, rdzv: np.ndarray):
        """Endpoint times of ``ranks`` for ``nb``-byte messages."""
        if self._uniform_prof is not None:
            eager = np.full(len(ranks), self._ep(0, nb, False))
            return np.where(rdzv, self._ep(0, nb, True), eager) \
                if rdzv.any() else eager
        ep = self._ep
        everyone = range(self.nranks)
        eager = np.array([ep(r, nb, False) for r in everyone])[ranks]
        if not rdzv.any():
            return eager
        piped = np.array([ep(r, nb, True) for r in everyone])[ranks]
        return np.where(rdzv, piped, eager)

    def _commit_neutral_wave(self, wave: List[tuple], ops: List[Any]) -> None:
        """Commit a wave of neutral members (Compute / Now / Mark;
        finished ranks have none): their resumes in wave order."""
        heap = self._events
        seq = self._seq
        states = self._states
        cpu = self._cpu
        for ev, op in zip(wave, ops):
            if op is None:
                continue
            t, r = ev[0], ev[3]
            cls = op.__class__
            d = t + cpu(r, op.seconds) if cls is Compute else t
            states[r].time = d
            heap.append((d, next(seq), _ADV, r, t if cls is Now else None))
        heapq.heapify(heap)

    def _drain_scalar(self, wave: List[tuple], ops: List[Any]) -> None:
        """Dispatch an already-resumed wave in exact heap order,
        interleaving any events the dispatches schedule."""
        heap = self._events
        pop = heapq.heappop
        i = 0
        m = len(wave)
        while i < m:
            ev = wave[i]
            if heap and heap[0] < ev:
                self._exec(pop(heap))
                continue
            op = ops[i]
            i += 1
            if op is not None:
                self._dispatch(ev[3], op)

    # ------------------------------------------------------------------
    def _advance(self, rank: int, value: Any) -> None:
        """Resume a rank's generator with ``value`` and act on its yield."""
        state = self._states[rank]
        state.wait_epoch += 1
        if self._guard is not None:
            self._guard.check(
                "mpi.clock", _CLOCK_CONTRACT, state.time,
                reference=self._clock_floor[rank], rank=rank,
            )
            if state.time > self._clock_floor[rank]:
                self._clock_floor[rank] = state.time
        op = self._resume(rank, value)
        if op is not None:
            self._dispatch(rank, op)

    def _resume(self, rank: int, value: Any, expand: bool = True) -> Any:
        """Send ``value`` into a rank's program and return the op it yields
        next, or None once it has finished (see :meth:`_next`)."""
        state = self._states[rank]
        try:
            op = state.gen.send(value)
            if op.__class__ is Collective and expand:
                self._enter(rank, op)
                op = self._next(rank, None)
            return op
        except StopIteration as stop:
            if state.outer:
                state.gen = state.outer.pop()
                return self._resume(rank, stop.value, expand)
            state.done = True
            state.result = stop.value
            self._active -= 1
            return None

    def _next(self, rank: int, value: Any, expand: bool = True) -> Any:
        """The op a rank's program yields when resumed with ``value``;
        StopIteration once the program returns.

        A :class:`Collective` is expanded in place (:meth:`_enter`): its
        per-rank generator runs on top of the program until it returns,
        whose value resumes the program in the same step, exactly as
        ``yield from`` would.  ``expand=False`` hands the op back
        instead.
        """
        state = self._states[rank]
        while True:
            try:
                op = state.gen.send(value)
            except StopIteration as stop:
                if not state.outer:
                    raise
                state.gen = state.outer.pop()
                value = stop.value
                continue
            if op.__class__ is not Collective or not expand:
                return op
            self._enter(rank, op)
            value = None

    def _enter(self, rank: int, op: "Collective") -> None:
        """Run ``op``'s per-rank generator on top of the rank's program."""
        state = self._states[rank]
        state.outer.append(state.gen)
        state.gen = op.expand(rank, self.nranks)

    def _dispatch(self, rank: int, op: Any) -> None:
        state = self._states[rank]
        t = state.time
        cls = op.__class__
        if cls is SendRecv:
            send_done = self._do_send(
                rank, t, op.dest, op.send_tag, op.send_nbytes, op.send_payload
            )
            if send_done is None:
                state.waiting = (op.dest, op.send_tag)
                self._arm_timeout(rank, t)
                return
            self._post_recv(rank, op.source, op.recv_tag, floor=send_done)
        elif cls is Send:
            resume_at = self._do_send(
                rank, t, op.dest, op.tag, op.nbytes, op.payload
            )
            if resume_at is None:
                # Rendezvous send to a failed rank: the sender blocks on
                # a pull that never comes (timeout/deadlock take over).
                state.waiting = (op.dest, op.tag)
                self._arm_timeout(rank, t)
                return
            state.time = resume_at
            self._sched_adv(resume_at, rank, None)
        elif cls is Recv:
            self._post_recv(rank, op.source, op.tag, floor=t)
        elif cls is Compute:
            if op.seconds < 0:
                raise ValueError("negative compute time")
            seconds = self._cpu(rank, op.seconds)
            if self._trace is not None and seconds > 0.0:
                self._trace.event("compute", rank, t, seconds=seconds)
            state.time = t + seconds
            self._sched_adv(state.time, rank, None)
        elif cls is Now:
            self._sched_adv(t, rank, t)
        elif cls is Mark:
            if self._trace is not None:
                if op.info is None:
                    self._trace.event("mark", rank, t, label=op.name)
                else:
                    self._trace.event(
                        "mark", rank, t, label=op.name, info=op.info
                    )
            self._sched_adv(t, rank, None)
        elif cls is Isend:
            # Unlike a blocking send, a rendezvous Isend does not stall
            # the sender: the buffer stays in flight until Wait.
            req = self._new_request(rank, "send")
            free_at, arrival, _ = self._inject(
                rank, t, op.dest, op.tag, op.nbytes, op.payload
            )
            state.time = free_at

            def _complete_send(rank=rank, req=req, arrival=arrival):
                req.done = True
                req.done_time = arrival
                self._wake_if_ready(rank)

            if arrival != _NEVER:  # a Wait on it hits the timeout instead
                self._schedule(arrival, _complete_send)
            self._schedule(free_at, lambda: self._advance(rank, req.req_id))
        elif cls is Irecv:
            if not (0 <= op.source < self.nranks):
                raise ValueError(f"irecv from invalid rank {op.source}")
            req = self._new_request(rank, "recv", source=op.source, tag=op.tag)
            key = (op.source, op.tag)
            queue = self._mailbox[rank].get(key)
            if queue:
                self._mb_count -= 1
                msg = queue.pop(0)
                if not queue:
                    del self._mailbox[rank][key]
                self._fill_recv_request(req, msg)
            else:
                state.irecv_posted.append(req)
                self._n_posted += 1
            post_done = t + self._cpu(rank, self.binding(rank).per_call_overhead)
            state.time = post_done
            self._schedule(post_done, lambda: self._advance(rank, req.req_id))
        elif cls is Wait or cls is Waitall:
            ids = (op.request,) if cls is Wait else tuple(op.requests)
            for rid in ids:
                if rid not in state.requests:
                    raise ValueError(f"unknown request id {rid}")
            state.blocked_on = ids
            self._wake_if_ready(rank)
            if state.blocked_on is not None:
                self._arm_timeout(rank, t)
        else:
            raise TypeError(f"rank {rank} yielded unknown op {op!r}")

    # -- non-blocking plumbing ---------------------------------------------
    def _new_request(
        self, rank: int, kind: str, source: int = -1, tag: int = 0
    ) -> _Request:
        state = self._states[rank]
        req = _Request(
            req_id=state.next_req_id, kind=kind, source=source, tag=tag
        )
        state.next_req_id += 1
        state.requests[req.req_id] = req
        return req

    def _fill_recv_request(self, req: _Request, msg: _Message) -> None:
        req.done = True
        req.done_time = msg.arrival
        req.payload = msg.payload
        req.nbytes = msg.nbytes
        req.pipelined = msg.pipelined

    def _wake_if_ready(self, rank: int) -> None:
        """Resume a rank blocked in Wait/Waitall once all requests are done."""
        state = self._states[rank]
        if state.blocked_on is None:
            return
        reqs = [state.requests[rid] for rid in state.blocked_on]
        if not all(r.done for r in reqs):
            return
        ids = state.blocked_on
        state.blocked_on = None
        prof = self.binding(rank)
        t = state.time
        payloads = []
        for r in reqs:
            t = max(t, r.done_time)
            if r.kind == "recv":
                # copy-out happens at completion time, serially on the CPU
                t += self._cpu(
                    rank, prof.endpoint_time(r.nbytes, pipelined=r.pipelined)
                )
            payloads.append(r.payload if r.kind == "recv" else None)
        state.time = t
        for rid in ids:
            del state.requests[rid]
        value = payloads[0] if len(ids) == 1 else payloads
        self._schedule(t, lambda: self._advance(rank, value))

    # ------------------------------------------------------------------
    def _do_send(
        self, src: int, t: float, dest: int, tag: int, nbytes: int, payload: Any
    ) -> Optional[float]:
        """Inject a blocking send; returns the time the sender becomes
        free: after injection when eager, once the receiver has the data
        when rendezvous (the sender's buffer is in flight until then).

        Returns None when the sender blocks forever (rendezvous send to
        a failed rank) — the caller parks the rank for the timeout (or
        deadlock) machinery to reap.
        """
        if self._fast:
            # No faults, no trace: the retransmit/straggler/failed-rank
            # terms are all identities, so the cached row is the whole
            # timing model — same float chain, fewer calls.
            row = self._row_cache.get((src, dest, nbytes))
            if row is None:
                if not (0 <= dest < self.nranks):
                    raise ValueError(f"send to invalid rank {dest}")
                if dest == src:
                    raise ValueError(
                        "self-sends are not supported (use local state)"
                    )
                row = self._row(src, dest, nbytes)
            lat, ser, rdzv, shm, hops, eps, _epr, protocol = row
            inject_done = t + eps
            head = inject_done + lat
            if shm:
                arrival = head + ser
            else:
                free = self._ingress_free[dest]
                arrival = (free if free > head else head) + ser
                self._ingress_free[dest] = arrival
                self._ingress_busy[dest] += ser
            self.stats.record(src, nbytes, protocol, hops)
            self._sched_deliver(
                arrival,
                dest,
                _Message(
                    src=src,
                    tag=tag,
                    nbytes=nbytes,
                    payload=payload,
                    arrival=arrival,
                    pipelined=rdzv,
                ),
            )
            return arrival if rdzv else inject_done
        inject_done, arrival, pipelined = self._inject(
            src, t, dest, tag, nbytes, payload
        )
        if not pipelined:
            return inject_done
        return None if arrival == _NEVER else arrival

    def _inject(
        self, src: int, t: float, dest: int, tag: int, nbytes: int, payload: Any
    ) -> Tuple[float, float, bool]:
        """Put one message on the wire with every fault and trace hook:
        ``(injection done, arrival, rendezvous)``.

        Traffic to a failed rank vanishes: its arrival is ``_NEVER``.
        """
        if not (0 <= dest < self.nranks):
            raise ValueError(f"send to invalid rank {dest}")
        if dest == src:
            raise ValueError("self-sends are not supported (use local state)")
        wire = self._wire(src, dest, nbytes)
        pipelined = wire.protocol == "rendezvous"
        t += self._retransmit_delay(src, dest, t)
        inject_done = t + self._cpu(src, self._ep(src, nbytes, pipelined))
        if self._rank_failed(dest):
            self.stats.messages_lost += 1
            if self._trace is not None:
                self._trace.event(
                    "send", src, t, dest=dest, nbytes=nbytes,
                    protocol=wire.protocol, lost=True,
                )
            return inject_done, _NEVER, pipelined
        head_at_dest = inject_done + wire.latency_seconds
        if wire.protocol == "shm":
            arrival = head_at_dest + wire.serial_seconds
        else:
            start_ingest = max(head_at_dest, self._ingress_free[dest])
            arrival = start_ingest + wire.serial_seconds
            self._ingress_free[dest] = arrival
            self._ingress_busy[dest] += wire.serial_seconds
        msg = _Message(
            src=src,
            tag=tag,
            nbytes=nbytes,
            payload=payload,
            arrival=arrival,
            pipelined=pipelined,
        )
        self.stats.record(src, nbytes, wire.protocol, wire.hops)
        if self._trace is not None:
            self._trace.event(
                "send", src, t, dest=dest, nbytes=nbytes,
                protocol=wire.protocol, hops=wire.hops, arrival=arrival,
            )
        self._sched_deliver(arrival, dest, msg)
        return inject_done, arrival, pipelined

    def _deliver(self, dest: int, msg: _Message) -> None:
        state = self._states[dest]
        key = (msg.src, msg.tag)
        # Posted non-blocking receives match first, in posting order.
        if state.irecv_posted:
            for i, req in enumerate(state.irecv_posted):
                if (req.source, req.tag) == key:
                    state.irecv_posted.pop(i)
                    self._n_posted -= 1
                    self._fill_recv_request(req, msg)
                    self._wake_if_ready(dest)
                    return
        if state.waiting == key:
            self._complete_recv(dest, msg)
        else:
            self._mb_count += 1
            self._mailbox[dest].setdefault(key, []).append(msg)

    def _post_recv(self, rank: int, source: int, tag: int, floor: float) -> None:
        if not (0 <= source < self.nranks):
            raise ValueError(f"recv from invalid rank {source}")
        state = self._states[rank]
        state.recv_floor = max(floor, state.time)
        key = (source, tag)
        queue = self._mailbox[rank].get(key)
        if queue:
            self._mb_count -= 1
            msg = queue.pop(0)
            if not queue:
                del self._mailbox[rank][key]
            self._complete_recv(rank, msg)
        else:
            state.waiting = key
            self._arm_timeout(rank, state.recv_floor)

    def _complete_recv(self, rank: int, msg: _Message) -> None:
        state = self._states[rank]
        state.waiting = None
        done = max(state.recv_floor, msg.arrival) + self._cpu(
            rank, self._ep(rank, msg.nbytes, msg.pipelined)
        )
        state.time = done
        if self._trace is not None:
            self._trace.event(
                "recv", rank, done, source=msg.src, nbytes=msg.nbytes,
            )
        self._sched_adv(done, rank, msg.payload)
