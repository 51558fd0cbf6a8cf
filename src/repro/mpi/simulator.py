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
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from ..guard.contracts import Contract
from ..guard.monitor import get_guard
from ..obs.trace import get_recorder
from .bindings import BindingProfile, IMB_C
from .faults import FaultPlan
from .network import TofuDNetwork
from .topology import TofuDTopology

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
    receives and computes; the batched fast path may instead evaluate a
    whole wave of equal ``Collective`` ops at once
    (:mod:`repro.mpi.batched`).  The rank resumes with ``None``.
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
    """Run a set of rank programs to completion over a network model."""

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
        self._events: List[Tuple[float, int, Callable[[], None]]] = []
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

    # ------------------------------------------------------------------
    def binding(self, rank: int) -> BindingProfile:
        return self._bindings.get(rank, self._binding_default)

    def _schedule(self, time: float, fn: Callable[[], None]) -> None:
        heapq.heappush(self._events, (time, next(self._seq), fn))

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
                self._sched_initial(r)
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

    def _sched_initial(self, rank: int) -> None:
        """Queue a rank's first resume (hook for alternate event codings)."""
        self._schedule(0.0, lambda: self._advance(rank, None))

    def _loop(self) -> None:
        while self._events:
            if self._active == 0:
                # Every rank is done: whatever remains (stale timeout
                # probes, in-flight deliveries) can no longer change any
                # observable state, so stop instead of scanning the full
                # heap — at 10k+ ranks that drain dominated teardown.
                break
            _, _, fn = heapq.heappop(self._events)
            fn()
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
        if isinstance(op, Send):
            resume_at = self._do_send(rank, t, op.dest, op.tag, op.nbytes, op.payload)
            if resume_at is None:
                # Rendezvous send to a failed rank: the sender blocks on
                # a pull that never comes (timeout/deadlock take over).
                state.waiting = (op.dest, op.tag)
                self._arm_timeout(rank, t)
                return
            state.time = resume_at
            self._schedule(resume_at, lambda: self._advance(rank, None))
        elif isinstance(op, Recv):
            self._post_recv(rank, op.source, op.tag, floor=t)
        elif isinstance(op, SendRecv):
            send_done = self._do_send(
                rank, t, op.dest, op.send_tag, op.send_nbytes, op.send_payload
            )
            if send_done is None:
                state.waiting = (op.dest, op.send_tag)
                self._arm_timeout(rank, t)
                return
            self._post_recv(rank, op.source, op.recv_tag, floor=send_done)
        elif isinstance(op, Isend):
            req = self._new_request(rank, "send")
            free_at, arrival = self._do_send_async(
                rank, t, op.dest, op.tag, op.nbytes, op.payload
            )
            state.time = free_at

            def _complete_send(rank=rank, req=req, arrival=arrival):
                req.done = True
                req.done_time = arrival
                self._wake_if_ready(rank)

            if arrival != float("inf"):  # never completes: dest failed
                self._schedule(arrival, _complete_send)
            self._schedule(free_at, lambda: self._advance(rank, req.req_id))
        elif isinstance(op, Irecv):
            if not (0 <= op.source < self.nranks):
                raise ValueError(f"irecv from invalid rank {op.source}")
            req = self._new_request(rank, "recv", source=op.source, tag=op.tag)
            key = (op.source, op.tag)
            queue = self._mailbox[rank].get(key)
            if queue:
                self._note_mailbox_pop()
                msg = queue.pop(0)
                if not queue:
                    del self._mailbox[rank][key]
                self._fill_recv_request(req, msg)
            else:
                state.irecv_posted.append(req)
                self._note_irecv_posted()
            post_done = t + self._cpu(rank, self.binding(rank).per_call_overhead)
            state.time = post_done
            self._schedule(post_done, lambda: self._advance(rank, req.req_id))
        elif isinstance(op, (Wait, Waitall)):
            ids = (op.request,) if isinstance(op, Wait) else tuple(op.requests)
            for rid in ids:
                if rid not in state.requests:
                    raise ValueError(f"unknown request id {rid}")
            state.blocked_on = ids
            self._wake_if_ready(rank)
            if state.blocked_on is not None:
                self._arm_timeout(rank, t)
        elif isinstance(op, Compute):
            if op.seconds < 0:
                raise ValueError("negative compute time")
            seconds = self._cpu(rank, op.seconds)
            if self._trace is not None and seconds > 0.0:
                self._trace.event("compute", rank, t, seconds=seconds)
            state.time = t + seconds
            self._schedule(state.time, lambda: self._advance(rank, None))
        elif isinstance(op, Now):
            self._schedule(t, lambda: self._advance(rank, t))
        elif isinstance(op, Mark):
            if self._trace is not None:
                if op.info is None:
                    self._trace.event("mark", rank, t, label=op.name)
                else:
                    self._trace.event(
                        "mark", rank, t, label=op.name, info=op.info
                    )
            self._schedule(t, lambda: self._advance(rank, None))
        else:
            raise TypeError(f"rank {rank} yielded unknown op {op!r}")

    # -- bookkeeping hooks (no-ops here; the batched core counts these
    # to know when vectorised wave commits are safe) ---------------------
    def _note_irecv_posted(self) -> None:
        pass

    def _note_mailbox_pop(self) -> None:
        pass

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
        """Inject a message; returns the time the sender becomes free.

        Returns None when the sender blocks forever (rendezvous send to
        a failed rank) — the caller parks the rank for the timeout (or
        deadlock) machinery to reap.
        """
        if not (0 <= dest < self.nranks):
            raise ValueError(f"send to invalid rank {dest}")
        if dest == src:
            raise ValueError("self-sends are not supported (use local state)")
        prof = self.binding(src)
        wire = self.network.wire_time(src, dest, nbytes)
        pipelined = wire.protocol == "rendezvous"
        t += self._retransmit_delay(src, dest, t)
        inject_done = t + self._cpu(
            src, prof.endpoint_time(nbytes, pipelined=pipelined)
        )
        if self._rank_failed(dest):
            # Traffic to a failed rank vanishes.  Eager sends are
            # fire-and-forget; a rendezvous sender waits on a pull that
            # never comes.
            self.stats.messages_lost += 1
            if self._trace is not None:
                self._trace.event(
                    "send", src, t, dest=dest, nbytes=nbytes,
                    protocol=wire.protocol, lost=True,
                )
            if wire.protocol == "rendezvous":
                return None
            return inject_done
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
        self._schedule(arrival, lambda: self._deliver(dest, msg))
        if wire.protocol == "rendezvous":
            # Synchronous: the sender's buffer is in flight until the
            # receiver has pulled it.
            return arrival
        return inject_done

    def _do_send_async(
        self, src: int, t: float, dest: int, tag: int, nbytes: int, payload: Any
    ) -> Tuple[float, float]:
        """Non-blocking injection: returns ``(sender_free, arrival)``.

        Unlike the blocking path, a rendezvous Isend does not stall the
        sender — the buffer stays in flight until Wait.
        """
        if not (0 <= dest < self.nranks):
            raise ValueError(f"send to invalid rank {dest}")
        if dest == src:
            raise ValueError("self-sends are not supported (use local state)")
        prof = self.binding(src)
        wire = self.network.wire_time(src, dest, nbytes)
        pipelined = wire.protocol == "rendezvous"
        t += self._retransmit_delay(src, dest, t)
        inject_done = t + self._cpu(
            src, prof.endpoint_time(nbytes, pipelined=pipelined)
        )
        if self._rank_failed(dest):
            # The request's "arrival" never comes; a Wait on it hits the
            # timeout machinery (or the deadlock backstop).
            self.stats.messages_lost += 1
            if self._trace is not None:
                self._trace.event(
                    "send", src, t, dest=dest, nbytes=nbytes,
                    protocol=wire.protocol, lost=True,
                )
            return inject_done, float("inf")
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
        self._schedule(arrival, lambda: self._deliver(dest, msg))
        return inject_done, arrival

    def _deliver(self, dest: int, msg: _Message) -> None:
        state = self._states[dest]
        key = (msg.src, msg.tag)
        # Posted non-blocking receives match first, in posting order.
        for i, req in enumerate(state.irecv_posted):
            if (req.source, req.tag) == key:
                state.irecv_posted.pop(i)
                self._fill_recv_request(req, msg)
                self._wake_if_ready(dest)
                return
        if state.waiting == key:
            self._complete_recv(dest, msg)
        else:
            self._mailbox[dest].setdefault(key, []).append(msg)

    def _post_recv(self, rank: int, source: int, tag: int, floor: float) -> None:
        if not (0 <= source < self.nranks):
            raise ValueError(f"recv from invalid rank {source}")
        state = self._states[rank]
        state.recv_floor = max(floor, state.time)
        key = (source, tag)
        queue = self._mailbox[rank].get(key)
        if queue:
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
        prof = self.binding(rank)
        done = max(state.recv_floor, msg.arrival) + self._cpu(
            rank, prof.endpoint_time(msg.nbytes, pipelined=msg.pipelined)
        )
        state.time = done
        if self._trace is not None:
            self._trace.event(
                "recv", rank, done, source=msg.src, nbytes=msg.nbytes,
            )
        self._schedule(done, lambda: self._advance(rank, msg.payload))
