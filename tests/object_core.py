"""The reference object event core: the differential oracle for
:class:`repro.mpi.simulator.Engine`.

:class:`ObjectEngine` runs the MPI semantics the plain way: every event
is a closure on a ``(time, seq, fn)`` heap, every message recomputes its
timing with ``network.wire_time`` and ``endpoint_time``, and no wave is
ever tried.  It shares with :class:`Engine` what both cores have always
shared — rank state, the resume/expand plumbing, fault draws, timeouts
and the non-blocking ops' request bookkeeping (whose wave counters it
never reads) — so every float on the hot path is computed independently
of the engine it checks.

:func:`object_core` swaps it in for the class ``MPIWorld.run``
instantiates; pool workers fork, so they inherit the swap.
"""

from __future__ import annotations

import contextlib
import heapq
from typing import Any, Callable, Optional, Tuple

import pytest

from repro.mpi import comm as comm_module
from repro.mpi.simulator import (
    Compute,
    Engine,
    Mark,
    Now,
    Recv,
    Send,
    SendRecv,
    _Message,
)

__all__ = ["ObjectEngine", "object_core"]


@contextlib.contextmanager
def object_core():
    """Run the enclosed code on the reference object core."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(comm_module, "Engine", ObjectEngine)
        yield


class ObjectEngine(Engine):
    """One closure per event, uncached timing, no waves."""

    def _schedule(self, time: float, fn: Callable[[], None]) -> None:
        heapq.heappush(self._events, (time, next(self._seq), fn))

    def _sched_adv(self, time: float, rank: int, value: Any) -> None:
        self._schedule(time, lambda: self._advance(rank, value))

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
            # The non-blocking ops' request bookkeeping is shared, as it
            # always was; their injection is this core's _inject.
            super()._dispatch(rank, op)

    def _do_send(
        self, src: int, t: float, dest: int, tag: int, nbytes: int, payload: Any
    ) -> Optional[float]:
        """Inject a message; returns the time the sender becomes free.

        Returns None when the sender blocks forever (rendezvous send to
        a failed rank) — the caller parks the rank for the timeout (or
        deadlock) machinery to reap.
        """
        inject_done, arrival, pipelined = self._inject(
            src, t, dest, tag, nbytes, payload
        )
        if not pipelined:
            return inject_done
        # Synchronous: the sender's buffer is in flight until the
        # receiver has pulled it.
        return None if arrival == float("inf") else arrival

    def _inject(
        self, src: int, t: float, dest: int, tag: int, nbytes: int, payload: Any
    ) -> Tuple[float, float, bool]:
        """Put a message on the wire: ``(sender_free, arrival,
        rendezvous)``; the arrival is infinite when ``dest`` has failed."""
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
            # fire-and-forget; a rendezvous sender (or a Wait on an
            # Isend) waits on a pull that never comes.
            self.stats.messages_lost += 1
            if self._trace is not None:
                self._trace.event(
                    "send", src, t, dest=dest, nbytes=nbytes,
                    protocol=wire.protocol, lost=True,
                )
            return inject_done, float("inf"), pipelined
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
        return inject_done, arrival, pipelined

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
