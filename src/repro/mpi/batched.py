"""Batched struct-of-arrays event core for the MPI simulator.

:class:`BatchedEngine` re-implements the hot paths of
:class:`~repro.mpi.simulator.Engine` around flat *tuple-coded* events
and numpy-batched rank advancement, while inheriting the object core's
semantics everywhere else.  Three layers, each exactly value-preserving:

1. **Timing tables.**  ``wire_time`` (topology hops + protocol choice)
   and ``endpoint_time`` (binding software costs, including the
   memory-hierarchy bounce-buffer copy) are pure functions of
   ``(src, dest, nbytes)`` for a given engine, so both are memoised.
   The cached objects are the exact values the object core recomputes
   per message — identical floats, by construction.

2. **Tuple events.**  The heap holds ``(time, seq, kind, a, b)`` tuples
   (kind 0 = resume a rank, 1 = deliver a message, 2 = any other
   closure) instead of per-event lambdas.  ``seq`` is unique, so heap
   order is exactly the object core's ``(time, seq)`` order and every
   side effect (trace events, guard probes, stats) happens at the same
   point in the same order — which is why faulted / traced / guarded
   runs stay byte-identical through this scalar path.

3. **Wave commits.**  When every queued event is a rank-resume (no
   deliveries or closures in flight), the engine pops the whole heap as
   one *wave*, resumes the generators in heap order, and — if the wave
   is a homogeneous lockstep round (all ``SendRecv`` with ``payload
   None`` pairing bijectively inside the wave, or all ``Compute``) —
   commits every rank's clock advance with vectorised numpy column
   arithmetic: injection, per-destination ingress serialisation,
   arrival, and recv completion as float64 array ops (bit-identical to
   the scalar float chain).  Only the head of the wave that dispatches
   before any resume it schedules comes due commits; the rest, and
   any wave that cannot commit, is drained one by one in exact heap
   order, so heterogeneous phases (tree reductions, linear gathers,
   fold-ins) fall back to the object schedule.  A commit hands out
   seqs in the order the object core creates the events, and queues a
   delivery as a real event when a rank could run on before it pops.
   Waves are
   attempted only in *fast mode* — no faults, no tracing, no guard, no
   recv timeout — so observability hooks always see the object core's
   exact event stream.

The resume-before-dispatch move inside a wave is sound because resuming
a rank generator has no engine-visible side effects: the value passed
in was fixed when its completion was committed, and program code only
computes and yields the next op.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .network import TofuDNetwork
from .simulator import (
    Compute,
    Engine,
    Mark,
    Now,
    Recv,
    Send,
    SendRecv,
    _Message,
)

__all__ = ["BatchedEngine"]

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


class BatchedEngine(Engine):
    """Struct-of-arrays event core (see module docstring)."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: memoised exact timing tables.
        self._wire_cache: Dict[Tuple[int, int, int], Any] = {}
        if self.faults is None:
            try:
                self._wire_cache = _WIRE_CACHES.setdefault(self.network, {})
            except TypeError:
                pass  # unhashable network: keep the private table
        self._ep_cache: Dict[Tuple[int, int, bool], float] = {}
        #: flat rows for vector commits:
        #: (lat, ser, rdzv, shm, hops, ep_send, ep_recv, protocol).
        self._row_cache: Dict[Tuple[int, int, int], tuple] = {}
        #: counts of non-resume heap events.  Deliveries can be drained
        #: ahead of a wave (they only complete recvs or fill mailboxes);
        #: opaque closures cannot, so any of those disables waving.
        self._n_deliver = 0
        self._n_other = 0
        #: scalar events to process before re-attempting a wave, set
        #: when a wave attempt bails without consuming the heap.
        self._wave_cooldown = 0
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
        #: (shm, base, per_hop) latency floors for the overtaking gate —
        #: only trusted on the stock fault-free model, where any future
        #: message s→d needs at least this much flight time.
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
    def _schedule(self, time: float, fn) -> None:
        self._n_other += 1
        heapq.heappush(self._events, (time, next(self._seq), _OTHER, fn, None))

    def _sched_adv(self, time: float, rank: int, value: Any) -> None:
        heapq.heappush(
            self._events, (time, next(self._seq), _ADV, rank, value)
        )

    def _sched_initial(self, rank: int) -> None:
        self._sched_adv(0.0, rank, None)

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

    def _loop(self) -> None:
        heap = self._events
        pop = heapq.heappop
        fast = self._fast
        while heap:
            if self._active == 0:
                break  # fail-fast: only stale events remain
            if (
                fast
                and self._n_other == 0
                and self._wave_cooldown == 0
                and len(heap) > 1
                and self._wave()
            ):
                continue
            ev = pop(heap)
            if self._wave_cooldown:
                self._wave_cooldown -= 1
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

    # -- wave machinery -------------------------------------------------
    def _wave(self) -> bool:
        """Pop the heap as one resume wave and commit it batched.

        Pending deliveries are drained first — sound only when each one
        (a) directly completes a distinct waiting rank (no mailboxing,
        no irecv matching), and (b) cannot be *overtaken*: the message's
        source rank could wake first and inject a second same-key
        message that arrives sooner — in the object core's strict time
        order the earlier arrival wins the match (same-tag messages
        overtake each other on fast wires).  (b) holds when the source's
        earliest scheduled event plus the s→d minimum wire latency is no
        earlier than the delivery's arrival: a competing message must be
        sent after its source's next resume and still fly the same wire,
        and ties go to the already-scheduled delivery (lower seq).
        Soundness of the whole drain follows from the *first* competing
        message in virtual time: its sender resumed via its scheduled
        event (nothing competed before it), so the message lands at or
        after the arrival it would have to beat.  If any delivery fails
        either test the heap is left untouched and False is returned
        (with a cooldown so the scan cost stays amortised).  After the
        drain the wave is the complete set of pending resumes; a
        homogeneous lockstep round commits vectorised, anything else
        falls back to an exact-order scalar drain.

        Values are then exact, but a drained delivery's resume got its
        seq early: the object core numbers it when the delivery pops,
        after whatever pops before it.  Only equal-time ties read seqs.
        A committed wave consumes the drained resumes as members, so
        their seqs only order the wave, where early seqs sort the same
        way.  The scalar drain re-numbers each one as it passes the
        delivery's key.

        Once a neutral member's resume comes due, the object core runs
        that rank on before any later member dispatches, so only the
        members before that point (the head) may commit; the rest go
        through the scalar drain behind the commit.
        """
        heap = self._events
        states = self._states
        if self._n_deliver:
            # Earliest scheduled event per rank (the heap is pure
            # ADV/DELIVER here — _loop gates on _n_other == 0 — so ev[3]
            # is always the owning rank).
            earliest: Dict[int, float] = {}
            for ev in heap:
                t0 = earliest.get(ev[3])
                if t0 is None or ev[0] < t0:
                    earliest[ev[3]] = ev[0]
            lf = self._lat_floor
            hm = self._hops_mat
            rpn = self._rpn
            seen = set()
            for ev in heap:
                if ev[2] != _ADV:
                    dest = ev[3]
                    msg = ev[4]
                    st = states[dest]
                    src = msg.src
                    if states[src].done:
                        src_ok = True  # finished ranks cannot send again
                    else:
                        src_t = earliest.get(src)
                        if src_t is None:
                            src_ok = False
                        elif src_t >= ev[0]:
                            src_ok = True
                        elif lf is None:
                            src_ok = False
                        else:
                            sn, dn = src // rpn, dest // rpn
                            if sn == dn:
                                lat = lf[0]
                            elif hm is not None:
                                lat = lf[1] + int(hm[sn, dn]) * lf[2]
                            else:
                                lat = lf[1]
                            src_ok = src_t + lat >= ev[0]
                    if (
                        st.irecv_posted
                        or st.waiting != (msg.src, msg.tag)
                        or dest in seen
                        or not src_ok
                    ):
                        self._wave_cooldown = max(self._n_deliver, 1)
                        return False
                    seen.add(dest)
            first = sorted(heap)
            del heap[:]
            wave: List[tuple] = []
            drained: List[tuple] = []
            for ev in first:
                if ev[2] == _ADV:
                    wave.append(ev)
                else:
                    self._n_deliver -= 1
                    self._deliver(ev[3], ev[4])
                    drained.append((ev[0], ev[1], ev[3]))
            # resumes the drained deliveries just scheduled
            wave.extend(heap)
            del heap[:]
            wave.sort()
        else:
            wave = sorted(heap)
            del heap[:]
            drained = []
        ops: List[Any] = []
        sr: List[int] = []
        batchable = True
        # Members from ``cut`` on dispatch, in the object core, only after
        # an earlier neutral member's resume has come due and its rank has
        # run on; they are left to the scalar drain.
        cut = len(wave)
        due = float("inf")
        cpu = self._cpu
        for i, ev in enumerate(wave):
            st = states[ev[3]]
            try:
                op = st.gen.send(ev[4])
            except StopIteration as stop:
                st.done = True
                st.result = stop.value
                self._active -= 1
                ops.append(None)
                continue
            ops.append(op)
            if i >= cut:
                continue
            if ev[0] > due:
                cut = i
                continue
            cls = op.__class__
            # Members are batchable when they are benchmark-path
            # SendRecvs or *neutral* ops — Compute / Now / Mark dispatch
            # touches nothing shared (own clock + one resume event), so
            # those commit in wave order.
            if cls is SendRecv:
                if op.send_payload is None:
                    sr.append(i)
                else:
                    batchable = False
            elif cls is Compute:
                if op.seconds < 0:
                    batchable = False  # scalar path raises the error
                else:
                    due = min(due, ev[0] + cpu(ev[3], op.seconds))
            elif cls is Now or cls is Mark:
                due = min(due, ev[0])
            else:
                batchable = False
        if cut < len(wave) and (
            {d[2] for d in drained} & {ev[3] for ev in wave[cut:]}
        ):
            # the scalar drain would number that resume after the seqs
            # a commit of the head hands out
            batchable = False
        if batchable and cut >= _MIN_VECTOR_WAVE:
            head = wave[:cut]
            if not sr:
                self._commit_neutral_wave(head, ops)
                committed = True
            else:
                committed = (
                    self._mb_count == 0
                    and self._n_posted == 0
                    and self._commit_sendrecv_wave(head, ops, sr)
                )
            if committed:
                if cut < len(wave):
                    self._drain_scalar(wave[cut:], ops[cut:], [])
                return True
        self._drain_scalar(wave, ops, drained)
        return True

    def _commit_sendrecv_wave(
        self, wave: List[tuple], ops: List[Any], sr: List[int]
    ) -> bool:
        """Vector-commit a lockstep pairwise-exchange round.

        ``sr`` indexes the SendRecv members; the rest of the wave must
        be neutral (committed here too).  Requires a full bijective
        pairing *within* the SendRecv subset and that every computed
        completion strictly follows the latest member resume (otherwise
        the object core could interleave another dispatch into this
        round).  Returns False — with no state mutated — when
        ineligible.
        """
        m = len(sr)
        nranks = self.nranks
        srcs = np.fromiter((wave[w][3] for w in sr), np.intp, count=m)
        dests = np.fromiter((ops[w].dest for w in sr), np.intp, count=m)
        sources = np.fromiter((ops[w].source for w in sr), np.intp, count=m)
        stags = np.fromiter((ops[w].send_tag for w in sr), np.int64, count=m)
        rtags = np.fromiter((ops[w].recv_tag for w in sr), np.int64, count=m)
        nb = np.fromiter((ops[w].send_nbytes for w in sr), np.int64, count=m)
        if (
            dests.min() < 0
            or dests.max() >= nranks
            or sources.min() < 0
            or sources.max() >= nranks
            or (dests == srcs).any()
        ):
            return False  # scalar path raises the proper error
        # Bijective intra-wave pairing, checked in both directions via
        # the inverse permutation (member ranks are unique, so duplicate
        # partners fail the source/tag equations).
        perm = np.full(nranks, -1, dtype=np.intp)
        perm[srcs] = np.arange(m, dtype=np.intp)
        j = perm[dests]
        pair = perm[sources]
        if j.min() < 0 or pair.min() < 0:
            return False
        if not (
            (sources[j] == srcs).all()
            and (rtags[j] == stags).all()
            and (dests[pair] == srcs).all()
            and (stags[pair] == rtags).all()
        ):
            return False

        net = self.network
        prof = self._uniform_prof
        hm = self._hops_mat
        nb0 = int(nb[0])
        if (
            prof is not None
            and hm is not None
            and type(net) is TofuDNetwork
            and net.faults is None
            and int(nb.min()) == nb0 == int(nb.max())
        ):
            # Uniform round on the stock network model: evaluate the
            # wire/endpoint formulas as columns (same operation order as
            # the scalar chain, so identical float64 results).
            ns = srcs // self._rpn
            nd = dests // self._rpn
            hops_col = hm[ns, nd]
            shm = ns == nd
            rdzv_b = nb0 > net.eager_threshold
            lat = net.base_latency + hops_col * float(net.per_hop_latency)
            if rdzv_b:
                lat = lat + net.rendezvous_overhead
            lat = np.where(shm, net.shm_latency, lat)
            ser = np.where(
                shm, nb0 / net.shm_bandwidth, nb0 / net.link_bandwidth
            )
            # shm messages never pipeline, mirroring _row's protocol test.
            ep_e = self._ep(0, nb0, False)
            if rdzv_b:
                eps = np.where(shm, ep_e, self._ep(0, nb0, True))
            else:
                eps = ep_e
            epr = eps
            rdzv = np.logical_and(rdzv_b, ~shm)
            max_hops = int(np.where(shm, 0, hops_col).max())
            n_shm = int(shm.sum())
            n_rdzv = int(rdzv.sum()) if rdzv_b else 0
            bytes_sent = nb0 * m
        else:
            row = self._row
            rows = [row(int(srcs[i]), int(dests[i]), int(nb[i]))
                    for i in range(m)]
            lat = np.array([rw[0] for rw in rows])
            ser = np.array([rw[1] for rw in rows])
            rdzv = np.array([rw[2] for rw in rows])
            shm = np.array([rw[3] for rw in rows])
            eps = np.array([rw[5] for rw in rows])
            epr = np.array([rw[6] for rw in rows])
            max_hops = max(rw[4] for rw in rows)
            n_shm = int(shm.sum())
            n_rdzv = int(rdzv.sum())
            bytes_sent = int(nb.sum())
        t = np.fromiter((wave[w][0] for w in sr), np.float64, count=m)
        dl = dests.tolist()
        ingress_free = self._ingress_free

        # Identical float64 chain to the scalar path, one column at a
        # time: inject, head-of-message flight, ingress serialisation
        # (each dest receives exactly one message — the pairing is a
        # bijection — so the gather/scatter cannot race), arrival.
        inject = t + eps
        head = inject + lat
        start = np.maximum(head, np.array([ingress_free[d] for d in dl]))
        arrival = np.where(shm, head + ser, start + ser)
        send_done = np.where(rdzv, arrival, inject)
        # Member i's resume charges *its own* receive endpoint for the
        # *incoming* message — row pair[i]'s ep_recv (that row's dest is
        # i, its nbytes/protocol are the incoming message's).
        if isinstance(epr, np.ndarray):
            epr = epr[pair]
        incoming = arrival[pair]
        done = np.maximum(np.maximum(send_done, t), incoming) + epr
        if not done.min() > wave[-1][0]:
            return False  # a completion could overtake a member resume
        neutral = (
            self._neutral_resumes(wave, ops, frozenset(sr))
            if m != len(wave) else []
        )

        arrival_f = arrival.tolist()
        ser_f = ser.tolist()
        done_f = done.tolist()
        ingress_busy = self._ingress_busy
        shm_f = shm.tolist()
        for i in range(m):
            if not shm_f[i]:
                d = dl[i]
                ingress_free[d] = arrival_f[i]
                ingress_busy[d] += ser_f[i]

        s = self.stats
        s.messages += m
        s.bytes_sent += bytes_sent
        s.shm_messages += n_shm
        s.rendezvous_messages += n_rdzv
        s.eager_messages += m - n_shm - n_rdzv
        s.max_hops = max(s.max_hops, max_hops)
        sends = s.sends_by_rank
        for w in sr:
            r = wave[w][3]
            sends[r] = sends.get(r, 0) + 1

        # Events get their seqs in the order the object core creates
        # them.  Dispatches run in wave order at the members' resume
        # times: a neutral member's resume, a SendRecv member's outgoing
        # delivery and then, if its incoming message already landed (a
        # mailbox hit), its resume.  Any other SendRecv resume is created
        # when its incoming delivery pops: by arrival, after equal-time
        # dispatches (the delivery's seq is newer), then in the order the
        # senders dispatched.  Such a resume is scheduled here only if
        # its delivery pops before every resume scheduled here comes due.
        # Otherwise a rank runs on first, creating events the object core
        # numbers before it, so the delivery itself is queued with the
        # recv left posted, and completes on the scalar path.
        w_sr = np.asarray(sr, dtype=np.intp)
        hit = incoming < t
        direct = hit.copy()
        due = min([res[1] for res in neutral] + done[hit].tolist(),
                  default=np.inf)
        pops = np.lexsort((w_sr[pair], incoming))
        pops = pops[~hit[pops]]
        if len(pops):
            # each delivery must pop before the earliest resume due so far
            first_due = np.minimum.accumulate(
                np.concatenate(([due], done[pops]))
            )[:-1]
            ok = incoming[pops] < first_due
            direct[pops[: len(ok) if ok.all() else int(ok.argmin())]] = True
        late = direct & ~hit
        w_all = np.concatenate((
            np.where(hit, w_sr, w_sr[pair]),
            np.array([res[0] for res in neutral], dtype=np.intp),
        ))
        t_all = np.concatenate((
            np.where(late, incoming, np.where(hit, t, t[pair])),
            np.array([wave[res[0]][0] for res in neutral]),
        ))
        order = np.lexsort((
            np.concatenate((hit, np.zeros(len(neutral), bool))),
            w_all,
            np.concatenate((late, np.zeros(len(neutral), bool))),
            t_all,
        ))
        direct_f = direct.tolist()
        incoming_f = incoming.tolist()
        pair_f = pair.tolist()
        states = self._states
        heap = self._events
        seq = self._seq
        for i in order.tolist():
            if i >= m:
                _, d, r, value = neutral[i - m]
                states[r].time = d
                heap.append((d, next(seq), _ADV, r, value))
                continue
            r = wave[sr[i]][3]
            if direct_f[i]:
                states[r].time = done_f[i]
                heap.append((done_f[i], next(seq), _ADV, r, None))
                continue
            j = pair_f[i]
            st = states[r]
            src = wave[sr[j]][3]
            st.waiting = (src, int(rtags[i]))
            st.recv_floor = max(float(send_done[i]), float(t[i]))
            self._n_deliver += 1
            heap.append((incoming_f[i], next(seq), _DELIVER, r, _Message(
                src=src, tag=int(stags[j]), nbytes=int(nb[j]), payload=None,
                arrival=incoming_f[i], pipelined=bool(rdzv[j]),
            )))
        heapq.heapify(heap)
        return True

    def _neutral_resumes(
        self, wave: List[tuple], ops: List[Any], skip: frozenset = frozenset()
    ) -> List[tuple]:
        """``(w, time, rank, value)`` resumes of the neutral members
        (Compute / Now / Mark; finished ranks have none) in wave order."""
        cpu = self._cpu
        out = []
        for i, ev in enumerate(wave):
            op = ops[i]
            if op is None or i in skip:
                continue
            t = ev[0]
            cls = op.__class__
            d = t + cpu(ev[3], op.seconds) if cls is Compute else t
            out.append((i, d, ev[3], t if cls is Now else None))
        return out

    def _commit_neutral_wave(self, wave: List[tuple], ops: List[Any]) -> None:
        """Commit an all-neutral wave: resumes in wave order."""
        heap = self._events
        seq = self._seq
        states = self._states
        for _, d, r, value in self._neutral_resumes(wave, ops):
            states[r].time = d
            heap.append((d, next(seq), _ADV, r, value))
        heapq.heapify(heap)

    def _drain_scalar(
        self, wave: List[tuple], ops: List[Any], drained: List[tuple]
    ) -> None:
        """Dispatch an already-resumed wave in exact object-core order,
        interleaving any events the dispatches schedule.

        ``drained`` lists ``(time, seq, dest)`` of the deliveries the
        wave drained ahead of time, in heap order.  The object core
        hands out each one's resume seq only when that delivery pops,
        i.e. after every event keyed before it — including events
        scheduled right here.  So each drained resume is re-numbered
        with a fresh seq the moment the merge passes its delivery's
        key; that keeps equal-time ties in the object core's order.
        The wave's own order is unaffected: fresh seqs are issued in
        delivery order and exceed every older seq in the wave.
        """
        heap = self._events
        pop = heapq.heappop
        seq = self._seq
        at = {ev[3]: w for w, ev in enumerate(wave)} if drained else None
        d = 0
        nd = len(drained)
        i = 0
        m = len(wave)
        while i < m:
            ev = wave[i]
            nxt = heap[0] if heap and heap[0] < ev else ev
            if d < nd and drained[d] < nxt:
                w = at[drained[d][2]]
                old = wave[w]
                wave[w] = (old[0], next(seq), _ADV, old[3], old[4])
                d += 1
                continue
            if nxt is not ev:
                self._exec(pop(heap))
                continue
            op = ops[i]
            i += 1
            if op is not None:
                self._dispatch(ev[3], op)

    # -- scalar hot paths (cached + tuple events) -----------------------
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
        else:
            # Non-blocking ops and the unknown-op error share the object
            # core's code; their resume closures ride as _OTHER events.
            super()._dispatch(rank, op)

    def _do_send(
        self, src: int, t: float, dest: int, tag: int, nbytes: int, payload: Any
    ) -> Optional[float]:
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
            if pipelined:
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
        self._sched_deliver(arrival, dest, msg)
        if pipelined:
            return arrival
        return inject_done

    def _deliver(self, dest: int, msg: _Message) -> None:
        state = self._states[dest]
        key = (msg.src, msg.tag)
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

    def _note_irecv_posted(self) -> None:
        self._n_posted += 1

    def _note_mailbox_pop(self) -> None:
        self._mb_count -= 1
