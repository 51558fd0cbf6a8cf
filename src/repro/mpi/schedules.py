"""Compiled collectives: round tables evaluated as float64 columns.

A payload-free :class:`~repro.mpi.simulator.Collective` (the
dissemination barrier, the recursive-doubling Allreduce) sends the same
messages whatever values it carries, so every rank's op sequence can be
read off its generator in :mod:`repro.mpi.collectives` once per
communicator size.  :class:`Schedule` holds those sequences as flat
columns (events, messages, dependency levels); :func:`evaluate` runs
them with the scalar path's float chain from given entry times; and
:func:`pop_order` ranks every event in the order the object core's heap
would pop it.  :class:`~repro.mpi.batched.BatchedEngine` commits the
result (see its ``_commit_collective``).
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from types import SimpleNamespace
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from .simulator import Collective, Compute, Mark, Recv, Send, SendRecv

__all__ = ["Schedule", "schedule_for", "evaluate", "pop_order"]

#: evaluation passes a compiled collective may take to find each
#: destination's ingress order before it is expanded instead.
MAX_INGRESS_PASSES = 6

#: compiled round tables, shared process-wide like the wire tables but
#: only the most recent few: ``(Collective, size) -> Schedule``, or
#: None when the op's message flow is outside what the column evaluator
#: models.  A Fig. 3 world uses two: its barrier and its collective.
_SCHEDULES: "OrderedDict[Tuple[Collective, int], Optional[Schedule]]" = (
    OrderedDict()
)
_SCHEDULES_KEPT = 2

# What a rank does at one of its events in a compiled collective: a
# local op (Compute / Mark / Now), a send, a receive, both, or leave.
LOCAL, SEND, RECV, SENDRECV, EXIT = range(5)

#: marks a replay that returns what its last op resumed it with.
_LAST = object()


def _intern(ops: List[Any], op: Any) -> int:
    """Index of ``op`` in ``ops`` (by equality), appending it if new."""
    for i, known in enumerate(ops):
        if known == op:
            return i
    ops.append(op)
    return len(ops) - 1


class Schedule:
    """The round table of a payload-free collective (or of a chain of
    them) for one communicator size, as flat columns.

    Event ``first[r] + i`` is the resume at which rank ``r`` dispatches
    its ``i``-th op; the rank's last event is the resume that leaves.
    Message ``m`` is sent at event ``m_ev[m]`` and received at
    ``m_rcv[m]``, one to one on a unique ``(src, dest, tag)``.  Events
    are grouped into dependency levels: an event's time is known once
    the event before it on its rank, and the send of the message that
    event received, are.  Within a level each batch holds at most one
    message per destination.  The ops themselves are not kept;
    :meth:`replay` rebuilds a rank's remaining ones from the columns.
    ``collectives`` names the ops the table runs, in order.
    """

    def __init__(self, size: int, kind, local, locals_: List[Any], out,
                 first, m_src, m_dst, m_tag, m_ev, m_rcv,
                 m_nb: List[Tuple[int, int]]) -> None:
        n_ev = len(kind)
        n_msg = len(m_src)
        o = np.lexsort((m_tag, m_dst, m_src))
        repeated = np.ones(max(n_msg - 1, 0), dtype=bool)
        for col in (m_src, m_dst, m_tag):
            repeated &= col[o[1:]] == col[o[:-1]]
        if ((m_dst < 0) | (m_dst >= size) | (m_dst == m_src)).any() or \
                repeated.any():
            raise ValueError("invalid destination or repeated message key")
        self.size, self.n_ev, self.n_msg = size, n_ev, n_msg
        self.kind, self.local, self.locals = kind, local, locals_
        self.out, self.first = out, first
        self.m_src, self.m_dst, self.m_tag = m_src, m_dst, m_tag
        self.m_ev, self.m_rcv, self.m_nb = m_ev, m_rcv, m_nb
        self.inm = np.full(n_ev, -1, dtype=np.int32)
        self.inm[m_rcv] = np.arange(n_msg, dtype=np.int32)
        self.exits = np.r_[first[1:], n_ev].astype(np.int32) - 1
        self._levels: Optional[tuple] = None

    def rank_of(self, e: np.ndarray) -> np.ndarray:
        """The rank each event belongs to."""
        return np.searchsorted(self.first, e, side="right") - 1

    def levels(self) -> tuple:
        """``(levels, ingress order, creation index)``, built on first
        use: each level's event groups (by the kind of op before them)
        and message batches; the messages in the order their ingress is
        first assumed (by destination, then level, then batch); and
        each resume's index among the events its creating event made (a
        send's delivery comes first; a waited-for receive's resume is
        made by its delivery instead)."""
        if self._levels is not None:
            return self._levels
        kind, inm, m_ev, first = self.kind, self.inm, self.m_ev, self.first
        n_ev = self.n_ev
        # Every live rank steps one event per pass.
        lvl = np.zeros(n_ev, dtype=np.int32)
        known = np.zeros(n_ev, dtype=bool)
        known[first] = True
        ptr = first.copy()
        live = np.flatnonzero(kind[ptr] != EXIT)
        while len(live):
            e = ptr[live]
            mi = inm[e]
            has = mi >= 0
            se = m_ev[np.where(has, mi, 0)]
            ok = ~has | known[se]
            if not ok.any():
                raise ValueError("collective deadlocks")
            e, has, se = e[ok], has[ok], se[ok]
            lvl[e + 1] = np.where(has, np.maximum(lvl[e], lvl[se]), lvl[e]) + 1
            known[e + 1] = True
            ptr[live[ok]] += 1
            live = live[kind[ptr[live]] != EXIT]
        del known, ptr
        prev = kind[np.maximum(np.arange(n_ev) - 1, 0)]
        create_idx = ((prev == SEND) | (prev == SENDRECV)).astype(np.int8)
        top = int(lvl.max()) + 2
        by = np.argsort(lvl, kind="stable").astype(np.int32)
        cuts = np.searchsorted(lvl[by], np.arange(top))
        m_lvl = lvl[m_ev]
        m_by = np.argsort(m_lvl, kind="stable").astype(np.int32)
        m_cuts = np.searchsorted(m_lvl[m_by], np.arange(top))
        batch_no = np.zeros(self.n_msg, dtype=np.int32)
        levels = []
        for level in range(top - 1):
            at = by[cuts[level]:cuts[level + 1]]
            groups = ()
            if level:
                pk = prev[at]
                groups = tuple(at[pk == k]
                               for k in (LOCAL, SEND, RECV, SENDRECV))
            msgs = m_by[m_cuts[level]:m_cuts[level + 1]]
            levels.append((groups, self._batches(msgs, batch_no)))
        order = np.lexsort((batch_no, m_lvl, self.m_dst)).astype(np.int32)
        self._levels = (levels, order, create_idx)
        return self._levels

    def _batches(self, msgs: np.ndarray,
                 batch_no: np.ndarray) -> List[np.ndarray]:
        """Split one level's messages so no batch repeats a destination."""
        if not len(msgs):
            return []
        order = msgs[np.argsort(self.m_dst[msgs], kind="stable")]
        d = self.m_dst[order]
        i = np.arange(len(order))
        pos = i - np.maximum.accumulate(
            np.where(np.r_[True, d[1:] != d[:-1]], i, 0)
        )
        batch_no[order] = pos
        return [np.sort(order[pos == b]) for b in range(int(pos.max()) + 1)]

    def nbytes(self) -> np.ndarray:
        """Every message's size."""
        return np.repeat([nb for _, nb in self.m_nb],
                         [c for c, _ in self.m_nb])

    def msg_size(self, m: int) -> int:
        """Message ``m``'s size in bytes."""
        for count, nb in self.m_nb:
            if m < count:
                return nb
            m -= count
        raise IndexError(m)

    def replay(self, rank: int, start: int, after: List[Any] = (),
               result: Any = _LAST):
        """Rank ``rank``'s ops from its ``start``-th on, rebuilt from the
        columns as they are reached, then ``after``: the rank's generator
        from here.  It returns ``result``, or by default what its last
        op resumed it with."""
        nb = self.msg_size
        value = None
        for e in range(int(self.first[rank]) + start, int(self.exits[rank])):
            k = self.kind[e]
            if k == LOCAL:
                value = yield self.locals[self.local[e]]
                continue
            m, i = int(self.out[e]), int(self.inm[e])
            if k == SENDRECV:
                value = yield SendRecv(
                    dest=int(self.m_dst[m]), send_nbytes=nb(m),
                    source=int(self.m_src[i]), send_tag=int(self.m_tag[m]),
                    recv_tag=int(self.m_tag[i]),
                )
            elif k == SEND:
                value = yield Send(dest=int(self.m_dst[m]), nbytes=nb(m),
                                   tag=int(self.m_tag[m]))
            else:
                value = yield Recv(source=int(self.m_src[i]),
                                   tag=int(self.m_tag[i]))
        for op in after:
            value = yield op
        return value if result is _LAST else result

    @classmethod
    def compile(cls, op: Collective, size: int) -> "Schedule":
        """Drive every rank's generator of ``op`` with ``None``."""
        kind, local, out, first = array("b"), array("i"), array("i"), array("i")
        m_src, m_dst, m_tag, m_ev = array("i"), array("i"), array("q"), array("i")
        r_key, r_ev = array("q"), array("i")  # receives: (src, tag), event
        locals_: List[Any] = []
        sizes = set()
        tags = {}
        for r in range(size):
            first.append(len(kind))
            for x in _ops_of(op.expand(r, size)):
                cls_ = x.__class__
                send = recv = None
                if cls_ is SendRecv and x.send_payload is None:
                    k = SENDRECV
                    send = (x.dest, x.send_tag, x.send_nbytes)
                    recv = (x.source, x.recv_tag)
                elif cls_ is Send and x.payload is None:
                    k, send = SEND, (x.dest, x.tag, x.nbytes)
                elif cls_ is Recv:
                    k, recv = RECV, (x.source, x.tag)
                elif (cls_ is Compute and x.seconds >= 0) or cls_ is Mark:
                    k = LOCAL
                else:
                    raise ValueError(f"cannot compile {x!r}")
                e = len(kind)
                kind.append(k)
                local.append(_intern(locals_, x) if k == LOCAL else -1)
                if send is None:
                    out.append(-1)
                else:
                    out.append(len(m_src))
                    m_src.append(r)
                    m_dst.append(send[0])
                    m_tag.append(send[1])
                    m_ev.append(e)
                    sizes.add(send[2])
                if recv is not None:
                    if not 0 <= recv[0] < size:
                        raise ValueError("invalid source")
                    t = tags.setdefault(recv[1], len(tags))
                    r_key.append((recv[0] * size + r) * 2 ** 20 + t)
                    r_ev.append(e)
            kind.append(EXIT)
            local.append(-1)
            out.append(-1)
        if len(sizes) > 1 or len(tags) >= 2 ** 20:
            raise ValueError("messages of several sizes")
        col = lambda a, t: np.frombuffer(a, dtype=t).copy() if len(a) \
            else np.zeros(0, dtype=t)
        m_src, m_dst = col(m_src, np.int32), col(m_dst, np.int32)
        m_tag = col(m_tag, np.int64)
        # Match receives to sends on (src, dest, tag): the two key lists
        # must be equal as sets (send keys are unique, see __init__).
        known = np.array(sorted(tags), dtype=np.int64)
        at = np.minimum(np.searchsorted(known, m_tag), max(len(known) - 1, 0))
        tag_id = np.where(known[at] == m_tag,
                          np.array([tags[v] for v in known.tolist()])[at], -1) \
            if len(known) else np.full(len(m_tag), -1)
        key = (m_src.astype(np.int64) * size + m_dst) * 2 ** 20 + tag_id
        r_key = col(r_key, np.int64)
        send_order, recv_order = np.argsort(key), np.argsort(r_key)
        n_msg = len(m_src)
        if len(r_key) != n_msg or (key[send_order] != r_key[recv_order]).any():
            raise ValueError("unmatched message")
        m_rcv = np.empty(n_msg, dtype=np.int32)
        m_rcv[send_order] = col(r_ev, np.int32)[recv_order]
        got = cls(size, col(kind, np.int8), col(local, np.int32), locals_,
                  col(out, np.int32), col(first, np.int32), m_src, m_dst,
                  m_tag, col(m_ev, np.int32), m_rcv,
                  [(n_msg, sizes.pop() if sizes else 0)])
        got.collectives = (op,)
        return got

    @classmethod
    def chain(cls, parts: List["Schedule"],
              prefixes: List[List[Any]]) -> "Schedule":
        """``parts[0]``'s table, then the local ops ``prefixes[0]``, then
        ``parts[1]``'s and so on, run back to back by every rank."""
        size = parts[0].size
        per_rank = sum(len(q) for q in prefixes) + 1 + sum(
            np.diff(np.r_[p.first, p.n_ev]) - 1 for p in parts
        )
        first = np.r_[0, np.cumsum(per_rank)[:-1]].astype(np.int32)
        n_ev = int(per_rank.sum())
        kind = np.full(n_ev, EXIT, dtype=np.int8)
        local = np.full(n_ev, -1, dtype=np.int32)
        out = np.full(n_ev, -1, dtype=np.int32)
        locals_: List[Any] = []
        cols = [[], [], [], [], []]
        m_nb: List[Tuple[int, int]] = []
        base = first.copy()
        n_msg = 0
        for i, p in enumerate(parts):
            ops = np.flatnonzero(p.kind != EXIT)
            rank = p.rank_of(ops)
            where = np.empty(p.n_ev, dtype=np.int32)
            where[ops] = base[rank] + (ops - p.first[rank])
            new = where[ops]
            kind[new] = p.kind[ops]
            loc = p.local[ops]
            local[new] = np.where(loc >= 0, loc + len(locals_), -1)
            locals_.extend(p.locals)
            o = p.out[ops]
            out[new] = np.where(o >= 0, o + n_msg, -1)
            for c, v in zip(cols, (p.m_src, p.m_dst, p.m_tag,
                                   where[p.m_ev], where[p.m_rcv])):
                c.append(v)
            m_nb.extend(p.m_nb)
            n_msg += p.n_msg
            base += np.diff(np.r_[p.first, p.n_ev]).astype(np.int32) - 1
            for x in prefixes[i] if i < len(prefixes) else ():
                kind[base] = LOCAL
                local[base] = _intern(locals_, x)
                base += 1
        m_src, m_dst, m_tag, m_ev, m_rcv = (np.concatenate(c) for c in cols)
        got = cls(size, kind, local, locals_, out, first, m_src, m_dst,
                  m_tag, m_ev, m_rcv, m_nb)
        got.collectives = sum((p.collectives for p in parts), ())
        return got


def _ops_of(gen):
    """Every op ``gen`` yields when each one resumes it with ``None``."""
    try:
        op = gen.send(None)
        while True:
            yield op
            op = gen.send(None)
    except StopIteration:
        return


def schedule_for(op: Collective, size: int) -> Optional[Schedule]:
    """``op``'s round table for ``size`` ranks (None: not compilable),
    from the cache of the most recent few."""
    key = (op, size)
    if key in _SCHEDULES:
        _SCHEDULES.move_to_end(key)
        return _SCHEDULES[key]
    try:
        sched = Schedule.compile(op, size)
    except Exception:
        sched = None  # the expansion raises or runs it
    _SCHEDULES[key] = sched
    while len(_SCHEDULES) > _SCHEDULES_KEPT:
        _SCHEDULES.popitem(last=False)
    return sched


def pop_order(time: np.ndarray, creator: np.ndarray,
               idx: np.ndarray) -> np.ndarray:
    """Each event's position in heap pop order.

    An event created when event ``c`` popped pops after every event
    with an earlier time, then after those created by events that
    popped before ``c``, then after ``c``'s earlier creations: the key is
    ``(time, key of creator, idx)``.  Pre-existing events
    (``creator < 0``, ``idx`` = their heap order) pop before new ones
    of the same time.  Unrolled, events compare first by the times
    along their chains of creators down to the pre-existing event that
    started each chain, then by that event, then by the creation
    indices back up; the chains are ranked by pointer doubling.  An
    event makes each creation index once, so every tie resolves.
    """
    n = len(time)
    roots = creator < 0
    w = int(roots.sum())
    # Nodes n.. stand for "before the chain's pre-existing event", one
    # per such event, ordered by heap order and below every time.
    up = np.empty(n + w, dtype=np.int32)
    up[:n] = np.where(roots, n + idx, creator)
    up[n:] = np.arange(n, n + w)
    # pos: an event's position, shared while tied; srt: events by pos.
    srt = np.argsort(time, kind="stable").astype(np.int32)
    pos = np.empty(n + w, dtype=np.int32)
    pos[n:] = np.arange(w)
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(time[srt[1:]], time[srt[:-1]], out=head[1:])
    pos[srt] = w + np.maximum.accumulate(
        np.where(head, np.arange(n, dtype=np.int32), 0)
    )
    del time, head
    scale = 3 * (n + w)

    def refine(key: np.ndarray) -> int:
        """Split tied events by ``key``; how many were tied."""
        ps = pos[srt]
        tied = np.zeros(n, dtype=bool)
        eq = ps[1:] == ps[:-1]
        tied[1:] = eq
        tied[:-1] |= eq
        slots = np.flatnonzero(tied)
        if not len(slots):
            return 0
        o = srt[slots]
        o = o[np.argsort(pos[o].astype(np.int64) * scale + key[o],
                         kind="stable")]
        srt[slots] = o
        po, ko = pos[o], key[o]
        j = np.arange(len(o), dtype=np.int32)
        grp = np.r_[True, po[1:] != po[:-1]]
        sub = grp.copy()
        sub[1:] |= ko[1:] != ko[:-1]
        pos[o] = po + np.maximum.accumulate(np.where(sub, j, 0)) \
            - np.maximum.accumulate(np.where(grp, j, 0))
        return len(o)

    # Chains of creation times, doubling the compared length each pass.
    while refine(pos[up[:n]]) and (up[:n] < n).any():
        up = up[up]
    # Equal chains: the creation index decides among a creator's events.
    up[:n] = np.where(roots, n + idx, creator)
    tied = n + 1
    while 0 < refine(pos[up[:n]] * 2 + (idx > 0)) < tied:
        ps = pos[srt]
        eq = ps[1:] == ps[:-1]
        tied = int(eq.sum() + (eq[1:] & ~eq[:-1]).sum() + eq[0])
    return pos[:n] - w


def creators(sched: "Schedule", t: np.ndarray, arr: np.ndarray,
              order: np.ndarray) -> Optional[tuple]:
    """``(creating event, creation index)`` of every event (deliveries
    after the resumes), for :func:`pop_order`: the entries were made
    before all of them, in heap ``order``.  None if a receive's
    message lands exactly when it is posted: whether it was
    mailboxed first would hang on seqs."""
    rcv = np.sort(sched.m_rcv)
    landed = arr[sched.inm[rcv]]
    if (landed == t[rcv]).any():
        return None
    waited = rcv[landed > t[rcv]]
    n_ev = sched.n_ev
    first = sched.first
    creator = np.empty(n_ev + sched.n_msg, dtype=np.int32)
    creator[:n_ev] = np.arange(-1, n_ev - 1)
    creator[waited + 1] = n_ev + sched.inm[waited]
    creator[first] = -1
    creator[n_ev:] = sched.m_ev
    idx = np.zeros(n_ev + sched.n_msg, dtype=np.int32)
    idx[:n_ev] = sched.levels()[2]
    idx[waited + 1] = 0
    idx[first] = order
    return creator, idx


def evaluate(sched: "Schedule", t0: List[float], order: np.ndarray,
             columns: Callable, ingress_free: List[float]
             ) -> Optional[SimpleNamespace]:
    """Evaluate a round table from entry times ``t0`` (entries in heap
    ``order``): event times, arrivals, send completions, columns,
    ingress order and each event's creator, or None when that
    cannot be proven exact.

    Levels run in order with the scalar path's float chain.  A
    message's ingress starts after the previous message into the
    same destination, and "previous" means "dispatched earlier":
    the first pass assumes table order, and a pass that orders some
    destination differently is re-run with the new order (a
    predecessor evaluated later in the pass contributes its last
    pass's arrival) until the order and every value it used are
    stable, or a pass limit falls back.  Dispatches at equal times
    into one destination go in heap pop order (:func:`pop_order`).
    """
    first, inm, out = sched.first, sched.inm, sched.out
    m_ev, m_dst = sched.m_ev, sched.m_dst
    try:
        levels, ing, _ = sched.levels()
    except ValueError:
        return None  # a collective that deadlocks: expanded, it raises
    secs = np.array([x.seconds if x.__class__ is Compute else 0.0
                     for x in sched.locals] + [0.0])[sched.local]
    at = np.cumsum([0] + [c for c, _ in sched.m_nb])
    cols = tuple(np.concatenate(col) for col in zip(*(
        columns(sched.m_src[a:b], m_dst[a:b], nb)
        for a, b, (_, nb) in zip(at[:-1], at[1:], sched.m_nb)
    )))
    lat, ser, rdzv, shm, hops, eps, epr = cols
    free = np.array(ingress_free)
    on_link = ~shm
    ing = ing[on_link[ing]]
    t = np.empty(sched.n_ev)
    t[first] = t0
    arr = np.zeros(sched.n_msg)
    sdone = np.empty(sched.n_msg)
    used = np.empty(sched.n_msg)
    for _ in range(MAX_INGRESS_PASSES):
        d = m_dst[ing]
        head_of_dest = np.r_[True, d[1:] != d[:-1]]
        pred = np.full(sched.n_msg, -1, dtype=np.int32)
        pred[ing[1:]] = np.where(head_of_dest[1:], -1, ing[:-1])
        for groups, batches in levels:
            if groups:
                e_loc, e_snd, e_rcv, e_sr = groups
                if len(e_loc):
                    p = e_loc - 1
                    t[e_loc] = t[p] + secs[p]
                if len(e_snd):
                    t[e_snd] = sdone[out[e_snd - 1]]
                if len(e_rcv):
                    p = e_rcv - 1
                    m = inm[p]
                    t[e_rcv] = np.maximum(t[p], arr[m]) + epr[m]
                if len(e_sr):
                    p = e_sr - 1
                    m = inm[p]
                    t[e_sr] = np.maximum(
                        np.maximum(sdone[out[p]], t[p]), arr[m]
                    ) + epr[m]
            for b in batches:
                inject = t[m_ev[b]] + eps[b]
                head = inject + lat[b]
                q = pred[b]
                busy = np.where(q < 0, free[m_dst[b]], arr[q])
                used[b] = busy
                a = np.where(
                    on_link[b], np.maximum(head, busy), head
                ) + ser[b]
                arr[b] = a
                sdone[b] = np.where(rdzv[b], a, inject)
        made = creators(sched, t, arr, order)
        if made is None:
            return None
        sent_at = t[m_ev]
        new = ing[np.lexsort((sent_at[ing], m_dst[ing]))]
        d = m_dst[new]
        same = d[1:] == d[:-1]
        rank = None
        if (sent_at[new[1:]][same] == sent_at[new[:-1]][same]).any():
            rank = pop_order(np.concatenate((t, arr)), *made)
            new = ing[np.lexsort((rank[m_ev[ing]], m_dst[ing]))]
        linked = pred >= 0
        if (new == ing).all() and (
            used[linked] == arr[pred[linked]]
        ).all():
            return SimpleNamespace(
                sched=sched, t=t, arr=arr, sdone=sdone, ing=ing,
                cols=(ser, rdzv, shm, hops), creator=made[0],
                idx=made[1], rank=rank,
            )
        ing = new
    return None

