"""Collective algorithms as real message flows (Fig. 3's operations).

Each collective is a generator function suitable for use inside a rank
program via ``yield from``; it exchanges actual payloads (when given)
and its latency emerges from the simulated sends/receives:

* :func:`barrier_dissemination` — log2(p) rounds of pairwise exchange;
* :func:`bcast_binomial` — binomial broadcast tree;
* :func:`reduce_binomial` — binomial reduction tree (MPI_Reduce);
* :func:`allreduce_recursive_doubling` — the classic power-of-two
  algorithm with the MPICH-style fold-in for non-power-of-two counts
  (1536 = 3 x 2^9 needs it);
* :func:`allreduce_ring` — reduce-scatter + allgather, bandwidth-optimal
  for large messages;
* :func:`allreduce_auto` — size-based algorithm selection, as Fujitsu
  MPI does (the paper finds *no* large-message Allreduce cliff on
  Fugaku, unlike ref. [16] on x86 clusters);
* :func:`gatherv_linear` — root receives from every rank in turn
  (Gatherv cannot use a tree: only the root knows all the counts).

Payloads may be ``None`` (pure-timing mode for 1536-rank benchmarks);
reduction arithmetic is then skipped but its *time* is still charged via
``Compute``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Generator, List, Optional

from .simulator import Compute, Mark, Recv, Send, SendRecv

__all__ = [
    "barrier_dissemination",
    "bcast_binomial",
    "reduce_binomial",
    "allreduce_recursive_doubling",
    "allreduce_ring",
    "allreduce_rabenseifner",
    "allreduce_auto",
    "gatherv_linear",
    "scatterv_linear",
    "allgather_bruck",
    "alltoall_pairwise",
    "DEFAULT_REDUCE_BW",
    "LARGE_ALLREDUCE",
]

#: Local reduction arithmetic bandwidth (bytes/s) — a single A64FX core
#: streaming two operands and writing one (memory-bound add).
DEFAULT_REDUCE_BW = 10e9

#: :func:`allreduce_auto` switches from recursive doubling to
#: Rabenseifner above this many bytes.
LARGE_ALLREDUCE = 256 * 1024

ReduceOp = Callable[[Any, Any], Any]


def _reduce_time(nbytes: int) -> float:
    return nbytes / DEFAULT_REDUCE_BW


def _combine(op: Optional[ReduceOp], a: Any, b: Any) -> Any:
    if a is None or b is None or op is None:
        return None
    return op(a, b)


# ---------------------------------------------------------------------------
def barrier_dissemination(rank: int, size: int, tag_base: int = 900) -> Generator:
    """Dissemination barrier: ceil(log2 p) zero-byte exchange rounds."""
    if size == 1:
        return
    rounds = math.ceil(math.log2(size))
    for k in range(rounds):
        dist = 1 << k
        dest = (rank + dist) % size
        source = (rank - dist) % size
        yield SendRecv(
            dest=dest,
            send_nbytes=0,
            source=source,
            send_tag=tag_base + k,
            recv_tag=tag_base + k,
        )


# ---------------------------------------------------------------------------
def bcast_binomial(
    rank: int,
    size: int,
    root: int,
    nbytes: int,
    value: Any = None,
    tag: int = 100,
) -> Generator:
    """Binomial-tree broadcast; returns the broadcast value."""
    if size == 1:
        return value
    vrank = (rank - root) % size  # virtual rank: root becomes 0
    # Receive from parent (unless root).
    if vrank != 0:
        # Parent: clear the lowest set bit.
        parent_v = vrank & (vrank - 1)
        parent = (parent_v + root) % size
        value = yield Recv(source=parent, tag=tag)
    # Forward to children: set bits above the lowest set bit.
    mask = 1
    while mask < size:
        if vrank & (mask - 1) == 0 and vrank | mask != vrank:
            child_v = vrank | mask
            if child_v < size:
                child = (child_v + root) % size
                yield Send(dest=child, nbytes=nbytes, payload=value, tag=tag)
        mask <<= 1
    return value


# ---------------------------------------------------------------------------
def reduce_binomial(
    rank: int,
    size: int,
    root: int,
    nbytes: int,
    value: Any,
    op: Optional[ReduceOp] = None,
    tag: int = 200,
) -> Generator:
    """Binomial-tree reduction to ``root``; returns the result at root,
    ``None`` elsewhere."""
    if size == 1:
        return value
    vrank = (rank - root) % size
    acc = value
    mask = 1
    while mask < size:
        if vrank & mask:
            parent_v = vrank & ~mask
            parent = (parent_v + root) % size
            yield Send(dest=parent, nbytes=nbytes, payload=acc, tag=tag)
            return None
        partner_v = vrank | mask
        if partner_v < size:
            partner = (partner_v + root) % size
            other = yield Recv(source=partner, tag=tag)
            yield Compute(_reduce_time(nbytes))
            acc = _combine(op, acc, other)
        mask <<= 1
    return acc if vrank == 0 else None


# ---------------------------------------------------------------------------
def allreduce_recursive_doubling(
    rank: int,
    size: int,
    nbytes: int,
    value: Any,
    op: Optional[ReduceOp] = None,
    tag: int = 300,
) -> Generator:
    """Recursive-doubling Allreduce with non-power-of-two fold-in.

    With ``p = 2^k + r``: the first ``2r`` ranks pair up — evens send
    their contribution to the following odd rank and drop out; the
    remaining ``2^k`` ranks run k rounds of pairwise exchange-and-
    combine; finally the folded-out evens get the result back.
    """
    if size == 1:
        return value
    k = size.bit_length() - 1
    pof2 = 1 << k
    rem = size - pof2
    acc = value
    new_rank: Optional[int]

    if rank < 2 * rem:
        if rank % 2 == 0:  # fold out
            yield Send(dest=rank + 1, nbytes=nbytes, payload=acc, tag=tag)
            new_rank = None
        else:  # fold in
            other = yield Recv(source=rank - 1, tag=tag)
            yield Compute(_reduce_time(nbytes))
            acc = _combine(op, acc, other)
            new_rank = rank // 2
    else:
        new_rank = rank - rem

    if new_rank is not None:
        yield Mark("allreduce.exchange", info={"rounds": k, "nbytes": nbytes})
        for round_ in range(k):
            partner_new = new_rank ^ (1 << round_)
            partner = (
                partner_new * 2 + 1 if partner_new < rem else partner_new + rem
            )
            other = yield SendRecv(
                dest=partner,
                send_nbytes=nbytes,
                source=partner,
                send_payload=acc,
                send_tag=tag + 1 + round_,
                recv_tag=tag + 1 + round_,
            )
            yield Compute(_reduce_time(nbytes))
            acc = _combine(op, acc, other)

    # Return results to the folded-out even ranks.
    if rank < 2 * rem:
        if rank % 2 == 1:
            yield Send(dest=rank - 1, nbytes=nbytes, payload=acc, tag=tag + 64)
        else:
            acc = yield Recv(source=rank + 1, tag=tag + 64)
    return acc


# ---------------------------------------------------------------------------
def allreduce_ring(
    rank: int,
    size: int,
    nbytes: int,
    value: Any,
    op: Optional[ReduceOp] = None,
    tag: int = 400,
) -> Generator:
    """Ring Allreduce: reduce-scatter then allgather (2(p-1) steps of
    ``nbytes/p`` each) — bandwidth-optimal for large messages."""
    if size == 1:
        return value
    chunk = max(1, nbytes // size)
    acc = value
    right = (rank + 1) % size
    left = (rank - 1) % size
    # Reduce-scatter phase: p-1 shifted chunk exchanges.
    yield Mark("ring.reduce_scatter", info={"steps": size - 1, "chunk": chunk})
    for step in range(size - 1):
        got = yield SendRecv(
            dest=right,
            send_nbytes=chunk,
            source=left,
            send_payload=None,
            send_tag=tag + step,
            recv_tag=tag + step,
        )
        yield Compute(_reduce_time(chunk))
    # Allgather phase.
    yield Mark("ring.allgather", info={"steps": size - 1, "chunk": chunk})
    for step in range(size - 1):
        got = yield SendRecv(
            dest=right,
            send_nbytes=chunk,
            source=left,
            send_payload=None,
            send_tag=tag + size + step,
            recv_tag=tag + size + step,
        )
    # The chunked data flow above is timing-exact but does not carry the
    # actual payload (that would need array slicing); compute the value
    # functionally with one final exchange-free combine when payloads
    # are in play.
    if value is not None and op is not None:
        acc = yield from allreduce_recursive_doubling(
            rank, size, 0, value, op, tag=tag + 2 * size + 8
        )
    return acc


def allreduce_rabenseifner(
    rank: int,
    size: int,
    nbytes: int,
    value: Any,
    op: Optional[ReduceOp] = None,
    tag: int = 600,
) -> Generator:
    """Rabenseifner's Allreduce: recursive-halving reduce-scatter followed
    by recursive-doubling allgather.

    Bandwidth-optimal like the ring (each phase moves ~``nbytes`` total
    per rank) but in ``2 log2 p`` steps instead of ``2(p-1)`` — the
    large-message algorithm of MPICH/Fujitsu MPI, and the reason the
    paper sees *no* Allreduce cliff at large sizes on Fugaku.
    Non-power-of-two counts use the same fold-in as recursive doubling.
    """
    if size == 1:
        return value
    k = size.bit_length() - 1
    pof2 = 1 << k
    rem = size - pof2
    acc = value
    new_rank: Optional[int]

    if rank < 2 * rem:
        if rank % 2 == 0:
            yield Send(dest=rank + 1, nbytes=nbytes, payload=acc, tag=tag)
            new_rank = None
        else:
            other = yield Recv(source=rank - 1, tag=tag)
            yield Compute(_reduce_time(nbytes))
            acc = _combine(op, acc, other)
            new_rank = rank // 2
    else:
        new_rank = rank - rem

    def old_rank(nr: int) -> int:
        return nr * 2 + 1 if nr < rem else nr + rem

    if new_rank is not None:
        # Reduce-scatter by recursive halving: exchanged chunk shrinks
        # by half each round.
        yield Mark("rabenseifner.reduce_scatter", info={"rounds": k})
        chunk = nbytes
        for round_ in range(k):
            chunk = max(1, chunk // 2) if nbytes else 0
            partner = old_rank(new_rank ^ (1 << (k - 1 - round_)))
            yield SendRecv(
                dest=partner,
                send_nbytes=chunk,
                source=partner,
                send_tag=tag + 1 + round_,
                recv_tag=tag + 1 + round_,
            )
            yield Compute(_reduce_time(chunk))
        # Allgather by recursive doubling: chunk grows back.
        yield Mark("rabenseifner.allgather", info={"rounds": k})
        for round_ in range(k):
            partner = old_rank(new_rank ^ (1 << round_))
            yield SendRecv(
                dest=partner,
                send_nbytes=chunk,
                source=partner,
                send_tag=tag + 32 + round_,
                recv_tag=tag + 32 + round_,
            )
            chunk = min(nbytes, chunk * 2)

    if rank < 2 * rem:
        if rank % 2 == 1:
            yield Send(dest=rank - 1, nbytes=nbytes, payload=acc, tag=tag + 64)
        else:
            acc = yield Recv(source=rank + 1, tag=tag + 64)
    # Functional result: the timing flow above moves chunks, not the
    # payload; combine values with a zero-byte recursive doubling.
    if value is not None and op is not None:
        acc = yield from allreduce_recursive_doubling(
            rank, size, 0, value, op, tag=tag + 96
        )
    return acc


def allreduce_auto(
    rank: int,
    size: int,
    nbytes: int,
    value: Any,
    op: Optional[ReduceOp] = None,
    large_threshold: int = LARGE_ALLREDUCE,
) -> Generator:
    """Size-based algorithm selection (latency- vs bandwidth-optimal)."""
    if nbytes <= large_threshold or size <= 2:
        return (
            yield from allreduce_recursive_doubling(rank, size, nbytes, value, op)
        )
    return (yield from allreduce_rabenseifner(rank, size, nbytes, value, op))


# ---------------------------------------------------------------------------
def allgather_bruck(
    rank: int,
    size: int,
    nbytes: int,
    value: Any,
    tag: int = 700,
) -> Generator:
    """Bruck's Allgather: ceil(log2 p) rounds of doubling block counts.

    After round k each rank holds ``min(2^(k+1), p)`` blocks; round k
    ships the blocks collected so far to ``rank - 2^k`` and receives as
    many from ``rank + 2^k`` (the final round ships only what's
    missing).  Works for any p, not just powers of two.  Returns the
    per-rank values in rank order (``None`` in pure-timing mode).
    """
    if size == 1:
        return [value]
    timing_only = value is None
    blocks: List[Any] = [(rank, value)]
    k = 0
    while len(blocks) < size:
        have = len(blocks)
        send_n = min(have, size - have)
        dest = (rank - have) % size
        source = (rank + have) % size
        got = yield SendRecv(
            dest=dest,
            send_nbytes=nbytes * send_n,
            source=source,
            send_payload=None if timing_only else blocks[:send_n],
            send_tag=tag + k,
            recv_tag=tag + k,
        )
        blocks.extend(got if got is not None else [None] * send_n)
        k += 1
    if timing_only:
        return None
    out: List[Any] = [None] * size
    for r, v in blocks:
        out[r] = v
    return out


def scatterv_linear(
    rank: int,
    size: int,
    root: int,
    nbytes: int,
    values: Optional[List[Any]] = None,
    tag: int = 560,
) -> Generator:
    """Linear Scatterv: the root sends each rank its block (the inverse
    of :func:`gatherv_linear`, same per-rank-counts constraint that
    prevents tree optimisation).  Returns this rank's block.
    """
    if size == 1:
        return values[0] if values is not None else None
    if rank == root:
        for dest in range(size):
            if dest == root:
                continue
            yield Send(
                dest=dest,
                nbytes=nbytes,
                payload=None if values is None else values[dest],
                tag=tag,
            )
        return values[root] if values is not None else None
    return (yield Recv(source=root, tag=tag))


def alltoall_pairwise(
    rank: int,
    size: int,
    nbytes: int,
    values: Optional[List[Any]] = None,
    tag: int = 760,
) -> Generator:
    """Pairwise-exchange Alltoall: p-1 rounds, round k exchanging with
    ``rank XOR k``-style partners (here the shifted pairing, correct for
    any p).  ``values[i]`` is this rank's block for rank ``i``; returns
    the blocks received, in source-rank order.
    """
    out: List[Any] = [None] * size
    if values is not None:
        out[rank] = values[rank]
    if size == 1:
        return out if values is not None else None
    for step in range(1, size):
        dest = (rank + step) % size
        source = (rank - step) % size
        got = yield SendRecv(
            dest=dest,
            send_nbytes=nbytes,
            source=source,
            send_payload=None if values is None else values[dest],
            send_tag=tag + step,
            recv_tag=tag + step,
        )
        out[source] = got
    return out if values is not None else None


def gatherv_linear(
    rank: int,
    size: int,
    root: int,
    nbytes: int,
    value: Any,
    tag: int = 500,
) -> Generator:
    """Linear Gatherv: every rank sends its block to the root.

    Returns the list of per-rank values at the root, ``None`` elsewhere.
    The linear pattern is what IMB's Gatherv measures (per-rank counts
    prevent tree optimisation), so root latency grows ~linearly with
    both p and message size — the Fig. 3 middle panel.
    """
    if size == 1:
        return [value]
    if rank == root:
        yield Mark("gatherv.gather", info={"sources": size - 1, "nbytes": nbytes})
        out: List[Any] = [None] * size
        out[root] = value
        for src in range(size):
            if src == root:
                continue
            out[src] = yield Recv(source=src, tag=tag)
        return out
    yield Send(dest=root, nbytes=nbytes, payload=value, tag=tag)
    return None
