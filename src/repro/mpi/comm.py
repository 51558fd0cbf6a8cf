"""High-level communicator API over the simulator (the MPI.jl analogue).

:class:`MPIWorld` assembles topology + network + binding and runs rank
programs; :class:`Comm` is the per-rank handle those programs use, with
an mpi4py-flavoured surface::

    def program(comm: Comm):
        if comm.rank == 0:
            yield comm.send(1, nbytes=8, payload=3.14)
        elif comm.rank == 1:
            x = yield comm.recv(0)
        total = yield from comm.allreduce(comm.rank, op=operator.add,
                                          nbytes=8)
        return total

    world = MPIWorld(nranks=8)
    results = world.run(program)

Everything a program yields is a simulator op; collectives are
``yield from`` sub-generators, exactly how MPIBenchmarks.jl layers on
MPI.jl.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from .batched import BatchedEngine
from .bindings import BindingProfile, IMB_C
from .faults import FaultPlan, get_active_plan
from .collectives import (
    allreduce_auto,
    scatterv_linear,
    allreduce_recursive_doubling,
    allreduce_ring,
    barrier_dissemination,
    bcast_binomial,
    gatherv_linear,
    reduce_binomial,
)
from .network import TofuDNetwork
from .simulator import (
    Compute,
    Irecv,
    Isend,
    Now,
    Recv,
    Send,
    SendRecv,
    Wait,
    Waitall,
)
from .topology import TofuDTopology

__all__ = ["Comm", "MPIWorld"]


@dataclass(frozen=True)
class Comm:
    """Per-rank communicator handle (COMM_WORLD equivalent)."""

    rank: int
    size: int

    # -- point-to-point -------------------------------------------------
    def send(
        self, dest: int, nbytes: int = 0, payload: Any = None, tag: int = 0
    ) -> Send:
        return Send(dest=dest, nbytes=nbytes, payload=payload, tag=tag)

    def recv(self, source: int, tag: int = 0) -> Recv:
        return Recv(source=source, tag=tag)

    def sendrecv(
        self,
        dest: int,
        send_nbytes: int,
        source: int,
        send_payload: Any = None,
        send_tag: int = 0,
        recv_tag: int = 0,
    ) -> SendRecv:
        return SendRecv(
            dest=dest,
            send_nbytes=send_nbytes,
            source=source,
            send_payload=send_payload,
            send_tag=send_tag,
            recv_tag=recv_tag,
        )

    # -- non-blocking -----------------------------------------------------
    def isend(
        self, dest: int, nbytes: int = 0, payload: Any = None, tag: int = 0
    ) -> Isend:
        """Non-blocking send; yields a request id (MPI_Isend)."""
        return Isend(dest=dest, nbytes=nbytes, payload=payload, tag=tag)

    def irecv(self, source: int, tag: int = 0) -> Irecv:
        """Non-blocking receive; yields a request id (MPI_Irecv)."""
        return Irecv(source=source, tag=tag)

    def wait(self, request: int) -> Wait:
        """Block on one request; yields its payload (MPI_Wait)."""
        return Wait(request=request)

    def waitall(self, requests) -> Waitall:
        """Block on several requests; yields payloads (MPI_Waitall)."""
        return Waitall(requests=tuple(requests))

    # -- local ------------------------------------------------------------
    def compute(self, seconds: float) -> Compute:
        return Compute(seconds=seconds)

    def now(self) -> Now:
        """Yield to read this rank's virtual clock (MPI_Wtime)."""
        return Now()

    # -- collectives ------------------------------------------------------
    def barrier(self) -> Generator:
        return barrier_dissemination(self.rank, self.size)

    def bcast(self, value: Any, root: int = 0, nbytes: int = 0) -> Generator:
        return bcast_binomial(self.rank, self.size, root, nbytes, value)

    def reduce(
        self,
        value: Any,
        op: Optional[Callable[[Any, Any], Any]] = None,
        root: int = 0,
        nbytes: int = 0,
    ) -> Generator:
        return reduce_binomial(self.rank, self.size, root, nbytes, value, op)

    def allreduce(
        self,
        value: Any,
        op: Optional[Callable[[Any, Any], Any]] = None,
        nbytes: int = 0,
        algorithm: str = "auto",
    ) -> Generator:
        if algorithm == "auto":
            return allreduce_auto(self.rank, self.size, nbytes, value, op)
        if algorithm == "recursive_doubling":
            return allreduce_recursive_doubling(
                self.rank, self.size, nbytes, value, op
            )
        if algorithm == "ring":
            return allreduce_ring(self.rank, self.size, nbytes, value, op)
        raise ValueError(f"unknown allreduce algorithm {algorithm!r}")

    def gatherv(self, value: Any, root: int = 0, nbytes: int = 0) -> Generator:
        return gatherv_linear(self.rank, self.size, root, nbytes, value)

    def scatterv(
        self, values: Optional[list] = None, root: int = 0, nbytes: int = 0
    ) -> Generator:
        """Scatter per-rank blocks from the root (MPI_Scatterv)."""
        return scatterv_linear(self.rank, self.size, root, nbytes, values)


class MPIWorld:
    """A simulated MPI job: allocation shape, network, language binding."""

    def __init__(
        self,
        nranks: int,
        ranks_per_node: int = 1,
        shape: Optional[Tuple[int, int, int]] = None,
        binding: BindingProfile = IMB_C,
        network: Optional[TofuDNetwork] = None,
        bindings_by_rank: Optional[Dict[int, BindingProfile]] = None,
        faults: Optional[FaultPlan] = None,
        recv_timeout: Optional[float] = None,
    ):
        # Explicit plan wins; otherwise inherit the process-wide active
        # plan (how `repro run --faults` reaches worlds built deep
        # inside the figure generators).  None = fault-free, bit-for-bit
        # the pre-fault behaviour.
        plan = faults if faults is not None else get_active_plan()
        if network is not None:
            if plan is not None and network.faults is None:
                network = replace(network, faults=plan)
            self.network = network
        else:
            if shape is not None:
                topo = TofuDTopology(global_shape=shape, ranks_per_node=ranks_per_node)
            else:
                topo = TofuDTopology.for_ranks(nranks, ranks_per_node)
            self.network = TofuDNetwork(topo, faults=plan)
        self.nranks = nranks
        self.binding = binding
        self.bindings_by_rank = bindings_by_rank
        self.faults = self.network.faults
        self.recv_timeout = recv_timeout

    def run(self, program: Callable[..., Generator], *args: Any) -> List[Any]:
        """Run ``program(comm, *args)`` on every rank; returns results.

        Traffic statistics of the run are left in :attr:`last_stats`.
        Faulted, traced, guarded and timed-out worlds take the
        engine's scalar path (see :mod:`repro.mpi.batched`).
        """
        engine = BatchedEngine(
            self.nranks,
            self.network,
            binding=self.binding,
            bindings_by_rank=self.bindings_by_rank,
            faults=self.faults,
            recv_timeout=self.recv_timeout,
        )
        results = engine.run(
            lambda r, n, *a: program(Comm(rank=r, size=n), *a), *args
        )
        self.last_stats = engine.stats
        return results
