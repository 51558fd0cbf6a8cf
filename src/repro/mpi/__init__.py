"""MPI + TofuD simulation substrate (Figs. 2-3).

* topology:    :class:`TofuDTopology` — Fugaku's 6-D torus
* network:     :class:`TofuDNetwork` — wire latency/bandwidth/protocols
* bindings:    ``IMB_C`` vs ``MPI_JL`` software-cost profiles
* simulator:   :class:`Engine` — deterministic discrete-event engine
               (the reference semantics)
* batched:     :class:`~repro.mpi.batched.BatchedEngine` — the event
               core every :class:`MPIWorld` runs
* comm:        :class:`MPIWorld` / :class:`Comm` — mpi4py-style surface
* collectives: real message-flow algorithms (allreduce/reduce/gatherv/...)
* benchsuite:  IMB / MPIBenchmarks.jl-equivalent drivers
"""

from .topology import TofuDTopology
from .network import TofuDNetwork, WireTiming
from .bindings import BindingProfile, IMB_C, MPI_JL, MPI_JL_CACHE_AVOIDING
from .faults import (
    FAULT_PRESETS,
    FaultPlan,
    active_plan,
    fault_drift_report,
    get_active_plan,
    parse_fault_spec,
    set_active_plan,
)
from .simulator import (
    Compute,
    DeadlockError,
    Engine,
    EngineStats,
    RankFailedError,
    Irecv,
    Isend,
    Now,
    Recv,
    Send,
    SendRecv,
    Wait,
    Waitall,
)
from .comm import Comm, MPIWorld
from .collectives import (
    allgather_bruck,
    alltoall_pairwise,
    allreduce_auto,
    allreduce_rabenseifner,
    allreduce_recursive_doubling,
    allreduce_ring,
    barrier_dissemination,
    bcast_binomial,
    gatherv_linear,
    reduce_binomial,
    scatterv_linear,
)
from .reductions import (
    BUILTIN_OPS,
    LAND,
    LOR,
    MAX,
    MIN,
    PROD,
    SUM,
    CustomOperatorUnsupported,
    OperatorSupport,
    ReduceOp,
    custom_op,
    reduce_with_fallback,
)
from .jobscript import (
    JobSpec,
    collective_script,
    parse_resources,
    pingpong_script,
)
from .benchsuite import (
    AllgatherBench,
    AlltoallBench,
    AllreduceBench,
    BarrierBench,
    BcastBench,
    BenchResult,
    GathervBench,
    PingPing,
    PingPong,
    ReduceBench,
    default_message_sizes,
    run_comparison,
)

__all__ = [
    "TofuDTopology",
    "TofuDNetwork",
    "WireTiming",
    "BindingProfile",
    "IMB_C",
    "MPI_JL",
    "MPI_JL_CACHE_AVOIDING",
    "Engine",
    "EngineStats",
    "DeadlockError",
    "RankFailedError",
    "FaultPlan",
    "FAULT_PRESETS",
    "parse_fault_spec",
    "fault_drift_report",
    "active_plan",
    "get_active_plan",
    "set_active_plan",
    "Send",
    "Recv",
    "SendRecv",
    "Isend",
    "Irecv",
    "Wait",
    "Waitall",
    "Compute",
    "Now",
    "Comm",
    "MPIWorld",
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
    "ReduceOp",
    "SUM",
    "PROD",
    "MIN",
    "MAX",
    "LAND",
    "LOR",
    "BUILTIN_OPS",
    "custom_op",
    "CustomOperatorUnsupported",
    "OperatorSupport",
    "reduce_with_fallback",
    "AllreduceBench",
    "ReduceBench",
    "GathervBench",
    "BcastBench",
    "AllgatherBench",
    "AlltoallBench",
    "BarrierBench",
    "PingPing",
    "PingPong",
    "BenchResult",
    "default_message_sizes",
    "run_comparison",
    "JobSpec",
    "pingpong_script",
    "collective_script",
    "parse_resources",
]
