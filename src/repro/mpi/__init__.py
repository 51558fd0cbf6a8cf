"""MPI + TofuD simulation substrate (Figs. 2-3).

* topology:    :class:`TofuDTopology` — Fugaku's 6-D torus
* network:     :class:`TofuDNetwork` — wire latency/bandwidth/protocols
* bindings:    ``IMB_C`` vs ``MPI_JL`` software-cost profiles
* simulator:   :class:`Engine` — deterministic discrete-event engine
               (the reference semantics)
* batched:     :class:`~repro.mpi.batched.BatchedEngine` — the event
               core every :class:`MPIWorld` runs
* schedules:   compiled round tables of payload-free collectives
* comm:        :class:`MPIWorld` / :class:`Comm` — mpi4py-style surface
* collectives: real message-flow algorithms (allreduce/reduce/gatherv/...)
* benchsuite:  IMB / MPIBenchmarks.jl-equivalent drivers
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "TofuDTopology": "topology",
    "TofuDNetwork": "network",
    "WireTiming": "network",
    "BindingProfile": "bindings",
    "IMB_C": "bindings",
    "MPI_JL": "bindings",
    "MPI_JL_CACHE_AVOIDING": "bindings",
    "Engine": "simulator",
    "EngineStats": "simulator",
    "DeadlockError": "simulator",
    "RankFailedError": "simulator",
    "FaultPlan": "faults",
    "FAULT_PRESETS": "faults",
    "parse_fault_spec": "faults",
    "fault_drift_report": "faults",
    "active_plan": "faults",
    "get_active_plan": "faults",
    "set_active_plan": "faults",
    "Send": "simulator",
    "Recv": "simulator",
    "SendRecv": "simulator",
    "Isend": "simulator",
    "Irecv": "simulator",
    "Wait": "simulator",
    "Waitall": "simulator",
    "Compute": "simulator",
    "Now": "simulator",
    "Collective": "simulator",
    "Comm": "comm",
    "MPIWorld": "comm",
    "barrier_dissemination": "collectives",
    "bcast_binomial": "collectives",
    "reduce_binomial": "collectives",
    "allreduce_recursive_doubling": "collectives",
    "allreduce_ring": "collectives",
    "allreduce_rabenseifner": "collectives",
    "allreduce_auto": "collectives",
    "gatherv_linear": "collectives",
    "scatterv_linear": "collectives",
    "allgather_bruck": "collectives",
    "alltoall_pairwise": "collectives",
    "ReduceOp": "reductions",
    "SUM": "reductions",
    "PROD": "reductions",
    "MIN": "reductions",
    "MAX": "reductions",
    "LAND": "reductions",
    "LOR": "reductions",
    "BUILTIN_OPS": "reductions",
    "custom_op": "reductions",
    "CustomOperatorUnsupported": "reductions",
    "OperatorSupport": "reductions",
    "reduce_with_fallback": "reductions",
    "AllreduceBench": "benchsuite",
    "ReduceBench": "benchsuite",
    "GathervBench": "benchsuite",
    "BcastBench": "benchsuite",
    "AllgatherBench": "benchsuite",
    "AlltoallBench": "benchsuite",
    "BarrierBench": "benchsuite",
    "PingPing": "benchsuite",
    "PingPong": "benchsuite",
    "BenchResult": "benchsuite",
    "default_message_sizes": "benchsuite",
    "run_comparison": "benchsuite",
    "JobSpec": "jobscript",
    "pingpong_script": "jobscript",
    "collective_script": "jobscript",
    "parse_resources": "jobscript",
})
