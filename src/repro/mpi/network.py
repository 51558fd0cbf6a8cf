"""TofuD link/latency/protocol model.

Timing parameters follow published Fugaku measurements (paper ref. [18],
R-CCS "Basic Performance of Fujitsu MPI on Fugaku"):

* zero-byte inter-node ping-pong latency just under 1 µs;
* per-link injection bandwidth 6.8 GB/s (Tofu-D, 4 lanes x 28 Gbps);
* per-hop switching delay of roughly 100 ns;
* eager→rendezvous protocol switch around 32 KiB (Fujitsu MPI default),
  visible as a latency step in the IMB curves;
* intra-node (shared-memory) transfers: ~0.2 µs latency, ~20 GB/s.

:class:`TofuDNetwork` turns a message (src, dst, nbytes) into wire time;
sender/receiver software costs live in :mod:`repro.mpi.bindings` because
they are a property of the *binding* (MPI.jl vs IMB C), not the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .faults import FaultPlan
from .topology import TofuDTopology

__all__ = ["TofuDNetwork", "WireTiming"]


@dataclass(frozen=True)
class WireTiming:
    """Breakdown of one message's wire traversal.

    ``latency_seconds`` is the head-of-message flight time (propagation +
    per-hop switching + protocol handshake); ``serial_seconds`` is the
    body's serialisation time on the destination link.  The engine keeps
    per-rank ingress channels busy for ``serial_seconds``, which is what
    makes fan-in patterns (the linear Gatherv of Fig. 3) bandwidth-bound
    at the root.
    """

    seconds: float
    hops: int
    protocol: str  # "eager" | "rendezvous" | "shm"
    latency_seconds: float = 0.0
    serial_seconds: float = 0.0


@dataclass(frozen=True)
class TofuDNetwork:
    """Wire-time model over a :class:`TofuDTopology`."""

    topology: TofuDTopology
    #: base inter-node hardware latency (NIC-to-NIC, zero hops), seconds.
    base_latency: float = 0.55e-6
    #: additional delay per torus hop, seconds.
    per_hop_latency: float = 0.1e-6
    #: per-link bandwidth, bytes/second.
    link_bandwidth: float = 6.8e9
    #: eager→rendezvous switch, bytes.  Messages up to the L1 size go
    #: through the copied eager path — which is exactly the range where
    #: Fig. 2 shows the warm-buffer advantage of MPI.jl; beyond it the
    #: zero-copy rendezvous path makes the bindings indistinguishable.
    eager_threshold: int = 64 * 1024
    #: extra rendezvous handshake cost: one small-message round trip.
    rendezvous_overhead: float = 1.2e-6
    #: intra-node latency and bandwidth.
    shm_latency: float = 0.2e-6
    shm_bandwidth: float = 20e9
    #: deterministic fault model; degraded links multiply latency and
    #: divide bandwidth per (seeded) node pair.  None = healthy network.
    faults: Optional[FaultPlan] = None

    # ------------------------------------------------------------------
    def protocol_for(self, src: int, dst: int, nbytes: int) -> str:
        if self.topology.same_node(src, dst):
            return "shm"
        return "eager" if nbytes <= self.eager_threshold else "rendezvous"

    def wire_time(
        self, src: int, dst: int, nbytes: int, hops: Optional[int] = None
    ) -> WireTiming:
        """Time from injection at ``src`` to arrival at ``dst``.

        ``hops`` lets a caller supply a precomputed hop count (the
        engine's dense hop matrix); the timing formula is unchanged.
        """
        if src == dst:
            return WireTiming(0.0, 0, "shm")
        protocol = self.protocol_for(src, dst, nbytes)
        if protocol == "shm":
            lat = self.shm_latency
            ser = nbytes / self.shm_bandwidth
            return WireTiming(lat + ser, 0, "shm", lat, ser)
        if hops is None:
            hops = self.topology.hops(src, dst)
        lat = self.base_latency + hops * self.per_hop_latency
        if protocol == "rendezvous":
            lat += self.rendezvous_overhead
        ser = nbytes / self.link_bandwidth
        if self.faults is not None and self.faults.any_link_faults:
            lat_mult, ser_mult = self.faults.link_multipliers(
                self.topology.node_of_rank(src),
                self.topology.node_of_rank(dst),
            )
            lat *= lat_mult
            ser *= ser_mult
        return WireTiming(lat + ser, hops, protocol, lat, ser)

    def peak_throughput(self) -> float:
        """Asymptotic point-to-point bandwidth (bytes/s)."""
        return self.link_bandwidth
