"""Streaming-kernel time model — the generator of Fig. 1-style curves.

A roofline gives the asymptotic roof; measured curves like Fig. 1 also
show a *rise* at small sizes (call/loop startup amortisation) and
library-dependent plateaus.  :class:`StreamKernelModel` composes:

``time(n) = startup/clock + max(compute_time(n), memory_time(n))``

with

* ``compute_time`` from the chip's per-format peak, scaled by the code's
  effective vector width and efficiency (an :class:`ImplementationProfile`);
* ``memory_time`` from the working-set-aware
  :class:`~repro.machine.memory.MemoryHierarchy`.

The same model also produces whole-application runtimes for the
ShallowWaters Fig. 5 sweep via :meth:`StreamKernelModel.kernel_time`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..ftypes.formats import FloatFormat
from ..obs.trace import get_recorder
from .memory import MemoryHierarchy
from .roofline import KernelTraffic
from .specs import A64FX, ChipSpec

__all__ = ["ImplementationProfile", "StreamKernelModel", "KernelTiming"]


@dataclass(frozen=True)
class ImplementationProfile:
    """How well a particular *code* uses the hardware.

    This is the abstraction behind the Fig. 1 library comparison: every
    library runs the same mathematical kernel on the same chip; what
    differs is the vector ISA its build actually targets, its inner-loop
    efficiency, its call overhead, and which formats it implements at all.

    Parameters
    ----------
    name:
        Display name ("Julia", "FujitsuBLAS", ...).
    vector_bits:
        Effective SIMD width of the generated code.  ``None`` means the
        full hardware width (SVE 512 on A64FX); ``128`` models a
        NEON-only build (the OpenBLAS/ARMPL situation in Fig. 1).
    compute_efficiency:
        Fraction of the (width-scaled) compute roof achieved in-cache.
    stream_efficiency:
        Fraction of the memory-level bandwidth achieved when streaming.
    startup_cycles:
        Fixed per-call overhead (dispatch, PLT, argument checking...).
    supported_formats:
        Formats this implementation provides; ``None`` = all.  Fig. 1's
        half-precision panel exists *only* for Julia because none of the
        binary libraries ship a Float16 axpy.
    """

    name: str
    vector_bits: Optional[int] = None
    compute_efficiency: float = 1.0
    stream_efficiency: float = 1.0
    startup_cycles: float = 50.0
    supported_formats: Optional[tuple[FloatFormat, ...]] = None

    def supports(self, fmt: FloatFormat) -> bool:
        return self.supported_formats is None or fmt in self.supported_formats


@dataclass(frozen=True)
class KernelTiming:
    """Timing breakdown for one kernel invocation."""

    seconds: float
    startup_seconds: float
    compute_seconds: float
    memory_seconds: float
    flops: float
    level_name: str

    @property
    def gflops(self) -> float:
        return self.flops / self.seconds / 1e9

    @property
    def bound(self) -> str:
        return "compute" if self.compute_seconds >= self.memory_seconds else "memory"


class StreamKernelModel:
    """Time model for streaming kernels on one core of a chip."""

    def __init__(self, chip: ChipSpec = A64FX):
        self.chip = chip
        self.memory = MemoryHierarchy(chip)

    def kernel_time(
        self,
        kernel: KernelTraffic,
        fmt: FloatFormat,
        n: int,
        profile: ImplementationProfile,
        working_set_bytes: Optional[int] = None,
        subnormal_slowdown: float = 1.0,
    ) -> KernelTiming:
        """Predicted single-core time for ``n`` elements at ``fmt``.

        Raises :class:`ValueError` if the profile does not implement the
        format (the "no Float16 axpy outside Julia" case).
        """
        if n <= 0:
            raise ValueError("n must be positive")
        if not profile.supports(fmt):
            raise ValueError(f"{profile.name} has no {fmt.name} implementation")

        width = profile.vector_bits or self.chip.vector_bits
        width = min(width, self.chip.vector_bits)
        width_frac = width / self.chip.vector_bits

        peak = self.chip.peak_flops_core(fmt) * width_frac * profile.compute_efficiency
        total_flops = n * kernel.flops
        compute_t = total_flops / peak * subnormal_slowdown

        load_bytes = n * kernel.loads * fmt.bytes
        store_bytes = n * kernel.stores * fmt.bytes
        ws = (
            working_set_bytes
            if working_set_bytes is not None
            else int(load_bytes + store_bytes)
        )
        memory_t = (
            self.memory.stream_time(load_bytes, store_bytes, ws)
            / profile.stream_efficiency
        )

        startup_t = profile.startup_cycles / self.chip.clock_hz
        total = startup_t + max(compute_t, memory_t)
        timing = KernelTiming(
            seconds=total,
            startup_seconds=startup_t,
            compute_seconds=compute_t,
            memory_seconds=memory_t,
            flops=total_flops,
            level_name=self.memory.effective_bandwidth(ws).level_name,
        )
        rec = get_recorder()
        if rec is not None:
            rec.count("kernel.calls")
            rec.count(f"kernel.calls.{kernel.name}")
            rec.count("kernel.flops", total_flops)
            rec.count("kernel.bytes", load_bytes + store_bytes)
            rec.count(f"kernel.bound.{timing.bound}")
            rec.observe("kernel.gflops", timing.gflops)
        return timing

    def gflops_curve(
        self,
        kernel: KernelTraffic,
        fmt: FloatFormat,
        sizes: list[int],
        profile: ImplementationProfile,
    ) -> list[float]:
        """GFLOPS at each vector size — one Fig. 1 series."""
        return [
            self.kernel_time(kernel, fmt, n, profile).gflops for n in sizes
        ]
