"""Roofline performance model.

The paper's two quantitative performance claims both live on a roofline:

* Fig. 1 — ``axpy`` is strongly memory-bound (arithmetic intensity of
  2 flops per 3 accesses), so its GFLOPS track the bandwidth roof of
  whichever memory level holds the working set;
* Fig. 5 / §III-B — "As ShallowWaters.jl is a memory-bound application
  it benefits from Float16 on A64FX even without vectorization and
  approaches 4x speedups over Float64": halving the element size halves
  the traffic, which doubles memory-bound performance.

:class:`Roofline` evaluates ``min(compute roof, bandwidth roof x AI)``
for a kernel on a chip, per format, with the working-set-dependent
bandwidth from :class:`~repro.machine.memory.MemoryHierarchy`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ftypes.formats import FloatFormat
from ..obs.trace import get_recorder
from .memory import MemoryHierarchy
from .specs import A64FX, ChipSpec

__all__ = ["KernelTraffic", "Roofline", "RooflinePoint"]


@dataclass(frozen=True)
class KernelTraffic:
    """Per-element flop and traffic counts of a streaming kernel.

    ``loads``/``stores`` are in *elements* per iteration element; byte
    traffic is derived from the format.  For ``axpy``:
    ``flops=2, loads=2, stores=1``.
    """

    name: str
    flops: float
    loads: float
    stores: float

    def arithmetic_intensity(self, fmt: FloatFormat) -> float:
        """Flops per byte of traffic at the given format."""
        bytes_per_elem = (self.loads + self.stores) * fmt.bytes
        if bytes_per_elem == 0:
            return float("inf")
        return self.flops / bytes_per_elem


@dataclass(frozen=True)
class RooflinePoint:
    """Result of a roofline evaluation."""

    flops_per_second: float
    compute_roof: float
    memory_roof: float
    bound: str  # "compute" or "memory"
    level_name: str

    @property
    def gflops(self) -> float:
        return self.flops_per_second / 1e9


class Roofline:
    """Single-core roofline evaluator for a chip."""

    def __init__(self, chip: ChipSpec = A64FX):
        self.chip = chip
        self.memory = MemoryHierarchy(chip)

    def evaluate(
        self,
        kernel: KernelTraffic,
        fmt: FloatFormat,
        n: int,
        compute_efficiency: float = 1.0,
        vector_bits: int | None = None,
    ) -> RooflinePoint:
        """Attainable flops/s for ``n`` elements of ``fmt``.

        ``compute_efficiency`` scales the compute roof (library quality);
        ``vector_bits`` caps the vector width actually used by the code
        (e.g. 128 for a NEON-only build — the OpenBLAS/ARMPL story).
        """
        if n <= 0:
            raise ValueError("n must be positive")
        width = vector_bits if vector_bits is not None else self.chip.vector_bits
        width = min(width, self.chip.vector_bits)
        width_frac = width / self.chip.vector_bits
        compute_roof = (
            self.chip.peak_flops_core(fmt) * compute_efficiency * width_frac
        )

        working_set = int(n * (kernel.loads + kernel.stores) * fmt.bytes)
        load_bytes = n * kernel.loads * fmt.bytes
        store_bytes = n * kernel.stores * fmt.bytes
        t_mem = self.memory.stream_time(load_bytes, store_bytes, working_set)
        total_flops = n * kernel.flops
        memory_roof = total_flops / t_mem if t_mem > 0 else float("inf")

        attainable = min(compute_roof, memory_roof)
        bound = "compute" if compute_roof <= memory_roof else "memory"
        rec = get_recorder()
        if rec is not None:
            rec.count("roofline.evaluations")
            rec.count(f"roofline.bound.{bound}")
            rec.observe("roofline.ceiling_gflops", attainable / 1e9)
        return RooflinePoint(
            flops_per_second=attainable,
            compute_roof=compute_roof,
            memory_roof=memory_roof,
            bound=bound,
            level_name=self.memory.effective_bandwidth(working_set).level_name,
        )

    def ridge_intensity(self, fmt: FloatFormat, working_set: int) -> float:
        """Arithmetic intensity (flops/byte) where the roofs cross."""
        bw = self.memory.effective_bandwidth(working_set)
        return self.chip.peak_flops_core(fmt) / bw.load_bps
