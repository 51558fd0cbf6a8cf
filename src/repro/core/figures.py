"""Per-figure series generators: one function per paper artefact.

Each ``figN_*`` function regenerates the data behind the corresponding
figure of the paper and returns :class:`~repro.core.benchmark.SweepResult`
objects (plus, for Fig. 4, the actual simulated fields).  The pytest
benchmarks in ``benchmarks/`` call these and assert the paper's
qualitative claims; ``EXPERIMENTS.md`` records the rendered tables.

Sizes default to CI-friendly values; pass larger grids/sweeps for
paper-scale runs (e.g. ``fig4_turbulence(nx=3000, ny=1500)``).

Every figure is decomposed into independent *sweep points* so that the
execution engine in :mod:`repro.exec` can schedule them on a process
pool: ``figN_*_point`` computes a single point and ``assemble_figN``
rebuilds the full panel(s) from a list of point payloads.  The serial
generators below are written in terms of exactly those two halves,
which is what makes the parallel path byte-identical to the serial one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..blas.libraries import ALL_LIBRARIES, UnsupportedRoutineError
from ..ftypes.formats import FLOAT16, FLOAT32, FLOAT64, FloatFormat, lookup_format
from ..ir import (
    HALF,
    SoftFloatWideningPass,
    build_muladd,
    print_function,
)
from ..mpi.benchsuite import (
    AllreduceBench,
    GathervBench,
    PingPong,
    ReduceBench,
)
from ..mpi.bindings import IMB_C, MPI_JL
from ..shallowwaters.diagnostics import (
    normalized_rmse,
    pattern_correlation,
)
from ..shallowwaters.model import ShallowWaterModel
from ..shallowwaters.params import ShallowWaterParams
from ..shallowwaters.perf import SWRuntimeModel, VARIANTS, speedup_sweep
from .benchmark import Series, SweepResult
from .experiments import FIG3_BENCHES

__all__ = [
    "fig1_axpy",
    "fig1_axpy_point",
    "assemble_fig1",
    "fig2_pingpong",
    "fig2_pingpong_point",
    "assemble_fig2",
    "fig3_collectives",
    "fig3_collectives_point",
    "assemble_fig3",
    "fig4_turbulence",
    "fig4_field",
    "fig4_runtime_ratio",
    "assemble_fig4",
    "fig5_speedup",
    "fig5_speedup_point",
    "assemble_fig5",
    "listing_muladd",
    "Fig4Result",
    "FIG3_BENCHES",
]


# ---------------------------------------------------------------------------
# Fig. 1 — axpy GFLOPS vs size, per precision, per library
# ---------------------------------------------------------------------------
def fig1_axpy_point(fmt: FloatFormat | str, n: int) -> Dict[str, float]:
    """One Fig. 1 sweep point: GFLOPS of every supporting library.

    Returns ``{library name: GFLOPS}`` in ``ALL_LIBRARIES`` order for the
    libraries that implement axpy at this precision.
    """
    f = lookup_format(fmt)
    return {
        lib.name: lib.gflops("axpy", f, n)
        for lib in ALL_LIBRARIES
        if lib.profile.supports(f)
    }


def assemble_fig1(
    sizes: Sequence[int],
    format_names: Sequence[str],
    points: Dict[str, List[Dict[str, float]]],
) -> Dict[str, SweepResult]:
    """Rebuild the Fig. 1 panels from per-(format, size) point payloads.

    ``points[fmt_name][i]`` is ``fig1_axpy_point(fmt_name, sizes[i])``.
    """
    panels: Dict[str, SweepResult] = {}
    for fname in format_names:
        panel = SweepResult(
            title=f"axpy on A64FX, {fname}",
            xlabel="vector size",
            ylabel="GFLOPS",
        )
        per_size = points[fname]
        labels = list(per_size[0]) if per_size else []
        for label in labels:
            s = panel.new_series(label)
            for n, pt in zip(sizes, per_size):
                s.append(n, pt[label])
        panels[fname] = panel
    return panels


def fig1_axpy(
    sizes: Optional[Sequence[int]] = None,
    formats: Tuple[FloatFormat, ...] = (FLOAT16, FLOAT32, FLOAT64),
) -> Dict[str, SweepResult]:
    """Fig. 1: axpy GFLOPS vs vector size, per precision, per library.

    Returns one panel per format (keys ``"Float16"``...), each with a
    series per library that implements the routine at that precision —
    only Julia appears in the Float16 panel, as in the paper.
    """
    ns = list(sizes if sizes is not None else [2**k for k in range(2, 23)])
    points = {
        fmt.name: [fig1_axpy_point(fmt, n) for n in ns] for fmt in formats
    }
    return assemble_fig1(ns, [fmt.name for fmt in formats], points)


# ---------------------------------------------------------------------------
# Fig. 2 — PingPong latency / throughput
# ---------------------------------------------------------------------------
def fig2_pingpong_point(
    nbytes: int, repetitions: int = 20
) -> Dict[str, Tuple[float, float]]:
    """One Fig. 2 sweep point: ``{binding: (latency us, MB/s)}``.

    Each point builds a fresh two-rank world per binding, exactly as the
    full sweep does, so points are independent and order-insensitive.
    """
    pp = PingPong(repetitions=repetitions)
    out: Dict[str, Tuple[float, float]] = {}
    for binding in (MPI_JL, IMB_C):
        res = pp.run(binding, sizes=[nbytes])
        size, lat, thr = res.as_rows()[0]
        out[binding.name] = (lat, thr)
    return out


def assemble_fig2(
    sizes: Sequence[int],
    points: Sequence[Dict[str, Tuple[float, float]]],
) -> Dict[str, SweepResult]:
    """Rebuild the Fig. 2 panels from per-size point payloads."""
    latency = SweepResult(
        title="PingPong latency, 2 ranks / 2 nodes",
        xlabel="message bytes",
        ylabel="latency us",
    )
    throughput = SweepResult(
        title="PingPong throughput, 2 ranks / 2 nodes",
        xlabel="message bytes",
        ylabel="MB/s",
    )
    for name in (MPI_JL.name, IMB_C.name):
        sl = latency.new_series(name)
        st = throughput.new_series(name)
        for size, pt in zip(sizes, points):
            lat, thr = pt[name]
            sl.append(size, lat)
            if size > 0:
                st.append(size, thr)
    return {"latency": latency, "throughput": throughput}


def fig2_pingpong(
    sizes: Optional[Sequence[int]] = None,
    repetitions: int = 20,
) -> Dict[str, SweepResult]:
    """Fig. 2: inter-node PingPong latency (top) and throughput (bottom)."""
    if sizes is None:
        from ..mpi.benchsuite import default_message_sizes

        sizes = default_message_sizes()
    ns = list(sizes)
    points = [fig2_pingpong_point(n, repetitions) for n in ns]
    return assemble_fig2(ns, points)


# ---------------------------------------------------------------------------
# Fig. 3 — collectives at scale
# ---------------------------------------------------------------------------
_FIG3_FACTORIES = {
    "Allreduce": AllreduceBench,
    "Gatherv": GathervBench,
    "Reduce": ReduceBench,
}


def _make_fig3_bench(name: str, nranks: int, repetitions: int):
    bench = _FIG3_FACTORIES[name](nranks=nranks, repetitions=repetitions)
    if nranks == 1536:
        bench.shape = (4, 6, 16)
    else:
        bench.shape = None  # type: ignore[assignment]
        bench.ranks_per_node = 4
    return bench


def fig3_collectives_point(
    bench: str,
    nbytes: int,
    nranks: int,
    repetitions: int = 2,
) -> Dict[str, float]:
    """One Fig. 3 sweep point: ``{binding: latency us}`` for one
    collective at one message size."""
    b = _make_fig3_bench(bench, nranks, repetitions)
    out: Dict[str, float] = {}
    for binding in (MPI_JL, IMB_C):
        res = _run_collective(b, binding, [nbytes], nranks)
        out[binding.name] = res.latency_us[0]
    return out


def assemble_fig3(
    sizes: Sequence[int],
    nranks: int,
    points: Dict[str, Sequence[Dict[str, float]]],
    benches: Sequence[str] = FIG3_BENCHES,
) -> Dict[str, SweepResult]:
    """Rebuild the Fig. 3 panels from per-(bench, size) point payloads."""
    out: Dict[str, SweepResult] = {}
    for bench in benches:
        panel = SweepResult(
            title=f"MPI {bench}, {nranks} ranks",
            xlabel="message bytes",
            ylabel="latency us",
        )
        for name in (MPI_JL.name, IMB_C.name):
            s = panel.new_series(name)
            for size, pt in zip(sizes, points[bench]):
                s.append(size, pt[name])
        out[bench] = panel
    return out


def fig3_collectives(
    sizes: Optional[Sequence[int]] = None,
    nranks: int = 1536,
    repetitions: int = 2,
) -> Dict[str, SweepResult]:
    """Fig. 3: Allreduce / Gatherv / Reduce latency at 1536 ranks.

    ``nranks`` can be lowered for quick runs; the default matches the
    paper's ``node=4x6x16:torus`` 384-node allocation with 4 ranks/node.
    """
    if sizes is None:
        sizes = [4 * 4**k for k in range(0, 9)]  # 4 B .. 256 KiB
    sizes = list(sizes)
    points = {
        bench: [
            fig3_collectives_point(bench, n, nranks, repetitions)
            for n in sizes
        ]
        for bench in FIG3_BENCHES
    }
    return assemble_fig3(sizes, nranks, points)


def _run_collective(bench, binding, sizes, nranks):
    from ..mpi.comm import MPIWorld
    from ..mpi.benchsuite import BenchResult

    if bench.shape is not None:
        topo_kwargs = dict(shape=bench.shape, ranks_per_node=bench.ranks_per_node)
    else:
        topo_kwargs = dict(ranks_per_node=bench.ranks_per_node)

    result = BenchResult(bench.name, binding.name, nranks=nranks)
    for nbytes in sizes:
        world = MPIWorld(nranks=nranks, binding=binding, **topo_kwargs)
        times = world.run(bench._program, nbytes, bench.repetitions)
        result.sizes.append(nbytes)
        result.latency_us.append(max(times) * 1e6)
    return result


# ---------------------------------------------------------------------------
# Fig. 4 — Float16 turbulence vs Float64
# ---------------------------------------------------------------------------
@dataclass
class Fig4Result:
    """Fields and metrics behind Fig. 4."""

    vorticity_f64: np.ndarray
    vorticity_f16: np.ndarray
    correlation: float
    nrmse: float
    f64_runtime_ratio: float  # modelled Float64/Float16 runtime at this size

    def summary(self) -> str:
        return (
            f"Float16 vs Float64 turbulence: correlation="
            f"{self.correlation:.4f}, nRMSE={self.nrmse:.4f}; "
            f"Float64 modelled {self.f64_runtime_ratio:.2f}x slower"
        )


def fig4_field(
    nx: int,
    ny: int,
    nsteps: int,
    dtype: str,
    scaling: Optional[float] = None,
    integration: Optional[str] = None,
) -> np.ndarray:
    """One Fig. 4 task: run the shallow-water model, return vorticity."""
    params = ShallowWaterParams(nx=nx, ny=ny).with_dtype(
        dtype, scaling=scaling, integration=integration
    )
    return ShallowWaterModel(params).run(nsteps).vorticity


def fig4_runtime_ratio(scaling: float = 1024.0) -> float:
    """One Fig. 4 task: the modelled Float64/Float16 runtime ratio at
    the paper's 3000x1500 grid (the "ran 3.6x slower" caption)."""
    model = SWRuntimeModel()
    big64 = ShallowWaterParams(nx=3000, ny=1500, dtype="float64")
    big16 = ShallowWaterParams(
        nx=3000, ny=1500, dtype="float16", scaling=scaling,
        integration="compensated",
    )
    return model.time_per_step(big64) / model.time_per_step(big16)


def assemble_fig4(
    vorticity_f64: np.ndarray,
    vorticity_f16: np.ndarray,
    runtime_ratio: float,
) -> Fig4Result:
    """Combine the three Fig. 4 task payloads into the result object."""
    return Fig4Result(
        vorticity_f64=vorticity_f64,
        vorticity_f16=vorticity_f16,
        correlation=pattern_correlation(vorticity_f16, vorticity_f64),
        nrmse=normalized_rmse(vorticity_f16, vorticity_f64),
        f64_runtime_ratio=runtime_ratio,
    )


def fig4_turbulence(
    nx: int = 128,
    ny: int = 64,
    nsteps: int = 300,
    scaling: float = 1024.0,
) -> Fig4Result:
    """Fig. 4: Float16 turbulence ≈ Float64, with the runtime ratio.

    The paper's panel is 3000x1500 for ~a day of model time; the default
    here is CI-sized but the claim tested is the same: the Float16
    (scaled, compensated) vorticity field is pattern-correlated with the
    Float64 field far beyond any chance level, and the modelled A64FX
    runtime ratio at 3000x1500 reproduces "ran 3.6x slower".
    """
    z64 = fig4_field(nx, ny, nsteps, "float64")
    z16 = fig4_field(
        nx, ny, nsteps, "float16", scaling=scaling, integration="compensated"
    )
    return assemble_fig4(z64, z16, fig4_runtime_ratio(scaling))


# ---------------------------------------------------------------------------
# Fig. 5 — speedups over Float64
# ---------------------------------------------------------------------------
def fig5_speedup_point(nx: int, aspect: float = 2.0) -> Dict[str, float]:
    """One Fig. 5 sweep point: ``{variant label: speedup}`` at one nx."""
    data = speedup_sweep([nx], aspect=aspect)
    return {label: vals[0] for label, vals in data.items()}


def assemble_fig5(
    nxs: Sequence[int], points: Sequence[Dict[str, float]]
) -> SweepResult:
    """Rebuild the Fig. 5 panel from per-size point payloads."""
    panel = SweepResult(
        title="ShallowWaters speedup over Float64 (A64FX model)",
        xlabel="nx (grid nx x nx/2)",
        ylabel="speedup",
    )
    for label in VARIANTS:
        s = panel.new_series(label)
        for nx, pt in zip(nxs, points):
            s.append(nx, pt[label])
    return panel


def fig5_speedup(nxs: Optional[Sequence[int]] = None) -> SweepResult:
    """Fig. 5: speedups over Float64 vs problem size (model, A64FX)."""
    sizes = list(
        nxs
        if nxs is not None
        else [32, 64, 128, 256, 384, 512, 768, 1024, 1536, 2048, 3000, 4096, 6000]
    )
    return assemble_fig5(sizes, [fig5_speedup_point(nx) for nx in sizes])


# ---------------------------------------------------------------------------
def listing_muladd() -> Dict[str, str]:
    """§IV-C: the two muladd IR listings (native and software-widened)."""
    fn = build_muladd(HALF)
    widened = SoftFloatWideningPass(mode="round_each_op").run(fn)
    return {
        "native": print_function(fn),
        "widened": print_function(widened),
    }
