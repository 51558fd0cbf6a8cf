"""repro — Python reproduction of "Productivity meets Performance:
Julia on A64FX" (Giordano, Klöwer, Churavy — IEEE CLUSTER 2022).

Subpackages
-----------
``repro.ftypes``
    Floating-point formats, software rounding, Julia-style multiple
    dispatch, Sherlogs-style range recording, compensated summation,
    subnormal/FTZ handling (paper §II, §III-B).
``repro.ir``
    Miniature LLVM-like IR: the Float16 widening pass (``fpext`` /
    ``fptrunc``), the x86 extend-precision mode, SVE vectorisation with
    ``vscale``, a numpy interpreter and a cycle cost model (§II, §IV-C).
``repro.machine``
    A64FX hardware model: SVE vector unit, L1/L2/HBM2 hierarchy,
    roofline and streaming-kernel timing (the substrate for Figs. 1, 5).
``repro.blas``
    Type-generic BLAS Level-1 routines plus performance profiles of
    Fujitsu BLAS / BLIS / OpenBLAS / ARMPL and a libblastrampoline
    equivalent (Fig. 1).
``repro.mpi``
    Deterministic discrete-event MPI simulator on a TofuD 6-D torus,
    real collective algorithms, and an IMB/MPIBenchmarks.jl-style
    benchmark suite comparing "MPI.jl" and "IMB C" binding profiles
    (Figs. 2, 3).
``repro.shallowwaters``
    A type-flexible shallow-water model (ShallowWaters.jl port):
    Arakawa C-grid, RK4 with optional compensated or mixed-precision
    time integration, scaling against Float16 subnormals (Figs. 4, 5).
``repro.core``
    The paper's contribution layer: the type-flexible kernel framework,
    the benchmark harness, and per-figure series generators.
"""

__version__ = "1.0.0"

from ._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ftypes": "ftypes",
    "ir": "ir",
    "machine": "machine",
    "blas": "blas",
    "mpi": "mpi",
    "shallowwaters": "shallowwaters",
    "core": "core",
})
__all__.append("__version__")
