"""BLAS Level-1 substrate and the Fig. 1 library comparison.

* reference:  type-generic numpy routines (the Julia ``axpy!`` analogue)
* kernels:    flop/traffic signatures + SVE-chunked executable kernels
* libraries:  Julia / FujitsuBLAS / BLIS / OpenBLAS / ARMPL models
* trampoline: libblastrampoline-style runtime backend switching
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "axpy": "reference",
    "axpby": "reference",
    "scal": "reference",
    "dot": "reference",
    "nrm2": "reference",
    "asum": "reference",
    "iamax": "reference",
    "copy": "reference",
    "swap": "reference",
    "rot": "reference",
    "KERNELS": "kernels",
    "kernel_traffic": "kernels",
    "axpy_chunked": "kernels",
    "dot_chunked": "kernels",
    "BLASLibrary": "libraries",
    "UnsupportedRoutineError": "libraries",
    "JULIA_GENERIC": "libraries",
    "FUJITSU_BLAS": "libraries",
    "BLIS": "libraries",
    "OPENBLAS": "libraries",
    "ARMPL": "libraries",
    "ALL_LIBRARIES": "libraries",
    "get_library": "libraries",
    "Trampoline": "trampoline",
    "default_trampoline": "trampoline",
    "StreamBenchmark": "stream",
    "StreamResult": "stream",
    "STREAM_SCALAR": "stream",
})
