"""A64FX machine model (the hardware substrate the paper measured on).

Public surface:

* specs:       :class:`ChipSpec`, ``A64FX``, ``XEON_CASCADE_LAKE``
* vector:      :class:`SVEVectorUnit` (predicated chunked execution)
* memory:      :class:`MemoryHierarchy` (L1/L2/HBM2 bandwidth model)
* roofline:    :class:`Roofline`, :class:`KernelTraffic`
* kernelmodel: :class:`StreamKernelModel`, :class:`ImplementationProfile`
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ChipSpec": "specs",
    "CacheLevel": "specs",
    "A64FX": "specs",
    "XEON_CASCADE_LAKE": "specs",
    "get_chip": "specs",
    "SVEVectorUnit": "vector",
    "VectorExecutionStats": "vector",
    "MemoryHierarchy": "memory",
    "BandwidthPoint": "memory",
    "Roofline": "roofline",
    "RooflinePoint": "roofline",
    "KernelTraffic": "roofline",
    "StreamKernelModel": "kernelmodel",
    "ImplementationProfile": "kernelmodel",
    "KernelTiming": "kernelmodel",
    "MulticoreModel": "multicore",
    "MethodSpec": "jit",
    "CompilationModel": "jit",
    "JITSession": "jit",
    "SystemImage": "jit",
    "time_to_first_result": "jit",
    "amortization_calls": "jit",
})
