"""Core layer: type-flexible kernels, benchmark harness, figure generators.

* typeflex:  :class:`TypeFlexKernel` — write once, run at any format
* benchmark: timers, GFLOPS, :class:`Series`/:class:`SweepResult`
* figures:   ``fig1_axpy`` ... ``fig5_speedup``, ``listing_muladd``
* report:    ASCII rendering of sweep results
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "FormatContext": "typeflex",
    "TypeFlexKernel": "typeflex",
    "typeflexible": "typeflex",
    "Series": "benchmark",
    "SweepResult": "benchmark",
    "measure_seconds": "benchmark",
    "measure_gflops": "benchmark",
    "WallTimer": "benchmark",
    "fig1_axpy": "figures",
    "fig2_pingpong": "figures",
    "fig3_collectives": "figures",
    "fig4_turbulence": "figures",
    "fig5_speedup": "figures",
    "listing_muladd": "figures",
    "Fig4Result": "figures",
    "render_table": "report",
    "render_sweep": "report",
    "render_run_stats": "report",
    "render_fault_sweep": "report",
    "format_si": "report",
    "CompilerGeneration": "portability",
    "JULIA_1_6": "portability",
    "JULIA_1_7": "portability",
    "JULIA_1_9": "portability",
    "C_VENDOR": "portability",
    "GENERATIONS": "portability",
    "STREAM_KERNELS": "portability",
    "portability_table": "portability",
    "performance_portability": "portability",
    "Calibrated": "calibration",
    "CALIBRATIONS": "calibration",
    "validate_calibration": "calibration",
    "Experiment": "experiments",
    "Claim": "experiments",
    "Outcome": "experiments",
    "REGISTRY": "experiments",
    "SCALES": "experiments",
    "scale_params": "experiments",
    "evaluate_outcome": "experiments",
    "failed_outcome": "experiments",
    "run_experiment": "experiments",
    "paper_artefacts": "experiments",
})
