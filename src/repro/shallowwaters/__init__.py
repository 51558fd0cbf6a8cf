"""Type-flexible shallow-water model — the ShallowWaters.jl port (Figs. 4-5).

* params:      :class:`ShallowWaterParams` (dtype, scaling, integration)
* grid:        Arakawa C-grid difference/average operators
* forcing:     balanced-turbulence and vortex initial conditions
* rhs:         the scaled, dtype-generic right-hand side
* integration: RK4 with plain / compensated / mixed-precision updates
* model:       :class:`ShallowWaterModel` — run / run_sherlog
* diagnostics: energy, enstrophy, vorticity, comparison metrics
* perf:        the A64FX runtime model behind Fig. 5
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "ShallowWaterParams": "params",
    "StepCoefficients": "params",
    "Operators": "operators",
    "PeriodicOps": "operators",
    "ChannelOps": "operators",
    "PERIODIC": "operators",
    "CHANNEL": "operators",
    "State": "rhs",
    "tendencies": "rhs",
    "balanced_turbulence": "forcing",
    "gaussian_vortex": "forcing",
    "RK4Integrator": "integration",
    "ShallowWaterModel": "model",
    "SimulationResult": "model",
    "unscale": "diagnostics",
    "vorticity": "diagnostics",
    "kinetic_energy": "diagnostics",
    "potential_energy": "diagnostics",
    "total_energy": "diagnostics",
    "enstrophy": "diagnostics",
    "pattern_correlation": "diagnostics",
    "normalized_rmse": "diagnostics",
    "field_stats": "diagnostics",
    "SWRuntimeModel": "perf",
    "VARIANTS": "perf",
    "speedup_sweep": "perf",
    "TracerAdvection": "tracer",
    "upwind_flux_divergence": "tracer",
    "DistributedShallowWater": "distributed",
    "DistributedResult": "distributed",
    "HALO": "distributed",
    "isotropic_ke_spectrum": "spectra",
    "spectral_slope": "spectra",
    "spectrum_overlap": "spectra",
    "save_snapshot": "output",
    "load_snapshot": "output",
    "restart_state": "output",
})
