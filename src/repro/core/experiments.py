"""Experiment registry: every paper artefact as a first-class object.

DESIGN.md's experiment index, executable.  Each :class:`Experiment`
knows which paper artefact it reproduces, which claims it checks, how
to run itself at CI scale or paper scale, and how to render its result.
The registry powers ``scripts/generate_experiments.py`` and gives tests
one place to assert that *every* figure of the paper has a registered,
runnable reproduction.

Usage::

    from repro.core.experiments import REGISTRY, run_experiment

    exp = REGISTRY["fig1"]
    outcome = run_experiment("fig1", scale="ci")
    assert outcome.passed
    print(outcome.report)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .report import render_sweep

__all__ = [
    "Claim",
    "Experiment",
    "FIG3_BENCHES",
    "Outcome",
    "REGISTRY",
    "SCALES",
    "scale_params",
    "evaluate_outcome",
    "failed_outcome",
    "run_experiment",
    "paper_artefacts",
]


@dataclass(frozen=True)
class Claim:
    """One checkable claim from the paper's text."""

    text: str
    #: predicate over the experiment's result object.
    check: Callable[[Any], bool]


@dataclass(frozen=True)
class Experiment:
    """A registered reproduction of one paper artefact."""

    key: str
    artefact: str  # "Fig. 1", "Fig. 2", "§IV-C listing", ...
    description: str
    #: scale name -> runner returning the result object.
    runners: Dict[str, Callable[[], Any]]
    claims: Tuple[Claim, ...]
    #: renders the result to text (optional).
    render: Optional[Callable[[Any], str]] = None

    def run(self, scale: str = "ci") -> Any:
        try:
            runner = self.runners[scale]
        except KeyError:
            raise ValueError(
                f"experiment {self.key!r} has no scale {scale!r}; "
                f"available: {sorted(self.runners)}"
            ) from None
        return runner()


@dataclass
class Outcome:
    """Result of running an experiment's claims."""

    key: str
    passed: bool
    claim_results: List[Tuple[str, bool]] = field(default_factory=list)
    report: str = ""


# ---------------------------------------------------------------------------
# Scale definitions
# ---------------------------------------------------------------------------
#: Per-experiment, per-scale parameter sets.  The registry's runners are
#: generated from this table, and the execution engine in
#: :mod:`repro.exec` reads it to decompose each experiment into
#: independent sweep-point tasks and to build cache keys — one source of
#: truth for "what does 'ci' mean for fig2".
SCALES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "fig1": {
        "ci": {"sizes": [2**k for k in range(4, 23)]},
        "paper": {"sizes": [2**k for k in range(2, 23)]},
    },
    "fig2": {
        "ci": {"sizes": [0, 64, 1024, 16384, 65536, 2**20], "repetitions": 8},
        "paper": {
            "sizes": [0] + [2**k for k in range(0, 23)],
            "repetitions": 20,
        },
    },
    "fig3": {
        "ci": {"sizes": [4, 1024, 65536], "nranks": 96, "repetitions": 1},
        "paper": {"sizes": [4, 1024, 65536], "nranks": 1536, "repetitions": 1},
    },
    "fig4": {
        "ci": {"nx": 48, "ny": 24, "nsteps": 150, "scaling": 1024.0},
        "paper": {"nx": 192, "ny": 96, "nsteps": 400, "scaling": 1024.0},
    },
    "fig5": {
        "ci": {"nxs": [64, 256, 1024, 3000]},
        "paper": {
            "nxs": [32, 64, 128, 256, 384, 512, 768, 1024, 1536, 2048,
                    3000, 4096, 6000],
        },
    },
    "lst1": {"ci": {}, "paper": {}},
}

#: The Fig. 3 collectives, in panel order; the task plan and the figure
#: share it.
FIG3_BENCHES: Tuple[str, ...] = ("Allreduce", "Gatherv", "Reduce")


#: Serial generator in :mod:`repro.core.figures` for each experiment,
#: called with the SCALES parameters.
_GENERATORS: Dict[str, str] = {
    "fig1": "fig1_axpy",
    "fig2": "fig2_pingpong",
    "fig3": "fig3_collectives",
    "fig4": "fig4_turbulence",
    "fig5": "fig5_speedup",
    "lst1": "listing_muladd",
}


def _run_generator(key: str, scale: str) -> Any:
    """Run one experiment's serial generator.  The figures are imported
    here, on the first run: they pull in numpy and the simulators,
    which listing experiments or serving them from the cache never
    needs."""
    from . import figures

    return getattr(figures, _GENERATORS[key])(**SCALES[key][scale])


def scale_params(key: str, scale: str) -> Dict[str, Any]:
    """The parameter set behind ``REGISTRY[key].runners[scale]``."""
    try:
        scales = SCALES[key]
    except KeyError:
        raise KeyError(
            f"unknown experiment {key!r}; have {sorted(SCALES)}"
        ) from None
    try:
        return dict(scales[scale])
    except KeyError:
        raise ValueError(
            f"experiment {key!r} has no scale {scale!r}; "
            f"available: {sorted(scales)}"
        ) from None


def _make_runners(key: str) -> Dict[str, Callable[[], Any]]:
    return {
        scale: (lambda key=key, scale=scale: _run_generator(key, scale))
        for scale in SCALES[key]
    }


def _fig1_claims() -> Tuple[Claim, ...]:
    def only_julia_f16(panels):
        return panels["Float16"].labels() == ["Julia"]

    def julia_best(panels):
        for name in ("Float32", "Float64"):
            peaks = {l: s.peak() for l, s in panels[name].series.items()}
            if max(peaks, key=peaks.get) != "Julia":
                return False
        return True

    def ratio_421(panels):
        p16 = panels["Float16"]["Julia"].peak()
        p32 = panels["Float32"]["Julia"].peak()
        p64 = panels["Float64"]["Julia"].peak()
        return abs(p16 / p64 - 4) < 0.8 and abs(p32 / p64 - 2) < 0.4

    return (
        Claim("only Julia provides a Float16 axpy", only_julia_f16),
        Claim("Julia achieves the best peak in all cases", julia_best),
        Claim("peaks scale ~4:2:1 across fp16/fp32/fp64", ratio_421),
    )


def _fig2_claims() -> Tuple[Claim, ...]:
    return (
        Claim(
            "MPI.jl slower below 1-2 KiB",
            lambda p: p["latency"]["MPI.jl"].at(64)
            > p["latency"]["IMB-C"].at(64),
        ),
        Claim(
            "MPI.jl faster up to the 64 KiB L1 size",
            lambda p: p["latency"]["MPI.jl"].at(65536)
            < p["latency"]["IMB-C"].at(65536),
        ),
        Claim(
            "peak throughput within 1%",
            lambda p: abs(
                p["throughput"]["MPI.jl"].peak()
                - p["throughput"]["IMB-C"].peak()
            )
            / p["throughput"]["IMB-C"].peak()
            < 0.01,
        ),
    )


def _fig3_claims() -> Tuple[Claim, ...]:
    def overhead_small(panels):
        return all(
            panels[n]["MPI.jl"].at(4) > panels[n]["IMB-C"].at(4)
            for n in panels
        )

    def gatherv_linear(panels):
        return panels["Gatherv"]["IMB-C"].at(65536) > panels["Allreduce"][
            "IMB-C"
        ].at(65536)

    return (
        Claim("binding overhead at small sizes", overhead_small),
        Claim("Gatherv is root-bound and slowest", gatherv_linear),
    )


def _fig4_claims() -> Tuple[Claim, ...]:
    return (
        Claim(
            "Float16 qualitatively indistinguishable (corr > 0.98)",
            lambda r: r.correlation > 0.98,
        ),
        Claim(
            "Float64 ~3.6x slower at 3000x1500",
            lambda r: abs(r.f64_runtime_ratio - 3.6) < 0.5,
        ),
    )


def _fig5_claims() -> Tuple[Claim, ...]:
    return (
        Claim(
            "Float16 approaches 4x for large problems",
            lambda p: 3.3 < p["Float16"].at(3000) < 4.1,
        ),
        Claim(
            "compensation costs ~5%",
            lambda p: 0.02
            < p["Float16 (no compensation)"].at(3000) / p["Float16"].at(3000)
            - 1
            < 0.10,
        ),
        Claim(
            "compensated Float16 beats mixed Float16/32",
            lambda p: p["Float16"].at(3000) > p["Float16/32 mixed"].at(3000),
        ),
        Claim(
            "Float32 at ~2x",
            lambda p: 1.9 < p["Float32"].at(3000) < 2.1,
        ),
    )


def _listing_claims() -> Tuple[Claim, ...]:
    return (
        Claim(
            "native listing has no conversions",
            lambda l: "fpext" not in l["native"],
        ),
        Claim(
            "widened listing has 4 fpext + 2 fptrunc",
            lambda l: l["widened"].count("fpext") == 4
            and l["widened"].count("fptrunc") == 2,
        ),
    )


def _render_panels(panels) -> str:
    return "\n\n".join(render_sweep(p) for p in panels.values())


REGISTRY: Dict[str, Experiment] = {
    "fig1": Experiment(
        key="fig1",
        artefact="Fig. 1",
        description="axpy GFLOPS vs size, 3 precisions x 5 libraries",
        runners=_make_runners("fig1"),
        claims=_fig1_claims(),
        render=_render_panels,
    ),
    "fig2": Experiment(
        key="fig2",
        artefact="Fig. 2",
        description="PingPong latency/throughput, MPI.jl vs IMB-C",
        runners=_make_runners("fig2"),
        claims=_fig2_claims(),
        render=_render_panels,
    ),
    "fig3": Experiment(
        key="fig3",
        artefact="Fig. 3",
        description="Allreduce/Gatherv/Reduce latency at scale",
        runners=_make_runners("fig3"),
        claims=_fig3_claims(),
        render=_render_panels,
    ),
    "fig4": Experiment(
        key="fig4",
        artefact="Fig. 4",
        description="Float16 turbulence vs Float64 + runtime ratio",
        runners=_make_runners("fig4"),
        claims=_fig4_claims(),
        render=lambda r: r.summary(),
    ),
    "fig5": Experiment(
        key="fig5",
        artefact="Fig. 5",
        description="speedups over Float64 vs problem size",
        runners=_make_runners("fig5"),
        claims=_fig5_claims(),
        render=render_sweep,
    ),
    "lst1": Experiment(
        key="lst1",
        artefact="§IV-C listings",
        description="muladd Float16 lowering, native and software",
        runners=_make_runners("lst1"),
        claims=_listing_claims(),
        render=lambda l: l["native"] + "\n\n" + l["widened"],
    ),
}


def paper_artefacts() -> List[str]:
    """Every artefact of the paper's evaluation, as registered."""
    return [e.artefact for e in REGISTRY.values()]


def evaluate_outcome(key: str, result: Any) -> Outcome:
    """Evaluate an experiment's claims against an already-computed result.

    Shared by the serial :func:`run_experiment` path and the task-graph
    engine in :mod:`repro.exec`, so both produce identical outcomes.
    """
    try:
        exp = REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown experiment {key!r}; have {sorted(REGISTRY)}"
        ) from None
    claim_results = [(c.text, bool(c.check(result))) for c in exp.claims]
    report = exp.render(result) if exp.render else repr(result)
    return Outcome(
        key=key,
        passed=all(ok for _, ok in claim_results),
        claim_results=claim_results,
        report=report,
    )


def failed_outcome(key: str, failures: List[Tuple[str, str]]) -> Outcome:
    """Degraded outcome for an experiment whose tasks could not run.

    ``failures`` is a list of ``(task label, error)`` pairs.  The
    resilient execution engine uses this when a sweep point crashes,
    times out, or its worker dies: the experiment reports
    ``passed=False`` with a per-task diagnostic instead of aborting the
    whole run (and its siblings' completed work) with a traceback.
    """
    claim_results = [
        (f"task {label} completed ({error})", False)
        for label, error in failures
    ]
    lines = [f"experiment {key!r} degraded: "
             f"{len(failures)} task(s) failed to produce a result"]
    lines.extend(f"  {label}: {error}" for label, error in failures)
    return Outcome(
        key=key,
        passed=False,
        claim_results=claim_results,
        report="\n".join(lines),
    )


def run_experiment(key: str, scale: str = "ci") -> Outcome:
    """Run one experiment and evaluate its claims."""
    try:
        exp = REGISTRY[key]
    except KeyError:
        raise KeyError(
            f"unknown experiment {key!r}; have {sorted(REGISTRY)}"
        ) from None
    return evaluate_outcome(key, exp.run(scale))
