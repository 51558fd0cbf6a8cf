"""Differential tests for the fused ShallowWaters kernels.

The fused allocation-free steppers in :mod:`repro.shallowwaters.kernels`
must replicate the reference integrator *bit for bit* — including the
Float16 float32-shadow arithmetic, compensated/mixed updates, channel
walls, subnormal flushing, and overflow blow-ups.  These tests pin that
contract and the input-driven dispatch around it.  The reference
stepper is reached only through :func:`reference_integrator`, which
makes ``kernels.make_fused`` decline for one integrator's ``bind``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.shallowwaters import (
    RK4Integrator,
    ShallowWaterModel,
    ShallowWaterParams,
    State,
)
from repro.shallowwaters import kernels
from repro.shallowwaters.kernels import make_fused, round16_


def reference_integrator(params, state):
    """An integrator bound to ``state`` on the unfused reference path."""
    integ = RK4Integrator(params)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "make_fused", lambda *args: None)
        integ.bind(state)
    return integ


def _bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _states_equal(a: State, b: State) -> bool:
    return (
        _bits_equal(np.asarray(a.u), np.asarray(b.u))
        and _bits_equal(np.asarray(a.v), np.asarray(b.v))
        and _bits_equal(np.asarray(a.eta), np.asarray(b.eta))
    )


# ---------------------------------------------------------------------------
# round16_: float32 -> Float16-grid rounding
# ---------------------------------------------------------------------------
class TestRound16:
    def test_all_float16_values_are_fixed_points(self):
        """Every Float16 bit pattern (including subnormals, ±0, ±inf,
        nan payloads) widened to float32 must round to itself."""
        bits = np.arange(1 << 16, dtype=np.uint16)
        f16 = bits.view(np.float16)
        x = f16.astype(np.float32)
        expect = x.copy()
        round16_(x)
        finite = np.isfinite(expect)
        assert _bits_equal(x[finite], expect[finite])
        # non-finite: same positions, same signs for infinities
        assert np.array_equal(np.isnan(x), np.isnan(expect))
        inf = np.isinf(expect)
        assert _bits_equal(x[inf], expect[inf])

    def test_matches_numpy_cast_on_midpoints_and_neighbours(self):
        """For float32 values straddling the Float16 grid — exact
        midpoints (ties-to-even) and their nextafter neighbours — the
        rounder must agree with ``float32(float16(x))`` bitwise."""
        bits = np.arange(1 << 16, dtype=np.uint16)
        f16 = bits.view(np.float16)
        finite = np.sort(np.unique(f16[np.isfinite(f16)].astype(np.float64)))
        mids = ((finite[:-1] + finite[1:]) / 2.0).astype(np.float32)
        lo = np.nextafter(mids, np.float32(-np.inf), dtype=np.float32)
        hi = np.nextafter(mids, np.float32(np.inf), dtype=np.float32)
        x = np.concatenate([mids, lo, hi])
        expect = x.astype(np.float16).astype(np.float32)
        got = x.copy()
        round16_(got)
        assert _bits_equal(got, expect)

    def test_overflow_boundary(self):
        """65504 is the largest finite Float16; the overflow threshold
        is 65520 (the midpoint, which ties to even = 2**16 = inf)."""
        x = np.array(
            [65504.0, 65519.996, 65520.0, 1e30, -65520.0, -1e30],
            np.float32,
        )
        expect = x.astype(np.float16).astype(np.float32)
        round16_(x)
        assert _bits_equal(x, expect)
        assert np.isinf(x[2]) and x[2] > 0
        assert np.isinf(x[4]) and x[4] < 0

    def test_subnormal_range(self):
        """Below 2**-14 the grid coarsens to the absolute 2**-24
        spacing; below 2**-25 everything rounds to (signed) zero."""
        vals = [2.0**-14, 2.0**-24, 2.0**-25, 2.0**-26, 3 * 2.0**-25,
                -(2.0**-25), 5e-10, -5e-10]
        x = np.array(vals, np.float32)
        expect = x.astype(np.float16).astype(np.float32)
        round16_(x)
        assert _bits_equal(x, expect)
        # signed zero survives
        z = np.array([0.0, -0.0], np.float32)
        round16_(z)
        assert _bits_equal(z, np.array([0.0, -0.0], np.float32))

    def test_random_float32_sweep(self):
        rng = np.random.default_rng(7)
        x = (rng.standard_normal(200_000) * 10.0 ** rng.integers(
            -8, 8, 200_000
        )).astype(np.float32)
        expect = x.astype(np.float16).astype(np.float32)
        round16_(x)
        assert _bits_equal(x, expect)


# ---------------------------------------------------------------------------
# Fused stepping == reference stepping, bit for bit
# ---------------------------------------------------------------------------
def _cfg(dtype, scaling=1.0, integration="standard", boundary="periodic",
         flush=False, init="turbulence"):
    p = ShallowWaterParams(
        nx=32, ny=16, dtype=dtype, scaling=scaling,
        integration=integration, boundary=boundary,
        flush_subnormals=flush,
    )
    return p, init


CONFIGS = {
    "f64-periodic": _cfg("float64"),
    "f64-channel": _cfg("float64", boundary="channel"),
    "f64-vortex": _cfg("float64", init="vortex"),
    "f32-periodic": _cfg("float32"),
    "f32-channel": _cfg("float32", boundary="channel"),
    "f32-compensated": _cfg("float32", integration="compensated"),
    "f32-mixed": _cfg("float32", integration="mixed"),
    "f32-channel-vortex": _cfg("float32", boundary="channel", init="vortex"),
    "f16-standard": _cfg("float16", scaling=1024.0),
    "f16-standard-channel": _cfg("float16", scaling=1024.0,
                                 boundary="channel"),
    "f16-comp": _cfg("float16", scaling=1024.0, integration="compensated"),
    "f16-comp-channel": _cfg("float16", scaling=1024.0,
                             integration="compensated", boundary="channel"),
    "f16-comp-noscale": _cfg("float16", integration="compensated"),
    "f16-comp-s4096": _cfg("float16", scaling=4096.0,
                           integration="compensated"),
    "f16-comp-vortex": _cfg("float16", scaling=1024.0,
                            integration="compensated", init="vortex"),
    "f16-mixed": _cfg("float16", scaling=1024.0, integration="mixed"),
    "f16-mixed-channel": _cfg("float16", scaling=1024.0,
                              integration="mixed", boundary="channel"),
    "f16-comp-flush": _cfg("float16", scaling=1024.0,
                           integration="compensated", flush=True),
    "f16-standard-flush-channel": _cfg("float16", scaling=1024.0,
                                       boundary="channel", flush=True),
    "f16-mixed-flush": _cfg("float16", scaling=1024.0, integration="mixed",
                            flush=True),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_fused_matches_reference_bitwise(name):
    p, init = CONFIGS[name]
    steps = 6
    ref = reference_integrator(p, ShallowWaterModel(p).initial_state(init))
    fus = RK4Integrator(p)
    fus.bind(ShallowWaterModel(p).initial_state(init))
    assert fus._fused is not None and ref._fused is None
    for step in range(steps):
        a = ref.step()
        b = fus.step()
        assert _states_equal(a, b), f"{name} diverged at step {step}"


def _states_match(a: State, b: State) -> bool:
    """Bitwise equal, except that NaNs compare by position only."""
    for fa, fb in ((a.u, b.u), (a.v, b.v), (a.eta, b.eta)):
        fa, fb = np.asarray(fa), np.asarray(fb)
        nan_a, nan_b = np.isnan(fa), np.isnan(fb)
        if not np.array_equal(nan_a, nan_b):
            return False
        if not _bits_equal(fa[~nan_a], fb[~nan_b]):
            return False
    return True


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blowup_parity():
    """An overflowing Float16 run (scaling far too large) must blow up
    identically: same inf/nan positions, same finite bits."""
    p = ShallowWaterParams(
        nx=32, ny=16, dtype="float16", scaling=2.0**15,
        integration="standard",
    )
    ref = reference_integrator(
        p, ShallowWaterModel(p).initial_state("turbulence")
    )
    fus = RK4Integrator(p)
    fus.bind(ShallowWaterModel(p).initial_state("turbulence"))
    assert fus._fused is not None and ref._fused is None
    saw_nonfinite = False
    for _ in range(12):
        a = ref.step()
        b = fus.step()
        assert _states_match(a, b)
        saw_nonfinite = saw_nonfinite or not all(
            np.isfinite(np.asarray(f)).all() for f in (a.u, a.v, a.eta)
        )
    assert saw_nonfinite, "blow-up config never overflowed"


def _spy_programs(monkeypatch, fused):
    """Record, per replay, whether the clean (True) or the general
    (False) program of ``fused`` ran."""
    ran = []
    replay = kernels._replay

    def spy(ops):
        ran.append(ops is fused._program)
        replay(ops)

    monkeypatch.setattr(kernels, "_replay", spy)
    return ran


@pytest.mark.parametrize("integration", ["standard", "compensated"])
def test_overflow_after_clean_steps(monkeypatch, integration):
    """A wind-forced Float16 run steps cleanly, then overflows at a
    later step: the flagged step is redone on the general program, and
    every step matches the reference through the switch."""
    p = ShallowWaterParams(
        nx=32, ny=16, dtype="float16", scaling=1024.0,
        integration=integration, wind_amplitude=0.002,
    )
    ref = reference_integrator(p, ShallowWaterModel(p).initial_state("rest"))
    fus = RK4Integrator(p)
    fus.bind(ShallowWaterModel(p).initial_state("rest"))
    ran = _spy_programs(monkeypatch, fus._fused)
    first_nonfinite = None
    for step in range(1, 9):
        del ran[:]
        with np.errstate(invalid="ignore", over="ignore"):
            a = ref.step()
        b = fus.step()
        assert _states_match(a, b), f"diverged at step {step}"
        finite = all(np.isfinite(np.asarray(f)).all()
                     for f in (a.u, a.v, a.eta))
        if step == 1:
            assert ran == [True] and finite
        if first_nonfinite is None and not finite:
            first_nonfinite = step
            assert ran == [True, False]
        if first_nonfinite is not None and step > first_nonfinite:
            assert ran == [False]  # stays general while non-finite
    assert first_nonfinite is not None and first_nonfinite >= 2


def test_flagged_finite_step_returns_to_clean(monkeypatch):
    """State values in [32768, 65504] flag the screen without
    overflowing: each step is redone on the general program, matches
    the reference, and the next step starts on the clean program."""
    p = ShallowWaterParams(
        nx=32, ny=16, dtype="float16", scaling=1024.0,
        integration="compensated",
    )
    init = ShallowWaterModel(p).initial_state("turbulence")
    init = State(init.u, init.v,
                 (init.eta.astype(np.float64) + 40000.0).astype(np.float16))
    assert 32768 <= np.abs(init.eta).max() <= 65504
    ref = reference_integrator(p, init)
    fus = RK4Integrator(p)
    fus.bind(init)
    ran = _spy_programs(monkeypatch, fus._fused)
    for step in range(3):
        del ran[:]
        a = ref.step()
        b = fus.step()
        assert _states_equal(a, b), f"diverged at step {step}"
        assert np.isfinite(np.asarray(b.eta)).all()
        assert ran == [True, False]
        assert fus._fused._clean


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_general_program_matches_clean(monkeypatch, name):
    """The general program, forced for every step, computes the same
    bits as the clean one."""
    p, init = CONFIGS[name]
    clean = RK4Integrator(p)
    clean.bind(ShallowWaterModel(p).initial_state(init))
    clean_states = [
        State(*(np.array(f) for f in (s.u, s.v, s.eta)))
        for s in (clean.step() for _ in range(4))
    ]
    monkeypatch.setattr(kernels.FusedRK4, "_finite", lambda self: False)
    general = RK4Integrator(p)
    general.bind(ShallowWaterModel(p).initial_state(init))
    ran = _spy_programs(monkeypatch, general._fused)
    for step, want in enumerate(clean_states):
        assert _states_equal(want, general.step()), f"step {step}"
    if general._fused._rounder is not None:
        assert ran == [False] * 4


def test_program_sizes():
    """Pin the numpy calls per step: the Float16 compensated step
    (program plus one screen read) and the float64 step."""
    sizes = {}
    for name in ("f16-comp", "f64-periodic"):
        p, init = CONFIGS[name]
        integ = RK4Integrator(p)
        integ.bind(ShallowWaterModel(p).initial_state(init))
        sizes[name] = len(integ._fused._program)
    assert sizes["f16-comp"] + 1 <= 2400
    assert sizes["f64-periodic"] == 447


def test_modelled_blowup_prints_no_runtime_warning():
    """The Float16 overflow drill reports its blow-up through the model
    and the guard; numpy's own overflow warnings stay silent."""
    env = dict(os.environ, PYTHONPATH=str(
        Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", "fig4", "--guard", "repair",
         "--guard-inject", "overflow16"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


# ---------------------------------------------------------------------------
# Dispatch from the input
# ---------------------------------------------------------------------------
class TestDispatch:
    def test_auto_uses_fused_for_plain_arrays(self):
        p = ShallowWaterParams(nx=16, ny=8)
        integ = RK4Integrator(p)
        integ.bind(ShallowWaterModel(p).initial_state("rest"))
        assert integ._fused is not None

    def test_make_fused_rejects_array_subclasses(self):
        p = ShallowWaterParams(nx=16, ny=8)
        coeffs = p.coefficients().cast(p.np_dtype)

        class Tagged(np.ndarray):
            pass

        shape = (p.ny, p.nx)
        sub = State(
            np.zeros(shape).view(Tagged),
            np.zeros(shape).view(Tagged),
            np.zeros(shape).view(Tagged),
        )
        assert make_fused(p, coeffs, p.np_dtype, sub) is None

    def test_step_before_bind_raises(self):
        p = ShallowWaterParams(nx=16, ny=8)
        with pytest.raises(RuntimeError, match="bind"):
            RK4Integrator(p).step()

    def test_bind_dtype_mismatch_raises(self):
        p = ShallowWaterParams(nx=16, ny=8, dtype="float32")
        shape = (p.ny, p.nx)
        wrong = State(
            np.zeros(shape, np.float64),
            np.zeros(shape, np.float64),
            np.zeros(shape, np.float64),
        )
        with pytest.raises(TypeError, match="dtype"):
            RK4Integrator(p).bind(wrong)
