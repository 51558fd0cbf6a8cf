"""Differential tests for the fused ShallowWaters kernels.

The fused allocation-free steppers in :mod:`repro.shallowwaters.kernels`
must replicate the reference integrator *bit for bit* — including the
Float16 float32-shadow arithmetic, compensated/mixed updates, channel
walls, subnormal flushing, and overflow blow-ups.  These tests pin that
contract and the input-driven dispatch around it.  The reference
stepper is reached only through :func:`reference_integrator`, which
makes ``kernels.make_fused`` decline for one integrator's ``bind``.
"""

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
        for fa, fb in ((a.u, b.u), (a.v, b.v), (a.eta, b.eta)):
            fa, fb = np.asarray(fa), np.asarray(fb)
            nan_a, nan_b = np.isnan(fa), np.isnan(fb)
            assert np.array_equal(nan_a, nan_b)
            ok = ~nan_a
            assert _bits_equal(fa[ok], fb[ok])
            saw_nonfinite = saw_nonfinite or (~np.isfinite(fa)).any()
    assert saw_nonfinite, "blow-up config never overflowed"


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
