"""Time integration: RK4 with plain, compensated, or mixed-precision updates.

§III-B: "The precision-critical part is the time integration for which
we include a compensated summation that compensates for the rounding
error of the previous time step by adding a correction to the next time
step.  This introduces a 5% overhead in runtime and therefore clearly
outperforms a mixed-precision approach whereby the precision-critical
time integration is computed using Float32."

Three modes, selected by ``params.integration``:

* ``"standard"`` — ``state += increment`` in the working dtype (the
  default for Float32/Float64, where rounding in the update is benign);
* ``"compensated"`` — the update runs through
  :class:`~repro.ftypes.compensated.CompensatedAccumulator` (an
  error-free TwoSum carrying the rounding residue into the next step) —
  the paper's default for Float16;
* ``"mixed"`` — the RHS is evaluated in the working dtype (Float16) but
  the state lives in Float32 and the update is computed there — the
  alternative Fig. 5 compares against.

The RK4 stage arithmetic itself always runs in the working dtype: the
tendencies are already per-step increments (premultiplied by dt), so
stage combinations are sums of O(1e-3..1) quantities.

Whenever :func:`repro.shallowwaters.kernels.make_fused` returns a
stepper for the bound state (plain ndarrays), the stepping is delegated
to those fused allocation-free kernels, which replicate this module's
arithmetic bit-for-bit (pinned by the differential tests); otherwise
the reference path below runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..ftypes.compensated import CompensatedAccumulator
from ..ftypes.subnormals import flush_to_zero
from .params import CastCoefficients, ShallowWaterParams
from .rhs import State, tendencies

__all__ = ["RK4Integrator"]


class RK4Integrator:
    """Classic 4th-order Runge-Kutta stepping of the scaled state."""

    def __init__(self, params: ShallowWaterParams):
        self.params = params
        self.dtype = params.np_dtype
        self.mode = params.integration
        coeffs = params.coefficients()
        # RHS always runs in the working dtype; in mixed mode the state
        # dtype is wider (float32) while the RHS stays narrow.
        self.coeffs: CastCoefficients = coeffs.cast(self.dtype)
        if self.mode == "mixed":
            self.state_dtype = np.dtype(np.float32)
            if self.dtype == np.float64:
                raise ValueError("mixed integration targets narrow formats")
        else:
            self.state_dtype = self.dtype
        self._fused = None
        self._acc_u: Optional[CompensatedAccumulator] = None
        self._acc_v: Optional[CompensatedAccumulator] = None
        self._acc_eta: Optional[CompensatedAccumulator] = None

    # ------------------------------------------------------------------
    def bind(self, state: State) -> State:
        """Attach the integrator to an initial state (sets accumulators).

        The state must already be scaled and in ``state_dtype``.
        """
        if state.dtype != self.state_dtype:
            raise TypeError(
                f"state dtype {state.dtype} != integrator state dtype "
                f"{self.state_dtype}"
            )
        from . import kernels

        self._fused = kernels.make_fused(
            self.params, self.coeffs, self.state_dtype, state
        )
        if self._fused is not None:
            self._fused.bind(state)
            return self.current_state()
        comp = self.mode == "compensated"
        self._acc_u = CompensatedAccumulator(state.u, compensated=comp)
        self._acc_v = CompensatedAccumulator(state.v, compensated=comp)
        self._acc_eta = CompensatedAccumulator(state.eta, compensated=comp)
        return self.current_state()

    def current_state(self) -> State:
        if self._fused is not None:
            return self._fused.current_state()
        assert self._acc_u is not None
        return State(
            self._acc_u.value, self._acc_v.value, self._acc_eta.value
        )

    # ------------------------------------------------------------------
    def _rhs_state(self, u: np.ndarray, v: np.ndarray, eta: np.ndarray) -> State:
        """View of stage fields in the RHS (working) dtype."""
        if u.dtype == self.dtype:
            return State(u, v, eta)
        # Mixed mode: narrow the wide state for the RHS evaluation.
        return State(
            u.astype(self.dtype), v.astype(self.dtype), eta.astype(self.dtype)
        )

    def _eval(self, u, v, eta) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        du, dv, deta = tendencies(
            self._rhs_state(u, v, eta), self.coeffs, self.params.ops
        )
        if self.params.flush_subnormals and self.dtype == np.float16:
            du = flush_to_zero(du)
            dv = flush_to_zero(dv)
            deta = flush_to_zero(deta)
        if self.state_dtype != self.dtype:
            du = du.astype(self.state_dtype)
            dv = dv.astype(self.state_dtype)
            deta = deta.astype(self.state_dtype)
        return du, dv, deta

    def step(self) -> State:
        """Advance one RK4 step; returns the (live) updated state."""
        if self._fused is not None:
            return self._fused.step()
        if self._acc_u is None:
            raise RuntimeError("call bind(initial_state) before step()")
        u = self._acc_u.value
        v = self._acc_v.value
        eta = self._acc_eta.value
        t = self.state_dtype.type
        half, sixth, two = t(0.5), t(1.0 / 6.0), t(2.0)

        k1u, k1v, k1e = self._eval(u, v, eta)
        k2u, k2v, k2e = self._eval(
            u + half * k1u, v + half * k1v, eta + half * k1e
        )
        k3u, k3v, k3e = self._eval(
            u + half * k2u, v + half * k2v, eta + half * k2e
        )
        k4u, k4v, k4e = self._eval(u + k3u, v + k3v, eta + k3e)

        inc_u = sixth * (k1u + two * (k2u + k3u) + k4u)
        inc_v = sixth * (k1v + two * (k2v + k3v) + k4v)
        inc_e = sixth * (k1e + two * (k2e + k3e) + k4e)

        self._acc_u.add(inc_u)
        self._acc_v.add(inc_v)
        self._acc_eta.add(inc_e)

        if self.params.flush_subnormals and self.state_dtype == np.float16:
            for acc in (self._acc_u, self._acc_v, self._acc_eta):
                np.copyto(acc.value, flush_to_zero(acc.value))
        return self.current_state()
