"""Fused, allocation-free RHS and RK4 kernels (the perf core of Fig. 4).

The reference implementation in :mod:`repro.shallowwaters.rhs` and
:mod:`repro.shallowwaters.integration` is written for clarity: every
operator allocates (``np.roll`` plus one temporary per elementary op),
which costs ~200 allocations per RK4 step.  This module re-implements
the *same arithmetic* — the identical sequence of elementary float
operations, in the identical order — against preallocated scratch
buffers and slice-copy shifts, so a step performs zero heap allocation
beyond a handful of reused arrays.

**Compiled programs.**  The step is written once, as the bodies of
:meth:`FusedTendencies.__call__` and :class:`FusedRK4`, against prims
that *emit* numpy calls instead of executing them.  At bind time the
body runs once and leaves a flat program: a list of ``(f, args)``
entries on the stepper's preallocated buffers, with ``out`` positional,
shifts as ``np.copyto`` on precomputed views, and every distinct view
one shared object.  ``step()`` replays the list.  At ci scale a step is
bound by numpy dispatch (~1 µs a call), so the replay loop, not the
arithmetic, is what this layout makes cheap; there is no second copy of
the arithmetic to keep in step with the first.

Bit-identity is a hard contract, not an aspiration
(``tests/test_fused_kernels.py`` pins fused == unfused exactly):

* float32/float64: slice shifts produce the same values as ``np.roll``
  and every ufunc runs with ``out=`` on the same operand order, so the
  results are trivially bit-identical.

* float16 runs through a **float32 shadow**: numpy has no SIMD float16
  path (every Float16 ufunc is a scalar loop ~20x slower than float32),
  so the fused kernel keeps all fields as float16-*valued* float32
  arrays and rounds to the Float16 grid after every elementary ``+ - *``
  (:class:`_Rounder16`).  Because Float32 carries more than ``2*11 + 2``
  significand bits, computing an elementary op in float32 and rounding
  to Float16 is bit-identical to the native Float16 op (the classic
  double-rounding-safety bound of Rump/Roux-style analyses), including
  overflow to ``inf``, signed zeros, and subnormals.  This is the
  software analogue of the paper's point that A64FX executes Float16
  arithmetic at full vector speed while commodity numpy cannot.

**Two Float16 programs.**  The *clean* program is branch-free and uses
the 8-call rounder: it assumes every rounded value lies below binade 15
and folds that assumption into one running maximum of the snap bits,
read once per step.  The screen flags binade >= 15, which covers every
Float16 overflow, every non-finite value and every ``|x| >= 2**115``
(where the exponent trick would wrap).  A power-of-two multiply that
shrinks (``mul_p2s``) always rounds; one that grows (``mul_p2g``) is
exact below overflow and only feeds the screen.  A step whose screen
fires is undone from a copy of the state (and carry) taken at its start
and replayed on the *general* program, compiled from the same body with
an 11-call rounder that is exact on every float32 input; the stepper
stays on the general program while the state holds a non-finite value.
Both replays run under ``np.errstate(invalid="ignore", over="ignore")``:
a Float16 blow-up is modelled, and the model and the guard report it.

The scaling discipline of §III-B (scaled x unscaled products, boosted
drag constants, premultiplied tendencies) is inherited untouched — the
kernel is a transcription of :func:`repro.shallowwaters.rhs.tendencies`,
not a reformulation.

:func:`make_fused` picks the stepper from the input: plain ndarray
states on periodic/channel grids get a fused stepper, anything else
(Sherlog arrays, other boundaries or dtypes) gets ``None`` and the
reference path runs.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .params import CastCoefficients, ShallowWaterParams
from .rhs import State

__all__ = ["FusedTendencies", "FusedRK4", "round16_", "make_fused"]

#: float32 exponent-field mask.
_EXP_MASK = np.uint32(0x7F800000)
#: sign-bit mask.
_SIGN_MASK = np.uint32(0x80000000)
#: magnitude mask (everything but the sign).
_ABS_MASK = np.uint32(0x7FFFFFFF)
#: (13 << 23) | 0x00400000 — turns the bare exponent field of ``x``
#: into the snap constant ``1.5 * 2**(e+13)``.
_SNAP_ADD = np.uint32(0x06C00000)
#: bit pattern of 0.75 = 1.5 * 2**-1 — the subnormal-range snap (its
#: float32 ulp is 2**-24, Float16's subnormal spacing).
_SNAP_MIN = np.uint32(0x3F400000)
#: snap bits of binade 15 (``1.5 * 2**28``).  The clean rounder's screen
#: flags any snap at or above it; the general rounder caps its snap
#: there, so the exponent trick never wraps.
_SCREEN_BITS = np.uint32(0x4DC00000)
#: the largest finite Float16.
_F16_MAX = np.float32(65504.0)
#: Float16 minimum normal magnitude (for flush-to-zero masks).
_F16_MIN_NORMAL = np.float32(2.0**-14)
_INF = np.float32(np.inf)
_ZERO = np.float32(0.0)

#: one compiled program: ``f(*args)`` for every entry, in order.
Program = List[Tuple[Callable[..., Any], Tuple[Any, ...]]]


class _Recorder:
    """Collects emitted calls into a :data:`Program`.

    Array arguments are interned by (address, shape, strides, dtype), so
    every distinct view in the program is one shared object.  Reading
    the address is slow, so an object already seen is looked up by
    ``id``; the recorder keeps every object it saw alive, so no id is
    reused while it records."""

    def __init__(self):
        self.ops: Program = []
        self._views: Dict[tuple, np.ndarray] = {}
        self._seen: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def view(self, x):
        if not isinstance(x, np.ndarray):
            return x
        hit = self._seen.get(id(x))
        if hit is None:
            key = (x.__array_interface__["data"][0], x.shape, x.strides,
                   x.dtype.str)
            hit = self._seen[id(x)] = (self._views.setdefault(key, x), x)
        return hit[0]

    def __call__(self, f, *args) -> None:
        self.ops.append((f, tuple(map(self.view, args))))


def _replay(ops: Program) -> None:
    for f, args in ops:
        f(*args)


# ---------------------------------------------------------------------------
# Float16 grid rounding, computed entirely in float32
# ---------------------------------------------------------------------------
class _Scratch(NamedTuple):
    """A rounder's scratch, sliced to one array size."""

    ti: np.ndarray       # uint32: exponent bits, then the snap s, then sign
    s: np.ndarray        # float32 view of ti
    t2: np.ndarray       # uint32: |x| bits (general rounder)
    absx: np.ndarray     # float32 view of t2
    vn: np.ndarray       # float32: the magic sum
    vbits: np.ndarray    # uint32 view of vn
    m: np.ndarray        # bool mask
    snapmin: np.ndarray  # uint32 operand of the subnormal snap clamp
    smax: np.ndarray     # uint32 running maximum of the screen


class _Rounder16:
    """Emits in-place rounding of float32 arrays to the Float16 grid.

    The magic sum ``(x + s) - s`` with ``s = 1.5 * 2**(e+13)`` (``e`` the
    binade of ``x``) makes the float32 sum's ulp exactly ``2**(e-10)`` —
    Float16's grid — with ties-to-even inherited from float32.  The 1.5
    mantissa keeps the sum inside ``s``'s binade for every ``x`` (``1.5 ±
    m/8192`` stays in ``[1, 2)`` for ``m < 2``), which defeats the classic
    binade-crossing failure of magic-number rounding, and makes the
    rounding sign-symmetric (``s`` is an even multiple of the grid), so
    ``s`` needs no sign.  It is built with integer ops on the bit pattern
    of ``x`` (mask the exponent, add 13 to it and or-in the 1.5 bit), so
    the whole pipeline uses only fast same-width ufunc loops.  For
    ``|x| < 2**-14`` the snap clamps to ``0.75 = 1.5 * 2**-1``, whose ulp
    is the absolute ``2**-24`` grid (Float16's subnormal spacing); the
    two regimes coincide exactly at the boundary binade.  A result that
    rounds to zero takes the sign of ``x`` back from its bits.

    Scratch is flat and sliced per array size, so one rounder serves
    every array up to ``n`` elements — (ny, nx) fields and the
    (2/3/4, ny, nx) batched blocks alike.  Both programs of a stepper
    share it.  The integer maxima use ``np.fmax``/``np.fmin``, which
    equal ``np.maximum``/``np.minimum`` on integers and, unlike them,
    take ``out`` positionally.
    """

    def __init__(self, n: int):
        self._ti = np.empty(n, np.uint32)
        self._t2 = np.empty(n, np.uint32)
        self._vn = np.empty(n, np.float32)
        self._m = np.empty(n, np.bool_)
        #: array operand for the subnormal snap clamp (the array-array
        #: maximum loop is measurably faster than the scalar one).
        self._snapmin = np.full(n, _SNAP_MIN, np.uint32)
        #: elementwise running maximum of the clean rounder's snap bits
        #: (and of ``mul_p2g``'s); ``>= _SCREEN_BITS`` anywhere flags it.
        self.smax = np.zeros(n, np.uint32)
        self._views: Dict[int, _Scratch] = {}

    def _flat(self, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, _Scratch]:
        """``x`` flat, its bits, and the scratch views for its size (made
        once per size, so recording sees the same objects again)."""
        if not x.flags.c_contiguous:
            raise ValueError("rounding needs a C-contiguous array")
        xf = x.reshape(-1)
        n = xf.size
        views = self._views.get(n)
        if views is None:
            ti, t2, vn = self._ti[:n], self._t2[:n], self._vn[:n]
            views = self._views[n] = _Scratch(
                ti, ti.view(np.float32), t2, t2.view(np.float32), vn,
                vn.view(np.uint32), self._m[:n], self._snapmin[:n],
                self.smax[:n],
            )
        return xf, xf.view(np.uint32), views

    def clean_(self, emit: _Recorder, x: np.ndarray) -> None:
        """8 calls, exact while the screen stays below binade 15."""
        xf, b, w = self._flat(x)
        emit(np.bitwise_and, b, _EXP_MASK, w.ti)
        emit(np.add, w.ti, _SNAP_ADD, w.ti)
        emit(np.fmax, w.ti, w.snapmin, w.ti)
        emit(np.fmax, w.smax, w.ti, w.smax)
        emit(np.add, xf, w.s, w.vn)
        emit(np.subtract, w.vn, w.s, w.vn)
        emit(np.bitwise_and, b, _SIGN_MASK, w.ti)
        emit(np.bitwise_or, w.vbits, w.ti, b)

    def screen_(self, emit: _Recorder, x: np.ndarray) -> None:
        """Feed ``x``'s snap bits to the screen without rounding."""
        _, b, w = self._flat(x)
        emit(np.bitwise_and, b, _EXP_MASK, w.ti)
        emit(np.add, w.ti, _SNAP_ADD, w.ti)
        emit(np.fmax, w.smax, w.ti, w.smax)

    def general_(self, emit: _Recorder, x: np.ndarray) -> None:
        """11 calls, exact on every float32 input: the magic sum runs on
        ``|x|`` with the snap capped at binade 15, magnitudes beyond
        65504 become infinity (as a cast rounds them), nan passes
        through, and the sign comes back from ``x``'s bits."""
        _, b, w = self._flat(x)
        emit(np.bitwise_and, b, _ABS_MASK, w.t2)
        emit(np.bitwise_and, w.t2, _EXP_MASK, w.ti)
        emit(np.add, w.ti, _SNAP_ADD, w.ti)
        emit(np.fmax, w.ti, w.snapmin, w.ti)
        emit(np.fmin, w.ti, _SCREEN_BITS, w.ti)
        emit(np.add, w.absx, w.s, w.vn)
        emit(np.subtract, w.vn, w.s, w.vn)
        emit(np.greater, w.vn, _F16_MAX, w.m)
        emit(np.copyto, w.vn, _INF, "same_kind", w.m)
        emit(np.bitwise_and, b, _SIGN_MASK, w.ti)
        emit(np.bitwise_or, w.vbits, w.ti, b)

    def flush_(self, emit: _Recorder, x: np.ndarray) -> None:
        """Flush Float16 subnormals to signed zero (mirrors
        :func:`repro.ftypes.subnormals.flush_to_zero`); a zero keeps its
        sign, so no nonzero mask is needed."""
        xf, _, w = self._flat(x)
        m = emit.view(w.m)
        emit(np.absolute, xf, w.vn)
        emit(np.less, w.vn, _F16_MIN_NORMAL, m)
        emit(functools.partial(np.copysign, where=m), _ZERO, xf, xf)


def round16_(x: np.ndarray) -> np.ndarray:
    """Free-standing helper: round a C-contiguous float32 array to the
    Float16 grid in place with the general rounder (allocates scratch;
    steppers compile the rounding into their programs).  Returns ``x``."""
    emit = _Recorder()
    _Rounder16(x.size).general_(emit, x)
    with np.errstate(invalid="ignore"):  # a cast is silent on signalling nans
        _replay(emit.ops)
    return x


# ---------------------------------------------------------------------------
# Elementary-op layers: each emits its calls into a recorder
# ---------------------------------------------------------------------------
class _DirectPrims:
    """float32/float64: plain ufuncs with ``out``."""

    def __init__(self, emit: _Recorder, dtype: np.dtype):
        self.emit = emit
        self.dtype = np.dtype(dtype)

    def scalar(self, value) -> np.floating:
        return self.dtype.type(value)

    def copy(self, dst, src) -> None:
        self.emit(np.copyto, dst, src)

    def mul(self, a, b, out) -> None:
        self.emit(np.multiply, a, b, out)

    def add(self, a, b, out) -> None:
        self.emit(np.add, a, b, out)

    def sub(self, a, b, out) -> None:
        self.emit(np.subtract, a, b, out)

    def neg(self, a, out) -> None:
        self.emit(np.negative, a, out)

    def mul_p2s(self, a, b, out) -> None:
        """Multiply where one factor is a power-of-two scalar <= 1."""
        self.mul(a, b, out)

    def mul_p2g(self, a, b, out) -> None:
        """Multiply where one factor is a power-of-two scalar >= 1."""
        self.mul(a, b, out)


class _ShadowPrims(_DirectPrims):
    """Float16 semantics on float32 storage: every ``+ - *`` rounds its
    result to the Float16 grid (negation is exact and skips it)."""

    def __init__(self, emit: _Recorder, r: _Rounder16, general: bool):
        super().__init__(emit, np.dtype(np.float32))
        self.round_ = functools.partial(r.general_ if general else r.clean_,
                                        emit)
        self._screen = functools.partial(
            r.general_ if general else r.screen_, emit
        )
        self.flush_ = functools.partial(r.flush_, emit)

    def scalar(self, value) -> np.floating:
        # Round to Float16 first (as the reference dtype cast does),
        # then carry the exact value in float32.
        return np.float32(np.float16(value))

    def mul(self, a, b, out) -> None:
        super().mul(a, b, out)
        self.round_(out)

    def add(self, a, b, out) -> None:
        super().add(a, b, out)
        self.round_(out)

    def sub(self, a, b, out) -> None:
        super().sub(a, b, out)
        self.round_(out)

    def mul_p2g(self, a, b, out) -> None:
        """Growing power-of-two multiply (by 2 or 4): exact on the grid
        unless the product overflows Float16, so the clean program only
        screens it."""
        super().mul(a, b, out)
        self._screen(out)


# ---------------------------------------------------------------------------
# Slice-copy shifts (np.roll without the allocation).  Written against
# the trailing two axes so the same helper serves (ny, nx) fields and
# (k, ny, nx) batched blocks (shifting each layer independently).
# ---------------------------------------------------------------------------
def _west(p, a, out) -> None:  # np.roll(a, -1, axis=-1)
    p.copy(out[..., :-1], a[..., 1:])
    p.copy(out[..., -1], a[..., 0])


def _east(p, a, out) -> None:  # np.roll(a, 1, axis=-1)
    p.copy(out[..., 1:], a[..., :-1])
    p.copy(out[..., 0], a[..., -1])


def _north(p, a, out) -> None:  # np.roll(a, -1, axis=-2)
    p.copy(out[..., :-1, :], a[..., 1:, :])
    p.copy(out[..., -1, :], a[..., 0, :])


def _south(p, a, out) -> None:  # np.roll(a, 1, axis=-2)
    p.copy(out[..., 1:, :], a[..., :-1, :])
    p.copy(out[..., 0, :], a[..., -1, :])


def _north_reflect(p, a, out) -> None:
    p.copy(out[..., :-1, :], a[..., 1:, :])
    p.copy(out[..., -1, :], a[..., -1, :])


def _south_zero(p, a, out) -> None:
    p.copy(out[..., 1:, :], a[..., :-1, :])
    p.copy(out[..., 0, :], 0)


# ---------------------------------------------------------------------------
# The fused tendency kernel
# ---------------------------------------------------------------------------
class FusedTendencies:
    """Preallocated transcription of :func:`repro.shallowwaters.rhs.tendencies`.

    One instance per (shape, dtype, boundary); ``__call__`` emits, into
    prims ``p``, the calls that write the per-step increments into
    caller-owned output buffers.  The body is the reference expression
    tree flattened into explicit elementary ops — any reordering would
    break the bit-identity contract, so the comments track the reference
    line each block mirrors.
    """

    def __init__(
        self,
        shape: Tuple[int, int],
        dtype: np.dtype,
        boundary: str,
        coeffs: CastCoefficients,
    ):
        if boundary not in ("periodic", "channel"):
            raise ValueError(f"unsupported boundary {boundary!r}")
        self.boundary = boundary
        self.shadow = dtype == np.float16
        d = self.compute_dtype = np.dtype(
            np.float32 if self.shadow else dtype
        )
        c = coeffs
        # Scalars/arrays in the compute dtype; shadow mode carries the
        # Float16-rounded values exactly in float32.
        as_s = (lambda v: np.float32(v)) if self.shadow else (lambda v: v)
        as_a = (lambda a: a.astype(np.float32)) if self.shadow else (lambda a: a)
        self.inv_s = as_s(c.inv_s)
        self.half = as_s(c.half)
        self.quarter = d.type(0.25)
        self.four = d.type(4)
        self.cg = as_s(c.cg)
        self.cz = as_s(c.cz)
        self.ch = as_s(c.ch)
        self.cr_hi = as_s(c.cr_hi)
        self.cr_lo = as_s(c.cr_lo)
        self.cb = as_s(c.cb)
        self.cw = as_a(c.cw)
        # Per-layer factors of the batched products below: a (2, 1, 1)
        # or (2, ny, 1) operand multiplies each layer by its own factor,
        # the same products the unbatched ops form.
        self.cg_cz = np.array([self.cg, self.cz], d).reshape(2, 1, 1)
        self.ch_cz = np.array([self.ch, self.cz], d).reshape(2, 1, 1)
        self.cf_uq = np.stack(
            np.broadcast_arrays(as_a(c.cf_u), as_a(c.cf_q))
        )
        # Scratch pool (names track the choreography in __call__).  The
        # unscaled fields live in one (3, ny, nx) block (computed with a
        # single batched multiply); pair and quad blocks batch the
        # independent u-path/v-path/eta-path ops of each section into one
        # ufunc+rounding pass.
        self.un3 = np.empty((3,) + shape, d)
        self.A = np.empty(shape, d)
        (self.DB, self.G2) = (np.empty((2,) + shape, d) for _ in range(2))
        (self.PE, self.Q4, self.X4, self.W4) = (
            np.empty((4,) + shape, d) for _ in range(4)
        )

    # -- boundary-dependent shifts ------------------------------------------
    def _north_u(self, p, a, out) -> None:
        """dy_u2q / biharmonic_u north ghost (reflect in a channel)."""
        (_north if self.boundary == "periodic" else _north_reflect)(p, a, out)

    def _north_eta(self, p, a, out) -> None:
        """dy_eta2v / ay_eta2v north ghost (reflect in a channel)."""
        (_north if self.boundary == "periodic" else _north_reflect)(p, a, out)

    def _south_v(self, p, a, out) -> None:
        """dy_v2eta / ay_v2eta / biharmonic_v south ghost (zero walls)."""
        (_south if self.boundary == "periodic" else _south_zero)(p, a, out)

    def _south_q(self, p, a, out) -> None:
        """a4_q2u south ghost (zero vorticity on the wall)."""
        (_south if self.boundary == "periodic" else _south_zero)(p, a, out)

    # -- composite helpers ---------------------------------------------------
    def _bars4(self, p, x4, out4, t1, t2) -> None:
        """The 4-point averages rhs.v_bar_u of ``x4[:2]`` and rhs.u_bar_v
        of ``x4[2:]`` (ChannelOps' in a channel), on one (4, ny, nx)
        block: both are ``quarter * (x + s(x) + s'(x) + s'(s(x)))``
        with their own shifts, so the sums and the rounding batch."""
        v2, u2 = slice(0, 2), slice(2, 4)
        if self.boundary == "periodic":
            # v: quarter * (v + south(v) + west(v) + west(south(v)))
            # u: quarter * (u + east(u) + north(u) + north(east(u)))
            _south(p, x4[v2], t1[v2])
            _east(p, x4[u2], t1[u2])
            p.add(x4, t1, out4)
            _west(p, x4[v2], t2[v2])
            _north(p, x4[u2], t2[u2])
            p.add(out4, t2, out4)
            _west(p, t1[v2], t2[v2])
            _north(p, t1[u2], t2[u2])
        else:
            # v: quarter * (v + west(v) + south0(v) + west(south0(v)))
            # u: quarter * (u + east(u) + north_r(u) + east(north_r(u)))
            _west(p, x4[v2], t2[v2])
            _east(p, x4[u2], t2[u2])
            p.add(x4, t2, out4)
            _south_zero(p, x4[v2], t1[v2])
            _north_reflect(p, x4[u2], t1[u2])
            p.add(out4, t1, out4)
            _west(p, t1[v2], t2[v2])
            _east(p, t1[u2], t2[u2])
        p.add(out4, t2, out4)
        p.mul_p2s(self.quarter, out4, out4)

    # Mixed-ghost shifts for the (u, v) pair block: layer 0 carries u's
    # boundary treatment (reflect), layer 1 carries v's (zero walls) —
    # the interior copy is shared, so the biharmonics batch as well.
    def _north_uv(self, p, a2, out2) -> None:
        if self.boundary == "periodic":
            _north(p, a2, out2)
        else:
            p.copy(out2[..., :-1, :], a2[..., 1:, :])
            p.copy(out2[0, -1, :], a2[0, -1, :])
            p.copy(out2[1, -1, :], 0)

    def _south_uv(self, p, a2, out2) -> None:
        if self.boundary == "periodic":
            _south(p, a2, out2)
        else:
            p.copy(out2[..., 1:, :], a2[..., :-1, :])
            p.copy(out2[0, 0, :], a2[0, 0, :])
            p.copy(out2[1, 0, :], 0)

    def _laplace2(self, p, a2, out2, t2) -> None:
        """grid.laplace / ChannelOps._laplace: ((n+s)+w)+e - 4a, on the
        (u, v) pair block."""
        self._north_uv(p, a2, t2)
        self._south_uv(p, a2, out2)
        p.add(t2, out2, out2)
        _west(p, a2, t2)
        p.add(out2, t2, out2)
        _east(p, a2, t2)
        p.add(out2, t2, out2)
        p.mul_p2g(self.four, a2, t2)
        p.sub(out2, t2, out2)

    def _biharmonic2(self, p, a2, out2, t1, t2) -> None:
        """biharmonic_u/biharmonic_v on the (u, v) pair block."""
        self._laplace2(p, a2, t1, t2)
        self._laplace2(p, t1, out2, t2)

    # ------------------------------------------------------------------
    def __call__(self, p: _DirectPrims, f3, o3) -> None:
        """Emit the calls that write the per-step increments of the
        scaled state block ``f3 = (u, v, eta)`` into the distinct block
        ``o3``.

        The body is the reference expression tree flattened into
        elementary ops; independent u-path/v-path computations run
        batched on pair blocks (per-value dataflow — and therefore the
        rounding of every individual value — is untouched by the
        regrouping; the comments track the reference lines)."""
        u, v, eta = f3[0], f3[1], f3[2]
        du, dv = o3[0], o3[1]
        un3 = self.un3
        un_u, un_v, un_eta = un3
        A, DB, G2, PE, Q4, X4, W4 = (
            self.A, self.DB, self.G2, self.PE, self.Q4, self.X4, self.W4
        )
        P2, EF = PE[:2], PE[2:]
        C2, B2 = Q4[:2], Q4[2:]
        C, D, B, E, F = G2[1], DB[0], DB[1], EF[0], EF[1]

        # u_un = u * inv_s  (one scaled x one unscaled factor, §III-B)
        p.mul_p2s(f3, self.inv_s, un3)

        # zeta = (west(v) - v) - (north(u) - u)                     -> A
        _west(p, v, P2[0])
        self._north_u(p, u, P2[1])
        p.sub(P2, f3[1::-1], P2)        # rows: (.. - v), (.. - u)
        p.sub(P2[0], P2[1], A)

        # ke = half*(ax_u2eta(u*u_un) + ay_v2eta(v*v_un))           -> C
        p.mul(f3[:2], un3[:2], B2)
        _east(p, B2[0], C2[0])
        self._south_v(p, B2[1], C2[1])
        p.add(B2, C2, C2)
        p.mul_p2s(self.half, C2, C2)
        p.add(C2[0], C2[1], C)
        p.mul_p2s(self.half, C, C)

        # p = cg*eta + cz*ke                                        -> D
        p.copy(G2[0], eta)
        p.mul(self.cg_cz, G2, DB)       # (D, B) = (cg*eta, cz*ke)
        p.add(D, B, D)

        # adv_u = cf_u*vbar(v) + a4_q2u(cz*zeta)*vbar(v_un)         -> du
        # adv_v = -(cf_q*ubar(u) + a4_q2v(cz*zeta)*ubar(u_un))      -> dv
        p.copy(X4[0], v)
        p.copy(X4[1], un_v)
        p.copy(X4[2], u)
        p.copy(X4[3], un_u)
        # W4 = (vbar(v), vbar(v_un), ubar(u), ubar(u_un))
        self._bars4(p, X4, W4, PE, Q4)
        p.mul(self.cf_uq, W4[0::2], o3[:2])
        p.mul(self.cz, A, A)            # A := cz*zeta (zeta dead)
        self._south_q(p, A, P2[0])
        _east(p, A, P2[1])
        p.add(A, P2, P2)
        p.mul_p2s(self.half, P2, P2)    # P2 = (a4_q2u, a4_q2v)(cz*zeta)
        p.mul(P2, W4[1::2], EF)
        p.add(o3[:2], EF, o3[:2])
        p.neg(dv, dv)

        # du -= dx_eta2u(p);  dv -= dy_eta2v(p)
        _west(p, D, P2[0])
        self._north_eta(p, D, P2[1])
        p.sub(P2, D, P2)
        p.sub(o3[:2], P2, o3[:2])
        # du -= (cr_hi*u)*cr_lo;  dv -= (cr_hi*v)*cr_lo  (boosted drag)
        p.mul(self.cr_hi, f3[:2], B2)
        p.mul_p2s(B2, self.cr_lo, B2)
        p.sub(o3[:2], B2, o3[:2])
        # du += -cb*bih_u(u) + cw;  dv -= cb*bih_v(v)
        W2 = W4[:2]
        self._biharmonic2(p, f3[:2], W2, X4[:2], C2)
        p.mul(self.cb, W2, W2)
        p.sub(o3[:2], W2, o3[:2])
        p.add(du, self.cw, du)
        if self.boundary == "channel":
            p.copy(dv[-1, :], 0)  # enforce_walls: no flow through the wall

        # flux_x = u * ax_eta2u(eta_un); flux_y = v * ay_eta2v(..)  -> P2
        _west(p, un_eta, P2[0])
        self._north_eta(p, un_eta, P2[1])
        p.add(un_eta, P2, P2)
        p.mul_p2s(self.half, P2, P2)
        p.mul(f3[:2], P2, P2)

        # deta = -(ch*(dx_u2eta(u)+dy_v2eta(v))
        #          + cz*(dx_u2eta(flux_x)+dy_v2eta(flux_y)))
        _east(p, u, C2[0])
        self._south_v(p, v, C2[1])
        p.sub(f3[:2], C2, C2)
        _east(p, P2[0], B2[0])
        self._south_v(p, P2[1], B2[1])
        p.sub(P2, B2, B2)
        p.add(Q4[0::2], Q4[1::2], EF)   # (E, F) = (C2[0]+C2[1], B2[0]+B2[1])
        p.mul(self.ch_cz, EF, EF)       # (ch*E, cz*F)
        p.add(E, F, E)
        p.neg(E, o3[2])


# ---------------------------------------------------------------------------
# Fused RK4 stepping
# ---------------------------------------------------------------------------
class FusedRK4:
    """Allocation-free RK4 over :class:`FusedTendencies`, replicating
    :class:`repro.shallowwaters.integration.RK4Integrator` bit-for-bit
    (standard / compensated / mixed updates, optional subnormal flush).

    ``step()`` replays a program compiled from :meth:`_record`; Float16
    steppers keep a clean and a general program (see the module
    docstring for when each runs).
    """

    def __init__(self, params: ShallowWaterParams, coeffs: CastCoefficients,
                 state_dtype: np.dtype, shape: Tuple[int, int]):
        self.params = params
        self.dtype = params.np_dtype          # working (RHS) dtype
        self.state_dtype = state_dtype
        self.mode = params.integration
        self.shape = shape
        self.kernel = FusedTendencies(
            shape, self.dtype, params.boundary, coeffs
        )
        # The state-update arithmetic is identical for u, v and eta, so
        # the three fields live in one (3, ny, nx) block and every
        # stage/increment/TwoSum op (and its Float16 rounding pass) runs
        # once over the block instead of three times per field — at
        # these array sizes the rounder is dispatch-bound, so batching
        # is a ~3x cut on its cost.
        blk = (3,) + shape
        self._shadow_state = self.state_dtype == np.float16
        #: mixed mode narrows the float32 state to Float16 for the RHS.
        self._narrow = self.state_dtype != self.dtype
        d = np.dtype(np.float32) if self._shadow_state else state_dtype
        self._S = np.empty(blk, d)
        self._carry = (
            np.zeros(blk, d) if self.mode == "compensated" else None
        )
        self._k = [np.empty(blk, d) for _ in range(4)]
        self._stage = np.empty(blk, d)
        self._rhs_in = np.empty(blk, np.float32) if self._narrow else None
        self._t1 = np.empty(blk, d)
        self._t2 = np.empty(blk, d)
        self._flush_k = (
            params.flush_subnormals and self.dtype == np.float16
        )
        self._flush_state = (
            params.flush_subnormals and self.state_dtype == np.float16
        )
        #: one rounder (scratch plus screen), sized for the kernel's
        #: (4, ny, nx) blocks, serves every Float16 op of both programs;
        #: ``None`` for float32/float64 steppers.
        self._rounder = (
            _Rounder16(4 * int(np.prod(shape))) if self.kernel.shadow else None
        )
        #: the state (and carry) at the start of a clean step, restored
        #: when its screen fires.
        self._S0 = (
            np.empty_like(self._S) if self._rounder is not None else None
        )
        self._carry0 = (
            np.empty_like(self._carry)
            if self._rounder is not None and self._carry is not None
            else None
        )
        self._program = self._compile(general=False)
        #: compiled on the first flagged step (most runs never need it).
        self._general: Optional[Program] = None
        #: whether the next step starts on the clean program.
        self._clean = True

    # ------------------------------------------------------------------
    def _compile(self, general: bool) -> Program:
        emit = _Recorder()
        r = self._rounder
        kp = (_ShadowPrims(emit, r, general) if self.kernel.shadow
              else _DirectPrims(emit, self.kernel.compute_dtype))
        sp = (_ShadowPrims(emit, r, general) if self._shadow_state
              else _DirectPrims(emit, self.state_dtype))
        if r is not None and not general:
            sp.copy(self._S0, self._S)
            if self._carry0 is not None:
                sp.copy(self._carry0, self._carry)
        self._record(kp, sp)
        return emit.ops

    def bind(self, state: State) -> None:
        np.copyto(self._S[0], state.u)  # upcasts exactly in shadow mode
        np.copyto(self._S[1], state.v)
        np.copyto(self._S[2], state.eta)
        if self._carry is not None:
            self._carry.fill(0)
        self._clean = self._rounder is None or self._finite()

    def _finite(self) -> bool:
        return bool(np.isfinite(self._S).all()) and (
            self._carry is None or bool(np.isfinite(self._carry).all())
        )

    def current_state(self) -> State:
        if self.state_dtype == np.float16:
            # Values are exactly Float16-representable; the narrowing
            # cast only changes storage.
            return State(*(self._S[i].astype(np.float16) for i in range(3)))
        return State(self._S[0], self._S[1], self._S[2])

    # ------------------------------------------------------------------
    def _eval(self, kp, block, out) -> None:
        """One tendency evaluation (RK stage), mirroring
        ``RK4Integrator._eval``; ``block``/``out`` are (3, ny, nx)."""
        if self._narrow:
            # Mixed mode: round the float32 state to the Float16 grid
            # (the reference's ``astype(float16)``) before the RHS.
            kp.copy(self._rhs_in, block)
            kp.round_(self._rhs_in)
            block = self._rhs_in
        self.kernel(kp, block, out)
        if self._flush_k:
            kp.flush_(out)
        # Mixed mode's widening astype(float32) is the identity here:
        # shadow tendencies are already Float16-valued float32.

    def _record(self, kp, sp) -> None:
        """The RK4 step, emitted into kernel prims ``kp`` and state
        prims ``sp``."""
        half = sp.scalar(0.5)
        sixth = sp.scalar(1.0 / 6.0)
        two = sp.scalar(2.0)
        S, k, stage = self._S, self._k, self._stage

        self._eval(kp, S, k[0])
        sp.mul_p2s(half, k[0], stage)
        sp.add(S, stage, stage)
        self._eval(kp, stage, k[1])
        sp.mul_p2s(half, k[1], stage)
        sp.add(S, stage, stage)
        self._eval(kp, stage, k[2])
        sp.add(S, k[2], stage)
        self._eval(kp, stage, k[3])

        # inc = sixth * (k1 + two*(k2 + k3) + k4)       -> stage
        inc = stage
        sp.add(k[1], k[2], inc)
        sp.mul_p2g(two, inc, inc)
        sp.add(k[0], inc, inc)
        sp.add(inc, k[3], inc)
        sp.mul(sixth, inc, inc)
        if self._carry is None:
            sp.add(S, inc, S)
        else:
            # CompensatedAccumulator.add: y = inc + c;
            # s, e = two_sum(v, y); v, c = s, e
            y, c, v = inc, self._carry, S
            sp.add(y, c, y)
            s1, t2 = self._t1, self._t2
            sp.add(v, y, s1)          # s = v + y
            sp.sub(s1, y, t2)         # ap = s - y
            sp.sub(v, t2, v)          # da = v - ap  (v dead after)
            sp.sub(s1, t2, t2)        # bp = s - ap
            sp.sub(y, t2, t2)         # db = y - bp
            sp.add(v, t2, c)          # e = da + db
            sp.copy(S, s1)
        if self._flush_state:
            sp.flush_(S)

    def step(self) -> State:
        r = self._rounder
        with np.errstate(invalid="ignore", over="ignore"):
            if self._clean:
                _replay(self._program)
                if r is None or r.smax.max() < _SCREEN_BITS:
                    return self.current_state()
                # The screen fired: undo the step and redo it exactly.
                r.smax.fill(0)
                np.copyto(self._S, self._S0)
                if self._carry0 is not None:
                    np.copyto(self._carry, self._carry0)
            if self._general is None:
                self._general = self._compile(general=True)
            _replay(self._general)
        self._clean = self._finite()
        return self.current_state()


# ---------------------------------------------------------------------------
def make_fused(
    params: ShallowWaterParams,
    coeffs: CastCoefficients,
    state_dtype: np.dtype,
    state: State,
) -> Optional[FusedRK4]:
    """A fused stepper for this configuration, or ``None`` when the
    reference path must run (exotic array types, boundaries, dtypes)."""
    if params.boundary not in ("periodic", "channel"):
        return None
    for arr in (state.u, state.v, state.eta):
        if type(arr) is not np.ndarray:  # Sherlog & friends
            return None
    if np.dtype(params.dtype) not in (
        np.dtype(np.float16), np.dtype(np.float32), np.dtype(np.float64)
    ):
        return None
    return FusedRK4(params, coeffs, np.dtype(state_dtype), state.u.shape)
