"""Check the Float16 rounders against numpy's float16 cast on every float32.

All 2**32 float32 bit patterns are rounded, chunk by chunk, by the
rounders of :mod:`repro.shallowwaters.kernels` and compared with
``x.astype(float16).astype(float32)``:

* the clean rounder (the fast path of every fused Float16 step), bit
  for bit on every pattern its overflow screen leaves unflagged;
* the general rounder and :func:`round16_`, on every pattern, with NaN
  compared by NaN-ness (payloads are not part of the contract).

Run from the repository root (a few minutes on a 2-core host)::

    PYTHONPATH=src python benchmarks/rounder_exhaustive.py

``--start``/``--stop`` restrict the pattern range.  The exit status is
1 on any mismatch.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.shallowwaters import kernels as K


def _mismatches(got: np.ndarray, want: np.ndarray, nan_aware: bool,
                mask: np.ndarray = None) -> np.ndarray:
    bad = got.view(np.uint32) != want.view(np.uint32)
    if nan_aware:
        want_nan = np.isnan(want)
        bad &= ~want_nan
        bad |= want_nan != np.isnan(got)
    if mask is not None:
        bad &= mask
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--chunk-bits", type=int, default=21,
                    help="log2 of the patterns per chunk (default 21)")
    ap.add_argument("--start", type=lambda s: int(s, 0), default=0)
    ap.add_argument("--stop", type=lambda s: int(s, 0), default=1 << 32)
    args = ap.parse_args(argv)
    n = 1 << args.chunk_bits
    if not (0 <= args.start < args.stop <= 1 << 32) or args.start % n:
        ap.error("need 0 <= start < stop <= 2**32, start a chunk multiple")

    r = K._Rounder16(n)
    buf = np.empty(n, np.float32)
    programs = {}
    for kind in ("clean", "general"):
        emit = K._Recorder()
        getattr(r, kind + "_")(emit, buf)
        programs[kind] = emit.ops
    ramp = np.arange(n, dtype=np.uint32)
    bad = {"clean": 0, "general": 0, "round16_": 0}
    unflagged = checked = 0
    first_bad = {}
    t0 = time.perf_counter()
    for lo in range(args.start, args.stop, n):
        m = min(n, args.stop - lo)
        x = (ramp[:m] + np.uint32(lo)).view(np.float32)
        with np.errstate(all="ignore"):
            want = x.astype(np.float16).astype(np.float32)
            results = {}
            for kind in ("clean", "general"):
                buf[:m] = x
                buf[m:] = 0
                r.smax.fill(0)
                K._replay(programs[kind])
                results[kind] = buf[:m].copy()
                if kind == "clean":
                    ok = r.smax[:m] < K._SCREEN_BITS  # unflagged patterns
            results["round16_"] = K.round16_(x.copy())
        checks = {
            "clean": _mismatches(results["clean"], want, False, ok),
            "general": _mismatches(results["general"], want, True),
            "round16_": _mismatches(results["round16_"], want, True),
        }
        for kind, mask in checks.items():
            k = int(np.count_nonzero(mask))
            if k and kind not in first_bad:
                first_bad[kind] = int(x.view(np.uint32)[np.argmax(mask)])
            bad[kind] += k
        unflagged += int(np.count_nonzero(ok))
        checked += m
        if (lo // n) % 256 == 255:
            elapsed = time.perf_counter() - t0
            print(f"  {checked:>10} patterns, {elapsed:6.1f} s", flush=True)
    print(f"clean rounder:   {unflagged} unflagged of {checked} patterns, "
          f"{bad['clean']} mismatches")
    print(f"general rounder: {checked} patterns, {bad['general']} mismatches")
    print(f"round16_:        {checked} patterns, {bad['round16_']} mismatches")
    for kind, pattern in first_bad.items():
        print(f"first {kind} mismatch: 0x{pattern:08X}")
    return 1 if any(bad.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
