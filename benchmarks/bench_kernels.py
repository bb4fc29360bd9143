"""Timing comparison of the numba kernels against the numpy fallback.

Run twice, once per backend::

    python benchmarks/bench_kernels.py
    ROUGHMF_NO_NUMBA=1 python benchmarks/bench_kernels.py

or pass --both to have the script re-exec itself with the flag set and
print a side-by-side table.  --both needs numba: without it both columns
would time the numpy kernels, so the script exits with an error instead.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np


def _setup(cells: int, d: int, seed: int):
    from roughmf import _accel
    from roughmf.grids import TimeGrid
    from roughmf.roughpath import STRAT, NoisePath, _pair_blocks, brownian_lift

    noise = NoisePath.generate(seed, TimeGrid.regular(0.0, 1.0, cells * 8), d)
    rp = brownian_lift(noise, TimeGrid.regular(0.0, 1.0, cells), STRAT)
    return _accel, rp, list(_pair_blocks(cells))


def run_benchmarks(cells: int, d: int, repeats: int) -> dict:
    _accel, rp, blocks = _setup(cells, d, seed=0)
    X, A, t, a = rp.values, rp._cum, rp.times, rp.alpha
    a0 = np.random.default_rng(1).normal(size=(d, d, d)) / d
    a1 = np.random.default_rng(2).normal(size=(cells, d, d))
    dX = np.diff(X, axis=0)

    # each pair supremum is timed over the pair blocks, as roughmf streams it
    cases = {
        "pair_sup_first": lambda: max(
            _accel.pair_sup_first(X, t, ii, jj, a) for ii, jj in blocks
        ),
        "pair_sup_second": lambda: max(
            _accel.pair_sup_second(X, A, t, ii, jj, a) for ii, jj in blocks
        ),
        "pair_sup_second_diff": lambda: max(
            _accel.pair_sup_second_diff(X, A, 1.1 * X, 1.1 * A, t, ii, jj, a)
            for ii, jj in blocks
        ),
        "linear_flow_maps": lambda: _accel.linear_flow_maps(dX, rp.cells, a0, a1),
    }
    out = {}
    for name, fn in cases.items():
        fn()  # warm-up (includes any jit compilation)
        best = min(_time(fn) for _ in range(repeats))
        out[name] = best
    return out


def _time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cells", type=int, default=1024)
    ap.add_argument("--d", type=int, default=4)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--both", action="store_true",
                    help="run numba and numpy backends and print a table")
    ap.add_argument("--json", action="store_true", help="emit results as JSON")
    args = ap.parse_args(argv)

    if args.both:
        from roughmf import _accel

        if not _accel.HAVE_NUMBA:
            sys.exit("bench_kernels.py --both: numba is not available (not installed, "
                     "or ROUGHMF_NO_NUMBA is set), so there is no numba backend to compare")
        results = {}
        for label, flag in (("numba", "0"), ("numpy", "1")):
            env = dict(os.environ, ROUGHMF_NO_NUMBA=flag)
            cmd = [sys.executable, __file__, "--json",
                   "--cells", str(args.cells), "--d", str(args.d),
                   "--repeats", str(args.repeats)]
            results[label] = json.loads(
                subprocess.run(cmd, env=env, check=True,
                               capture_output=True, text=True).stdout
            )
        names = list(results["numba"])
        w = max(map(len, names))
        print(f"cells={args.cells} d={args.d} (best of {args.repeats})")
        print(f"{'kernel':{w}}  {'numba':>10}  {'numpy':>10}  speedup")
        for name in names:
            a, b = results["numba"][name], results["numpy"][name]
            print(f"{name:{w}}  {a * 1e3:8.3f}ms  {b * 1e3:8.3f}ms  {b / a:6.1f}x")
        return

    from roughmf import _accel

    res = run_benchmarks(args.cells, args.d, args.repeats)
    if args.json:
        print(json.dumps(res))
    else:
        backend = "numba" if _accel.HAVE_NUMBA else "numpy"
        print(f"backend={backend} cells={args.cells} d={args.d}")
        for name, t in res.items():
            print(f"  {name}: {t * 1e3:.3f} ms")


if __name__ == "__main__":
    main()
