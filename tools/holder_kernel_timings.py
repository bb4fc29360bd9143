"""Per-layer timings of the Hölder pair kernels and the dyadic lift, for
before/after comparisons.

Times, on the inputs of the ``rough-paths`` benchmark workload (d = 2
Brownian noise on [0, 1], seed 0):
  - the row norm the pair kernels take, ``_accel._row_norms`` on 16,384
    rows of K = 1, 2, 4 and 9 values; where the tree has no
    ``_row_norms``, the ``np.linalg.norm(v, axis=-1)`` its kernels took
  - the two parts of ``rough_distance`` between the level-5 dyadic lift
    and the Stratonovich lift, at 2^11 cells (all pairs: the dyadic-lag
    seed ``_lag_seed`` and the pruned ``_tile_search``) and at 2^14 cells
    (above the cap: the lag seed is the value), as the time spent in each
    per ``rough_distance`` call, and that call's total
  - ``holder_norms`` of a fresh 2^11-cell Stratonovich lift, its running
    second level built in the call
  - ``dyadic_approximation`` of the 2^14-cell noise at levels 4 to 10
  - the tracemalloc peak, in MB, of one ``rough_distance`` call at 2^11
    and 2^14 cells and of one ``dyadic_approximation`` at levels 4 and 10

Each time is the median over REPEATS timings of a loop sized to run for
about 0.1 s, in microseconds per call.  Run it against one source tree at a
time, one process each:

    PYTHONPATH=src python tools/holder_kernel_timings.py

and it prints one JSON object.
"""

from __future__ import annotations

import json
import statistics
import time
import timeit
import tracemalloc

import numpy as np

from roughmf import _accel, roughpath
from roughmf.grids import TimeGrid
from roughmf.roughpath import STRAT, NoisePath, RoughPath, brownian_lift, dyadic_approximation

REPEATS = 7
ROWS = 1 << 14


def per_call_us(fn) -> float:
    timer = timeit.Timer(fn)
    loops, _ = timer.autorange()
    loops = max(1, loops // 2)  # autorange aims at 0.2 s
    return 1e6 * statistics.median(timer.repeat(REPEATS, loops)) / loops


def peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def split_us(fn, names) -> dict:
    """The median time per call of fn spent inside each of the named
    ``roughpath`` functions, which ``_pair_sup`` looks up at each call."""
    spent = {name: 0.0 for name in names}
    originals = {name: getattr(roughpath, name) for name in names}

    def timed(name):
        def wrapper(*args):
            t0 = time.perf_counter()
            try:
                return originals[name](*args)
            finally:
                spent[name] += time.perf_counter() - t0
        return wrapper

    samples = {name: [] for name in names + ("total",)}
    try:
        for name in names:
            setattr(roughpath, name, timed(name))
        for _ in range(REPEATS):
            spent.update({name: 0.0 for name in names})
            t0 = time.perf_counter()
            fn()
            samples["total"].append(time.perf_counter() - t0)
            for name in names:
                samples[name].append(spent[name])
    finally:
        for name, original in originals.items():
            setattr(roughpath, name, original)
    return {f"{name}_us": 1e6 * statistics.median(v) for name, v in samples.items()}


def main() -> None:
    rng = np.random.default_rng(0)
    row_norms = getattr(_accel, "_row_norms", lambda v: np.linalg.norm(v, axis=-1))
    out = {"row_norms_us": {}}
    for K in (1, 2, 4, 9):
        v = rng.normal(size=(ROWS, K))
        out["row_norms_us"][f"K={K}"] = per_call_us(lambda: row_norms(v))
    for cells in (1 << 11, 1 << 14):
        noise = NoisePath.generate(0, TimeGrid.regular(0.0, 1.0, cells), 2)
        ref, approx = brownian_lift(noise, noise.fine_grid, STRAT), dyadic_approximation(noise, 5)
        roughpath.rough_distance(approx, ref)  # builds both running second levels
        names = ("_lag_seed", "_tile_search") if cells <= roughpath.PAIR_CAP else ("_lag_seed",)
        out[f"rough_distance_{cells}"] = split_us(lambda: roughpath.rough_distance(approx, ref), names)
        out[f"rough_distance_{cells}"]["peak_mb"] = peak_mb(
            lambda: roughpath.rough_distance(approx, ref))
        if cells <= roughpath.PAIR_CAP:
            out["holder_norms_2048_us"] = per_call_us(
                lambda: RoughPath(ref.grid, ref.values, ref.cells, ref.alpha).holder_norms())
    out["dyadic_approximation_us"] = {
        f"level={n}": per_call_us(lambda: dyadic_approximation(noise, n)) for n in range(4, 11)
    }
    out["dyadic_approximation_peak_mb"] = {
        f"level={n}": peak_mb(lambda: dyadic_approximation(noise, n)) for n in (4, 10)
    }
    print(json.dumps(_rounded(out), indent=1))


def _rounded(x):
    if isinstance(x, dict):
        return {k: _rounded(v) for k, v in x.items()}
    return round(x, 3)


if __name__ == "__main__":
    main()
