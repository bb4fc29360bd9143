"""Per-call timings of the point component of a joint-flow leg, for
before/after comparisons.

Times, for each model (EKS d = 2, Sigma = diag(1, 4); Landau d = 3), on
the frozen-law curve of 64 windows of one Euler step on [0, 1] from 2000
N(0, I) atoms, as a ``cocycle`` benchmark round runs it:
  - ``rde.doss_sussmann_solve`` of the point on legs of 8, 32 and 64
    rough cells, one cell per window, on the Stratonovich lift of a
    driver with 8 fine cells per rough cell
  - ``cocycle.frozen_coefficient_field`` of the 64-window curve
  - ``meanfield._euler_step`` of 5000 column-major particles

Each figure is the median over REPEATS timings of a loop sized to run for
about 0.1 s, in microseconds per call.  Run it against one source tree at
a time, one process each:

    PYTHONPATH=src python tools/point_leg_timings.py

and it prints one JSON object.
"""

from __future__ import annotations

import json
import statistics
import timeit

import numpy as np

from roughmf.cocycle import frozen_coefficient_field
from roughmf.grids import TimeGrid
from roughmf.meanfield import FrozenLawConfig, MeasureCurve, _euler_step, simulate_frozen_law
from roughmf.measures import EmpiricalMeasure
from roughmf.models import build_model
from roughmf.rde import doss_sussmann_solve
from roughmf.roughpath import STRAT, NoisePath, brownian_lift

REPEATS = 7
WINDOWS = 64


def per_call_us(fn) -> float:
    timer = timeit.Timer(fn)
    loops, _ = timer.autorange()
    loops = max(1, loops // 2)  # autorange aims at 0.2 s
    return 1e6 * statistics.median(timer.repeat(REPEATS, loops)) / loops


def main() -> None:
    out = {}
    for name, params, d in (("eks-gaussian", {"Sigma": np.diag([1.0, 4.0])}, 2),
                            ("landau-maxwell", None, 3)):
        model = build_model(name, params)
        rng = np.random.default_rng(d)
        mu0 = EmpiricalMeasure(rng.normal(size=(2000, d)))
        curve = simulate_frozen_law(model, mu0, FrozenLawConfig(WINDOWS, seed=0), 1.0)
        noise = NoisePath.generate(0, TimeGrid.regular(0.0, 1.0, 8 * WINDOWS), d)
        rough = brownian_lift(noise, TimeGrid.regular(0.0, 1.0, WINDOWS), STRAT)
        y0 = mu0.atoms[0]
        row = {}
        for cells in (8, 32, WINDOWS):
            leg = MeasureCurve(curve.times[: cells + 1], curve.measures[: cells + 1])
            coeff = frozen_coefficient_field(model, leg, cells)
            rp = rough.restrict(0, cells)
            row[f"solve_{cells}_cells_us"] = per_call_us(
                lambda: doss_sussmann_solve(coeff, rp, y0))
        row["frozen_coefficient_field_us"] = per_call_us(
            lambda: frozen_coefficient_field(model, curve, WINDOWS))
        mu = curve.measures[0]
        Y = np.asfortranarray(rng.normal(size=(5000, d)))
        dWT = 0.1 * rng.normal(size=(d, 5000))
        row["euler_step_N5000_us"] = per_call_us(
            lambda: _euler_step(model, Y, mu, 1.0 / WINDOWS, dWT))
        out[name] = {k: round(v, 2) for k, v in row.items()}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
