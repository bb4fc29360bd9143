"""Per-step timings of the frozen-law layer, for before/after comparisons.

Times, at N = 2000 and N = 5000 particles:
  - ``models.covariance`` of a d = 2 cloud held as C-ordered atoms, as
    every recorded curve state holds them
  - ``models.psd_sqrt`` of 2 Cov, the EKS a1
  - the construction of one recorded state: ``EmpiricalMeasure(Y.copy(),
    w)``, and ``mu0.with_atoms(Y.copy())`` where the tree has it
  - one ``simulate_frozen_law`` run of 64 windows of one Euler step on
    [0, 1], per model (EKS d = 2, Sigma = diag(1, 4); Landau d = 3), on
    an increment block drawn once beforehand

Each figure is the median over REPEATS timings of a loop sized to run for
about 0.1 s, in microseconds per call (per run for the simulate rows).
Run it against one source tree at a time, one process each:

    PYTHONPATH=src python tools/law_step_timings.py

and it prints one JSON object.
"""

from __future__ import annotations

import json
import statistics
import timeit

import numpy as np

from roughmf.meanfield import FrozenLawConfig, euler_increments, simulate_frozen_law
from roughmf.measures import EmpiricalMeasure
from roughmf.models import build_model, covariance, psd_sqrt

REPEATS = 7


def per_call_us(fn) -> float:
    timer = timeit.Timer(fn)
    loops, _ = timer.autorange()
    loops = max(1, loops // 2)  # autorange aims at 0.2 s
    return 1e6 * statistics.median(timer.repeat(REPEATS, loops)) / loops


def main() -> None:
    out = {}
    for n in (2000, 5000):
        rng = np.random.default_rng(n)
        mu = EmpiricalMeasure(rng.normal(size=(n, 2)) * [1.0, 2.0])
        C = covariance(mu)
        Y = np.asfortranarray(mu.atoms)
        row = {
            "covariance_us": per_call_us(lambda: covariance(mu)),
            "psd_sqrt_us": per_call_us(lambda: psd_sqrt(2.0 * C)),
            "state_constructor_us": per_call_us(lambda: EmpiricalMeasure(Y.copy(), mu.weights)),
        }
        if hasattr(mu, "with_atoms"):
            row["state_with_atoms_us"] = per_call_us(lambda: mu.with_atoms(Y.copy()))
        for name, params, d in (("eks-gaussian", {"Sigma": np.diag([1.0, 4.0])}, 2),
                                ("landau-maxwell", None, 3)):
            model = build_model(name, params)
            mu0 = EmpiricalMeasure(rng.normal(size=(n, d)))
            cfg = FrozenLawConfig(64, inner=1, seed=0)
            dW = euler_increments(cfg, 1.0, n, d)
            row[f"simulate_{name}_us"] = per_call_us(
                lambda: simulate_frozen_law(model, mu0, cfg, 1.0, dW=dW))
        out[f"N={n}"] = {k: round(v, 2) for k, v in row.items()}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
