"""Timings of the exact W_2 matching, for before/after comparisons.

Times scipy's ``linear_sum_assignment`` on the plain cost ``cdist ** 2``
against ``measures._coupling_assignment`` (cost build, any warm start and
the solve) at p = 2, serially, on three sets of equal-size uniform pairs:
  - ``metric-curves``: the reference config's (``perfbench/
    reference-config.json``) non-identical pairs (mu_t, mu_0) that ``emit
    --kind metric-curves`` solves, 16 per seed, 64 in all
  - ``stability``: the 34 pairs that ``verify``'s stability check solves on
    that config's first seed: mu_0 against its two shifted starts, then
    each curve state against the same state of each shifted run
  - ``synthetic``: 500-atom pairs, 8 seeds each of a shifted 3-d Gaussian,
    a uniform square against a uniform square, and clouds offset by 1e3
    with different spreads

For each set it reports the median ms per pair of each solve, their
totals, and how many pairs give the same permutation both ways.  Each
figure is the median over REPEATS passes.  Run it against one source tree
at a time, one process each:

    PYTHONPATH=src python tools/assignment_timings.py

and it prints one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import tempfile
import time

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from roughmf import cli, meanfield, measures
from roughmf.measures import EmpiricalMeasure

REPEATS = 3
CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench",
                      "reference-config.json")


def reference_pairs():
    """The metric-curves and stability pairs of the reference config, each
    cloud built as ``emit`` and ``verify`` build it."""
    cfg = cli.load_config(CONFIG)
    with tempfile.TemporaryDirectory() as outdir:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.cmd_simulate(cfg, outdir)
        curves = []
        for seed in cfg["seeds"]:
            table = cli._read_table(os.path.join(outdir, f"curve-seed{seed}.txt"))
            clouds = [EmpiricalMeasure(table[table[:, 0] == t][:, 2:])
                      for t in np.unique(table[:, 0])]
            curves += [(m, clouds[0]) for m in clouds[1:]]
    # cli.check_stability's starts and runs, on its common noise
    run, details = cli.verify_run(cfg)
    curve = details.curve
    mu0 = curve.measures[0]
    shift = np.ones(mu0.d) / np.sqrt(mu0.d)
    starts = [EmpiricalMeasure(mu0.atoms + eps * shift, mu0.weights) for eps in (1e-1, 1e-2)]
    stability = [(mu0, r) for r in starts]
    for r in starts:
        moved = meanfield.simulate_frozen_law(run.model, r, run.cfg, run.T,
                                              dW=run.law_noise(mu0.n))
        stability += list(zip(curve.measures[1:], moved.measures[1:]))
    return curves, stability


def synthetic_pairs():
    out = []
    for seed in range(8):
        rng = np.random.default_rng(seed)
        out.append((rng.normal(size=(500, 3)), rng.normal(size=(500, 3)) + 0.5))
        out.append((rng.uniform(size=(500, 2)), rng.uniform(size=(500, 2))))
        out.append((rng.normal(size=(500, 2)) + 1e3, 2.0 * rng.normal(size=(500, 2)) + 1e3))
    return [(EmpiricalMeasure(x), EmpiricalMeasure(y)) for x, y in out]


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def measure(pairs) -> dict:
    plain_s, warm_s, same = [], [], 0
    for mu, nu in pairs:
        tp, tw = [], []
        for _ in range(REPEATS):
            t, (_, want) = timed(lambda: linear_sum_assignment(cdist(mu.atoms, nu.atoms) ** 2))
            tp.append(t)
            t, (_, ys, _) = timed(lambda: measures._coupling_assignment(mu, nu, 2.0))
            tw.append(t)
        plain_s.append(statistics.median(tp))
        warm_s.append(statistics.median(tw))
        same += bool(np.array_equal(ys, nu.atoms[want]))
    return {
        "pairs": len(pairs),
        "plain_median_ms": round(1e3 * statistics.median(plain_s), 2),
        "coupling_median_ms": round(1e3 * statistics.median(warm_s), 2),
        "plain_total_s": round(sum(plain_s), 3),
        "coupling_total_s": round(sum(warm_s), 3),
        "same_permutation": same,
    }


def main() -> None:
    curves, stability = reference_pairs()
    out = {
        "metric-curves": measure(curves),
        "stability": measure(stability),
        "synthetic": measure(synthetic_pairs()),
    }
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
