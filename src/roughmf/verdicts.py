"""The shared gates behind ``roughmf verify`` and the acceptance suite.

Each gate reads the reports its layer returns and gives back the dict that
``verdict.json`` stores: the numbers it read, ``pass``, the one-line
``contract`` it checks and ``margin``, the smallest slack of the contract's
inequalities in their own units; ``pass`` is ``margin >= 0``, so a NaN fails.
"""

from __future__ import annotations

import numpy as np

from .measures import moment
from .models import covariance, eks_gaussian_moment_ode, landau_moment_oracle

COCYCLE = ("point_defect <= 3 * self_defect and law_defect <= 3 * self_defect "
           "on every restart row")
DUALITY = "residual <= 3 * se for every test function"
STABILITY = "spread = max(max_ratios) / min(max_ratios) <= 2"
MOMENTS = {
    "eks-gaussian": "z_mean <= 3 and z_cov <= 3 against the moment ODE at every checked time",
    "landau-maxwell": "z_mean <= 3 and z_var <= 3 against the closed form at every checked time",
}


def _verdict(numbers: dict, contract: str, slacks) -> dict:
    slacks = np.asarray(slacks, dtype=float)
    margin = float(np.min(slacks)) if slacks.size else -np.inf
    return numbers | {"pass": bool(margin >= 0), "contract": contract, "margin": margin}


def cocycle(reports) -> dict:
    """``cocycle_defect`` reports, each row stored with its tolerance; a
    check with no rows tested nothing and fails."""
    rows = [rep | {"tolerance": 3.0 * rep["self_defect"]} for rep in reports]
    slacks = [r["tolerance"] - r[k] for r in rows for k in ("point_defect", "law_defect")]
    return _verdict({"defects": rows}, COCYCLE, slacks)


def duality(reports: dict) -> dict:
    """``feynman_kac_duality`` reports keyed by test-function name."""
    numbers = {name: {"residual": r["residual"], "se": r["se"]}
               for name, r in reports.items()}
    return _verdict(numbers, DUALITY,
                    [3.0 * r["se"] - r["residual"] for r in reports.values()])


def stability(max_ratios) -> dict:
    """The ``max_ratio`` of each ``stability_check`` report; a zero ratio
    (a start that measured no distance) gives an infinite spread."""
    lo, hi = float(np.min(max_ratios)), float(np.max(max_ratios))
    spread = hi / lo if lo > 0 else np.inf
    return _verdict({"max_ratios": list(max_ratios), "spread": spread}, STABILITY,
                    [2.0 - spread])


def _variance(mu) -> float:
    return moment(mu, 2.0) - float(mu.mean() @ mu.mean())


def moments(model, curve, ks) -> dict:
    """z-scores of the curve's moments at its states ``ks`` against the
    model's oracle from its first state mu0 at the states' times, each the
    worst over the states.

    EKS: the closed-form solution of the moment ODE at each time; the
    standard errors are the Gaussian ones of an N-sample mean and
    covariance.  Landau: the closed form; the empirical mean walks with
    Var(m_t - m_0) = (2/3N) int_0^t v ds per coordinate, and the sample
    variance of N draws has standard error sqrt(2/(3N)) v.
    """
    mu0 = curve.measures[0]
    N = mu0.n
    if model.name == "eks-gaussian":
        ms, Cs = eks_gaussian_moment_ode(model.constants["Sigma"], mu0.mean(),
                                         covariance(mu0), curve.times[list(ks)])
        zs = []
        for k, m, C in zip(ks, ms, Cs):
            mu_t, c = curve.measures[k], np.diag(C)
            se_C = np.sqrt((np.outer(c, c) + C**2) / N)
            zs.append((np.max(np.abs(mu_t.mean() - m) / np.sqrt(c / N)),
                       np.max(np.abs(covariance(mu_t) - C) / se_C)))
        names = ("z_mean", "z_cov")
    elif model.name == "landau-maxwell":
        v0 = _variance(mu0)
        zs = []
        for k in ks:
            t, mu_t = curve.times[k], curve.measures[k]
            m_pred, v_pred = landau_moment_oracle(mu0.mean(), v0, t)
            se_mean = np.sqrt(v0 * (1.0 - np.exp(-2.0 * t)) / (3.0 * N))
            se_var = np.sqrt(2.0 / (3.0 * N)) * v_pred
            zs.append((np.max(np.abs(mu_t.mean() - m_pred)) / se_mean,
                       abs(_variance(mu_t) - v_pred) / se_var))
        names = ("z_mean", "z_var")
    else:
        raise ValueError(f"no moment oracle for {model.name}")
    worst = np.max(zs, axis=0)  # NaN-propagating, unlike max()
    return _verdict({n: float(z) for n, z in zip(names, worst)}, MOMENTS[model.name],
                    3.0 - worst)
