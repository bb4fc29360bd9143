"""Each shared gate passes a report exactly at its contract and fails one
just past it, so every gate can fail."""

import math

import numpy as np
import pytest

from roughmf import verdicts
from roughmf.meanfield import MeasureCurve
from roughmf.measures import EmpiricalMeasure
from roughmf.models import build_model, covariance, eks_gaussian_moment_ode

PAST = math.nextafter(3.0, math.inf)


def assert_verdict(v, passes):
    assert v["pass"] is passes, v
    assert (v["margin"] >= 0) is passes, v
    assert v["contract"] and "\n" not in v["contract"]


def row(point, law, self_defect=1.0):
    return {"s": 0.25, "t": 0.5, "point_defect": point, "law_defect": law,
            "self_defect": self_defect}


def test_cocycle_gate():
    at = verdicts.cocycle([row(0.0, 0.0), row(3.0, 3.0)])
    assert_verdict(at, True)
    assert at["margin"] == 0.0
    assert [r["tolerance"] for r in at["defects"]] == [3.0, 3.0]
    assert_verdict(verdicts.cocycle([row(0.0, 0.0), row(PAST, 0.0)]), False)
    assert_verdict(verdicts.cocycle([row(0.0, PAST)]), False)
    assert_verdict(verdicts.cocycle([row(math.nan, 0.0)]), False)
    # no restart row tested nothing
    assert_verdict(verdicts.cocycle([]), False)


def test_duality_gate():
    se = 0.0317
    at = verdicts.duality({"coord0": {"residual": 0.0, "se": se},
                           "sq": {"residual": 3.0 * se, "se": se, "lhs": 1.0}})
    assert_verdict(at, True)
    assert at["margin"] == 0.0 and at["sq"] == {"residual": 3.0 * se, "se": se}
    past = math.nextafter(3.0 * se, math.inf)
    assert_verdict(verdicts.duality({"sq": {"residual": past, "se": se}}), False)


def test_stability_gate():
    at = verdicts.stability([0.5, 1.0])
    assert_verdict(at, True)
    assert at["spread"] == 2.0 and at["margin"] == 0.0 and at["max_ratios"] == [0.5, 1.0]
    assert_verdict(verdicts.stability([0.5, math.nextafter(1.0, 2.0)]), False)
    # a start that measured no distance, or a NaN, is no evidence of stability
    assert_verdict(verdicts.stability([0.0, 1.0]), False)
    assert_verdict(verdicts.stability([1.0, math.nan]), False)


def cloud(mean, cov, n=500, seed=0):
    """n atoms whose mean and covariance are `mean` and `cov` to round-off."""
    z = np.random.default_rng(seed).normal(size=(n, len(mean)))
    z -= z.mean(axis=0)
    z = np.linalg.solve(np.linalg.cholesky(covariance(EmpiricalMeasure(z))), z.T).T
    return EmpiricalMeasure(np.asarray(mean) + z @ np.linalg.cholesky(cov).T)


# The z-scores of a sampled law cannot be placed on 3 to the bit, so the
# moment gate is probed a relative 1e-6 on either side of its contract.
@pytest.mark.parametrize("name", ["eks-gaussian", "landau-maxwell"])
@pytest.mark.parametrize("z_mean, z_second, passes", [
    (3 * (1 - 1e-6), 0.0, True),
    (0.0, 3 * (1 - 1e-6), True),
    (3 * (1 + 1e-6), 0.0, False),
    (0.0, 3 * (1 + 1e-6), False),
])
def test_moments_gate(name, z_mean, z_second, passes):
    T, N = 0.5, 500
    model = build_model(name, {"Sigma": np.diag([1.0, 4.0])} if name == "eks-gaussian" else None)
    d = model.d
    mu0 = cloud(np.linspace(-0.5, 0.5, d), np.eye(d) * 0.7, N, seed=1)
    e0 = np.eye(d)[0]
    if name == "eks-gaussian":
        ms, Cs = eks_gaussian_moment_ode(model.constants["Sigma"], mu0.mean(),
                                         covariance(mu0), [T])
        C = Cs[-1]
        mean = ms[-1] + z_mean * np.sqrt(C[0, 0] / N) * e0
        cov = C + z_second * C[0, 0] * np.sqrt(2.0 / N) * np.outer(e0, e0)
        second = "z_cov"
    else:
        v0 = float(np.trace(covariance(mu0)))
        v = v0 * np.exp(-2.0 * T)
        mean = mu0.mean() + z_mean * np.sqrt(v0 * (1.0 - np.exp(-2.0 * T)) / (3.0 * N)) * e0
        cov = (v + z_second * np.sqrt(2.0 / (3.0 * N)) * v) / d * np.eye(d)
        second = "z_var"
    curve = MeasureCurve(np.array([0.0, T]), [mu0, cloud(mean, cov, N, seed=2)])
    v = verdicts.moments(model, curve, [1])  # the state at T
    assert_verdict(v, passes)
    assert v["z_mean"] == pytest.approx(z_mean, abs=1e-9)
    assert v[second] == pytest.approx(z_second, abs=1e-9)
