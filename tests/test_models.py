from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from roughmf.measures import EmpiricalMeasure, moment
from roughmf.models import (
    LANDAU_S0,
    assumption_audit,
    build_model,
    covariance,
    eks_gaussian_model,
    eks_gaussian_moment_ode,
    landau_model,
    landau_moment_oracle,
    psd_sqrt,
    sigma0,
)


def gauss_cloud(seed, n=200, d=2, scale=1.0, shift=0.0):
    rng = np.random.default_rng(seed)
    return EmpiricalMeasure(scale * rng.normal(size=(n, d)) + shift)


def test_covariance_symmetric_and_correct():
    mu = gauss_cloud(0, n=5000, d=2, scale=2.0)
    C = covariance(mu)
    assert np.array_equal(C, C.T)
    ref = np.cov(mu.atoms.T, bias=True)
    assert np.max(np.abs(C - ref)) <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 7, 2000])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("weights", ["uniform", "dirichlet"])
def test_covariance_is_the_old_einsum_within_its_round_off(d, n, order, weights):
    # both forms take the same centred atoms z and sum N products of two
    # roundings each, so each entry lies within gamma_{N+1} S_ij of the
    # exact sum, S = |z|^T W |z|, and the symmetrization adds one rounding
    # of at most u S_ij: the two differ by at most 2 gamma_{N+2} S_ij
    rng = np.random.default_rng(100 * d + n)
    atoms = np.asarray(3.0 * rng.normal(size=(n, d)) + 1.5, order=order)
    w = None if weights == "uniform" else rng.dirichlet(np.ones(n))
    mu = EmpiricalMeasure(atoms, w)
    z = mu.atoms - mu.mean()
    old = np.einsum("n,ni,nj->ij", mu.weights, z, z)
    old = 0.5 * (old + old.T)
    C = covariance(mu)
    u = 2.0**-53
    gamma = (n + 2) * u / (1 - (n + 2) * u)
    S = np.einsum("n,ni,nj->ij", mu.weights, np.abs(z), np.abs(z))
    assert np.array_equal(C, C.T)
    assert np.all(np.abs(C - old) <= 2 * gamma * S)


SPECIAL = [0.0, -0.0, 1.0, -1.0, 3.0, 1e-12, 5e-324, 1e308, -1e308, np.inf, -np.inf, np.nan]


def _edge_values():
    # each base, its tolerance step 1e-10 + 1e-5 |base| away, and the
    # neighbouring floats just inside and just outside that step
    out = list(SPECIAL)
    for y in (1.0, 3.0, 1e-12, 0.0, -2.0):
        x = y + (1e-10 + 1e-5 * abs(y))
        out += [y, x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)]
    return out


def test_psd_sqrt_symmetry_test_is_allclose_written_out():
    values = _edge_values()
    for x in values:
        for y in values:
            A = np.array([[2.0, x], [y, 2.0]])
            with np.errstate(all="ignore"):
                symmetric = np.allclose(A, A.T, atol=1e-10)
                try:
                    psd_sqrt(A)
                    rejected = False
                except Exception as exc:  # e.g. an indefinite or non-finite matrix
                    rejected = "symmetric" in str(exc)
            assert rejected == (not symmetric), (x, y)
    # a non-finite diagonal equals its mirror unless it is NaN
    for v in (np.inf, -np.inf, np.nan):
        A = np.diag([v, 1.0])
        with np.errstate(all="ignore"):
            try:
                psd_sqrt(A)
                rejected = False
            except Exception as exc:
                rejected = "symmetric" in str(exc)
        assert rejected == (not np.allclose(A, A.T, atol=1e-10)), v


def test_psd_sqrt():
    A = np.array([[4.0, 0.0], [0.0, 9.0]])
    assert np.allclose(psd_sqrt(A), np.diag([2.0, 3.0]))
    rng = np.random.default_rng(1)
    B = rng.normal(size=(3, 3))
    S = B @ B.T
    R = psd_sqrt(S)
    assert np.allclose(R @ R, S, atol=1e-10)
    assert np.allclose(R, R.T)
    with pytest.raises(ValueError):
        psd_sqrt(np.array([[1.0, 0.5], [0.2, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        psd_sqrt(np.array([[1.0, 0.0], [0.0, -1.0]]))  # indefinite


@pytest.mark.parametrize("scale,clamped", [(1e-13, True), (1e-8, False)])
def test_psd_sqrt_indefiniteness_floor(scale, clamped):
    # an eigenvalue of -1e-13 tr A is round-off and clamped to zero; one of
    # -1e-8 tr A means the input is indefinite, on either side of the floor
    # -1e-12 max(tr A, 1)
    V = np.linalg.qr(np.random.default_rng(12).normal(size=(3, 3)))[0]
    lam = np.array([3.0, 2.0, 0.0])
    lam[2] = -scale * lam.sum() / (1.0 + scale)  # -scale tr A
    A = (V * lam) @ V.T
    A = 0.5 * (A + A.T)
    assert np.isclose(np.linalg.eigvalsh(A)[0], -scale * A.trace(), rtol=1e-2)
    if clamped:
        R = psd_sqrt(A)
        assert np.allclose(R @ R, (V * np.maximum(lam, 0.0)) @ V.T, atol=1e-12)
    else:
        with pytest.raises(ValueError, match="indefinite"):
            psd_sqrt(A)


# ---------------------------------------------------------------------------
# EKS
# ---------------------------------------------------------------------------

def test_eks_coefficients():
    # closed forms on a whole cloud: b = -Y Sigma^{-1} C, sigma sigma = 2 C
    Sigma = np.diag([1.0, 4.0])
    model = eks_gaussian_model(Sigma)
    mu = gauss_cloud(2, n=2000, d=2)
    Y = gauss_cloud(3, n=7, d=2).atoms
    C = covariance(mu)
    b = model.b(Y, mu)
    assert b.shape == (7, 2)
    assert np.allclose(b, -Y @ np.linalg.inv(Sigma) @ C, atol=1e-12)
    sig = model.sigma(Y, mu)
    assert sig.shape == (7, 2, 2)
    assert np.array_equal(sig, np.broadcast_to(sig[0], sig.shape))  # state-free
    assert np.allclose(sig[0] @ sig[0], 2.0 * C, atol=1e-10)
    assert np.allclose(sig[0], sig[0].T)


def random_law(g, n, d):
    """A cloud of n atoms with a random mean, covariance and weights."""
    atoms = g.normal(size=d) + g.normal(size=(n, d)) @ g.normal(size=(d, d))
    return EmpiricalMeasure(atoms, g.dirichlet(np.ones(n)))


@pytest.mark.parametrize("seed", range(4))
def test_declared_drifts_are_the_closed_forms(seed):
    # each model declares (B, c) with b(y, mu) = B y + c: EKS B = -C Sigma^-1
    # and c = 0 for a random SPD Sigma, Landau B = -2 I and c = 2 m, on
    # random states and laws; the pair is kept in mu.derived
    g = np.random.default_rng(seed)
    S = g.normal(size=(2, 2))
    Sigma = S @ S.T + 0.5 * np.eye(2)
    for model, d in ((eks_gaussian_model(Sigma), 2), (landau_model(), 3)):
        mu, Y = random_law(g, 30, d), 3.0 * g.normal(size=(7, d))
        B, c = model.drift(mu)
        assert all(a is b for a, b in zip(mu.derived["drift"], (B, c)))
        C, m = covariance(mu), mu.mean()
        if model.name == "eks-gaussian":
            want = -C @ np.linalg.inv(Sigma), np.zeros(2), -Y @ np.linalg.solve(Sigma, C)
        else:
            want = -2.0 * np.eye(3), 2.0 * m, -2.0 * Y + 2.0 * m
        assert B.shape == (d, d) and c.shape == (d,)
        for got, closed in zip((B, c, model.b(Y, mu)), want):
            assert np.allclose(got, closed, rtol=1e-12, atol=1e-12)


def test_eks_model_batch_matches_pointwise():
    # each row of the (N, d) evaluation equals the one-row view y[None]
    model = eks_gaussian_model(np.diag([1.0, 4.0]))
    mu = gauss_cloud(3, n=100, d=2)
    Y = mu.atoms[:7]
    bb = model.b(Y, mu)
    for k, y in enumerate(Y):
        assert np.allclose(bb[k], model.b(y[None], mu)[0], atol=1e-12)
    dW = np.random.default_rng(4).normal(size=(7, 2))
    sd = np.einsum("nik,nk->ni", model.sigma(Y, mu), dW)
    for k, y in enumerate(Y):
        assert np.allclose(sd[k], model.sigma(y[None], mu)[0] @ dW[k], atol=1e-12)
    # sigma is state-independent: linear part is zero
    assert np.array_equal(model.a0, np.zeros((2, 2, 2)))


def test_eks_covariance_once_per_measure(monkeypatch):
    # the law is frozen over a window: Cov(mu) and its root are computed once
    # per measure object, and the values equal a fresh computation bitwise
    from roughmf import models

    calls = {"covariance": 0, "psd_sqrt": 0}
    for name in calls:
        def counted(*args, _f=getattr(models, name), _name=name):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(models, name, counted)
    model = eks_gaussian_model(np.diag([1.0, 4.0]))
    mu, nu = gauss_cloud(5, n=50), gauss_cloud(6, n=50)
    Y = mu.atoms[:5]
    for _ in range(3):
        b, sig = model.b(Y, mu), model.sigma(Y, mu)
    assert calls == {"covariance": 1, "psd_sqrt": 1}
    model.b(Y, nu)  # the drift alone needs no root
    assert calls == {"covariance": 2, "psd_sqrt": 1}
    C = covariance(mu)
    assert np.array_equal(model.b(Y, mu), -Y @ np.diag([1.0, 0.25]) @ C.T)
    assert np.array_equal(sig[0], psd_sqrt(2.0 * C))


# ---------------------------------------------------------------------------
# Landau (Maxwell molecules)
# ---------------------------------------------------------------------------

def test_sigma0_projection_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        y = rng.normal(size=3)
        S = sigma0(y)
        target = (y @ y) * np.eye(3) - np.outer(y, y)
        assert np.allclose(S @ S.T, target, atol=1e-12)
        assert np.allclose(S.T @ y, 0.0, atol=1e-12)  # columns orthogonal to y
    with pytest.raises(ValueError):
        sigma0(np.zeros(2))
    with pytest.raises(ValueError):
        sigma0(np.zeros((4, 2)))


def test_sigma0_linearity_matches_tensor():
    rng = np.random.default_rng(6)
    y, z = rng.normal(size=3), rng.normal(size=3)
    assert np.allclose(sigma0(y + 2 * z), sigma0(y) + 2 * sigma0(z))
    assert np.allclose(sigma0(y), np.einsum("ikj,j->ik", LANDAU_S0, y))
    stack = sigma0(np.stack([y, z]))
    assert np.array_equal(stack[0], sigma0(y)) and np.array_equal(stack[1], sigma0(z))


def test_landau_coefficients():
    # closed forms on a whole cloud: b = -2y + 2m, sigma = sigma0(y - m)
    model = landau_model()
    mu = gauss_cloud(7, n=64, d=3, shift=0.5)
    Y = np.array([[0.2, -0.3, 1.0], [0.0, 0.0, 0.0], [1.0, 2.0, -1.0]])
    m = mu.mean()
    assert np.allclose(model.b(Y, mu), -2 * Y + 2 * m)
    sig = model.sigma(Y, mu)
    assert sig.shape == (3, 3, 3)
    for k, y in enumerate(Y):
        z = y - m
        assert np.allclose(sig[k], sigma0(z))
        assert np.allclose(sig[k] @ sig[k].T, (z @ z) * np.eye(3) - np.outer(z, z))
    assert np.array_equal(model.a0, LANDAU_S0)
    with pytest.raises(ValueError):  # the system lives in R^3
        model.sigma(np.zeros((4, 2)), EmpiricalMeasure(np.zeros((5, 2))))


def test_landau_fluctuation_energy_identity():
    # |sigma0(z)|_F^2 = trace(|z|^2 I - z z^T) = 2 |z|^2, atom by atom
    rng = np.random.default_rng(9)
    mu = EmpiricalMeasure(rng.normal(size=(32, 3)))
    model = landau_model()
    z = mu.atoms - mu.mean()
    energy = np.sum(model.sigma(mu.atoms, mu) ** 2, axis=(1, 2))
    assert np.allclose(energy, 2.0 * np.sum(z * z, axis=1), rtol=1e-12)


def test_landau_mean_once_per_window(monkeypatch):
    # the law is frozen over a window: its mean is computed once per window
    # measure, for b and a1 alike, and equals a fresh computation bitwise
    from roughmf.meanfield import FrozenLawConfig, simulate_frozen_law

    calls = []
    fresh = EmpiricalMeasure.mean

    def counted(self):
        calls.append(self)
        return fresh(self)

    monkeypatch.setattr(EmpiricalMeasure, "mean", counted)
    model = landau_model()
    mu0 = gauss_cloud(8, n=40, d=3, shift=0.5)
    curve = simulate_frozen_law(model, mu0, FrozenLawConfig(4, inner=3, seed=0), T=1.0)
    windows = curve.measures[:-1]
    assert len(calls) == 4 and all(a is b for a, b in zip(calls, windows))
    mu, Y = windows[2], mu0.atoms[:5]
    m = fresh(mu)
    assert np.array_equal(model.b(Y, mu), -2.0 * Y + 2.0 * m)
    assert np.array_equal(model.a1(mu), -sigma0(m))
    assert len(calls) == 4


def test_declaration_rejects_a_bad_a0():
    model = landau_model()
    inf = LANDAU_S0.copy()
    inf[0, 0, 1] = np.inf
    for a0 in (np.zeros((3, 3)), np.zeros((2, 2, 2)), np.full((3, 3, 3), np.nan), inf):
        with pytest.raises(ValueError, match=r"a0 must be a finite \(3, 3, 3\) array") as err:
            replace(model, a0=a0)
        assert "\n" not in str(err.value)


def test_first_a1_of_a_wrong_shape_raises():
    from roughmf.meanfield import FrozenLawConfig, simulate_frozen_law

    mu0 = gauss_cloud(9, n=10, d=2)
    for shape in ((2,), (2, 3), (1, 2, 2)):
        model = replace(eks_gaussian_model(np.eye(2)), a1=lambda mu, s=shape: np.ones(s))
        for call in (lambda: model.a1(mu0), lambda: model.sigma(mu0.atoms, mu0),
                     lambda: simulate_frozen_law(model, mu0, FrozenLawConfig(2), 1.0)):
            with pytest.raises(ValueError, match=r"a1\(mu\) must have shape \(2, 2\)") as err:
                call()
            assert "\n" not in str(err.value)


# ---------------------------------------------------------------------------
# assumption audit
# ---------------------------------------------------------------------------

def corpus(model, seed, size=10):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(size):
        y = rng.normal(size=model.d)
        mu = EmpiricalMeasure(rng.normal(size=(64, model.d)))
        nu = EmpiricalMeasure(mu.atoms + 0.1 * rng.normal(size=model.d))
        out.append((y, mu, nu))
    return out


@pytest.mark.parametrize("name", ["eks-gaussian", "landau-maxwell"])
def test_assumption_audit_clean(name):
    params = {"Sigma": np.diag([1.0, 4.0])} if name == "eks-gaussian" else None
    model = build_model(name, params)
    out = assumption_audit(model, corpus(model, 10))
    assert out["clean"], out


def test_assumption_audit_flags_bad_constants():
    model = build_model("landau-maxwell")
    model.constants = dict(model.constants, F=1e-6, C=1e-6)
    out = assumption_audit(model, corpus(model, 11))
    assert not out["clean"]


def test_assumption_audit_flags_a_coercivity_violation():
    # <b(y, mu), y> = 100 |y|^2 outgrows C (1 + |y|^2 + M_2(mu)) at large |y|
    model = build_model("eks-gaussian", {"Sigma": np.diag([1.0, 4.0])})
    samples = corpus(model, 12)
    samples[3] = (np.array([3.0, 0.0]), *samples[3][1:])
    assert assumption_audit(model, samples)["clean"]
    bad = replace(model, drift=lambda mu: (100.0 * np.eye(2), np.zeros(2)))
    out = assumption_audit(bad, samples)
    C = model.constants["C"]
    want = [i for i, (y, mu, _) in enumerate(samples)
            if 100.0 * (y @ y) > C * (1.0 + y @ y + moment(mu, 2.0)) + 1e-9]
    assert 3 in want and len(want) < len(samples)
    assert out["coercivity"] == want
    assert out["measure_lipschitz"] == [] and out["growth"] == []
    assert not out["clean"]


# ---------------------------------------------------------------------------
# moment oracles
# ---------------------------------------------------------------------------

def test_eks_moment_ode_fixed_point():
    # C = Sigma, m = 0 is stationary
    Sigma = np.diag([1.0, 4.0])
    ms, Cs = eks_gaussian_moment_ode(Sigma, np.zeros(2), Sigma, np.linspace(0.0, 2.0, 4001))
    assert np.max(np.abs(ms)) <= 1e-12
    assert np.max(np.abs(Cs - Sigma)) <= 1e-10


def test_eks_moment_ode_scalar_closed_form():
    # d = 1, Sigma = 1: dc/dt = -2c^2 + 2c has c(t) = c0 / (c0 + (1-c0)e^{-2t})
    c0 = 0.2
    ts = np.linspace(0.0, 2.0, 4001)
    _, Cs = eks_gaussian_moment_ode(np.eye(1), np.zeros(1), c0 * np.eye(1), ts)
    ref = c0 / (c0 + (1 - c0) * np.exp(-2.0 * ts))
    assert np.max(np.abs(Cs[:, 0, 0] - ref)) <= 1e-8


def test_eks_moment_ode_attracts_to_target():
    Sigma = np.diag([1.0, 4.0])
    ms, Cs = eks_gaussian_moment_ode(
        Sigma, np.array([1.0, -1.0]), 0.25 * np.eye(2), np.linspace(0.0, 8.0, 4001)
    )
    assert np.linalg.norm(ms[-1]) <= 5e-3
    assert np.max(np.abs(Cs[-1] - Sigma)) <= 5e-3
    # distance to the target covariance decreases monotonically
    gaps = np.linalg.norm(Cs - Sigma, axis=(1, 2))
    assert np.all(np.diff(gaps) <= 1e-12)


@pytest.mark.parametrize("Sigma, m0, C0", [
    ([[1.0, 0.0], [0.0, 4.0]], [1.0, -1.0], [[0.25, 0.1], [0.1, 0.5]]),
    ([[2.0, 0.5], [0.5, 1.0]], [0.3, 0.7], [[1.0, 1.0], [1.0, 1.0]]),  # singular C0
    ([[2.0, 0.5], [0.5, 1.0]], [-1.0, 2.0], [[3.0, -1.0], [-1.0, 2.0]]),
])
def test_eks_moment_ode_matches_an_ode_solver(Sigma, m0, C0):
    # the closed form against an independent DOP853 solve of the moment ODE
    Sigma, m0, C0 = (np.asarray(a, dtype=float) for a in (Sigma, m0, C0))
    P = np.linalg.inv(Sigma)

    def f(t, state):
        m, C = state[:2], state[2:].reshape(2, 2)
        return np.concatenate([-C @ P @ m, (-2.0 * C @ P @ C + 2.0 * C).ravel()])

    ts = np.linspace(0.0, 2.0, 9)
    ref = solve_ivp(f, (0.0, 2.0), np.concatenate([m0, C0.ravel()]), method="DOP853",
                    t_eval=ts, rtol=1e-11, atol=1e-13).y.T
    ms, Cs = eks_gaussian_moment_ode(Sigma, m0, C0, ts)
    assert np.max(np.abs(ms - ref[:, :2])) <= 1e-9
    assert np.max(np.abs(Cs.reshape(-1, 4) - ref[:, 2:])) <= 1e-9


def test_landau_moment_oracle():
    m0 = np.array([1.0, 2.0, 3.0])
    m, v = landau_moment_oracle(m0, 5.0, np.array([0.0, 1.0]))
    assert np.array_equal(m, m0)
    assert np.allclose(v, [5.0, 5.0 * np.exp(-2.0)])


def test_build_model_registry():
    assert build_model("landau-maxwell").name == "landau-maxwell"
    assert build_model("eks-gaussian", {"d": 3}).d == 3
    with pytest.raises(ValueError):
        build_model("unknown")
