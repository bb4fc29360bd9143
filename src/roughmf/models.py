"""Concrete mean-field models: the ensemble Kalman sampler (EKS) and the
Maxwell-molecule Landau system, plus the PSD matrix square root, sampling
audits of the coefficient assumptions, and the closed-form moment solutions
used as oracles by the verdicts and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .measures import EmpiricalMeasure, dp_bracket, moment


def covariance(mu: EmpiricalMeasure) -> np.ndarray:
    """Weighted covariance sum w_i (y_i - m)(y_i - m)^T, the one BLAS
    product (z^T * w) @ z of the centred atoms z = y - m; exactly symmetric.
    Each entry is a dot product of N terms, so it is within gamma_{N+1}
    (|z|^T W |z|)_ij of the exact sum whatever order BLAS sums in
    (gamma_k = k u / (1 - k u), u = 2^-53, W = diag(w))."""
    z = mu.atoms - mu.mean()
    C = (z.T * mu.weights) @ z
    return 0.5 * (C + C.T)


def psd_sqrt(A: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix via eigendecomposition.

    Round-off negative eigenvalues are clamped to zero; eigenvalues below
    -1e-12 * trace mean the input is genuinely indefinite and are an error.
    """
    A = np.asarray(A, dtype=float)
    T = A.T
    # np.allclose(A, A.T, atol=1e-10) written out, without its wrapper: an
    # entry passes if it equals its mirror or lies within
    # 1e-10 + 1e-5 |mirror| of a finite mirror, so NaN never passes; an
    # exactly symmetric matrix, such as every Cov(mu), passes at the first test
    if not (A == T).all():
        with np.errstate(invalid="ignore"):
            close = (np.abs(A - T) <= 1e-10 + 1e-5 * np.abs(T)) & np.isfinite(T) | (A == T)
        if not close.all():
            raise ValueError("psd_sqrt expects a symmetric matrix")
    w, V = np.linalg.eigh(A)
    floor = -1e-12 * max(A.trace(), 1.0)
    if (w < floor).any():
        raise ValueError(f"matrix is indefinite: min eigenvalue {w.min():g}")
    return (V * np.sqrt(np.maximum(w, 0.0))) @ V.T


@dataclass
class MeanFieldModel:
    """The affine drift b(y, mu) = B(mu) y + c(mu), declared as
    drift(mu) -> (B (d, d), c (d,)), and the affine diffusion
    sigma(y, mu)_{ik} = sum_j a0[i, k, j] y_j + a1(mu)_{ik}, declared once
    for the particle step and the RDE layer: a0 (d, d, d), a1(mu) (d, d),
    under the frozen law mu.  constants carries the declared assumption
    envelopes (keys: "F" Lipschitz-in-measure envelope, "C" growth/coercivity
    constant, "kappa" the moment index used by the audit).
    """

    name: str
    d: int
    a0: np.ndarray
    a1: Callable[[EmpiricalMeasure], np.ndarray]
    drift: Callable[[EmpiricalMeasure], tuple[np.ndarray, np.ndarray]]
    constants: dict = field(default_factory=dict)

    def __post_init__(self):
        shape, declared = (self.d, self.d), self.a1
        self.a0 = np.asarray(self.a0, dtype=float)
        if self.a0.shape != (self.d, *shape) or not np.isfinite(self.a0).all():
            raise ValueError(f"{self.name}: a0 must be a finite {(self.d, *shape)} array")

        def a1(mu):
            A = declared(mu)
            if np.shape(A) != shape:
                raise ValueError(f"{self.name}: a1(mu) must have shape {shape}, got {np.shape(A)}")
            return A

        self.a1 = a1

    def b(self, Y: np.ndarray, mu: EmpiricalMeasure) -> np.ndarray:
        """The (N, d) drifts Y @ B.T + c at the states Y, for the audits."""
        B, c = self.drift(mu)
        return Y @ B.T + c

    def sigma(self, Y: np.ndarray, mu: EmpiricalMeasure) -> np.ndarray:
        """The (N, d, d) diffusion matrices at the states Y, for the audits."""
        return np.einsum("ikj,nj->nik", self.a0, Y) + self.a1(mu)


def _once(mu: EmpiricalMeasure, key: str, f):
    """f(mu), kept in mu.derived: a law is frozen over a whole window."""
    if key not in mu.derived:
        mu.derived[key] = f(mu)
    return mu.derived[key]


# ---------------------------------------------------------------------------
# ensemble Kalman sampler
# ---------------------------------------------------------------------------

def eks_gaussian_model(Sigma: np.ndarray) -> MeanFieldModel:
    """The EKS for the Gaussian target N(0, Sigma), V(y) = y^T Sigma^{-1} y / 2:
    b = -Cov(mu) grad V(y) = -Cov(mu) Sigma^{-1} y, a0 = 0 and
    a1 = sqrt(2 Cov(mu)).  Cov(mu), the drift, and the root once a1 asks
    for it, are computed once per measure.
    """
    Sigma = np.asarray(Sigma, dtype=float)
    square = Sigma.ndim == 2 and Sigma.shape[0] == Sigma.shape[1] >= 1
    if not (square and np.allclose(Sigma, Sigma.T) and np.linalg.eigvalsh(Sigma).min() > 0):
        raise ValueError(f"Sigma must be symmetric positive definite, got {Sigma.tolist()}")
    d = Sigma.shape[0]
    P, zero = np.linalg.inv(Sigma), np.zeros(d)

    def drift(mu):
        return _once(mu, "drift", lambda m: (-_once(m, "cov", covariance) @ P, zero))

    def a1(mu):
        return _once(mu, "sqrt_2cov", lambda m: psd_sqrt(2.0 * _once(m, "cov", covariance)))

    return MeanFieldModel(
        name="eks-gaussian",
        d=d,
        a0=np.zeros((d, d, d)),
        a1=a1,
        drift=drift,
        constants={"F": 8.0 * d, "C": 8.0 * d, "kappa": 2.0, "Sigma": Sigma},
    )


# ---------------------------------------------------------------------------
# Landau, Maxwell molecules (d = 3)
# ---------------------------------------------------------------------------

#: tensor of the linear matrix field: sigma0(y)_{ik} = sum_j S0[i,k,j] y_j
LANDAU_S0 = np.zeros((3, 3, 3))
LANDAU_S0[0, 0, 1] = 1.0
LANDAU_S0[0, 2, 2] = 1.0
LANDAU_S0[1, 0, 0] = -1.0
LANDAU_S0[1, 1, 2] = 1.0
LANDAU_S0[2, 1, 1] = -1.0
LANDAU_S0[2, 2, 0] = -1.0


def sigma0(y: np.ndarray) -> np.ndarray:
    """Linear matrix field with sigma0(y) sigma0(y)^T = |y|^2 Id - y (x) y.

    Takes one vector (3,) or a stack (..., 3) and returns (..., 3, 3).
    """
    y = np.asarray(y, dtype=float)
    if y.ndim == 0 or y.shape[-1] != 3:
        raise ValueError("sigma0 is defined on R^3")
    return np.einsum("ikj,...j->...ik", LANDAU_S0, y)


#: the Landau drift's linear part, B = -2 I on every law
LANDAU_B = -2.0 * np.eye(3)
LANDAU_B.flags.writeable = False


def landau_model() -> MeanFieldModel:
    """b = -2y + 2 m(mu): B = LANDAU_B and c = 2 m(mu); sigma =
    sigma0(y - m(mu)): a0 = LANDAU_S0 and a1 = -sigma0(m(mu)) =
    sigma0(-m(mu)).  sigma0 is linear, so its measure average equals its
    value at the mean; the mean, the drift and a1 are computed once per
    measure.
    """

    def mean(mu):
        return _once(mu, "mean", EmpiricalMeasure.mean)

    def drift(mu):
        return _once(mu, "drift", lambda m: (LANDAU_B, 2.0 * mean(m)))

    def a1(mu):
        return _once(mu, "a1", lambda m: sigma0(-mean(m)))

    return MeanFieldModel(
        name="landau-maxwell",
        d=3,
        a0=LANDAU_S0,
        a1=a1,
        drift=drift,
        constants={"F": 16.0, "C": 16.0, "kappa": 2.0},
    )


# ---------------------------------------------------------------------------
# assumption audit
# ---------------------------------------------------------------------------

def assumption_audit(model: MeanFieldModel, corpus) -> dict:
    """Evaluate the declared coefficient inequalities on a sample corpus.

    corpus: iterable of (y, mu, nu) triples.  Checks, with declared
    constants F and C and the conservative dual-metric upper bound:
      (i)   |b(y,mu)-b(y,nu)| + |sigma(y,mu)-sigma(y,nu)|
              <= F (1 + |y|) * upper-bracket(mu, nu)
      (ii)  <b(y,mu), y> <= C (1 + |y|^2 + M_2(mu))
      (iii) |sigma(y,mu)|^2 <= C (1 + |y|^2 + M_2(mu))
    Returns per-check violation lists (empty lists mean a clean audit).
    """
    F = model.constants.get("F", 1.0)
    C = model.constants.get("C", 1.0)
    kappa = model.constants.get("kappa", 2.0)
    viol = {"measure_lipschitz": [], "coercivity": [], "growth": []}
    for idx, (y, mu, nu) in enumerate(corpus):
        y = np.asarray(y, dtype=float)
        Y = y[None]
        b_mu, sig_mu = model.b(Y, mu)[0], model.sigma(Y, mu)[0]
        # sigma(y, mu) - sigma(y, nu) = a1(mu) - a1(nu): a0 . y cancels
        lhs = np.linalg.norm(b_mu - model.b(Y, nu)[0]) + np.linalg.norm(model.a1(mu) - model.a1(nu))
        _, upper, _ = dp_bracket(mu, nu, kappa)
        if lhs > F * (1.0 + np.linalg.norm(y)) * upper + 1e-9:
            viol["measure_lipschitz"].append(idx)
        env = C * (1.0 + float(y @ y) + moment(mu, 2.0))
        if float(b_mu @ y) > env + 1e-9:
            viol["coercivity"].append(idx)
        if np.linalg.norm(sig_mu) ** 2 > env + 1e-9:
            viol["growth"].append(idx)
    viol["clean"] = not any(viol[k] for k in ("measure_lipschitz", "coercivity", "growth"))
    return viol


# ---------------------------------------------------------------------------
# moment-ODE oracles (closed-form mean/covariance dynamics)
# ---------------------------------------------------------------------------

def eks_gaussian_moment_ode(Sigma, m0, C0, times):
    """Mean/covariance dynamics of the Gaussian-target EKS,

        dm/dt = -C Sigma^{-1} m,   dC/dt = -2 C Sigma^{-1} C + 2 C,

    solved exactly at ``times``.  K = C^{-1} solves K' = 2 Sigma^{-1} - 2K;
    whitened by Sigma^{1/2}, with S = Sigma^{-1/2} C0 Sigma^{-1/2} =
    U diag(lam) U^T and h(t) = e^{-2t} + (1 - e^{-2t}) lam, this gives

        C(t) = Sigma^{1/2} U diag(lam / h) U^T Sigma^{1/2},
        m(t) = e^{-t} Sigma^{1/2} U diag(h^{-1/2}) U^T Sigma^{-1/2} m0,

    which holds for singular C0 too (lam = 0 directions stay at 0).
    Returns (means (n, d), covariances (n, d, d)) for the n times.
    """
    w, V = np.linalg.eigh(np.asarray(Sigma, dtype=float))
    root, inv_root = (V * np.sqrt(w)) @ V.T, (V / np.sqrt(w)) @ V.T
    lam, U = np.linalg.eigh(inv_root @ np.asarray(C0, dtype=float) @ inv_root)
    t = np.asarray(times, dtype=float)[:, None]
    e = np.exp(-2.0 * t)
    h = e + (1.0 - e) * lam  # (n, d)
    RU = root @ U
    z0 = U.T @ inv_root @ np.asarray(m0, dtype=float)
    means = (np.exp(-t) / np.sqrt(h) * z0) @ RU.T
    covs = (RU * (lam / h)[:, None, :]) @ RU.T
    return means, covs


def landau_moment_oracle(m0, v0, t):
    """Maxwell-molecule moments: the mean is conserved and the scalar
    variance v = M_2 - |m|^2 decays as v0 e^{-2t}."""
    return np.asarray(m0, dtype=float), float(v0) * np.exp(-2.0 * np.asarray(t))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def build_model(name: str, params: Optional[dict] = None) -> MeanFieldModel:
    params = params or {}
    if name == "eks-gaussian":
        Sigma = np.asarray(params.get("Sigma", np.eye(int(params.get("d", 2)))))
        return eks_gaussian_model(Sigma)
    if name == "landau-maxwell":
        return landau_model()
    raise ValueError(f"unknown model {name!r}")
