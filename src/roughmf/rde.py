"""Rough differential equation solvers.

Solves dY = b(t, Y) dt + sigma(t, Y) dX for a rough driver (X, XX) by a
one-step Milstein-type scheme using both levels of the driver per cell:

    Y+ = Y + sigma X + (grad_sigma sigma) : XX.

One cell map serves every solve.  Backward solves and backward Jacobians
apply it from the state at the cell's right edge to the inverted cell, whose
signature is (1, X, XX)^-1 = (1, -X, X (x) X - XX); flow Jacobians step the
linearised cell map along a stored trajectory.  In both directions sigma's
time dependence is read at the cell's left edge, with no dsigma/dt term: the
frozen-law coefficients are piecewise constant in time, and a cell's left
edge lies in its own freeze window.  Drifts enter through the Doss-Sussmann
conjugation: for linear diffusions the driftless flow is an affine map
tabulated exactly, and the drift becomes a classical ODE in transformed
coordinates; for nonlinear diffusions an equivalent per-cell Strang
splitting realises the same local expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import _accel
from .controlled import ControlledPath
from .roughpath import RoughPath

DEFAULT_GUARD = 1e8


@dataclass
class CoefficientField:
    """Drift/diffusion pair with closed-form derivatives.

    sigma_y has index layout [i, k, j] = d sigma_{ik} / d y_j; sigma_yy adds
    a second state axis.  ``linear`` declares the affine structure
    sigma(t, y)_{ik} = sum_j a0[i, k, j] y_j + a1(t)[i, k] as the pair
    (a0, a1) when it holds, which unlocks the exact affine-flow path in the
    solvers.
    """

    sigma: Callable[[float, np.ndarray], np.ndarray]
    b: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    sigma_y: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    sigma_yy: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    linear: Optional[tuple] = None  # (a0, a1)


def linear_coefficients(
    a0: np.ndarray,
    a1: Optional[Callable[[float], np.ndarray]] = None,
    b: Optional[Callable] = None,
    d: Optional[int] = None,
) -> CoefficientField:
    """CoefficientField for sigma(t, y) = a0 . y + a1(t), a1 = 0 by default.

    a0 is the (d, d, d) tensor with sigma_{ik} = sum_j a0[i, k, j] y_j.  A
    (1, 1) matrix is accepted for d = 1; any other (d, d) matrix is
    rejected, because it does not say which axis acts on y.
    """
    a0 = np.asarray(a0, dtype=float)
    if a0.ndim == 2:
        if a0.shape != (1, 1):
            raise ValueError("pass the full (d, d, d) tensor for d > 1")
        a0 = a0.reshape(1, 1, 1)
    dd = a0.shape[0] if d is None else d
    if a0.shape != (dd, dd, dd):
        raise ValueError("a0 must have shape (d, d, d)")
    if a1 is None:
        zero = np.zeros((dd, dd))

        def a1(t):
            return zero

    def sig(t, y, a0=a0):
        return np.einsum("ikj,j->ik", a0, y) + a1(t)

    def sig_y(t, y, a0=a0):
        return a0

    def sig_yy(t, y, a0=a0):
        return np.zeros((dd, dd, dd, dd))

    return CoefficientField(
        sigma=sig, b=b, sigma_y=sig_y, sigma_yy=sig_yy, linear=(a0, a1)
    )


# ---------------------------------------------------------------------------
# solution container
# ---------------------------------------------------------------------------

@dataclass
class RdeSolution:
    path: ControlledPath  # Y (M+1, d), Yprime = sigma(t, Y)
    coeff: CoefficientField
    diagnostics: dict = field(default_factory=dict)

    @property
    def Y(self) -> np.ndarray:
        return self.path.Y

    @property
    def times(self) -> np.ndarray:
        return self.path.base.times

    def integral_defect(self) -> float:
        """sup_t |Y_t - Y_0 - int_0^t b dt - int_0^t sigma(s, Y_s) dX_s|.

        The rough integral is recomputed from the returned controlled path;
        the drift integral uses the trapezoid rule on the solver grid.
        """
        sol = self.path
        integrand = _compose_sigma(self.coeff, sol)
        cum = integrand._cumulative_integral()  # (M+1, d)
        rhs = sol.Y[0] + cum
        if self.coeff.b is not None:
            ts = self.times
            bvals = np.stack([self.coeff.b(t, y) for t, y in zip(ts, sol.Y)])
            mid = 0.5 * (bvals[1:] + bvals[:-1]) * np.diff(ts)[:, None]
            drift = np.concatenate([np.zeros((1, sol.Y.shape[1])), np.cumsum(mid, axis=0)])
            rhs = rhs + drift
        return float(np.max(np.linalg.norm(sol.Y - rhs, axis=1)))


def _controlled(coeff: CoefficientField, rp: RoughPath, Y: np.ndarray) -> ControlledPath:
    """The solution path Y with its Gubinelli derivative sigma(t, Y_t)."""
    return ControlledPath(rp, Y, np.stack([coeff.sigma(t, y) for t, y in zip(rp.times, Y)]))


def _compose_sigma(coeff: CoefficientField, sol: ControlledPath) -> ControlledPath:
    """The controlled path t -> sigma(t, Y_t) with its Gubinelli derivative."""
    if coeff.sigma_y is None:
        raise ValueError("sigma_y is required to build the controlled integrand")
    ts = sol.base.times
    vals = np.stack([coeff.sigma(t, y) for t, y in zip(ts, sol.Y)])
    grads = np.stack([coeff.sigma_y(t, y) for t, y in zip(ts, sol.Y)])
    primes = np.einsum("mikj,mjl->mikl", grads, sol.Yprime)
    return ControlledPath(sol.base, vals, primes)


def _guard(y: np.ndarray, k: int):
    m = float(np.max(np.abs(y)))
    if not np.isfinite(m) or m > DEFAULT_GUARD:
        raise RuntimeError(f"solution blow-up guard tripped at step {k}: |Y| = {m:g}")


# ---------------------------------------------------------------------------
# the cell maps
# ---------------------------------------------------------------------------

def _cells(rp: RoughPath, i: int, j: int, backward: bool):
    """The cells of [t_i, t_j] in solve order, as (from, to, t, x, xx).

    A forward cell starts at its left edge with its own signature; a
    backward cell starts at its right edge with the inverse signature
    (1, x, xx)^-1 = (1, -x, x (x) x - xx).  Either way t is the cell's left
    edge, so both directions read sigma from the same freeze window.
    """
    dX = np.diff(rp.values, axis=0)
    for k in range(j - 1, i - 1, -1) if backward else range(i, j):
        x, xx = dX[k], rp.cells[k]
        if backward:
            yield k + 1, k, rp.times[k], -x, np.outer(x, x) - xx
        else:
            yield k, k + 1, rp.times[k], x, xx


def _milstein_increment(coeff, t, y, x, xx):
    """One cell's increment sigma x + (grad_sigma sigma) : xx from (t, y)."""
    sig = coeff.sigma(t, y)
    dy = sig @ x
    if coeff.sigma_y is not None:
        gs = coeff.sigma_y(t, y)
        dy = dy + np.einsum("ikj,jl,lk->i", gs, sig, xx)
    return dy


def _jacobian_cell(coeff, t, y, x, xx):
    """Derivative in y of one cell map: Id + grad_sigma x + the level-two
    terms grad_sigma grad_sigma : xx and (hess_sigma sigma) : xx."""
    gs = coeff.sigma_y(t, y)
    P = np.eye(len(y)) + np.einsum("ikj,k->ij", gs, x) + np.einsum(
        "ikj,jlm,lk->im", gs, gs, xx
    )
    if coeff.sigma_yy is not None:
        sig = coeff.sigma(t, y)
        P = P + np.einsum("ikmj,jl,lk->im", coeff.sigma_yy(t, y), sig, xx)
    return P


def _march(coeff, rp: RoughPath, y0, i: int, j: int, backward: bool) -> np.ndarray:
    """Step the cell map over [t_i, t_j] from y0 at t_i (t_j if backward)."""
    Y = np.empty((j - i + 1, len(y0)))
    Y[j - i if backward else 0] = y0
    for a, b, t, x, xx in _cells(rp, i, j, backward):
        Y[b - i] = Y[a - i] + _milstein_increment(coeff, t, Y[a - i], x, xx)
        _guard(Y[b - i], min(a, b))
    return Y


# ---------------------------------------------------------------------------
# forward / backward driftless solves
# ---------------------------------------------------------------------------

def solve_driftless(coeff: CoefficientField, rp: RoughPath, xi) -> RdeSolution:
    """Forward solve of dY = sigma(t, Y) dX from the start of the grid."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    M = rp.grid.n_cells
    Y = _march(coeff, rp, xi, 0, M, backward=False)
    diagnostics = {"steps": M, "max_abs": float(np.max(np.abs(Y)))}
    return RdeSolution(_controlled(coeff, rp, Y), coeff, diagnostics)


def solve_backward(
    coeff: CoefficientField, rp: RoughPath, delta, s: float, t: float
) -> RdeSolution:
    """Backward solve with terminal value delta at time t, down to time s < t.

    Each cell [u, v] is the forward cell map applied from Y_v to the
    inverted cell, with sigma read at u as in the forward step, which it
    inverts to second order:
        Y_u = Y_v - sigma(u, Y_v) X + (grad_sigma sigma) : (X (x) X - XX).
    The returned path covers [s, t] on the grid, indexed forward in time.
    """
    i = rp.grid.index_of(s)
    j = rp.grid.index_of(t)
    if i >= j:
        raise ValueError(
            f"solve_backward requires s < t (got s={s}, t={t}): "
            "a rough path needs at least one cell"
        )
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    Y = _march(coeff, rp, delta, i, j, backward=True)
    sub = rp.restrict(i, j) if (i, j) != (0, rp.grid.n_cells) else rp
    return RdeSolution(
        _controlled(coeff, sub, Y), coeff, {"steps": j - i, "direction": "backward"}
    )


# ---------------------------------------------------------------------------
# flow Jacobians (linearised equation)
# ---------------------------------------------------------------------------

def flow_jacobian(
    coeff: CoefficientField, rp: RoughPath, xi, direction: str = "forward"
) -> np.ndarray:
    """Jacobian of the driftless flow map along the trajectory from xi.

    Forward: zeta_0 = Id and zeta+ = J zeta, with J the derivative of the
    cell map along the forward trajectory.  Backward: the Jacobian of the
    inverse map with terminal identity, stepping the derivative of the
    inverted cell map along the backward trajectory from xi at the end.
    Returns zeta at every grid point, shape (M+1, d, d).
    """
    if coeff.sigma_y is None:
        raise ValueError("flow_jacobian needs sigma_y")
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    backward = direction == "backward"
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    M = rp.grid.n_cells
    Y = _march(coeff, rp, xi, 0, M, backward)
    zeta = np.empty((M + 1, len(xi), len(xi)))
    zeta[M if backward else 0] = np.eye(len(xi))
    for a, b, t, x, xx in _cells(rp, 0, M, backward):
        zeta[b] = _jacobian_cell(coeff, t, Y[a], x, xx) @ zeta[a]
    return zeta


# ---------------------------------------------------------------------------
# linear diffusion: exact affine flows
# ---------------------------------------------------------------------------

def linear_flow(coeff: CoefficientField, rp: RoughPath):
    """Affine flow maps (M_k, v_k) with Phi(t_0, t_k, z) = M_k z + v_k.

    Each Milstein cell update of a linear diffusion is affine in the state,
    so composing the per-cell maps tabulates the driftless flow exactly
    (relative to the stepper).
    """
    if coeff.linear is None:
        raise ValueError("linear_flow needs a declared linear structure")
    a0, a1 = coeff.linear
    dX = np.diff(rp.values, axis=0)
    return _accel.linear_flow_maps(
        dX, rp.cells, a0, np.stack([a1(t) for t in rp.times[:-1]])
    )


def _linear_with_drift(coeff: CoefficientField, rp: RoughPath, xi) -> RdeSolution:
    """Y_k = M_k xi + v_k without drift.  With drift, the state is
    conjugated through the driftless flow: z solves
        dz/dt = M_t^{-1} b(t, M_t z + v_t),   z_0 = xi,
    by Heun's method on the grid, and Y_t = M_t z_t + v_t."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    Mf, vf = linear_flow(coeff, rp)
    ts = rp.times
    M = rp.grid.n_cells
    b = coeff.b
    if b is None:
        Y = np.einsum("kij,j->ki", Mf, xi) + vf
    else:
        z = np.empty((M + 1, len(xi)))
        z[0] = xi

        def rhs(k, zk, tk):
            y = Mf[k] @ zk + vf[k]
            return np.linalg.solve(Mf[k], b(tk, y))

        hs = rp.grid.widths
        for k in range(M):
            # both Heun stages read the drift at the cell's midpoint time
            tm = ts[k] + 0.5 * hs[k]
            f0 = rhs(k, z[k], tm)
            pred = z[k] + hs[k] * f0
            f1 = rhs(k + 1, pred, tm)
            z[k + 1] = z[k] + 0.5 * hs[k] * (f0 + f1)
            _guard(z[k + 1], k)
        Y = np.einsum("kij,kj->ki", Mf, z) + vf
    return RdeSolution(_controlled(coeff, rp, Y), coeff, {"steps": M, "mode": "affine-flow"})


def doss_sussmann_solve(coeff: CoefficientField, rp: RoughPath, xi) -> RdeSolution:
    """Solve dY = b dt + sigma dX by conjugating out the diffusion.

    Linear diffusions use the exact affine-flow transform.  For general
    sigma, the transformed drift ODE is realised cell-by-cell as a Strang
    splitting — drift half-step, rough Milstein step, drift half-step —
    which matches the conjugated dynamics to the same local order without
    re-solving the driftless flow per evaluation.
    """
    if coeff.b is None:
        return solve_driftless(coeff, rp, xi)
    if coeff.linear is not None:
        return _linear_with_drift(coeff, rp, xi)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    ts = rp.times
    hs = rp.grid.widths
    dX = np.diff(rp.values, axis=0)
    M = rp.grid.n_cells
    b = coeff.b
    Y = np.empty((M + 1, len(xi)))
    Y[0] = xi

    def drift_half(t, y, h):
        # one Heun step of the drift over [t, t + h/2], both stages at its
        # midpoint time
        tm = t + 0.25 * h
        f0 = b(tm, y)
        pred = y + 0.5 * h * f0
        f1 = b(tm, pred)
        return y + 0.25 * h * (f0 + f1)

    for k in range(M):
        y = drift_half(ts[k], Y[k], hs[k])
        y = y + _milstein_increment(coeff, ts[k], y, dX[k], rp.cells[k])
        Y[k + 1] = drift_half(ts[k] + 0.5 * hs[k], y, hs[k])
        _guard(Y[k + 1], k)
    return RdeSolution(_controlled(coeff, rp, Y), coeff, {"steps": M, "mode": "splitting"})


# ---------------------------------------------------------------------------
# Picard validation mode and stability diagnostic
# ---------------------------------------------------------------------------

def picard_validate(
    coeff: CoefficientField, rp: RoughPath, xi, iters: int = 8
) -> ControlledPath:
    """Coarse fixed-point iteration (Y, Y') -> xi + int sigma(s, Y) dX.

    A validation device only: iterates the defining integral map on the full
    window and returns the final controlled path for comparison against the
    stepper.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    M = rp.grid.n_cells
    cp = _controlled(coeff, rp, np.tile(xi, (M + 1, 1)))
    for _ in range(iters):
        cp = _controlled(coeff, rp, xi + _compose_sigma(coeff, cp)._cumulative_integral())
    return cp


def stability_probe(
    sol1: RdeSolution,
    sol2: RdeSolution,
    xi1,
    xi2,
    rho_drivers: float = 0.0,
    coeff_gap: float = 0.0,
    drift_gap: float = 0.0,
) -> dict:
    """Empirical two-solution stability ratio.

    left  = controlled distance between the two solution paths,
    right = |xi1 - xi2| + driver distance + coefficient gaps.
    """
    from .controlled import controlled_distance

    left = controlled_distance(sol1.path, sol2.path)
    xi_gap = float(np.linalg.norm(np.atleast_1d(xi1) - np.atleast_1d(xi2)))
    right = xi_gap + rho_drivers + coeff_gap + drift_gap
    ratio = left / right if right > 0 else (0.0 if left == 0 else np.inf)
    return {
        "left": left,
        "right": right,
        "ratio": ratio,
        "xi_gap": xi_gap,
        "driver_gap": rho_drivers,
    }


def save_solution(sol: RdeSolution, path) -> None:
    """Columnar dump: t, Y components, row-major Yprime entries."""
    import json

    Y, Yp = sol.path.Y, sol.path.Yprime
    d = Y.shape[1]
    table = np.hstack([sol.times[:, None], Y, Yp.reshape(len(Y), -1)])
    header = {"d": d, "alpha": sol.path.base.alpha, "diagnostics": sol.diagnostics}
    with open(path, "w") as fh:
        fh.write("# roughmf-solution v1 " + json.dumps(header, sort_keys=True) + "\n")
        np.savetxt(fh, table, fmt="%.17g")
