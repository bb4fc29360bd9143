"""Rough differential equation solvers.

Solves dY = b dt + sigma dX for a rough driver (X, XX), a drift affine in
the state, b = B(c) y + beta(c), and a diffusion affine in the state,
sigma = a0 . y + a1(c), on grid cell c, by a one-step Milstein-type scheme
using both levels of the driver per cell:

    Y+ = Y + sigma X + (a0 sigma) : XX  =  P Y + q.

One affine cell map serves every solve: ``_cell_maps`` builds every cell's
(P, q) in one vectorised pass, and ``_accel`` composes them by one blocked
scan with no Python step per cell: ``_march`` marches a point under the
blow-up guard (the Wong-Zakai RK4 maps of ``cocycle.wong_zakai_run`` too),
and the affine flow maps, whose linear part is the flow Jacobian, are the
scan of the homogeneous identity frame.  The scan's blocks are anchored at
the first cell, so a solve on a prefix of the cells is bitwise the prefix
of the longer solve on the same cell maps; against a cell-by-cell loop the
states differ by round-off only (the bound is in ``_accel``'s docstring).
Backward solves and backward Jacobians enter each cell at its right edge
and use the inverted cell, whose signature is
(1, X, XX)^-1 = (1, -X, X (x) X - XX).  The coefficients are addressed by
cell index, not time: the frozen-law coefficients are constant on each
cell, so a cell reads its own a1 in both directions, and grid node m reads
cell min(m, M - 1).  A drift enters by Heun's method on the same cell maps
(``doss_sussmann_solve``): the Doss-Sussmann conjugation through the
driftless flow, carried back to Y, which for an affine drift is one more
affine map per cell, marched like the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from . import _accel
from .controlled import ControlledPath
from .roughpath import RoughPath

DEFAULT_GUARD = 1e8


@dataclass
class CoefficientField:
    """The affine drift b(c, y) = B(c) y + beta(c) and the affine diffusion
    sigma(c, y)_{ik} = sum_j a0[i, k, j] y_j + a1(c)[i, k] on grid cell c.

    a1 maps an int array of cell indices to (len(c), d, d), or to one (d, d)
    that holds on every cell; drift maps it to the pair (B, beta), of
    shapes (len(c), d, d) and (len(c), d), or (d, d) and (d,) that hold on
    every cell.
    """

    a0: np.ndarray  # (d, d, d)
    a1: Callable[[np.ndarray], np.ndarray]  # cells -> (len(cells), d, d) or (d, d)
    drift: Optional[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = None


def linear_coefficients(
    a0: np.ndarray,
    a1: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    drift: Optional[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = None,
    d: Optional[int] = None,
) -> CoefficientField:
    """CoefficientField for sigma(c, y) = a0 . y + a1(c) on cell c, a1 = 0 by
    default.

    a0 is the (d, d, d) tensor with sigma_{ik} = sum_j a0[i, k, j] y_j.
    """
    a0 = np.asarray(a0, dtype=float)
    dd = a0.shape[0] if d is None else d
    if a0.shape != (dd, dd, dd):
        raise ValueError("a0 must have shape (d, d, d)")
    if a1 is None:
        zero = np.zeros((dd, dd))

        def a1(cells):
            return zero

    return CoefficientField(a0, a1, drift)


# ---------------------------------------------------------------------------
# solution container
# ---------------------------------------------------------------------------

@dataclass
class RdeSolution:
    path: ControlledPath  # Y (M+1, d), Yprime = sigma(c, Y) at each node's cell
    coeff: CoefficientField
    cells: np.ndarray  # the cell each node reads its coefficients from
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
        the drift integral uses the trapezoid rule on the solver grid, both
        ends of cell c at the drift of cell c, as the solver steps it: for
        an affine drift, the drift of cell c at the mean of its end states.
        """
        sol = self.path
        integrand = _compose_sigma(self.coeff, sol)
        cum = integrand._cumint  # (M+1, d)
        rhs = sol.Y[0] + cum
        if self.coeff.drift is not None:
            B, beta = self.coeff.drift(self.cells[:-1])
            mean = 0.5 * (sol.Y[1:] + sol.Y[:-1])
            mid = ((B @ mean[..., None])[..., 0] + beta) * np.diff(self.times)[:, None]
            rhs[1:] += np.cumsum(mid, axis=0)
        return float(np.max(_accel._row_norms(sol.Y - rhs)))


def _solution(
    coeff: CoefficientField, rp: RoughPath, Y: np.ndarray, diagnostics: dict, i: int = 0
) -> RdeSolution:
    """The trajectory Y on the nodes i, i + 1, ... of rp, with its Gubinelli
    derivative sigma(c_m, Y_m).  Node m reads cell c_m = min(m, M - 1): the
    last node has no cell of its own."""
    j = i + len(Y) - 1
    cells = np.minimum(np.arange(i, j + 1), rp.grid.n_cells - 1)
    sub = rp if (i, j) == (0, rp.grid.n_cells) else rp.restrict(i, j)
    sigma = np.einsum("ikj,mj->mik", coeff.a0, Y) + coeff.a1(cells)
    return RdeSolution(ControlledPath(sub, Y, sigma), coeff, cells, diagnostics)


def _compose_sigma(coeff: CoefficientField, sol: ControlledPath) -> ControlledPath:
    """The controlled path sigma(c_m, Y_m), the stored Y', with its Gubinelli
    derivative a0 . Y'."""
    primes = np.einsum("ikj,mjl->mikl", coeff.a0, sol.Yprime)
    return ControlledPath(sol.base, sol.Yprime, primes)


# ---------------------------------------------------------------------------
# the cell maps
# ---------------------------------------------------------------------------

def _cell_maps(coeff: CoefficientField, rp: RoughPath, i: int, j: int, backward: bool):
    """The affine maps y -> P_c y + q_c of the cells of [t_i, t_j], in solve
    order, shapes (j - i, d, d) and (j - i, d).

    A forward cell starts at its left edge with its own signature (x, xx); a
    backward cell starts at its right edge with the inverse signature
    (1, x, xx)^-1 = (1, -x, x (x) x - xx).  Either way the cell reads its own
    a1, so both directions use the same coefficients.
    """
    x = np.diff(rp.values[i : j + 1], axis=0)
    xx = rp.cells[i:j]
    A1 = np.broadcast_to(coeff.a1(np.arange(i, j)), (j - i,) + coeff.a0.shape[:2])
    if backward:
        xx = (np.einsum("cl,ck->clk", x, x) - xx)[::-1]
        x, A1 = -x[::-1], A1[::-1]
    a0 = coeff.a0
    d, n = len(a0), len(x)
    # The second-level terms (a0 a0) : xx and a0 : (A1 xx) as the matrix
    # products that np.einsum(..., optimize=True) forms for them on grids of
    # 32 cells or more: the same values bitwise, one order at every grid
    # size, and no contraction-path search on every call.
    a0a0 = a0.transpose(1, 2, 0).reshape(d * d, d) @ a0.transpose(2, 0, 1).reshape(d, d * d)
    W = a0a0.reshape(d, d, d, d).transpose(2, 1, 3, 0).reshape(d * d, d * d)  # [im, kl]
    P = np.eye(d) + np.einsum("ikj,ck->cij", a0, x) + (
        W @ xx.transpose(2, 1, 0).reshape(d * d, n)).reshape(d, d, n).transpose(2, 0, 1)
    A1xx = np.matmul(xx.transpose(0, 2, 1), A1.transpose(0, 2, 1)).transpose(0, 2, 1)  # [c, j, k]
    q = np.einsum("cik,ck->ci", A1, x) + (
        A1xx.reshape(n, d * d) @ a0.transpose(2, 1, 0).reshape(d * d, d))
    return P, q


def _march(P, q, y0, first: int, backward: bool) -> np.ndarray:
    """March the point y0 through the cell maps in solve order, then check
    the blow-up guard once over the trajectory.

    The maps are those of the grid cells first, first + 1, ..., taken in
    reverse if backward; the guard names the cell of the first state past
    it, and the states after that may overflow unreported.  Returns the
    trajectory forward in time, shape (len(P) + 1, d).
    """
    n = len(P)
    with np.errstate(over="ignore", invalid="ignore"):
        Y = _accel.march(P, q, y0)
    size = np.abs(Y[1:]).max(axis=1)
    bad = np.flatnonzero(~(size <= DEFAULT_GUARD))  # also trips on NaN
    if len(bad):
        c = bad[0]
        raise RuntimeError(f"solution blow-up guard tripped at step "
                           f"{first + n - 1 - c if backward else first + c}: |Y| = {size[c]:g}")
    return Y[::-1].copy() if backward else Y


# ---------------------------------------------------------------------------
# forward / backward driftless solves
# ---------------------------------------------------------------------------

def solve_driftless(coeff: CoefficientField, rp: RoughPath, xi) -> RdeSolution:
    """Forward solve of dY = sigma(c, Y) dX from the start of the grid.  A
    drift in ``coeff`` is not applied, and the solution records the field
    without it (``doss_sussmann_solve`` applies it)."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    M = rp.grid.n_cells
    Y = _march(*_cell_maps(coeff, rp, 0, M, False), xi, 0, backward=False)
    return _solution(replace(coeff, drift=None), rp, Y, {"steps": M})


def solve_backward(
    coeff: CoefficientField, rp: RoughPath, delta, s: float, t: float
) -> RdeSolution:
    """Backward solve with terminal value delta at time t, down to time s < t.

    Each cell [u, v] is the forward cell map applied from Y_v to the
    inverted cell, with the cell's own a1 as in the forward step, which it
    inverts to second order:
        Y_u = Y_v - sigma(c, Y_v) X + (a0 sigma) : (X (x) X - XX).
    The returned path covers [s, t] on the grid, indexed forward in time.
    Like ``solve_driftless`` it applies no drift and records the field
    without one.
    """
    i = rp.grid.index_of(s)
    j = rp.grid.index_of(t)
    if i >= j:
        raise ValueError(
            f"solve_backward requires s < t (got s={s}, t={t}): "
            "a rough path needs at least one cell"
        )
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    Y = _march(*_cell_maps(coeff, rp, i, j, True), delta, i, backward=True)
    return _solution(replace(coeff, drift=None), rp, Y, {"steps": j - i}, i)


# ---------------------------------------------------------------------------
# flow Jacobians and affine flow maps
# ---------------------------------------------------------------------------

def flow_jacobian(
    coeff: CoefficientField, rp: RoughPath, xi, direction: str = "forward"
) -> np.ndarray:
    """Jacobian of the driftless flow map, zeta at every grid point, shape
    (M+1, d, d).

    The cell maps are affine, so the Jacobian is the running product of
    their P, the linear part M of the flow maps, and does not depend on the
    trajectory: xi is not read.  Forward: zeta_0 = Id and zeta+ = P zeta.
    Backward: the Jacobian of the inverse map with terminal identity, the
    flow through the inverted cells reversed in time.
    """
    if direction not in ("forward", "backward"):
        raise ValueError("direction must be 'forward' or 'backward'")
    backward = direction == "backward"
    zeta, _ = _accel.linear_flow_maps(*_cell_maps(coeff, rp, 0, rp.grid.n_cells, backward))
    return (zeta[::-1] if backward else zeta).copy()


def linear_flow(coeff: CoefficientField, rp: RoughPath):
    """Affine flow maps (M_k, v_k) with Phi(t_0, t_k, z) = M_k z + v_k.

    Composing the affine cell maps tabulates the driftless flow exactly
    (relative to the stepper).
    """
    return _accel.linear_flow_maps(*_cell_maps(coeff, rp, 0, rp.grid.n_cells, False))


def doss_sussmann_solve(coeff: CoefficientField, rp: RoughPath, xi) -> RdeSolution:
    """Solve dY = b dt + sigma dX from xi (d,) by Heun's method on the
    Milstein cell maps.

    Without drift this is the driftless solve.  With drift, cell k with
    map y -> P y + q, width h and drift b(y) = B y + beta takes the step
        Y+ = P Y + q + (h / 2) [P b(Y) + b(P Y + q + h P b(Y))],
    which is Heun's method on the Doss-Sussmann conjugate z of the
    driftless flow Y = M z + v (M_{k+1} = P_k M_k, v_{k+1} = P_k v_k + q_k)
    carried back to Y, with no flow map formed or inverted.  The drift is
    affine, so the step is the affine map y -> P~ y + q~ with
        P~ = P + (h / 2) [P B + B (P + h P B)],
        q~ = q + (h / 2) [P beta + B (q + h P beta) + beta],
    built for every cell at once and marched as every solve is.
    """
    if coeff.drift is None:
        return solve_driftless(coeff, rp, xi)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    M = rp.grid.n_cells
    P, q = _cell_maps(coeff, rp, 0, M, False)
    B, beta = coeff.drift(np.arange(M))
    h, b = rp.grid.widths[:, None, None], beta[..., None]
    PB, Pb = P @ B, P @ b
    Pt = P + 0.5 * h * (PB + B @ (P + h * PB))
    qt = q + (0.5 * h * (Pb + B @ (q[..., None] + h * Pb) + b))[..., 0]
    return _solution(coeff, rp, _march(Pt, qt, xi, 0, backward=False), {"steps": M})
