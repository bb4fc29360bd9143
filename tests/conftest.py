import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import roughmf
from roughmf import rde
from roughmf.grids import TimeGrid
from roughmf.roughpath import STRAT, NoisePath, brownian_lift


@pytest.fixture
def noise_2d():
    return NoisePath.generate(42, TimeGrid.regular(0.0, 1.0, 1 << 12), 2)


@pytest.fixture
def strat_lift(noise_2d):
    return brownian_lift(noise_2d, TimeGrid.regular(0.0, 1.0, 1 << 6), STRAT)


def random_rough_path(seed, cells=64, d=2, alpha=0.4, fine_per=16):
    noise = NoisePath.generate(seed, TimeGrid.regular(0.0, 1.0, cells * fine_per), d)
    return brownian_lift(noise, TimeGrid.regular(0.0, 1.0, cells), STRAT, alpha)


def milstein_oracle(a0, table, rp, y0, i, j, backward=False):
    """The Milstein march y + sigma x + (a0 sigma) : xx of the affine field
    sigma = a0 . y + table[k] on cell k, one point and one cell at a time,
    over [t_i, t_j] from y0.  A backward march starts from y0 at t_j and
    steps each cell from its right edge on the inverted cell
    (-x, x (x) x - xx).  Returns the trajectory forward in time."""
    Y = {j if backward else i: np.asarray(y0, dtype=float)}
    for k in range(j - 1, i - 1, -1) if backward else range(i, j):
        x, xx = rp.values[k + 1] - rp.values[k], rp.cells[k]
        start, end = (k + 1, k) if backward else (k, k + 1)
        if backward:
            x, xx = -x, np.outer(x, x) - xx
        y = Y[start]
        sig = np.einsum("ikj,j->ik", a0, y) + table[k]
        Y[end] = y + sig @ x + np.einsum("ikj,jl,lk->i", a0, sig, xx)
    return np.array([Y[k] for k in range(i, j + 1)])


def doss_sussmann_oracle(coeff, rp, y0):
    """Heun's method on the Doss-Sussmann conjugate of dY = b dt + sigma dX:
    with (M_k, v_k) the driftless Milstein flow to node k, composed one cell
    at a time from the cell maps of ``milstein_oracle``, z solves
        dz/dt = M_k^-1 b(k, M_k z + v_k),   z_0 = y0,
    both Heun stages on cell k reading the drift b(k, y) = B_k y + beta_k of
    the field's table, and Y_k = M_k z_k + v_k.  Returns the trajectory."""
    a0, M, d = coeff.a0, rp.grid.n_cells, len(y0)
    table = np.broadcast_to(coeff.a1(np.arange(M)), (M, d, d))
    B, beta = coeff.drift(np.arange(M))
    B, beta = np.broadcast_to(B, (M, d, d)), np.broadcast_to(beta, (M, d))
    flows = [(np.eye(d), np.zeros(d))]
    for k in range(M):
        step = [milstein_oracle(a0, table, rp, y, k, k + 1)[1] for y in np.eye(d)]
        q = milstein_oracle(a0, table, rp, np.zeros(d), k, k + 1)[1]
        P = np.stack(step, axis=1) - q[:, None]
        Mk, vk = flows[-1]
        flows.append((P @ Mk, P @ vk + q))
    inverses = [np.linalg.inv(Mk) for Mk, _ in flows]

    def rhs(m, z, c):
        Mm, vm = flows[m]
        return inverses[m] @ (B[c] @ (Mm @ z + vm) + beta[c])

    z = np.asarray(y0, dtype=float)
    Y = [z]
    for k, h in enumerate(rp.grid.widths):
        f0 = rhs(k, z, k)
        z = z + 0.5 * h * (f0 + rhs(k + 1, z + h * f0, k))
        Mk, vk = flows[k + 1]
        Y.append(Mk @ z + vk)
    return np.array(Y)


def picard_validate(coeff, rp, xi, iters=8):
    """Coarse fixed-point iteration (Y, Y') -> xi + int sigma(c, Y) dX on the
    full window of the driftless field, from the constant path xi; returns
    the final controlled path, to compare against the stepper."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    M = rp.grid.n_cells
    cp = rde._solution(coeff, rp, np.tile(xi, (M + 1, 1)), {}).path
    for _ in range(iters):
        cum = rde._compose_sigma(coeff, cp)._cumint
        cp = rde._solution(coeff, rp, xi + cum, {}).path
    return cp


def rk4_oracle(a0, table, noise, level, corrected, y0):
    """Classical RK4 of the Wong-Zakai ODE dy/dt = sigma v - (corrected ?
    (1/2)(a0 sigma) : 0), sigma = a0 . y + table[k] on fine cell k, against
    the level-n piecewise-linear noise of velocity v on each dyadic cell;
    one fine cell and one stage at a time.  Returns the fine-grid
    trajectory."""
    M = noise.fine_grid.n_cells
    per = M >> level
    W, ts = noise.values(), noise.fine_grid.points

    def rhs(k, y, v):
        sig = np.einsum("ikj,j->ik", a0, y) + table[k]
        dy = sig @ v
        if corrected:
            dy = dy - 0.5 * np.einsum("ikj,jk->i", a0, sig)
        return dy

    Y = np.empty((M + 1, len(y0)))
    Y[0] = y0
    for k in range(M):
        a = k - k % per
        v = (W[a + per] - W[a]) / (ts[a + per] - ts[a])
        h = ts[k + 1] - ts[k]
        k1 = rhs(k, Y[k], v)
        k2 = rhs(k, Y[k] + 0.5 * h * k1, v)
        k3 = rhs(k, Y[k] + 0.5 * h * k2, v)
        k4 = rhs(k, Y[k] + h * k3, v)
        Y[k + 1] = Y[k] + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    return Y


def python_process(*args):
    """Run python with args in a new interpreter that imports this roughmf,
    outside pytest's warning filters; return the finished process."""
    src = str(Path(roughmf.__file__).parents[1])
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)


def fresh_python(script, *args):
    """Run script in a new interpreter that imports this roughmf; return the
    last line it printed."""
    proc = python_process("-c", script, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def assert_close(a, b, tol, msg=""):
    err = np.max(np.abs(np.asarray(a) - np.asarray(b)))
    assert err <= tol, f"{msg} max err {err:g} > {tol:g}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(results):
        name, ok, detail = results[num]
        line = f"criterion {num:>3} [{name}]: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  -- {detail}"
        terminalreporter.write_line(line)
