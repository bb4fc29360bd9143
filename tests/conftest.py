import numpy as np
import pytest

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


def assert_close(a, b, tol, msg=""):
    err = np.max(np.abs(np.asarray(a) - np.asarray(b)))
    assert err <= tol, f"{msg} max err {err:g} > {tol:g}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    import sys

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
