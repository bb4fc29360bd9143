import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from roughmf import _accel
from roughmf.controlled import (
    ControlledPath,
    _remainder_slack,
    _remainders,
    controlled_distance,
    sewing_constant,
)
from roughmf.grids import TimeGrid
from roughmf.rde import linear_coefficients, solve_backward, solve_driftless
from roughmf.roughpath import PAIR_CAP, STRAT, NoisePath, RoughPath, brownian_lift

from conftest import random_rough_path


def smooth_rough_path(cells=64, alpha=0.4):
    """X_t = (t, t^2) on [0, 1] with exact iterated integrals."""
    grid = TimeGrid.regular(0.0, 1.0, cells)
    t = grid.points
    X = np.stack([t, t**2], axis=1)
    s, e = t[:-1], t[1:]
    xx = np.empty((cells, 2, 2))
    # int_s^t (u - s) du, int (u^2 - s^2) du, etc. in closed form
    xx[:, 0, 0] = 0.5 * (e - s) ** 2
    xx[:, 0, 1] = np.array([(en**3 - sn**3) * 2 / 3 - sn * (en**2 - sn**2)
                            for sn, en in zip(s, e)])
    xx[:, 1, 0] = np.array([0.5 * (en**2 - sn**2) * 1 - sn**2 * (en - sn)
                            - (0.5 * (en - sn) ** 2 * 0)  # placeholder, fixed below
                            for sn, en in zip(s, e)])
    # int_s^t (u^2 - s^2) du would be the (1,0)... recompute both cleanly:
    xx[:, 0, 1] = 2.0 / 3.0 * (e**3 - s**3) - s * (e**2 - s**2)
    xx[:, 1, 0] = 1.0 / 3.0 * (e**3 - s**3) - s**2 * (e - s) \
        - (2.0 / 3.0 * (e**3 - s**3) - s * (e**2 - s**2)) \
        + (e - s) * (e**2 - s**2) - (1.0 / 3.0) * 0
    # use integration by parts: int X1 dX0 = X1 X0 |increment product - int X0 dX1
    xx[:, 1, 0] = (e**2 - s**2) * (e - s) - xx[:, 0, 1]
    xx[:, 1, 1] = 0.5 * (e**2 - s**2) ** 2
    return RoughPath(grid, X, xx, alpha)


def test_sewing_constant():
    assert sewing_constant(0.4) == pytest.approx(2**1.2 / (1 - 2**-0.2))
    with pytest.raises(ValueError):
        sewing_constant(1.0 / 3.0)


# ---------------------------------------------------------------------------
# Gubinelli remainder
# ---------------------------------------------------------------------------

def test_remainder_exactly_controlled():
    rp = random_rough_path(0)
    A = np.array([[1.0, 2.0], [0.5, -1.0]])
    Y = rp.values @ A.T + np.array([3.0, -1.0])
    Yp = np.tile(A, (len(Y), 1, 1))
    cp = ControlledPath(rp, Y, Yp)
    assert np.max(np.abs(_remainders(cp, 3, 50))) <= 1e-12
    assert cp.remainder_norm() <= 1e-10
    assert cp.prime_norm() == 0.0


def test_remainder_zero_prime():
    rp = random_rough_path(1)
    Y = np.sin(rp.times)[:, None] * np.ones((1, 2))
    Yp = np.zeros((len(Y), 2, 2))
    cp = ControlledPath(rp, Y, Yp)
    assert np.allclose(_remainders(cp, 2, 9), Y[9] - Y[2])


def test_remainder_square_of_path():
    # scalar X, Y = X^2, Y' = 2X: remainder over (s,t) is exactly X_{s,t}^2
    noise = NoisePath.generate(5, TimeGrid.regular(0, 1, 1024), 1)
    rp = brownian_lift(noise, TimeGrid.regular(0, 1, 64), STRAT)
    X = rp.values[:, 0]
    cp = ControlledPath(rp, X**2, (2 * X)[:, None])
    x_inc = X[40] - X[10]
    assert _remainders(cp, 10, 40)[()] == pytest.approx(x_inc**2, abs=1e-14)


def test_seminorm_examples():
    rp = random_rough_path(2)
    n = len(rp.times)
    const = ControlledPath(rp, np.full((n, 2), 2.0), np.zeros((n, 2, 2)))
    assert const.seminorm() == 0.0
    ident = ControlledPath(rp, rp.values, np.tile(np.eye(2), (n, 1, 1)))
    assert ident.seminorm() <= 1e-10
    lam = 3.0
    scaled = ControlledPath(rp, lam * rp.values, lam * np.tile(np.eye(2), (n, 1, 1)))
    assert scaled.seminorm() == pytest.approx(lam * ident.seminorm(), abs=1e-12)


def test_controlled_distance_properties():
    rp = random_rough_path(3)
    n = len(rp.times)
    cp = ControlledPath(rp, rp.values**2, 2 * rp.values[:, :, None] * np.eye(2))
    assert controlled_distance(cp, cp) == 0.0
    B = np.array([[0.3, 0.0], [0.1, -0.2]])
    cq = ControlledPath(rp, cp.Y, cp.Yprime + B)
    assert controlled_distance(cp, cq) == controlled_distance(cq, cp)
    # constant shift of Y' leaves the alpha part untouched and moves the
    # remainder by B X_{s,t}
    ii = 4
    jj = 50
    dX = rp.increment(ii, jj)
    expected = np.linalg.norm(B @ dX) / (rp.times[jj] - rp.times[ii]) ** 0.8
    d = controlled_distance(cp, cq)
    assert d >= expected - 1e-12


def _one_shot_norms(cp, cq):
    # prime norm, remainder norm and distance, evaluated on every pair at once
    ii, jj = np.triu_indices(cp.base.grid.n_cells + 1, k=1)
    dt = cp.base.times[jj] - cp.base.times[ii]
    a = cp.base.alpha

    def sup(diff, exponent):
        return float(np.max(np.linalg.norm(diff.reshape(len(ii), -1), axis=1)
                            / dt**exponent))

    def remainder(c):
        dX = c.base.values[jj] - c.base.values[ii]
        return c.Y[jj] - c.Y[ii] - np.einsum("p...d,pd->p...", c.Yprime[ii], dX)

    dV = cp.Yprime - cq.Yprime
    return (sup(cp.Yprime[jj] - cp.Yprime[ii], a), sup(remainder(cp), 2.0 * a),
            sup(dV[jj] - dV[ii], a) + sup(remainder(cp) - remainder(cq), 2.0 * a))


def _random_controlled(rp, rng, shape):
    n = len(rp.times)
    Y = np.cumsum(rng.normal(size=(n,) + shape) * 0.03, axis=0)
    return ControlledPath(rp, Y, rng.normal(size=(n,) + shape + (rp.d,)))


@pytest.mark.parametrize("shape", [(), (2,), (2, 2)])
def test_streamed_controlled_norms_equal_one_shot_bitwise(shape):
    rng = np.random.default_rng(len(shape))
    cells = 400
    skewed = TimeGrid(np.concatenate(
        [[0.0], np.sort(rng.uniform(0.0, 1.0, cells - 1)), [1.0]]
    ))
    X = np.cumsum(rng.normal(size=(cells + 1, 2)) * 0.05, axis=0)
    for rp in (random_rough_path(5, cells=cells),
               RoughPath(skewed, X, rng.normal(size=(cells, 2, 2)) * 0.01, 0.4)):
        cp, cq = _random_controlled(rp, rng, shape), _random_controlled(rp, rng, shape)
        got = (cp.prime_norm(), cp.remainder_norm(), controlled_distance(cp, cq))
        assert got == _one_shot_norms(cp, cq)


# cell counts at one tile (32 nodes), past it, and not divisible by it
@pytest.mark.parametrize("cells", [31, 100, 333])
def test_search_controlled_norms_equal_brute_force_on_rde_solutions(cells):
    # the solution paths of solve_driftless and solve_backward, on one
    # driver (the Chen factor dX_{p,j} of the distance is then exactly 0)
    # and on two drivers of one grid
    rp, rq = random_rough_path(cells, cells=cells), random_rough_path(cells + 1, cells=cells)
    rng = np.random.default_rng(cells)
    coeff = linear_coefficients(rng.normal(size=(2, 2, 2)) * 0.5,
                                lambda c: np.array([[0.3, -0.1], [0.2, 0.4]]))
    y0 = np.array([0.7, -0.4])
    sol = solve_driftless(coeff, rp, y0)
    near = solve_driftless(coeff, rp, y0 + 1e-3)
    other = solve_driftless(coeff, rq, y0)
    t = rp.times
    back = solve_backward(coeff, rp, sol.Y[-1], t[3], t[cells - 2])
    back_other = solve_backward(coeff, rq, sol.Y[-1], t[3], t[cells - 2])
    for cp, cq in ((sol.path, near.path), (sol.path, other.path),
                   (back.path, back_other.path)):
        got = (cp.prime_norm(), cp.remainder_norm(), controlled_distance(cp, cq))
        assert got == _one_shot_norms(cp, cq)


exact = np.vectorize(Fraction, otypes=[object])


def _exact_remainders(cp, ii, jj):
    # the same formula on the stored arrays taken as fractions
    path = SimpleNamespace(base=SimpleNamespace(values=exact(cp.base.values)),
                           Y=exact(cp.Y), Yprime=exact(cp.Yprime), val_shape=cp.val_shape)
    return _remainders(path, ii, jj)


def _roundoff(computed, exact_values):
    e = exact(computed) - exact_values
    return np.sqrt((e * e).reshape(len(e), -1).sum(axis=1).astype(float))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_remainder_slack_bounds_the_exact_roundoff(d):
    # Y swings between about -1e6 and 1e6, so each Y_j - Y_i rounds at that
    # scale, while the two paths' remainders differ by about 1e-3
    m = 24
    rng = np.random.default_rng(d)
    rp = RoughPath(TimeGrid.regular(0.0, 1.0, m - 1), 0.3 * rng.normal(size=(m, d)),
                   np.zeros((m - 1, d, d)), 0.4)
    Y = 1e6 * (-1.0) ** np.arange(m)[:, None] * (1 + 0.1 * rng.random((m, d)))
    Yp = 100.0 * rng.normal(size=(m, d, d))
    cp = ControlledPath(rp, Y, Yp)
    cq = ControlledPath(rp, Y * (1 + 1e-9 * rng.normal(size=Y.shape)),
                        Yp * (1 + 1e-9 * rng.normal(size=Yp.shape)))
    ii, jj = np.triu_indices(m, k=1)
    want = _exact_remainders(cp, ii, jj)
    assert _roundoff(_remainders(cp, ii, jj), want).max() <= _remainder_slack(cp)
    want = want - _exact_remainders(cq, ii, jj)
    diff = _roundoff(_remainders(cp, ii, jj) - _remainders(cq, ii, jj), want)
    assert diff.max() <= _remainder_slack(cp) + _remainder_slack(cq)
    size = np.sqrt((want * want).reshape(len(want), -1).sum(axis=1).astype(float))
    assert diff.max() > 1e6 * _accel.EPS * size.max()


def test_controlled_distance_search_widens_its_bounds_by_the_slacks():
    # Y' = 0, so R_{i,j} = fl(Y_j - Y_i).  At the pair (30, 33),
    # 2^20 + 2^-33 is a tie that rounds down while the next float up rounds
    # up: a computed difference of 2^-32 whose anchor values at p = 32 are
    # exact (Y_32 = 0): 0 and 2^-85.  A shift of 1e-14 across a short cell
    # of tile 1 sets a best above the slack-free bound of tile (0, 1) and
    # below that pair's ratio, so only the slack keeps the tile searched
    m = 64
    t = np.arange(m) / (m - 1.0)
    t[41] = t[40] + 1e-3 / (m - 1.0)
    base = RoughPath(TimeGrid(t), np.zeros((m, 1)), np.zeros((m - 1, 1, 1)), 0.4)
    Y1 = np.zeros(m)
    Y1[30] = -(2.0**20)
    Y2 = Y1.copy()
    Y1[33], Y2[33] = 2.0**-33, np.nextafter(2.0**-33, 1.0)
    Y2[41:] += 1e-14
    cp, cq = ControlledPath(base, Y1, np.zeros((m, 1))), ControlledPath(base, Y2, np.zeros((m, 1)))
    assert controlled_distance(cp, cq) == 2.0**-32 / (t[33] - t[30]) ** 0.8


def test_controlled_norms_memory_bounded_at_the_cap():
    # every pair at 2048 cells is 2.1 M pairs; evaluated at once the
    # intermediates of the two norms would take 208 MB
    rp = random_rough_path(7, cells=PAIR_CAP)
    rng = np.random.default_rng(7)
    cp, cq = _random_controlled(rp, rng, (2,)), _random_controlled(rp, rng, (2,))
    tracemalloc.start()
    try:
        cp.seminorm()
        controlled_distance(cp, cq)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mb < 32.0


# ---------------------------------------------------------------------------
# rough integral
# ---------------------------------------------------------------------------

def test_integral_constant_scalar():
    rp = random_rough_path(4)
    n = len(rp.times)
    c = 2.5
    cp = ControlledPath(rp, np.full(n, c), np.zeros((n, 2)))
    out = cp.rough_integral(0, n - 1)
    assert np.allclose(out, c * rp.increment(0, len(rp.times) - 1), atol=1e-12)


def test_integral_additivity_exact():
    rp = random_rough_path(5)
    n = len(rp.times)
    cp = ControlledPath(rp, np.cos(rp.values[:, 0]) * np.ones(n),
                        np.stack([-np.sin(rp.values[:, 0]), np.zeros(n)], axis=1))
    lhs = cp.rough_integral(0, 20) + cp.rough_integral(20, 64)
    rhs = cp.rough_integral(0, 64)
    assert np.array_equal(lhs, rhs)


def test_integral_smooth_linear_time():
    # scalar X_t = t with Strat-consistent XX = 1/2 (t-s)^2: int X dX = t^2/2
    grid = TimeGrid.regular(0.0, 1.0, 1 << 12)
    t = grid.points
    rp = RoughPath(grid, t[:, None], (0.5 * np.diff(t) ** 2)[:, None, None], 0.4)
    cp = ControlledPath(rp, t, np.ones((len(t), 1)))
    for i, j in [(0, 1 << 12), (1 << 10, 3 << 10)]:  # [0, 1] and [0.25, 0.75]
        s, e = t[i], t[j]
        val = cp.rough_integral(i, j)[0]
        assert val == pytest.approx(0.5 * (e**2 - s**2), abs=1e-15)


def test_integral_against_riemann_stieltjes_smooth():
    # integrand sin(X^1) against the C^1 path (t, t^2): reference by fine
    # trapezoid quadrature of int f(t) x'(t) dt
    rp = smooth_rough_path(cells=1 << 12)
    t = rp.times
    f = np.sin(t)  # = sin(X^1_t)
    cp = ControlledPath(
        rp, np.stack([f, np.zeros_like(f)], axis=1),
        np.stack([np.stack([np.cos(t), np.zeros_like(t)], axis=1),
                  np.zeros((len(t), 2))], axis=1),
    )
    got = float(cp.rough_integral(0, len(t) - 1))  # contracts <Y, dX>
    tt = np.linspace(0, 1, 200001)
    ref = np.trapezoid(np.sin(tt) * 1.0, tt)  # against dX^0 = dt
    assert abs(got - ref) <= 1e-6


def test_local_error_certificate_random_cells():
    rp = random_rough_path(6, cells=256, fine_per=8)
    X = rp.values
    cp = ControlledPath(rp, np.sin(X[:, 0]),
                        np.stack([np.cos(X[:, 0]), np.zeros(len(X))], axis=1))
    rngs = np.random.default_rng(0)
    for _ in range(200):
        i = int(rngs.integers(0, 255))
        j = int(rngs.integers(i + 1, 257))
        val, bound, ok = cp.local_error_certificate(i, j)
        assert ok, (i, j, val, bound)


def test_local_error_certificate_vector_integrand():
    # the one-form Y = sin X with Y' = diag(cos X), contracted against dX
    rp = random_rough_path(12, cells=256, fine_per=8)
    X = rp.values
    cp = ControlledPath(rp, np.sin(X), np.cos(X)[:, :, None] * np.eye(2))
    rngs = np.random.default_rng(1)
    for _ in range(50):
        i = int(rngs.integers(0, 255))
        j = int(rngs.integers(i + 1, 257))
        val, bound, ok = cp.local_error_certificate(i, j)
        XX = rp.second_level(i, j)
        head = np.sin(X[i]) @ rp.increment(i, j) + np.cos(X[i]) @ np.diag(XX)
        ref = abs(float(cp.rough_integral(i, j)) - head)
        assert val == pytest.approx(ref, rel=1e-9, abs=1e-14)
        assert ok and bound > 0.0, (i, j, val, bound)


def test_local_error_decay_rate():
    # one-window local error of the compensated sum decays at >= 3a - eps
    errs, hs = [], []
    for cells in (8, 16, 32, 64, 128):
        rp = random_rough_path(7, cells=cells, fine_per=2048 // cells)
        X = rp.values
        cp = ControlledPath(rp, np.sin(X[:, 0]),
                            np.stack([np.cos(X[:, 0]), np.zeros(len(X))], axis=1))
        v, _, _ = cp.local_error_certificate(0, 2)
        errs.append(max(v, 1e-300))
        hs.append(rp.times[2] - rp.times[0])
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 3 * 0.4 - 0.25, slope
