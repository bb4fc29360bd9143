import numpy as np
import pytest

from roughmf import _accel, roughpath
from roughmf.grids import TimeGrid
from roughmf.rde import linear_coefficients, linear_flow
from roughmf.roughpath import RoughPath, _pair_blocks, _pair_sup

from conftest import milstein_oracle


def rough_pair(seed, cells, d, uniform):
    """Two random rough paths on one grid, regular or not."""
    rng = np.random.default_rng(seed)
    if uniform:
        grid = TimeGrid.regular(0.0, 1.0, cells)
    else:
        grid = TimeGrid(np.concatenate([[0.0], np.sort(rng.uniform(0, 1, cells - 1)), [1.0]]))
    return tuple(
        RoughPath(
            grid,
            np.cumsum(rng.normal(size=(cells + 1, d)) * 0.1, axis=0),
            rng.normal(size=(cells, d, d)) * 0.01,
            0.4,
        )
        for _ in range(2)
    )


def chen_table(rp):
    """XX_{t_i, t_j} for every i <= j, composed cell by cell with Chen's
    relation XX_{i, k+1} = XX_{i, k} + XX_{k, k+1} + X_{i, k} (x) X_{k, k+1}."""
    m, d = rp.values.shape
    table = np.zeros((m, m, d, d))
    for i in range(m):
        for k in range(i, m - 1):
            table[i, k + 1] = table[i, k] + rp.cells[k] + np.outer(
                rp.increment(i, k), rp.increment(k, k + 1)
            )
    return table


def brute_suprema(rp, rq):
    """Every Hölder ratio pair by pair, from increments and Chen-composed
    second levels."""
    first = second = diff = 0.0
    t, a = rp.times, rp.alpha
    XX, YY = chen_table(rp), chen_table(rq)
    for block in _pair_blocks(rp.grid.n_cells):
        # a block's pairs are its broadcast entries with j > i
        ii, jj = np.broadcast_arrays(*block)
        for i, j in zip(ii[jj > ii], jj[jj > ii]):
            dt = t[j] - t[i]
            assert np.allclose(rp.second_level(i, j), XX[i, j], rtol=1e-12, atol=1e-15)
            first = max(first, np.linalg.norm(rp.increment(i, j)) / dt**a)
            second = max(second, np.linalg.norm(XX[i, j]) / dt ** (2 * a))
            diff = max(diff, np.linalg.norm(XX[i, j] - YY[i, j]) / dt ** (2 * a))
    return first, second, diff


def kernel_suprema(rp, rq):
    X, A, X2, A2 = rp.values, rp._cum, rq.values, rq._cum
    t, a, n = rp.times, rp.alpha, rp.grid.n_cells
    return (
        _pair_sup(lambda ii, jj: _accel.pair_sup_first(X, t, ii, jj, a), n),
        _pair_sup(lambda ii, jj: _accel.pair_sup_second(X, A, t, ii, jj, a), n),
        _pair_sup(
            lambda ii, jj: _accel.pair_sup_second_diff(X, A, X2, A2, t, ii, jj, a), n
        ),
    )


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("uniform", [True, False])
def test_pair_suprema_match_brute_force(d, uniform):
    rp, rq = rough_pair(d, 40, d, uniform)
    got = kernel_suprema(rp, rq)
    want = brute_suprema(rp, rq)
    assert np.allclose(got, want, rtol=1e-13, atol=0.0), (got, want)


def test_pair_suprema_match_brute_force_on_dyadic_lags(monkeypatch):
    # above PAIR_CAP the pair set is the dyadic lags; the kernels see the
    # same pairs as the brute force, so the values agree there too
    monkeypatch.setattr(roughpath, "PAIR_CAP", 16)
    rp, rq = rough_pair(7, 40, 2, uniform=False)
    got = kernel_suprema(rp, rq)
    assert np.allclose(got, brute_suprema(rp, rq), rtol=1e-13, atol=0.0)


def test_linear_flow_maps_match_cell_by_cell_march():
    # Y_k = M_k y0 + v_k must be the per-cell Milstein march of the affine
    # field sigma(t, y) = a0 . y + a1_k on cell k, in every dimension
    n = 24
    for d in (1, 2, 3):
        rng = np.random.default_rng(5 + d)
        rp, _ = rough_pair(5, n, d, uniform=False)
        a0 = rng.normal(size=(d, d, d)) * 0.3
        table = rng.normal(size=(n + 1, d, d))
        coeff = linear_coefficients(a0, lambda c: table[c])
        M, v = linear_flow(coeff, rp)
        assert M.shape == (n + 1, d, d) and v.shape == (n + 1, d)
        for y0 in (np.zeros(d), rng.normal(size=d)):
            affine = np.einsum("kij,j->ki", M, y0) + v
            want = milstein_oracle(a0, table, rp, y0, 0, n)
            assert np.allclose(affine, want, rtol=1e-12, atol=1e-12), d
