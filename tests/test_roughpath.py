import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmf import _accel, roughpath
from roughmf.grids import TimeGrid
from roughmf.roughpath import (
    ITO,
    PAIR_BLOCK,
    PAIR_CAP,
    STRAT,
    NoisePath,
    RoughPath,
    _pair_blocks,
    brownian_lift,
    dyadic_approximation,
    rough_distance,
)

from conftest import random_rough_path


def test_alpha_range_enforced():
    grid = TimeGrid.regular(0, 1, 4)
    X = np.zeros((5, 1))
    cells = np.zeros((4, 1, 1))
    for bad in (0.3, 1.0 / 3.0, 0.5, 0.6):
        with pytest.raises(ValueError):
            RoughPath(grid, X, cells, bad)
    RoughPath(grid, X, cells, 0.4)  # ok


def test_grid_invariants():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 1.0, 1.0]))
    g = TimeGrid.regular(0, 1, 8)
    assert g.n_cells == 8
    with pytest.raises(ValueError):
        g.index_of(0.3)


def _subgrid_by_index_of(fine, coarse):
    # the point-by-point definition the vectorised embedding must match
    try:
        return np.array([fine.index_of(float(t)) for t in coarse.points], dtype=np.int64)
    except ValueError:
        return None


def test_subgrid_indices_match_index_of():
    rng = np.random.default_rng(0)
    fine = TimeGrid.regular(0.0, 1.0, 1 << 10)
    nested = TimeGrid.regular(0.0, 1.0, 1 << 6)
    fuzzed = TimeGrid(
        TimeGrid.regular(0.0, 1.0, 1 << 8).points + rng.uniform(-1e-12, 1e-12, 257)
    )
    # two fine points within the tolerance of the coarse one: the first wins
    close = TimeGrid(np.array([0.0, 1e-10, 2e-10, 1.0]))
    for f, c in ((fine, nested), (fine, fine), (fine, fuzzed),
                 (close, TimeGrid(np.array([1e-10, 1.0])))):
        want = _subgrid_by_index_of(f, c)
        got = f.subgrid_indices(c)
        assert got.dtype == np.int64 and np.array_equal(got, want)
    for c in (TimeGrid.regular(0.0, 1.0, 3), TimeGrid(np.array([-1e-3, 0.5])),
              TimeGrid(np.array([0.5, 1.0 + 1e-3]))):
        assert _subgrid_by_index_of(fine, c) is None
        with pytest.raises(ValueError, match="coarse grid is not nested"):
            fine.subgrid_indices(c)


# ---------------------------------------------------------------------------
# pair blocks and the streamed Hölder suprema
# ---------------------------------------------------------------------------

def _reference_pairs(n_cells, cap):
    # every pair (i < j) up to the cap, the dyadic lags (i, i + 2^k) above it
    m = n_cells + 1
    if n_cells <= cap:
        return np.triu_indices(m, k=1)
    lags = [1 << k for k in range(n_cells.bit_length()) if 1 << k <= n_cells]
    ii = np.concatenate([np.arange(m - k) for k in lags])
    jj = np.concatenate([np.arange(k, m) for k in lags])
    return ii, jj


def _expanded(block):
    # a block's pairs: its broadcast entries with j > i, in row-major order
    ii, jj = np.broadcast_arrays(*block)
    keep = jj > ii
    return ii[keep], jj[keep]


def _joined(n_cells):
    blocks = list(_pair_blocks(n_cells))
    ii, jj = (np.concatenate(b) for b in zip(*map(_expanded, blocks)))
    return blocks, ii, jj


def _entries(block):
    return np.broadcast(*block).size


# 1000 rows in blocks of 32 rows: the last block is short
@pytest.mark.parametrize("n_cells", [1, 7, 1000, PAIR_CAP, PAIR_CAP + 1])
def test_pair_blocks_cover_the_pair_set_once(n_cells):
    blocks, ii, jj = _joined(n_cells)
    want_ii, want_jj = _reference_pairs(n_cells, PAIR_CAP)
    # same pairs in the same order, so each pair exactly once
    assert np.array_equal(ii, want_ii) and np.array_equal(jj, want_jj)
    assert all(0 < _entries(block) <= PAIR_BLOCK for block in blocks)
    assert all(b.dtype == np.int64 for block in blocks for b in block)


def test_pair_blocks_cut_rows_and_lags_that_do_not_divide(monkeypatch):
    monkeypatch.setattr(roughpath, "PAIR_BLOCK", 30)
    monkeypatch.setattr(roughpath, "PAIR_CAP", 16)
    # 13 rows two at a time, 16 rows one at a time; then dyadic lags of
    # 40, 39, 37, ... pairs cut at 30
    for n_cells in (13, 16, 40):
        blocks, ii, jj = _joined(n_cells)
        want_ii, want_jj = _reference_pairs(n_cells, 16)
        assert np.array_equal(ii, want_ii) and np.array_equal(jj, want_jj)
        sizes = [_entries(block) for block in blocks]
        assert max(sizes) <= 30 and len(set(sizes)) > 1


def test_block_corner_pairs_give_ratio_zero():
    # the corner of a row block (j <= i) has an infinite gap, so each of its
    # ratios is exactly 0, without a warning on a non-uniform grid; a block
    # of corner entries alone gives 0
    rng = np.random.default_rng(3)
    grid = TimeGrid(np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 9)), [1.0]]))
    X = np.cumsum(rng.normal(size=(11, 3)), axis=0)
    rp = RoughPath(grid, X, rng.normal(size=(10, 3, 3)), 0.4)
    rq = RoughPath(grid, 2.0 * X, rng.normal(size=(10, 3, 3)), 0.4)
    t, a, A, B = rp.times, rp.alpha, rp._cum, rq._cum
    ii, jj = np.arange(2, 8)[:, None], np.arange(3, 11)[None, :]
    ci, cj = np.arange(4, 8)[:, None], np.arange(1, 5)[None, :]  # all j <= i
    pi, pj = _expanded((ii, jj))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gap = _accel._gap(t, ii, jj)
        assert np.all(np.isinf(gap[jj <= ii])) and np.all(gap[jj > ii] > 0)
        assert _accel.pair_sup_first(X, t, ci, cj, a) == 0.0
        assert _accel.pair_sup_second(X, A, t, ci, cj, a) == 0.0
        assert _accel.pair_sup_second_diff(X, A, 2.0 * X, B, t, ci, cj, a) == 0.0
        # a block gives the max over its own pairs, the corner ignored
        assert (_accel.pair_sup_first(X, t, ii, jj, a)
                == _accel.pair_sup_first(X, t, pi, pj, a))
        assert (_accel.pair_sup_second_diff(X, A, 2.0 * X, B, t, ii, jj, a)
                == _accel.pair_sup_second_diff(X, A, 2.0 * X, B, t, pi, pj, a))
        norms, dist = rp.holder_norms(), rough_distance(rp, rq)
    assert all(np.isfinite(norms)) and np.isfinite(dist) and dist > 0


def _one_shot(rp1, rp2=None):
    # the suprema evaluated on every pair at once
    ii, jj = _reference_pairs(rp1.grid.n_cells, PAIR_CAP)
    t, a = rp1.times, rp1.alpha
    if rp2 is None:
        return (_accel.pair_sup_first(rp1.values, t, ii, jj, a),
                _accel.pair_sup_second(rp1.values, rp1._cum, t, ii, jj, a))
    return _accel.pair_sup_first(rp1.values - rp2.values, t, ii, jj, a) + (
        _accel.pair_sup_second_diff(
            rp1.values, rp1._cum, rp2.values, rp2._cum, t, ii, jj, a
        )
    )


@pytest.mark.parametrize("cells", [600, PAIR_CAP + 1])
def test_streamed_suprema_equal_one_shot_bitwise(cells):
    rng = np.random.default_rng(cells)
    uniform = TimeGrid.regular(0.0, 1.0, cells)
    skewed = TimeGrid(np.concatenate(
        [[0.0], np.sort(rng.uniform(0.0, 1.0, cells - 1)), [1.0]]
    ))
    for grid in (uniform, skewed):
        X = np.cumsum(rng.normal(size=(cells + 1, 3)) * 0.05, axis=0)
        C = rng.normal(size=(cells, 3, 3)) * 0.01
        rp = RoughPath(grid, X, C, 0.4)
        rq = RoughPath(grid, 1.1 * X, 0.9 * C, 0.4)
        assert rp.holder_norms() == _one_shot(rp)
        assert rough_distance(rp, rq) == _one_shot(rp, rq)


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_pair_suprema_memory_bounded_at_the_cap():
    # every pair at 2048 cells is 2.1 M pairs; evaluated at once the
    # intermediates would take 336 MB (distance) and 240 MB (norms)
    rp, rq = random_rough_path(11, cells=PAIR_CAP), random_rough_path(12, cells=PAIR_CAP)
    assert _peak_mb(lambda: rough_distance(rp, rq)) < 32.0
    assert _peak_mb(rp.holder_norms) < 32.0


# ---------------------------------------------------------------------------
# Chen's relation
# ---------------------------------------------------------------------------

@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_chen_defect_zero_by_construction(seed):
    rp = random_rough_path(seed, cells=32, fine_per=4)
    t = rp.times
    for (i, k, j) in [(0, 7, 31), (3, 10, 20), (5, 5, 5), (0, 0, 32)]:
        defect = rp.chen_defect(t[i], t[k], t[j])
        assert np.max(np.abs(defect)) <= 1e-12


def test_chen_defect_localises_corruption():
    rp = random_rough_path(1, cells=16)
    E = np.array([[0.5, -0.2], [0.1, 0.3]])
    cells = rp.cells.copy()
    cells[10] += E  # corrupt one consecutive cell inside (u, t)
    bad = RoughPath(rp.grid, rp.values, cells, rp.alpha)
    t = bad.times
    # triples whose (u, t) leg spans the corrupted cell see defect -E: the
    # stored per-cell value no longer matches the Chen composition
    defect = bad.chen_defect(t[2], t[8], t[14])
    assert np.allclose(defect, 0.0, atol=1e-12)  # composition is still exact
    # but the one-cell second level itself shifted by E
    assert np.allclose(bad.second_level(10, 11) - rp.second_level(10, 11), E)


# ---------------------------------------------------------------------------
# Hölder norms
# ---------------------------------------------------------------------------

def test_holder_norms_constant_path():
    grid = TimeGrid.regular(0, 1, 16)
    X = np.full((17, 2), 3.7)
    rp = RoughPath(grid, X, np.zeros((16, 2, 2)), 0.4)
    assert rp.holder_norms() == (0.0, 0.0)


def test_holder_norm_linear_path():
    # X_t = t scalar: sup |t-s|^{1-alpha} over the grid is (t_M - t_0)^{1-a} = 1
    grid = TimeGrid.regular(0, 1, 64)
    X = grid.points[:, None].copy()
    cells = (0.5 * np.diff(grid.points) ** 2)[:, None, None]
    rp = RoughPath(grid, X, cells, 0.4)
    nx, nxx = rp.holder_norms()
    assert abs(nx - 1.0) <= 1e-12
    assert abs(nxx - 0.5) <= 1e-12  # |1/2 (t-s)^2| / (t-s)^{0.8} maxed at 1


def test_holder_norm_scaling():
    rp = random_rough_path(3)
    lam = 2.5
    scaled = RoughPath(rp.grid, lam * rp.values, lam**2 * rp.cells, rp.alpha)
    nx, nxx = rp.holder_norms()
    sx, sxx = scaled.holder_norms()
    assert np.isclose(sx, lam * nx, rtol=1e-12)
    assert np.isclose(sxx, lam**2 * nxx, rtol=1e-12)


# ---------------------------------------------------------------------------
# rough distance
# ---------------------------------------------------------------------------

def test_rough_distance_axioms():
    rps = [random_rough_path(s) for s in (1, 2, 3)]
    assert rough_distance(rps[0], rps[0]) == 0.0
    d01 = rough_distance(rps[0], rps[1])
    assert d01 == rough_distance(rps[1], rps[0])
    # triangle inequality on the sampled triple
    d02 = rough_distance(rps[0], rps[2])
    d12 = rough_distance(rps[1], rps[2])
    assert d02 <= d01 + d12 + 1e-12


def test_rough_distance_grid_mismatch():
    a = random_rough_path(0, cells=32)
    b = random_rough_path(0, cells=64)
    with pytest.raises(ValueError):
        rough_distance(a, b)


# ---------------------------------------------------------------------------
# Brownian lifts
# ---------------------------------------------------------------------------

def test_strat_ito_diagonal_correction_exact(noise_2d):
    coarse = TimeGrid.regular(0, 1, 32)
    rs = brownian_lift(noise_2d, coarse, STRAT)
    ri = brownian_lift(noise_2d, coarse, ITO)
    h = coarse.widths
    expected = 0.5 * h[:, None, None] * np.eye(2)
    assert np.array_equal(rs.values, ri.values)
    assert np.max(np.abs((rs.cells - ri.cells) - expected)) == 0.0


def test_strat_second_level_d1_geometric():
    noise = NoisePath.generate(9, TimeGrid.regular(0, 1, 1 << 14), 1)
    rp = brownian_lift(noise, TimeGrid.regular(0, 1, 16), STRAT)
    for i in range(16):
        x = rp.increment(i, i + 1)[0]
        assert abs(rp.cells[i, 0, 0] - 0.5 * x**2) <= 1e-12


def test_strat_symmetric_part_identity(strat_lift):
    rp = strat_lift
    for (i, j) in [(0, 64), (3, 40), (10, 11)]:
        xx = rp.second_level(i, j)
        x = rp.increment(i, j)
        sym = 0.5 * (xx + xx.T)
        assert np.max(np.abs(sym - 0.5 * np.outer(x, x))) <= 1e-10


def test_levy_area_moments():
    # antisymmetric part of the unit-interval lift: mean 0, variance
    # (t-s)^2 / 4 per off-diagonal entry; many i.i.d. cells of width 1
    samples = []
    for seed in range(3):
        noise = NoisePath.generate(seed, TimeGrid.regular(0.0, 4096.0, 4096 * 64), 2)
        rp = brownian_lift(noise, TimeGrid.regular(0.0, 4096.0, 4096), STRAT)
        samples.append(0.5 * (rp.cells[:, 0, 1] - rp.cells[:, 1, 0]))
    a = np.concatenate(samples)  # 12288 unit-width Lévy areas
    assert abs(a.mean()) <= 3.0 * np.sqrt(0.25 / len(a))
    # 5% window covers the m = 64 discretization bias (1 - 1/m) and MC error
    assert abs(a.var() - 0.25) <= 0.05 * 0.25


def test_lift_requires_nested_grid(noise_2d):
    with pytest.raises(ValueError):
        brownian_lift(noise_2d, TimeGrid.regular(0, 1, 3), STRAT)
    with pytest.raises(ValueError):
        brownian_lift(noise_2d, TimeGrid.regular(0, 1, 4), "midpoint")


# ---------------------------------------------------------------------------
# dyadic approximations
# ---------------------------------------------------------------------------

def test_dyadic_cell_closed_form(noise_2d):
    dy = dyadic_approximation(noise_2d, 4)
    dX = np.diff(dy.values, axis=0)
    assert np.max(np.abs(dy.cells - 0.5 * np.einsum("ml,mk->mlk", dX, dX))) == 0.0
    t = dy.times
    assert np.max(np.abs(dy.chen_defect(t[0], t[100], t[-1]))) <= 1e-12


def loop_dyadic_approximation(noise, n):
    """The level-n values and cells one dyadic cell at a time, the reference
    of the vectorised lift: each cell interpolates its fine nodes, both ends
    included, so a node shared by two cells keeps the later cell's value."""
    M = noise.fine_grid.n_cells
    W, t = noise.values(), noise.fine_grid.points
    nodes = np.arange(0, M + 1, M >> n)
    X = np.empty_like(W)
    for c in range(1 << n):
        a, b = nodes[c], nodes[c + 1]
        lam = (t[a : b + 1] - t[a]) / (t[b] - t[a])
        X[a : b + 1] = (1 - lam)[:, None] * W[a] + lam[:, None] * W[b]
    dX = np.diff(X, axis=0)
    return X, 0.5 * np.einsum("ml,mk->mlk", dX, dX)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("uniform", [True, False])
def test_dyadic_approximation_is_bitwise_the_cell_loop(d, uniform):
    rng = np.random.default_rng(d)
    M = 1 << 10
    if uniform:
        grid = TimeGrid.regular(0.0, 1.0, M)
    else:
        grid = TimeGrid(np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, M))]))
    noise = NoisePath.generate(d, grid, d)
    for n in (0, 1, 4, 10):  # level 10: one fine cell per dyadic cell
        X, cells = loop_dyadic_approximation(noise, n)
        got = dyadic_approximation(noise, n)
        assert got.values.tobytes() == X.tobytes(), n
        assert got.cells.tobytes() == cells.tobytes(), n


def test_dyadic_misalignment_rejected():
    noise = NoisePath.generate(0, TimeGrid.regular(0, 1, 48), 1)
    with pytest.raises(ValueError):
        dyadic_approximation(noise, 5)


def test_dyadic_distance_decreasing_in_median():
    # median over seeds of rho(W^n, fine Strat lift) decreases with n
    levels = range(4, 9)
    dists = []
    for seed in range(5):
        noise = NoisePath.generate(seed, TimeGrid.regular(0, 1, 1 << 11), 2)
        ref = brownian_lift(noise, noise.fine_grid, STRAT)
        dists.append(
            [rough_distance(dyadic_approximation(noise, n), ref) for n in levels]
        )
    med = np.median(np.array(dists), axis=0)
    assert np.all(np.diff(med) < 0), med


def test_noise_determinism():
    g = TimeGrid.regular(0, 1, 256)
    a = NoisePath.generate(123, g, 3)
    b = NoisePath.generate(123, g, 3)
    assert np.array_equal(a.increments, b.increments)
    c = NoisePath.generate(124, g, 3)
    assert not np.array_equal(a.increments, c.increments)
