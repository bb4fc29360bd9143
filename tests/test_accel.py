import importlib.util
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from roughmf import _accel, rde, roughpath
from roughmf.cocycle import frozen_coefficient_field
from roughmf.controlled import ControlledPath, _remainders
from roughmf.grids import TimeGrid
from roughmf.meanfield import FrozenLawConfig, simulate_frozen_law
from roughmf.measures import EmpiricalMeasure
from roughmf.models import build_model
from roughmf.rde import linear_coefficients, linear_flow
from roughmf.roughpath import (
    PAIR_CAP,
    STRAT,
    NoisePath,
    RoughPath,
    _block_max,
    _first_sup,
    _lag_seed,
    _pair_blocks,
    _second_diff_sup,
    _second_sup,
    brownian_lift,
    dyadic_approximation,
    rough_distance,
)

from conftest import milstein_oracle


def test_benchmark_environment_probe_reads_the_kernels():
    # every benchmark run records its environment first; a renamed kernel
    # would fail them all
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    env = run._environment()
    assert env["backend"] == "numpy"
    assert env["kernels"] == {k: k for k in ("pair_sup_first", "pair_sup_second",
                                             "pair_sup_second_diff", "linear_flow_maps")}


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
    t, a = rp.times, rp.alpha
    return (
        _first_sup(X, t, a),
        _second_sup(X, A, t, a),
        _second_diff_sup(X, A, X2, A2, t, a),
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


# ---------------------------------------------------------------------------
# the dyadic-lag seed on slice views against the index-array kernels
# ---------------------------------------------------------------------------

def lag_value_cases(n_cells):
    """(label, value function, kernel on index arrays, exponent) for the
    first level, the second level, the two parts of a distance and a
    controlled remainder, on random paths of a non-uniform grid."""
    rp, rq = rough_pair(n_cells, n_cells, 2, uniform=False)
    X, A, Y, B, t, a = rp.values, rp._cum, rq.values, rq._cum, rp.times, rp.alpha
    cp = ControlledPath(rp, np.sin(X[:, 0]), np.stack([np.cos(X[:, 0]), X[:, 1]], axis=1))

    def remainder_ratio(ii, jj):
        return _accel.block_sup(_remainders(cp, ii, jj), _accel._gap(t, ii, jj), 2 * a)

    return [
        ("first", _accel.differences(X)[0],
         lambda ii, jj: _accel.pair_sup_first(X, t, ii, jj, a), a),
        ("second", lambda ii, jj: _accel._second(X, A, ii, jj),
         lambda ii, jj: _accel.pair_sup_second(X, A, t, ii, jj, a), 2 * a),
        ("first difference", _accel.differences(X - Y)[0],
         lambda ii, jj: _accel.pair_sup_first(X - Y, t, ii, jj, a), a),
        ("second difference", lambda ii, jj: _accel._second_diff(X, A, Y, B, ii, jj),
         lambda ii, jj: _accel.pair_sup_second_diff(X, A, Y, B, t, ii, jj, a), 2 * a),
        ("controlled remainder", lambda ii, jj: _remainders(cp, ii, jj), remainder_ratio, 2 * a),
    ], t


# 1000 cells in runs of 100 pairs: every lag run up to 2^9 is cut
@pytest.mark.parametrize("n_cells,block", [(1000, None), (PAIR_CAP, None),
                                           (PAIR_CAP + 1, None), (1000, 100)])
def test_lag_seed_on_slices_equals_the_kernels_on_index_arrays(monkeypatch, n_cells, block):
    # the seed reads each value function on slice views; the reference is
    # the kernel's max over the lag blocks of _pair_blocks, int64 index
    # arrays (PAIR_CAP 0 makes every grid a lag grid), and a one-call
    # kernel per whole lag, uncut
    if block is not None:
        monkeypatch.setattr(roughpath, "PAIR_BLOCK", block)
    cases, t = lag_value_cases(n_cells)
    m = n_cells + 1
    lags = [1 << k for k in range(n_cells.bit_length())]
    with monkeypatch.context() as patch:
        patch.setattr(roughpath, "PAIR_CAP", 0)
        blocks = list(_pair_blocks(n_cells))
    assert all(b.dtype == np.int64 for block_ in blocks for b in block_)
    if block is not None:
        assert len(blocks) > len(lags)
    for label, f, ratio, e in cases:
        got = _lag_seed(f, t, e)
        assert got == _block_max(ratio, blocks), label
        whole = max(ratio(np.arange(m - k), np.arange(k, m)) for k in lags)
        assert got == whole, label


def test_pair_kernels_only_see_index_arrays(monkeypatch):
    # the benchmark's tracer counts each kernel call's pairs as len(ii), as
    # here; a slice has no len, so every call must pass index arrays.  Up to
    # the cap the tile batches call every kernel; above it nothing does
    want = {}
    for cells in (600, PAIR_CAP + 1):
        rp, rq = rough_pair(cells, cells, 2, uniform=False)
        want[cells] = (rough_distance(rp, rq), rp.holder_norms())
    counts = {}

    def counted(name, kernel):
        def run(*args):
            counts[name] = counts.get(name, 0) + len(args[-3])
            return kernel(*args)
        return run

    names = ("pair_sup_first", "pair_sup_second", "pair_sup_second_diff")
    for name in names:
        monkeypatch.setattr(_accel, name, counted(name, getattr(_accel, name)))
    for cells in (600, PAIR_CAP + 1):
        counts.clear()
        rp, rq = rough_pair(cells, cells, 2, uniform=False)
        assert (rough_distance(rp, rq), rp.holder_norms()) == want[cells]
        if cells <= PAIR_CAP:
            assert set(counts) == set(names) and min(counts.values()) > 0
        else:
            assert counts == {}


# ---------------------------------------------------------------------------
# march
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_march_guard_names_the_cell_of_a_non_finite_input(bad):
    # rde._march steps through the maps whatever they hold, then names the
    # cell of the first state past the guard, forward and backward
    rng = np.random.default_rng(8)
    n = 20
    P = np.eye(2) + 0.1 * rng.normal(size=(n, 2, 2))
    q = 0.1 * rng.normal(size=(n, 2))
    y0 = np.array([0.5, -0.25])
    rde._march(P, q, y0, 0, False)  # finite maps pass
    bad_P, bad_q = P.copy(), q.copy()
    bad_P[5, 0, 1] = bad
    bad_q[7, 1] = bad
    with pytest.raises(RuntimeError, match="guard tripped at step 5:"):
        rde._march(bad_P, q, y0, 0, False)
    with pytest.raises(RuntimeError, match="guard tripped at step 7:"):
        rde._march(P, bad_q, y0, 0, False)
    # backward from cell 10 on: map 7 is that of cell 10 + n - 1 - 7
    with pytest.raises(RuntimeError, match=f"guard tripped at step {10 + n - 1 - 7}:"):
        rde._march(P, bad_q, y0, 10, True)
    with pytest.raises(RuntimeError, match="guard tripped at step 3:"):
        rde._march(P, q, np.array([bad, 0.0]), 3, False)
    # a march of five blocks whose bad map lies in block 3 (cells 192-255):
    # the blocks before it and its cells before the bad one stay finite, so
    # the guard still names the bad cell, forward and backward
    assert _accel.MARCH_BLOCK == 64
    n, first = 300, 40
    P = np.eye(2) + 0.05 * rng.normal(size=(n, 2, 2))
    q = 0.05 * rng.normal(size=(n, 2))
    rde._march(P, q, y0, first, False)
    rde._march(P, q, y0, first, True)
    for c in (192, 200, 255):
        bad_P, bad_q = P.copy(), q.copy()
        bad_P[c, 1, 0] = bad
        bad_q[c, 0] = bad
        for maps in ((bad_P, q), (P, bad_q)):
            with pytest.raises(RuntimeError, match=f"guard tripped at step {first + c}:"):
                rde._march(*maps, y0, first, False)
            with pytest.raises(RuntimeError,
                               match=f"guard tripped at step {first + n - 1 - c}:"):
                rde._march(*maps, y0, first, True)
    # a bad start trips at the first cell the march takes
    with pytest.raises(RuntimeError, match=f"guard tripped at step {first}:"):
        rde._march(P, q, np.array([0.0, bad]), first, False)
    with pytest.raises(RuntimeError, match=f"guard tripped at step {first + n - 1}:"):
        rde._march(P, q, np.array([0.0, bad]), first, True)


def random_maps(seed, n, d):
    """Near-orthogonal P and small q: the exact states stay of order 1 over
    2^15 cells, so the product-norm round-off bound is not vacuous."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(n, d, d)))[0]
    P = Q * (1.0 + rng.normal(size=(n, 1, 1)) / n)
    return P, rng.normal(size=(n, d)) / n, rng.normal(size=d)


@pytest.mark.parametrize("d", [1, 3])
def test_march_of_a_prefix_is_bitwise_the_prefix_of_the_march(d):
    # blocks are anchored at the march's first cell, so cutting the maps
    # anywhere, inside a block or at its edge, changes none of the states
    # before the cut
    P, q, y0 = random_maps(10 + d, 260, d)
    point = _accel.march(P, q, y0)
    M, v = _accel.linear_flow_maps(P, q)
    for m in (0, 1, 63, 64, 65, 127, 128, 129, 197):
        assert np.array_equal(_accel.march(P[:m], q[:m], y0), point[: m + 1]), m
        Mm, vm = _accel.linear_flow_maps(P[:m], q[:m])
        assert np.array_equal(Mm, M[: m + 1]) and np.array_equal(vm, v[: m + 1]), m


def products_in_place(H):
    """The running products of the scan's blocks, each written over its
    left factor, as the scan once formed them: numpy then copies the
    overlapping operand first.  Overwrites H and returns it."""
    B = _accel.MARCH_BLOCK
    prev = H[0::B]
    for j in range(1, min(B, len(H))):
        cur = H[j::B]
        prev = np.matmul(cur, prev[: len(cur)], out=cur)
    return H


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [2, 8, 32, 64, 100, 4096])
def test_scan_products_are_bitwise_those_formed_in_place(d, n):
    # the scan forms each running product into a fresh array and stores it;
    # that leaves every product, and so every state, as it was
    P, q, y0 = random_maps(n, n, d)
    H = _accel._homogeneous(P, q)
    want = products_in_place(H.copy())
    _accel._scan(H, np.append(y0, 1.0)[:, None])  # overwrites H with the products
    assert H.tobytes() == want.tobytes()


def loop_march(P, q, y0):
    """The plain cell-by-cell march Y <- P_k Y (+ q_k)."""
    Y = np.empty((len(P) + 1,) + np.shape(y0))
    Y[0] = y0
    for k in range(len(P)):
        Y[k + 1] = P[k] @ Y[k] if q is None else P[k] @ Y[k] + q[k]
    return Y


def product_bound(H, Y0):
    """((1 + e gamma_e)^k - 1) prod_{i<k} |H_i|_2 |Y0|_2 for each state k of
    the maps H (n, e, e): the 2-norm error bound of any order of the k
    rounded products that form state k (|fl(AB) - AB| <= gamma_e |A| |B|
    entrywise, and |(|A|)|_2 <= sqrt(e) |A|_2)."""
    e = H.shape[1]
    u = _accel.EPS / 2
    step = e * e * u / (1 - e * u)
    k = np.arange(len(H) + 1)
    norms = np.concatenate([[1.0], np.cumprod(np.linalg.norm(H, 2, axis=(1, 2)))])
    return np.expm1(k * np.log1p(step)) * norms * np.linalg.norm(Y0, 2)


def state_norms(Y):
    return np.linalg.norm(Y, 2, axis=(1, 2)) if Y.ndim == 3 else np.linalg.norm(Y, axis=1)


@pytest.mark.parametrize("n", [4096, 1 << 15])
def test_march_and_flow_maps_match_a_cell_by_cell_loop(n):
    # the scan and the loop associate the same products differently; each is
    # within product_bound of the exact states, so they differ by at most
    # twice that
    d = 3
    P, q, y0 = random_maps(n, n, d)
    H = _accel._homogeneous(P, q)
    y0h = np.append(y0, 1.0)
    bound = 2 * product_bound(H, y0h)
    assert bound[-1] < 1e-9
    assert np.all(state_norms(_accel.march(P, q, y0) - loop_march(P, q, y0)) <= bound)
    M, v = _accel.linear_flow_maps(P, q)
    bound = 2 * product_bound(H, np.eye(d + 1))
    assert np.all(state_norms(M - loop_march(P, None, np.eye(d))) <= bound)
    assert np.all(state_norms(v - loop_march(P, q, np.zeros(d))) <= bound)


def frame_scan(P, Z0):
    """The states Z0, P_0 Z0, P_1 P_0 Z0, ... of the frame Z0 (d, m): the
    blocked scan run on the (d, d) maps P themselves, not on their
    homogeneous form."""
    return _accel._scan(P.copy(), Z0)


@pytest.mark.parametrize("cells", [64, 4096])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_flow_jacobian_is_bitwise_the_frame_scan(d, cells):
    # the Jacobian is the linear part M of the homogeneous scan; on both
    # models' frozen-law fields and on a random a0 it is bit for bit the
    # scan of the identity frame through the P alone, in both directions,
    # and within the round-off bound of a cell-by-cell loop
    g = np.random.default_rng(cells + d)
    noise = NoisePath.generate(cells + d, TimeGrid.regular(0.0, 1.0, 2 * cells), d)
    rp = brownian_lift(noise, TimeGrid.regular(0.0, 1.0, cells), STRAT)
    mu0 = EmpiricalMeasure(g.normal(size=(40, d)))
    fields = []
    for name in ["eks-gaussian"] + (["landau-maxwell"] if d == 3 else []):
        params = {"Sigma": np.diag(np.arange(1.0, d + 1))} if name == "eks-gaussian" else None
        model = build_model(name, params)
        curve = simulate_frozen_law(model, mu0, FrozenLawConfig(8, seed=d), 1.0)
        fields.append(frozen_coefficient_field(model, curve, cells))
    table = g.normal(size=(cells, d, d))
    fields.append(linear_coefficients(0.3 * g.normal(size=(d, d, d)), lambda c: table[c]))
    eye = np.eye(d)
    for coeff in fields:
        for direction in ("forward", "backward"):
            backward = direction == "backward"
            P, q = rde._cell_maps(coeff, rp, 0, cells, backward)
            want = frame_scan(P, eye)
            got = rde.flow_jacobian(coeff, rp, np.zeros(d), direction)
            assert got.flags.c_contiguous and got.shape == (cells + 1, d, d)
            assert (got[::-1] if backward else got).tobytes() == want.tobytes()
            bound = 2 * product_bound(_accel._homogeneous(P, q), np.eye(d + 1))
            assert np.all(state_norms(want - loop_march(P, None, eye)) <= bound)


# ---------------------------------------------------------------------------
# the pruned all-pairs search against brute force, bitwise
# ---------------------------------------------------------------------------

def one_shot_suprema(rp, rq):
    """The three suprema of ``kernel_suprema`` and the first level of the
    distance, one kernel call each over every pair (i < j) as flat index
    arrays: nothing pruned."""
    ii, jj = np.triu_indices(len(rp.times), k=1)
    X, A, X2, A2 = rp.values, rp._cum, rq.values, rq._cum
    t, a = rp.times, rp.alpha
    return (
        _accel.pair_sup_first(X, t, ii, jj, a),
        _accel.pair_sup_second(X, A, t, ii, jj, a),
        _accel.pair_sup_second_diff(X, A, X2, A2, t, ii, jj, a),
        _accel.pair_sup_first(X - X2, t, ii, jj, a),
    )


def bitwise_equal(got, want):
    return all(g == w or (np.isnan(g) and np.isnan(w)) for g, w in zip(got, want))


def linear_path(grid, d):
    # X_t = t v with its exact second level; every ratio grows with the
    # lag, so the suprema sit at the pair (0, n), in the farthest tile
    X = grid.points[:, None] * np.linspace(1.0, 0.5, d)
    dX = np.diff(X, axis=0)
    return RoughPath(grid, X, 0.5 * np.einsum("ml,mk->mlk", dX, dX), 0.4)


def search_cases(rp, rq):
    """(label, first path, second path) on one grid: the adversarial
    inputs of the tile search."""
    grid, n, d = rp.grid, rp.grid.n_cells, rp.d
    yield "random", rp, rq
    yield "linear", linear_path(grid, d), rp
    const = RoughPath(grid, np.full((n + 1, d), 3.7), np.zeros((n, d, d)), 0.4)
    yield "constant", const, const
    X = rp.values.copy()
    X[-1] += 50.0  # one large jump in the last cell
    yield "jump", RoughPath(grid, X, rp.cells, 0.4), rq
    if n > 4:
        yield "restrict", rp.restrict(2, n - 1), rq.restrict(2, n - 1)
        k = n // 3
        # the time shift by t_k: times and first level re-anchored at node k
        sp, sq = (
            RoughPath(TimeGrid(x.times - x.times[k]), x.values - x.values[k], x.cells, x.alpha)
            for x in (rp, rq)
        )
        yield "shift", sp, sq
    X = rp.values.copy()
    X[n // 2, 0] = np.nan
    yield "nan", RoughPath(grid, X, rp.cells, 0.4), rq


# cell counts below, at (32 nodes) and past one tile, and not divisible by it
@pytest.mark.parametrize("cells", [20, 31, 32, 100, 333])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("uniform", [True, False])
def test_tile_search_equals_brute_force_bitwise(cells, d, uniform):
    rp, rq = rough_pair(10 * d + cells, cells, d, uniform)
    for label, p, q in search_cases(rp, rq):
        got, want = kernel_suprema(p, q), one_shot_suprema(p, q)
        assert bitwise_equal(got, want[:3]), (label, got, want)
        if label == "nan":
            assert np.isnan(want[0]) and np.isnan(want[2])
        # the public entry points run the same searches
        norms = p.holder_norms()
        assert bitwise_equal(norms, want[:2]), (label, norms, want)
        assert bitwise_equal([rough_distance(p, q)], [want[3] + want[2]]), label


@pytest.mark.parametrize("nodes", [(3, 6), (0,), (57,), (100,)])
def test_infinite_inputs_give_nan(nodes):
    # +inf at nodes 3 and 6 of 100: no dyadic lag joins them, so the lags
    # give inf, while the pair (3, 6) gives inf - inf = NaN; the search
    # must return that NaN, not a max over what it evaluated.  One inf
    # gives inf on every pair i < j, but inf - inf at its own entry (k, k)
    # of a diagonal tile, which the search always evaluates: every
    # non-finite input gives NaN, the first and last node included
    rng = np.random.default_rng(0)
    t = TimeGrid.regular(0.0, 1.0, 100).points
    X = np.cumsum(rng.normal(size=(101, 2)), axis=0)
    X[list(nodes)] = np.inf
    ii, jj = np.triu_indices(101, k=1)
    with np.errstate(invalid="ignore"):
        assert np.isinf(_accel.pair_sup_first(X, t, np.arange(100), np.arange(1, 101), 0.4))
        want = _accel.pair_sup_first(X, t, ii, jj, 0.4)
        got = (_first_sup(X, t, 0.4), _second_sup(X, np.zeros((101, 2, 2)), t, 0.4))
    assert np.isnan(want) == (len(nodes) == 2)
    assert np.isnan(got).all()


def test_tile_search_evaluates_under_a_quarter_of_the_pairs(monkeypatch):
    # 2048 cells: 2,098,176 pairs per supremum.  Count the pairs (j > i of
    # each block's broadcast) that reach the kernels; a search that fell
    # back to the sweep would count them all
    noise = NoisePath.generate(1, TimeGrid.regular(0.0, 1.0, 2048), 2)
    ref = brownian_lift(noise, noise.fine_grid, STRAT)
    approx = dyadic_approximation(noise, 5)
    X, A, Y, B, t, a = ref.values, ref._cum, approx.values, approx._cum, ref.times, 0.4
    n = ref.grid.n_cells
    sweep = [
        _block_max(lambda ii, jj: _accel.pair_sup_first(X, t, ii, jj, a), _pair_blocks(n)),
        _block_max(lambda ii, jj: _accel.pair_sup_second(X, A, t, ii, jj, a),
                   _pair_blocks(n)),
        _block_max(lambda ii, jj: _accel.pair_sup_first(Y - X, t, ii, jj, a),
                   _pair_blocks(n)),
        _block_max(lambda ii, jj: _accel.pair_sup_second_diff(Y, B, X, A, t, ii, jj, a),
                   _pair_blocks(n)),
    ]
    counts = []

    def counted(kernel):
        def run(*args):
            ii, jj = args[-3], args[-2]
            counts.append(int(np.count_nonzero(jj > ii)))
            return kernel(*args)
        return run

    for name in ("pair_sup_first", "pair_sup_second", "pair_sup_second_diff"):
        monkeypatch.setattr(_accel, name, counted(getattr(_accel, name)))
    got, evaluated = [], []
    for sup in (lambda: _first_sup(X, t, a), lambda: _second_sup(X, A, t, a),
                lambda: _first_sup(Y - X, t, a),
                lambda: _second_diff_sup(Y, B, X, A, t, a)):
        counts.clear()
        got.append(sup())
        evaluated.append(sum(counts))
    assert got == sweep
    pairs = (n + 1) * n // 2
    assert max(evaluated) < 0.25 * pairs, evaluated


# ---------------------------------------------------------------------------
# the slack of each pair value function against exact arithmetic
# ---------------------------------------------------------------------------

exact = np.vectorize(Fraction, otypes=[object])


def roundoff(computed, exact_values):
    """|computed - exact| of each pair value, the difference taken exactly."""
    e = exact(computed) - exact_values
    return np.sqrt((e * e).reshape(len(e), -1).sum(axis=1).astype(float))


def swinging_pair(seed, m, d):
    """Two nearly equal second-level inputs whose running sums A swing
    between about -1e6 and 1e6, so that each A_j - A_i rounds at that
    scale, while the two paths' values differ by about 1e-3."""
    rng = np.random.default_rng(seed)
    A1 = 1e6 * (-1.0) ** np.arange(m)[:, None, None] * (1 + 0.1 * rng.random((m, d, d)))
    A1[0] = 0.0
    X1 = 30.0 * rng.normal(size=(m, d))
    X2 = X1 * (1 + 1e-9 * rng.normal(size=X1.shape))
    A2 = A1 * (1 + 1e-9 * rng.normal(size=A1.shape))
    return X1, A1, X2, A2


@pytest.mark.parametrize("d", [1, 2, 3])
def test_value_slacks_bound_the_exact_roundoff(d):
    X1, A1, X2, A2 = swinging_pair(d, 24, d)
    ii, jj = np.triu_indices(24, k=1)
    F1, B1, F2, B2 = map(exact, (X1, A1, X2, A2))
    second = roundoff(_accel._second(X1, A1, ii, jj), _accel._second(F1, B1, ii, jj))
    assert second.max() <= _accel.second_slack(X1, A1)
    want = _accel._second_diff(F1, B1, F2, B2, ii, jj)
    diff = roundoff(_accel._second_diff(X1, A1, X2, A2, ii, jj), want)
    assert diff.max() <= _accel.second_diff_slack(X1, A1, X2, A2)
    # the difference rounds at the scale of each path's values, far above
    # eps times the difference itself
    size = np.sqrt((want * want).reshape(len(want), -1).sum(axis=1).astype(float))
    assert diff.max() > 1e6 * _accel.EPS * size.max()
    # pair differences of a stored array, and of a rounded difference of
    # two, against G_j - G_i - (H_j - H_i)
    for F, want in ((X1, F1[jj] - F1[ii]), (X1 - X2, F1[jj] - F1[ii] - (F2[jj] - F2[ii]))):
        values, slack = _accel.differences(F)
        assert roundoff(values(ii, jj), want).max() <= slack


def test_search_widens_its_bounds_by_the_value_slacks():
    # XX1 - XX2 with X = 0 is fl(A1_j - A1_i) - fl(A2_j - A2_i).  At the
    # pair (30, 33), 2^20 + 2^-33 is a tie that rounds down while the next
    # float up rounds up: a computed value of 2^-32 whose exact value is
    # 2^-85, and whose anchor values at p = 32 are exact (A_32 = 0): 0 and
    # 2^-85.  A shift of 1e-14 across a short cell in tile 1 sets a best
    # above the slack-free bound of tile (0, 1) and below that pair's
    # ratio, so only the slack keeps that tile in the search
    m = 64
    t = np.arange(m) / (m - 1.0)
    t[41] = t[40] + 1e-3 / (m - 1.0)
    A1 = np.zeros((m, 1, 1))
    A1[30] = -(2.0**20)
    A2 = A1.copy()
    A1[33], A2[33] = 2.0**-33, np.nextafter(2.0**-33, 1.0)
    A2[41:] += 1e-14
    X = np.zeros((m, 1))
    ii, jj = np.triu_indices(m, k=1)
    want = _accel.pair_sup_second_diff(X, A1, X, A2, t, ii, jj, 0.4)
    assert want == 2.0**-32 / (t[33] - t[30]) ** 0.8
    assert _second_diff_sup(X, A1, X, A2, t, 0.4) == want


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


# ---------------------------------------------------------------------------
# the row-norm kernel
# ---------------------------------------------------------------------------

def spread(rng, shape):
    # entries of both signs over e^-8 .. e^8
    return rng.normal(size=shape) * np.exp(rng.uniform(-8.0, 8.0, size=shape))


def same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def left_to_right_norms(v):
    s = v[..., 0] * v[..., 0]
    for k in range(1, v.shape[-1]):
        s += v[..., k] * v[..., k]
    return np.sqrt(s)


@pytest.mark.parametrize("K", range(1, 8))
def test_row_norms_are_bitwise_linalg_norm(K):
    # below 8 terms numpy's reduction sums the squares left to right, as
    # _row_norms does; a numpy that sums them otherwise turns this red
    rng = np.random.default_rng(K)
    for shape in ((300, K), (7, 300, K)):
        for _ in range(20):
            v = spread(rng, shape)
            for w in (v, np.asfortranarray(v)):
                assert same_bits(_accel._row_norms(w), np.linalg.norm(w, axis=-1))


@pytest.mark.parametrize("K", [0, 1, 7, 8, 9, 16])
def test_row_norms_fall_back_to_linalg_norm_from_8_terms(K, monkeypatch):
    calls = []
    norm = np.linalg.norm

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spy)
    v = spread(np.random.default_rng(K), (300, K))
    got = _accel._row_norms(v)
    assert calls == ([] if 0 < K < 8 else [v.shape])
    assert same_bits(got, norm(v, axis=-1))
    if K >= 8:
        # from 8 terms numpy sums pairwise: the left-to-right sum is not it
        assert not same_bits(left_to_right_norms(v), got)


def test_row_norms_of_non_finite_and_overflowing_entries():
    v = np.array([[np.inf, 1.0], [-np.inf, np.nan], [np.nan, 0.0], [0.0, -0.0], [3.0, -4.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert same_bits(_accel._row_norms(v), np.linalg.norm(v, axis=-1))
    # a square overflows, or the sum of two finite squares does
    for big in (np.array([[1e200, 1.0], [1.0, 2.0]]), np.array([[1e154, 1e154], [1.0, 2.0]])):
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = _accel._row_norms(big)
        with pytest.warns(RuntimeWarning, match="overflow"):
            want = np.linalg.norm(big, axis=-1)
        assert same_bits(got, want) and np.isinf(got[0])
