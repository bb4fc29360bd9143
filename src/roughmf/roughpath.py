"""Discrete alpha-Hölder rough paths over a time grid.

A rough path stores the first level X at the grid points and the second
level over consecutive grid cells only; the second level over any other
pair is materialised through Chen's relation

    XX_{s,t} = XX_{s,u} + XX_{u,t} + X_{s,u} (x) X_{u,t},

which therefore holds exactly (to round-off) by construction.  Brownian
lifts are built from a fine-grid noise path by second-order Riemann sums,
with the Stratonovich/Itô conventions differing by the exact diagonal
correction (h/2) Id per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _accel, rng
from .grids import TimeGrid

ITO = "ito"
STRAT = "strat"

#: beyond this many grid cells the discrete Hölder suprema are taken over the
#: dyadically spaced pairs (i, i + 2^k) only, a lower bound of the supremum
#: over all pairs
PAIR_CAP = 2048

#: most block entries a Hölder supremum evaluates at once, the entries
#: j <= i of a block included; it bounds the memory of the per-pair
#: intermediates, and a max over blocks is exact.  Above PAIR_CAP, so that
#: one row of all pairs always fits in a block.  2^15 rather than 2^16: the
#: same time, and a `rough-paths` benchmark round peaks 2-3 MB lower.
PAIR_BLOCK = 1 << 15

#: nodes per side of the square tiles of the all-pairs search.  On
#: 2^11-cell Brownian lifts, tiles of 16 to 32 nodes took the same time to
#: within the run-to-run spread, and 48 and 64 took up to 20% and 30%
#: longer; 32 is the largest of the flat range, so the fewest tiles to bound.
PAIR_TILE = 32


def check_alpha(alpha: float) -> float:
    if not (1.0 / 3.0 < alpha < 0.5):
        raise ValueError(f"Hölder exponent must lie in (1/3, 1/2), got {alpha}")
    return float(alpha)


def _lag_blocks(n_cells: int):
    """The pairs (i, i + 2^k), one lag at a time, cut into runs of at most
    PAIR_BLOCK pairs, each run a pair (i, j) of slices i0:i1 and
    i0 + 2^k:i1 + 2^k."""
    m = n_cells + 1
    k = 1
    while k <= n_cells:
        for i0 in range(0, m - k, PAIR_BLOCK):
            i1 = min(i0 + PAIR_BLOCK, m - k)
            yield slice(i0, i1), slice(i0 + k, i1 + k)
        k *= 2


def _pair_blocks(n_cells: int):
    """The pair set of the discrete Hölder suprema, (i, j) with i < j, as
    blocks (ii, jj) of int64 index arrays that broadcast against each other,
    at most PAIR_BLOCK broadcast entries per block.

    Up to PAIR_CAP cells every pair: a block is a run of rows r0 <= i < r1
    against the columns r0 < j <= n_cells, ``ii`` of shape (R, 1) and ``jj``
    of shape (1, C).  Its corner, the entries with j <= i, holds no pair;
    the kernels give those entries an infinite time gap (``_accel._gap``),
    so their ratio is exactly 0.  Above PAIR_CAP the dyadic lags of
    ``_lag_blocks``.  Either way each pair appears once, in row-major order
    of its block.  ``_pair_sup`` returns the max over this set while it
    evaluates only a fraction of it; the set itself is swept only by tests,
    as the reference of that max.
    """
    if n_cells > PAIR_CAP:
        for i, j in _lag_blocks(n_cells):
            yield (np.arange(i.start, i.stop, dtype=np.int64),
                   np.arange(j.start, j.stop, dtype=np.int64))
        return
    m = n_cells + 1
    # R rows against at most n_cells columns
    rows = PAIR_BLOCK // n_cells
    for r0 in range(0, n_cells, rows):
        ii = np.arange(r0, min(r0 + rows, n_cells), dtype=np.int64)
        yield ii[:, None], np.arange(r0 + 1, m, dtype=np.int64)[None, :]


def _block_max(ratio, blocks) -> float:
    best = -np.inf
    for ii, jj in blocks:
        best = np.maximum(best, ratio(ii, jj))  # a NaN stays NaN
    return float(best)


def _lag_seed(f, times, exponent) -> float:
    """Largest |f(i, j)| / (t_j - t_i)^exponent over the dyadic lags, f read
    on the slice views of each run of ``_lag_blocks``: no index array is
    built and no point is gathered."""
    return _block_max(
        lambda i, j: _accel.block_sup(f(i, j), times[j] - times[i], exponent),
        _lag_blocks(len(times) - 1),
    )


def _row_maxima(f, tiles):
    """rows[a, b] = max over i in tile a of |f(i, p_b)|, for b > a, with p_b
    the first node of tile b, and the values per pair of f.  At most
    PAIR_BLOCK entries are evaluated at once."""
    nt, S = tiles.shape
    rows = np.zeros((nt, nt))
    step = max(1, PAIR_BLOCK // (S * nt))  # row tiles per block
    for a0 in range(0, nt - 1, step):
        a1 = min(a0 + step, nt - 1)
        ii, jj = tiles[a0:a1].reshape(-1, 1), tiles[None, a0 + 1 :, 0]
        v = f(ii, jj)
        rows[a0:a1, a0 + 1 :] = (
            _accel.pair_norms(v, (ii.size, jj.size)).reshape(a1 - a0, S, -1).max(axis=1)
        )
    return rows, v.size // (ii.size * jj.size)


def _col_maxima(f, tiles):
    """cols[b] = max over j in tile b of |f(p_b, j)|, p_b the first node of
    tile b, and the values per pair of f."""
    v = f(tiles[:, :1], tiles)
    return _accel.pair_norms(v, tiles.shape).max(axis=1), v.size // tiles.size


def _pair_sup(ratio, times, exponent, values, terms=()) -> float:
    """Discrete Hölder supremum over the pair set of ``_pair_blocks``, equal
    bitwise to the max of ``ratio`` over every block of that set.

    ``ratio(ii, jj)`` is one pair kernel call on index arrays, a block's
    largest |Z_{i,j}| / (t_j - t_i)^exponent, bitwise
    ``_accel.block_sup(f(ii, jj), _accel._gap(times, ii, jj), exponent)``.
    ``values`` is the pair (f, s) of the kernel's value function, f(ii, jj)
    the block's computed values Z_{i,j} (of the block's shape followed by
    the value axes), for index arrays or for slices, and its slack s (see
    ``_accel``).  ``terms`` holds pairs (U, V) of such (f, s) pairs for
    which Chen's relation

        Z_{i,j} = Z_{i,p} + Z_{p,j} + sum_(U, V) U_{i,p} (x) V_{p,j}

    holds in exact arithmetic on the stored arrays for i <= p <= j.

    The dyadic lags (i, i + 2^k) seed the running best (``_lag_seed``): f
    reads each lag run on slice views, which gather nothing, and
    ``block_sup`` takes the ratios ``ratio`` gives on those pairs.  Above
    PAIR_CAP the lags are the pair set, so the seed is the value.  Up to
    PAIR_CAP the nodes are cut into tiles of PAIR_TILE, the diagonal tiles
    are evaluated, and each tile pair a < b is bounded from its anchor p,
    the first node of tile b, and its smallest gap g = t_p - t_l, l the
    last node of tile a:

        B = (max_i |Z_{i,p}| + max_j |Z_{p,j}| + 3 s
             + sum (max_i |U_{i,p}| + s_U) (max_j |V_{p,j}| + s_V))
            (1 + r) / g^exponent.

    The tile pairs are evaluated in descending order of B, at most
    PAIR_BLOCK entries a batch, until none left reaches the best.  B bounds
    every computed ratio of its tile:
    - each computed value is within its slack of the exact one, so
      |Z_{i,j}| + s, with the exact values of Chen's relation, bounds the
      computed |Z_{i,j}|, and the anchor values and factors plus their
      slacks bound the exact ones;
    - rounding is monotone, so each pair's computed gap is >= the computed
      g;
    - r = (4 K + 64) eps, with K values per pair, covers what is rounded
      after the values: the norms (``_accel._row_norms``, K squares summed
      left to right below 8 terms, pairwise from 8, and a root: at most
      about (K + 1) u each, inside the (K + 2) u allowed, u = eps / 2), the
      sums and products of B, a power on each side (4 ulp allowed) and a
      division on each side, about (2 K + 30) u in all, r fourfold that.
    A non-finite input value at a node k makes the value NaN: the entry
    (k, k) of its diagonal tile, evaluated whatever the bounds, is inf - inf
    or NaN, and ``np.maximum`` keeps a NaN.  A NaN bound, which finite
    inputs give only through overflow, counts as infinite.
    """
    best = _lag_seed(values[0], times, exponent)
    if len(times) - 1 > PAIR_CAP:
        return best
    return _tile_search(ratio, times, exponent, values, terms, best)


def _tile_search(ratio, times, exponent, values, terms, best) -> float:
    """The tile part of ``_pair_sup``, from the seed ``best``."""
    m = len(times)
    S = min(PAIR_TILE, m)
    nt = -(-m // S)
    # the last tile repeats the last node where it runs past it; a pair
    # evaluated twice leaves the max unchanged
    tiles = np.minimum(np.arange(nt * S, dtype=np.int64).reshape(nt, S), m - 1)
    per = max(1, PAIR_BLOCK // (S * S))  # tile pairs per batch

    def evaluate(a, b):
        return ratio(tiles[a][:, :, None], tiles[b][:, None, :])

    for k in range(0, nt, per):
        diag = np.arange(k, min(k + per, nt))
        best = np.maximum(best, evaluate(diag, diag))
    if nt == 1:
        return float(best)
    a, b = np.triu_indices(nt, 1)
    f, s = values
    rows, k_rows = _row_maxima(f, tiles)
    cols, k_cols = _col_maxima(f, tiles)
    num, K = rows[a, b] + cols[b] + 3.0 * s, max(k_rows, k_cols)
    for (U, s_u), (V, s_v) in terms:
        (rows, k_rows), (cols, k_cols) = _row_maxima(U, tiles), _col_maxima(V, tiles)
        num += (rows[a, b] + s_u) * (cols[b] + s_v)
        K = max(K, k_rows, k_cols)
    g = (times[tiles[b, 0]] - times[tiles[a, -1]]) ** exponent
    bound = num * (1.0 + (4 * K + 64) * _accel.EPS) / g
    bound[np.isnan(bound)] = np.inf
    order = np.argsort(-bound, kind="stable")
    a, b, bound = a[order], b[order], bound[order]
    k = 0
    while k < len(bound) and bound[k] >= best:
        # the next batch: the tiles whose bound still reaches the best
        stop = min(k + per, int(np.searchsorted(-bound, -best, side="right")))
        best = np.maximum(best, evaluate(a[k:stop], b[k:stop]))
        k = stop
    return float(best)


@dataclass(frozen=True)
class NoisePath:
    """Gaussian increments of a driving path on a fine grid."""

    fine_grid: TimeGrid
    increments: np.ndarray  # (M, d)

    @classmethod
    def generate(
        cls,
        seed: int,
        fine_grid: TimeGrid,
        d: int,
        lane: int = rng.DRIVER_LANE,
        member: int = 0,
    ) -> "NoisePath":
        inc = rng.stream(seed, lane, member).standard_normal((fine_grid.n_cells, d))
        inc *= np.sqrt(fine_grid.widths)[:, None]
        return cls(fine_grid, inc)

    @property
    def d(self) -> int:
        return self.increments.shape[1]

    def values(self) -> np.ndarray:
        """Path values on the fine grid, anchored to 0 at the first point."""
        W = np.empty((self.fine_grid.n_cells + 1, self.d))
        W[0] = 0.0
        np.cumsum(self.increments, axis=0, out=W[1:])
        return W


@dataclass(frozen=True)
class RoughPath:
    grid: TimeGrid
    values: np.ndarray  # X at grid points, (M+1, d)
    cells: np.ndarray  # second level over consecutive cells, (M, d, d)
    alpha: float

    def __post_init__(self):
        check_alpha(self.alpha)
        X = np.asarray(self.values, dtype=float)
        C = np.asarray(self.cells, dtype=float)
        M = self.grid.n_cells
        if X.shape[0] != M + 1 or C.shape != (M, X.shape[1], X.shape[1]):
            raise ValueError("inconsistent rough path array shapes")
        object.__setattr__(self, "values", X)
        object.__setattr__(self, "cells", C)

    @cached_property
    def _cum(self) -> np.ndarray:
        """Running second level from the left endpoint, cum[j] = XX_{t_0, t_j},
        (M+1, d, d): built at the first Hölder or Chen query, since RDE
        solves read only the cells."""
        X, C = self.values, self.cells
        dX = np.diff(X, axis=0)
        cum = np.empty((len(X), X.shape[1], X.shape[1]))
        cum[0] = 0.0
        np.cumsum(C + np.einsum("ml,mk->mlk", X[:-1] - X[0], dX), axis=0, out=cum[1:])
        return cum

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def times(self) -> np.ndarray:
        return self.grid.points

    # -- level access -------------------------------------------------------

    def increment(self, i: int, j: int) -> np.ndarray:
        return self.values[j] - self.values[i]

    def second_level(self, i: int, j: int) -> np.ndarray:
        """XX_{t_i, t_j} by Chen composition of the stored cells."""
        return _accel._second(self.values, self._cum, i, j)

    def chen_defect(self, s: float, u: float, t: float) -> np.ndarray:
        """XX_{s,t} - XX_{s,u} - XX_{u,t} - X_{s,u} (x) X_{u,t} for grid times."""
        i, k, j = (self.grid.index_of(x) for x in (s, u, t))
        if not (i <= k <= j):
            raise ValueError("chen_defect requires s <= u <= t")
        return (
            self.second_level(i, j)
            - self.second_level(i, k)
            - self.second_level(k, j)
            - np.outer(self.increment(i, k), self.increment(k, j))
        )

    # -- norms and distances ------------------------------------------------

    @cached_property
    def _norms(self) -> tuple[float, float]:
        X, A, t, a = self.values, self._cum, self.times, self.alpha
        return _first_sup(X, t, a), _second_sup(X, A, t, a)

    def holder_norms(self) -> tuple[float, float]:
        """Discrete sup of |X_{s,t}| / |t-s|^a and |XX_{s,t}| / |t-s|^{2a}
        over all pairs of grid points up to PAIR_CAP cells; above it over the
        dyadic lags (i, i + 2^k), a lower bound of the sup over all pairs."""
        return self._norms

    def restrict(self, i: int, j: int) -> "RoughPath":
        """Sub-path over grid points i..j (times kept, first level rebased):
        the window [t_i, t_j] of the shifted path theta_{t_i} X, since its
        first level starts at 0, its stored cells are the same, and
        cell-indexed coefficients never read the time labels."""
        if not (0 <= i < j <= self.grid.n_cells):
            raise ValueError("invalid restriction window")
        return RoughPath(
            TimeGrid(self.times[i : j + 1]),
            self.values[i : j + 1] - self.values[i],
            self.cells[i:j],
            self.alpha,
        )


def rough_distance(rp1: RoughPath, rp2: RoughPath) -> float:
    """alpha-Hölder rough path metric between paths on the same grid, over
    all pairs of grid points up to PAIR_CAP cells; above it over the dyadic
    lags (i, i + 2^k), a lower bound of the metric over all pairs."""
    if rp1.alpha != rp2.alpha:
        raise ValueError("rough paths must share the Hölder exponent")
    if rp1.times.shape != rp2.times.shape or not np.allclose(rp1.times, rp2.times):
        raise ValueError("rough paths must share the time grid")
    X1, A1, X2, A2 = rp1.values, rp1._cum, rp2.values, rp2._cum
    t, a = rp1.times, rp1.alpha
    return _first_sup(X1 - X2, t, a) + _second_diff_sup(X1, A1, X2, A2, t, a)


# ---------------------------------------------------------------------------
# the Hölder suprema of rough paths: each kernel with its Chen factors
# ---------------------------------------------------------------------------

def _first_sup(X, t, a) -> float:
    """sup |X_j - X_i| / (t_j - t_i)^a; X_{i,j} = X_{i,p} + X_{p,j}."""
    return _pair_sup(
        lambda ii, jj: _accel.pair_sup_first(X, t, ii, jj, a), t, a, _accel.differences(X)
    )


def _second_sup(X, A, t, a) -> float:
    """sup |XX_{i,j}| / (t_j - t_i)^{2a};
    XX_{i,j} = XX_{i,p} + XX_{p,j} + X_{i,p} (x) X_{p,j}."""
    dX = _accel.differences(X)
    return _pair_sup(
        lambda ii, jj: _accel.pair_sup_second(X, A, t, ii, jj, a),
        t,
        2.0 * a,
        (lambda ii, jj: _accel._second(X, A, ii, jj), _accel.second_slack(X, A)),
        ((dX, dX),),
    )


def _second_diff_sup(X1, A1, X2, A2, t, a) -> float:
    """sup |XX1_{i,j} - XX2_{i,j}| / (t_j - t_i)^{2a}.  With dX = X1 - X2
    the Chen cross terms X1_{i,p} (x) X1_{p,j} - X2_{i,p} (x) X2_{p,j} are
    dX_{i,p} (x) X1_{p,j} + X2_{i,p} (x) dX_{p,j}."""
    dX = _accel.differences(X1 - X2)
    return _pair_sup(
        lambda ii, jj: _accel.pair_sup_second_diff(X1, A1, X2, A2, t, ii, jj, a),
        t,
        2.0 * a,
        (
            lambda ii, jj: _accel._second_diff(X1, A1, X2, A2, ii, jj),
            _accel.second_diff_slack(X1, A1, X2, A2),
        ),
        ((dX, _accel.differences(X1)), (_accel.differences(X2), dX)),
    )


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def brownian_lift(
    noise: NoisePath, coarse: TimeGrid, mode: str, alpha: float = 0.4
) -> RoughPath:
    """Lift a noise path to a rough path on a coarse subgrid.

    The Stratonovich second level per coarse cell is the midpoint Riemann
    sum over the fine grid; the Itô one is obtained from it by subtracting
    the exact diagonal correction (h/2) Id.
    """
    if mode not in (ITO, STRAT):
        raise ValueError(f"unknown lift mode {mode!r}")
    sub = noise.fine_grid.subgrid_indices(coarse)
    W = noise.values()
    dW = noise.increments
    d = noise.d
    # midpoint summand (W_k + dW_k/2) (x) dW_k, accumulated then differenced
    G = np.einsum("ml,mk->mlk", W[:-1] + 0.5 * dW, dW)
    cumG = np.empty((len(W), d, d))
    cumG[0] = 0.0
    np.cumsum(G, axis=0, out=cumG[1:])
    a, b = sub[:-1], sub[1:]
    cells = cumG[b] - cumG[a] - np.einsum("ml,mk->mlk", W[a], W[b] - W[a])
    if mode == ITO:
        cells = cells - 0.5 * coarse.widths[:, None, None] * np.eye(d)
    return RoughPath(coarse, W[sub], cells, alpha)


def dyadic_approximation(noise: NoisePath, n: int, alpha: float = 0.4) -> RoughPath:
    """Level-n piecewise-linear approximation, represented on the fine grid.

    The first level linearly interpolates the noise path between dyadic
    nodes; the second level per fine cell is the exact Riemann-Stieltjes
    iterated integral of the piecewise-linear path, (1/2) dX (x) dX.
    """
    M = noise.fine_grid.n_cells
    cells_per = M // (1 << n)
    if cells_per * (1 << n) != M:
        raise ValueError("2^n dyadic cells must align with the fine grid")
    W = noise.values()
    t = noise.fine_grid.points
    # a row per dyadic cell, of ends t[a] and t[b]: its fine nodes but the
    # last, so a node shared by two cells takes the later cell's value
    a, b = slice(0, M, cells_per), slice(cells_per, None, cells_per)
    lam = ((t[:M].reshape(-1, cells_per) - t[a, None]) / (t[b] - t[a])[:, None])[..., None]
    X = np.empty_like(W)
    X[:M].reshape(-1, cells_per, W.shape[1])[...] = (1 - lam) * W[a, None] + lam * W[b, None]
    lam = (t[M] - t[M - cells_per]) / (t[M] - t[M - cells_per])
    X[M] = (1 - lam) * W[M - cells_per] + lam * W[M]
    dX = np.diff(X, axis=0)
    cells = 0.5 * np.einsum("ml,mk->mlk", dX, dX)
    return RoughPath(noise.fine_grid, X, cells, alpha)
