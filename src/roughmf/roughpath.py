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

import io
import json
from dataclasses import dataclass, field

import numpy as np

from . import _accel, rng
from .grids import TimeGrid
from .measures import write_rows

ITO = "ito"
STRAT = "strat"

#: beyond this many grid cells the discrete Hölder suprema are taken over
#: dyadically spaced pairs (i, i + 2^k) instead of all pairs
PAIR_CAP = 2048

#: most block entries a Hölder supremum evaluates at once, the corner
#: entries j <= i of a row block included; it bounds the memory of the
#: per-pair intermediates, and a max over blocks is exact.  Above PAIR_CAP,
#: so that one row of all pairs always fits in a block.
PAIR_BLOCK = 1 << 16


def check_alpha(alpha: float) -> float:
    if not (1.0 / 3.0 < alpha < 0.5):
        raise ValueError(f"Hölder exponent must lie in (1/3, 1/2), got {alpha}")
    return float(alpha)


def _pair_blocks(n_cells: int):
    """Index pairs (i, j), i < j, used for discrete Hölder suprema, yielded
    as blocks (ii, jj) of int64 index arrays that broadcast against each
    other, at most PAIR_BLOCK broadcast entries per block.

    Up to PAIR_CAP cells every pair: a block is a run of rows r0 <= i < r1
    against the columns r0 < j <= n_cells, ``ii`` of shape (R, 1) and ``jj``
    of shape (1, C).  Its corner, the entries with j <= i, holds no pair;
    the kernels give those entries an infinite time gap (``_accel._gap``),
    so their ratio is exactly 0.  Above PAIR_CAP the pairs (i, i + 2^k),
    one lag at a time, cut into flat blocks.  Either way each pair appears
    once, in row-major order of its block.
    """
    m = n_cells + 1
    if n_cells <= PAIR_CAP:
        # R rows against at most n_cells columns
        rows = PAIR_BLOCK // n_cells
        for r0 in range(0, n_cells, rows):
            ii = np.arange(r0, min(r0 + rows, n_cells), dtype=np.int64)
            yield ii[:, None], np.arange(r0 + 1, m, dtype=np.int64)[None, :]
        return
    k = 1
    while k <= n_cells:
        for i0 in range(0, m - k, PAIR_BLOCK):
            i = np.arange(i0, min(i0 + PAIR_BLOCK, m - k), dtype=np.int64)
            yield i, i + k
        k *= 2


def _pair_sup(ratio, n_cells: int) -> float:
    """Max of ``ratio(ii, jj)``, a block's largest Hölder ratio, over every
    pair block of a grid with n_cells cells."""
    return float(np.max([ratio(ii, jj) for ii, jj in _pair_blocks(n_cells)]))


@dataclass(frozen=True)
class NoisePath:
    """Gaussian increments of a driving path on a fine grid."""

    seed: int
    fine_grid: TimeGrid
    increments: np.ndarray  # (M, d)
    lane: int = rng.DRIVER_LANE
    member: int = 0

    @classmethod
    def generate(
        cls,
        seed: int,
        fine_grid: TimeGrid,
        d: int,
        lane: int = rng.DRIVER_LANE,
        member: int = 0,
    ) -> "NoisePath":
        inc = rng.gaussian_increments(
            seed, lane, member, fine_grid.n_cells, d, fine_grid.widths
        )
        return cls(seed, fine_grid, inc, lane, member)

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
    meta: dict = field(default_factory=dict, compare=False)
    _cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_alpha(self.alpha)
        X = np.asarray(self.values, dtype=float)
        C = np.asarray(self.cells, dtype=float)
        M = self.grid.n_cells
        if X.shape[0] != M + 1 or C.shape != (M, X.shape[1], X.shape[1]):
            raise ValueError("inconsistent rough path array shapes")
        object.__setattr__(self, "values", X)
        object.__setattr__(self, "cells", C)
        # running second level from the left endpoint:
        #   cum[j] = XX_{t_0, t_j}
        dX = np.diff(X, axis=0)
        cum = np.empty((M + 1, X.shape[1], X.shape[1]))
        cum[0] = 0.0
        np.cumsum(C + np.einsum("ml,mk->mlk", X[:-1] - X[0], dX), axis=0, out=cum[1:])
        object.__setattr__(self, "_cum", cum)

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
        return (
            self._cum[j]
            - self._cum[i]
            - np.outer(self.values[i] - self.values[0], self.values[j] - self.values[i])
        )

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

    def holder_norms(self) -> tuple[float, float]:
        """Discrete sup of |X_{s,t}| / |t-s|^a and |XX_{s,t}| / |t-s|^{2a}."""
        cached = getattr(self, "_norms", None)
        if cached is None:
            X, A, t, a = self.values, self._cum, self.times, self.alpha
            n = self.grid.n_cells
            nx = _pair_sup(lambda ii, jj: _accel.pair_sup_first(X, t, ii, jj, a), n)
            nxx = _pair_sup(
                lambda ii, jj: _accel.pair_sup_second(X, A, t, ii, jj, a), n
            )
            cached = (nx, nxx)
            object.__setattr__(self, "_norms", cached)
        return cached

    def homogeneous_norm(self) -> float:
        nx, nxx = self.holder_norms()
        return nx + np.sqrt(nxx)

    def restrict(self, i: int, j: int) -> "RoughPath":
        """Sub-path over grid points i..j (times kept, first level rebased)."""
        if not (0 <= i < j <= self.grid.n_cells):
            raise ValueError("invalid restriction window")
        return RoughPath(
            TimeGrid(self.times[i : j + 1]),
            self.values[i : j + 1] - self.values[i],
            self.cells[i:j],
            self.alpha,
            dict(self.meta),
        )


def rough_distance(rp1: RoughPath, rp2: RoughPath) -> float:
    """alpha-Hölder rough path metric between paths on the same grid."""
    if rp1.alpha != rp2.alpha:
        raise ValueError("rough paths must share the Hölder exponent")
    if rp1.times.shape != rp2.times.shape or not np.allclose(rp1.times, rp2.times):
        raise ValueError("rough paths must share the time grid")
    X1, A1, X2, A2 = rp1.values, rp1._cum, rp2.values, rp2._cum
    dX, t, a, n = X1 - X2, rp1.times, rp1.alpha, rp1.grid.n_cells
    d1 = _pair_sup(lambda ii, jj: _accel.pair_sup_first(dX, t, ii, jj, a), n)
    d2 = _pair_sup(
        lambda ii, jj: _accel.pair_sup_second_diff(X1, A1, X2, A2, t, ii, jj, a), n
    )
    return d1 + d2


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
    return RoughPath(
        coarse,
        W[sub],
        cells,
        alpha,
        {"mode": mode, "seed": noise.seed, "kind": "brownian_lift"},
    )


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
    nodes = np.arange(0, M + 1, cells_per)
    X = np.empty_like(W)
    for c in range(1 << n):
        a, b = nodes[c], nodes[c + 1]
        lam = (t[a : b + 1] - t[a]) / (t[b] - t[a])
        X[a : b + 1] = (1 - lam)[:, None] * W[a] + lam[:, None] * W[b]
    dX = np.diff(X, axis=0)
    cells = 0.5 * np.einsum("ml,mk->mlk", dX, dX)
    return RoughPath(
        noise.fine_grid,
        X,
        cells,
        alpha,
        {"mode": STRAT, "seed": noise.seed, "kind": "dyadic", "level": n},
    )


def shift(rp: RoughPath, r: float) -> RoughPath:
    """Time shift: first level (theta_r X)(t) = X(t+r) - X(r), second level
    re-indexed accordingly (the stored cells are untouched)."""
    k = rp.grid.index_of(r)
    return RoughPath(
        TimeGrid(rp.times - r),
        rp.values - rp.values[k],
        rp.cells,
        rp.alpha,
        dict(rp.meta, shifted_by=float(r)),
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_MAGIC = "# roughmf-roughpath v1 "


def save_rough_path(rp: RoughPath, path) -> None:
    """Columnar text dump: t, X components, row-major consecutive-cell XX."""
    d = rp.d
    header = {"d": d, "alpha": rp.alpha, "meta": rp.meta}
    M = rp.grid.n_cells
    table = np.full((M + 1, 1 + d + d * d), np.nan)
    table[:, 0] = rp.times
    table[:, 1 : 1 + d] = rp.values
    table[:M, 1 + d :] = rp.cells.reshape(M, d * d)
    with open(path, "w") as fh:
        fh.write(_MAGIC + json.dumps(header, sort_keys=True) + "\n")
        write_rows(fh, table)


def load_rough_path(path) -> RoughPath:
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith(_MAGIC):
            raise ValueError("not a roughmf rough path file")
        header = json.loads(first[len(_MAGIC) :])
        table = np.loadtxt(io.StringIO(fh.read()))
    d = header["d"]
    table = np.atleast_2d(table)
    times = table[:, 0]
    X = table[:, 1 : 1 + d]
    cells = table[:-1, 1 + d :].reshape(len(times) - 1, d, d)
    return RoughPath(TimeGrid(times), X, cells, header["alpha"], header.get("meta", {}))
