"""Time grids: strictly increasing partitions of a simulation window."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: how far a time may sit from a grid point and still name it
TIME_TOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """A strictly increasing sequence of times t_0 < ... < t_M."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or len(pts) < 2:
            raise ValueError("a time grid needs at least 2 points")
        if not np.all(np.diff(pts) > 0):
            raise ValueError("grid points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def regular(cls, t0: float, t1: float, cells: int) -> "TimeGrid":
        return cls(np.linspace(t0, t1, cells + 1))

    @property
    def n_cells(self) -> int:
        return len(self.points) - 1

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.points)

    def index_of(self, t: float) -> int:
        """Index of the grid point within TIME_TOL of t; raises if t is not
        on the grid."""
        i = int(np.searchsorted(self.points, t))
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(self.points) and abs(self.points[j] - t) <= TIME_TOL:
                return j
        raise ValueError(f"time {t} is not a grid point")

    def subgrid_indices(self, coarse: "TimeGrid") -> np.ndarray:
        """Indices embedding a coarser grid into this one; raises if not nested.

        Each coarse point takes, like ``index_of``, the first of its
        neighbours i-1, i, i+1 within TIME_TOL, where i is its search index.
        """
        pts, t = self.points, coarse.points
        # a neighbour clipped at either end repeats one already tried
        idx = (np.searchsorted(pts, t)[:, None] + np.arange(-1, 2)).clip(0, len(pts) - 1)
        hit = np.abs(pts[idx] - t[:, None]) <= TIME_TOL
        if not hit.any(axis=1).all():
            raise ValueError("coarse grid is not nested in the fine grid")
        return idx[np.arange(len(t)), hit.argmax(axis=1)].astype(np.int64)
