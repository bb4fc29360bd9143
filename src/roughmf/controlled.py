"""Controlled rough paths and the compensated-Riemann-sum rough integral.

A path Y is controlled by the rough path X when Y_{s,t} = Y'_s X_{s,t} + R_{s,t}
with a remainder R of order |t-s|^{2a}.  Values may carry any trailing shape
(scalars, vectors, matrices); the Gubinelli derivative always adds one final
axis of length d contracting against driver increments.  The rough integral
sums the compensated one-cell terms Y_u X_{u,v} + Y'_u XX_{u,v}; its local
error obeys the sewing bound with constant C = 2^{3a} / (1 - 2^{1-3a}),
valid since 3a > 1.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import _accel
from .roughpath import RoughPath, _pair_sup


def sewing_constant(alpha: float) -> float:
    """Constant in the local sewing estimate, for regularity 3*alpha > 1."""
    if 3.0 * alpha <= 1.0:
        raise ValueError("sewing constant requires 3*alpha > 1")
    return 2.0 ** (3.0 * alpha) / (1.0 - 2.0 ** (1.0 - 3.0 * alpha))


class ControlledPath:
    """(Y, Y') controlled by a rough path, sampled on the base grid.

    Y has shape (M+1, *S); Yprime has shape (M+1, *S, d).
    """

    def __init__(self, base: RoughPath, Y, Yprime):
        Y = np.asarray(Y, dtype=float)
        Yp = np.asarray(Yprime, dtype=float)
        M, d = base.grid.n_cells, base.d
        if Y.shape[0] != M + 1 or Yp.shape != Y.shape + (d,):
            raise ValueError("controlled path arrays do not match the base grid")
        self.base = base
        self.Y = Y
        self.Yprime = Yp

    @property
    def val_shape(self) -> tuple:
        return self.Y.shape[1:]

    # -- remainder and seminorms -------------------------------------------

    @cached_property
    def _prime_norm(self) -> float:
        return _holder_sup(_accel.differences(self.Yprime), self.base, self.base.alpha)

    @cached_property
    def _remainder_norm(self) -> float:
        # R_{i,j} = R_{i,p} + R_{p,j} + (Y'_p - Y'_i) X_{p,j}
        return _holder_sup(
            (lambda ii, jj: _remainders(self, ii, jj), _remainder_slack(self)),
            self.base,
            2.0 * self.base.alpha,
            ((_accel.differences(self.Yprime), _accel.differences(self.base.values)),),
        )

    def prime_norm(self) -> float:
        """Discrete alpha-Hölder norm of the Gubinelli derivative."""
        return self._prime_norm

    def remainder_norm(self) -> float:
        """Discrete 2*alpha-Hölder norm of the remainder."""
        return self._remainder_norm

    def seminorm(self) -> float:
        """||Y'||_a + ||R^Y||_{2a} (no dependence on initial values)."""
        return self.prime_norm() + self.remainder_norm()

    # -- rough integral -----------------------------------------------------

    @cached_property
    def _cumint(self) -> np.ndarray:
        """Running rough integral from the first node, (M+1, ...)."""
        Y, Yp = self.Y, self.Yprime
        dX = np.diff(self.base.values, axis=0)
        XX = self.base.cells
        if self.val_shape == ():
            # scalar integrand: the integral is driver-valued
            cells = Y[:-1, None] * dX + np.einsum("ml,mlk->mk", Yp[:-1], XX)
        elif self.val_shape[-1] == self.base.d:
            # operator-valued integrand contracting the last axis with dX;
            # the derivative axis pairs with the first slot of XX
            cells = np.einsum("m...k,mk->m...", Y[:-1], dX) + np.einsum(
                "m...kl,mlk->m...", Yp[:-1], XX
            )
        else:
            raise ValueError(
                "rough integral needs a scalar integrand or a trailing "
                "axis matching the driver dimension"
            )
        return np.concatenate([np.zeros((1,) + cells.shape[1:]), np.cumsum(cells, axis=0)])

    def rough_integral(self, i: int, j: int):
        """Compensated Riemann sum of Y against the base rough path between
        grid nodes i <= j.

        Exactly additive over adjacent windows (differences of one running sum).
        """
        if i > j:
            raise ValueError("rough_integral requires i <= j")
        return self._cumint[j] - self._cumint[i]

    def local_error_certificate(self, i: int, j: int):
        """One-window sewing check between grid nodes i < j, at times s < t.

        Returns (value, bound, ok) where value is
        |int_s^t Y dX - Y_s X_{s,t} - Y'_s XX_{s,t}| and bound is
        C (||X||_a ||R^Y||_{2a} + ||XX||_{2a} ||Y'||_a) |t-s|^{3a}.
        """
        if i >= j:
            raise ValueError("certificate needs i < j")
        dX = self.base.increment(i, j)
        XX = self.base.second_level(i, j)
        if self.val_shape == ():
            head = self.Y[i] * dX + np.einsum("l,lk->k", self.Yprime[i], XX)
        else:
            head = np.einsum("...k,k->...", self.Y[i], dX) + np.einsum(
                "...kl,lk->...", self.Yprime[i], XX
            )
        value = float(np.linalg.norm((self.rough_integral(i, j) - head).ravel()))
        nx, nxx = self.base.holder_norms()
        C = sewing_constant(self.base.alpha)
        dt = self.base.times[j] - self.base.times[i]
        bound = (
            C
            * (nx * self.remainder_norm() + nxx * self.prime_norm())
            * dt ** (3.0 * self.base.alpha)
        )
        return value, bound, value <= bound


def _remainders(cp: ControlledPath, ii, jj):
    """R_{t_i,t_j} = Y_{t_i,t_j} - Y'_{t_i} X_{t_i,t_j} over one pair block,
    of the block's shape followed by the value shape."""
    dX = cp.base.values[jj] - cp.base.values[ii]
    # one axis per value axis, so that dX broadcasts against Y'_{t_i}
    dX = dX.reshape(dX.shape[:-1] + (1,) * len(cp.val_shape) + dX.shape[-1:])
    return cp.Y[jj] - cp.Y[ii] - np.einsum("...d,...d->...", cp.Yprime[ii], dX)


def _remainder_slack(cp: ControlledPath) -> float:
    """Slack of ``_remainders`` (see ``_accel``), also of the difference of
    two of them.  Per value entry, with D = Y_j - Y_i and c = Y'_i X_{i,j}:
    D rounds by u |D|, the contraction over d terms of the rounded X_{i,j}
    by (d + 1) u |Y'_i| |X_{i,j}|, and the last subtraction by u times its
    result, at most |D| + |c|.  In norm, with s_F = max_k |F_k - F_0| and
    P = max_k |Y'_k|, so that |D| <= 2 s_Y and |c| <= 2 P s_X, that is
    4 u s_Y + (2 d + 4) u P s_X.  A difference of two remainders rounds by
    u (|R| + |R~|) more, each |R| <= 2 s_Y + 2 P s_X: per path
    6 u s_Y + (2 d + 6) u P s_X in all, within this slack.
    """
    X, Y = cp.base.values, cp.Y
    return 2.0 * (cp.base.d + 3) * _accel.EPS * (
        _accel.max_norm(Y - Y[0]) + _accel.max_norm(cp.Yprime) * _accel.max_norm(X - X[0])
    )


def _holder_sup(values, base: RoughPath, exponent: float, terms=()):
    """Discrete sup of |Z_{i,j}| / |t_j - t_i|^exponent over the pairs of
    the base grid, by the search of ``roughpath._pair_sup``; ``values`` is
    the pair (f, s) of the value function Z and its slack, and ``terms``
    the Chen factors."""
    t, (f, _) = base.times, values

    def ratio(ii, jj):
        return _accel.block_sup(f(ii, jj), _accel._gap(t, ii, jj), exponent)

    return _pair_sup(ratio, t, exponent, values, terms)


def controlled_distance(cp: ControlledPath, cq: ControlledPath) -> float:
    """||Y' - Z'||_a + ||R^Y - R^Z||_{2a} over the common grid."""
    if cp.Y.shape != cq.Y.shape or not np.allclose(cp.base.times, cq.base.times):
        raise ValueError("controlled paths must share grid and value shape")
    a = cp.base.alpha
    dV = _accel.differences(cp.Yprime - cq.Yprime)
    d1 = _holder_sup(dV, cp.base, a)
    # (Y'_p - Y'_i) X_{p,j} - (Z'_p - Z'_i) X~_{p,j}
    #   = (dV_p - dV_i) X_{p,j} + (Z'_p - Z'_i) dX_{p,j}
    d2 = _holder_sup(
        (
            lambda ii, jj: _remainders(cp, ii, jj) - _remainders(cq, ii, jj),
            _remainder_slack(cp) + _remainder_slack(cq),
        ),
        cp.base,
        2.0 * a,
        (
            (dV, _accel.differences(cp.base.values)),
            (_accel.differences(cq.Yprime), _accel.differences(cp.base.values - cq.base.values)),
        ),
    )
    return d1 + d2
