"""Hot numeric kernels: the discrete Hölder pair suprema and the
composition of affine cell maps, one numpy implementation each.

A pair kernel takes index arrays ``ii`` and ``jj`` that broadcast against
each other, and returns the largest Hölder ratio over the pairs ``(i, j)``
of their broadcast.  ``roughpath._pair_blocks`` hands out a row range
against the columns to its right (shapes ``(R, 1)`` and ``(1, C)``), or one
dyadic lag as two flat arrays; flat arrays of any pairs ``i < j`` work too.
A point is gathered once per block, and every per-pair quantity is formed
by broadcasting.  Pairs with ``j <= i`` (the corner of a row block) have an
infinite gap, so their ratio is exactly 0 and no real ratio, all of which
are >= 0, is masked by them.
"""

from __future__ import annotations

import numpy as np

# no compiled backend; kept as a constant for run records that name the backend
HAVE_NUMBA = False


def _gap(times, ii, jj):
    """t_j - t_i over a pair block, +inf where j <= i."""
    return np.where(jj > ii, times[jj] - times[ii], np.inf)


def block_sup(values, gap, exponent) -> float:
    """Largest |values| / gap^exponent over a pair block.  ``values`` has
    the block's shape followed by each pair's value axes, flattened here
    into one so that ``linalg.norm`` sums them as a one-shot evaluation
    over flat pairs would, pairwise from 8 terms on."""
    diff = np.linalg.norm(values.reshape(gap.shape + (-1,)), axis=-1)
    return float(np.max(diff / gap**exponent))


def _second(X, A, ii, jj):
    # second level over (i, j) reconstructed from the running level-two sum:
    #   XX_{i,j} = A_j - A_i - (X_i - X_0) (x) (X_j - X_i)
    # The outer product goes entry by entry: the same products as a
    # broadcast a[..., :, None] * b[..., None, :], whose inner loops are only
    # d long, in half the time.
    a, b = X[ii] - X[0], X[jj] - X[ii]
    XX = A[jj] - A[ii]
    for l in range(X.shape[1]):
        for k in range(X.shape[1]):
            XX[..., l, k] -= a[..., l] * b[..., k]
    return XX


def pair_sup_first(X, times, ii, jj, alpha):
    return block_sup(X[jj] - X[ii], _gap(times, ii, jj), alpha)


def pair_sup_second(X, A, times, ii, jj, alpha):
    return block_sup(_second(X, A, ii, jj), _gap(times, ii, jj), 2.0 * alpha)


def pair_sup_second_diff(X1, A1, X2, A2, times, ii, jj, alpha):
    XX = _second(X1, A1, ii, jj)
    XX -= _second(X2, A2, ii, jj)
    return block_sup(XX, _gap(times, ii, jj), 2.0 * alpha)


def linear_flow_maps(P, q):
    # Compose the affine cell maps y -> P_k y + q_k: M_k = P_{k-1} ... P_0
    # and v_k, so that Y_k = M_k y0 + v_k.
    n, d = q.shape
    M = np.empty((n + 1, d, d))
    v = np.empty((n + 1, d))
    M[0] = np.eye(d)
    v[0] = 0.0
    for k in range(n):
        M[k + 1] = P[k] @ M[k]
        v[k + 1] = P[k] @ v[k] + q[k]
    return M, v
