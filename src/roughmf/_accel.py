"""Hot numeric kernels: the discrete Hölder pair suprema and the
composition of affine cell maps, one numpy implementation each."""

from __future__ import annotations

import numpy as np

# no compiled backend; kept as a constant for run records that name the backend
HAVE_NUMBA = False


def pair_sup_first(X, times, ii, jj, alpha):
    dt = times[jj] - times[ii]
    diff = np.linalg.norm(X[jj] - X[ii], axis=-1)
    return float(np.max(diff / dt**alpha))


def pair_sup_second(X, A, times, ii, jj, alpha):
    # second level over (i, j) reconstructed from the running level-two sum:
    #   XX_{i,j} = A_j - A_i - (X_i - X_0) (x) (X_j - X_i)
    dt = times[jj] - times[ii]
    XX = A[jj] - A[ii] - np.einsum("pl,pk->plk", X[ii] - X[0], X[jj] - X[ii])
    diff = np.linalg.norm(XX.reshape(len(ii), -1), axis=-1)
    return float(np.max(diff / dt ** (2.0 * alpha)))


def pair_sup_second_diff(X1, A1, X2, A2, times, ii, jj, alpha):
    dt = times[jj] - times[ii]
    XX1 = A1[jj] - A1[ii] - np.einsum("pl,pk->plk", X1[ii] - X1[0], X1[jj] - X1[ii])
    XX2 = A2[jj] - A2[ii] - np.einsum("pl,pk->plk", X2[ii] - X2[0], X2[jj] - X2[ii])
    diff = np.linalg.norm((XX1 - XX2).reshape(len(ii), -1), axis=-1)
    return float(np.max(diff / dt ** (2.0 * alpha)))


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
