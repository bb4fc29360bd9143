"""Hot numeric kernels.

Each kernel has a pure-numpy implementation and an equivalent scalar loop
(the ``_nb`` twin).  When numba imports, the loops are compiled with
``njit(cache=True)`` and exported; otherwise they stay plain Python, the
numpy implementations are exported, and the loops serve only as test
references.  Setting the environment variable ``ROUGHMF_NO_NUMBA=1`` (before
import) selects the numpy path; this is also what
``benchmarks/bench_kernels.py`` uses to compare the two.
"""

from __future__ import annotations

import os

import numpy as np

_DISABLED = os.environ.get("ROUGHMF_NO_NUMBA", "0").lower() in ("1", "true", "yes")

try:
    if _DISABLED:
        raise ImportError
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# pure numpy reference implementations
# ---------------------------------------------------------------------------

def _pair_sup_first_np(X, times, ii, jj, alpha):
    dt = times[jj] - times[ii]
    diff = np.linalg.norm(X[jj] - X[ii], axis=-1)
    return float(np.max(diff / dt**alpha)) if len(ii) else 0.0


def _pair_sup_second_np(X, A, times, ii, jj, alpha):
    # second level over (i, j) reconstructed from the running level-two sum:
    #   XX_{i,j} = A_j - A_i - (X_i - X_0) (x) (X_j - X_i)
    dt = times[jj] - times[ii]
    XX = A[jj] - A[ii] - np.einsum("pl,pk->plk", X[ii] - X[0], X[jj] - X[ii])
    diff = np.linalg.norm(XX.reshape(len(ii), -1), axis=-1)
    return float(np.max(diff / dt ** (2.0 * alpha))) if len(ii) else 0.0


def _pair_sup_second_diff_np(X1, A1, X2, A2, times, ii, jj, alpha):
    dt = times[jj] - times[ii]
    XX1 = A1[jj] - A1[ii] - np.einsum("pl,pk->plk", X1[ii] - X1[0], X1[jj] - X1[ii])
    XX2 = A2[jj] - A2[ii] - np.einsum("pl,pk->plk", X2[ii] - X2[0], X2[jj] - X2[ii])
    diff = np.linalg.norm((XX1 - XX2).reshape(len(ii), -1), axis=-1)
    return float(np.max(diff / dt ** (2.0 * alpha))) if len(ii) else 0.0


def _linear_flow_maps_np(dX, XX, a0, a1):
    # One Milstein step of dY = (a0 Y + a1(t)) dX is affine, Y+ = P Y + q.
    # Accumulate M_k = P_{k-1} ... P_0 and v_k so that Y_k = M_k y0 + v_k.
    n, d = dX.shape
    M = np.empty((n + 1, d, d))
    v = np.empty((n + 1, d))
    M[0] = np.eye(d)
    v[0] = 0.0
    eye = np.eye(d)
    for k in range(n):
        x = dX[k]
        xx = XX[k]
        P = eye + np.einsum("ikj,k->ij", a0, x) + np.einsum(
            "ikj,jlm,lk->im", a0, a0, xx
        )
        q = a1[k] @ x + np.einsum("ikj,jl,lk->i", a0, a1[k], xx)
        M[k + 1] = P @ M[k]
        v[k + 1] = P @ v[k] + q
    return M, v


# ---------------------------------------------------------------------------
# scalar loop implementations, compiled by numba when it imports
# ---------------------------------------------------------------------------

def _pair_sup_first_nb(X, times, ii, jj, alpha):
    best = 0.0
    d = X.shape[1]
    for p in range(len(ii)):
        i = ii[p]
        j = jj[p]
        dt = times[j] - times[i]
        s = 0.0
        for c in range(d):
            df = X[j, c] - X[i, c]
            s += df * df
        r = np.sqrt(s) / dt**alpha
        if r > best:
            best = r
    return best


def _pair_sup_second_nb(X, A, times, ii, jj, alpha):
    best = 0.0
    d = X.shape[1]
    for p in range(len(ii)):
        i = ii[p]
        j = jj[p]
        dt = times[j] - times[i]
        s = 0.0
        for a in range(d):
            xa = X[i, a] - X[0, a]
            for b in range(d):
                df = A[j, a, b] - A[i, a, b] - xa * (X[j, b] - X[i, b])
                s += df * df
        r = np.sqrt(s) / dt ** (2.0 * alpha)
        if r > best:
            best = r
    return best


def _pair_sup_second_diff_nb(X1, A1, X2, A2, times, ii, jj, alpha):
    best = 0.0
    d = X1.shape[1]
    for p in range(len(ii)):
        i = ii[p]
        j = jj[p]
        dt = times[j] - times[i]
        s = 0.0
        for a in range(d):
            xa1 = X1[i, a] - X1[0, a]
            xa2 = X2[i, a] - X2[0, a]
            for b in range(d):
                w1 = A1[j, a, b] - A1[i, a, b] - xa1 * (X1[j, b] - X1[i, b])
                w2 = A2[j, a, b] - A2[i, a, b] - xa2 * (X2[j, b] - X2[i, b])
                df = w1 - w2
                s += df * df
        r = np.sqrt(s) / dt ** (2.0 * alpha)
        if r > best:
            best = r
    return best


def _linear_flow_maps_nb(dX, XX, a0, a1):
    n, d = dX.shape
    M = np.empty((n + 1, d, d))
    v = np.empty((n + 1, d))
    for i in range(d):
        v[0, i] = 0.0
        for j in range(d):
            M[0, i, j] = 1.0 if i == j else 0.0
    P = np.empty((d, d))
    q = np.empty(d)
    for k in range(n):
        for i in range(d):
            q[i] = 0.0
            for j in range(d):
                P[i, j] = 1.0 if i == j else 0.0
        for i in range(d):
            for kk in range(d):
                x = dX[k, kk]
                for j in range(d):
                    P[i, j] += a0[i, kk, j] * x
        for i in range(d):
            for kk in range(d):
                for j in range(d):
                    aikj = a0[i, kk, j]
                    if aikj == 0.0:
                        continue
                    for ll in range(d):
                        xx = XX[k, ll, kk]
                        for m in range(d):
                            P[i, m] += aikj * a0[j, ll, m] * xx
                        q[i] += aikj * a1[k, j, ll] * xx
        for i in range(d):
            for kk in range(d):
                q[i] += a1[k, i, kk] * dX[k, kk]
        Mn = np.empty((d, d))
        vn = np.empty(d)
        for i in range(d):
            acc = q[i]
            for j in range(d):
                acc += P[i, j] * v[k, j]
                s = 0.0
                for m in range(d):
                    s += P[i, m] * M[k, m, j]
                Mn[i, j] = s
            vn[i] = acc
        M[k + 1] = Mn
        v[k + 1] = vn
    return M, v


if HAVE_NUMBA:
    _pair_sup_first_nb = njit(cache=True)(_pair_sup_first_nb)
    _pair_sup_second_nb = njit(cache=True)(_pair_sup_second_nb)
    _pair_sup_second_diff_nb = njit(cache=True)(_pair_sup_second_diff_nb)
    _linear_flow_maps_nb = njit(cache=True)(_linear_flow_maps_nb)
    pair_sup_first = _pair_sup_first_nb
    pair_sup_second = _pair_sup_second_nb
    pair_sup_second_diff = _pair_sup_second_diff_nb
    linear_flow_maps = _linear_flow_maps_nb
else:
    pair_sup_first = _pair_sup_first_np
    pair_sup_second = _pair_sup_second_np
    pair_sup_second_diff = _pair_sup_second_diff_np
    linear_flow_maps = _linear_flow_maps_np
