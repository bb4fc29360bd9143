"""Hot numeric kernels: the discrete Hölder pair suprema and the one
blocked scan through affine cell maps that every RDE solve, flow Jacobian
and flow map is read off, one numpy implementation each.

A pair kernel takes index arrays ``ii`` and ``jj`` that broadcast against
each other, and returns the largest Hölder ratio over the pairs ``(i, j)``
of their broadcast: ``block_sup`` of its value function's values and the
gaps ``_gap``.  ``roughpath._pair_sup`` hands it a batch of ``T`` tiles of
the all-pairs search, row tiles against column tiles of ``S`` nodes each
(shapes ``(T, S, 1)`` and ``(T, 1, S)``); the blocks of
``roughpath._pair_blocks``, the reference pair set, are a row range
against the columns to its right (``(R, 1)`` and ``(1, C)``), or one
dyadic lag as two flat arrays.  Flat arrays of any pairs ``i < j`` work
too.  A point is gathered once per block, and every per-pair quantity is
formed by broadcasting.  The dyadic-lag seed of the search calls no
kernel: it reads the value functions (``differences``, ``_second``,
``_second_diff``), which take slices as well as index arrays, on slice
views of each lag run, and takes ``block_sup`` of them, with no gather.
Entries with ``j <= i`` (the lower half of a diagonal tile, the corner of a
row block) have an infinite gap, so their ratio is exactly 0 and no real
ratio, all of which are >= 0, is masked by them.
``pair_norms`` is the per-pair norm the kernels take; the search bounds its
tiles with it.

Each pair value function comes with its slack, a bound of how far each
computed value may lie, in norm, from the value its formula takes in exact
arithmetic on the stored arrays; the search widens its tile bounds by it.
The bounds count u = eps / 2 per rounded operation, relative to that
operation's exact result, to first order in u, and each slack is at least
1.2 times the bound it covers.

``march`` (the states of a point) and ``linear_flow_maps`` (the flow
maps, whose linear part is the flow Jacobian) compose the cell maps by one
prefix scan (Blelloch, "Prefix sums and their applications", 1990): an
affine map is the homogeneous matrix H_k = [[P_k, q_k], [0, 1]], and
composition is its product.  The cells are cut into blocks of
``MARCH_BLOCK`` anchored at the first cell; the running products inside
every block are formed at once, one batched product per position in the
block, then one loop over the blocks carries each block's entry state to
the next, and one batched product applies each block's running products to
its entry state.  The anchoring is fixed, so the scan of the first m maps
is bitwise the first m + 1 states of the scan of all of them, whatever
follows.  State k is a product of at most k rounded factors, as in a
cell-by-cell loop, but associated differently; each entry of either lies
within gamma_{k (d + 1)} of the exact product of the maps' absolute values
applied to |y0| (gamma_m = m u / (1 - m u)), and the two differ by
round-off within twice that.
"""

from __future__ import annotations

import numpy as np

# no compiled backend; perfbench/run.py reads this to name the backend in its run records
HAVE_NUMBA = False

EPS = float(np.finfo(float).eps)

# cells per block of the scan, anchored at its first cell
MARCH_BLOCK = 64


def _gap(times, ii, jj):
    """t_j - t_i over a pair block, +inf where j <= i."""
    return np.where(jj > ii, times[jj] - times[ii], np.inf)


def _row_norms(v):
    """2-norms over the last axis, bitwise ``np.linalg.norm(v, axis=-1)``:
    below 8 terms numpy sums the squares left to right, as this does at
    vector speed; from 8 on, and for none, this calls it (it sums pairwise)."""
    K = v.shape[-1]
    if not 0 < K < 8:
        return np.linalg.norm(v, axis=-1)
    s = v[..., 0] * v[..., 0]
    for k in range(1, K):
        s += v[..., k] * v[..., k]
    return np.sqrt(s)


def pair_norms(values, shape):
    """|Z| of each pair of a block of the given shape.  ``values`` has the
    block's shape followed by each pair's value axes, flattened here into one
    so that ``_row_norms`` sums them as a one-shot evaluation over flat pairs
    would: left to right below 8 terms, pairwise from 8 on."""
    return _row_norms(values.reshape(shape + (-1,)))


def block_sup(values, gap, exponent) -> float:
    """Largest |values| / gap^exponent over a pair block."""
    return float(np.max(pair_norms(values, gap.shape) / gap**exponent))


def max_norm(F) -> float:
    """max_k |F_k| over the nodes k of a node array, each F_k flattened."""
    return float(np.max(_row_norms(F.reshape(len(F), -1))))


def differences(F):
    """The pair values F_j - F_i of a node array F, and their slack.

    The subtraction rounds by u |F_j - F_i| <= eps max|F|.  F may itself be
    a rounded difference G - H of stored arrays, its exact pair values
    G_j - G_i - (H_j - H_i); each of F_j and F_i is then off by u |F_k|,
    another eps max|F| in all.
    """
    return (lambda ii, jj: F[jj] - F[ii]), 3.0 * EPS * max_norm(F)


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


def second_slack(X, A) -> float:
    """Slack of ``_second``.  Per entry, with D = A_j - A_i, a = X_i - X_0
    and b = X_j - X_i: D rounds by u |D|, a_l b_k by 3 u |a_l| |b_k| (its
    two differences and the product), and the last subtraction by u times
    its result, at most |D| + |a_l| |b_k|.  In norm that is
    2 u |D| + 4 u |a| |b| <= 4 u s_A + 8 u s_X^2, with s_F = max_k |F_k - F_0|,
    so that |D| <= 2 s_A and |a| |b| <= 2 s_X^2.
    """
    return 6.0 * EPS * (max_norm(A - A[0]) + max_norm(X - X[0]) ** 2)


def pair_sup_first(X, times, ii, jj, alpha):
    return block_sup(X[jj] - X[ii], _gap(times, ii, jj), alpha)


def pair_sup_second(X, A, times, ii, jj, alpha):
    return block_sup(_second(X, A, ii, jj), _gap(times, ii, jj), 2.0 * alpha)


def _second_diff(X1, A1, X2, A2, ii, jj):
    XX = _second(X1, A1, ii, jj)
    XX -= _second(X2, A2, ii, jj)
    return XX


def second_diff_slack(X1, A1, X2, A2) -> float:
    """Slack of ``_second_diff``, the sum of the two paths' slacks.  Each
    path's value is off by up to 4 u s_A + 8 u s_X^2 (``second_slack``), and
    the last subtraction by u |XX1 - XX2| <= u (|XX1| + |XX2|), where each
    |XX| <= 2 s_A + 2 s_X^2.  That last term is relative to each path's
    value, not to their difference, which may be far smaller; with it each
    path adds 6 u s_A + 10 u s_X^2, within its ``second_slack``.
    """
    return second_slack(X1, A1) + second_slack(X2, A2)


def pair_sup_second_diff(X1, A1, X2, A2, times, ii, jj, alpha):
    return block_sup(_second_diff(X1, A1, X2, A2, ii, jj), _gap(times, ii, jj), 2.0 * alpha)


def _scan(H, Y0):
    """The states Y0, H_0 Y0, H_1 H_0 Y0, ... of the maps H (n, e, e) from
    Y0 (e, m), shape (n + 1, e, m).  H is overwritten with the running
    products inside each block, H_k ... H_{k0} from the block's first cell
    k0."""
    B, n = MARCH_BLOCK, len(H)
    prev = H[0::B]
    for j in range(1, min(B, n)):
        cur = H[j::B]  # position j of every block that reaches it
        if len(cur) < len(prev):
            prev = prev[: len(cur)]
        cur[...] = prev = cur @ prev  # a fresh product: one written over cur copies cur first
    nb, full = n // B, n - n % B
    entries = np.empty((nb + 1,) + Y0.shape)
    entries[0] = Y0
    for b in range(nb):
        np.matmul(H[b * B + B - 1], entries[b], out=entries[b + 1])
    Y = np.empty((n + 1,) + Y0.shape)
    Y[0] = Y0
    if nb:
        np.matmul(H[:full].reshape((nb, B) + H.shape[1:]), entries[:nb, None],
                  out=Y[1 : full + 1].reshape((nb, B) + Y0.shape))
    if full < n:
        np.matmul(H[full:], entries[nb], out=Y[full + 1 :])
    return Y


def _homogeneous(P, q):
    """The maps y -> P_k y + q_k as (n, d + 1, d + 1) matrices
    [[P_k, q_k], [0, 1]]."""
    n, d = q.shape
    H = np.zeros((n, d + 1, d + 1))
    H[:, :d, :d] = P
    H[:, :d, d] = q
    H[:, d, d] = 1.0
    return H


def march(P, q, y0):
    """Step Y <- P_k Y + q_k from the point y0 (d,).  Returns every node's
    state, shape (len(P) + 1, d), by the blocked scan of the module
    docstring from (y0, 1)."""
    d = q.shape[1]
    Y0 = np.ones((d + 1, 1))
    Y0[:d, 0] = y0
    return _scan(_homogeneous(P, q), Y0)[:, :d, 0].copy()


def linear_flow_maps(P, q):
    """M_k = P_{k-1} ... P_0 and v_k, so that Y_k = M_k y0 + v_k: the scan
    of the homogeneous identity frame, whose state k is
    [[M_k, v_k], [0, 1]].  Both are views of that one array."""
    d = q.shape[1]
    Y = _scan(_homogeneous(P, q), np.eye(d + 1))
    return Y[:, :d, :d], Y[:, :d, d]
