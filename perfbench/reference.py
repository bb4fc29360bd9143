"""Reference computations and output checks for the benchmark workloads.

Everything here is computed apart from roughmf's own code paths: the EKS
moment ODE is solved with ``scipy.integrate.solve_ivp`` (not the package's
RK4 oracle), the Landau moments come from their closed form, Wasserstein-2
values are recomputed by exact assignment on atoms read back from the curve
files, and Hölder suprema are recomputed pair by pair in blocks.  Each check
returns a list of failure messages; an empty list means the outputs passed.
"""

from __future__ import annotations

import numpy as np

CHECK_TIMES = (0.5, 1.0, 1.5, 2.0)


def rel_gap(got, want) -> float:
    got, want = np.asarray(got, float), np.asarray(want, float)
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))


# ---------------------------------------------------------------------------
# cocycle
# ---------------------------------------------------------------------------

def check_cocycle(reports) -> list[str]:
    """Law defect exactly 0 (bitwise noise replay) and point defect at most
    3x a finite, positive self-defect, on every (s, t) pair; a pair with no
    report fails."""
    bad = []
    for label, rep in reports:
        if rep is None:
            bad.append(f"{label}: no output")
            continue
        self_def = rep["self_defect"]
        if not (np.isfinite(self_def) and self_def > 0.0):
            bad.append(f"{label}: self-defect {self_def!r} is not finite and positive")
            continue
        if rep["law_defect"] != 0.0:
            bad.append(f"{label}: law defect {rep['law_defect']!r} != 0")
        if not rep["point_defect"] <= 3.0 * self_def:
            bad.append(
                f"{label}: point defect {rep['point_defect']:.3e} > 3 x {self_def:.3e}"
            )
    return bad


# ---------------------------------------------------------------------------
# particles
# ---------------------------------------------------------------------------

def eks_moment_ode(Sigma, m0, C0, times):
    """EKS Gaussian-target mean/covariance ODE,

        dm/dt = -C Sigma^{-1} m,   dC/dt = -2 C Sigma^{-1} C + 2 C,

    solved by an adaptive Dormand-Prince method.  Returns (means, covs) at
    ``times``."""
    from scipy.integrate import solve_ivp

    Sigma = np.asarray(Sigma, float)
    P = np.linalg.inv(Sigma)
    d = len(Sigma)

    def rhs(t, state):
        m, C = state[:d], state[d:].reshape(d, d)
        return np.concatenate([-C @ P @ m, (-2.0 * C @ P @ C + 2.0 * C).ravel()])

    state0 = np.concatenate([np.asarray(m0, float), np.asarray(C0, float).ravel()])
    sol = solve_ivp(rhs, (0.0, max(times)), state0, method="DOP853",
                    t_eval=np.asarray(times, float), rtol=1e-11, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference ODE failed: {sol.message}")
    Y = sol.y.T
    return Y[:, :d], Y[:, d:].reshape(-1, d, d)


def landau_moments(m0, v0, t):
    """Maxwell-molecule Landau: the mean is conserved and the scalar
    variance M_2 - |m|^2 decays as v0 exp(-2t)."""
    return np.asarray(m0, float), float(v0) * np.exp(-2.0 * t)


def sample_cov(atoms) -> np.ndarray:
    return np.cov(np.asarray(atoms, float), rowvar=False, bias=True)


def check_eks(atoms0, snapshots, Sigma) -> list[str]:
    """Means and covariances within 3 standard errors of the ODE, and the
    gap |C - Sigma| strictly decreasing.  ``snapshots`` maps t -> atoms."""
    atoms0 = np.asarray(atoms0, float)
    N = len(atoms0)
    times = sorted(snapshots)
    ms, Cs = eks_moment_ode(Sigma, atoms0.mean(axis=0), sample_cov(atoms0), times)
    bad, gaps = [], []
    for t, m_pred, C_pred in zip(times, ms, Cs):
        Y = np.asarray(snapshots[t], float)
        C = sample_cov(Y)
        se_m = np.sqrt(np.diag(C_pred) / N)
        se_C = np.sqrt((np.outer(np.diag(C_pred), np.diag(C_pred)) + C_pred**2) / N)
        zm = float(np.max(np.abs(Y.mean(axis=0) - m_pred) / se_m))
        zC = float(np.max(np.abs(C - C_pred) / se_C))
        if not (zm <= 3.0 and zC <= 3.0):
            bad.append(f"eks t={t}: z mean {zm:.2f}, z cov {zC:.2f} (limit 3)")
        gaps.append(float(np.linalg.norm(C - np.asarray(Sigma, float))))
    if not np.all(np.diff(gaps) < 0):
        bad.append(f"eks covariance gaps not strictly decreasing: {gaps}")
    return bad


def check_landau(atoms0, snapshots) -> list[str]:
    """Mean and variance within 3 standard errors of the closed form."""
    atoms0 = np.asarray(atoms0, float)
    N = len(atoms0)
    m0 = atoms0.mean(axis=0)
    v0 = float(np.mean(np.sum(atoms0**2, axis=1)) - m0 @ m0)
    bad = []
    for t in sorted(snapshots):
        Y = np.asarray(snapshots[t], float)
        m_pred, v_pred = landau_moments(m0, v0, t)
        m = Y.mean(axis=0)
        v = float(np.mean(np.sum(Y**2, axis=1)) - m @ m)
        # the empirical mean is a random walk fed by the fluctuations:
        # Var(m_t - m_0) = (2 / 3N) int_0^t v(s) ds per coordinate
        se_m = np.sqrt(v0 * (1.0 - np.exp(-2.0 * t)) / (3.0 * N))
        se_v = np.sqrt(2.0 / (3.0 * N)) * v_pred
        zm = float(np.max(np.abs(m - m_pred)) / se_m)
        zv = abs(v - v_pred) / se_v
        if not (zm <= 3.0 and zv <= 3.0):
            bad.append(f"landau t={t}: z mean {zm:.2f}, z var {zv:.2f} (limit 3)")
    return bad


# ---------------------------------------------------------------------------
# rough paths
# ---------------------------------------------------------------------------

def running_second_level(X, cells) -> np.ndarray:
    """A_j = XX_{t_0, t_j}, summed cell by cell through Chen's relation."""
    X = np.asarray(X, float)
    dX = np.diff(X, axis=0)
    terms = cells + np.einsum("ml,mk->mlk", X[:-1] - X[0], dX)
    A = np.zeros((len(X),) + cells.shape[1:])
    np.cumsum(terms, axis=0, out=A[1:])
    return A


def _pair_blocks(m: int, regime: str, block: int = 128):
    """Index pairs (i, j), i < j, in blocks: every pair, or (i, i + 2^k)."""
    if regime == "all":
        for i0 in range(0, m - 1, block):
            i = np.arange(i0, min(i0 + block, m - 1))
            ii, jj = np.meshgrid(i, np.arange(m), indexing="ij")
            keep = jj > ii
            yield ii[keep], jj[keep]
    elif regime == "dyadic":
        k = 1
        while k < m:
            i = np.arange(0, m - k)
            yield i, i + k
            k *= 2
    else:
        raise ValueError(f"unknown pair regime {regime!r}")


def holder_sups(times, alpha, regime, X, cells, X2=None, cells2=None):
    """Discrete Hölder suprema of one rough path, or of the difference of
    two on the same grid: (sup |X_st| / |t-s|^a, sup |XX_st| / |t-s|^2a)."""
    times = np.asarray(times, float)
    A = running_second_level(X, cells)
    if X2 is not None:
        A2 = running_second_level(X2, cells2)
    first = second = 0.0
    for ii, jj in _pair_blocks(len(times), regime):
        dt = times[jj] - times[ii]
        XX = A[jj] - A[ii] - np.einsum("pl,pk->plk", X[ii] - X[0], X[jj] - X[ii])
        inc = X[jj] - X[ii]
        if X2 is not None:
            XX = XX - (
                A2[jj] - A2[ii] - np.einsum("pl,pk->plk", X2[ii] - X2[0], X2[jj] - X2[ii])
            )
            inc = inc - (X2[jj] - X2[ii])
        first = max(first, float(np.max(np.linalg.norm(inc, axis=1) / dt**alpha)))
        second = max(second, float(np.max(
            np.linalg.norm(XX.reshape(len(ii), -1), axis=1) / dt ** (2.0 * alpha)
        )))
    return first, second


def check_rough_distance(label, got, rp1, rp2, regime, rtol=1e-12) -> list[str]:
    s1, s2 = holder_sups(rp1.times, rp1.alpha, regime, rp1.values, rp1.cells,
                         rp2.values, rp2.cells)
    gap = rel_gap(got, s1 + s2)
    return [] if gap <= rtol else [f"{label}: rough distance off by {gap:.2e} relative"]


def check_holder_norms(label, got, rp, regime, rtol=1e-12) -> list[str]:
    want = holder_sups(rp.times, rp.alpha, regime, rp.values, rp.cells)
    gap = rel_gap(got, want)
    return [] if gap <= rtol else [f"{label}: Hölder norms off by {gap:.2e} relative"]


def check_chen(label, rp, n_triples, seed, tol=1e-12) -> list[str]:
    """Chen defect XX_st - XX_su - XX_ut - X_su (x) X_ut on sampled triples."""
    g = np.random.default_rng(seed)
    t = rp.times
    worst = 0.0
    for _ in range(n_triples):
        i, k, j = sorted(g.integers(0, len(t), size=3))
        worst = max(worst, float(np.max(np.abs(rp.chen_defect(t[i], t[k], t[j])))))
    return [] if worst <= tol else [f"{label}: Chen defect {worst:.2e} > {tol:g}"]


def check_inversion(label, start, again_end, jac_product) -> list[str]:
    """Forward after backward returns to the start, and the backward
    Jacobian inverts the forward one."""
    bad = []
    err = float(np.max(np.abs(np.asarray(again_end) - np.asarray(start))))
    if not err <= 5e-3:
        bad.append(f"{label}: forward(backward(y)) misses y by {err:.2e} (limit 5e-3)")
    d = len(np.atleast_1d(start))
    jerr = float(np.max(np.abs(np.asarray(jac_product) - np.eye(d))))
    if not jerr <= 1e-2:
        bad.append(f"{label}: Jacobian product off identity by {jerr:.2e} (limit 1e-2)")
    return bad


def check_geometric(label, Y, X, tol=1e-3) -> list[str]:
    """dY = Y dX in d = 1 from Y_0 = 1 has the solution exp(X_t - X_0)."""
    want = np.exp(np.asarray(X, float) - X[0])
    gap = rel_gap(Y, want)
    return [] if gap <= tol else [f"{label}: off exp(X) by {gap:.2e} relative"]


# ---------------------------------------------------------------------------
# CLI pipeline artifacts
# ---------------------------------------------------------------------------

def read_curve_file(path):
    """Times and one (N, d) atom array per time from a curve file."""
    table = np.atleast_2d(np.loadtxt(path, comments="#"))
    times = np.unique(table[:, 0])
    return times, [table[table[:, 0] == t][:, 2:] for t in times]


def exact_w2(x, y) -> float:
    """W2 between two uniform clouds of equal size by optimal assignment."""
    from scipy.optimize import linear_sum_assignment

    cost = np.sum((x[:, None, :] - y[None, :, :]) ** 2, axis=2)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].mean()))


def check_metric_curves(path, curves, rtol=1e-12) -> list[str]:
    """``curves``: list of (times, clouds) per seed, in config order."""
    rows = np.atleast_2d(np.loadtxt(path, comments="#")).tolist()
    want = []
    for times, clouds in curves:
        for t, cloud in zip(times, clouds):
            want.append((t, exact_w2(cloud, clouds[0])))
    if len(rows) != len(want):
        return [f"metric-curves: {len(rows)} rows, expected {len(want)}"]
    bad = []
    for k, ((t, w), row) in enumerate(zip(want, rows)):
        if row[0] != t:
            bad.append(f"metric-curves row {k}: time {row[0]!r} != {t!r}")
        elif w == 0.0:
            if row[1] != 0.0:
                bad.append(f"metric-curves row {k}: d_p {row[1]!r} at the start, expected 0")
        elif abs(row[1] - w) > rtol * w:
            bad.append(f"metric-curves row {k}: d_p {row[1]!r} vs exact W2 {w!r}")
        if not row[2] <= row[3]:
            bad.append(f"metric-curves row {k}: dp_lower {row[2]!r} > dp_upper {row[3]!r}")
    return bad[:10]


def curve_moments(cloud) -> dict:
    """M2, M4, mean and covariance entries of a uniform cloud."""
    r2 = np.sum(cloud**2, axis=1)
    out = {"M2": float(r2.mean()), "M4": float(np.mean(r2**2))}
    m = cloud.mean(axis=0)
    C = sample_cov(cloud)
    d = cloud.shape[1]
    out.update({f"mean{i}": float(m[i]) for i in range(d)})
    out.update({f"cov{i}{j}": float(C[i, j]) for i in range(d) for j in range(d)})
    return out


def check_moments_long(path, seeds, curves, rtol=1e-10) -> list[str]:
    """Rows of moments-long.txt against moments recomputed from the curves."""
    want = {}
    for seed, (times, clouds) in zip(seeds, curves):
        for t, cloud in zip(times, clouds):
            for name, val in curve_moments(cloud).items():
                want[(float(t), f"seed{seed}:{name}")] = val
    got = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            t, name, val = line.split()
            got[(float(t), name)] = float(val)
    if set(got) != set(want):
        return [f"moments-long: {len(got)} rows for {len(want)} expected keys, "
                f"{len(set(got) ^ set(want))} mismatched"]
    bad = []
    for key, w in want.items():
        scale = max(abs(w), 1.0)
        if abs(got[key] - w) > rtol * scale:
            bad.append(f"moments-long {key}: {got[key]!r} vs recomputed {w!r}")
    return bad[:10]


def check_verdict_lines(stdout: str, checks) -> list[str]:
    lines = [ln.strip() for ln in stdout.splitlines() if ln.strip()]
    want = [f"{c}: PASS" for c in checks]
    return [] if lines == want else [f"verify printed {lines}, expected {want}"]
