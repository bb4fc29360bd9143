"""Frozen-law particle approximation of the nonlinear Fokker-Planck flow.

On each law-freeze sub-interval the measure argument of the coefficients is
held at the empirical measure of the ensemble at the sub-interval start, so
the particles solve a classical SDE within the interval, advanced by
Euler-Maruyama.  Per-particle noise comes from counter-based streams keyed
by (seed, lane, particle index) and is drawn once per run on a fine grid,
as one block of Euler-step increments; a leg restarted at freeze window k
takes that block's steps from window k on, at the run's own step, so it
replays the run's noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import rng
from .grids import TIME_TOL
from .measures import (
    EmpiricalMeasure,
    _map_pairs,
    dp_bracket,
    moment,
    wasserstein_p,
    write_rows,
)
from .models import MeanFieldModel, covariance


@dataclass(frozen=True)
class FrozenLawConfig:
    n_freeze: int  # law-freeze sub-intervals over the horizon
    inner: int = 1  # Euler steps per sub-interval
    seed: int = 0
    fine_cells: Optional[int] = None  # noise resolution; default = total steps

    def __post_init__(self):
        if self.n_freeze < 1 or self.inner < 1:
            raise ValueError("need n_freeze >= 1 and inner >= 1")
        steps = self.n_freeze * self.inner
        fc = steps if self.fine_cells is None else self.fine_cells
        if fc % steps != 0:
            raise ValueError("fine_cells must be a multiple of the Euler steps")
        object.__setattr__(self, "fine_cells", fc)

    @property
    def steps(self) -> int:
        return self.n_freeze * self.inner

    def window_index(self, t: float, T: float) -> int:
        """Index k of the freeze-window edge t = k T / n_freeze on [0, T]."""
        delta = T / self.n_freeze
        k = int(round(t / delta))
        if abs(k * delta - t) > TIME_TOL or not 0 <= k <= self.n_freeze:
            raise ValueError(f"time {t} is not on the law-freeze grid of [0, {T}]")
        return k


@dataclass
class MeasureCurve:
    """State k is ``measures[k]`` at ``times[k]``; callers address it by k."""

    times: np.ndarray
    measures: list  # EmpiricalMeasure per time
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.times) != len(self.measures):
            raise ValueError("one measure per time point required")
        ns = {m.n for m in self.measures}
        if len(ns) != 1:
            raise ValueError("particle count must be constant along the curve")


#: member streams drawn into one buffer before it is copied, transposed,
#: into the time-major noise block.  For the 5000-member, 512-cell, d = 3
#: block of the `particles` benchmark, the copies took 30-35 ms of a
#: 173-196 ms draw in batches of 64, 37-40 ms in batches of 32, and 29-34 ms
#: in batches of 128 or 256, whose draws were no faster (medians of 7 draws,
#: three runs, 2 vCPUs, numpy).
NOISE_BATCH = 64


def particle_noise(
    seed: int,
    n_particles: int,
    fine_total: int,
    d: int,
    h_fine: float,
    member_offset: int = 0,
    per: int = 1,
) -> np.ndarray:
    """Per-particle Gaussian increments, each particle's summed over runs of
    ``per`` consecutive cells, time-major: shape (fine_total // per, d, N),
    so that one run's increments of every particle are one contiguous
    (d, N) block.

    Each particle owns one counter-based stream, so a given (seed, member)
    column is the same whatever else is drawn.  One generator is re-keyed
    per member (rng.streams) and draws its (fine_total, d) normals into a
    buffer of NOISE_BATCH members.  The buffer is scaled, summed there per
    member, in the member-major layout whose sum sets the round-off (for
    d = 1 numpy sums each run pairwise), and copied transposed into the
    block.  A sum over a run of one cell maps a -0.0 draw to +0.0.
    """
    out = np.empty((fine_total // per, d, n_particles))
    buf = np.empty((min(NOISE_BATCH, n_particles), fine_total, d))
    gens = rng.streams(seed, rng.PARTICLE_LANE,
                       range(member_offset, member_offset + n_particles))
    for m0 in range(0, n_particles, NOISE_BATCH):
        rows = buf[: min(NOISE_BATCH, n_particles - m0)]
        for row, g in zip(rows, gens):  # rows first: zip takes no extra stream
            g.standard_normal(out=row)
        np.multiply(rows, np.sqrt(h_fine), out=rows)
        rows = rows.reshape(len(rows), -1, per, d).sum(axis=2)
        out[:, :, m0 : m0 + len(rows)] = rows.transpose(1, 2, 0)
    return out


def euler_increments(
    cfg: FrozenLawConfig, T: float, n_particles: int, d: int, member_offset: int = 0
) -> np.ndarray:
    """The run's Brownian increments per Euler step, shape (steps, d, N).

    Drawn on the cfg's fine grid of [0, T] and summed per step; a leg that
    restarts at window k takes the rows from step k * cfg.inner on.
    """
    return particle_noise(cfg.seed, n_particles, cfg.fine_cells, d, T / cfg.fine_cells,
                          member_offset, per=cfg.fine_cells // cfg.steps)


def _euler_step(model: MeanFieldModel, Y, mu: EmpiricalMeasure, h: float, dWT):
    """One Euler-Maruyama step of every particle under the frozen law mu, on
    the step's increments dWT, shape (d, N), a row of a time-major block:
    Y + (h (B Y^T + c))^T + (a1 dWT + sum_k (a0[:, k, :] Y^T) dWT_k)^T, with
    (B, c) = drift(mu), the affine sigma term by term, one noise coordinate
    k at a time (none if a0 = 0).  Drift and noise are built on (d, N)
    arrays, whose loops run along the particles; no (N, d, d) array is
    built."""
    B, c = model.drift(mu)
    noise = model.a1(mu) @ dWT
    if model.a0.any():
        for k in range(model.d):
            noise += (model.a0[:, k, :] @ Y.T) * dWT[k]
    return Y + (h * (B @ Y.T + c[:, None])).T + noise.T


def simulate_frozen_law(
    model: MeanFieldModel,
    mu0: EmpiricalMeasure,
    cfg: FrozenLawConfig,
    T: float,
    k0: int = 0,
    record_inner: bool = False,
    dW: Optional[np.ndarray] = None,
) -> MeasureCurve:
    """Run the frozen-law scheme over k freeze windows from window edge k0.

    ``cfg`` and ``T`` fix the scheme: the step h = T / cfg.steps and the
    cfg.inner steps per window.  ``dW``, the Euler-step increments of shape
    (k * cfg.inner, d, N) with k >= 1 and k0 + k <= cfg.n_freeze, fixes how
    many steps run; by default it is the cfg's whole block
    (euler_increments).  A leg restarted at window k0 passes the run's cfg,
    T and block rows from step k0 * cfg.inner on, so it replays the run's
    noise at the run's step, and its state after step j is labelled with the
    run's own step time (k0 * cfg.inner + j + 1) h.  Each state is
    ``mu0.with_atoms`` of a copy of the particles: mu0's validated weights,
    and a ``derived`` of its own.
    """
    if model.d != mu0.d:
        raise ValueError("model and initial measure dimension mismatch")
    N, d = mu0.n, mu0.d
    if dW is None:
        dW = euler_increments(cfg, T, N, d)
    steps = len(dW)
    if dW.shape != (steps, d, N) or steps % cfg.inner or not 0 < steps <= cfg.steps:
        raise ValueError(f"dW has shape {dW.shape}, expected (k * inner, d, N) = "
                         f"(k * {cfg.inner}, {d}, {N}) with 1 <= k <= {cfg.n_freeze}")
    j0 = k0 * cfg.inner
    if k0 < 0 or j0 + steps > cfg.steps:
        raise ValueError(f"{steps // cfg.inner} windows from window {k0} do not fit "
                         f"in the run's {cfg.n_freeze} windows")
    h = T / cfg.steps
    Y = np.array(mu0.atoms, order="F")  # column-major: the step's loops run along particles
    times = [j0 * h]
    measures = [mu0.with_atoms(Y.copy())]
    frozen = None
    for j in range(steps):
        if j % cfg.inner == 0:
            frozen = measures[-1]  # the law just recorded, at step j
        with np.errstate(over="ignore", invalid="ignore"):  # the check below names it
            Y = _euler_step(model, Y, frozen, h, dW[j])
        if not np.isfinite(Y).all():
            raise RuntimeError(f"non-finite particle state at step {j}")
        if record_inner or (j + 1) % cfg.inner == 0:
            times.append((j0 + j + 1) * h)
            measures.append(mu0.with_atoms(Y.copy()))
    return MeasureCurve(
        np.array(times),
        measures,
        meta={
            "model": model.name,
            "seed": cfg.seed,
            "n_freeze": cfg.n_freeze,
            "inner": cfg.inner,
            "h_fine": T / cfg.fine_cells,
            "t0": times[0],
            "T": T,
        },
    )


# ---------------------------------------------------------------------------
# diagnostics on curves
# ---------------------------------------------------------------------------

def weak_solution_residual(
    curve: MeasureCurve, model: MeanFieldModel, phi, k: int
) -> float:
    """|int phi dmu_t - int phi dmu_0 - int_0^t int L phi dmu_s ds| at the
    time t of curve state k, with the generator
    L phi = <b, grad phi> + 1/2 sigma sigma^T : D^2 phi and a trapezoid rule
    in time on the curve grid."""
    gen = np.empty(k + 1)
    for i, mu in enumerate(curve.measures[: k + 1]):
        Y = mu.atoms
        sg = model.sigma(Y, mu)
        a = np.einsum("nik,njk->nij", sg, sg)
        Lphi = np.einsum("ni,ni->n", model.b(Y, mu), phi.grad(Y)) + 0.5 * np.einsum(
            "nij,nij->n", a, phi.hess(Y)
        )
        gen[i] = float(mu.weights @ Lphi)
    time_integral = float(np.trapezoid(gen, curve.times[: k + 1]))
    lhs = curve.measures[k].integrate(phi.value) - curve.measures[0].integrate(phi.value)
    return abs(lhs - time_integral)


def time_regularity_check(curve: MeasureCurve, p: float) -> dict:
    """Dual-metric upper bounds between curve points at dyadic time lags,
    with a log-log scaling fit and the implied Lipschitz constant.  The fit
    needs two lags with positive medians; without them the exponent is NaN.
    A curve of one time point has no lag and is rejected."""
    n = len(curve.times) - 1
    if n < 1:
        raise ValueError("time_regularity_check needs a curve of at least two time points")
    ms = curve.measures
    lag_pairs = {
        lag: [(ms[i], ms[i + lag]) for i in range(0, n - lag + 1, lag)]
        for lag in (1, 2, 4) if lag <= n
    }
    # every lag's brackets in one map: independent transport problems
    ups = iter(_map_pairs(lambda a, b: dp_bracket(a, b, p)[1],
                          [pq for pairs in lag_pairs.values() for pq in pairs]))
    lag_stats = {
        lag: float(np.median([next(ups) for _ in pairs]))
        for lag, pairs in lag_pairs.items()
    }
    lags = np.array(sorted(lag_stats))
    meds = np.array([lag_stats[l] for l in lags])
    slope = (
        float(np.polyfit(np.log(lags), np.log(meds), 1)[0])
        if len(lags) > 1 and np.all(meds > 0)
        else float("nan")
    )
    dt = float(curve.times[1] - curve.times[0])
    lip = lag_stats[1] / dt if 1 in lag_stats else 0.0
    return {"lag_medians": {int(k): v for k, v in lag_stats.items()},
            "scaling_exponent": slope, "lipschitz": lip}


def _check_whole_run(curve: MeasureCurve, cfg: FrozenLawConfig) -> None:
    if len(curve.measures) != cfg.n_freeze + 1:
        raise ValueError(f"the curve has {len(curve.measures)} states, not the "
                         f"{cfg.n_freeze + 1} window edges of the cfg's run")


def stability_check(
    model: MeanFieldModel,
    curve: MeasureCurve,
    rho0,
    cfg: FrozenLawConfig,
    T: float,
    p: float,
    dW: np.ndarray,
):
    """Common-noise two-initial-condition run; distance ratios against the
    initial distance at every freeze boundary.  Each curve starts on its
    initial measure's atoms and weights, so the t = 0 ratio is 1 by
    construction and is not solved again; max_ratio is taken over t > 0.

    ``curve`` is the unperturbed run of the cfg from mu0 = curve.measures[0]
    on the increment block ``dW`` of the cfg's whole run, the common noise,
    on which every moved start of rho0 (a sequence of perturbed starts of
    mu0's particle count) runs too; nothing is drawn again.  One report per
    start comes back, in order.  The initial distances, then all starts'
    ratios, are each solved in one pair map.
    """
    def dist(a, b):
        return wasserstein_p(a, b, p)

    _check_whole_run(curve, cfg)
    mu0 = curve.measures[0]
    d0s = _map_pairs(dist, [(mu0, r) for r in rho0])
    moved = [simulate_frozen_law(model, r, cfg, T, dW=dW)
             for r, d0 in zip(rho0, d0s) if d0 != 0.0]
    ds = iter(_map_pairs(
        dist, [ab for c2 in moved for ab in zip(curve.measures[1:], c2.measures[1:])]
    ))
    reports = []
    for d0 in d0s:
        if d0 == 0.0:
            reports.append({"initial": 0.0, "ratios": [0.0] * len(curve.times),
                            "max_ratio": 0.0})
            continue
        ratios = [1.0] + [next(ds) / d0 for _ in curve.measures[1:]]
        reports.append({"initial": d0, "ratios": ratios,
                        "max_ratio": float(max(ratios[1:]))})
    return reports


# ---------------------------------------------------------------------------
# Feynman-Kac duality
# ---------------------------------------------------------------------------

def simulate_dual_sde(
    model: MeanFieldModel,
    curve: MeasureCurve,
    atoms0: np.ndarray,
    cfg: FrozenLawConfig,
    T: float,
    member_offset: int,
) -> np.ndarray:
    """Advance independent particles through the linear SDE whose
    time-dependent coefficients come from the frozen curve.  Used to
    Monte-Carlo the dual value function; the noise lane is offset so it is
    independent of the curve's own particles."""
    N, d = atoms0.shape
    h = T / cfg.steps
    dW = euler_increments(cfg, T, N, d, member_offset)
    Y = np.array(atoms0, order="F")
    for j in range(cfg.steps):
        with np.errstate(over="ignore", invalid="ignore"):
            Y = _euler_step(model, Y, curve.measures[j // cfg.inner], h, dW[j])
        if not np.isfinite(Y).all():
            raise RuntimeError(f"non-finite dual particle state at step {j}")
    return Y


def feynman_kac_duality(
    model: MeanFieldModel,
    curve: MeasureCurve,
    phi,
    cfg: FrozenLawConfig,
    T: float,
):
    """Compare int phi dmu_T against the dual average E[phi(xi_T)] where xi
    solves the linear SDE frozen on ``curve``, the cfg's run from
    mu0 = curve.measures[0], from mu0-distributed starts with independent
    noise.  Reports both sides and a combined standard error.

    phi is a sequence of test functions: the dual SDE is run once, and one
    report per function comes back, in order.
    """
    _check_whole_run(curve, cfg)
    mu0, muT = curve.measures[0], curve.measures[-1]
    xiT = simulate_dual_sde(model, curve, mu0.atoms, cfg, T, member_offset=mu0.n + 1)
    reports = []
    for f in phi:
        lhs_vals = f.value(muT.atoms)
        lhs = float(muT.weights @ lhs_vals)
        rhs_vals = f.value(xiT)
        rhs = float(mu0.weights @ rhs_vals)
        se = float(
            np.sqrt(np.var(lhs_vals) / muT.n + np.var(rhs_vals) / len(rhs_vals))
        )
        reports.append({"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs), "se": se})
    return reports


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def save_curve(curve: MeasureCurve, path) -> None:
    """Rows of (time, particle id, coordinates)."""
    ids = np.arange(curve.measures[0].n, dtype=float)
    rows = np.vstack([
        np.column_stack([np.full_like(ids, t), ids, m.atoms])
        for t, m in zip(curve.times, curve.measures)
    ])
    with open(path, "w") as fh:
        fh.write("# roughmf-curve v1 " + json.dumps(curve.meta, sort_keys=True, default=str) + "\n")
        write_rows(fh, rows)


def save_curve_summary(curve: MeasureCurve, path) -> None:
    """Rows of (time, M_2, M_4, mean components, covariance entries)."""
    rows = []
    for t, m in zip(curve.times, curve.measures):
        C = covariance(m)
        rows.append([t, moment(m, 2.0), moment(m, 4.0), *m.mean(), *C.ravel()])
    with open(path, "w") as fh:
        fh.write("# roughmf-curve-summary v1\n")
        write_rows(fh, np.array(rows))
