"""Joint state-law flow and numerical verification of the perfect-cocycle
property.

The flow advances a distinguished point by an RDE whose time-dependent
coefficients are read off a frozen-law particle curve, while the law itself
advances by the particle scheme.  Every run of it is one leg over freeze
windows addressed by index, ``FlowRun.leg``.  The cocycle check compares
the one-shot leg over s + t with the leg that restarts at s from the
one-shot state there on the same increments, at the same step, and on the
same driver window, so the law defect is zero by construction on every
window grid and the point defect measures only the scheme's
self-consistency.  Every leg marches forward in order, so its state at a
window edge does not depend on where the leg ends: one restart per restart
window (``FlowDetails.restart``) serves every horizon read from it, and
runs only as far as it is read, extended when a later horizon reaches
further: its law marches on from its end state, and its point is solved
again from its start.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from . import rde, rng
from .grids import TimeGrid
from .measures import EmpiricalMeasure, dp_bracket, wasserstein_p
from .meanfield import FrozenLawConfig, MeasureCurve, euler_increments, simulate_frozen_law
from .models import MeanFieldModel
from .rde import CoefficientField, RdeSolution, doss_sussmann_solve, linear_coefficients
from .roughpath import STRAT, NoisePath, RoughPath, brownian_lift, dyadic_approximation


@dataclass(frozen=True)
class JointState:
    point: np.ndarray
    law: EmpiricalMeasure

    def __post_init__(self):
        object.__setattr__(self, "point", np.atleast_1d(np.asarray(self.point, float)))
        if self.point.shape != (self.law.d,):
            raise ValueError("point and law dimensions must agree")


@dataclass
class FlowRun:
    model: MeanFieldModel
    cfg: FrozenLawConfig  # law-freeze layout over the full horizon
    T: float
    rde_per_freeze: int = 1  # rough cells per freeze interval
    driver_fine_per: int = 8  # fine noise cells per rough cell
    _noise: Optional[NoisePath] = field(default=None, repr=False)
    _law_noise: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    @property
    def rde_cells(self) -> int:
        return self.cfg.n_freeze * self.rde_per_freeze

    def driver_noise(self) -> NoisePath:
        if self._noise is None:
            fine = TimeGrid.regular(0.0, self.T, self.rde_cells * self.driver_fine_per)
            self._noise = NoisePath.generate(
                self.cfg.seed, fine, self.model.d, lane=rng.DRIVER_LANE
            )
        return self._noise

    @cached_property
    def rough(self) -> RoughPath:
        """The Stratonovich lift of the driver on the rough grid of [0, T],
        built once per run; a leg reads its window by index."""
        grid = TimeGrid.regular(0.0, self.T, self.rde_cells)
        return brownian_lift(self.driver_noise(), grid, STRAT)

    def law_noise(self, n_particles: int) -> np.ndarray:
        """The particle increments of the whole run, time-major
        (cfg.steps, d, N); a leg over windows [k0, k1) takes the rows of
        steps [k0, k1) * cfg.inner, a view."""
        if self._law_noise is None or self._law_noise.shape[-1] != n_particles:
            self._law_noise = euler_increments(
                self.cfg, self.T, n_particles, self.model.d
            )
        return self._law_noise

    def leg(self, e: JointState, k0: int, k1: int) -> FlowDetails:
        """The joint flow over the freeze windows [k0, k1) from e: the law
        by the run's scheme on its increments of steps [k0, k1) * inner,
        labelled with the run's step times, the point on
        ``rough.restrict(k0 r, k1 r)``, r rough cells per window.  The law
        runs now; the point is lifted and solved at the first read of the
        details' ``rough`` or ``solution``."""
        return FlowDetails(self, e.point, k0, self.law(e.law, k0, k1))

    def law(self, mu: EmpiricalMeasure, k0: int, k1: int) -> MeasureCurve:
        """The law over the freeze windows [k0, k1) from mu, at window edge
        k0, by the run's scheme on its increments of those windows."""
        if not 0 <= k0 < k1 <= self.cfg.n_freeze:
            raise ValueError(f"windows [{k0}, {k1}) are not a leg of the run's "
                             f"{self.cfg.n_freeze} windows")
        inner = self.cfg.inner
        dW = self.law_noise(mu.n)[k0 * inner : k1 * inner]
        return simulate_frozen_law(self.model, mu, self.cfg, self.T, k0, dW=dW)


def frozen_coefficient_field(
    model: MeanFieldModel, curve: MeasureCurve, cells: int
) -> CoefficientField:
    """RDE coefficients on a rough grid of ``cells`` cells from a frozen-law
    curve: cell c lies in freeze window k = c // (cells // n_windows), where
    the measure argument is held at the curve state mu_k.

    a0 is the model's; a1 and the drift read the tables of the windows'
    a1(mu_k) and drift(mu_k) = (B_k, c_k), built in one pass.  The rough
    grid must nest in the windows: ``cells`` is a positive multiple of their
    count.
    """
    windows = curve.measures[:-1]
    per, rest = divmod(cells, len(windows))
    if per < 1 or rest:
        raise ValueError(f"{cells} rough cells do not nest in {len(windows)} freeze windows")
    A1, B, c = map(np.array, zip(*[(model.a1(mu), *model.drift(mu)) for mu in windows]))
    return linear_coefficients(model.a0, lambda k: A1[k // per],
                               lambda k: (B[k // per], c[k // per]), d=model.d)


@dataclass
class FlowDetails:
    """A leg of ``run`` over the freeze windows [k0, k0 + len(curve) - 1):
    the law curve, run when the leg is made, and the point from ``head``,
    lifted and solved at the first read of ``rough`` or ``solution``."""

    run: FlowRun = field(repr=False)
    head: np.ndarray  # the point's start (d,) at window edge k0
    k0: int
    curve: MeasureCurve
    # the last restart asked for, run as far as it has been read
    _restart: Optional[FlowDetails] = field(default=None, init=False, repr=False)

    @property
    def k1(self) -> int:
        return self.k0 + len(self.curve.measures) - 1

    @cached_property
    def rough(self) -> RoughPath:
        r = self.run.rde_per_freeze
        return self.run.rough.restrict(self.k0 * r, self.k1 * r)

    @cached_property
    def solution(self) -> RdeSolution:
        rp = self.rough
        coeff = frozen_coefficient_field(self.run.model, self.curve, rp.grid.n_cells)
        return doss_sussmann_solve(coeff, rp, self.head)

    def state_at(self, k: int) -> JointState:
        """The joint state at the leg's window edge k: solution node k r for r
        rough cells per window, and the curve's k-th measure."""
        r = self.run.rde_per_freeze
        return JointState(self.solution.Y[k * r], self.curve.measures[k])

    def extended(self, k1: int) -> FlowDetails:
        """This leg run on to the run's window edge k1 > self.k1: the law
        marches on from its end state, so no window is stepped twice, and
        the point is solved again from the leg's start on the run's rough
        path restricted from the same origin k0 r.  A leg marches forward
        and the step from an edge reads only the state there, so every
        state is bitwise that of the leg run in one go to k1."""
        law = self.run.law(self.curve.measures[-1], self.k1, k1)
        c = self.curve
        curve = MeasureCurve(np.concatenate([c.times[:-1], law.times]),
                             c.measures[:-1] + law.measures, c.meta)
        return FlowDetails(self.run, self.head, self.k0, curve)

    def restart(self, ks: int, kt: int) -> FlowDetails:
        """The leg from this one's state at its window edge ks, run at least
        to edge ks + kt of this one; its state at its edge kt is that of the
        leg over [ks, ks + kt).  Only the last restart is kept, for callers
        that read every horizon of one ks before moving on, so at most one
        restart is held at a time; a later kt that reaches past its end
        extends it, so a restart runs only as far as it is read."""
        K = len(self.curve.measures) - 1
        if not 0 <= ks < ks + kt <= K:
            raise ValueError(f"a restart at {ks} read at {kt} does not fit the leg's {K} windows")
        k0, k1 = self.k0 + ks, self.k0 + ks + kt
        held = self._restart
        if held is None or held.k0 != k0:
            self._restart = held = None  # drop the old leg before the new one runs
            held = self.run.leg(self.state_at(ks), k0, k1)
        elif held.k1 < k1:
            held = held.extended(k1)
        self._restart = held
        return held

    @cached_property
    def self_defect(self) -> float:
        """Integral defect of the one-shot solution: the cocycle's scale."""
        return self.solution.integral_defect()


def flow_details(run: FlowRun, e0: JointState, t: float) -> FlowDetails:
    """Run the joint flow on [0, t] and keep all intermediate structure; t
    is a freeze-window edge, parsed once to its index."""
    return run.leg(e0, 0, run.cfg.window_index(t, run.T))


def cocycle_defect(
    run: FlowRun,
    e0: JointState,
    s: float,
    t: float,
    details: Optional[FlowDetails] = None,
) -> dict:
    """``cocycle_defect_at`` of the freeze-window edges s and t, parsed once
    to window indices ks, kt; the report carries s and t as given."""
    ks, kt = run.cfg.window_index(s, run.T), run.cfg.window_index(t, run.T)
    return cocycle_defect_at(run, e0, ks, kt, details) | {"s": s, "t": t}


def cocycle_defect_at(
    run: FlowRun,
    e0: JointState,
    ks: int,
    kt: int,
    details: Optional[FlowDetails] = None,
) -> dict:
    """Compare phi(s+t, omega, e0) with phi(t, theta_s omega, phi(s, omega, e0))
    at s = ks delta and t = kt delta, delta = T / n_freeze.

    Without ``details`` the one-shot is the leg over [0, ks + kt).  The
    second stage is the leg over windows [ks, ks + kt) from the
    one-shot state at s: the law particles restart on the run's increments
    of those windows, the point on the driver's window from s.  It is read
    at edge kt of ``details.restart(ks, kt)``, which runs only as far as
    the furthest horizon read from ks.  Reports the point defect, the law
    defect W_2 and the ``dp_bracket`` upper bound at p = 2 between the two
    clouds, and the single-run self-consistency defect used as the
    tolerance scale.
    """
    if details is None:
        details = run.leg(e0, 0, ks + kt)
    K = len(details.curve.measures) - 1
    if min(ks, kt) < 0 or ks + kt > K:
        raise ValueError(f"windows ks = {ks}, kt = {kt} do not fit the one-shot's {K} windows")
    end = details.state_at(ks + kt)
    delta = run.T / run.cfg.n_freeze
    rep = {"point_defect": 0.0, "law_defect": 0.0, "law_upper": 0.0,
           "self_defect": details.self_defect, "s": ks * delta, "t": kt * delta}
    if ks == 0 or kt == 0:
        return rep
    endB = details.restart(ks, kt).state_at(kt)
    _, law_upper, info = dp_bracket(endB.law, end.law, 2.0)
    return rep | {
        "point_defect": float(np.linalg.norm(endB.point - end.point)),
        "law_defect": info["w_p"],
        "law_upper": float(law_upper),
    }


# ---------------------------------------------------------------------------
# Wong-Zakai ODE approximation
# ---------------------------------------------------------------------------

def wong_zakai_run(
    coeff: CoefficientField,
    noise: NoisePath,
    level: int,
    corrected: bool,
    xi,
) -> tuple[np.ndarray, np.ndarray]:
    """RK4 integration of dY = sigma Wdot^n dt - (corrected ?
    (1/2)(a0 sigma) dt : 0) against the level-n piecewise-linear noise
    ``dyadic_approximation(noise, level)``, on its fine grid; corrected runs
    target the Ito solution, uncorrected the Stratonovich/rough one.

    The field is affine and fine cell k reads a1 of cell k, so on cell k,
    of width h and increment x, the ODE is dy/dt = L y + c with
    B = h L = a0 . x (minus (h/2) a0 a0 if corrected), and one RK4 step is
    exactly y -> P y + q with P = sum_{m<=4} B^m/m! and
    q = sum_{m<=3} B^m/(m+1)! h c.  ``rde._march`` steps the maps under its
    blow-up guard.  A field with a drift raises ValueError.  Returns
    (times, trajectory on the fine grid).
    """
    if coeff.drift is not None:
        raise ValueError("wong_zakai_run takes a driftless field")
    rp = dyadic_approximation(noise, level)
    x = np.diff(rp.values, axis=0)
    M, d = x.shape
    a0 = coeff.a0
    A1 = np.broadcast_to(coeff.a1(np.arange(M)), (M, d, d))
    B = np.einsum("ikj,ck->cij", a0, x)
    hc = np.einsum("cik,ck->ci", A1, x)
    if corrected:
        h = rp.grid.widths
        B = B - 0.5 * h[:, None, None] * np.einsum("ikl,lkj->ij", a0, a0)
        hc = hc - 0.5 * h[:, None] * np.einsum("ikj,cjk->ci", a0, A1)
    eye = np.eye(d)
    S = eye + B @ (eye + B @ (eye + B / 4) / 3) / 2  # sum_{m<=3} B^m/(m+1)!
    xi = np.atleast_1d(np.asarray(xi, float))
    return rp.times, rde._march(eye + B @ S, np.einsum("cij,cj->ci", S, hc), xi, 0, False)


# ---------------------------------------------------------------------------
# continuity of the flow map
# ---------------------------------------------------------------------------

def _joint_distance(a: JointState, b: JointState, p: float = 2.0) -> float:
    return float(np.linalg.norm(a.point - b.point)) + wasserstein_p(a.law, b.law, p)


def continuity_probe(
    run: FlowRun,
    e0: JointState,
    K: int,
    epsilons=(1e-1, 1e-2, 1e-3, 1e-4),
) -> dict:
    """Empirical modulus of continuity of the flow over the first K freeze
    windows in each input channel.

    Perturbs the initial point, the initial cloud (rigid translation), and
    the driving noise (uniform-norm drift bump of size eps), and fits the
    log-log slope of output distance against eps."""

    def end_state(r: FlowRun, e: JointState) -> JointState:
        return r.leg(e, 0, K).state_at(K)

    base = end_state(run, e0)
    d = run.model.d
    u = np.ones(d) / np.sqrt(d)
    out = {}
    for channel in ("point", "law", "noise"):
        dists = []
        for eps in epsilons:
            if channel == "point":
                e1 = JointState(e0.point + eps * u, e0.law)
                pert = end_state(run, e1)
            elif channel == "law":
                e1 = JointState(
                    e0.point, EmpiricalMeasure(e0.law.atoms + eps * u, e0.law.weights)
                )
                pert = end_state(run, e1)
            else:
                noise = run.driver_noise()
                widths = noise.fine_grid.widths[:, None]
                bumped = replace(noise, increments=noise.increments
                                 + eps * widths / run.T * np.ones(d))
                pert = end_state(replace(run, _noise=bumped), e0)
            dists.append(max(_joint_distance(pert, base), 1e-300))
        le = np.log(np.asarray(epsilons))
        ld = np.log(np.asarray(dists))
        slope = float(np.polyfit(le, ld, 1)[0])
        out[channel] = {"eps": list(epsilons), "dist": dists, "slope": slope}
    return out
