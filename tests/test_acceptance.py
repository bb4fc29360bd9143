"""End-to-end acceptance checks, one test per criterion.

Each test records a single PASS/FAIL line (printed in the terminal summary)
and then asserts, so a red test maps one-to-one onto a failed criterion.
"""

import time

import numpy as np
import pytest

from roughmf.cocycle import (
    FlowRun,
    JointState,
    cocycle_defect,
    flow_details,
    wong_zakai_run,
)
from roughmf.controlled import ControlledPath, controlled_distance
from roughmf.grids import TimeGrid
from roughmf.meanfield import (
    FrozenLawConfig,
    euler_increments,
    feynman_kac_duality,
    simulate_frozen_law,
    stability_check,
)
from roughmf.measures import (
    EmpiricalMeasure,
    dp_bracket,
    topology_equivalence_probe,
    wasserstein_p,
)
from roughmf.models import LANDAU_S0, build_model, covariance, psd_sqrt, sigma0
from roughmf.rde import (
    doss_sussmann_solve,
    flow_jacobian,
    linear_coefficients,
    solve_backward,
    solve_driftless,
)
from roughmf.roughpath import (
    ITO,
    STRAT,
    NoisePath,
    RoughPath,
    brownian_lift,
    dyadic_approximation,
    rough_distance,
)
from roughmf.measures import ScalarFunc, linear_func
from roughmf import verdicts

RESULTS = {}


def record(num, name, ok, detail=""):
    RESULTS[num] = (name, bool(ok), detail)
    assert ok, f"criterion {num} ({name}): {detail}"


def scalar_brownian(seed, cells, fine_per=8, T=1.0):
    noise = NoisePath.generate(seed, TimeGrid.regular(0.0, T, cells * fine_per), 1)
    return noise, brownian_lift(noise, TimeGrid.regular(0.0, T, cells), STRAT)


# ---------------------------------------------------------------------------
# 1. Chen / lift algebra
# ---------------------------------------------------------------------------

def test_01_chen_and_lift_algebra():
    tic = time.time()
    worst_chen = 0.0
    rngs = np.random.default_rng(0)
    noise = NoisePath.generate(11, TimeGrid.regular(0.0, 1.0, 1 << 15), 2)
    paths = [
        brownian_lift(noise, TimeGrid.regular(0.0, 1.0, 1 << 12), STRAT),
        brownian_lift(noise, TimeGrid.regular(0.0, 1.0, 1 << 12), ITO),
        dyadic_approximation(noise, 10),
    ]
    for rp in paths:
        t = rp.times
        n = rp.grid.n_cells
        for _ in range(200):
            i, k, j = sorted(rngs.integers(0, n + 1, size=3))
            worst_chen = max(
                worst_chen, float(np.max(np.abs(rp.chen_defect(t[i], t[k], t[j]))))
            )
    rs, ri = paths[0], paths[1]
    corr = rs.cells - ri.cells
    expected = 0.5 * rs.grid.widths[:, None, None] * np.eye(2)
    exact = float(np.max(np.abs(corr - expected)))
    elapsed = time.time() - tic
    ok = worst_chen <= 1e-12 and exact == 0.0 and elapsed < 10.0
    record(1, "chen/lift algebra", ok,
           f"chen {worst_chen:.2e}, strat-ito exact diff {exact:g}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. dyadic convergence
# ---------------------------------------------------------------------------

def test_02_dyadic_convergence():
    tic = time.time()
    levels = list(range(4, 11))
    dists = np.empty((8, len(levels)))
    for s in range(8):
        noise = NoisePath.generate(s, TimeGrid.regular(0.0, 1.0, 1 << 14), 2)
        ref = brownian_lift(noise, noise.fine_grid, STRAT)
        for c, n in enumerate(levels):
            dists[s, c] = rough_distance(dyadic_approximation(noise, n), ref)
    med = np.median(dists, axis=0)
    monotone = bool(np.all(np.diff(med) < 0))
    decrease = float(med[0] / med[-1])
    elapsed = time.time() - tic
    ok = monotone and decrease >= 10.0 and elapsed < 60.0
    record(2, "dyadic convergence", ok,
           f"monotone {monotone}, total decrease {decrease:.2f}x "
           f"(need >= 10x), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. rough integral correctness
# ---------------------------------------------------------------------------

def test_03_rough_integral():
    tic = time.time()
    # Stratonovich identity in d = 1 at the fine level
    noise, rp = scalar_brownian(3, 1 << 12, fine_per=8)
    X = rp.values[:, 0]
    cp = ControlledPath(rp, X, np.ones((len(X), 1)))
    got = float(cp.rough_integral(0, len(X) - 1)[0])
    ref = 0.5 * (X[-1] ** 2 - X[0] ** 2)
    rel_strat = abs(got - ref) / max(abs(ref), 1e-12)

    # smooth path against Riemann-Stieltjes quadrature
    grid = TimeGrid.regular(0.0, 1.0, 1 << 12)
    t = grid.points
    sm = RoughPath(grid, t[:, None], (0.5 * np.diff(t) ** 2)[:, None, None], 0.4)
    f = np.sin(t)
    smooth_cp = ControlledPath(sm, f, np.cos(t)[:, None])
    tt = np.linspace(0.0, 1.0, 200001)
    rs_ref = np.trapezoid(np.sin(tt), tt)
    err_smooth = float(np.max(np.abs(smooth_cp.rough_integral(0, len(t) - 1) - rs_ref)))

    # local error certificate on 1000 random windows
    _, rp2 = scalar_brownian(4, 1 << 10, fine_per=8)
    X2 = rp2.values[:, 0]
    cp2 = ControlledPath(rp2, np.sin(X2), np.cos(X2)[:, None])
    rngs = np.random.default_rng(1)
    cert_fail = 0
    for _ in range(1000):
        i = int(rngs.integers(0, rp2.grid.n_cells))
        j = int(rngs.integers(i + 1, rp2.grid.n_cells + 1))
        _, _, good = cp2.local_error_certificate(i, j)
        cert_fail += 0 if good else 1
    elapsed = time.time() - tic
    ok = rel_strat <= 1e-3 and err_smooth <= 1e-6 and cert_fail == 0 and elapsed < 60
    record(3, "rough integral", ok,
           f"strat rel {rel_strat:.2e}, smooth {err_smooth:.2e}, "
           f"cert failures {cert_fail}/1000, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. RDE closed forms
# ---------------------------------------------------------------------------

def test_04_rde_closed_forms():
    tic = time.time()
    geom = linear_coefficients(np.ones((1, 1, 1)))
    _, rp = scalar_brownian(5, 1 << 12, fine_per=8)
    sol = solve_driftless(geom, rp, 1.0)
    ref = np.exp(rp.values[:, 0])
    rel_geom = float(np.max(np.abs(sol.Y[:, 0] - ref) / ref))

    _, rp2 = scalar_brownian(6, 1 << 12, fine_per=8)
    damped = linear_coefficients(np.ones((1, 1, 1)), drift=lambda c: (-np.eye(1), np.zeros(1)))
    ds = doss_sussmann_solve(damped, rp2, 1.0)
    ds_ref = np.exp(rp2.values[:, 0] - rp2.times)
    rel_ds = float(np.max(np.abs(ds.Y[:, 0] - ds_ref) / ds_ref))

    # Wong-Zakai: trajectory mean-square defect halves per level; corrected
    # runs land on the Ito closed form, uncorrected on the Stratonovich one
    ratios_u, ratios_c, target_ok = [], [], True
    for seed in range(8):
        noise = NoisePath.generate(seed, TimeGrid.regular(0.0, 1.0, 1 << 12), 1)
        W = noise.values()[:, 0]
        ts_f = noise.fine_grid.points
        strat, ito = np.exp(W), np.exp(W - 0.5 * ts_f)
        du, dc = [], []
        for level in (5, 6, 7, 8):
            _, Yu = wong_zakai_run(geom, noise, level, False, 1.0)
            _, Yc = wong_zakai_run(geom, noise, level, True, 1.0)
            du.append(np.mean((Yu[:, 0] - strat) ** 2))
            dc.append(np.mean((Yc[:, 0] - ito) ** 2))
        du, dc = np.array(du), np.array(dc)
        ratios_u.append(du[1:] / du[:-1])
        ratios_c.append(dc[1:] / dc[:-1])
        # each variant is closer to its own limit than to the other one
        target_ok = target_ok and du[-1] < np.mean((Yu[:, 0] - ito) ** 2)
        target_ok = target_ok and dc[-1] < np.mean((Yc[:, 0] - strat) ** 2)
    med_u = np.median(np.array(ratios_u), axis=0)
    med_c = np.median(np.array(ratios_c), axis=0)
    halving = bool(np.all(med_u <= 0.75) and np.all(med_c <= 0.75))
    elapsed = time.time() - tic
    ok = rel_geom <= 1e-3 and rel_ds <= 5e-3 and halving and target_ok and elapsed < 120
    record(4, "rde closed forms", ok,
           f"geom {rel_geom:.2e}, doss-sussmann {rel_ds:.2e}, "
           f"wz ratios {np.round(med_u, 2).tolist()}/{np.round(med_c, 2).tolist()}, "
           f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. flow inversion
# ---------------------------------------------------------------------------

def _inversion_errors(coeff, rp, delta):
    delta = np.asarray(delta, float)
    fwd = solve_driftless(coeff, rp, delta)
    n = rp.grid.n_cells
    worst = 0.0
    for i in range(n // 8, n + 1, n // 8):
        t = float(rp.times[i])
        back = solve_backward(coeff, rp, delta, 0.0, t)
        again = solve_driftless(coeff, rp.restrict(0, i), back.Y[0])
        worst = max(worst, float(np.max(np.abs(again.Y[-1] - delta))))
    fz = flow_jacobian(coeff, rp, delta, "forward")
    bz = flow_jacobian(coeff, rp, fwd.Y[-1], "backward")
    jac = float(np.max(np.abs(bz[0] @ fz[-1] - np.eye(len(delta)))))
    return worst, jac


def test_05_flow_inversion():
    tic = time.time()
    # EKS-style field: sigma constant in the state (frozen-measure sqrt cov)
    C = np.array([[1.0, 0.3], [0.3, 4.0]])
    A = psd_sqrt(2.0 * C)
    eks_coeff = linear_coefficients(np.zeros((2, 2, 2)), a1=lambda t: A)
    noise2 = NoisePath.generate(7, TimeGrid.regular(0.0, 1.0, 1 << 14), 2)
    rp2 = brownian_lift(noise2, TimeGrid.regular(0.0, 1.0, 1 << 12), STRAT)
    inv_e, jac_e = _inversion_errors(eks_coeff, rp2, np.array([0.7, -0.4]))

    # Landau field: sigma(y) = sigma0(y - m) for a frozen mean m
    m = np.array([0.2, -0.1, 0.3])
    lan_coeff = linear_coefficients(
        LANDAU_S0 * 1.0, a1=lambda t: -sigma0(m), d=3
    )
    noise3 = NoisePath.generate(8, TimeGrid.regular(0.0, 1.0, 1 << 14), 3)
    rp3 = brownian_lift(noise3, TimeGrid.regular(0.0, 1.0, 1 << 12), STRAT)
    inv_l, jac_l = _inversion_errors(lan_coeff, rp3, np.array([0.5, -0.3, 0.2]))
    elapsed = time.time() - tic
    ok = (
        max(inv_e, inv_l) <= 5e-3
        and max(jac_e, jac_l) <= 1e-2
        and elapsed < 120
    )
    record(5, "flow inversion", ok,
           f"inversion eks {inv_e:.2e} landau {inv_l:.2e}, "
           f"jacobian eks {jac_e:.2e} landau {jac_l:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. cocycle property
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model_name", ["eks-gaussian", "landau-maxwell"])
def test_06_cocycle_property(model_name):
    tic = time.time()
    params = {"Sigma": np.diag([1.0, 4.0])} if model_name == "eks-gaussian" else None
    model = build_model(model_name, params)
    T = 1.0
    reports = []
    for seed in range(16):
        cfg = FrozenLawConfig(64, inner=1, seed=seed)
        mu0 = EmpiricalMeasure(
            np.random.default_rng(1000 + seed).normal(size=(2000, model.d))
        )
        run = FlowRun(model, cfg, T)
        e0 = JointState(mu0.atoms[0], mu0)
        details = flow_details(run, e0, T)
        reports += [cocycle_defect(run, e0, s8 * T / 8, t8 * T / 8, details=details)
                    for s8 in (1, 2, 3, 4) for t8 in (1, 2, 3, 4)]
    verdict = verdicts.cocycle(reports)
    worst_ratio = max(r["point_defect"] / max(r["self_defect"], 1e-300) for r in reports)
    elapsed = time.time() - tic
    ok = verdict["pass"] and elapsed < 600
    key = 6 if model_name == "eks-gaussian" else 6.5
    record(key, f"cocycle ({model_name})", ok,
           f"worst point/self ratio {worst_ratio:.2f} (tol 3), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. mean-field moment oracles
# ---------------------------------------------------------------------------

def test_07_moment_oracles():
    tic = time.time()
    # EKS Gaussian target, d = 2
    Sigma = np.diag([1.0, 4.0])
    model = build_model("eks-gaussian", {"Sigma": Sigma})
    N = 5000
    rngs = np.random.default_rng(42)
    mu0 = EmpiricalMeasure(rngs.normal(size=(N, 2)) * 0.5 + np.array([1.0, -1.0]))
    T = 2.0
    check_states = [32, 64, 96, 128]  # t = 0.5, 1.0, 1.5, 2.0 on 128 windows
    curve = simulate_frozen_law(model, mu0, FrozenLawConfig(128, inner=1, seed=0), T)
    eks = verdicts.moments(model, curve, check_states)
    gaps = [float(np.linalg.norm(covariance(curve.measures[k]) - Sigma)) for k in check_states]
    eks_ok = eks["pass"] and bool(np.all(np.diff(gaps) < 0))

    # Landau, d = 3
    lan = build_model("landau-maxwell")
    mu0l = EmpiricalMeasure(
        np.random.default_rng(7).normal(size=(N, 3)) + np.array([0.3, 0.0, -0.2])
    )
    # inner substeps keep the Euler variance bias well below the MC band
    curve_l = simulate_frozen_law(lan, mu0l, FrozenLawConfig(128, inner=4, seed=1), T)
    landau = verdicts.moments(lan, curve_l, check_states)
    elapsed = time.time() - tic
    ok = eks_ok and landau["pass"] and elapsed < 300
    record(7, "moment oracles", ok,
           f"eks max z {max(eks['z_mean'], eks['z_cov']):.2f}, "
           f"cov gaps {np.round(gaps, 3).tolist()}, "
           f"landau max z {max(landau['z_mean'], landau['z_var']):.2f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. duality
# ---------------------------------------------------------------------------

def _phi_sq(d):
    return ScalarFunc("sq", lambda Y: np.sum(Y * Y, axis=1), lambda Y: 2.0 * Y,
                      lambda Y: np.broadcast_to(2.0 * np.eye(d), (len(Y), d, d)))


def test_08_duality():
    tic = time.time()
    reports = {}
    for name, params in (
        ("eks-gaussian", {"Sigma": np.diag([1.0, 4.0])}),
        ("landau-maxwell", None),
    ):
        model = build_model(name, params)
        mu0 = EmpiricalMeasure(
            np.random.default_rng(3).normal(size=(2000, model.d))
        )
        phis = (linear_func(np.eye(model.d)[0], "coord"), _phi_sq(model.d))
        cfg = FrozenLawConfig(32, inner=2, seed=0)
        curve = simulate_frozen_law(model, mu0, cfg, 0.5)
        reps = feynman_kac_duality(model, curve, phis, cfg, T=0.5)
        reports |= {f"{name}/{phi.name}": rep for phi, rep in zip(phis, reps)}
    verdict = verdicts.duality(reports)
    details = [f"{key} {verdict[key]['residual']:.3f}<=3x{verdict[key]['se']:.3f}"
               for key in reports]
    elapsed = time.time() - tic
    ok = verdict["pass"] and elapsed < 300
    record(8, "duality", ok, "; ".join(details) + f", {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. metric layer
# ---------------------------------------------------------------------------

def test_09_metric_layer():
    tic = time.time()
    rngs = np.random.default_rng(0)

    # metric axioms on exact-mode problems
    axiom_worst = 0.0
    for _ in range(20):
        d = int(rngs.integers(1, 4))
        tri = [
            EmpiricalMeasure(rngs.normal(size=(40, d)) + rngs.normal(size=d))
            for _ in range(3)
        ]
        for p in (1.0, 2.0):
            d01 = wasserstein_p(tri[0], tri[1], p)
            d10 = wasserstein_p(tri[1], tri[0], p)
            d02 = wasserstein_p(tri[0], tri[2], p)
            d12 = wasserstein_p(tri[1], tri[2], p)
            axiom_worst = max(axiom_worst, abs(d01 - d10))
            axiom_worst = max(axiom_worst, d02 - (d01 + d12))
            axiom_worst = max(axiom_worst, wasserstein_p(tri[0], tri[0], p))

    # bracket ordering on 100 random pairs
    order_ok = True
    for _ in range(100):
        d = int(rngs.integers(1, 4))
        mu = EmpiricalMeasure(rngs.normal(size=(30, d)))
        nu = EmpiricalMeasure(rngs.normal(size=(30, d)) + 0.3 * rngs.normal(size=d))
        lo, up, _ = dp_bracket(mu, nu, 2.0)
        order_ok = order_ok and (0.0 <= lo <= up)

    # the three topology corpora: constant, sampling, escaping
    base = rngs.normal(size=(256, 2))
    limit = EmpiricalMeasure(base)
    const = topology_equivalence_probe([limit] * 3, limit, 2.0)
    const_ok = const["agree"] and max(const["d_p"]) == 0.0

    big = rngs.normal(size=(20000, 2))
    ref = EmpiricalMeasure(big)
    grown = [EmpiricalMeasure(big[: 1 << k]) for k in (6, 8, 10)]
    sampling = topology_equivalence_probe(grown, ref, 2.0, tol_w=10.0, tol_b=10.0)
    samp_ok = (
        sampling["agree"]
        and np.all(np.diff(sampling["d_p"]) < 0)
        and np.all(np.diff(sampling["bracket_upper"]) < 0)
    )

    target = EmpiricalMeasure(np.zeros((1, 1)))
    escape = [EmpiricalMeasure(np.array([[float(n)]])) for n in (1, 2, 3)]
    esc = topology_equivalence_probe(escape, target, 2.0)
    esc_ok = esc["agree"] and min(esc["d_p"]) >= 1.0 and min(esc["bracket_upper"]) >= 1.0

    elapsed = time.time() - tic
    ok = (
        axiom_worst <= 1e-10
        and order_ok
        and const_ok
        and samp_ok
        and esc_ok
        and elapsed < 120
    )
    record(9, "metric layer", ok,
           f"axiom worst {axiom_worst:.1e}, ordering {order_ok}, corpora "
           f"{const_ok}/{samp_ok}/{esc_ok}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 10. stability
# ---------------------------------------------------------------------------

def test_10_stability():
    tic = time.time()
    model = build_model("eks-gaussian", {"Sigma": np.diag([1.0, 4.0])})
    mu0 = EmpiricalMeasure(np.random.default_rng(5).normal(size=(500, 2)))
    u = np.ones(2) / np.sqrt(2.0)
    starts = [EmpiricalMeasure(mu0.atoms + eps * u) for eps in (1e-1, 10 ** -1.5, 1e-2)]
    cfg = FrozenLawConfig(32, seed=0)
    dW = euler_increments(cfg, 1.0, mu0.n, mu0.d)  # the common noise, drawn once
    reps = stability_check(model, simulate_frozen_law(model, mu0, cfg, 1.0, dW=dW), starts,
                           cfg, 1.0, 2.0, dW)
    ratio = verdicts.stability([rep["max_ratio"] for rep in reps])

    geom = linear_coefficients(np.ones((1, 1, 1)))
    _, rp = scalar_brownian(9, 1 << 10, fine_per=8)
    base = solve_driftless(geom, rp, 1.0)
    gaps = np.array([1e-1, 10 ** -1.5, 1e-2, 10 ** -2.5, 1e-3])
    lefts = []
    for g in gaps:
        pert = solve_driftless(geom, rp, 1.0 + g)
        lefts.append(controlled_distance(base.path, pert.path))
    lefts = np.array(lefts)
    coeffs = np.polyfit(gaps, lefts, 1)
    fit = np.polyval(coeffs, gaps)
    ss_res = float(np.sum((lefts - fit) ** 2))
    ss_tot = float(np.sum((lefts - lefts.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    elapsed = time.time() - tic
    ok = ratio["pass"] and r2 >= 0.99 and elapsed < 180
    record(10, "stability", ok,
           f"ratio spread {ratio['spread']:.2f}x (tol 2), linear fit R^2 {r2:.5f}, "
           f"{elapsed:.1f}s")
