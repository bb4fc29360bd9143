import numpy as np
import pytest

from roughmf.grids import TimeGrid
from roughmf.rde import (
    _cell_maps,
    doss_sussmann_solve,
    flow_jacobian,
    linear_coefficients,
    linear_flow,
    solve_backward,
    solve_driftless,
)
from roughmf.roughpath import STRAT, NoisePath, RoughPath, brownian_lift

from conftest import doss_sussmann_oracle, milstein_oracle, picard_validate, random_rough_path


def scalar_lift(seed=0, cells=1 << 12, fine_per=8, T=1.0):
    noise = NoisePath.generate(seed, TimeGrid.regular(0.0, T, cells * fine_per), 1)
    return noise, brownian_lift(noise, TimeGrid.regular(0.0, T, cells), STRAT)


GEOM = linear_coefficients(np.ones((1, 1, 1)))  # sigma(y) = y, scalar


def test_linear_coefficients_validation():
    with pytest.raises(ValueError):
        linear_coefficients(np.ones((2, 2)))  # does not say which axis acts on y
    with pytest.raises(ValueError):
        linear_coefficients(np.ones((2, 2, 3)))


# ---------------------------------------------------------------------------
# driftless solves against closed forms
# ---------------------------------------------------------------------------

def test_geometric_rde_exact_solution():
    # dY = Y dX (Stratonovich lift) has Y_t = xi exp(X_t)
    _, rp = scalar_lift(0)
    xi = 0.7
    sol = solve_driftless(GEOM, rp, xi)
    ref = xi * np.exp(rp.values[:, 0])
    rel = np.max(np.abs(sol.Y[:, 0] - ref) / np.maximum(np.abs(ref), 1e-12))
    assert rel <= 1e-3, rel


def test_geometric_rde_order():
    # refining the grid shrinks the sup-norm error (median over seeds; a
    # single path's endpoint error has a random sign and can cancel)
    errs = np.empty((5, 3))
    for s in range(5):
        for c, cells in enumerate((1 << 8, 1 << 10, 1 << 12)):
            noise, rp = scalar_lift(s, cells=cells, fine_per=(1 << 15) // cells)
            sol = solve_driftless(GEOM, rp, 1.0)
            errs[s, c] = np.max(np.abs(sol.Y[:, 0] - np.exp(rp.values[:, 0])))
    med = np.median(errs, axis=0)
    assert med[2] < med[1] < med[0], med


def test_additive_noise_exact():
    # sigma = const matrix: Y = xi + A X_t with zero scheme error
    rp = random_rough_path(1)
    A = np.array([[1.0, -2.0], [0.5, 3.0]])
    coeff = linear_coefficients(np.zeros((2, 2, 2)), a1=lambda t: A)
    sol = solve_driftless(coeff, rp, np.zeros(2))
    assert np.max(np.abs(sol.Y - rp.values @ A.T)) <= 1e-12
    assert sol.integral_defect() <= 1e-12


def test_driftless_linearity_in_initial_condition():
    rp = random_rough_path(2, cells=128)
    a0 = np.random.default_rng(0).normal(size=(2, 2, 2)) * 0.3
    coeff = linear_coefficients(a0)
    x1, x2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    s1 = solve_driftless(coeff, rp, x1).Y
    s2 = solve_driftless(coeff, rp, x2).Y
    s12 = solve_driftless(coeff, rp, 2 * x1 - 3 * x2).Y
    assert np.allclose(s12, 2 * s1 - 3 * s2, atol=1e-10)


def test_integral_defect_small_on_brownian_driver():
    _, rp = scalar_lift(4, cells=1 << 10, fine_per=8)
    sol = solve_driftless(GEOM, rp, 1.0)
    assert sol.integral_defect() <= 1e-3


# ---------------------------------------------------------------------------
# backward solve and flow Jacobians
# ---------------------------------------------------------------------------

def test_backward_inverts_forward():
    _, rp = scalar_lift(5, cells=1 << 11)
    xi = 1.3
    fwd = solve_driftless(GEOM, rp, xi)
    back = solve_backward(GEOM, rp, fwd.Y[-1], 0.0, 1.0)
    assert abs(back.Y[0, 0] - xi) <= 5e-3
    assert back.Y.shape == fwd.Y.shape


def test_backward_partial_window():
    rp = random_rough_path(6, cells=64)
    a0 = np.random.default_rng(1).normal(size=(2, 2, 2)) * 0.2
    coeff = linear_coefficients(a0)
    fwd = solve_driftless(coeff, rp, np.array([1.0, -1.0]))
    s, t = rp.times[16], rp.times[48]
    back = solve_backward(coeff, rp, fwd.Y[48], float(s), float(t))
    assert back.Y.shape[0] == 33
    assert np.max(np.abs(back.Y[0] - fwd.Y[16])) <= 5e-3


def test_backward_needs_one_cell():
    rp = random_rough_path(6, cells=8)
    s = float(rp.times[3])
    with pytest.raises(ValueError, match="requires s < t"):
        solve_backward(GEOM, rp, 1.0, s, s)
    with pytest.raises(ValueError, match="requires s < t"):
        solve_backward(GEOM, rp, 1.0, float(rp.times[5]), s)


def test_jacobian_matches_closed_form_geometric():
    _, rp = scalar_lift(7, cells=1 << 10)
    zeta = flow_jacobian(GEOM, rp, 2.0)
    ref = np.exp(rp.values[:, 0])  # d/dxi (xi e^X) = e^X
    assert np.max(np.abs(zeta[:, 0, 0] - ref) / np.abs(ref)) <= 1e-3


def test_jacobian_matches_finite_difference():
    rp = random_rough_path(8, cells=128)
    a0 = np.random.default_rng(2).normal(size=(2, 2, 2)) * 0.3
    coeff = linear_coefficients(a0)
    xi = np.array([0.4, -0.2])
    zeta = flow_jacobian(coeff, rp, xi)
    eps = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = eps
        col = (
            solve_driftless(coeff, rp, xi + e).Y[-1]
            - solve_driftless(coeff, rp, xi - e).Y[-1]
        ) / (2 * eps)
        assert np.max(np.abs(zeta[-1][:, j] - col)) <= 1e-6


def test_forward_backward_jacobians_compose_to_identity():
    _, rp = scalar_lift(9, cells=1 << 11)
    fz = flow_jacobian(GEOM, rp, 1.0)
    bz = flow_jacobian(GEOM, rp, solve_driftless(GEOM, rp, 1.0).Y[-1], "backward")
    prod = bz[0] @ fz[-1]  # grad Psi . grad Phi at the endpoint
    assert np.max(np.abs(prod - np.eye(1))) <= 1e-2


@pytest.mark.parametrize("d", [1, 2, 3])
def test_solves_match_per_cell_milstein_oracle(d):
    # forward and partial-window backward solves, and both Jacobians, of
    # the affine field sigma(t, y) = a0 . y + a1_k on cell k, against the
    # per-point Milstein march
    n, i, j = 32, 8, 24
    rng = np.random.default_rng(20 + d)
    rp = random_rough_path(20 + d, cells=n, d=d)
    a0 = rng.normal(size=(d, d, d)) * 0.3
    table = rng.normal(size=(n + 1, d, d))
    coeff = linear_coefficients(a0, lambda c: table[c])
    y0 = rng.normal(size=d)
    fwd = solve_driftless(coeff, rp, y0)
    assert np.allclose(fwd.Y, milstein_oracle(a0, table, rp, y0, 0, n), rtol=1e-12, atol=0)
    back = solve_backward(coeff, rp, fwd.Y[j], float(rp.times[i]), float(rp.times[j]))
    want = milstein_oracle(a0, table, rp, fwd.Y[j], i, j, backward=True)
    assert np.allclose(back.Y, want, rtol=1e-12, atol=0)
    # the oracle's maps are affine: Jacobian column m is the march from e_m
    # less the march from 0
    eye = np.eye(d)
    for direction, backward, start in (("forward", False, 0), ("backward", True, n)):
        base = milstein_oracle(a0, table, rp, np.zeros(d), 0, n, backward)
        cols = [milstein_oracle(a0, table, rp, eye[m], 0, n, backward) - base for m in range(d)]
        zeta = flow_jacobian(coeff, rp, y0, direction)
        assert np.allclose(zeta, np.stack(cols, axis=-1), rtol=1e-12, atol=1e-12), direction
        assert np.array_equal(zeta[start], eye)


def test_node_m_reads_cell_min_m_and_last_cell():
    # Y' at node m is sigma on cell min(m, M - 1); a partial-window backward
    # solve keeps its nodes' cells on the parent grid
    n, i, j, d = 16, 4, 12, 2
    rng = np.random.default_rng(30)
    rp = random_rough_path(30, cells=n, d=d)
    a0 = rng.normal(size=(d, d, d)) * 0.3
    table = rng.normal(size=(n, d, d))
    coeff = linear_coefficients(a0, lambda c: table[c])
    fwd = solve_driftless(coeff, rp, rng.normal(size=d))
    back = solve_backward(coeff, rp, fwd.Y[j], float(rp.times[i]), float(rp.times[j]))
    for sol, cells in ((fwd, np.r_[np.arange(n), n - 1]), (back, np.arange(i, j + 1))):
        assert np.array_equal(sol.cells, cells)
        want = np.einsum("ikj,mj->mik", a0, sol.Y) + table[cells]
        assert np.array_equal(sol.path.Yprime, want)


def test_jacobian_rejects_unknown_direction():
    rp = random_rough_path(10, cells=8)
    with pytest.raises(ValueError):
        flow_jacobian(GEOM, rp, np.zeros(2), "sideways")


# ---------------------------------------------------------------------------
# affine flow maps and drifted solves
# ---------------------------------------------------------------------------

def test_linear_flow_reproduces_stepper():
    _, rp = scalar_lift(11, cells=256)
    Mf, vf = linear_flow(GEOM, rp)
    xi = 0.9
    sol = solve_driftless(GEOM, rp, xi)
    assert np.max(np.abs(Mf[:, 0, 0] * xi + vf[:, 0] - sol.Y[:, 0])) <= 1e-12


def test_doss_sussmann_linear_closed_form():
    # dY = -lam Y dt + Y dX  =>  Y = xi exp(X_t - lam t)
    _, rp = scalar_lift(13, cells=1 << 11)
    lam = 0.8
    coeff = linear_coefficients(np.ones((1, 1, 1)), drift=lambda c: (-lam * np.eye(1), np.zeros(1)))
    sol = doss_sussmann_solve(coeff, rp, 1.0)
    ref = np.exp(rp.values[:, 0] - lam * rp.times)
    assert np.max(np.abs(sol.Y[:, 0] - ref) / ref) <= 5e-3


def test_driftless_solves_record_no_drift():
    # sigma = y, b = -5y on 64 cells: the driftless solves do not take the
    # drift, so their solutions must not carry it; recorded, integral_defect
    # added it (1.74 forward, 1.75 backward) to a solve that never took it
    _, rp = scalar_lift(0, cells=64)
    drifted = linear_coefficients(np.ones((1, 1, 1)),
                                  drift=lambda c: (-5.0 * np.eye(1), np.zeros(1)))
    defects = {}
    for name, coeff in (("drifted", drifted), ("plain", GEOM)):
        fwd = solve_driftless(coeff, rp, 1.0)
        back = solve_backward(coeff, rp, fwd.Y[-1], 0.0, 1.0)
        assert fwd.coeff.drift is None and back.coeff.drift is None
        defects[name] = (fwd.integral_defect(), back.integral_defect())
    assert defects["drifted"] == defects["plain"]
    assert defects["plain"][0] <= 1e-15 and 1e-3 < defects["plain"][1] < 2e-3
    # the drift recorded on the same path is the 1.74 mislabel
    fwd = solve_driftless(GEOM, rp, 1.0)
    relabelled = type(fwd)(fwd.path, drifted, fwd.cells)
    assert 1.7 < relabelled.integral_defect() < 1.8
    # the drifted solve keeps its drift
    assert doss_sussmann_solve(drifted, rp, 1.0).coeff.drift is not None


def test_pure_drift_heun():
    # no noise at all: dY = -Y dt
    grid = TimeGrid.regular(0.0, 1.0, 1 << 10)
    rp_zero = brownian_lift(
        NoisePath.generate(0, TimeGrid.regular(0.0, 1.0, 1 << 13), 1),
        grid, STRAT,
    )
    rp_zero = type(rp_zero)(
        grid, np.zeros_like(rp_zero.values), np.zeros_like(rp_zero.cells), 0.4
    )
    coeff = linear_coefficients(np.zeros((1, 1, 1)), drift=lambda c: (-np.eye(1), np.zeros(1)))
    sol = doss_sussmann_solve(coeff, rp_zero, 2.0)
    assert abs(sol.Y[-1, 0] - 2.0 * np.exp(-1.0)) <= 1e-6


def test_time_dependent_drift_second_order():
    # no noise, dY = cos(t) dt from Y0 = 1: Y = 1 + sin(t), with
    # second-order convergence; cell k's drift is cos at its midpoint
    errs = []
    for cells in (1 << 6, 1 << 7):
        grid = TimeGrid.regular(0.0, 2.0, cells)
        rp = RoughPath(grid, np.zeros((cells + 1, 1)), np.zeros((cells, 1, 1)), 0.4)
        table = np.cos(grid.points[:-1] + 0.5 * grid.widths)
        coeff = linear_coefficients(
            np.zeros((1, 1, 1)), drift=lambda c: (np.zeros((1, 1)), table[c][:, None])
        )
        sol = doss_sussmann_solve(coeff, rp, 1.0)
        errs.append(np.max(np.abs(sol.Y[:, 0] - (1.0 + np.sin(grid.points)))))
    assert errs[0] <= 1e-4
    assert errs[1] <= errs[0] / 3.5


def test_integral_defect_reads_each_cells_drift_at_both_ends():
    # no noise and a drift table[c] that is constant in the state: Heun is
    # exact on each cell, so the trapezoid defect must vanish; a right end
    # read from cell c + 1 would leave about (h/2) |table jumps|
    cells = 64
    grid = TimeGrid.regular(0.0, 1.0, cells)
    rp = RoughPath(grid, np.zeros((cells + 1, 2)), np.zeros((cells, 2, 2)), 0.4)
    table = np.random.default_rng(0).normal(size=(cells, 2))
    coeff = linear_coefficients(np.zeros((2, 2, 2)), drift=lambda c: (np.zeros((2, 2)), table[c]))
    sol = doss_sussmann_solve(coeff, rp, [1.0, -1.0])
    assert np.allclose(sol.Y[1:] - sol.Y[:-1], table / cells, rtol=0, atol=1e-15)
    assert sol.integral_defect() <= 1e-12


def test_doss_sussmann_without_drift_is_the_driftless_solve():
    rp = random_rough_path(3, d=3)
    g = np.random.default_rng(3)
    a0, table = 0.5 * g.normal(size=(3, 3, 3)), g.normal(size=(64, 3, 3))
    coeff = linear_coefficients(a0, lambda c: table[c])
    y0 = g.normal(size=3)
    ds, plain = doss_sussmann_solve(coeff, rp, y0), solve_driftless(coeff, rp, y0)
    assert np.array_equal(ds.Y, plain.Y)
    assert np.array_equal(ds.path.Yprime, plain.path.Yprime)


def test_blowup_guard_trips():
    # sigma(y) = 40 y on a driver that rises by 1 per cell: each cell map
    # multiplies Y by 1 + 40 + 40^2 / 2 = 841, so |Y| passes 1e8 at step 2
    cells = 64
    grid = TimeGrid.regular(0.0, 1.0, cells)
    rp = RoughPath(grid, np.arange(cells + 1.0)[:, None], np.full((cells, 1, 1), 0.5), 0.4)
    coeff = linear_coefficients(np.full((1, 1, 1), 40.0))
    with pytest.raises(RuntimeError, match="guard tripped at step 2:"):
        solve_driftless(coeff, rp, 1.0)
    with pytest.raises(RuntimeError, match=f"guard tripped at step {cells - 3}:"):
        solve_backward(coeff, rp, 1.0, 0.0, 1.0)
    # the drift b = -y barely slows the growth: the drifted solve guards Y,
    # not a transformed state, and trips at the same step
    drifted = linear_coefficients(np.full((1, 1, 1), 40.0),
                                  drift=lambda c: (-np.eye(1), np.zeros(1)))
    with pytest.raises(RuntimeError, match="guard tripped at step 2:"):
        doss_sussmann_solve(drifted, rp, 1.0)


def test_doss_sussmann_matches_conjugate_heun_on_a_random_affine_drift():
    # Heun's affine cell maps against Heun on the conjugate z, Y = M z + v,
    # with every flow map composed and inverted: equal in exact arithmetic,
    # for a drift different on every cell (the frozen-law fields are in
    # test_cocycle)
    d, cells = 3, 64
    g = np.random.default_rng(41)
    rp = random_rough_path(41, cells=cells, d=d)
    a0, table = 0.5 * g.normal(size=(d, d, d)), g.normal(size=(cells, d, d))
    B, beta = g.normal(size=(cells, d, d)), g.normal(size=(cells, d))
    coeff = linear_coefficients(a0, lambda c: table[c], lambda c: (B[c], beta[c]))
    y0 = g.normal(size=d)
    got, want = doss_sussmann_solve(coeff, rp, y0).Y, doss_sussmann_oracle(coeff, rp, y0)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("backward", [False, True])
def test_cell_maps_are_the_einsum_of_the_fixed_path(d, backward):
    # the written-out second-level products equal, bitwise, np.einsum on the
    # contraction orders its greedy path picks for grids of 32 cells or
    # more, at every cell count
    g = np.random.default_rng(d)
    for cells in (1, 8, 32, 100):
        rp = random_rough_path(d + cells, cells=cells, d=d)
        a0 = g.normal(size=(d, d, d))
        for table in (g.normal(size=(cells, d, d)), g.normal(size=(d, d))):
            coeff = linear_coefficients(a0, lambda c, t=table: t if t.ndim == 2 else t[c])
            P, q = _cell_maps(coeff, rp, 0, cells, backward)
            x, xx = np.diff(rp.values, axis=0), rp.cells
            A1 = np.broadcast_to(coeff.a1(np.arange(cells)), (cells, d, d))
            if backward:
                xx = (np.einsum("cl,ck->clk", x, x) - xx)[::-1]
                x, A1 = -x[::-1], A1[::-1]
            want_P = np.eye(d) + np.einsum("ikj,ck->cij", a0, x) + np.einsum(
                "ikj,jlm,clk->cim", a0, a0, xx, optimize=["einsum_path", (0, 1), (0, 1)])
            want_q = np.einsum("cik,ck->ci", A1, x) + np.einsum(
                "ikj,cjl,clk->ci", a0, A1, xx, optimize=["einsum_path", (1, 2), (0, 1)])
            assert np.array_equal(P, want_P) and np.array_equal(q, want_q), cells


# ---------------------------------------------------------------------------
# Picard validation (the reference iteration lives in conftest)
# ---------------------------------------------------------------------------

def test_picard_agrees_with_stepper():
    _, rp = scalar_lift(16, cells=1 << 9, T=0.25)
    cp = picard_validate(GEOM, rp, 1.0, iters=12)
    sol = solve_driftless(GEOM, rp, 1.0)
    assert np.max(np.abs(cp.Y - sol.Y)) <= 5e-3
