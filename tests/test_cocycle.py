import weakref

import numpy as np
import pytest

from roughmf import cocycle, meanfield, rng
from roughmf.cocycle import (
    FlowRun,
    JointState,
    cocycle_defect,
    continuity_probe,
    flow_details,
    frozen_coefficient_field,
    wong_zakai_run,
)
from roughmf.grids import TimeGrid
from roughmf.meanfield import FrozenLawConfig, simulate_frozen_law
from roughmf.measures import EmpiricalMeasure
from roughmf.models import build_model
from roughmf.rde import (
    RdeSolution,
    doss_sussmann_solve,
    linear_coefficients,
    solve_backward,
    solve_driftless,
)
from roughmf.roughpath import STRAT, NoisePath, brownian_lift

from conftest import doss_sussmann_oracle, random_rough_path, rk4_oracle


def make_run(seed=0, n=100, n_freeze=8, T=1.0, model_name="eks-gaussian", inner=2,
             rde_per_freeze=1):
    params = {"Sigma": np.diag([1.0, 4.0])} if model_name == "eks-gaussian" else None
    model = build_model(model_name, params)
    cfg = FrozenLawConfig(n_freeze, inner=inner, seed=seed)
    mu0 = EmpiricalMeasure(np.random.default_rng(seed).normal(size=(n, model.d)))
    run = FlowRun(model, cfg, T, rde_per_freeze=rde_per_freeze)
    e0 = JointState(np.zeros(model.d), mu0)
    return run, e0


def test_joint_state_validation():
    mu = EmpiricalMeasure(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        JointState(np.zeros(3), mu)
    e = JointState([1.0, 2.0], mu)
    assert e.point.shape == (2,)


def test_frozen_field_piecewise_constant():
    model = build_model("landau-maxwell")
    mu0 = EmpiricalMeasure(np.random.default_rng(0).normal(size=(50, 3)))
    curve = simulate_frozen_law(model, mu0, FrozenLawConfig(4, seed=0), T=1.0)
    coeff = frozen_coefficient_field(model, curve, 40)  # 10 rough cells per window
    y = np.array([0.1, -0.2, 0.3])
    # a1 is constant inside a freeze window and jumps across the boundary
    assert np.array_equal(coeff.a1(12), coeff.a1(19))
    assert not np.array_equal(coeff.a1(19), coeff.a1(20))
    # an array of cells reads one row per cell
    assert np.array_equal(coeff.a1(np.array([12, 19, 20])), np.stack(
        [coeff.a1(12), coeff.a1(19), coeff.a1(20)]))
    # a1 is the window's state-free sigma, a0 the model's state-linear part
    zero = np.zeros((1, 3))
    assert np.array_equal(coeff.a1(4), model.sigma(zero, curve.measures[0])[0])
    assert np.array_equal(coeff.a0, model.a0)
    assert np.allclose(
        np.einsum("ikj,j->ik", coeff.a0, y) + coeff.a1(4),
        model.sigma(y[None], curve.measures[0])[0],
    )
    # the drift table reads the same window as a1
    (B, c), (B3, c3) = coeff.drift(np.array([39, 29])), model.drift(curve.measures[3])
    assert np.array_equal(B[0], B3) and np.array_equal(c[0], c3)
    assert not np.array_equal(c[0], c[1])


@pytest.mark.parametrize("model_name", ["eks-gaussian", "landau-maxwell"])
def test_drifted_solve_matches_conjugate_heun_on_frozen_fields(model_name):
    # the point solve of every leg against Heun on the conjugate z,
    # Y = M z + v, with every flow map composed and inverted
    model = build_model(model_name)
    g = np.random.default_rng(40)
    mu0 = EmpiricalMeasure(g.normal(size=(50, model.d)))
    curve = simulate_frozen_law(model, mu0, FrozenLawConfig(8, seed=40), T=1.0)
    coeff = frozen_coefficient_field(model, curve, 64)
    rp = random_rough_path(40, cells=64, d=model.d)
    y0 = g.normal(size=model.d)
    got, want = doss_sussmann_solve(coeff, rp, y0).Y, doss_sussmann_oracle(coeff, rp, y0)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_frozen_field_rejects_cells_that_do_not_nest():
    model = build_model("landau-maxwell")
    mu0 = EmpiricalMeasure(np.random.default_rng(0).normal(size=(20, 3)))
    curve = simulate_frozen_law(model, mu0, FrozenLawConfig(4, seed=0), T=1.0)
    for cells in (0, 2, 6, 10):
        with pytest.raises(ValueError, match="do not nest in 4 freeze windows"):
            frozen_coefficient_field(model, curve, cells)


def backward_return_error(model_name, cells_per_window):
    """|Y_0 - xi| after solving forward from xi and backward from Y_T on the
    frozen-law field of a 16-window curve."""
    params = {"Sigma": np.diag([1.0, 4.0])} if model_name == "eks-gaussian" else None
    model = build_model(model_name, params)
    mu0 = EmpiricalMeasure(np.random.default_rng(0).normal(size=(500, model.d)))
    curve = simulate_frozen_law(model, mu0, FrozenLawConfig(16, seed=0), T=1.0)
    cells = 16 * cells_per_window
    coeff = frozen_coefficient_field(model, curve, cells)
    noise = NoisePath.generate(3, TimeGrid.regular(0.0, 1.0, 8 * cells), model.d)
    rp = brownian_lift(noise, TimeGrid.regular(0.0, 1.0, cells), STRAT)
    xi = np.linspace(0.5, -0.5, model.d)
    fwd = solve_driftless(coeff, rp, xi)
    back = solve_backward(coeff, rp, fwd.Y[-1], 0.0, 1.0)
    return float(np.max(np.abs(back.Y[0] - xi)))


@pytest.mark.parametrize("cells_per_window", [1, 8])
def test_backward_cells_read_their_own_window_eks(cells_per_window):
    # EKS sigma is state-free, so a backward cell that reads the forward
    # cell's sigma undoes it exactly; the next window's sigma would not
    assert backward_return_error("eks-gaussian", cells_per_window) <= 1e-13


def test_backward_return_error_shrinks_with_cells_landau():
    # state-linear sigma: the inverted cell undoes the forward one to
    # Milstein order, so refining each window's cells shrinks the error
    assert backward_return_error("landau-maxwell", 8) < 0.5 * backward_return_error(
        "landau-maxwell", 1
    )


def test_flow_horizon_must_sit_on_freeze_grid():
    run, e0 = make_run()
    for t in (0.0, 0.3, 1.5):
        with pytest.raises(ValueError):
            flow_details(run, e0, t)
    for k0, k1 in ((2, 2), (3, 2), (-1, 2), (4, 9)):
        with pytest.raises(ValueError, match="not a leg"):
            run.leg(e0, k0, k1)


def test_flow_details_state_lookup():
    run, e0 = make_run(n=60, n_freeze=4, rde_per_freeze=2)
    det = flow_details(run, e0, 1.0)
    end = det.state_at(4)
    assert np.array_equal(end.point, det.solution.Y[-1])
    assert end.law is det.curve.measures[-1]
    # window edge k is solution node k * rde_per_freeze
    mid = det.state_at(2)
    assert np.array_equal(mid.point, det.solution.Y[2 * run.rde_per_freeze])
    assert mid.law is det.curve.measures[2]


@pytest.mark.parametrize("model_name", ["eks-gaussian", "landau-maxwell"])
@pytest.mark.parametrize("inner, fine_per, per_freeze", [(3, 2, 2), (1, None, None)])
def test_one_shot_curve_is_the_frozen_law_run(model_name, inner, fine_per, per_freeze):
    # verify's moments, duality and stability checks read this curve in
    # place of their own simulate_frozen_law run: same block, times and step
    n_freeze, T = 6, 0.9
    fine = None if fine_per is None else fine_per * n_freeze * inner
    params = {"Sigma": np.array([[2.0, 0.5], [0.5, 1.0]])} if model_name == "eks-gaussian" else None
    model = build_model(model_name, params)
    cfg = FrozenLawConfig(n_freeze, inner=inner, seed=3, fine_cells=fine)
    rde = {} if per_freeze is None else {"rde_per_freeze": per_freeze}  # None: the default
    run = FlowRun(model, cfg, T, **rde)
    mu0 = EmpiricalMeasure(np.random.default_rng(3).normal(size=(40, model.d)))
    curve = flow_details(run, JointState(mu0.atoms[0], mu0), T).curve
    ref = simulate_frozen_law(model, mu0, cfg, T)
    assert curve.times.tobytes() == ref.times.tobytes()
    assert curve.meta == ref.meta
    assert len(curve.measures) == len(ref.measures) == n_freeze + 1
    for a, b in zip(curve.measures, ref.measures):
        assert a.atoms.tobytes() == b.atoms.tobytes()
        assert a.weights.tobytes() == b.weights.tobytes()


def test_driver_noise_cached():
    run, _ = make_run()
    assert run.driver_noise() is run.driver_noise()


def test_law_noise_cached_per_ensemble_size():
    run, _ = make_run()
    block = run.law_noise(30)
    assert block.shape == (run.cfg.steps, 2, 30)
    assert run.law_noise(30) is block
    other = run.law_noise(20)
    assert other.shape == (run.cfg.steps, 2, 20)
    assert np.array_equal(other, block[..., :20])


def test_driver_lifted_once_per_run(monkeypatch):
    run, e0 = make_run(seed=4, n=30, n_freeze=5, T=0.9, inner=3)
    lifts = []
    lift = cocycle.brownian_lift
    monkeypatch.setattr(cocycle, "brownian_lift",
                        lambda *a, **k: lifts.append(1) or lift(*a, **k))
    det = flow_details(run, e0, 0.9)
    for s, t in [(0.18, 0.54), (0.36, 0.36), (0.72, 0.18), (0.0, 0.9)]:
        cocycle_defect(run, e0, s, t, details=det)
    cocycle_defect(run, e0, 0.18, 0.36)  # its own one-shot run on [0, 0.54]
    flow_details(run, e0, 0.36)
    assert len(lifts) == 1


def test_restart_leg_reads_the_run_lift_by_index():
    run, e0 = make_run(seed=2, n=30, n_freeze=5, T=0.9, inner=3, rde_per_freeze=2)
    det = flow_details(run, e0, 0.9)
    assert det.rough.grid.n_cells == run.rough.grid.n_cells
    for ks, k1 in [(1, 3), (2, 5), (4, 5)]:
        leg = run.leg(det.state_at(ks), ks, k1)
        i, j = 2 * ks, 2 * k1
        assert np.array_equal(leg.rough.cells, run.rough.cells[i:j])
        assert np.array_equal(leg.rough.grid.widths, run.rough.grid.widths[i:j])
        assert np.array_equal(leg.rough.times, run.rough.times[i : j + 1])
        assert np.array_equal(leg.rough.values,
                              run.rough.values[i : j + 1] - run.rough.values[i])
        # the law curve carries the one-shot's times at the same edges
        assert leg.curve.times.tobytes() == det.curve.times[ks : k1 + 1].tobytes()
        assert len(leg.curve.measures) == k1 - ks + 1


def test_particle_streams_drawn_once_per_run(monkeypatch):
    run, e0 = make_run(seed=4, n=30)
    lanes = []
    streams = rng.streams

    def counting(seed, lane, members):
        lanes.extend([lane] * len(members))  # one entry per stream addressed
        return streams(seed, lane, members)

    monkeypatch.setattr(rng, "streams", counting)
    det = flow_details(run, e0, 1.0)
    for s, t in [(0.25, 0.5), (0.5, 0.5), (0.75, 0.25), (0.0, 1.0)]:
        cocycle_defect(run, e0, s, t, details=det)
    assert lanes.count(rng.PARTICLE_LANE) == e0.law.n


def test_self_defect_computed_once(monkeypatch):
    run, e0 = make_run(seed=5, n=30, n_freeze=4)
    det = flow_details(run, e0, 1.0)
    calls = []
    defect = RdeSolution.integral_defect

    def counting(self):
        calls.append(self)
        return defect(self)

    monkeypatch.setattr(RdeSolution, "integral_defect", counting)
    reps = [cocycle_defect(run, e0, s, t, details=det)
            for s, t in [(0.25, 0.5), (0.5, 0.5), (0.0, 1.0)]]
    assert len(calls) == 1
    assert {r["self_defect"] for r in reps} == {defect(det.solution)}


# the last layout's legs run 20 to 140 rough cells, across the point
# march's 64-cell blocks, which must be anchored at each leg's start
PREFIX_RUNS = [dict(n_freeze=8, T=1.0, inner=2), dict(n_freeze=5, T=0.9, inner=3, rde_per_freeze=2),
               dict(n_freeze=8, T=1.0, inner=1, rde_per_freeze=20)]


@pytest.mark.parametrize("model_name", ["eks-gaussian", "landau-maxwell"])
@pytest.mark.parametrize("layout", PREFIX_RUNS)
def test_leg_state_does_not_depend_on_its_end(model_name, layout):
    # a leg marches forward, so a restart run to the end holds every
    # shorter restart from the same window as a bitwise prefix
    run, e0 = make_run(seed=6, n=40, model_name=model_name, **layout)
    K = run.cfg.n_freeze
    det = flow_details(run, e0, run.T)
    for ks in range(1, K):
        e = det.state_at(ks)
        full = run.leg(e, ks, K)
        for kt in range(1, K - ks + 1):
            short = run.leg(e, ks, ks + kt).state_at(kt)
            long = full.state_at(kt)
            assert np.array_equal(long.point, short.point), (ks, kt)
            assert np.array_equal(long.law.atoms, short.law.atoms), (ks, kt)


@pytest.mark.parametrize("model_name", ["eks-gaussian", "landau-maxwell"])
@pytest.mark.parametrize("layout", PREFIX_RUNS)
def test_cocycle_reports_do_not_depend_on_the_one_shot_horizon(model_name, layout):
    # read off the restart to the one-shot's end, or off the run of its own
    # one-shot on [0, s + t] whose restart ends at s + t: the same bits
    run, e0 = make_run(seed=7, n=40, model_name=model_name, **layout)
    K, delta = run.cfg.n_freeze, run.T / run.cfg.n_freeze
    det = flow_details(run, e0, run.T)
    keys = ("point_defect", "law_defect", "law_upper")
    for ks in range(1, K):
        for kt in range(1, K - ks + 1):
            got = cocycle_defect(run, e0, ks * delta, kt * delta, details=det)
            own = cocycle_defect(run, e0, ks * delta, kt * delta)
            assert [got[k] for k in keys] == [own[k] for k in keys], (ks, kt)
            assert got["law_defect"] == 0.0


def test_one_restart_per_restart_window(monkeypatch):
    # criterion 6's pattern: 16 pairs (s, t) over 4 restart times, read
    # off one one-shot run and one restart per s, which runs as far as
    # it is read: each Euler step of a restart runs once
    run, e0 = make_run(seed=8, n=30, n_freeze=8, inner=1)
    steps = []
    step = meanfield._euler_step
    monkeypatch.setattr(meanfield, "_euler_step",
                        lambda *a: steps.append(1) or step(*a))
    det = flow_details(run, e0, 1.0)
    for s8 in (1, 2, 3, 4):
        for t8 in (1, 2, 3, 4):
            cocycle_defect(run, e0, s8 / 8, t8 / 8, details=det)
    assert len(steps) == 8 + 4 * 4


def test_restart_keeps_only_the_last_one_asked_for(monkeypatch):
    run, e0 = make_run(seed=9, n=30, n_freeze=4)
    det = flow_details(run, e0, 1.0)
    first = det.restart(1, 1)
    assert det.restart(1, 1) is first
    assert (first.k0, first.k1) == (1, 2)  # run as far as it is read
    longer = det.restart(1, 3)  # a later, further read extends it
    assert (longer.k0, longer.k1) == (1, 4) and first.k1 == 2
    assert det.restart(1, 2) is longer and det.restart(1, 1) is longer
    second = det.restart(2, 1)
    assert second is not longer and det.restart(2, 1) is second
    assert det.restart(1, 1) is not first  # the slot held only ks = 2
    other = flow_details(run, e0, 1.0)  # equal values, another one-shot
    assert other.restart(1, 1) is not det.restart(1, 1)
    for ks, kt in [(1, 0), (2, 3), (-1, 1)]:
        with pytest.raises(ValueError, match="does not fit"):
            det.restart(ks, kt)
    # the kept leg is let go before the next one runs: one at a time
    held = weakref.ref(det.restart(3, 1))
    leg, alive = FlowRun.leg, []
    monkeypatch.setattr(FlowRun, "leg",
                        lambda self, *a: alive.append(held() is not None) or leg(self, *a))
    det.restart(2, 1)
    assert alive == [False]


@pytest.mark.parametrize("model_name", ["eks-gaussian", "landau-maxwell"])
@pytest.mark.parametrize("layout", PREFIX_RUNS)
def test_restart_read_in_any_order_is_the_leg_run_in_one_go(model_name, layout):
    # ascending reads extend the kept restart window by window, descending
    # ones read prefixes of it, shuffled ones mix both: every state is
    # bitwise that of the leg from the same state run in one go
    run, e0 = make_run(seed=10, n=40, model_name=model_name, **layout)
    K = run.cfg.n_freeze
    det = flow_details(run, e0, run.T)
    shuffle = np.random.default_rng(10).permutation
    for order in (sorted, lambda kts: kts[::-1], lambda kts: list(shuffle(kts))):
        for ks in range(1, K):
            e = det.state_at(ks)
            for kt in order(list(range(1, K - ks + 1))):
                got = det.restart(ks, kt)
                want = run.leg(e, ks, ks + kt)
                assert np.array_equal(got.state_at(kt).point, want.state_at(kt).point), (ks, kt)
                assert np.array_equal(got.curve.times[: kt + 1], want.curve.times), (ks, kt)
                for a, b in zip(got.curve.measures, want.curve.measures):
                    assert np.array_equal(a.atoms, b.atoms), (ks, kt)
                    assert a.weights is det.curve.measures[0].weights


# ---------------------------------------------------------------------------
# cocycle property
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model_name", ["eks-gaussian", "landau-maxwell"])
def test_cocycle_law_defect_exactly_zero(model_name):
    # the restart replays the one-shot's Euler steps to the bit, on window
    # grids whose times are not dyadic fractions as on those that are
    for T, n_freeze, inner in [(1.0, 8, 2), (0.9, 5, 3), (0.1, 7, 1)]:
        run, e0 = make_run(seed=1, n=80, n_freeze=n_freeze, T=T, model_name=model_name,
                           inner=inner)
        det = flow_details(run, e0, T)
        delta = T / n_freeze
        for ks in range(1, n_freeze):
            for kt in range(1, n_freeze - ks + 1):
                out = cocycle_defect(run, e0, ks * delta, kt * delta, details=det)
                assert out["law_defect"] == 0.0, (T, n_freeze, inner, ks, kt)
                assert out["law_upper"] == 0.0


def test_cocycle_point_defect_within_scheme_scale():
    run, e0 = make_run(seed=2, n=80)
    det = flow_details(run, e0, 1.0)
    for s, t in [(0.25, 0.75), (0.5, 0.5), (0.75, 0.25)]:
        out = cocycle_defect(run, e0, s, t, details=det)
        assert out["point_defect"] <= 3.0 * out["self_defect"], out


def test_cocycle_trivial_legs():
    run, e0 = make_run(seed=3, n=40, n_freeze=4)
    det = flow_details(run, e0, 1.0)
    for s, t in [(0.0, 1.0), (1.0, 0.0)]:
        out = cocycle_defect(run, e0, s, t, details=det)
        assert out["point_defect"] == 0.0 and out["law_defect"] == 0.0


def test_cocycle_off_grid_rejected():
    run, e0 = make_run(n=20, n_freeze=4)
    with pytest.raises(ValueError):
        cocycle_defect(run, e0, 0.3, 0.7)
    det = flow_details(run, e0, 0.75)
    for ks, kt in [(2, 2), (-1, 2), (1, -1)]:
        with pytest.raises(ValueError, match="do not fit the one-shot's 3 windows"):
            cocycle.cocycle_defect_at(run, e0, ks, kt, details=det)


# ---------------------------------------------------------------------------
# Wong-Zakai
# ---------------------------------------------------------------------------

def wz_setup(seed, fine=1 << 10):
    noise = NoisePath.generate(seed, TimeGrid.regular(0.0, 1.0, fine), 1)
    coeff = linear_coefficients(np.ones((1, 1, 1)))  # sigma(y) = y
    return noise, coeff


def test_wz_level_alignment():
    noise, coeff = wz_setup(0, fine=100)
    with pytest.raises(ValueError):
        wong_zakai_run(coeff, noise, 3, False, 1.0)


def test_wz_uncorrected_targets_stratonovich():
    noise, coeff = wz_setup(1)
    ts, Y = wong_zakai_run(coeff, noise, 8, False, 1.0)
    W = noise.values()[:, 0]
    strat = np.exp(W)
    ito = np.exp(W - 0.5 * ts)
    err_s = np.mean((Y[:, 0] - strat) ** 2)
    err_i = np.mean((Y[:, 0] - ito) ** 2)
    assert err_s < err_i


def test_wz_corrected_targets_ito():
    noise, coeff = wz_setup(2)
    ts, Y = wong_zakai_run(coeff, noise, 8, True, 1.0)
    W = noise.values()[:, 0]
    strat = np.exp(W)
    ito = np.exp(W - 0.5 * ts)
    assert np.mean((Y[:, 0] - ito) ** 2) < np.mean((Y[:, 0] - strat) ** 2)


def test_wz_defect_halves_per_level():
    # time-averaged squared deviation from the limit trajectory, median
    # ratio over seeds about 2^{-1} per dyadic level
    ratios = []
    for seed in range(5):
        noise, coeff = wz_setup(seed, fine=1 << 12)
        W = noise.values()[:, 0]
        strat = np.exp(W)
        defects = []
        for level in (5, 6, 7, 8):
            _, Y = wong_zakai_run(coeff, noise, level, False, 1.0)
            defects.append(np.mean((Y[:, 0] - strat) ** 2))
        defects = np.array(defects)
        ratios.append(defects[1:] / defects[:-1])
    med = np.median(np.array(ratios), axis=0)
    assert np.all(med <= 0.8), med


@pytest.mark.parametrize("corrected", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_wz_matches_stagewise_rk4_oracle(d, corrected):
    gen = np.random.default_rng(d)
    M, level = 256, 4
    noise = NoisePath.generate(7 + d, TimeGrid.regular(0.0, 1.0, M), d)
    a0 = 0.4 * gen.standard_normal((d, d, d))
    table = 0.5 * gen.standard_normal((M, d, d))
    coeff = linear_coefficients(a0, lambda c: table[c])
    y0 = gen.standard_normal(d)
    ts, Y = wong_zakai_run(coeff, noise, level, corrected, y0)
    want = rk4_oracle(a0, table, noise, level, corrected, y0)
    assert np.array_equal(ts, noise.fine_grid.points)
    assert np.linalg.norm(Y - want) <= 1e-10 * np.linalg.norm(want)


def test_wz_guard_names_the_step():
    # unit increments and sigma = 40 y: each cell multiplies y by
    # 1 + 40 + 40^2/2 + 40^3/6 + 40^4/24 ~ 1.2e5, past 1e8 on the second cell
    grid = TimeGrid.regular(0.0, 1.0, 8)
    noise = NoisePath(grid, np.ones((8, 1)))
    coeff = linear_coefficients(40.0 * np.ones((1, 1, 1)))
    with pytest.raises(RuntimeError, match="guard tripped at step 1:"):
        wong_zakai_run(coeff, noise, 3, False, 1.0)


def test_wz_rejects_a_drift():
    noise, _ = wz_setup(0, fine=64)
    drifted = linear_coefficients(np.ones((1, 1, 1)), drift=lambda c: (-np.eye(1), np.zeros(1)))
    with pytest.raises(ValueError, match="driftless"):
        wong_zakai_run(drifted, noise, 3, False, 1.0)


# ---------------------------------------------------------------------------
# continuity of the flow
# ---------------------------------------------------------------------------

def test_continuity_probe_slopes():
    run, e0 = make_run(seed=4, n=60, n_freeze=4)
    out = continuity_probe(run, e0, 4, epsilons=(1e-1, 1e-2, 1e-3))
    for channel in ("point", "law", "noise"):
        rec = out[channel]
        assert np.all(np.diff(rec["dist"]) < 0)  # smaller input gap, smaller output
        assert rec["slope"] > 0.5, (channel, rec)
