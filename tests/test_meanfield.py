import io
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from roughmf import meanfield, measures, rng
from roughmf.meanfield import (
    FrozenLawConfig,
    MeasureCurve,
    euler_increments,
    feynman_kac_duality,
    particle_noise,
    save_curve,
    save_curve_summary,
    simulate_frozen_law,
    stability_check,
    time_regularity_check,
    weak_solution_residual,
)
from roughmf.measures import (
    EmpiricalMeasure,
    ScalarFunc,
    dp_bracket,
    linear_func,
    moment,
    wasserstein_p,
)
from roughmf.models import (
    build_model,
    covariance,
    eks_gaussian_moment_ode,
    landau_moment_oracle,
)


def gauss_init(seed, n, d, cov=None):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    if cov is not None:
        x = x @ np.linalg.cholesky(cov).T
    return EmpiricalMeasure(x)


def phi_sq(d):
    return ScalarFunc(
        "sq",
        lambda Y: np.sum(Y * Y, axis=1),
        lambda Y: 2.0 * Y,
        lambda Y: np.broadcast_to(2.0 * np.eye(d), (len(Y), d, d)),
    )


def test_config_validation():
    with pytest.raises(ValueError):
        FrozenLawConfig(0)
    with pytest.raises(ValueError):
        FrozenLawConfig(4, inner=2, fine_cells=12)  # not a multiple of 8
    cfg = FrozenLawConfig(4, inner=2)
    assert cfg.steps == 8 and cfg.fine_cells == 8


def test_config_window_index():
    cfg = FrozenLawConfig(8, inner=2, seed=3, fine_cells=64)
    assert [cfg.window_index(t, 2.0) for t in (0.0, 0.25, 1.5, 2.0)] == [0, 1, 6, 8]
    for t in (0.3, -0.25, 2.25):
        with pytest.raises(ValueError):
            cfg.window_index(t, 2.0)


def test_measure_curve_validation():
    m = EmpiricalMeasure(np.zeros((3, 1)))
    with pytest.raises(ValueError):
        MeasureCurve(np.array([0.0, 1.0]), [m])
    with pytest.raises(ValueError):
        MeasureCurve(
            np.array([0.0, 1.0]), [m, EmpiricalMeasure(np.zeros((4, 1)))]
        )


# ---------------------------------------------------------------------------
# noise streams
# ---------------------------------------------------------------------------

def test_particle_noise_tail_replay_bitwise():
    # a leg restarted at window k on the slice of the run's increment block,
    # with the run's cfg and T, ends on the full run's atoms, to the bit, on
    # window grids whose times are not dyadic fractions as on those that are
    model = build_model("landau-maxwell")
    mu0 = gauss_init(13, 40, 3)
    for T, n_freeze, inner, per, k in [(1.0, 8, 2, 3, 3), (0.9, 5, 3, 2, 2), (0.1, 7, 1, 1, 4)]:
        cfg = FrozenLawConfig(n_freeze, inner=inner, seed=6, fine_cells=n_freeze * inner * per)
        dW = euler_increments(cfg, T, mu0.n, mu0.d)
        full = simulate_frozen_law(model, mu0, cfg, T, dW=dW)
        assert np.array_equal(simulate_frozen_law(model, mu0, cfg, T).measures[-1].atoms,
                              full.measures[-1].atoms)
        for k1 in (k + 1, n_freeze):
            leg = simulate_frozen_law(model, full.measures[k], cfg, T, k,
                                      dW=dW[k * inner : k1 * inner])
            assert len(leg.measures) == k1 - k + 1
            assert leg.times.tobytes() == full.times[k : k1 + 1].tobytes()
            assert np.array_equal(leg.measures[-1].atoms, full.measures[k1].atoms)


def test_euler_increments_sum_the_fine_grid():
    cfg = FrozenLawConfig(4, inner=2, seed=1, fine_cells=24)
    dW = euler_increments(cfg, 2.0, 5, 2)
    fine = particle_noise(1, 5, 24, 2, h_fine=2.0 / 24)
    assert dW.shape == (8, 2, 5) and fine.shape == (24, 2, 5)
    assert np.array_equal(dW, fine.reshape(8, 3, 2, 5).sum(axis=1))


def test_simulate_rejects_wrong_increment_shape():
    model = build_model("eks-gaussian", {"Sigma": np.eye(2)})
    mu0 = gauss_init(14, 10, 2)
    cfg = FrozenLawConfig(4, inner=2, seed=0)
    dW = euler_increments(cfg, 1.0, 10, 2)
    longer = np.concatenate([dW, dW[:2]])
    for bad in (dW[:-1], dW[:0], longer, dW[..., :-1], dW[:, :1], dW.transpose(2, 0, 1)):
        with pytest.raises(ValueError, match="dW has shape"):
            simulate_frozen_law(model, mu0, cfg, 1.0, dW=bad)


def test_simulate_rejects_a_leg_past_the_run_end():
    model = build_model("eks-gaussian", {"Sigma": np.eye(2)})
    mu0 = gauss_init(14, 10, 2)
    cfg = FrozenLawConfig(4, inner=2, seed=0)
    dW = euler_increments(cfg, 1.0, 10, 2)
    for k0, block in ((1, dW), (3, dW[2:]), (2, dW[:6]), (-1, dW[:2])):
        with pytest.raises(ValueError, match="do not fit in the run's 4 windows"):
            simulate_frozen_law(model, mu0, cfg, 1.0, k0, dW=block)
    # the last window's leg fits, and ends at T
    leg = simulate_frozen_law(model, mu0, cfg, 1.0, 3, dW=dW[6:])
    assert leg.times.tolist() == [0.75, 1.0]


def test_particle_noise_member_offset_independent():
    a = particle_noise(0, 3, 8, 1, h_fine=0.1)
    b = particle_noise(0, 3, 8, 1, h_fine=0.1, member_offset=100)
    assert not np.array_equal(a, b)
    # offsetting by k shifts which stream each slot reads
    c = particle_noise(0, 4, 8, 1, h_fine=0.1)
    d = particle_noise(0, 3, 8, 1, h_fine=0.1, member_offset=1)
    assert np.array_equal(c[..., 1:], d)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("member_offset", [0, 5, 4097])
def test_particle_noise_equals_per_member_streams(d, member_offset):
    # one re-keyed generator draws what a fresh stream per member draws;
    # member i is column i of the time-major block, across draw batches too
    for n in (6, 2 * meanfield.NOISE_BATCH + 3):
        got = particle_noise(9, n, 40, d, h_fine=0.03, member_offset=member_offset)
        want = np.stack([
            rng.stream(9, rng.PARTICLE_LANE, member_offset + i).standard_normal((40, d))
            for i in range(n)
        ]) * np.sqrt(0.03)
        assert got.shape == (40, d, n)
        assert got.tobytes() == np.ascontiguousarray(want.transpose(1, 2, 0)).tobytes()


def test_streams_rekey_to_the_stream_address():
    for member, g in zip(range(3, 7), rng.streams(4, rng.DRIVER_LANE, range(3, 7))):
        # three of a Philox block's four words: the next member must not
        # start on the buffered fourth
        fresh = rng.stream(4, rng.DRIVER_LANE, member)
        assert g.random(3).tobytes() == fresh.random(3).tobytes()
    assert list(rng.streams(4, rng.DRIVER_LANE, range(0))) == []
    for bad in ((-1, 0, range(2)), (0, -1, range(2)), (0, 0, range(-1, 2))):
        with pytest.raises(ValueError, match="non-negative"):
            list(rng.streams(*bad))
    with pytest.raises(ValueError, match="non-negative"):
        rng.stream(-1, 0)


def _scaled_then_summed(draw, n, cfg, T, d):
    """The reference increment block: scale every member-major draw (N,
    fine_cells, d), sum each step's fine cells, and lay the block out
    time-major, (steps, d, N)."""
    per = cfg.fine_cells // cfg.steps
    summed = (draw * np.sqrt(T / cfg.fine_cells)).reshape(n, cfg.steps, per, d).sum(axis=2)
    return np.ascontiguousarray(summed.transpose(1, 2, 0))


@pytest.mark.parametrize("fine_cells", [8, 16, 128])
def test_euler_increments_equal_the_scaled_sum_bitwise(fine_cells):
    # per == 1, 2 and 16 each equal the member-major scale-then-sum formula
    # to the bit, also at d = 1 and per = 16, where numpy sums each member's
    # run of cells pairwise
    cfg = FrozenLawConfig(4, inner=2, seed=2, fine_cells=fine_cells)
    for d in (1, 3):
        draw = np.stack([
            rng.stream(2, rng.PARTICLE_LANE, 3 + i).standard_normal((fine_cells, d))
            for i in range(5)
        ])
        got = euler_increments(cfg, 1.5, 5, d, member_offset=3)
        assert got.tobytes() == _scaled_then_summed(draw, 5, cfg, 1.5, d).tobytes()


@pytest.mark.parametrize("fine_cells", [8, 16])
def test_euler_increments_map_a_negative_zero_draw_to_plus_zero(monkeypatch, fine_cells):
    # a sum over one cell maps -0.0 to +0.0; the per == 1 block does too
    class Draws:
        def __init__(self, member):
            self.member = member

        def standard_normal(self, out):
            out[...] = np.arange(out.size).reshape(out.shape) - 3.0 * self.member
            out[1, 1] = -0.0

    monkeypatch.setattr(rng, "streams", lambda seed, lane, members: map(Draws, members))
    cfg = FrozenLawConfig(4, inner=2, seed=0, fine_cells=fine_cells)
    draw = np.empty((4, fine_cells, 2))
    for m, row in enumerate(draw):
        Draws(m).standard_normal(row)
    assert np.signbit(draw).any()
    got = euler_increments(cfg, 1.0, 4, 2)
    want = _scaled_then_summed(draw, 4, cfg, 1.0, 2)
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got[got == 0.0]).any()


def test_euler_increments_at_one_cell_per_step_hold_one_block():
    # no second (N, steps, d) array: the traced peak stays below 1.2 blocks
    cfg = FrozenLawConfig(64, inner=1, seed=0)
    euler_increments(cfg, 1.0, 10, 3)  # warm the generator machinery
    block = 2000 * cfg.steps * 3 * 8
    tracemalloc.start()
    try:
        dW = euler_increments(cfg, 1.0, 2000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dW.nbytes == block
    assert peak < 1.2 * block, (peak, block)


# ---------------------------------------------------------------------------
# the particle step
# ---------------------------------------------------------------------------

STEP_MODELS = [("eks-gaussian", {"Sigma": np.array([[1.0, 0.3], [0.3, 2.0]])}),
               ("landau-maxwell", {})]


@pytest.mark.parametrize("name,params", STEP_MODELS)
@pytest.mark.parametrize("n", [1, 7, 5000])
@pytest.mark.parametrize("order", ["C", "F"])
def test_euler_step_equals_the_tensor_reference(name, params, n, order):
    # Y + h b + a1 dWT + the a0 term equals Y + h b + sigma(Y, mu) dW, with
    # dWT one step's row of a time-major block as in a run, for states in
    # either layout
    model = build_model(name, params)
    mu = gauss_init(21, 300, model.d)
    Y = np.array(gauss_init(22, n, model.d).atoms * 3.0, order=order)
    dWT = (np.random.default_rng(23).normal(size=(5, model.d, n)) * 0.1)[2]
    got = meanfield._euler_step(model, Y, mu, 0.01, dWT)
    want = Y + 0.01 * model.b(Y, mu) + np.einsum("nik,kn->ni", model.sigma(Y, mu), dWT)
    assert got.shape == (n, model.d)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_particle_step_and_rde_field_never_build_sigma(monkeypatch):
    # both layers read a0 and a1(mu); the (N, d, d) sigma is for the audits
    from roughmf.cocycle import frozen_coefficient_field
    from roughmf.models import MeanFieldModel

    def no_tensor(self, Y, mu):
        raise AssertionError("sigma(Y, mu) built")

    monkeypatch.setattr(MeanFieldModel, "sigma", no_tensor)
    for name, params in STEP_MODELS:
        model = build_model(name, params)
        mu0 = gauss_init(24, 30, model.d)
        cfg = FrozenLawConfig(4, inner=2, seed=1)
        curve = simulate_frozen_law(model, mu0, cfg, 1.0)
        meanfield.simulate_dual_sde(model, curve, mu0.atoms, cfg, 1.0, member_offset=31)
        frozen_coefficient_field(model, curve, 8)


def test_a0_fault_reaches_the_particles_and_the_rde_field():
    # one declaration: a wrong state-linear part changes both layers
    from roughmf.cocycle import frozen_coefficient_field
    from roughmf.models import LANDAU_S0

    model = build_model("landau-maxwell")
    faulty = replace(model, a0=0.9 * LANDAU_S0)
    mu0 = gauss_init(25, 40, 3)
    cfg = FrozenLawConfig(4, inner=2, seed=2)
    good = simulate_frozen_law(model, mu0, cfg, 1.0)
    bad = simulate_frozen_law(faulty, mu0, cfg, 1.0)
    assert np.max(np.abs(good.measures[-1].atoms - bad.measures[-1].atoms)) > 1e-3
    assert np.array_equal(frozen_coefficient_field(model, good, 8).a0, LANDAU_S0)
    assert np.array_equal(frozen_coefficient_field(faulty, good, 8).a0, 0.9 * LANDAU_S0)


# ---------------------------------------------------------------------------
# frozen-law runs
# ---------------------------------------------------------------------------

def test_simulate_shapes_and_meta():
    model = build_model("eks-gaussian", {"Sigma": np.diag([1.0, 4.0])})
    mu0 = gauss_init(0, 50, 2)
    cfg = FrozenLawConfig(8, inner=4, seed=3, fine_cells=8 * 4 * 2)
    curve = simulate_frozen_law(model, mu0, cfg, T=0.5)
    assert len(curve.times) == 9  # freeze boundaries only
    assert curve.times[-1] == pytest.approx(0.5)
    assert curve.meta["seed"] == 3
    inner = simulate_frozen_law(model, mu0, cfg, T=0.5, record_inner=True)
    assert len(inner.times) == 33


@pytest.mark.parametrize("weights", ["uniform", "dirichlet"])
def test_recorded_states_share_the_start_weights_and_nothing_derived(weights):
    # every state is the measure EmpiricalMeasure(atoms, w) would build, on
    # the start's validated weights, with a derived of its own: the
    # covariance frozen at one window start is computed on that state's
    # atoms and never read by the next
    model = build_model("eks-gaussian", {"Sigma": np.diag([1.0, 4.0])})
    rng_ = np.random.default_rng(5)
    w = None if weights == "uniform" else rng_.dirichlet(np.ones(40))
    mu0 = EmpiricalMeasure(np.asfortranarray(rng_.normal(size=(40, 2))), w)
    cfg = FrozenLawConfig(4, inner=3, seed=2)
    curve = simulate_frozen_law(model, mu0, cfg, 1.0, record_inner=True)
    assert len({id(m.derived) for m in curve.measures + [mu0]}) == len(curve.measures) + 1
    for j, m in enumerate(curve.measures):
        ref = EmpiricalMeasure(m.atoms, mu0.weights)
        assert m.weights is mu0.weights and m.uniform == ref.uniform == (w is None)
        assert np.array_equal(m.atoms, ref.atoms) and m.atoms.flags.c_contiguous
        frozen = j % cfg.inner == 0 and j < cfg.steps
        assert sorted(m.derived) == (["cov", "drift", "sqrt_2cov"] if frozen else []), j
        if frozen:
            assert np.array_equal(m.derived["cov"], covariance(ref)), j
    assert not mu0.derived
    with pytest.raises(ValueError, match="shape"):
        mu0.with_atoms(np.zeros((40, 3)))


def test_simulate_dimension_mismatch():
    model = build_model("landau-maxwell")
    with pytest.raises(ValueError):
        simulate_frozen_law(model, gauss_init(0, 10, 2), FrozenLawConfig(2), 1.0)


def test_simulate_names_the_step_of_a_non_finite_state():
    # a drift that turns infinite on its third call: the third Euler step
    model = build_model("landau-maxwell")
    calls = []

    def drift(mu):
        calls.append(1)
        return -np.eye(3), np.full(3, np.inf if len(calls) == 3 else 0.0)

    with pytest.raises(RuntimeError, match="non-finite particle state at step 2$"):
        simulate_frozen_law(replace(model, drift=drift), gauss_init(0, 10, 3), FrozenLawConfig(4),
                            1.0)
    assert len(calls) == 3


def test_refinement_consistency_common_noise():
    # doubling n_freeze at fixed fine grid changes the law only through the
    # freezing error, which should shrink as the freeze window halves
    model = build_model("eks-gaussian", {"Sigma": np.eye(2)})
    mu0 = gauss_init(1, 200, 2)
    fine = 64
    curves = {}
    for nf in (8, 16, 32):
        cfg = FrozenLawConfig(nf, inner=fine // nf, seed=0, fine_cells=fine)
        curves[nf] = simulate_frozen_law(model, mu0, cfg, T=1.0)
    d8 = wasserstein_p(curves[8].measures[-1], curves[32].measures[-1], 2.0)
    d16 = wasserstein_p(curves[16].measures[-1], curves[32].measures[-1], 2.0)
    assert d16 < d8


def test_eks_tracks_moment_ode():
    Sigma = np.diag([1.0, 4.0])
    model = build_model("eks-gaussian", {"Sigma": Sigma})
    C0 = 0.25 * np.eye(2)
    mu0 = gauss_init(2, 4000, 2, cov=C0)
    cfg = FrozenLawConfig(32, inner=2, seed=1)
    T = 1.0
    curve = simulate_frozen_law(model, mu0, cfg, T)
    ms, Cs = eks_gaussian_moment_ode(Sigma, mu0.mean(), covariance(mu0), [T])
    got_C = covariance(curve.measures[-1])
    se = np.linalg.norm(Cs[-1]) * np.sqrt(2.0 / mu0.n)
    assert np.linalg.norm(got_C - Cs[-1]) <= 3.0 * se + 0.05
    assert np.linalg.norm(curve.measures[-1].mean() - ms[-1]) <= 3.0 / np.sqrt(mu0.n)


def test_landau_variance_decay():
    model = build_model("landau-maxwell")
    mu0 = gauss_init(3, 3000, 3)
    cfg = FrozenLawConfig(32, inner=2, seed=2)
    T = 0.5
    curve = simulate_frozen_law(model, mu0, cfg, T)
    m_ref, v_ref = landau_moment_oracle(
        mu0.mean(), moment(mu0, 2.0) - float(mu0.mean() @ mu0.mean()), T
    )
    end = curve.measures[-1]
    v_got = moment(end, 2.0) - float(end.mean() @ end.mean())
    assert np.allclose(end.mean(), m_ref, atol=5e-2)  # mean conserved
    assert abs(v_got - v_ref) <= 4.0 * v_ref / np.sqrt(mu0.n) + 0.05


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_weak_solution_residual_small():
    model = build_model("eks-gaussian", {"Sigma": np.eye(2)})
    mu0 = gauss_init(4, 500, 2)
    cfg = FrozenLawConfig(16, inner=4, seed=5)
    curve = simulate_frozen_law(model, mu0, cfg, T=0.5, record_inner=True)
    res = weak_solution_residual(curve, model, phi_sq(2), cfg.steps)  # t = 0.5
    # scales like the Euler step + MC noise of the time integral
    assert res <= 0.2, res


def test_time_regularity_check():
    model = build_model("eks-gaussian", {"Sigma": np.eye(2)})
    mu0 = gauss_init(6, 400, 2)
    curve = simulate_frozen_law(
        model, mu0, FrozenLawConfig(32, seed=1), T=1.0
    )
    out = time_regularity_check(curve, 2.0)
    assert set(out["lag_medians"]) == {1, 2, 4}
    ups = [out["lag_medians"][k] for k in (1, 2, 4)]
    assert ups[0] <= ups[1] <= ups[2]  # larger lags move further
    assert 0.0 < out["scaling_exponent"] <= 1.5
    assert out["lipschitz"] > 0


def test_time_regularity_check_gives_no_exponent_without_a_fit():
    # one window gives one lag, and a constant curve gives zero medians:
    # neither supports a log-log fit, so the exponent is NaN, not made up
    model = build_model("eks-gaussian", {"Sigma": np.eye(2)})
    mu0 = gauss_init(18, 50, 2)
    one = time_regularity_check(
        simulate_frozen_law(model, mu0, FrozenLawConfig(1, seed=0), T=1.0), 2.0)
    assert set(one["lag_medians"]) == {1} and one["lag_medians"][1] > 0
    assert np.isnan(one["scaling_exponent"])
    flat = time_regularity_check(MeasureCurve(np.linspace(0.0, 1.0, 5), [mu0] * 5), 2.0)
    assert flat["lag_medians"] == {1: 0.0, 2: 0.0, 4: 0.0}
    assert np.isnan(flat["scaling_exponent"])


def test_time_regularity_check_rejects_a_one_point_curve():
    mu0 = gauss_init(18, 20, 2)
    with pytest.raises(ValueError, match="at least two time points"):
        time_regularity_check(MeasureCurve(np.array([0.0]), [mu0]), 2.0)


def test_stability_check_common_noise():
    model = build_model("eks-gaussian", {"Sigma": np.eye(2)})
    mu0 = gauss_init(7, 300, 2)
    rho0 = EmpiricalMeasure(mu0.atoms + np.array([0.5, 0.0]))
    cfg = FrozenLawConfig(16, seed=2)
    dW = euler_increments(cfg, 1.0, mu0.n, mu0.d)
    curve = simulate_frozen_law(model, mu0, cfg, 1.0, dW=dW)
    out = stability_check(model, curve, [rho0], cfg, 1.0, 2.0, dW)[0]
    assert out["ratios"][0] == pytest.approx(1.0)
    assert out["max_ratio"] <= 10.0
    assert out["max_ratio"] == max(out["ratios"][1:])
    same = stability_check(model, curve, [mu0], cfg, 1.0, 2.0, dW)[0]
    assert same["max_ratio"] == 0.0


def test_stability_check_solves_each_pair_once(monkeypatch):
    calls = []

    def counted(mu, nu, p, return_info=False):
        calls.append((mu, nu))
        return wasserstein_p(mu, nu, p, return_info)

    monkeypatch.setattr(meanfield, "wasserstein_p", counted)
    model = build_model("eks-gaussian", {"Sigma": np.eye(2)})
    mu0 = gauss_init(7, 100, 2)
    rho0 = EmpiricalMeasure(mu0.atoms + np.array([0.5, 0.0]))
    cfg = FrozenLawConfig(16, seed=2)
    dW = euler_increments(cfg, 1.0, mu0.n, mu0.d)
    c1 = simulate_frozen_law(model, mu0, cfg, 1.0, dW=dW)
    out = stability_check(model, c1, [rho0], cfg, 1.0, 2.0, dW)[0]
    assert len(calls) == 1 + 16  # d0, then one solve per freeze boundary t > 0
    assert out["ratios"][0] == 1.0
    # the skipped t = 0 solve is the d0 problem: curves start on mu0 and rho0
    c2 = simulate_frozen_law(model, rho0, FrozenLawConfig(16, seed=2), 1.0)
    assert wasserstein_p(c1.measures[0], c2.measures[0], 2.0) == out["initial"]
    assert out["ratios"][1:] == [
        wasserstein_p(a, b, 2.0) / out["initial"]
        for a, b in zip(c1.measures[1:], c2.measures[1:])
    ]


def test_stability_check_draws_the_common_noise_once(monkeypatch):
    draws = []
    real = meanfield.euler_increments
    model = build_model("landau-maxwell")
    mu0 = gauss_init(19, 60, 3)
    cfg = FrozenLawConfig(8, inner=2, seed=4, fine_cells=32)
    dW = real(cfg, 1.0, mu0.n, mu0.d)  # the one draw: the curve's block
    curve = simulate_frozen_law(model, mu0, cfg, 1.0, dW=dW)
    monkeypatch.setattr(meanfield, "euler_increments",
                        lambda *a, **k: draws.append(1) or real(*a, **k))
    starts = [EmpiricalMeasure(mu0.atoms + eps) for eps in (0.1, 0.01)]
    reps = stability_check(model, curve, starts, cfg, 1.0, 2.0, dW)
    assert draws == []  # both moved starts run on the caller's block
    for r, rep in zip(starts, reps):
        c2 = simulate_frozen_law(model, r, cfg, 1.0)  # its own draw of the same block
        assert rep["ratios"][1:] == [wasserstein_p(a, b, 2.0) / rep["initial"]
                                     for a, b in zip(curve.measures[1:], c2.measures[1:])]


def test_curve_inputs_must_span_the_cfg_run():
    model = build_model("eks-gaussian", {"Sigma": np.eye(2)})
    mu0 = gauss_init(20, 30, 2)
    cfg = FrozenLawConfig(8, inner=2, seed=1)
    short = simulate_frozen_law(model, mu0, FrozenLawConfig(4, inner=2, seed=1), 1.0)
    with pytest.raises(ValueError, match="window edges"):
        stability_check(model, short, [EmpiricalMeasure(mu0.atoms + 0.1)], cfg, 1.0, 2.0,
                        euler_increments(cfg, 1.0, mu0.n, mu0.d))
    with pytest.raises(ValueError, match="window edges"):
        feynman_kac_duality(model, short, [phi_sq(2)], cfg, T=1.0)


def test_stability_max_ratio_sees_contraction():
    # a rigid shift of the EKS cloud decays under common noise; the t = 0
    # ratio of exactly 1 must not stand in for the maximum
    model = build_model("eks-gaussian", {"Sigma": np.diag([1.0, 4.0])})
    mu0 = gauss_init(15, 300, 2)
    rho0 = EmpiricalMeasure(mu0.atoms + 0.1 * np.ones(2) / np.sqrt(2.0))
    cfg = FrozenLawConfig(16, seed=0)
    dW = euler_increments(cfg, 1.0, mu0.n, mu0.d)
    curve = simulate_frozen_law(model, mu0, cfg, 1.0, dW=dW)
    out = stability_check(model, curve, [rho0], cfg, 1.0, 2.0, dW)[0]
    assert out["max_ratio"] < 1.0, out["ratios"]


def test_stability_check_several_starts_equal_one_call_each(monkeypatch):
    monkeypatch.setattr(measures, "_cpus", lambda: 2)  # pooled on any machine
    model = build_model("eks-gaussian", {"Sigma": np.eye(2)})
    mu0 = gauss_init(16, 80, 2)
    starts = [EmpiricalMeasure(mu0.atoms + eps * np.array([0.6, 0.8]))
              for eps in (0.3, 0.02)]
    starts.insert(1, mu0)  # d0 = 0 between two moved starts
    cfg = FrozenLawConfig(8, seed=3)
    dW = euler_increments(cfg, 1.0, mu0.n, mu0.d)
    curve = simulate_frozen_law(model, mu0, cfg, 1.0, dW=dW)
    reps = stability_check(model, curve, starts, cfg, 1.0, 2.0, dW)
    assert reps == [stability_check(model, curve, [r], cfg, 1.0, 2.0, dW)[0] for r in starts]
    assert reps[1]["max_ratio"] == 0.0 and reps[0]["max_ratio"] > 0.0


def test_time_regularity_equals_serial_brackets(monkeypatch):
    monkeypatch.setattr(measures, "_cpus", lambda: 2)  # pooled on any machine
    model = build_model("eks-gaussian", {"Sigma": np.eye(2)})
    curve = simulate_frozen_law(model, gauss_init(17, 60, 2), FrozenLawConfig(8, seed=1), 1.0)
    out = time_regularity_check(curve, 2.0)
    ms = curve.measures
    for lag in (1, 2, 4):
        ups = [dp_bracket(ms[i], ms[i + lag], 2.0)[1] for i in range(0, 9 - lag, lag)]
        assert out["lag_medians"][lag] == float(np.median(ups))


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def test_duality_within_monte_carlo_error():
    model = build_model("eks-gaussian", {"Sigma": np.diag([1.0, 4.0])})
    mu0 = gauss_init(8, 2000, 2)
    cfg = FrozenLawConfig(16, inner=2, seed=3)
    curve = simulate_frozen_law(model, mu0, cfg, 0.5)
    out = feynman_kac_duality(model, curve, [phi_sq(2)], cfg, T=0.5)[0]
    assert out["residual"] <= 3.0 * out["se"] + 0.05, out


def test_duality_several_functions_equal_one_call_each(monkeypatch):
    runs = []
    real = meanfield.simulate_dual_sde
    monkeypatch.setattr(meanfield, "simulate_dual_sde",
                        lambda *a, **k: runs.append(1) or real(*a, **k))
    model = build_model("landau-maxwell")
    mu0 = gauss_init(18, 150, 3)
    cfg = FrozenLawConfig(8, inner=2, seed=2)
    phis = [linear_func(np.eye(3)[0], "coord0"), phi_sq(3)]
    curve = simulate_frozen_law(model, mu0, cfg, 0.5)
    reps = feynman_kac_duality(model, curve, phis, cfg, T=0.5)
    assert len(runs) == 1  # one dual run for both functions
    for phi, rep in zip(phis, reps):
        assert rep == feynman_kac_duality(model, curve, [phi], cfg, T=0.5)[0]


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_save_curve_and_summary(tmp_path):
    model = build_model("eks-gaussian", {"Sigma": np.eye(2)})
    mu0 = gauss_init(12, 20, 2)
    curve = simulate_frozen_law(model, mu0, FrozenLawConfig(4, seed=0), T=1.0)
    p1 = tmp_path / "curve.txt"
    save_curve(curve, p1)
    text = p1.read_text().splitlines()
    assert text[0].startswith("# roughmf-curve v1 ")
    data = np.loadtxt(p1)
    assert data.shape == (5 * 20, 4)  # (time, id, y1, y2)
    ids = np.arange(20, dtype=float)
    rows = np.vstack([np.column_stack([np.full(20, t), ids, m.atoms])
                      for t, m in zip(curve.times, curve.measures)])
    ref = io.StringIO()
    np.savetxt(ref, rows, fmt="%.17g")
    assert p1.read_text().split("\n", 1)[1] == ref.getvalue()
    p2 = tmp_path / "summary.txt"
    save_curve_summary(curve, p2)
    summ = np.loadtxt(p2)
    assert summ.shape == (5, 1 + 2 + 2 + 4)
    assert np.allclose(summ[0, 3:5], mu0.mean())
