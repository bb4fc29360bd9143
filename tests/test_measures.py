import io
import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist

from roughmf import measures
from roughmf.measures import (
    LP_CELL_CAP,
    EmpiricalMeasure,
    _cost_matrix,
    _map_pairs,
    _reduce_w2_cost,
    default_test_family,
    dp_bracket,
    linear_func,
    moment,
    topology_equivalence_probe,
    wasserstein_p,
    write_rows,
)

from conftest import fresh_python


def cloud(seed, n, d, shift=0.0):
    rng = np.random.default_rng(seed)
    return EmpiricalMeasure(rng.normal(size=(n, d)) + shift)


def test_measure_validation():
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.zeros((2, 1)), np.array([0.5, 0.6]))  # sum != 1
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.zeros((2, 1)), np.array([-0.5, 1.5]))
    with pytest.raises(ValueError):
        EmpiricalMeasure(np.zeros((2, 1)), np.array([np.nan, 1.0]))
    m = EmpiricalMeasure(np.array([1.0, 2.0, 3.0])[:, None])
    assert m.uniform and m.n == 3 and m.d == 1
    assert np.allclose(m.mean(), 2.0)


def test_uniform_set_once_at_construction():
    atoms = np.zeros((5, 2))
    w = np.full(5, 0.2)
    assert EmpiricalMeasure(atoms, w).uniform
    assert EmpiricalMeasure(atoms, w + np.array([1e-15, -1e-15, 0, 0, 0])).uniform
    assert not EmpiricalMeasure(atoms, w + np.array([1e-13, -1e-13, 0, 0, 0])).uniform
    assert not EmpiricalMeasure(atoms, np.array([0.1, 0.3, 0.2, 0.2, 0.2])).uniform
    # a field set by __post_init__, not a recomputed property
    assert "uniform" in vars(EmpiricalMeasure(atoms))


def test_moment_and_integrate():
    m = EmpiricalMeasure(np.array([[3.0, 4.0], [0.0, 0.0]]))
    assert moment(m, 1) == pytest.approx(2.5)
    assert moment(m, 2) == pytest.approx(12.5)
    assert m.integrate(lambda Y: Y[:, 0]) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        moment(m, 0.5)


def test_integrate_weighted():
    atoms = np.array([[1.0, 0.0], [0.0, 2.0], [-1.0, 1.0]])
    w = np.array([0.5, 0.25, 0.25])
    m = EmpiricalMeasure(atoms, w)
    assert m.integrate(linear_func(np.array([1.0, 0.0]), "x").value) == pytest.approx(0.25)
    assert m.integrate(linear_func(np.array([0.0, 1.0]), "y").value) == pytest.approx(0.75)
    # same as the weighted per-atom sum of |y|^2
    ref = sum(wi * float(y @ y) for wi, y in zip(w, atoms))
    assert m.integrate(lambda Y: np.sum(Y * Y, axis=1)) == pytest.approx(ref, abs=1e-15)


# ---------------------------------------------------------------------------
# Wasserstein
# ---------------------------------------------------------------------------

def test_w1_1d_closed_form():
    # point masses at 0 and at a: d_p = a for every p
    a = 2.5
    mu = EmpiricalMeasure(np.array([[0.0]]))
    nu = EmpiricalMeasure(np.array([[a]]))
    for p in (1.0, 2.0, 3.0):
        assert wasserstein_p(mu, nu, p) == pytest.approx(a)


def test_w2_1d_quantile_vs_sorted():
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=200), rng.normal(size=200) + 1.0
    mu = EmpiricalMeasure(x[:, None])
    nu = EmpiricalMeasure(y[:, None])
    ref = float(np.sqrt(np.mean((np.sort(x) - np.sort(y)) ** 2)))
    got, info = wasserstein_p(mu, nu, 2.0, return_info=True)
    assert info["mode"] == "quantile-1d" and info["exact"]
    assert got == pytest.approx(ref, abs=1e-12)


def test_w_1d_weighted():
    mu = EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.75, 0.25]))
    nu = EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.25, 0.75]))
    # move mass 1/2 across distance 1: W_1 = 1/2, W_2 = sqrt(1/2)
    assert wasserstein_p(mu, nu, 1.0) == pytest.approx(0.5)
    assert wasserstein_p(mu, nu, 2.0) == pytest.approx(np.sqrt(0.5))


def test_w_assignment_translation():
    mu = cloud(1, 100, 3)
    shift = np.array([1.0, -2.0, 0.5])
    nu = EmpiricalMeasure(mu.atoms + shift)
    got, info = wasserstein_p(mu, nu, 2.0, return_info=True)
    assert info["mode"] == "assignment"
    assert got == pytest.approx(np.linalg.norm(shift), abs=1e-12)


def test_w_lp_nonuniform():
    mu = EmpiricalMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
    nu = EmpiricalMeasure(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]]),
        np.array([0.25, 0.25, 0.5]),
    )
    got, info = wasserstein_p(mu, nu, 1.0, return_info=True)
    assert info["mode"] == "transport-lp"
    # split each half across 0.25 to the matching endpoint and 0.25 to the mid
    assert got == pytest.approx(0.25, abs=1e-9)


def broadcast_cost(x, y, p):
    """The dense cost as built before the one cdist kernel."""
    return np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2) ** p


def weighted_cloud(seed, n, d, shift=0.0):
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.5, 1.5, n)
    return EmpiricalMeasure(rng.normal(size=(n, d)) + shift, w / w.sum())


def test_lp_coupling_equals_dense_constraint_build():
    # the transport LP on the broadcast cost with dense marginal rows, solved
    # in the test: value and coupling must match bitwise
    for (sm, n), (sn, m), p in (((0, 12), (1, 9), 2.0), ((22, 70), (23, 45), 1.5)):
        mu, nu = weighted_cloud(sm, n, 2), weighted_cloud(sn, m, 2, shift=0.3)
        A = np.zeros((n + m, n * m))
        for i in range(n):
            A[i, i * m : (i + 1) * m] = 1.0
        for j in range(m):
            A[n + j, j::m] = 1.0
        res = linprog(broadcast_cost(mu.atoms, nu.atoms, p).ravel(), A_eq=A,
                      b_eq=np.concatenate([mu.weights, nu.weights]),
                      bounds=(0, None), method="highs")
        pi = res.x.reshape(n, m)
        ii, jj = np.nonzero(pi > 1e-14)
        xs, ys, mass = mu.atoms[ii], nu.atoms[jj], pi[ii, jj]
        got, info = wasserstein_p(mu, nu, p, return_info=True)
        assert info["mode"] == "transport-lp" and info["exact"]
        gx, gy, gm = info["coupling"]
        assert np.array_equal(gx, xs) and np.array_equal(gy, ys) and np.array_equal(gm, mass)
        assert got == float((mass @ np.linalg.norm(xs - ys, axis=1) ** p) ** (1.0 / p))


def test_lp_at_cell_cap_builds_no_dense_constraints():
    # a dense (N + M, N M) constraint matrix at the cap is 400 x 40,000
    # doubles, 128 MB on its own
    n = int(np.sqrt(LP_CELL_CAP))
    mu, nu = weighted_cloud(2, n, 2), weighted_cloud(3, n, 2, shift=0.3)
    tracemalloc.start()
    try:
        _, info = wasserstein_p(mu, nu, 2.0, return_info=True)
        peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert info["mode"] == "transport-lp" and info["exact"]
    assert peak_mb <= 32.0, f"transport LP peaked at {peak_mb:.0f} MB"


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("sizes", [(60, 60), (60, 41)])
def test_cost_kernel_equals_broadcast_norm_bitwise(p, d, sizes):
    rng = np.random.default_rng(100 * d + sizes[1])
    x = rng.normal(size=(sizes[0], d))
    y = 3.0 * rng.normal(size=(sizes[1], d)) + 0.5
    cost = _cost_matrix(EmpiricalMeasure(x), EmpiricalMeasure(y), p)
    assert cost.shape == sizes
    assert np.array_equal(cost, broadcast_cost(x, y, p))


def test_assignment_bitwise_equals_reference_solve():
    mu, nu = cloud(20, 500, 2), cloud(21, 500, 2, shift=0.4)
    got, info = wasserstein_p(mu, nu, 2.0, return_info=True)
    assert info["mode"] == "assignment" and info["exact"]
    rows, cols = linear_sum_assignment(broadcast_cost(mu.atoms, nu.atoms, 2.0))
    xs, ys = mu.atoms[rows], nu.atoms[cols]
    mass = np.full(len(rows), 1.0 / len(rows))
    want = float((mass @ np.linalg.norm(xs - ys, axis=1) ** 2.0) ** 0.5)
    gx, gy, gm = info["coupling"]
    assert got == want
    assert np.array_equal(gx, xs) and np.array_equal(gy, ys) and np.array_equal(gm, mass)


WARM_KINDS = ("shifted", "scaled", "bimodal", "far-1e3", "far-1e6", "line", "duplicates")


def warm_start_pair(kind, seed, n, d):
    """Rows x and columns y of one matching of the warm-start corpus."""
    rng = np.random.default_rng([seed, n, d, WARM_KINDS.index(kind)])
    x, y = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    if kind == "shifted":
        y += 0.5
    elif kind == "scaled":
        y *= np.linspace(0.5, 2.5, d)
    elif kind == "bimodal":
        y[: n // 2] += 3.0
        y[n // 2 :] -= 3.0
    elif kind.startswith("far"):
        # far from the origin, with different spreads
        offset = float(kind[4:])
        x, y = x + offset, 1.5 * y + offset + 0.3
    elif kind == "line":
        # the columns on a line: a singular covariance
        y = np.outer(y[:, 0], np.arange(1.0, d + 1.0)) + 0.2
    elif kind == "duplicates":
        # every atom twice on each side: ties among the optimal matchings
        x[n // 2 : 2 * (n // 2)] = x[: n // 2]
        y[n // 2 : 2 * (n // 2)] = y[: n // 2]
    return x, y


def warm_start_corpus(n):
    """(seed, kind, d) of the corpus at n atoms: every kind in d = 2 and 3
    at every seed 0-19 up to 64 atoms; above, where one plain solve takes
    20-90 ms, one kind and one d per seed, in turn, which meets every
    (kind, d) within the 20 seeds."""
    if n <= 64:
        return [(seed, kind, d) for seed in range(20) for kind in WARM_KINDS for d in (2, 3)]
    return [(seed, WARM_KINDS[seed % len(WARM_KINDS)], 2 + seed % 2) for seed in range(20)]


@pytest.mark.parametrize("n", [2, 3, 64, 500, 512])
def test_warm_start_keeps_the_plain_solves_matching(n):
    """On every pair of the corpus, the warm-started matching is the one
    scipy returns on the plain cdist ** 2 cost; under ties (duplicated
    atoms) it is an optimal one, whose cost is the plain one's within the
    stated bound 2 N e, e = 10 u max C.  The reduction runs wherever the
    columns' covariance is positive definite: never on the line, nor below
    d + 1 distinct atoms."""
    for seed, kind, d in warm_start_corpus(n):
        x, y = warm_start_pair(kind, seed, n, d)
        plain = cdist(x, y) ** 2
        _, want = linear_sum_assignment(plain)
        distinct = n - n // 2 if kind == "duplicates" else n
        ran = _reduce_w2_cost(plain.copy(), x, y)
        assert ran == (kind != "line" and distinct > d), (seed, kind)
        _, info = wasserstein_p(EmpiricalMeasure(x), EmpiricalMeasure(y), 2.0,
                                return_info=True)
        xs, ys, _ = info["coupling"]
        assert np.array_equal(xs, x)
        if kind == "duplicates":
            bound = 2 * n * 10 * 2.0**-53 * plain.max()
            gap = np.sum((xs - ys) ** 2) - np.sum((x - y[want]) ** 2)
            assert abs(gap) <= bound, (seed, kind, gap, bound)
        else:
            assert np.array_equal(ys, y[want]), (seed, kind)


def test_warm_start_skips_a_potential_above_the_cost():
    """Columns: a tight cluster and one far outlier, so the Gaussian fit
    stretches the outlier's potential above the largest cost; the cost is
    left as it is and the solve is the plain one."""
    rng = np.random.default_rng(0)
    y = rng.normal(size=(500, 2)) * 1e-3
    y[0] = [1.0, 0.0]
    x = rng.normal(size=(500, 2)) * [1.0 / 3.0, 1e-3]
    plain = cdist(x, y) ** 2
    cost = plain.copy()
    assert not _reduce_w2_cost(cost, x, y)
    assert np.array_equal(cost, plain)
    _, info = wasserstein_p(EmpiricalMeasure(x), EmpiricalMeasure(y), 2.0, return_info=True)
    assert np.array_equal(info["coupling"][1], y[linear_sum_assignment(plain)[1]])
    # the line skips with the cost untouched too
    x, y = warm_start_pair("line", 0, 64, 2)
    cost = cdist(x, y) ** 2
    assert not _reduce_w2_cost(cost, x, y) and np.array_equal(cost, cdist(x, y) ** 2)


def test_w_metric_axioms():
    mus = [cloud(s, 64, 2, shift=0.3 * s) for s in range(3)]
    for p in (1.0, 2.0):
        assert wasserstein_p(mus[0], mus[0], p) <= 1e-12
        d01 = wasserstein_p(mus[0], mus[1], p)
        assert d01 == pytest.approx(wasserstein_p(mus[1], mus[0], p), abs=1e-10)
        d02 = wasserstein_p(mus[0], mus[2], p)
        d12 = wasserstein_p(mus[1], mus[2], p)
        assert d02 <= d01 + d12 + 1e-10
        assert d01 > 0


def test_w_monotone_in_p():
    mu, nu = cloud(2, 128, 2), cloud(3, 128, 2, shift=0.5)
    assert wasserstein_p(mu, nu, 1.0) <= wasserstein_p(mu, nu, 2.0) + 1e-12


def test_w_subsample_fallback_flagged():
    mu, nu = cloud(4, 900, 2), cloud(5, 800, 2, shift=1.0)
    got, info = wasserstein_p(mu, nu, 2.0, return_info=True)
    assert info["mode"] == "subsample-assignment"
    assert not info["exact"]
    assert abs(got - np.sqrt(2.0)) < 0.5  # ballpark: shift (1,1) plus noise


def test_w_identical_clouds_exact_zero():
    # a copy, not the same object: identity is by content
    mu = cloud(6, 2000, 2)
    nu = EmpiricalMeasure(mu.atoms.copy(), mu.weights.copy())
    got, info = wasserstein_p(mu, nu, 2.0, return_info=True)
    assert (got, info["exact"], info["mode"]) == (0.0, True, "identical")
    xs, ys, mass = info["coupling"]
    assert np.array_equal(xs, ys) and np.array_equal(mass, mu.weights)
    lo, up, binfo = dp_bracket(mu, nu, 2.0)
    assert (lo, up, binfo["w_p"], binfo["exact_upper"]) == (0.0, 0.0, 0.0, True)
    # one atom moved is no longer identical
    moved = mu.atoms.copy()
    moved[0, 0] += 1e-15
    _, info = wasserstein_p(mu, EmpiricalMeasure(moved), 2.0, return_info=True)
    assert info["mode"] != "identical"


def test_w_input_validation():
    mu, nu = cloud(0, 8, 2), cloud(0, 8, 3)
    with pytest.raises(ValueError):
        wasserstein_p(mu, nu, 2.0)
    with pytest.raises(ValueError):
        wasserstein_p(mu, mu, 0.5)


# ---------------------------------------------------------------------------
# test function family and bracket
# ---------------------------------------------------------------------------

def certify(fam, p, sampler, n=1000):
    """Sample-check |grad phi| <= 1 + |y|^{p-1}, |D^2 phi| <= 1 + |y|^{p-1}
    for every member of the family: dp_bracket's lower bound is valid only
    if each one meets the envelope.

    The Hessian is measured in operator norm, so e.g. the identity
    Hessian of |y|^2/2 has size 1 in any dimension.
    """
    pts = sampler(n)
    env = 1.0 + np.linalg.norm(pts, axis=1) ** (p - 1.0) + 1e-12
    for f in fam:
        if np.any(np.linalg.norm(f.grad(pts), axis=1) > env):
            return False
        if np.any(np.linalg.norm(f.hess(pts), 2, axis=(1, 2)) > env):
            return False
    return True


def test_family_certificate():
    fam = default_test_family(2.0, d=3)
    rng = np.random.default_rng(0)
    assert certify(fam, 2.0, lambda n: rng.normal(size=(n, 3)) * 3.0, n=500)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_family_built_with_clouds_is_certified(p, d):
    # the data-centred bumps meet the envelope wherever their centre lies;
    # the points are drawn in their supports, the unit balls around the
    # cloud means (at BUMP_SCALE 0.25 a bump's Hessian reached 1.94)
    rng = np.random.default_rng(d)
    shifts = [np.zeros(d), np.eye(d)[0], -0.5 * np.ones(d)]
    clouds = [EmpiricalMeasure(s + 0.1 * rng.normal(size=(50, d))) for s in shifts]
    centres = np.stack([c.mean() for c in clouds])

    def in_supports(n):
        dirs = rng.normal(size=(n, d))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        radii = rng.uniform(0.0, 1.0, size=(n, 1))
        return centres[rng.integers(len(centres), size=n)] + dirs * radii

    fam = default_test_family(p, clouds)
    bumps = [f for f in fam if f.name.startswith("bump")]
    assert len(bumps) == 3 and certify(fam, p, in_supports, n=4000)
    pts = in_supports(4000)
    peak = max(np.linalg.norm(f.hess(pts), 2, axis=(1, 2)).max() for f in bumps)
    assert 0.9 < peak < 1.0  # under the envelope of every p >= 1


def test_family_certificate_catches_violation():
    rng = np.random.default_rng(1)
    fam = default_test_family(2.0, d=2)
    fam.append(linear_func(np.array([50.0, 0.0]), "steep"))
    assert not certify(fam, 2.0, lambda n: rng.normal(size=(n, 2)), n=100)
    # a Hessian violation alone is caught too
    fam = default_test_family(2.0, d=2)
    fam[0].hess = lambda Y: np.broadcast_to(50.0 * np.eye(2), (len(Y), 2, 2))
    assert not certify(fam, 2.0, lambda n: rng.normal(size=(n, 2)), n=100)


def test_bump_derivatives_by_finite_difference():
    from roughmf.measures import _bump

    f = _bump(np.array([0.3, -0.1]))
    rng = np.random.default_rng(2)
    eps = 1e-6
    Y = rng.uniform(-0.5, 0.8, size=(20, 2))
    g = f.grad(Y)
    H = f.hess(Y)
    for j in range(2):
        e = np.zeros(2)
        e[j] = eps
        fd = (f.value(Y + e) - f.value(Y - e)) / (2 * eps)
        assert np.max(np.abs(fd - g[:, j])) <= 1e-6
        col = (f.grad(Y + e) - f.grad(Y - e)) / (2 * eps)
        assert np.max(np.abs(col - H[:, :, j])) <= 1e-5
    # zero with zero derivatives outside the unit ball around the centre
    far = np.array([[2.0, 2.0], [1.3, -0.1]])
    assert np.array_equal(f.value(far), [0.0, 0.0])
    assert not np.any(f.grad(far)) and not np.any(f.hess(far))


def test_bracket_orders_and_translation():
    mu = cloud(8, 200, 2)
    nu = EmpiricalMeasure(mu.atoms + np.array([0.4, 0.0]))
    lo, up, info = dp_bracket(mu, nu, 2.0)
    assert 0 <= lo <= up
    # coordinate witness sees the full mean shift
    assert lo >= 0.4 - 1e-9
    assert info["exact_upper"]


def test_bracket_identical_measures(monkeypatch):
    # bitwise-equal inputs need no test family and no transport solve
    def unreachable(*args, **kwargs):
        raise AssertionError("identical inputs reached the full bracket")

    monkeypatch.setattr(measures, "wasserstein_p", unreachable)
    monkeypatch.setattr(measures, "default_test_family", unreachable)
    for mu in (cloud(9, 64, 2), cloud(9, 600, 3)):  # below and above the assignment cap
        twin = EmpiricalMeasure(mu.atoms.copy(), mu.weights.copy())
        for nu in (mu, twin):
            out = dp_bracket(mu, nu, 2.0)
            assert out == (0.0, 0.0, {"exact_upper": True, "mode": "identical", "w_p": 0.0})
            assert [np.signbit(x) for x in out[:2]] == [False, False]
        with pytest.raises(ValueError, match="p >= 1"):
            dp_bracket(mu, twin, 0.5)


def test_bracket_of_a_copy_one_ulp_apart_takes_the_full_path(monkeypatch):
    calls = []
    family, transport = measures.default_test_family, measures.wasserstein_p
    monkeypatch.setattr(measures, "default_test_family",
                        lambda *a, **k: calls.append("family") or family(*a, **k))
    monkeypatch.setattr(measures, "wasserstein_p",
                        lambda *a, **k: calls.append("w_p") or transport(*a, **k))
    mu = cloud(9, 64, 2)
    atoms = mu.atoms.copy()
    atoms[5, 1] = np.nextafter(atoms[5, 1], np.inf)
    lo, up, info = dp_bracket(mu, EmpiricalMeasure(atoms), 2.0)
    assert calls == ["family", "w_p"]
    assert info["mode"] == "assignment" and info["w_p"] > 0.0
    assert 0.0 <= lo <= up


def test_topology_probe_converging_sequence():
    rng = np.random.default_rng(10)
    base = rng.normal(size=(256, 2))
    limit = EmpiricalMeasure(base)
    seq = [EmpiricalMeasure(base + 10.0 ** (-k)) for k in range(1, 6)]
    # tolerances chosen in a decade gap of the sequence so both metrics
    # classify the same prefix as "not yet converged"
    out = topology_equivalence_probe(seq, limit, 2.0, tol_w=5e-2, tol_b=5e-2)
    assert np.all(np.diff(out["d_p"]) < 0)
    assert np.all(np.diff(out["bracket_upper"]) < 0)
    assert out["agree"]


def test_topology_probe_separated_sequence():
    rng = np.random.default_rng(11)
    base = rng.normal(size=(128, 2))
    limit = EmpiricalMeasure(base)
    seq = [EmpiricalMeasure(base + 1.0 + 0.1 * k) for k in range(3)]
    out = topology_equivalence_probe(seq, limit, 2.0)
    assert np.all(np.array(out["d_p"]) > 0.5)
    assert np.all(np.array(out["bracket_upper"]) > 0.5)
    assert out["agree"]


# ---------------------------------------------------------------------------
# the pair map
# ---------------------------------------------------------------------------

@pytest.fixture
def two_cpus(monkeypatch):
    # a pool of the caller and one thread, whatever the machine has
    monkeypatch.setattr(measures, "_cpus", lambda: 2)


def mixed_pairs():
    """One pair in each wasserstein_p mode, the cheap ones among the dear."""
    a = cloud(60, 300, 2)
    weights = np.random.default_rng(61).uniform(1.0, 2.0, 50)
    return {
        "assignment": (a, cloud(62, 300, 2, shift=0.3)),
        "identical": (a, EmpiricalMeasure(a.atoms.copy())),
        "quantile-1d": (cloud(63, 80, 1), cloud(64, 70, 1, shift=1.0)),
        "transport-lp": (EmpiricalMeasure(cloud(65, 50, 3).atoms, weights / weights.sum()),
                         cloud(66, 40, 3)),
        "subsample-assignment": (cloud(67, 600, 2), cloud(68, 600, 2, shift=0.2)),
    }


def same_info(got, want):
    gc, wc = got.pop("coupling"), want.pop("coupling")
    return got == want and all(np.array_equal(x, y) for x, y in zip(gc, wc))


def test_map_pairs_equals_serial_calls_bitwise(two_cpus):
    modes = mixed_pairs()
    pairs = list(modes.values()) * 2
    got = _map_pairs(lambda mu, nu: wasserstein_p(mu, nu, 2.0, return_info=True), pairs)
    want = [wasserstein_p(mu, nu, 2.0, return_info=True) for mu, nu in pairs]
    assert [info["mode"] for _, info in got] == list(modes) * 2
    for (gv, gi), (wv, wi) in zip(got, want):
        assert gv == wv and same_info(gi, wi)
    got = _map_pairs(lambda mu, nu: dp_bracket(mu, nu, 2.0), pairs)
    assert got == [dp_bracket(mu, nu, 2.0) for mu, nu in pairs]


def test_map_pairs_keeps_input_order_across_unequal_costs(two_cpus):
    big = (cloud(70, 500, 2), cloud(71, 500, 2, shift=0.1))
    small = (cloud(72, 3, 2), cloud(73, 3, 2))
    pairs = [big, small, small, small, big, small, big, small, small]
    got = _map_pairs(lambda mu, nu: (mu.n, wasserstein_p(mu, nu, 2.0)), pairs)
    assert got == [(mu.n, wasserstein_p(mu, nu, 2.0)) for mu, nu in pairs]


def test_map_pairs_reraises_the_first_failing_pairs_error(two_cpus):
    a, b = cloud(74, 20, 2), cloud(75, 20, 2)
    pairs = [(a, b), (a, cloud(76, 20, 3)), (a, b), (b, a)]
    with pytest.raises(ValueError, match="dimension mismatch"):
        _map_pairs(lambda mu, nu: wasserstein_p(mu, nu, 2.0), pairs)

    later_failed = threading.Event()

    def fail(i, _):
        if i == 0:  # fails only after pair 1 has failed on the other thread
            later_failed.wait(timeout=10)
        elif i == 1:
            later_failed.set()
        raise ValueError(f"pair {i}")

    # the error the serial loop would raise: the lowest failing pair's
    with pytest.raises(ValueError, match="pair 0"):
        _map_pairs(fail, [(i, None) for i in range(4)])
    assert later_failed.is_set()


def test_map_pairs_carries_the_callers_errstate_into_the_pool(two_cpus):
    both = threading.Barrier(2, timeout=10)  # one pair on each thread
    seen = []

    def probe(mu, nu):
        both.wait()
        seen.append((threading.get_ident(), np.geterr()["divide"]))
        return np.ones(1) / np.zeros(1)

    pairs = [(None, None)] * 2
    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError):
            _map_pairs(probe, pairs)
    assert len({ident for ident, _ in seen}) == 2
    assert [mode for _, mode in seen] == ["raise", "raise"]


def test_map_pairs_leaves_no_thread_alive(two_cpus):
    before = threading.active_count()
    during = []

    def probe(mu, nu):
        during.append(threading.active_count())
        return wasserstein_p(mu, nu, 2.0)

    a, b = cloud(77, 200, 2), cloud(78, 200, 2, shift=0.5)
    _map_pairs(probe, [(a, b)] * 4)
    assert max(during) == before + 1  # the caller and one pool thread
    assert threading.active_count() == before


def test_map_pairs_runs_inline_on_one_cpu(monkeypatch):
    monkeypatch.setattr(measures, "_cpus", lambda: 1)
    before, caller = threading.active_count(), threading.get_ident()
    seen = _map_pairs(lambda i, _: (i, threading.get_ident(), threading.active_count()),
                      [(i, None) for i in range(5)])
    assert seen == [(i, caller, before) for i in range(5)]


def test_map_pairs_hands_out_each_pair_once_under_contention(monkeypatch):
    # more threads than cores and a switch interval short enough to
    # interleave the hand-out: every pair runs exactly once
    monkeypatch.setattr(measures, "_cpus", lambda: 8)
    ran = []

    def work(i, _):
        ran.append(i)
        return float(np.sum(np.arange(i % 7 * 100)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _map_pairs(work, [(i, None) for i in range(400)])
    finally:
        sys.setswitchinterval(interval)
    assert sorted(ran) == list(range(400))
    assert got == [float(np.sum(np.arange(i % 7 * 100))) for i in range(400)]


FIRST_LOAD_IN_THE_POOL = """
import json, sys, threading
import numpy as np
from roughmf import measures
from roughmf.measures import EmpiricalMeasure, _map_pairs, wasserstein_p

def cloud(seed, n, d, shift=0.0):
    return EmpiricalMeasure(np.random.default_rng(seed).normal(size=(n, d)) + shift)

weights = np.random.default_rng(3).uniform(1.0, 2.0, 40)
lp = (EmpiricalMeasure(cloud(4, 40, 2).atoms, weights / weights.sum()), cloud(5, 30, 2))
pairs = [(cloud(1, 200, 2), cloud(2, 200, 2, shift=0.3)), lp] * 2
measures._cpus = lambda: 2
before = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
both = threading.Barrier(2, timeout=30)  # the first two solves start together
threads = []

def solve(mu, nu):
    if len(threads) < 2:
        threads.append(threading.get_ident())
        both.wait()
    return wasserstein_p(mu, nu, 2.0, return_info=True)

got = _map_pairs(solve, pairs)
want = [wasserstein_p(mu, nu, 2.0, return_info=True) for mu, nu in pairs]
same = all(gv == wv and gi["mode"] == wi["mode"] and all(
    np.array_equal(x, y) for x, y in zip(gi["coupling"], wi["coupling"]))
    for (gv, gi), (wv, wi) in zip(got, want))
print(json.dumps({"before": before, "threads": len(set(threads)), "same": same,
                  "modes": [info["mode"] for _, info in got]}))
"""


def test_first_scipy_load_inside_the_pool():
    # a fresh interpreter's first assignment and LP solves start together on
    # the caller and a pool thread: both load scipy at once, raise nothing,
    # and give the serial loop's values and modes bitwise
    seen = json.loads(fresh_python(FIRST_LOAD_IN_THE_POOL))
    assert seen == {"before": [], "threads": 2, "same": True,
                    "modes": ["assignment", "transport-lp"] * 2}


def test_topology_probe_equals_serial_brackets(two_cpus):
    limit = cloud(79, 120, 2)
    seq = [cloud(80 + k, 120, 2, shift=0.5 / (k + 1)) for k in range(5)]
    out = topology_equivalence_probe(seq, limit, 2.0)
    brackets = [dp_bracket(m, limit, 2.0) for m in seq]
    assert out["d_p"] == [info["w_p"] for _, _, info in brackets]
    assert out["bracket_lower"] == [lo for lo, _, _ in brackets]
    assert out["bracket_upper"] == [up for _, up, _ in brackets]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_write_rows_bytes_equal_savetxt():
    table = np.array([
        [0.0, -0.0, 1e-300, 1e300],
        [1.0, 2.0, -1e-300, -1e300],
        [3.0, 0.1, 1.0 / 3.0, np.pi],
    ])
    ours, theirs = io.StringIO(), io.StringIO()
    write_rows(ours, table)
    np.savetxt(theirs, table, fmt="%.17g")
    assert ours.getvalue() == theirs.getvalue()
    assert ours.getvalue().splitlines()[0] == "0 -0 1e-300 1.0000000000000001e+300"
