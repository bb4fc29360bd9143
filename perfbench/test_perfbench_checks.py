"""The benchmark's checks pass on correct outputs and fail on perturbed ones.

    python -m pytest perfbench -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
for _path in (HERE, os.path.join(os.path.dirname(HERE), "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from roughmf import measures, roughpath  # noqa: E402
from roughmf.grids import TimeGrid  # noqa: E402


def whitened(n, d, seed):
    """Sample with exactly zero mean and identity (biased) covariance."""
    z = np.random.default_rng(seed).normal(size=(n, d))
    z -= z.mean(axis=0)
    return z @ np.linalg.inv(np.linalg.cholesky(np.cov(z, rowvar=False, bias=True))).T


def test_cocycle_check_flags_each_defect():
    good = {"point_defect": 1e-15, "law_defect": 0.0, "self_defect": 1e-3}
    assert reference.check_cocycle([("ok", good)]) == []
    for change in ({"law_defect": 1e-300}, {"point_defect": 4e-3},
                   {"self_defect": 0.0}, {"self_defect": float("nan")}):
        assert reference.check_cocycle([("bad", good | change)]), change


def test_missing_outputs_fail_every_check():
    assert reference.check_cocycle([("raised", None)])
    assert workloads.particles_check(workloads.particles_inputs(0), [None, None])
    y0 = np.zeros(2)
    rough_out = {"dyadic_ref": None, "dyadic": [(4, None, None)],
                 "allpairs": (None, None, None), "holder": (None, None),
                 "flows": [("eks", y0, None, None, None, None, None)],
                 "geometric": (None, None, None)}
    assert len(workloads.rough_check({"seed": 0}, rough_out)) == 15


def _gaussian_snapshots(means, covs, z):
    return [m + z @ np.linalg.cholesky(C).T for m, C in zip(means, covs)]


def test_eks_check_flags_shifted_mean():
    Sigma = np.diag([1.0, 4.0])
    N = 2000
    atoms0 = np.array([1.0, -1.0]) + 0.5 * whitened(N, 2, 0)
    times = list(reference.CHECK_TIMES)
    ms, Cs = reference.eks_moment_ode(Sigma, atoms0.mean(axis=0),
                                      reference.sample_cov(atoms0), times)
    snaps = dict(zip(times, _gaussian_snapshots(ms, Cs, whitened(N, 2, 1))))
    assert reference.check_eks(atoms0, snaps, Sigma) == []
    se = np.sqrt(Cs[1][0, 0] / N)
    shifted = dict(snaps)
    shifted[1.0] = snaps[1.0] + np.array([4.0 * se, 0.0])
    assert reference.check_eks(atoms0, shifted, Sigma)


def test_landau_check_flags_wrong_variance():
    N = 2000
    m0 = np.array([0.3, 0.0, -0.2])
    atoms0 = m0 + whitened(N, 3, 2)
    v0 = 3.0
    z = whitened(N, 3, 3)
    snaps = {t: m0 + z * np.sqrt(reference.landau_moments(m0, v0, t)[1] / 3.0)
             for t in reference.CHECK_TIMES}
    assert reference.check_landau(atoms0, snaps) == []
    wide = dict(snaps)
    wide[2.0] = m0 + (snaps[2.0] - m0) * 1.05
    assert reference.check_landau(atoms0, wide)


@pytest.mark.parametrize("cells,regime", [(64, "all"), (4096, "dyadic")])
def test_holder_reference_matches_program(cells, regime):
    noise = roughpath.NoisePath.generate(5, TimeGrid.regular(0.0, 1.0, cells), 2)
    fine = roughpath.brownian_lift(noise, noise.fine_grid, roughpath.STRAT)
    approx = roughpath.dyadic_approximation(noise, 3)
    dist = roughpath.rough_distance(approx, fine)
    assert reference.check_rough_distance("d", dist, approx, fine, regime) == []
    assert reference.check_rough_distance("d", dist * (1 + 1e-9), approx, fine, regime)
    norms = fine.holder_norms()
    assert reference.check_holder_norms("n", norms, fine, regime) == []
    assert reference.check_holder_norms("n", (norms[0], norms[1] * (1 - 1e-9)), fine, regime)


def test_chen_check_flags_a_defect():
    noise = roughpath.NoisePath.generate(6, TimeGrid.regular(0.0, 1.0, 256), 2)
    rp = roughpath.brownian_lift(noise, noise.fine_grid, roughpath.STRAT)
    assert reference.check_chen("lift", rp, 50, 0) == []

    class Broken:
        times = rp.times

        @staticmethod
        def chen_defect(s, u, t):
            return np.full((2, 2), 1e-9)

    assert reference.check_chen("broken", Broken, 5, 0)


def test_flow_checks_flag_errors():
    y0 = np.array([0.5, -0.3])
    assert reference.check_inversion("ok", y0, y0 + 1e-4, np.eye(2) + 1e-3) == []
    assert reference.check_inversion("far", y0, y0 + 1e-2, np.eye(2))
    assert reference.check_inversion("jac", y0, y0, np.eye(2) + 2e-2)
    X = np.random.default_rng(0).normal(size=100).cumsum() * 0.1
    assert reference.check_geometric("ok", np.exp(X - X[0]), X) == []
    assert reference.check_geometric("off", np.exp(X - X[0]) * (1 + 2e-3), X)


@pytest.fixture
def cli_run(tmp_path):
    cfg = {"model": {"name": "eks-gaussian"}, "particles": 24,
           "frozen_law": {"n_freeze": 4}, "seeds": [0, 1]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    for argv in (["simulate"], ["emit", "--kind", "moments"],
                 ["emit", "--kind", "metric-curves"]):
        assert workloads._run_verb(argv + ["--config", str(path),
                                           "--output-dir", str(out)])[0] == 0
    curves = [reference.read_curve_file(out / f"curve-seed{s}.txt") for s in (0, 1)]
    return out, curves


def _rewrite_row(path, k, change):
    lines = path.read_text().splitlines()
    rows = [ln for ln in lines if not ln.startswith("#")]
    head = [ln for ln in lines if ln.startswith("#")]
    rows[k] = change(rows[k])
    path.write_text("\n".join(head + rows) + "\n")


def test_artifact_digest_sees_same_size_edits(cli_run):
    out, _ = cli_run
    size, hashes = workloads.artifacts(out)
    _rewrite_row(out / "curve-seed0.txt", 0, lambda row: row.replace("1", "2", 1))
    size2, hashes2 = workloads.artifacts(out)
    assert size2 == size
    assert hashes2["curve-seed0.txt"] != hashes["curve-seed0.txt"]
    assert {k: v for k, v in hashes2.items() if k != "curve-seed0.txt"} == \
        {k: v for k, v in hashes.items() if k != "curve-seed0.txt"}


def test_metric_curves_check_flags_perturbed_rows(cli_run):
    out, curves = cli_run
    path = out / "metric-curves.txt"
    assert reference.check_metric_curves(path, curves) == []

    def nudge(row):
        t, w, lo, up = map(float, row.split())
        return " ".join(f"{x:.17g}" for x in (t, w * (1 + 1e-9), lo, up))

    _rewrite_row(path, 2, nudge)
    assert reference.check_metric_curves(path, curves)


def test_metric_curves_check_flags_open_bracket(cli_run):
    out, curves = cli_run
    path = out / "metric-curves.txt"

    def swap(row):
        t, w, lo, up = map(float, row.split())
        return " ".join(f"{x:.17g}" for x in (t, w, up + 1.0, up))

    _rewrite_row(path, 3, swap)
    assert reference.check_metric_curves(path, curves)


def test_moments_long_check_flags_perturbed_row(cli_run):
    out, curves = cli_run
    path = out / "moments-long.txt"
    assert reference.check_moments_long(path, [0, 1], curves) == []

    def nudge(row):
        t, name, val = row.split()
        return f"{t} {name} {float(val) + 1e-6:.17g}"

    _rewrite_row(path, 5, nudge)
    assert reference.check_moments_long(path, [0, 1], curves)


def test_verdict_lines_need_every_pass():
    checks = ["moments", "duality"]
    assert reference.check_verdict_lines("moments: PASS\nduality: PASS\n", checks) == []
    assert reference.check_verdict_lines("moments: PASS\nduality: FAIL\n", checks)
    assert reference.check_verdict_lines("moments: PASS\n", checks)


def test_tracer_counts_and_restores():
    original = measures.wasserstein_p
    mu = measures.EmpiricalMeasure(np.random.default_rng(0).normal(size=(30, 2)))
    nu = measures.EmpiricalMeasure(mu.atoms + 0.1)
    want = measures.dp_bracket(mu, nu, 2.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        got = measures.dp_bracket(mu, nu, 2.0)
        measures.wasserstein_p(mu, mu, 2.0)
    finally:
        tracer.uninstall()
    assert measures.wasserstein_p is original
    assert got == want
    layers = tracer.summary()
    assert layers["measures.wasserstein_p.calls"] == 2
    assert layers["measures.wasserstein_p.exact"] == 2
    assert layers["measures.wasserstein_p.identical_inputs"] == 1
    assert layers["measures.wasserstein_p.pairs"] == 2
    assert layers["measures.dp_bracket.calls"] == 1
    assert layers["measures.EmpiricalMeasure.integrate.calls"] > 0
    assert layers["measures.dp_bracket.self_s"] >= 0.0


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer"]]
    assert names == (spans.layer_metric_names() + workloads.CLI_LAYER_NAMES
                     + ["setup.import_s", "setup.inputs_s", "trace.overhead_s"])
    for m in spec["per_layer"]:
        assert m["unit"] == ("s" if run._is_time(m["name"]) else run._count_unit(m["name"]))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
