"""The four benchmark workloads: their inputs, one round of work, and the
checks run on a round's outputs.

A round is a fixed sequence of operations on the inputs; every run repeats
whole rounds.  Each workload calls roughmf through module attributes so the
traced run's wrappers see every call.  Rounds rebuild the rough paths and
flow runs they use, so nothing the package caches on those objects carries
over from one round to the next.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import reference
from roughmf import cli, cocycle, meanfield, measures, models, rde, roughpath
from roughmf.grids import TimeGrid

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_CONFIG = os.path.join(HERE, "reference-config.json")
CLI_OUTDIR = os.path.join(HERE, "out", "cli-pipeline")


class Ops:
    """Counts the operations a run attempts and the ones that raise."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # a failed operation is counted and the round goes on
            self.failed += 1
            traceback.print_exc()
            return None


# ---------------------------------------------------------------------------
# cocycle: acceptance criterion 6, one seed per model
# ---------------------------------------------------------------------------

COCYCLE_MODELS = (
    ("eks-gaussian", {"Sigma": [[1.0, 0.0], [0.0, 4.0]]}),
    ("landau-maxwell", None),
)
COCYCLE_PAIRS = [(s8 / 8, t8 / 8) for s8 in (1, 2, 3, 4) for t8 in (1, 2, 3, 4)]


def cocycle_inputs(seed):
    out = []
    for k, (name, params) in enumerate(COCYCLE_MODELS):
        model = models.build_model(name, params)
        atoms = np.random.default_rng([seed, k]).normal(size=(2000, model.d))
        cfg = meanfield.FrozenLawConfig(64, inner=1, seed=seed)
        out.append((model, cfg, measures.EmpiricalMeasure(atoms)))
    return out


def cocycle_round(inputs, op):
    reports = []
    for model, cfg, mu0 in inputs:
        run = cocycle.FlowRun(model, cfg, 1.0)
        e0 = cocycle.JointState(mu0.atoms[0], mu0)
        details = op(cocycle.flow_details, run, e0, 1.0)
        for s, t in COCYCLE_PAIRS:
            rep = op(cocycle.cocycle_defect, run, e0, s, t, details=details)
            reports.append((f"{model.name} s={s} t={t}", rep))
    return reports


def cocycle_check(inputs, reports):
    return reference.check_cocycle(reports)


def cocycle_digest(reports):
    return [None if r is None else (r["point_defect"], r["law_defect"], r["self_defect"])
            for _, r in reports]


# ---------------------------------------------------------------------------
# particles: acceptance criterion 7 sizes, long frozen-law runs
# ---------------------------------------------------------------------------

EKS_SIGMA = np.diag([1.0, 4.0])
PARTICLE_T = 2.0


def particles_inputs(seed):
    # Fixed inputs whatever the seed: the check is a 3-standard-error band
    # on 18 correlated statistics per model, which a fresh draw would cross
    # by chance on a sizeable share of seeds.
    eks = models.build_model("eks-gaussian", {"Sigma": EKS_SIGMA})
    mu_e = np.random.default_rng(42).normal(size=(5000, 2)) * 0.5 + np.array([1.0, -1.0])
    lan = models.build_model("landau-maxwell")
    mu_l = np.random.default_rng(7).normal(size=(5000, 3)) + np.array([0.3, 0.0, -0.2])
    return [
        (eks, measures.EmpiricalMeasure(mu_e), meanfield.FrozenLawConfig(128, inner=1, seed=0)),
        (lan, measures.EmpiricalMeasure(mu_l), meanfield.FrozenLawConfig(128, inner=4, seed=1)),
    ]


def particles_round(inputs, op):
    return [op(meanfield.simulate_frozen_law, model, mu0, cfg, PARTICLE_T)
            for model, mu0, cfg in inputs]


def _snapshots(curve):
    out = {}
    for t in reference.CHECK_TIMES:
        k = int(np.argmin(np.abs(curve.times - t)))
        if abs(curve.times[k] - t) <= 1e-9:
            out[t] = curve.measures[k].atoms
    return out


def particles_check(inputs, curves):
    (_, mu_e, _), (_, mu_l, _) = inputs
    eks, lan = curves
    bad = []
    for name, curve in (("eks", eks), ("landau", lan)):
        if curve is None:
            bad.append(f"{name}: no output")
        elif len(_snapshots(curve)) != len(reference.CHECK_TIMES):
            bad.append(f"{name}: curve misses a check time")
    if bad:
        return bad
    return (reference.check_eks(mu_e.atoms, _snapshots(eks), EKS_SIGMA)
            + reference.check_landau(mu_l.atoms, _snapshots(lan)))


def particles_digest(curves):
    return [None if c is None else c.measures[-1].atoms.tobytes() for c in curves]


# ---------------------------------------------------------------------------
# rough-paths: Hölder pair kernels, lifts and per-step RDE loops
# ---------------------------------------------------------------------------

DYADIC_LEVELS = (4, 6, 8, 10)
FLOW_CELLS = 1 << 12


def _eks_field():
    # EKS-type: state-independent sigma = sqrt(2 C) for a frozen covariance
    A = models.psd_sqrt(2.0 * np.array([[1.0, 0.3], [0.3, 4.0]]))
    return rde.linear_coefficients(np.zeros((2, 2, 2)), a1=lambda t: A)


def _landau_field():
    # Landau-type: sigma(y) = sigma0(y - m) for a frozen mean m
    s0m = models.sigma0(np.array([0.2, -0.1, 0.3]))
    return rde.linear_coefficients(models.LANDAU_S0 * 1.0, a1=lambda t: -s0m, d=3)


def rough_inputs(seed):
    def noise(member, cells, d):
        return roughpath.NoisePath.generate(
            seed, TimeGrid.regular(0.0, 1.0, cells), d, member=member
        )

    return {
        "seed": seed,
        "dyadic": noise(0, 1 << 14, 2),
        "allpairs": noise(1, 1 << 11, 2),
        "flows": [
            ("eks", _eks_field(), noise(2, 1 << 14, 2), np.array([0.7, -0.4])),
            ("landau", _landau_field(), noise(3, 1 << 14, 3), np.array([0.5, -0.3, 0.2])),
        ],
        "geometric": (rde.linear_coefficients(np.ones((1, 1, 1))), noise(4, 1 << 15, 1)),
    }


def _lift(op, noise, cells):
    grid = noise.fine_grid if cells is None else TimeGrid.regular(0.0, 1.0, cells)
    return op(roughpath.brownian_lift, noise, grid, roughpath.STRAT)


def rough_round(inputs, op):
    out = {"dyadic": [], "flows": []}
    # dyadic pairs regime: 2^14 cells, above the all-pairs cap
    ref = _lift(op, inputs["dyadic"], None)
    out["dyadic_ref"] = ref
    for n in DYADIC_LEVELS:
        approx = op(roughpath.dyadic_approximation, inputs["dyadic"], n)
        dist = op(roughpath.rough_distance, approx, ref)
        out["dyadic"].append((n, approx, dist))
    # all-pairs regime: 2^11 cells
    ref11 = _lift(op, inputs["allpairs"], None)
    approx11 = op(roughpath.dyadic_approximation, inputs["allpairs"], 5)
    out["allpairs"] = (ref11, approx11, op(roughpath.rough_distance, approx11, ref11))
    out["holder"] = (ref11, op(lambda: ref11.holder_norms()))
    # criterion 5 flow inversion at 4096 cells, plus the affine flow maps;
    # an operation whose input failed is still attempted, and fails too
    for label, coeff, noise, y0 in inputs["flows"]:
        rp = _lift(op, noise, FLOW_CELLS)
        fwd = op(rde.solve_driftless, coeff, rp, y0)
        back = op(rde.solve_backward, coeff, rp, y0, 0.0, 1.0)
        again = op(lambda: rde.solve_driftless(coeff, rp, back.Y[0]))
        fz = op(rde.flow_jacobian, coeff, rp, y0, "forward")
        bz = op(lambda: rde.flow_jacobian(coeff, rp, fwd.Y[-1], "backward"))
        maps = op(rde.linear_flow, coeff, rp)
        out["flows"].append((label, y0, fwd, again, fz, bz, maps))
    coeff, noise = inputs["geometric"]
    rp1 = _lift(op, noise, FLOW_CELLS)
    out["geometric"] = (rp1, op(rde.solve_driftless, coeff, rp1, 1.0),
                        op(rde.linear_flow, coeff, rp1))
    return out


def _missing(label, *outputs):
    """A check failure for each output that an operation did not return."""
    return [f"{label}: no output"] * sum(x is None for x in outputs)


def rough_check(inputs, out):
    seed = inputs["seed"]
    ref = out["dyadic_ref"]
    bad = _missing("fine lift 2^14", ref)
    for n, approx, dist in out["dyadic"]:
        missing = _missing(f"dyadic level {n}", approx, dist)
        bad += missing
        if missing or ref is None:
            continue
        bad += reference.check_rough_distance(f"dyadic level {n}", dist, approx, ref, "dyadic")
        bad += reference.check_chen(f"dyadic level {n}", approx, 50, [seed, n])
    if ref is not None:
        bad += reference.check_chen("fine lift 2^14", ref, 200, [seed, 0])
    ref11, approx11, dist11 = out["allpairs"]
    missing = _missing("all pairs", *out["allpairs"]) + _missing("holder_norms", out["holder"][1])
    bad += missing
    if not missing:
        bad += reference.check_rough_distance("all pairs", dist11, approx11, ref11, "all")
        bad += reference.check_chen("fine lift 2^11", ref11, 200, [seed, 1])
        bad += reference.check_holder_norms("holder_norms", out["holder"][1], ref11, "all")
    for label, y0, fwd, again, fz, bz, maps in out["flows"]:
        missing = _missing(label, fwd, again, fz, bz, maps)
        bad += missing
        if missing:
            continue
        bad += reference.check_inversion(label, y0, again.Y[-1], bz[0] @ fz[-1])
        # the affine maps tabulate the same Milstein steps as the stepper
        Mf, vf = maps
        gap = reference.rel_gap(np.einsum("kij,j->ki", Mf, y0) + vf, fwd.Y)
        if gap > 1e-8:
            bad.append(f"{label}: linear_flow maps off the stepper by {gap:.2e}")
    rp1, sol, maps = out["geometric"]
    missing = _missing("dY = Y dX", rp1, sol, maps)
    bad += missing
    if not missing:
        X = rp1.values[:, 0]
        bad += reference.check_geometric("solve_driftless dY = Y dX", sol.Y[:, 0], X)
        Mf, vf = maps
        bad += reference.check_geometric("linear_flow dY = Y dX", Mf[:, 0, 0] + vf[:, 0], X)
    return bad


def rough_digest(out):
    dists = [d for _, _, d in out["dyadic"]] + [out["allpairs"][2], out["holder"][1]]
    flows = [None if f[2] is None else f[2].Y.tobytes() for f in out["flows"]]
    return dists + flows


# ---------------------------------------------------------------------------
# cli-pipeline: simulate, verify, emit on the reference config
# ---------------------------------------------------------------------------

CLI_VERBS = (
    ("simulate", ["simulate"]),
    ("verify", ["verify"]),
    ("emit-moments", ["emit", "--kind", "moments"]),
    ("emit-defects", ["emit", "--kind", "defects"]),
    ("emit-metric-curves", ["emit", "--kind", "metric-curves"]),
)


def config_hash() -> str:
    with open(REFERENCE_CONFIG, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cli_inputs(seed):
    # The reference config fixes the seed panel, so the verdicts and the
    # artifacts are the same whatever the benchmark seed.
    cfg = cli.load_config(REFERENCE_CONFIG)
    return {"config": REFERENCE_CONFIG, "cfg": cfg, "outdir": CLI_OUTDIR}


def _run_verb(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # the CLI's own error exit
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, buf.getvalue()


def cli_round(inputs, op):
    outdir = inputs["outdir"]
    shutil.rmtree(outdir, ignore_errors=True)
    out = {"rc": {}, "stdout": {}, "wall_s": {}}
    for name, argv in CLI_VERBS:
        t0 = time.perf_counter()
        res = op(_run_verb, argv + ["--config", inputs["config"], "--output-dir", outdir])
        out["wall_s"][name] = time.perf_counter() - t0
        if res is None:
            res = (None, "")
        elif res[0] != 0:
            op.failed += 1  # the verb ran but reported failure
        out["rc"][name], out["stdout"][name] = res
    out["artifact_bytes"], out["artifact_sha256"] = artifacts(outdir)
    return out


def artifacts(outdir):
    """Total size and per-file SHA-256 of the files a round wrote."""
    total, hashes = 0, {}
    for f in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, f), "rb") as fh:
            data = fh.read()
        total += len(data)
        hashes[f] = hashlib.sha256(data).hexdigest()
    return total, hashes


def cli_check(inputs, out):
    cfg, outdir = inputs["cfg"], inputs["outdir"]
    bad = [f"{name} exited {rc}" for name, rc in out["rc"].items() if rc != 0]
    bad += reference.check_verdict_lines(out["stdout"]["verify"], cfg["checks"])
    seeds = cfg["seeds"]
    try:
        curves = [reference.read_curve_file(os.path.join(outdir, f"curve-seed{s}.txt"))
                  for s in seeds]
        bad += reference.check_metric_curves(os.path.join(outdir, "metric-curves.txt"), curves)
        bad += reference.check_moments_long(os.path.join(outdir, "moments-long.txt"),
                                            seeds, curves)
    except OSError as exc:
        bad.append(f"missing artifact: {exc}")
    return bad


def cli_digest(out):
    return [out["rc"], out["stdout"]["verify"], out["artifact_sha256"]]


def cli_layers(out):
    layers = {f"cli.{name}.wall_s": out["wall_s"][name] for name, _ in CLI_VERBS}
    layers["cli.artifact_bytes"] = out["artifact_bytes"]
    return layers


CLI_LAYER_NAMES = [f"cli.{name}.wall_s" for name, _ in CLI_VERBS] + ["cli.artifact_bytes"]


@dataclass(frozen=True)
class Workload:
    inputs: Callable
    round: Callable
    check: Callable
    digest: Callable
    layers: Optional[Callable] = None


WORKLOADS = {
    "cocycle": Workload(cocycle_inputs, cocycle_round, cocycle_check, cocycle_digest),
    "particles": Workload(particles_inputs, particles_round, particles_check,
                          particles_digest),
    "rough-paths": Workload(rough_inputs, rough_round, rough_check, rough_digest),
    "cli-pipeline": Workload(cli_inputs, cli_round, cli_check, cli_digest, cli_layers),
}
