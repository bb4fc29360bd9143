"""Batch front-end: deterministic scenario runs and verification suites.

Verbs:
  simulate  run the frozen-law particle scheme for every seed in the panel
            and write curve + summary files
  verify    run the requested check suites and write a machine-readable
            verdict file; exit code 0 iff every requested suite passes
  emit      re-shape run artifacts into tidy long-format tables

Configuration is a single JSON file (schema in the README); all randomness
flows from the config's seed panel.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import rng, verdicts
from .cocycle import FlowDetails, FlowRun, JointState, cocycle_defect_at, flow_details
from .meanfield import (
    FrozenLawConfig,
    feynman_kac_duality,
    save_curve,
    save_curve_summary,
    simulate_frozen_law,
    stability_check,
)
from .measures import (
    EmpiricalMeasure,
    ScalarFunc,
    _map_pairs,
    dp_bracket,
    linear_func,
    write_rows,
)
from .models import build_model, psd_sqrt

DEFAULTS = {
    "T": 1.0,
    "particles": 500,
    "frozen_law": {"n_freeze": 16, "inner": 1},
    "rde": {"per_freeze": 1, "driver_fine_per": 8},
    "seeds": [0, 1, 2, 3],
    "checks": [],
    "output_dir": "roughmf-out",
}


def _load_json_object(path: str, what: str) -> dict:
    """The JSON object in the file at path, or a one-line error naming it."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"{path}: cannot read {what}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}")
    except UnicodeDecodeError:
        raise SystemExit(f"{path}: invalid JSON: not UTF-8 text")
    if not isinstance(obj, dict):
        raise SystemExit(f"{path}: {what} must be a JSON object, got {type(obj).__name__}")
    return obj


def load_config(path: str) -> dict:
    cfg = _load_json_object(path, "config")
    merged = json.loads(json.dumps(DEFAULTS))
    for k, v in cfg.items():
        if isinstance(v, dict) and isinstance(merged.get(k), dict):
            merged[k].update(v)
        else:
            merged[k] = v
    errors = validate_config(merged)
    if errors:
        raise SystemExit("\n".join(f"{path}: {e}" for e in errors))
    return merged


def validate_config(cfg: dict) -> list:
    errors = []
    model, d = cfg.get("model"), None
    if not isinstance(model, dict) or "name" not in model:
        errors.append("config needs model.name")
    elif not isinstance(model.get("params", {}), dict):
        errors.append(f"model.params must be a JSON object, got {model['params']!r}")
    else:
        try:
            d = build_model(model["name"], _model_params(model)).d
        except (ValueError, TypeError) as exc:
            errors.append(f"model: {exc}")
    cov = _check_initial(_block(cfg, "initial", errors), d, errors)
    T = cfg.get("T", DEFAULTS["T"])
    if not _is_number(T) or not T > 0:
        errors.append(f"T must be a positive number, got {T!r}")
    particles = cfg.get("particles", DEFAULTS["particles"])
    if not _is_int(particles) or particles < 1:
        errors.append(f"particles must be an integer >= 1, got {particles!r}")
    seeds = cfg.get("seeds", DEFAULTS["seeds"])
    if not isinstance(seeds, list) or not seeds:
        errors.append(f"seeds must be a non-empty list, got {seeds!r}")
    elif not all(_is_int(s) and s >= 0 for s in seeds):
        errors.append(f"seeds must be non-negative integers, got {seeds!r}")
    elif len(set(seeds)) != len(seeds):
        errors.append("seeds must be distinct")
    fl, rd = _block(cfg, "frozen_law", errors), _block(cfg, "rde", errors)
    n_freeze = fl.get("n_freeze", DEFAULTS["frozen_law"]["n_freeze"])
    inner = fl.get("inner", DEFAULTS["frozen_law"]["inner"])
    if not (_is_int(n_freeze) and _is_int(inner) and n_freeze >= 1 and inner >= 1):
        errors.append("frozen_law needs integers n_freeze >= 1 and inner >= 1")
    else:
        fine = fl.get("fine_cells")
        steps = n_freeze * inner
        if fine is not None and not (_is_int(fine) and fine >= 1 and fine % steps == 0):
            errors.append(
                f"frozen_law.fine_cells must be null or a positive multiple of "
                f"n_freeze * inner = {steps}, got {fine!r}"
            )
    errors += [f"unknown rde key {k!r} (known: {sorted(DEFAULTS['rde'])})"
               for k in sorted(rd) if k not in DEFAULTS["rde"]]
    for key in DEFAULTS["rde"]:
        val = rd.get(key, DEFAULTS["rde"][key])
        if not (_is_int(val) and val >= 1):
            errors.append(f"rde.{key} must be an integer >= 1, got {val!r}")
    checks = cfg.get("checks", [])
    if not (isinstance(checks, list) and all(isinstance(c, str) for c in checks)):
        errors.append("checks must be a list of check names")
        checks = []
    errors += [f"unknown check {c!r} (known: {sorted(CHECKS)})"
               for c in checks if c not in CHECKS]
    errors += [f"check {c!r} is listed more than once"
               for c in sorted(set(checks)) if checks.count(c) > 1]
    if "cocycle" in checks and _is_int(n_freeze) and n_freeze < 2:
        errors.append("the cocycle check needs frozen_law.n_freeze >= 2")
    if "moments" in checks and cov is not None:
        # the moments gate divides by standard errors that these variances set
        eks = model["name"] == "eks-gaussian"
        what, var = ("every diagonal entry", np.diag(cov)) if eks else ("the trace", np.trace(cov))
        if not np.all(var > 0):
            errors.append(f"the moments check needs {what} of initial.cov positive "
                          f"for {model['name']}, got {cov.tolist()}")
    return errors


#: the initial laws a config may name, each with its parameters' defaults in
#: the model's dimension d
INITIAL_LAWS = {
    "gaussian": {"mean": np.zeros, "cov": np.eye},
    "uniform": {"low": lambda d: -np.ones(d), "high": np.ones},
}


def _initial_law(init: dict, d, errors: list):
    """The initial law's kind (gaussian by default) and its parameters, each
    the config's float array for the model's dimension d, its default, or
    None after recording an error; no parameters for an unknown kind or an
    invalid model (d None)."""
    kind = init.get("kind", "gaussian")
    if kind not in INITIAL_LAWS:
        errors.append(f"initial.kind must be 'gaussian' or 'uniform', got {kind!r}")
    if kind not in INITIAL_LAWS or d is None:
        return kind, None
    return kind, {key: _initial_array(init, key, default(d), errors)
                  for key, default in INITIAL_LAWS[kind].items()}


def _check_initial(init: dict, d, errors: list):
    """Check the initial law (``_initial_law``) and its parameters' values.
    Returns a Gaussian initial law's valid covariance, else None."""
    kind, par = _initial_law(init, d, errors)
    if par is None:
        return None
    if kind == "gaussian":
        cov = par["cov"]
        if cov is not None:
            try:
                psd_sqrt(cov)
            except ValueError as exc:
                errors.append(f"initial.cov must be symmetric positive semidefinite: {exc}")
                return None
        return cov
    lo, hi = par["low"], par["high"]
    if lo is not None and hi is not None and not np.all(lo < hi):
        errors.append(f"initial.low must be below initial.high in every coordinate, "
                      f"got {lo.tolist()} and {hi.tolist()}")


def _initial_array(init: dict, key: str, default: np.ndarray, errors: list):
    """initial[key] as a float array shaped like default (default if absent),
    or None after recording an error."""
    if key not in init:
        return default
    try:
        a = np.asarray(init[key], dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is None or a.shape != default.shape or not np.all(np.isfinite(a)):
        errors.append(f"initial.{key} must be finite numbers of shape {default.shape} "
                      f"for the model's d = {len(default)}, got {init[key]!r}")
        return None
    return a


def _block(cfg: dict, key: str, errors: list) -> dict:
    block = cfg.get(key, {})
    if isinstance(block, dict):
        return block
    errors.append(f"{key} must be a JSON object, got {block!r}")
    return {}


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _model_params(model_cfg: dict) -> dict:
    params = dict(model_cfg.get("params", {}))
    if "Sigma" in params:
        params["Sigma"] = np.asarray(params["Sigma"], dtype=float)
    return params


def canonical_config(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, indent=2, default=str)


def initial_measure(cfg: dict, seed: int, model) -> EmpiricalMeasure:
    """The seed's initial law of a validated config."""
    kind, par = _initial_law(cfg.get("initial", {}), model.d, [])
    N = int(cfg["particles"])
    g = rng.stream(seed, rng.INIT_LANE)
    if kind == "gaussian":
        return EmpiricalMeasure(g.multivariate_normal(par["mean"], par["cov"], size=N))
    return EmpiricalMeasure(g.uniform(par["low"], par["high"], size=(N, model.d)))


def _frozen_cfg(cfg: dict, seed: int) -> FrozenLawConfig:
    fl = cfg["frozen_law"]
    return FrozenLawConfig(
        n_freeze=int(fl["n_freeze"]),
        inner=int(fl["inner"]),
        seed=seed,
        fine_cells=fl.get("fine_cells"),
    )


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _make_outdir(outdir: str) -> None:
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise SystemExit(f"{outdir}: cannot create output directory: {exc.strerror}")


def _read_table(path: str) -> np.ndarray:
    """The rows of numbers of a ``simulate`` artifact, or a one-line error
    naming the file."""
    if not os.path.exists(path):
        raise SystemExit(f"missing artifact {path}; run simulate first")
    try:
        return np.atleast_2d(np.loadtxt(path))
    except OSError as exc:
        raise SystemExit(f"{path}: cannot read artifact: {exc.strerror}")
    except ValueError as exc:
        raise SystemExit(f"{path}: corrupt artifact: {exc}")


def cmd_simulate(cfg: dict, outdir: str) -> int:
    model = build_model(cfg["model"]["name"], _model_params(cfg["model"]))
    _make_outdir(outdir)
    for seed in cfg["seeds"]:
        mu0 = initial_measure(cfg, seed, model)
        curve = simulate_frozen_law(model, mu0, _frozen_cfg(cfg, seed), cfg["T"])
        save_curve(curve, os.path.join(outdir, f"curve-seed{seed}.txt"))
        save_curve_summary(curve, os.path.join(outdir, f"summary-seed{seed}.txt"))
    with open(os.path.join(outdir, "config.json"), "w") as fh:
        fh.write(canonical_config(cfg) + "\n")
    return 0


def verify_run(cfg: dict) -> tuple[FlowRun, FlowDetails]:
    """The run every check reads: the first seed's initial law, its
    ``FlowRun`` and the one-shot joint flow over [0, T] from the law's first
    atom.  The flow's law curve is ``simulate_frozen_law`` of that law on the
    run's increments."""
    model = build_model(cfg["model"]["name"], _model_params(cfg["model"]))
    seed = cfg["seeds"][0]
    mu0 = initial_measure(cfg, seed, model)
    run = FlowRun(model, _frozen_cfg(cfg, seed), cfg["T"],
                  rde_per_freeze=cfg["rde"]["per_freeze"],
                  driver_fine_per=cfg["rde"]["driver_fine_per"])
    return run, flow_details(run, JointState(mu0.atoms[0], mu0), cfg["T"])


def _phi_sq(d):
    return ScalarFunc("sq", lambda Y: np.sum(Y * Y, axis=1), lambda Y: 2.0 * Y,
                      lambda Y: np.broadcast_to(2.0 * np.eye(d), (len(Y), d, d)))


def check_moments(run: FlowRun, details: FlowDetails) -> dict:
    return verdicts.moments(run.model, details.curve, [run.cfg.n_freeze])


def check_duality(run: FlowRun, details: FlowDetails) -> dict:
    d = run.model.d
    phis = (linear_func(np.eye(d)[0], "coord0"), _phi_sq(d))
    reps = feynman_kac_duality(run.model, details.curve, phis, run.cfg, run.T)
    return verdicts.duality({phi.name: rep for phi, rep in zip(phis, reps)})


def check_cocycle(run: FlowRun, details: FlowDetails) -> dict:
    n = run.cfg.n_freeze
    q = max(1, n // 4)
    e0 = details.state_at(0)
    return verdicts.cocycle(
        cocycle_defect_at(run, e0, i * q, j * q, details=details)
        for i in (1, 2) for j in (1, 2) if (i + j) * q <= n
    )


def check_stability(run: FlowRun, details: FlowDetails) -> dict:
    mu0 = details.curve.measures[0]
    shift_dir = np.ones(mu0.d) / np.sqrt(mu0.d)
    starts = [EmpiricalMeasure(mu0.atoms + eps * shift_dir, mu0.weights)
              for eps in (1e-1, 1e-2)]
    reps = stability_check(run.model, details.curve, starts, run.cfg, run.T, 2.0,
                           run.law_noise(mu0.n))
    return verdicts.stability([rep["max_ratio"] for rep in reps])


CHECKS = {
    "moments": check_moments,
    "duality": check_duality,
    "cocycle": check_cocycle,
    "stability": check_stability,
}


def cmd_verify(cfg: dict, outdir: str) -> int:
    if not cfg["checks"]:
        raise SystemExit(f"verify: the config lists no checks (known: {sorted(CHECKS)})")
    _make_outdir(outdir)
    run, details = verify_run(cfg)
    verdict = {name: CHECKS[name](run, details) for name in cfg["checks"]}
    with open(os.path.join(outdir, "verdict.json"), "w") as fh:
        json.dump(verdict, fh, sort_keys=True, indent=2, default=float)
        fh.write("\n")
    all_pass = all(v.get("pass", False) for v in verdict.values())
    for name, v in verdict.items():
        print(f"{name}: {'PASS' if v.get('pass') else 'FAIL'}")
    return 0 if all_pass else 1


DEFECT_KEYS = ("s", "t", "point_defect", "law_defect", "tolerance")


def _defect_rows(verdict: dict, path: str) -> list:
    """The ``DEFECT_KEYS`` numbers of each cocycle row of a verdict, or a
    one-line error naming its file; a verdict without a cocycle check has
    no rows."""
    rows = verdict.get("cocycle", {})
    rows = rows.get("defects", []) if isinstance(rows, dict) else None
    if not isinstance(rows, list):
        raise SystemExit(f"{path}: corrupt verdict: cocycle defects must be a list of rows")
    for i, rep in enumerate(rows):
        if not isinstance(rep, dict) or not all(_is_number(rep.get(k)) for k in DEFECT_KEYS):
            raise SystemExit(f"{path}: corrupt verdict: cocycle defect row {i} needs "
                             f"numbers {', '.join(DEFECT_KEYS)}")
    return [[rep[k] for k in DEFECT_KEYS] for rep in rows]


def cmd_emit(cfg: dict, outdir: str, kind: str) -> int:
    if kind == "moments":
        rows = []
        for seed in cfg["seeds"]:
            path = os.path.join(outdir, f"summary-seed{seed}.txt")
            table = _read_table(path)
            k = table.shape[1]
            d = int(np.sqrt(max(k - 3, 0) + 0.25) - 0.5)
            if d < 1 or k != 3 + d + d * d:
                raise SystemExit(f"{path}: corrupt artifact: {k} columns, "
                                 f"not 3 + d + d^2 for a dimension d >= 1")
            names = (
                ["M2", "M4"]
                + [f"mean{i}" for i in range(d)]
                + [f"cov{i}{j}" for i in range(d) for j in range(d)]
            )
            for row in table:
                for name, val in zip(names, row[1:]):
                    rows.append((row[0], f"seed{seed}:{name}", val))
        out = os.path.join(outdir, "moments-long.txt")
        with open(out, "w") as fh:
            fh.write("# t statistic value\n")
            for t, name, val in rows:
                fh.write(f"{t:.17g} {name} {val:.17g}\n")
        print(out)
        return 0
    if kind == "defects":
        src = os.path.join(outdir, "verdict.json")
        if not os.path.exists(src):
            raise SystemExit(f"missing artifact {src}; run verify first")
        rows = _defect_rows(_load_json_object(src, "verdict"), src)
        out = os.path.join(outdir, "defects-long.txt")
        with open(out, "w") as fh:
            fh.write("# " + " ".join(DEFECT_KEYS) + "\n")
            write_rows(fh, np.array(rows, dtype=float).reshape(-1, len(DEFECT_KEYS)))
        print(out)
        return 0
    if kind == "metric-curves":
        # every seed's (time, cloud, initial cloud), then one map over all
        # the brackets: they are independent transport problems
        points = []
        for seed in cfg["seeds"]:
            path = os.path.join(outdir, f"curve-seed{seed}.txt")
            table = _read_table(path)  # its "#" header line is a comment
            if table.shape[1] < 3:
                raise SystemExit(f"{path}: corrupt artifact: {table.shape[1]} columns, "
                                 f"not time, particle id and coordinates")
            times = np.unique(table[:, 0])
            clouds = [
                EmpiricalMeasure(table[table[:, 0] == t][:, 2:]) for t in times
            ]
            points += [(t, m, clouds[0]) for t, m in zip(times, clouds)]
        brackets = _map_pairs(lambda m, m0: dp_bracket(m, m0, 2.0),
                              [(m, m0) for _, m, m0 in points])
        rows = [(t, info["w_p"], lo, up)
                for (t, _, _), (lo, up, info) in zip(points, brackets)]
        out = os.path.join(outdir, "metric-curves.txt")
        with open(out, "w") as fh:
            fh.write("# t d_p dp_lower dp_upper\n")
            write_rows(fh, np.array(rows, dtype=float))
        print(out)
        return 0
    raise SystemExit(f"unknown emit kind {kind!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="roughmf", description=__doc__)
    sub = ap.add_subparsers(dest="verb", required=True)
    for verb in ("simulate", "verify", "emit"):
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True)
        p.add_argument("--output-dir", default=None)
        if verb == "emit":
            p.add_argument("--kind", required=True,
                           choices=["moments", "defects", "metric-curves"])
    args = ap.parse_args(argv)
    cfg = load_config(args.config)
    outdir = args.output_dir or os.environ.get("ROUGHMF_OUTPUT_DIR") or cfg["output_dir"]
    try:
        if args.verb == "simulate":
            return cmd_simulate(cfg, outdir)
        if args.verb == "verify":
            return cmd_verify(cfg, outdir)
        return cmd_emit(cfg, outdir, args.kind)
    except RuntimeError as exc:
        # a run that failed on a valid config: a non-finite particle state,
        # the RDE blow-up guard, a transport LP that did not solve
        raise SystemExit(f"{args.verb}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
