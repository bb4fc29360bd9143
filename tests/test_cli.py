import json
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

import roughmf.cli as cli
from roughmf import cocycle, meanfield, verdicts
from roughmf.cli import canonical_config, load_config, main, validate_config

from conftest import fresh_python, python_process


def write_config(tmp_path, **overrides):
    cfg = {
        "model": {"name": "eks-gaussian", "params": {"Sigma": [[1.0, 0.0], [0.0, 4.0]]}},
        "T": 0.5,
        "particles": 120,
        "frozen_law": {"n_freeze": 8, "inner": 2},
        "seeds": [0, 1],
    }
    cfg.update(overrides)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


def test_load_config_defaults_merge(tmp_path):
    p = write_config(tmp_path)
    cfg = load_config(str(p))
    assert cfg["rde"] == {"per_freeze": 1, "driver_fine_per": 8}  # defaults filled in
    assert cfg["frozen_law"]["n_freeze"] == 8  # override kept
    assert cfg["particles"] == 120


def test_load_config_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"model": }')
    with pytest.raises(SystemExit) as exc:
        load_config(str(p))
    assert "invalid JSON" in str(exc.value)


def test_validate_config_messages():
    errs = validate_config({"seeds": [1, 1], "checks": ["nope"], "frozen_law": {}})
    joined = "\n".join(errs)
    assert "model.name" in joined
    assert "distinct" in joined
    assert "nope" in joined
    model = {"name": "landau-maxwell"}
    assert validate_config({"model": model}) == []
    cases = [
        ({"seeds": [0, -1]}, "non-negative integers"),
        ({"seeds": [0.5]}, "non-negative integers"),
        ({"seeds": []}, "non-empty"),
        ({"T": 0.0}, "T must be a positive number"),
        ({"T": "1"}, "T must be a positive number"),
        ({"particles": 0}, "particles must be an integer >= 1"),
        ({"particles": 2.5}, "particles must be an integer >= 1"),
        ({"frozen_law": {"n_freeze": 1}, "checks": ["cocycle"]}, "n_freeze >= 2"),
        ({"frozen_law": {"n_freeze": "8"}}, "integers n_freeze >= 1"),
        ({"frozen_law": {"n_freeze": 4, "fine_cells": 6}}, "fine_cells must be null"),
        ({"frozen_law": {"n_freeze": 4, "inner": 2, "fine_cells": 4}}, "multiple of"),
        ({"frozen_law": {"n_freeze": 4, "fine_cells": 0}}, "fine_cells must be null"),
        ({"frozen_law": {"n_freeze": 4, "fine_cells": 8.0}}, "fine_cells must be null"),
        ({"rde": {"alpha": 0.4}}, "unknown rde key 'alpha' (known: ['driver_fine_per', "
                                  "'per_freeze'])"),
        ({"rde": {"per_freez": 2}}, "unknown rde key 'per_freez'"),
        ({"rde": {"per_freeze": 0}}, "rde.per_freeze must be an integer >= 1"),
        ({"rde": {"per_freeze": 1.5}}, "rde.per_freeze must be an integer >= 1"),
        ({"rde": {"driver_fine_per": 0}}, "rde.driver_fine_per must be an integer >= 1"),
        ({"rde": 5}, "rde must be a JSON object"),
        ({"frozen_law": [4]}, "frozen_law must be a JSON object"),
        ({"initial": [1]}, "initial must be a JSON object"),
        ({"initial": {"kind": "cauchy"}}, "initial.kind must be 'gaussian' or 'uniform'"),
        ({"initial": {"mean": [0.0, 0.0]}}, "initial.mean must be finite numbers of shape (3,)"),
        ({"initial": {"mean": "origin"}}, "initial.mean must be finite numbers"),
        ({"initial": {"cov": np.eye(2).tolist()}}, "initial.cov must be finite numbers"),
        ({"initial": {"cov": np.diag([1.0, -1.0, 1.0]).tolist()}}, "positive semidefinite"),
        ({"initial": {"cov": [[1, 1, 0], [0, 1, 0], [0, 0, 1]]}}, "positive semidefinite"),
        ({"initial": {"kind": "uniform", "low": [0.0]}}, "initial.low must be finite numbers"),
        ({"initial": {"kind": "uniform", "high": [1, 1, -1]}}, "below initial.high"),
        ({"initial": {"kind": "uniform", "low": [0, 0, 0], "high": [1, 0, 1]}},
         "below initial.high"),
        ({"model": {"name": "eks-gaussian", "params": {"Sigma": [[1, 0], [0, -1]]}}},
         "Sigma must be symmetric positive definite"),
        ({"model": {"name": "eks-gaussian", "params": {"Sigma": [[1, 0.5], [0, 1]]}}},
         "Sigma must be symmetric positive definite"),
        ({"model": {"name": "eks-gaussian", "params": {"d": None}}}, "model: int() argument"),
    ]
    for override, message in cases:
        errs = validate_config({"model": model} | override)
        assert any(message in e for e in errs), (override, errs)
    # one window is fine when no cocycle check asks for a restart time
    assert validate_config({"model": model, "frozen_law": {"n_freeze": 1}}) == []
    fine = {"n_freeze": 4, "inner": 2, "fine_cells": 24}
    assert validate_config({"model": model, "frozen_law": fine}) == []
    box = {"kind": "uniform", "low": [-1, -1, -1], "high": [1, 2, 3]}
    assert validate_config({"model": model, "initial": box}) == []
    gauss = {"mean": [0, 1, 2], "cov": np.diag([1.0, 0.0, 2.0]).tolist()}
    assert validate_config({"model": model, "initial": gauss}) == []


def test_validate_config_reads_absent_frozen_law_keys_from_the_defaults():
    # load_config fills n_freeze 16 and inner 1; a direct call must agree
    model = {"name": "eks-gaussian"}
    assert validate_config({"model": model, "checks": ["cocycle"]}) == []
    errs = validate_config({"model": model, "frozen_law": {"fine_cells": 8}})
    assert any("n_freeze * inner = 16" in e for e in errs), errs
    assert validate_config({"model": model, "frozen_law": {"inner": 2, "fine_cells": 64}}) == []


def test_config_errors_are_clear_not_tracebacks(tmp_path):
    cases = [
        ("verify", {"seeds": [-1]}),
        ("verify", {"frozen_law": {"n_freeze": 1}, "checks": ["cocycle"]}),
        ("simulate", {"frozen_law": {"n_freeze": 4, "fine_cells": 6}}),
        ("verify", {"rde": {"alpha": 0.7}, "checks": ["cocycle"]}),
        ("simulate", {"initial": [1]}),
        ("simulate", {"initial": {"kind": "cauchy"}}),
        ("simulate", {"initial": {"mean": [0.0, 0.0, 0.0]}}),
        ("simulate", {"initial": {"cov": [[1.0, 0.0], [0.0, -1.0]]}}),
        ("simulate", {"initial": {"kind": "uniform", "low": [1.0, 0.0], "high": [0.0, 1.0]}}),
        ("simulate", {"model": {"name": "eks-gaussian", "params": {"Sigma": [[1, 0], [0, -4]]}}}),
    ]
    for verb, override in cases:
        p = write_config(tmp_path, **override)
        with pytest.raises(SystemExit) as exc:
            main([verb, "--config", str(p), "--output-dir", str(tmp_path / "out")])
        assert str(p) in str(exc.value)
        assert len(str(exc.value).splitlines()) == 1, str(exc.value)


def test_bad_checks_value_is_one_line_error(tmp_path):
    for checks in (5, [["moments"]], "moments"):
        p = write_config(tmp_path, checks=checks)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", str(p), "--output-dir", str(tmp_path / "out")])
        assert str(exc.value) == f"{p}: checks must be a list of check names", checks


def test_repeated_check_is_one_line_error(tmp_path):
    # a check named twice would run twice and keep one entry
    p = write_config(tmp_path, checks=["moments", "cocycle", "moments"])
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(p), "--output-dir", str(tmp_path / "out")])
    assert str(exc.value) == f"{p}: check 'moments' is listed more than once"


def test_moments_check_rejects_zero_standard_errors(tmp_path):
    # the moments gate divides by standard errors that these variances zero
    eks = {"name": "eks-gaussian", "params": {"Sigma": [[1.0, 0.0], [0.0, 4.0]]}}
    cases = [
        (eks, np.zeros((2, 2)), "needs every diagonal entry of initial.cov positive"),
        (eks, np.diag([1.0, 0.0]), "needs every diagonal entry of initial.cov positive"),
        ({"name": "landau-maxwell"}, np.zeros((3, 3)), "needs the trace of initial.cov positive"),
    ]
    for model, cov, message in cases:
        p = write_config(tmp_path, model=model, initial={"cov": cov.tolist()},
                         checks=["moments"])
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--config", str(p), "--output-dir", str(tmp_path / "out")])
        assert str(exc.value).startswith(f"{p}: the moments check needs"), str(exc.value)
        assert message in str(exc.value)
        assert len(str(exc.value).splitlines()) == 1
        # other checks and simulate do not divide by them
        assert validate_config({"model": model, "initial": {"cov": cov.tolist()},
                                "checks": ["duality"]}) == []
    assert not (tmp_path / "out").exists()


def test_moments_check_on_singular_covariance_writes_finite_numbers(tmp_path):
    # a singular covariance with a positive diagonal keeps every standard
    # error positive, so verdict.json stays standard JSON
    p = write_config(tmp_path, initial={"cov": [[1.0, 1.0], [1.0, 1.0]]},
                     particles=60, seeds=[0], checks=["moments"])
    out = tmp_path / "out"
    main(["verify", "--config", str(p), "--output-dir", str(out)])

    def reject(token):
        raise AssertionError(f"verdict.json holds {token}")

    rep = json.loads((out / "verdict.json").read_text(), parse_constant=reject)["moments"]
    assert all(np.isfinite(rep[k]) for k in ("z_mean", "z_cov", "margin"))


def test_verify_without_checks_is_one_line_error(tmp_path):
    # a verdict file with no checks in it would be a pass that checked nothing
    p = write_config(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(p), "--output-dir", str(out)])
    assert str(exc.value).startswith("verify: the config lists no checks")
    assert len(str(exc.value).splitlines()) == 1
    assert not out.exists()


def test_only_named_models_load(tmp_path):
    # a model that cannot be built from a config is rejected by name, in one line
    p = write_config(tmp_path, model={"name": "eks-custom", "params": {"d": 2, "potential": "x"}})
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(p), "--output-dir", str(tmp_path / "out")])
    assert str(exc.value) == f"{p}: model: unknown model 'eks-custom'"


def test_missing_config_file_is_one_line_error(tmp_path):
    p = tmp_path / "absent.json"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(p), "--output-dir", str(tmp_path / "out")])
    assert str(exc.value) == f"{p}: cannot read config: No such file or directory"


def test_non_object_config_is_one_line_error(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(p), "--output-dir", str(tmp_path / "out")])
    assert str(exc.value) == f"{p}: config must be a JSON object, got list"


def test_non_object_model_params_is_one_line_error(tmp_path):
    p = write_config(tmp_path, model={"name": "eks-gaussian", "params": 3})
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(p), "--output-dir", str(tmp_path / "out")])
    assert str(exc.value) == f"{p}: model.params must be a JSON object, got 3"


def test_cocycle_check_tests_positive_restart_times(tmp_path):
    # n_freeze < 4 once gave q = 0 and only the trivial s = t = 0 row
    p = write_config(tmp_path, model={"name": "landau-maxwell"}, particles=40,
                     frozen_law={"n_freeze": 2, "inner": 1}, checks=["cocycle"])
    cfg = load_config(str(p))
    rep = cli.check_cocycle(*cli.verify_run(cfg))
    assert rep["defects"]
    assert all(row["s"] > 0 and row["t"] > 0 for row in rep["defects"])


def test_stability_check_fails_on_unequal_decay(tmp_path, monkeypatch):
    # the t = 0 ratio is 1 for every epsilon and must not mask the decay
    fake = [[1.0, 0.2], [1.0, 0.9]]

    def stability_check(model, curve, starts, *args, **kwargs):
        assert len(starts) == len(fake)  # one call for every epsilon
        return [{"initial": 1.0, "ratios": r, "max_ratio": max(r[1:])} for r in fake]

    monkeypatch.setattr(cli, "stability_check", stability_check)
    cfg = load_config(str(write_config(tmp_path, particles=20)))
    rep = cli.check_stability(*cli.verify_run(cfg))
    assert rep["max_ratios"] == [0.2, 0.9]
    assert not rep["pass"]


def test_canonical_config_stable():
    a = canonical_config({"b": 1, "a": 2})
    b = canonical_config({"a": 2, "b": 1})
    assert a == b


def test_simulate_writes_artifacts(tmp_path):
    p = write_config(tmp_path)
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(p), "--output-dir", str(out)])
    assert rc == 0
    for seed in (0, 1):
        assert (out / f"curve-seed{seed}.txt").exists()
        assert (out / f"summary-seed{seed}.txt").exists()
    assert (out / "config.json").exists()
    # canonical config is reproducible
    assert json.loads((out / "config.json").read_text())["particles"] == 120


def test_simulate_deterministic(tmp_path):
    p = write_config(tmp_path, seeds=[7])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(p), "--output-dir", str(out1)])
    main(["simulate", "--config", str(p), "--output-dir", str(out2)])
    assert (out1 / "curve-seed7.txt").read_text() == (
        out2 / "curve-seed7.txt"
    ).read_text()


def test_verify_passes_and_writes_verdict(tmp_path):
    p = write_config(
        tmp_path,
        particles=400,
        checks=["moments", "duality", "cocycle", "stability"],
    )
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(p), "--output-dir", str(out)])
    verdict = json.loads((out / "verdict.json").read_text())
    assert set(verdict) == {"moments", "duality", "cocycle", "stability"}
    for name, rec in verdict.items():
        assert rec["pass"], (name, rec)
        assert rec["contract"] and rec["margin"] >= 0, (name, rec)
    assert rc == 0


def test_verify_runs_its_seed_once(tmp_path, monkeypatch):
    # one initial law and one one-shot flow serve all four checks: its curve,
    # the cocycle restarts at ks = 2 and 4 of 8 windows, each run to kt = 2
    # and then extended to kt = 4, two moved stability starts; nothing
    # re-simulates the one-shot curve, no Euler step runs twice, and only the
    # run's block and the duality check's independent one are drawn
    calls = Counter()
    step = meanfield._euler_step
    monkeypatch.setattr(meanfield, "_euler_step",
                        lambda *a: calls.update(["euler_step"]) or step(*a))

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    sim = counted("simulate_frozen_law", meanfield.simulate_frozen_law)
    for module in (meanfield, cocycle, cli):
        monkeypatch.setattr(module, "simulate_frozen_law", sim)
    monkeypatch.setattr(cli, "initial_measure", counted("initial_measure", cli.initial_measure))
    monkeypatch.setattr(meanfield, "particle_noise",
                        counted("particle_noise", meanfield.particle_noise))
    p = write_config(tmp_path, particles=60,
                     checks=["moments", "duality", "cocycle", "stability"])
    out = tmp_path / "out"
    main(["verify", "--config", str(p), "--output-dir", str(out)])
    assert len(json.loads((out / "verdict.json").read_text())) == 4
    # 8 windows of 2 steps: the one-shot, 4 windows per restart, the two
    # stability runs and the dual SDE
    assert calls == {"simulate_frozen_law": 1 + 2 * 2 + 2, "initial_measure": 1,
                     "particle_noise": 2, "euler_step": 16 + 2 * 8 + 2 * 16 + 16}


def test_verify_solves_the_point_leg_only_for_cocycle(tmp_path, monkeypatch):
    # only the cocycle check reads the one-shot point: without it verify
    # neither lifts the driver nor solves the point, with it lifts once and
    # solves each leg's point once per length it is read to
    calls, rde_cells = Counter(), []
    for module, name in ((cocycle, "doss_sussmann_solve"), (cocycle, "brownian_lift")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _n=name, _f=real, **k: calls.update([_n]) or _f(*a, **k))
    counted_solve = cocycle.doss_sussmann_solve

    def solve(*a):
        sol = counted_solve(*a)
        rde_cells.append(sol.diagnostics["steps"])
        return sol

    monkeypatch.setattr(cocycle, "doss_sussmann_solve", solve)
    out = tmp_path / "out"
    p = write_config(tmp_path, particles=40, checks=["moments", "duality", "stability"])
    main(["verify", "--config", str(p), "--output-dir", str(out)])
    assert calls == {}
    p = write_config(tmp_path, particles=40, frozen_law={"n_freeze": 8, "inner": 1},
                     checks=["moments", "cocycle"])
    main(["verify", "--config", str(p), "--output-dir", str(out)])
    # the one-shot, and the restarts at ks = 2 and 4 of 8 windows, each
    # solved to kt = 2 and then again from its start to kt = 4
    assert calls == {"brownian_lift": 1, "doss_sussmann_solve": 1 + 2 * 2}
    assert rde_cells == [8, 2, 4, 2, 4]


def test_verify_exit_code_on_failure(tmp_path, monkeypatch):
    p = write_config(tmp_path, checks=["moments"])
    out = tmp_path / "out"
    import roughmf.cli as cli

    monkeypatch.setitem(cli.CHECKS, "moments", lambda run, details: {"pass": False})
    rc = main(["verify", "--config", str(p), "--output-dir", str(out)])
    assert rc == 1


def test_emit_moments_and_metric_curves(tmp_path):
    p = write_config(tmp_path, seeds=[0], particles=60)
    out = tmp_path / "out"
    main(["simulate", "--config", str(p), "--output-dir", str(out)])
    rc = main(["emit", "--config", str(p), "--output-dir", str(out),
               "--kind", "moments"])
    assert rc == 0
    table = (out / "moments-long.txt").read_text().splitlines()
    assert table[0].startswith("# t statistic value")
    assert any("seed0:cov00" in line for line in table)
    rc = main(["emit", "--config", str(p), "--output-dir", str(out),
               "--kind", "metric-curves"])
    assert rc == 0
    text = (out / "metric-curves.txt").read_text()
    data = np.loadtxt(out / "metric-curves.txt")
    assert data.shape[1] == 4
    assert text == "# t d_p dp_lower dp_upper\n" + "".join(
        " ".join(f"{x:.17g}" for x in row) + "\n" for row in data)
    # lower bound below upper bound everywhere
    assert np.all(data[:, 2] <= data[:, 3] + 1e-12)


def test_emit_defects_writes_one_row_per_cocycle_defect(tmp_path):
    p = write_config(tmp_path, model={"name": "landau-maxwell"}, particles=40,
                     frozen_law={"n_freeze": 8, "inner": 1}, checks=["cocycle"])
    out = tmp_path / "out"
    main(["verify", "--config", str(p), "--output-dir", str(out)])
    rc = main(["emit", "--config", str(p), "--output-dir", str(out), "--kind", "defects"])
    assert rc == 0
    lines = (out / "defects-long.txt").read_text().splitlines()
    assert lines[0] == "# s t point_defect law_defect tolerance"
    reps = json.loads((out / "verdict.json").read_text())["cocycle"]["defects"]
    assert len(reps) == 4 and len(lines) == 1 + len(reps)
    for line, rep in zip(lines[1:], reps):
        keys = ("s", "t", "point_defect", "law_defect", "tolerance")
        assert [float(x) for x in line.split()] == [rep[k] for k in keys]


def test_moment_check_on_landau(tmp_path, monkeypatch):
    cfg = load_config(str(write_config(tmp_path, model={"name": "landau-maxwell"},
                                       particles=400, checks=["moments"])))
    run, details = cli.verify_run(cfg)
    rep = cli.check_moments(run, details)
    assert rep["pass"], rep
    assert np.isfinite(rep["z_mean"]) and np.isfinite(rep["z_var"])
    oracle = verdicts.landau_moment_oracle
    monkeypatch.setattr(verdicts, "landau_moment_oracle",
                        lambda m0, v0, t: (oracle(m0, v0, t)[0], 2.0 * oracle(m0, v0, t)[1]))
    bad = cli.check_moments(run, details)
    assert not bad["pass"] and bad["z_var"] > 3, bad


def test_simulate_draws_a_uniform_initial_law_inside_its_box(tmp_path):
    low, high = [-0.5, 1.0, 2.0], [0.5, 1.5, 4.0]
    p = write_config(tmp_path, model={"name": "landau-maxwell"}, particles=200, seeds=[0],
                     initial={"kind": "uniform", "low": low, "high": high})
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(p), "--output-dir", str(out)]) == 0
    table = np.loadtxt(out / "curve-seed0.txt")
    atoms = table[table[:, 0] == 0.0][:, 2:]
    assert atoms.shape == (200, 3)
    assert np.all((atoms >= low) & (atoms <= high))
    # the box is filled, not a corner of it
    assert np.all(atoms.max(axis=0) - atoms.min(axis=0) > 0.9 * (np.array(high) - low))


def test_emit_requires_artifacts(tmp_path):
    p = write_config(tmp_path)
    with pytest.raises(SystemExit):
        main(["emit", "--config", str(p), "--output-dir", str(tmp_path / "x"),
              "--kind", "moments"])
    with pytest.raises(SystemExit):
        main(["emit", "--config", str(p), "--output-dir", str(tmp_path / "x"),
              "--kind", "defects"])


def test_emit_metric_curves_names_the_missing_curve(tmp_path):
    p = write_config(tmp_path, seeds=[0, 1], particles=20)
    out = tmp_path / "out"
    main(["simulate", "--config", str(p), "--output-dir", str(out)])
    (out / "curve-seed1.txt").unlink()
    with pytest.raises(SystemExit) as exc:
        main(["emit", "--config", str(p), "--output-dir", str(out),
              "--kind", "metric-curves"])
    msg = str(exc.value)
    assert str(out / "curve-seed1.txt") in msg and "\n" not in msg
    assert not (out / "metric-curves.txt").exists()


def test_output_dir_under_a_missing_parent_is_one_line_error(tmp_path):
    # os.makedirs creates missing parents, but not through a dangling link
    (tmp_path / "gone").symlink_to(tmp_path / "nowhere")
    p = write_config(tmp_path, seeds=[0], particles=20, checks=["moments"])
    out = tmp_path / "gone" / "out"
    for verb in ("simulate", "verify"):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--config", str(p), "--output-dir", str(out)])
        assert str(exc.value) == (f"{out}: cannot create output directory: "
                                  f"No such file or directory")


def test_output_dir_that_is_a_file_is_one_line_error(tmp_path, monkeypatch):
    p = write_config(tmp_path, seeds=[0], particles=20, checks=["moments"])
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    # verify stops before it runs anything
    monkeypatch.setattr(cli, "verify_run", lambda cfg: pytest.fail("verify ran"))
    for verb in ("simulate", "verify"):
        with pytest.raises(SystemExit) as exc:
            main([verb, "--config", str(p), "--output-dir", str(out)])
        assert str(exc.value) == f"{out}: cannot create output directory: File exists"


@pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
def test_corrupt_summary_is_one_line_error(tmp_path):
    p = write_config(tmp_path, seeds=[0, 1], particles=20)
    out = tmp_path / "out"
    main(["simulate", "--config", str(p), "--output-dir", str(out)])
    summary = out / "summary-seed1.txt"
    good = summary.read_text()
    garbled = good.replace("\n", "\n0.5 garbage ", 1)
    for corrupt in (garbled, good[: len(good) // 2], "# header\n1 2 3\n", ""):
        summary.write_text(corrupt)
        with pytest.raises(SystemExit) as exc:
            main(["emit", "--config", str(p), "--output-dir", str(out), "--kind", "moments"])
        msg = str(exc.value)
        assert msg.startswith(f"{summary}: corrupt artifact: ") and "\n" not in msg, msg
    assert not (out / "moments-long.txt").exists()


def test_corrupt_verdict_is_one_line_error(tmp_path):
    p = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    verdict = out / "verdict.json"
    cases = [
        ('{"cocycle": {"defects": [', f"{verdict}:1: invalid JSON: Expecting value"),
        ("[1, 2]", f"{verdict}: verdict must be a JSON object, got list"),
        (b"\xff\xfe{}", f"{verdict}: invalid JSON: not UTF-8 text"),
    ]
    for corrupt, message in cases:
        if isinstance(corrupt, bytes):
            verdict.write_bytes(corrupt)
        else:
            verdict.write_text(corrupt)
        with pytest.raises(SystemExit) as exc:
            main(["emit", "--config", str(p), "--output-dir", str(out), "--kind", "defects"])
        assert str(exc.value) == message
    assert not (out / "defects-long.txt").exists()


def test_emit_defects_writes_each_number_as_17_significant_digits(tmp_path):
    # the bytes of one "%.17g" per JSON number, as the per-row loop wrote
    # them: signed zero, subnormal range and JSON integers included
    p = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    rows = [[0.25, 1, -0.0, 1e-300, 3], [0.1, 2.0 / 3.0, 5e-324, -0.0, 10**17 + 1]]
    reps = [dict(zip(cli.DEFECT_KEYS, row)) for row in rows]
    (out / "verdict.json").write_text(json.dumps({"cocycle": {"defects": reps}}))
    assert main(["emit", "--config", str(p), "--output-dir", str(out), "--kind", "defects"]) == 0
    want = "# s t point_defect law_defect tolerance\n" + "".join(
        " ".join(f"{x:.17g}" for x in row) + "\n" for row in rows)
    assert (out / "defects-long.txt").read_text() == want
    assert "0.25 1 -0 1e-300 3\n" in want


def test_emit_defects_checks_every_row_before_writing(tmp_path):
    # a verdict.json that is a JSON object but whose cocycle rows are not
    # five numbers each ends in a one-line error naming it, and no table
    p = write_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    verdict = out / "verdict.json"
    row = {"s": 0.25, "t": 0.25, "point_defect": 0.0, "law_defect": 0.0, "tolerance": 1e-3}
    cases = [
        ({"cocycle": {"defects": [{"s": 0.25}]}}, "cocycle defect row 0 needs"),
        ({"cocycle": {"defects": [row, row | {"t": "0.5"}]}}, "cocycle defect row 1 needs"),
        ({"cocycle": {"defects": [row | {"tolerance": True}]}}, "cocycle defect row 0 needs"),
        ({"cocycle": {"defects": [row | {"law_defect": None}]}}, "cocycle defect row 0 needs"),
        ({"cocycle": {"defects": [[0.25, 0.25, 0.0, 0.0, 1e-3]]}}, "cocycle defect row 0 needs"),
        ({"cocycle": {"defects": row}}, "cocycle defects must be a list"),
        ({"cocycle": [row]}, "cocycle defects must be a list"),
    ]
    for corrupt, message in cases:
        verdict.write_text(json.dumps(corrupt))
        with pytest.raises(SystemExit) as exc:
            main(["emit", "--config", str(p), "--output-dir", str(out), "--kind", "defects"])
        msg = str(exc.value)
        assert msg.startswith(f"{verdict}: corrupt verdict: {message}") and "\n" not in msg, msg
        assert not (out / "defects-long.txt").exists()
    # a verdict without a cocycle check gives the header only
    verdict.write_text(json.dumps({"moments": {"pass": True}}))
    assert main(["emit", "--config", str(p), "--output-dir", str(out), "--kind", "defects"]) == 0
    assert (out / "defects-long.txt").read_text() == "# s t point_defect law_defect tolerance\n"


def test_check_cocycle_passes_window_indices(tmp_path, monkeypatch):
    # every verdict field, the s and t floats too, is bitwise the float
    # entry point's at the times i q T / n, and no time is parsed back; at
    # T 0.9 and n 12, (i q) T / n differs from (i q) (T / n) in the last bit
    p = write_config(tmp_path, model={"name": "landau-maxwell"}, particles=40, T=0.9,
                     frozen_law={"n_freeze": 12, "inner": 1}, checks=["cocycle"])
    run, details = cli.verify_run(load_config(str(p)))
    n, T = run.cfg.n_freeze, run.T
    delta, q = T / n, max(1, n // 4)
    e0 = details.state_at(0)
    want = verdicts.cocycle(
        cocycle.cocycle_defect(run, e0, i * q * delta, j * q * delta, details=details)
        for i in (1, 2) for j in (1, 2) if (i + j) * q <= n
    )
    monkeypatch.setattr(meanfield.FrozenLawConfig, "window_index",
                        lambda *a: pytest.fail("check_cocycle parsed a float time"))
    got = cli.check_cocycle(run, details)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert [(r["s"], r["t"]) for r in got["defects"]] == [
        (i * q * delta, j * q * delta) for i in (1, 2) for j in (1, 2)]


COLD_START = """
import json, sys
import roughmf, roughmf.cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {"import": scipy_loaded()}
config, out = sys.argv[1], sys.argv[2]
for argv in (["simulate"], ["verify"], ["emit", "--kind", "moments"],
             ["emit", "--kind", "defects"]):
    roughmf.cli.main(argv + ["--config", config, "--output-dir", out])
    seen[" ".join(argv)] = scipy_loaded()
mu = roughmf.EmpiricalMeasure([[0.0, 0.0], [1.0, 0.5]])
nu = roughmf.EmpiricalMeasure([[0.2, 0.1], [0.9, 0.7]])
seen["wasserstein_p"] = roughmf.wasserstein_p(mu, nu, 2.0, return_info=True)[1]["mode"]
seen["after"] = "scipy.optimize" in sys.modules
print(json.dumps(seen))
"""


def test_import_and_transport_free_verbs_load_no_scipy(tmp_path):
    p = write_config(tmp_path, seeds=[0], particles=60,
                     checks=["moments", "duality", "cocycle"])
    seen = json.loads(fresh_python(COLD_START, str(p), str(tmp_path / "out")))
    assert seen.pop("wasserstein_p") == "assignment"
    assert seen.pop("after") is True
    assert seen == {k: [] for k in ("import", "simulate", "verify", "emit --kind moments",
                                    "emit --kind defects")}


def test_run_failures_on_a_valid_config_are_one_line_errors(tmp_path):
    # the Euler step of an EKS with Sigma = 1e-4 I at h = 5/64 is unstable,
    # and a point started at 2e8 is past the RDE blow-up guard: each run
    # ends in one line naming the verb, exit 1, not a traceback.  A fresh
    # process keeps numpy's overflow warnings outside pytest's filter.
    unstable = {"model": {"name": "eks-gaussian",
                          "params": {"Sigma": [[1e-4, 0.0], [0.0, 1e-4]]}},
                "T": 5.0, "particles": 50, "frozen_law": {"n_freeze": 64, "inner": 1},
                "seeds": [0]}
    far = {"initial": {"mean": [2e8, 0.0]}, "particles": 20, "seeds": [0],
           "checks": ["cocycle"]}
    for name, verb, overrides, want in [
        ("unstable", "simulate", unstable, "simulate: non-finite particle state at step 4"),
        ("far", "verify", far, "verify: solution blow-up guard tripped at step 0: |Y| = "),
    ]:
        (tmp_path / name).mkdir()
        p = write_config(tmp_path / name, **overrides)
        proc = python_process("-m", "roughmf.cli", verb, "--config", str(p),
                              "--output-dir", str(tmp_path / name / "out"))
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.splitlines()  # no numpy warning before it
        assert line.startswith(want), proc.stderr


DUAL_BLOW_UP = """
import numpy as np
from roughmf.meanfield import FrozenLawConfig, MeasureCurve, simulate_dual_sde
from roughmf.measures import EmpiricalMeasure
from roughmf.models import eks_gaussian_model

# a frozen law of spread 1e4: the dual's drift rate 1e8 at h = 1/64 overflows
mu = EmpiricalMeasure(1e4 * np.random.default_rng(0).normal(size=(50, 2)))
curve = MeasureCurve(np.linspace(0.0, 1.0, 65), [mu] * 65)
try:
    simulate_dual_sde(eks_gaussian_model(np.eye(2)), curve, mu.atoms,
                      FrozenLawConfig(64), 1.0, member_offset=51)
except RuntimeError as exc:
    print(exc)
"""


def test_dual_sde_names_a_non_finite_state():
    # a blown-up dual state is named where it happens, not handed to the
    # duality verdict as NaN
    assert fresh_python(DUAL_BLOW_UP) == "non-finite dual particle state at step 48"


def test_console_script_entrypoint(tmp_path):
    p = write_config(tmp_path, seeds=[0], particles=30)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "roughmf.cli", "simulate",
         "--config", str(p), "--output-dir", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "curve-seed0.txt").exists()
