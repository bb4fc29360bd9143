"""roughmf benchmark: one workload per invocation.

    python3 perfbench/run.py --workload cocycle --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  An untraced run (``--trace 0``) repeats whole rounds of the
workload until ``--seconds`` have passed (at least two rounds) and reports
the end-to-end metrics:

  wall_s       median wall time of one round
  setup_s      median, over fresh interpreters, of the time from start until
               roughmf (with roughmf.cli) is imported and the inputs are made
  peak_rss_mb  peak resident memory of this process

A traced run (``--trace 1``) alternates untraced and traced rounds and
reports the per-layer metrics of the traced ones (see spans.py), plus the
tracing overhead: median traced round minus median untraced round.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a run record with the
environment goes to ``perfbench/out/records/``.  ``sweep.py`` runs every
workload over several seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("cocycle", "particles", "rough-paths", "cli-pipeline")
MIN_ROUNDS = 2
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 60


def _import_path():
    if not os.path.isfile(os.path.join(SRC, "roughmf", "__init__.py")):
        sys.exit(f"run.py: no roughmf sources under {SRC}; run from a source checkout")
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def setup_probe(workload: str, seed: int) -> None:
    """Fresh-interpreter set-up: import the package, then make the inputs."""
    t0 = time.perf_counter()
    _import_path()
    import roughmf  # noqa: F401
    import roughmf.cli  # noqa: F401

    t1 = time.perf_counter()
    import workloads

    workloads.WORKLOADS[workload].inputs(seed)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}), flush=True)


def measure_setup(workload: str, seed: int) -> list[dict]:
    """Time SETUP_REPEATS fresh interpreters from spawn to their report."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=PROBE_TIMEOUT_S)
        if rc != 0 or not line:
            sys.exit(f"run.py: set-up probe exited {rc}")
        samples.append(dict(json.loads(line), setup_s=t1 - t0))
    return samples


def _median(values):
    return float(statistics.median(values))


def _environment() -> dict:
    import numpy
    import scipy
    from roughmf import _accel

    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    return {
        "backend": "numba" if _accel.HAVE_NUMBA else "numpy",
        "kernels": {k: getattr(_accel, k).__name__ for k in
                    ("pair_sup_first", "pair_sup_second", "pair_sup_second_diff",
                     "linear_flow_maps")},
        "nproc": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    setup = measure_setup(workload_name, seed)
    _import_path()
    import spans
    import workloads

    wl = workloads.WORKLOADS[workload_name]
    inputs = wl.inputs(seed)
    ops = workloads.Ops()
    tracer = spans.Tracer() if trace else None
    plain, traced, layer_rounds, digests = [], [], [], []
    out = None
    start = time.perf_counter()
    while True:
        use_trace = trace and len(plain) > len(traced)
        if use_trace:
            tracer.reset()
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = wl.round(inputs, ops)
            dt = time.perf_counter() - t0
        finally:
            if use_trace:
                tracer.uninstall()
        digests.append(wl.digest(out))
        if use_trace:
            traced.append(dt)
            layers = tracer.summary()
            if wl.layers is not None:
                layers.update(wl.layers(out))
            layer_rounds.append(layers)
        else:
            plain.append(dt)
        done = len(plain) + len(traced) >= MIN_ROUNDS and (not trace or bool(traced))
        if done and time.perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = wl.check(inputs, out)
    if any(d != digests[0] for d in digests[1:]):
        failures.append("rounds on the same inputs gave different outputs")

    if trace:
        metrics = _layer_metrics(layer_rounds, setup, plain, traced, failures)
    else:
        metrics = {
            "wall_s": {"value": _median(plain), "unit": "s"},
            "setup_s": {"value": _median([s["setup_s"] for s in setup]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": not failures,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }
    record = dict(
        workload=workload_name, seed=seed, seconds=seconds, trace=int(trace),
        environment=_environment(), reference_config_sha256=workloads.config_hash(),
        round_wall_s=plain, traced_round_wall_s=traced, setup=setup,
        peak_rss_mb=peak_rss_mb, failures=failures, **result,
    )
    rec_dir = os.path.join(HERE, "out", "records")
    os.makedirs(rec_dir, exist_ok=True)
    rec_path = os.path.join(rec_dir, f"{workload_name}-seed{seed}-trace{int(trace)}.json")
    with open(rec_path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return result, record


def _layer_metrics(layer_rounds, setup, plain, traced, failures) -> dict:
    import spans
    import workloads

    names = spans.layer_metric_names() + workloads.CLI_LAYER_NAMES
    layer_rounds = [{n: 0 for n in names} | layers for layers in layer_rounds]
    first = layer_rounds[0]
    for k, layers in enumerate(layer_rounds[1:], 1):
        moved = [n for n in first if not _is_time(n) and layers[n] != first[n]]
        if moved:
            failures.append(f"traced round {k} counted differently: {moved[:5]}")
    metrics = {}
    for name in names:
        vals = [layers[name] for layers in layer_rounds]
        if _is_time(name):
            metrics[name] = {"value": _median(vals), "unit": "s"}
        else:
            metrics[name] = {"value": int(first[name]), "unit": _count_unit(name)}
    metrics["setup.import_s"] = {"value": _median([s["import_s"] for s in setup]), "unit": "s"}
    metrics["setup.inputs_s"] = {"value": _median([s["inputs_s"] for s in setup]), "unit": "s"}
    metrics["trace.overhead_s"] = {"value": _median(traced) - _median(plain), "unit": "s"}
    return metrics


def _is_time(name: str) -> bool:
    return name.endswith("_s")


def _count_unit(name: str) -> str:
    return "bytes" if name.endswith(("bytes", "bytes_computed")) else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    _import_path()
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = record["environment"]
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(record['round_wall_s'])}+{len(record['traced_round_wall_s'])} "
          f"backend={env['backend']} nproc={env['nproc']}")
    for failure in record["failures"]:
        print(f"CHECK FAILED: {failure}")
    print(f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
