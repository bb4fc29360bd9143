"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/sweep.py                       # all workloads, 10 seeds
    python3 perfbench/sweep.py --workloads cocycle --seeds 5 --traced 0

For each workload it makes ``--seeds`` untraced runs of ``run.py`` (seeds 0,
1, ...) and ``--traced`` traced ones, one seed each, in one process at a
time, each as long as BENCHMARK.json's ``run_seconds``.  For each
end-to-end metric it prints the median, the quartiles and the spread (the
distance between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them) beside the metric's bound
from BENCHMARK.json; for the traced runs it checks that every count agrees.
The summary, with the environment of the last run, is written as JSON to
``perfbench/out/sweep.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
RECORD = os.path.join(HERE, "out", "sweep.json")
RUN_TIMEOUT_S = 900


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    run_wall_s = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    rec_path = os.path.join(HERE, "out", "records", f"{workload}-seed{seed}-trace{trace}.json")
    with open(rec_path) as fh:
        return result, dict(json.load(fh), run_wall_s=run_wall_s)


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def sweep_workload(name, spec, seeds, seconds, traced):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results, run_walls, rec = [], [], None
    for seed in seeds:
        res, rec = run_once(name, seed, seconds, 0)
        results.append(res)
        run_walls.append(rec["run_wall_s"])
        print(f"  {name} seed={seed} " + " ".join(
            f"{k}={v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items())
            + f" attempted={res['attempted']} failed={res['failed']}"
            + f" rounds={len(rec['round_wall_s'])} run={rec['run_wall_s']:.1f}s", flush=True)
    out = {"seeds": list(seeds), "metrics": {}, "run_wall_s": run_walls,
           "correct": all(r["correct"] for r in results),
           "failed_share": sorted({r["failed"] / r["attempted"] for r in results})}
    for metric, bound in bounds.items():
        s = spread([r["metrics"][metric]["value"] for r in results])
        s.update(bound=bound, steady=s["spread"] < bound / 3)
        out["metrics"][metric] = s
    counts = []
    for seed in seeds[:traced]:
        res, rec = run_once(name, seed, seconds, 1)
        run_walls.append(rec["run_wall_s"])
        out["correct"] = out["correct"] and res["correct"]
        counts.append({k: v["value"] for k, v in res["metrics"].items() if v["unit"] != "s"})
        out["traced"] = {k: v["value"] for k, v in res["metrics"].items()}
    out["traced_counts_identical"] = all(c == counts[0] for c in counts)
    return out, rec


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--traced", type=int, default=2)
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]
    summary, last = {}, None
    for name in args.workloads.split(","):
        summary[name], last = sweep_workload(name, spec, range(args.seeds), seconds,
                                             args.traced)
    record = {"environment": last["environment"], "run_seconds": seconds,
              "reference_config_sha256": last["reference_config_sha256"],
              "workloads": summary}
    with open(RECORD, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    ok = True
    print(f"{'workload':14} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}")
    for name, s in summary.items():
        for metric, m in s["metrics"].items():
            flag = "" if m["steady"] else "  <- above a third of the bound"
            print(f"{name:14} {metric:12} {m['median']:10.4g} {m['q1']:10.4g} "
                  f"{m['q3']:10.4g} {m['spread']:7.3f} {m['bound']:6.2f}{flag}")
        print(f"{name:14} correct={s['correct']} failed share={s['failed_share']} "
              f"traced counts identical={s['traced_counts_identical']} "
              f"longest run {max(s['run_wall_s']):.1f}s")
        ok = ok and s["correct"] and s["traced_counts_identical"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
