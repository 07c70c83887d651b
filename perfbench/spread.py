"""Run the benchmark over several seeds and report each metric's median and
spread (IQR / median, quartiles as ``statistics.quantiles(values, n=4)``).

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workloads hideseek-wide,tag-shared --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --write-baseline perfbench/baseline.json

Runs are sequential.  Without ``--workloads`` every workload in
BENCHMARK.json runs; ``--seconds`` defaults to its ``run_seconds``.  With
``--write-baseline`` the medians, quartiles, raw values and the run
environment of the last run are written as JSON, with one traced run per
workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import benchenv
from stats import spread

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=benchenv.ROOT, capture_output=True, text=True,
                         timeout=600, check=False)
    elapsed = time.perf_counter() - t0
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {out.returncode}:\n"
                           f"{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    env = next(json.loads(line[5:]) for line in lines if line.startswith("env: "))
    return json.loads(lines[-1]), elapsed, env


def summarize(values):
    med, rel = spread(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": rel, "values": values}


def main(argv=None):
    with open(os.path.join(benchenv.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--write-baseline", metavar="PATH")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {"run_seconds": args.seconds, "seeds": _seeds(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        values, walls = {}, []
        for seed in _seeds(args.seeds):
            result, elapsed, env = run_once(workload, seed, args.seconds, 0)
            walls.append(elapsed)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {elapsed:.1f} s "
                  + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        entry = {name: summarize(v) for name, v in values.items()}
        entry["run_wall_s"] = summarize(walls)
        if args.write_baseline:
            traced, _, _ = run_once(workload, _seeds(args.seeds)[0], args.seconds, 1)
            entry["traced"] = {k: m["value"] for k, m in traced["metrics"].items()}
        report["workloads"][workload] = entry
        for name, s in entry.items():
            if name == "traced":
                continue
            bound = bounds.get(name)
            flag = "" if bound is None else (
                "  ok" if s["iqr_frac"] < bound / 3 else f"  WIDE (bound {bound})")
            print(f"  {name:14s} median {s['median']:.5g}  iqr/median "
                  f"{s['iqr_frac']:.4f}{flag}", flush=True)
    if args.write_baseline:
        report["env"] = env
        with open(args.write_baseline, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
