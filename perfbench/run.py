"""Planner benchmark: round throughput, latency, set-up time and memory end
to end, and a traced per-layer breakdown.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tag-shared --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones.  End-to-end times are corrected to nominal host speed
(see ``hostspeed``); the raw values are printed on the same lines.  Each metric goes on its own line with its unit and
sample count; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts aborted solves
and failed output checks; any failure makes the exit code 1.  Without the
program's ``src/`` next to this directory the command exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import benchenv

SPEC_PATH = os.path.join(benchenv.ROOT, "BENCHMARK.json")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    benchenv.pin()
    src = os.path.join(benchenv.ROOT, "src")
    try:
        import harness
        import pogplan
    except ImportError as exc:
        print(f"perfbench: cannot import the planner from {src}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(pogplan.__file__).startswith(src + os.sep):
        print(f"perfbench: pogplan was imported from {pogplan.__file__}, not {src}",
              file=sys.stderr)
        return 2
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload '{args.workload}'", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    benchenv.set_threads(1)

    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={seconds:g} trace={args.trace}")
    print("env: " + json.dumps(benchenv.describe(), sort_keys=True))
    result = harness.measure(args.workload, args.seed, seconds, bool(args.trace))
    for name, ok, detail in result.checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'} {detail}".rstrip())
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value, note = result.metrics[m["name"]]
        print(f"{m['name']} = {value:.6g} {m['unit']} ({note})")
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    print(f"failed_frac = {result.failed / result.attempted:.6g} fraction "
          f"({result.failed} of {result.attempted}: {result.solves} solves, "
          f"{len(result.checks)} checks)")
    print(json.dumps({"correct": result.failed == 0, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
