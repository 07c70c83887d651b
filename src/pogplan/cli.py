"""Command-line entry point.

Subcommands:
  run          trial battery over every active/passive configuration
  sweep        scaling study over t_future, k_batch, or n_eq
  gradcheck    tape-vs-finite-difference oracle suite on rollout programs
  beliefcheck  conditioned particle update vs the exact enumerated filter
  emit         plot-ready columnar text from written trial records

Exit code 0 on success; 1 on configuration errors; 2 when a check fails.
Thread count for trial batteries comes from the POGPLAN_THREADS variable.
"""

from __future__ import annotations

import argparse
import glob
import os
import sys

from .config import ConfigError, ExperimentConfig, parse_config
from .experiments import (
    belief_bayes_check,
    emit_plot_data,
    read_trial_record,
    rollout_gradcheck,
    sweep,
    run_matrix,
    write_sweep,
)
from .scenarios import SCENARIOS


def _load_config(path):
    return parse_config(path) if path else ExperimentConfig()


def cmd_run(args):
    cfg = _load_config(args.config)
    rows, _ = run_matrix(cfg)
    print(f"scenario {cfg.scenario}: {len(rows)} summary rows "
          f"-> {os.path.join(cfg.outdir, 'summary.txt')}")
    for row in rows:
        print(f"  {row['label']:40s} {row['group']:10s} cost {row['mean_cost']:+.3f} "
              f"+- {row['stderr']:.3f}  ({row['trials']} trials, "
              f"{1e3 * row['grad_seconds']:.1f} ms/grad-step)")
    return 0


def cmd_sweep(args):
    cfg = _load_config(args.config)
    values = [v for v in args.values.split(",") if v]
    rows = sweep(cfg, args.param, values)
    os.makedirs(cfg.outdir, exist_ok=True)
    path = os.path.join(cfg.outdir, f"sweep_{args.param}.txt")
    table = write_sweep(rows, path)
    print(f"sweep over {args.param} -> {path}")
    print(table, end="")
    return 0


def cmd_gradcheck(args):
    worst_overall = 0.0
    for scenario in (args.scenario,) if args.scenario else SCENARIOS:
        worst = rollout_gradcheck(scenario, programs=args.programs, seed=args.seed)
        worst_overall = max(worst_overall, worst)
        status = "ok" if worst < args.tolerance else "FAIL"
        print(f"{scenario:10s} max relative error {worst:.3e}  [{status}]")
    return 0 if worst_overall < args.tolerance else 2


def cmd_beliefcheck(args):
    tv = belief_bayes_check(k_particles=args.particles, steps=args.steps,
                            seed=args.seed)
    status = "ok" if tv < args.tolerance else "FAIL"
    print(f"toy filter total variation vs exact posterior: {tv:.4f}  [{status}]")
    return 0 if tv < args.tolerance else 2


def cmd_emit(args):
    if args.kind == "particle-cloud":
        clouds = sorted(glob.glob(os.path.join(args.records, "cloud_*.txt")))
        if not clouds:
            print(f"no particle clouds under {args.records} "
                  "(run with dump_particles = true)", file=sys.stderr)
            return 1
        with open(args.out, "w") as out_fh:
            out_fh.write("# source step agent player particle x y weight\n")
            for cloud in clouds:
                tag = os.path.basename(cloud)
                with open(cloud) as fh:
                    for line in fh:
                        if not line.startswith("#"):
                            out_fh.write(f"{tag} {line}")
        print(f"particle-cloud data for {len(clouds)} runs -> {args.out}")
        return 0
    paths = sorted(glob.glob(os.path.join(args.records, "record_*.txt")))
    if not paths:
        print(f"no trial records found under {args.records}", file=sys.stderr)
        return 1
    records = [read_trial_record(p) for p in paths]
    out = emit_plot_data(records, args.kind, args.out, player=args.player)
    print(f"{args.kind} data for {len(records)} records -> {out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="pogplan", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the active/passive trial matrix")
    p.add_argument("--config", help="key = value configuration file")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="scaling study over one parameter")
    p.add_argument("--config", help="key = value configuration file")
    p.add_argument("--param", required=True, choices=("t_future", "k_batch", "n_eq"))
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("gradcheck", help="rollout gradient oracle suite")
    p.add_argument("--scenario", choices=SCENARIOS)
    p.add_argument("--programs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("beliefcheck", help="exact Bayes filter oracle")
    p.add_argument("--particles", type=int, default=10_000)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=0.02)
    p.set_defaults(fn=cmd_beliefcheck)

    p = sub.add_parser("emit", help="plot-ready text from trial records")
    p.add_argument("--records", required=True, help="directory of record files")
    p.add_argument("--kind", required=True,
                   choices=("trajectory", "convergence", "surprisal", "particle-cloud"))
    p.add_argument("--out", required=True)
    p.add_argument("--player", type=int, default=None)
    p.set_defaults(fn=cmd_emit)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
