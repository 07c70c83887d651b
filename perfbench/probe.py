"""Set-up probe: one fresh interpreter, stopped at the start of the first
planning round.

Usage: python3 perfbench/probe.py --workload NAME --seed N

Prints the wall-clock time (``time.time()``) at which the first solve
started, so the parent can subtract its own clock reading taken just before
it started this process.  Everything before that point is set-up: the
interpreter, ``import pogplan``, game construction, ``init_particles``,
``init_policy``.
"""

from __future__ import annotations

import argparse
import sys
import time

import benchenv


class SetupDone(Exception):
    """Raised at the first solve; carries the wall-clock time."""


def _stop(*args, **kwargs):
    raise SetupDone(time.time())


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    benchenv.pin()
    from pogplan import runner

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    seeds = workloads.trial_seeds(args.seed, wl.name, 1)
    cfg = wl.config(seed=seeds[0])
    runner.calc_eq = _stop
    try:
        workloads.play(cfg, wl.combo, seeds[0])
    except SetupDone as done:
        print(repr(done.args[0]))
        return 0
    print("probe: the episode finished without reaching a solve", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
