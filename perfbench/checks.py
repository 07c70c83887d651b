"""Output checks: episode digests, the program's own oracles, and fixed-seed
golden values.

Regenerate the golden values (only when a change is meant to alter the
numbers) with::

    python3 perfbench/checks.py --write-golden
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
GOLDEN_RTOL = 1e-12
GRADCHECK_TOL = 1e-4     # pogplan gradcheck's default tolerance
BAYES_TOL = 0.02         # pogplan beliefcheck's default tolerance


def digest(record, rounds=None):
    """Hash of an episode's states, actions, iterations and costs over its
    first ``rounds`` rounds (all by default)."""
    import numpy as np

    h = hashlib.sha256()
    h.update(repr((record.seed, record.brain, list(record.modes))).encode())
    for s in record.steps[:rounds]:
        h.update(np.ascontiguousarray(s.state, dtype=float).tobytes())
        for a in s.actions:
            h.update(np.ascontiguousarray(a, dtype=float).tobytes())
        h.update(repr((s.step, s.solve_iterations, s.rewards_report, s.rewards_full)).encode())
    for agent in record.first_traces:
        for cand in agent:
            for trace in cand:
                h.update(np.asarray(trace, dtype=float).tobytes())
    if rounds is None:
        h.update(repr(record.aborted).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Golden values
# ---------------------------------------------------------------------------

def golden_values():
    """Fixed-seed values of ``expected_cost`` (tag, hideseek) and of two
    conditioned ``update_particles`` steps (tag), as flat float lists."""
    import numpy as np
    from pogplan import beliefs, experiments, solver
    from pogplan.config import ExperimentConfig
    from pogplan.policy import init_policy

    from workloads import PAPER, PASSIVE_ACTIVE

    out = {}
    for scenario in ("tag", "hideseek"):
        cfg = ExperimentConfig(**dict(PAPER, scenario=scenario))
        game = experiments.trial_game(cfg, 0)
        thetas = [init_policy(game, i, PASSIVE_ACTIVE[i], seed=i + 1, hidden=(8,))
                  for i in range(game.n_players)]
        pset = beliefs.init_particles(game, 32, 1, np.random.default_rng(7))
        rng = np.random.default_rng(11)
        for player in range(game.n_players):
            cost, grads = solver.expected_cost(game, pset, thetas, player, 8, rng)
            out[f"{scenario}.expected_cost.p{player}.value"] = [cost]
            out[f"{scenario}.expected_cost.p{player}.grad"] = np.concatenate(
                [np.ravel(g) for g in grads]).tolist()

    cfg = ExperimentConfig(**dict(PAPER, scenario="tag"))
    game = experiments.trial_game(cfg, 0)
    thetas = [init_policy(game, i, PASSIVE_ACTIVE[i], seed=i + 1, hidden=(8,))
              for i in range(game.n_players)]
    rng = np.random.default_rng(5)
    pset = beliefs.init_particles(game, 32, 1, rng)
    z = np.linspace(-0.5, 0.5, game.obs_dim(1))
    for _ in range(2):
        pset = beliefs.update_particles(pset, game, thetas, z, 1, 0.5, rng)
    out["tag.update_particles.weights"] = pset.weights.tolist()
    out["tag.update_particles.states"] = pset.states.ravel().tolist()
    return out


def load_golden(path=GOLDEN_PATH):
    with open(path) as fh:
        return json.load(fh)


def compare_golden(actual, expected, rtol=GOLDEN_RTOL):
    """Names whose values differ from the golden ones by more than ``rtol``,
    relative to the golden array's largest magnitude, with that error."""
    import numpy as np

    bad = {}
    for name, want in expected.items():
        got = actual.get(name)
        if got is None or len(got) != len(want):
            bad[name] = float("inf")
            continue
        want, got = np.asarray(want, dtype=float), np.asarray(got, dtype=float)
        scale = float(np.max(np.abs(want))) if want.size else 0.0
        err = float(np.max(np.abs(got - want))) if want.size else 0.0
        rel = err / scale if scale > 0 else (0.0 if err == 0 else float("inf"))
        if not rel <= rtol:
            bad[name] = rel
    return bad


# ---------------------------------------------------------------------------
# The full check list
# ---------------------------------------------------------------------------

def program_checks():
    """(name, passed, detail) for the oracle suites and the golden values."""
    from pogplan.experiments import belief_bayes_check, rollout_gradcheck

    results = []
    for scenario in ("tag", "hideseek"):
        worst = rollout_gradcheck(scenario, programs=3, seed=0)
        results.append((f"gradcheck.{scenario}", worst < GRADCHECK_TOL,
                        f"max rel err {worst:.2e} < {GRADCHECK_TOL:g}"))
    for seed in (0, 1):
        tv = belief_bayes_check(seed=seed)
        results.append((f"beliefcheck.seed{seed}", tv < BAYES_TOL,
                        f"total variation {tv:.4f} < {BAYES_TOL:g}"))
    bad = compare_golden(golden_values(), load_golden()["values"])
    results.append(("golden", not bad,
                    f"rtol {GOLDEN_RTOL:g}" + (f", off: {bad}" if bad else "")))
    return results


def main(argv):
    if argv != ["--write-golden"]:
        print("usage: python3 perfbench/checks.py --write-golden", file=sys.stderr)
        return 2
    import benchenv

    benchenv.pin()
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({"rtol": GOLDEN_RTOL, "values": golden_values()}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
