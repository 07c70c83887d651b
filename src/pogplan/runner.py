"""Receding-horizon game play: plan, act one step, update beliefs, repeat.

Two deployments, chosen by the config's ``brain``:

* ``shared`` brain -- one planner computes the joint equilibrium once per
  round and acts for every player; beliefs are pushed forward fully
  open-loop (no conditioning), so they remain identical across players by
  construction.
* ``separate`` brain -- every player runs its own planner on its own
  particle cloud, maintains ``n_eq`` candidate equilibria (each driving one
  partition block of its cloud), acts on its first candidate, and
  conditions a ``gamma`` fraction of its particles on its own true
  observations only.

Round structure: the world is a one-row particle cloud, and ``act`` takes the
round step that ``beliefs`` defines for every cloud: fresh true observations
of the current state complete the observation windows, the policies map the
completed windows to the joint action (passive policies read the pre-push
window), and the world advances one transition.
Every setting is read from one ``ExperimentConfig`` and everything is driven
by generators spawned from one seed, so an episode is a pure function of
(config, modes, seed).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .beliefs import (
    advance_particles,
    dump_particles,
    effective_sample_size,
    gaussian_summary,
    init_particles,
    observe_particles,
    surprisal,
    update_particles,
)
from .config import ExperimentConfig
from .policy import ACTIVE, PASSIVE, adam_init, init_policy
from .policy import policy_forward  # unused here; perfbench/tracing.py patches runner.policy_forward
from .solver import calc_eq

SHARED = "shared"
SEPARATE = "separate"


@dataclass
class EpisodeOptions:
    """Everything a single episode needs beyond the game itself: the
    experiment settings, each player's mode and the per-trial dump path."""

    config: ExperimentConfig      # every setting is read from here
    modes: list = None            # per player: "active" / "passive"; default all active
    particle_dump: str = None     # path for per-step cloud dumps, if wanted

    def resolved(self, game):
        """(per-player modes, per-agent candidate counts); a single ``n_eq``
        entry applies to every agent.  A passive player needs ``t_future``
        of at least 1, since its policy emits one action per planned step."""
        brain = self.config.brain
        if brain not in (SHARED, SEPARATE):
            raise ValueError(f"unknown brain mode '{brain}'")
        modes = self.modes or [ACTIVE] * game.n_players
        if PASSIVE in modes and self.config.t_future < 1:
            raise ValueError(f"t_future must be at least 1 with a passive player, "
                             f"got {self.config.t_future}")
        n_agents = 1 if brain == SHARED else game.n_players
        n_eq = [int(x) for x in self.config.n_eq]
        if len(n_eq) == 1:
            n_eq = n_eq * n_agents
        if len(n_eq) != n_agents:
            raise ValueError(f"need {n_agents} n_eq entries, got {len(n_eq)}")
        return modes, n_eq


@dataclass
class Candidate:
    """One candidate joint equilibrium with its optimizer state."""

    thetas: list
    adam_states: list


@dataclass
class AgentRuntime:
    """One planning brain: its belief cloud and candidate equilibria."""

    player: int                  # own index; -1 for the shared brain
    pset: object
    candidates: list
    solver_rng: np.random.Generator
    update_rng: np.random.Generator


@dataclass
class StepRecord:
    """One round of an episode: the true state and joint action, the
    rewards, how each solve ended and each belief's health."""

    step: int
    state: np.ndarray            # packed true state after the transition
    actions: list                # per player (1, action_dim)
    rewards_report: list         # per player, boundary-free reward at new state
    rewards_full: list
    solve_iterations: list       # per agent: per candidate iteration count
    solve_converged: list        # per agent: per candidate flag
    solve_grad_norms: list       # per agent: per candidate: last gradient norm per
                                 # player; None when read from an older record
    grad_seconds: list           # all gradient-step wall times this round
    surprisal: dict              # (agent, opponent) -> nats
    belief_means: dict           # (agent, player) -> position mean
    belief_ess: dict             # agent -> effective sample size / cloud size after the
                                 # update; None when read from an older record
    belief_reset: dict           # agent -> the update reset collapsed weights to
                                 # uniform; None when read from an older record


@dataclass
class TrialRecord:
    """Everything one seeded episode produced."""

    seed: int
    brain: str
    modes: list
    n_eq: list                   # per agent: candidate equilibria
    steps: list = field(default_factory=list)
    first_traces: list = field(default_factory=list)  # step-0 cost traces per agent/candidate
    aborted: bool = False

    def episode_cost(self, player):
        """Reported cost: minus the summed boundary-free rewards."""
        return -sum(float(s.rewards_report[player]) for s in self.steps)

    def grad_step_times(self):
        return [t for s in self.steps for t in s.grad_seconds]


def make_agent(game, player, opts, seed_seq):
    """Build one planning brain for ``player`` (-1: the shared brain) from
    the episode options; its candidates get distinct initial policies to
    promote distinct equilibria."""
    cfg = opts.config
    modes, n_eq = opts.resolved(game)
    n_cand = n_eq[max(player, 0)]  # the shared brain is agent 0
    init_ss, solver_ss, update_ss, *cand_ss = seed_seq.spawn(3 + n_cand)
    pset = init_particles(game, cfg.k_all, n_cand, np.random.default_rng(init_ss))
    candidates = []
    for c_ss in cand_ss:
        seeds = c_ss.generate_state(game.n_players)
        thetas = [init_policy(game, i, modes[i], int(seeds[i]), hidden=cfg.hidden)
                  for i in range(game.n_players)]
        candidates.append(Candidate(thetas=thetas,
                                    adam_states=[adam_init(t, lr=cfg.lr) for t in thetas]))
    return AgentRuntime(player=player, pset=pset, candidates=candidates,
                        solver_rng=np.random.default_rng(solver_ss),
                        update_rng=np.random.default_rng(update_ss))


def plan(agent, game, opts, iters):
    """Solve every candidate equilibrium from its warm start."""
    cfg = opts.config
    results = []
    for cand in agent.candidates:
        res = calc_eq(game, agent.pset, cand.thetas, agent.solver_rng,
                      eps_tol=cfg.eps_tol, max_iters=iters,
                      k_batch=cfg.k_batch, lr=cfg.lr,
                      adam_states=cand.adam_states)
        cand.thetas = res.thetas
        cand.adam_states = res.adam_states
        results.append(res)
    return results


def act(world, game, policies, rng):
    """One unconditioned round step of ``world``, the one-row cloud of the
    true state and windows; returns (observations, actions), one (1, width)
    array per player each."""
    obs = observe_particles(world, game, rng)
    actions = advance_particles(world, game, [policies], obs)
    return obs, actions


def run_episode(game, opts, seed):
    """Play one full episode; a pure function of (game, opts, seed)."""
    cfg = opts.config
    modes, n_eq = opts.resolved(game)
    n = game.n_players
    players = [-1] if cfg.brain == SHARED else list(range(n))
    root = np.random.SeedSequence(seed)
    world_ss, *agent_ss = root.spawn(1 + len(players))
    agents = [make_agent(game, p, opts, ss) for p, ss in zip(players, agent_ss)]
    resample_threshold = (cfg.resample_ess_fraction * cfg.k_all
                          if cfg.resample_ess_fraction > 0 else None)

    world_rng = np.random.default_rng(world_ss)
    world = init_particles(game, 1, 1, world_rng)
    record = TrialRecord(seed=seed, brain=cfg.brain, modes=list(modes), n_eq=list(n_eq))
    dump = open(opts.particle_dump, "w") if opts.particle_dump else nullcontext()
    with dump as dump_fh:
        if dump_fh:
            dump_fh.write("# step agent player particle x y weight\n")

        for step in range(cfg.episode_steps):
            iters = (cfg.first_step_iters or cfg.max_iters) if step == 0 else cfg.max_iters
            all_results = [plan(agent, game, opts, iters) for agent in agents]
            if any(r.aborted for results in all_results for r in results):
                record.aborted = True
                break
            if step == 0:
                record.first_traces = [[r.cost_trace for r in results]
                                       for results in all_results]

            # the first candidate provides each player's real-world action
            if cfg.brain == SHARED:
                policies = agents[0].candidates[0].thetas
            else:
                policies = [agents[i].candidates[0].thetas[i] for i in range(n)]
            obs, actions = act(world, game, policies, world_rng)

            # each brain updates its own cloud with its own observation only; the
            # shared brain has none, so it never conditions
            new_state = game.unpack_state(world.states)
            surp, bmeans, ess, reset = {}, {}, {}, {}
            for agent in agents:
                block_policies = [cand.thetas for cand in agent.candidates]
                true_obs = None if agent.player < 0 else obs[agent.player][0]
                agent.pset = update_particles(
                    agent.pset, game, block_policies, true_obs, agent.player,
                    cfg.gamma, agent.update_rng,
                    resample_threshold=resample_threshold)
                ess[agent.player] = float(effective_sample_size(agent.pset)) / agent.pset.k_all
                reset[agent.player] = agent.pset.degenerate
                if dump_fh:
                    dump_particles(agent.pset, game, dump_fh, step, agent=agent.player)
                for j in range(n):
                    summary = gaussian_summary(agent.pset, game, j)
                    bmeans[(agent.player, j)] = summary[0]
                    if j != agent.player:
                        surp[(agent.player, j)] = surprisal(summary, new_state[j][0][0])

            record.steps.append(StepRecord(
                step=step,
                state=world.states.copy(),
                actions=actions,
                rewards_report=[np.asarray(game.reward_report(new_state, i)).item()
                                for i in range(n)],
                rewards_full=[np.asarray(game.reward(new_state, i)).item()
                              for i in range(n)],
                solve_iterations=[[r.iterations for r in results]
                                  for results in all_results],
                solve_converged=[[r.converged for r in results]
                                 for results in all_results],
                solve_grad_norms=[[r.grad_norms for r in results]
                                  for results in all_results],
                grad_seconds=[t for results in all_results
                              for r in results for t in r.grad_step_seconds],
                surprisal=surp,
                belief_means=bmeans,
                belief_ess=ess,
                belief_reset=reset,
            ))
    return record
