"""Closed-loop receding-horizon simulation.

Each step, both players solve their own horizon game from the same
pre-step state with their own information (pursuer: nominal obstacle;
evader: true obstacle), the first headings are applied, and the world
advances under the true dynamics. Decisions are logged with enough data
to replay either player's pipeline bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .game import (
    ControlSequence,
    EvaderMode,
    GameState,
    Outcome,
    ScenarioConfig,
    check_termination,
    initial_state,
    line_of_sight_heading,
    step_state,
    track,
)
from .game_solver import (
    StepDecision,
    solve_evader_deceptive,
    solve_evader_original,
    solve_pursuer_game,
)
from .sensitivity import rcs_sample
from .trajopt import NoFeasibleSequence, Player, horizon_times, shift_and_hold

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SimRecord:
    """One trace row: the pre-step state and the decisions taken there.

    The terminal record carries the final state with no controls.
    """

    t: float
    state: GameState
    u_head: float | None
    v_head: float | None
    risk: float | None
    pursuer: StepDecision | None = None
    evader: StepDecision | None = None

    @property
    def pursuer_infeasible(self) -> bool:
        """The pursuer held its heading: its solve found no feasible plan."""
        return self.u_head is not None and self.pursuer is None

    @property
    def evader_infeasible(self) -> bool:
        """The evader held its heading: its solve found no feasible plan."""
        return self.v_head is not None and self.evader is None


@dataclass(frozen=True)
class SimulationTrace:
    records: list[SimRecord]
    outcome: Outcome
    cfg: ScenarioConfig

    @property
    def decision_records(self) -> list[SimRecord]:
        return [r for r in self.records if r.u_head is not None]

    @property
    def states(self) -> list[GameState]:
        return [r.state for r in self.records]


def plan_risk(cfg: ScenarioConfig, state: GameState, u_seq: ControlSequence) -> float:
    """Risk of the pursuer's horizon plan against the nominal obstacle.

    Sensitivity time restarts at zero at the planning instant, while the
    nominal obstacle keeps game time.
    """
    n = len(u_seq)
    return float(np.sum(rcs_sample(
        track(state.x_p, u_seq.headings, cfg.u_c, cfg.dt),
        cfg.nominal_obstacle(horizon_times(state.t, n, cfg.dt)),
        horizon_times(0.0, n, cfg.dt), cfg).weighted_norm_sq))


class _Pipeline:
    """One player's decision chain, isolated so it can be replayed.

    Holds the warm start, one sequence per player its solve optimizes, and
    the previously applied heading; sees only the states fed to decide().
    solve(state, warm) returns a StepDecision or raises NoFeasibleSequence.
    """

    def __init__(self, cfg: ScenarioConfig, player: Player, n_plans: int, solve):
        self.cfg = cfg
        self.player = player
        self.n_plans = n_plans
        self.solve = solve
        self.warm: tuple[ControlSequence, ...] | None = None
        self.prev_head: float | None = None

    def decide(self, state: GameState):
        """(heading, StepDecision or None on a hold, the sequences planned)."""
        if self.warm is None:
            los = line_of_sight_heading(state.x_p, state.x_e)
            self.warm = (ControlSequence(np.full(self.cfg.N, los)),) * self.n_plans
        try:
            dec = self.solve(state, self.warm)
        except NoFeasibleSequence:
            logger.warning("%s solve infeasible at t=%.3f; holding heading",
                           self.player.value, state.t)
            dec, plan = None, self.warm
            head = (self.prev_head if self.prev_head is not None
                    else line_of_sight_heading(state.x_p, state.x_e))
        else:
            plan = tuple(seq for seq in (dec.u_seq, dec.v_seq) if seq is not None)
            # The pursuer's sequence comes first; either evader's is last.
            head = float(plan[0 if self.player.pursues else -1].headings[0])
        self.warm = tuple(shift_and_hold(seq) for seq in plan)
        self.prev_head = head
        return head, dec, plan


def _pipelines(cfg: ScenarioConfig) -> tuple[_Pipeline, _Pipeline]:
    """The pursuer's and the evader's chains.

    The solves are looked up by module name per call, so wrappers set on
    this module's names (a traced run's timers) see every decision.
    """
    pursuer = _Pipeline(cfg, Player.PURSUER, 2,
                        lambda s, warm: solve_pursuer_game(s, cfg, warm))
    if cfg.evader_mode is EvaderMode.DECEPTIVE:
        evader = _Pipeline(cfg, Player.DECEPTIVE_EVADER, 1,
                           lambda s, warm: solve_evader_deceptive(s, cfg, *warm))
    else:
        evader = _Pipeline(cfg, Player.EVADER, 2,
                           lambda s, warm: solve_evader_original(s, cfg, warm))
    return pursuer, evader


def run(cfg: ScenarioConfig) -> SimulationTrace:
    """Simulate one game to termination.

    The pursuer desensitizes exactly when its risk weight is nonzero; the
    evader plays the mode selected in the config.
    """
    pursuer, evader = _pipelines(cfg)
    state = initial_state(cfg)
    records: list[SimRecord] = []
    while True:
        outcome = check_termination(state, cfg)
        if outcome is not None:
            records.append(SimRecord(
                t=state.t, state=state, u_head=None, v_head=None, risk=None))
            return SimulationTrace(records=records, outcome=outcome, cfg=cfg)
        u_head, p_dec, p_plan = pursuer.decide(state)
        v_head, e_dec, _ = evader.decide(state)
        records.append(SimRecord(
            t=state.t, state=state, u_head=u_head, v_head=v_head,
            risk=plan_risk(cfg, state, p_plan[0]), pursuer=p_dec, evader=e_dec))
        state = step_state(state, u_head, v_head, cfg)


def run_batch(cfgs: list[ScenarioConfig]) -> list[SimulationTrace]:
    """Independent runs, output order matching input order."""
    return [run(cfg) for cfg in cfgs]


def replay_pursuer_decisions(cfg: ScenarioConfig, states: list[GameState]) -> list[float]:
    """Re-run only the pursuer's pipeline over externally supplied states.

    Feeding the decision-time states of a finished run reproduces that
    run's u_head stream exactly; the function exists so tests can perturb
    cfg fields the pursuer must not depend on (rho_true) and compare
    streams bitwise.
    """
    pipeline = _pipelines(cfg)[0]
    return [pipeline.decide(s)[0] for s in states]
