"""Per-step strategy computation for both players.

The pursuer and the non-deceptive evader each solve a two-player horizon
game by alternating best responses (Gauss-Seidel) to an equilibrium of
their terminal points. The deceptive evader solves a single-player
problem instead, replacing the pursuer with a pure-pursuit feedback model.

Information asymmetry is fixed by the pair of players each game names
(trajopt.Player): both players of the pursuer's game plan against the
nominal obstacle; in the evader's game only the evader's own best
responses use the true obstacle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .game import (
    ControlSequence,
    EvaderMode,
    GameState,
    ScenarioConfig,
    ValidationError,
    track,
)
from .trajopt import HorizonProblem, Player, best_response

__all__ = [
    "GaussSeidelConfig",
    "StepDecision",
    "StepStatus",
    "solve_evader_deceptive",
    "solve_evader_original",
    "solve_pursuer_game",
]


class GaussSeidelConfig:
    """The step game's stopping rule: both gaps within conv_tol (a length), or max_iters."""

    conv_tol = 5e-3
    max_iters = 50


class StepStatus(Enum):
    """How a step game ended."""

    CONVERGED = "converged"  # both gaps ||end(br) - x|| within conv_tol
    CAPPED = "capped"  # max_iters sweeps (a descent cap, for the deceptive evader)
    ENDGAME = "endgame"  # the pursuer can reach the evader: no iteration runs


@dataclass(frozen=True)
class StepDecision:
    """A step game's final sequences plus solver diagnostics.

    The heading to apply is the first of the deciding player's sequence;
    u_seq/v_seq also warm-start the next receding-horizon step. u_seq is
    None for the deceptive evader, whose solve involves no pursuer
    sequence. The residuals are the last gaps of _gauss_seidel, lengths.
    """

    iters: int
    status: StepStatus
    residual_u: float
    residual_v: float
    u_seq: ControlSequence | None
    v_seq: ControlSequence | None

    @property
    def converged(self) -> bool:
        return self.status is StepStatus.CONVERGED


def _end(start: np.ndarray, seq: ControlSequence, speed: float, dt: float) -> np.ndarray:
    """The terminal point of a plan from start: all a best response sees of it."""
    return track(start, seq.headings, speed, dt)[-1]


def _gauss_seidel(s: GameState, cfg: ScenarioConfig, players: tuple[Player, Player],
                  warm: tuple[ControlSequence, ControlSequence]) -> StepDecision:
    """The step game from the warm plans, decided by the players' distance d.

    Endgame, d <= u_c*T (T = N*dt): the pursuer can reach every point the
    evader can, so min-max and max-min of the terminal distance differ and
    no pure equilibrium exists for an iteration to find. The pursuer side
    best-responds once to an evader fleeing along the line of sight, to
    flee = x_e + v_c*T*(x_e - x_p)/d, and the evader side answers the end
    of that answer: the gaps are 0 and ||end(v_br) - flee||. The fleeing
    evader is a model of intent, not a plan, and is checked against no
    disk; each best response keeps its own player's disk, so a disk
    between the players is planned around exactly as elsewhere.

    Otherwise, relaxed Gauss-Seidel. A best response sees the other side
    only through the terminal point of its plan. In free space and
    without risk, one plain sweep maps the line-of-sight angle between
    the terminal points to -G times itself,
    G = u_c*T*v_c*T / ((d - u_c*T)(d + v_c*T)), which exceeds 1 just
    outside the endgame. So each best response answers a relaxed point x
    of the other side, x <- x + lam*gap with gap = end(br) - x for each
    new best response br and lam = 1/(1 + G); a sweep then contracts by
    G/(1 + G) < 1. The relaxation changes only the path, not the fixed
    points, so the same lam serves the pursuer's risky game. Best
    responses are warm-started from their side's previous ones. The gap
    is the iteration's fixed-point residual: the game stops when both
    ||gap|| <= conv_tol, each returned plan then answering a point within
    conv_tol of the other's end (an epsilon-equilibrium), or is capped
    after max_iters sweeps. It returns the best responses, not the points.
    """
    pursuer, evader = players
    u_seq, v_seq = warm
    reach_p = cfg.u_c * cfg.N * cfg.dt
    reach_e = cfg.v_c * cfg.N * cfg.dt
    d = float(np.linalg.norm(s.x_e - s.x_p))
    # At d = u_c*T the gain is infinite: relaxation would not move.
    if d <= reach_p:
        flee = s.x_e + (reach_e / d) * (s.x_e - s.x_p)
        u_br = best_response(HorizonProblem(pursuer, s, flee, cfg), u_seq).sequence
        v_br = best_response(
            HorizonProblem(evader, s, _end(s.x_p, u_br, cfg.u_c, cfg.dt), cfg), v_seq).sequence
        return StepDecision(
            iters=1,
            status=StepStatus.ENDGAME,
            residual_u=0.0,
            residual_v=float(np.linalg.norm(_end(s.x_e, v_br, cfg.v_c, cfg.dt) - flee)),
            u_seq=u_br,
            v_seq=v_br,
        )
    lam = 1.0 / (1.0 + reach_p * reach_e / ((d - reach_p) * (d + reach_e)))
    u_in, v_in = _end(s.x_p, u_seq, cfg.u_c, cfg.dt), _end(s.x_e, v_seq, cfg.v_c, cfg.dt)
    residual_u = residual_v = math.inf
    iters = 0
    gs = GaussSeidelConfig
    for iters in range(1, gs.max_iters + 1):
        u_seq = best_response(HorizonProblem(pursuer, s, v_in, cfg), u_seq).sequence
        gap_u = _end(s.x_p, u_seq, cfg.u_c, cfg.dt) - u_in
        # A new point each time: the problem just solved holds the old one.
        u_in = u_in + lam * gap_u
        v_seq = best_response(HorizonProblem(evader, s, u_in, cfg), v_seq).sequence
        gap_v = _end(s.x_e, v_seq, cfg.v_c, cfg.dt) - v_in
        v_in = v_in + lam * gap_v
        residual_u = float(np.linalg.norm(gap_u))
        residual_v = float(np.linalg.norm(gap_v))
        if max(residual_u, residual_v) <= gs.conv_tol:
            break
    return StepDecision(
        iters=iters,
        status=(StepStatus.CONVERGED if max(residual_u, residual_v) <= gs.conv_tol
                else StepStatus.CAPPED),
        residual_u=residual_u,
        residual_v=residual_v,
        u_seq=u_seq,
        v_seq=v_seq,
    )


def solve_pursuer_game(s: GameState, cfg: ScenarioConfig,
                       warm: tuple[ControlSequence, ControlSequence]) -> StepDecision:
    """The pursuer's horizon game, played entirely in nominal-obstacle terms.

    The pursuer minimizes terminal distance, plus the sensitivity risk when
    Q != 0; its internal evader model maximizes terminal distance. Neither
    side of this game may touch the true obstacle.
    """
    return _gauss_seidel(s, cfg, (Player.PURSUER, Player.EVADER_MODEL), warm)


def solve_evader_original(s: GameState, cfg: ScenarioConfig,
                          warm: tuple[ControlSequence, ControlSequence]) -> StepDecision:
    """The evader's horizon game with its informed view of the obstacle.

    The modeled pursuer still plans against the nominal obstacle (the
    evader knows the pursuer's information set) and is risk-neutral, whatever
    Q is; the evader's own best responses avoid the true obstacle.
    """
    return _gauss_seidel(s, cfg, (Player.PURSUER_MODEL, Player.EVADER), warm)


def solve_evader_deceptive(s: GameState, cfg: ScenarioConfig,
                           warm: ControlSequence) -> StepDecision:
    """Single-player deception solve against a pure-pursuit pursuer model."""
    if cfg.evader_mode is not EvaderMode.DECEPTIVE:
        raise ValidationError("deceptive solve requires evader_mode=deceptive")
    resp = best_response(HorizonProblem(Player.DECEPTIVE_EVADER, s, None, cfg), warm)
    return StepDecision(
        iters=1,
        status=StepStatus.CONVERGED if resp.converged else StepStatus.CAPPED,
        residual_u=math.nan,
        residual_v=0.0,
        u_seq=None,
        v_seq=resp.sequence,
    )
