"""Per-step strategy computation for both players.

The pursuer and the non-deceptive evader each solve a two-player horizon
game by alternating best responses (Gauss-Seidel) until both heading
sequences stop changing. The deceptive evader solves a single-player
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
    "GAUSS_SEIDEL",
    "GaussSeidelConfig",
    "StepDecision",
    "StepStatus",
    "solve_evader_deceptive",
    "solve_evader_original",
    "solve_pursuer_game",
]


@dataclass(frozen=True)
class GaussSeidelConfig:
    """The step game's stopping rule: both residuals within conv_tol, or max_iters."""

    conv_tol: float = 5e-3
    max_iters: int = 50


GAUSS_SEIDEL = GaussSeidelConfig()


class StepStatus(Enum):
    """How a step game ended."""

    CONVERGED = "converged"  # both residuals within conv_tol
    CAPPED = "capped"  # max_iters sweeps (a descent cap, for the deceptive evader)
    ENDGAME = "endgame"  # the pursuer can reach the evader: no iteration runs


@dataclass(frozen=True)
class StepDecision:
    """A step game's final sequences plus solver diagnostics.

    The heading to apply is the first of the deciding player's sequence;
    u_seq/v_seq also warm-start the next receding-horizon step. u_seq is
    None for the deceptive evader, whose solve involves no pursuer
    sequence.
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


def _residual(new: ControlSequence, old: ControlSequence) -> float:
    """Change between iterates: 2-norm over implied velocity vectors."""
    return float(np.linalg.norm(new.velocities() - old.velocities()))


def _end(start: np.ndarray, seq: ControlSequence, dt: float) -> np.ndarray:
    """The terminal point of a plan from start: all a best response sees of it."""
    return track(start, seq.headings, seq.speed, dt)[-1]


def _gauss_seidel(s: GameState, cfg: ScenarioConfig, players: tuple[Player, Player],
                  warm: tuple[ControlSequence, ControlSequence]) -> StepDecision:
    """The step game from the warm plans, decided by the players' distance d.

    Endgame, d <= u_c*T (T = N*dt): the pursuer can reach every point the
    evader can, so min-max and max-min of the terminal distance differ and
    no pure equilibrium exists for an iteration to find. The pursuer side
    best-responds once to an evader fleeing along the line of sight, to
    the point x_e + v_c*T*(x_e - x_p)/d, and the evader side best-responds
    to the end of that answer. The fleeing evader is a model of intent,
    not a plan, and is checked against no disk; each of the two best
    responses keeps its own player's disk, so a disk between the players
    is planned around exactly as elsewhere.

    Otherwise, relaxed Gauss-Seidel. A best response sees the other side
    only through the terminal point of its plan. In free space and
    without risk, one plain sweep maps the line-of-sight angle between
    the terminal points to -G times itself,
    G = u_c*T*v_c*T / ((d - u_c*T)(d + v_c*T)), which exceeds 1 just
    outside the endgame. So each best response answers a relaxed copy of
    the other side's terminal point, moved the fraction lam = 1/(1 + G)
    of the way to the end of each new best response; a sweep then
    contracts by G/(1 + G) < 1, and lam is near 1 where G is small. The
    relaxation changes only the path, not the fixed points, so the same
    lam serves the pursuer's risky game. Each best response is
    warm-started from its side's previous one, and the game stops when
    both successive best responses move by at most conv_tol, or is capped
    after max_iters sweeps. The decision holds the best responses, never
    the relaxed points.
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
            HorizonProblem(evader, s, _end(s.x_p, u_br, cfg.dt), cfg), v_seq).sequence
        return StepDecision(
            iters=1,
            status=StepStatus.ENDGAME,
            residual_u=_residual(u_br, u_seq),
            residual_v=_residual(v_br, v_seq),
            u_seq=u_br,
            v_seq=v_br,
        )
    lam = 1.0 / (1.0 + reach_p * reach_e / ((d - reach_p) * (d + reach_e)))
    u_in, v_in = _end(s.x_p, u_seq, cfg.dt), _end(s.x_e, v_seq, cfg.dt)
    residual_u = math.inf
    residual_v = math.inf
    status = StepStatus.CAPPED
    iters = 0
    gs = GAUSS_SEIDEL
    for iters in range(1, gs.max_iters + 1):
        u_prev, v_prev = u_seq, v_seq
        u_seq = best_response(HorizonProblem(pursuer, s, v_in, cfg), u_seq).sequence
        # A new point each time: the problem just solved holds the old one.
        u_in = u_in + lam * (_end(s.x_p, u_seq, cfg.dt) - u_in)
        v_seq = best_response(HorizonProblem(evader, s, u_in, cfg), v_seq).sequence
        v_in = v_in + lam * (_end(s.x_e, v_seq, cfg.dt) - v_in)
        residual_u = _residual(u_seq, u_prev)
        residual_v = _residual(v_seq, v_prev)
        if residual_u <= gs.conv_tol and residual_v <= gs.conv_tol:
            status = StepStatus.CONVERGED
            break
    return StepDecision(
        iters=iters,
        status=status,
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
