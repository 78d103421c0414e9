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

import numpy as np

from .game import ControlSequence, EvaderMode, GameState, ScenarioConfig, ValidationError
from .trajopt import HorizonProblem, Player, best_response

__all__ = [
    "GAUSS_SEIDEL",
    "GaussSeidelConfig",
    "StepDecision",
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


@dataclass(frozen=True)
class StepDecision:
    """First headings to apply plus solver diagnostics and warm-start data.

    u_seq/v_seq carry the full final sequences so the next receding-horizon
    step can warm-start; u_head and u_seq are NaN/None for the deceptive
    evader, whose solve involves no pursuer sequence.
    """

    u_head: float
    v_head: float
    iters: int
    converged: bool
    residual_u: float
    residual_v: float
    u_seq: ControlSequence | None
    v_seq: ControlSequence | None


def _residual(new: ControlSequence, old: ControlSequence) -> float:
    """Change between iterates: 2-norm over implied velocity vectors."""
    return float(np.linalg.norm(new.velocities() - old.velocities()))


def _gauss_seidel(s: GameState, cfg: ScenarioConfig, players: tuple[Player, Player],
                  warm: tuple[ControlSequence, ControlSequence]) -> StepDecision:
    pursuer, evader = players
    u_seq, v_seq = warm
    residual_u = math.inf
    residual_v = math.inf
    converged = False
    iters = 0
    gs = GAUSS_SEIDEL
    for iters in range(1, gs.max_iters + 1):
        u_prev, v_prev = u_seq, v_seq
        u_seq = best_response(HorizonProblem(pursuer, s, v_seq, cfg), u_seq).sequence
        v_seq = best_response(HorizonProblem(evader, s, u_seq, cfg), v_seq).sequence
        residual_u = _residual(u_seq, u_prev)
        residual_v = _residual(v_seq, v_prev)
        if residual_u <= gs.conv_tol and residual_v <= gs.conv_tol:
            converged = True
            break
    return StepDecision(
        u_head=float(u_seq.headings[0]),
        v_head=float(v_seq.headings[0]),
        iters=iters,
        converged=converged,
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
        u_head=math.nan,
        v_head=float(resp.sequence.headings[0]),
        iters=1,
        converged=resp.converged,
        residual_u=math.nan,
        residual_v=0.0,
        u_seq=None,
        v_seq=resp.sequence,
    )
