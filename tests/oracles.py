"""Independent oracles for the runtime's vectorized paths, used only by tests.

Positions: the runtime turns headings into positions in one place
(asym_pe.game.track), for the world step and every plan. heading_step
here moves one player one step with scalar libm cos and sin, and
scalar_step is step_state built on it.

Horizon payoff: the runtime scores every heading sequence with the batch
evaluator (asym_pe.trajopt._BatchEval). The scalar reference here rolls
the optimizing player forward one scalar_step call at a time, measures
its terminal distance to the problem's opponent_end, runs the deceptive
evader's pure-pursuit model one step at a time, and scores the risk with
one rcs_sample call; violations takes each sample's clearance along the
same chain, and objective_gradient takes central differences of the
batch payoff.

Sensitivity rows: the runtime evaluates constraint sensitivities in closed
form (asym_pe.sensitivity._s_g_rows). These helpers rebuild the Cartesian
row another way: integrate the stacked-state sensitivity ODE, then chain
the clearance gradient through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from asym_pe.game import (
    ControlSequence,
    GameState,
    ScenarioConfig,
    ValidationError,
    track,
)
from asym_pe.sensitivity import rcs_sample
from asym_pe.trajopt import GRAD_H, HorizonProblem, Player, _BatchEval, horizon_times


class CoincidentPositions(ValueError):
    """Pure-pursuit direction undefined: modeled pursuer sits on the evader."""


def pure_pursuit_model(x_p_hat: np.ndarray, x_e: np.ndarray, u_c: float) -> np.ndarray:
    """Feedback pursuit velocity: full speed straight at the evader."""
    d = np.asarray(x_e, dtype=float) - np.asarray(x_p_hat, dtype=float)
    n = float(np.linalg.norm(d))
    if n == 0.0:
        raise CoincidentPositions("pursuit direction undefined at zero separation")
    return u_c * d / n


def heading_step(pos: np.ndarray, speed: float, heading: float, dt: float) -> np.ndarray:
    """One step at speed along heading, with scalar libm cos and sin."""
    vel = speed * np.array([math.cos(heading), math.sin(heading)])
    return pos + vel * dt


def scalar_step(s: GameState, u_head: float, v_head: float,
                cfg: ScenarioConfig) -> GameState:
    """step_state with the players moved by heading_step."""
    t_next = s.t + cfg.dt
    return GameState(
        t=t_next,
        x_p=heading_step(s.x_p, cfg.u_c, u_head, cfg.dt),
        x_e=heading_step(s.x_e, cfg.v_c, v_head, cfg.dt),
        x_w_true=cfg.true_obstacle(t_next),
        x_w_nominal=cfg.nominal_obstacle(t_next),
    )


def rollout(start: GameState, u_seq: ControlSequence, v_seq: ControlSequence,
            cfg: ScenarioConfig) -> list[GameState]:
    """N+1 states applying the pursuer's and the evader's heading sequences."""
    if len(u_seq) != len(v_seq):
        raise ValidationError(
            f"sequence lengths differ: {len(u_seq)} vs {len(v_seq)}")
    states = [start]
    s = start
    for u_head, v_head in zip(u_seq.headings, v_seq.headings):
        s = scalar_step(s, float(u_head), float(v_head), cfg)
        states.append(s)
    return states


def problem_against(player: Player, start: GameState, opp: ControlSequence | None,
                    cfg: ScenarioConfig) -> HorizonProblem:
    """The horizon problem against the opponent plan opp, seen as its end point.

    The point comes from game.track, as the game solver takes it; opp is
    None for the deceptive evader.
    """
    if opp is None:
        return HorizonProblem(player, start, None, cfg)
    origin, speed = (start.x_e, cfg.v_c) if player.pursues else (start.x_p, cfg.u_c)
    return HorizonProblem(
        player, start, track(origin, opp.headings, speed, cfg.dt)[-1], cfg)


def _own_states(prob: HorizonProblem, seq: ControlSequence) -> list[GameState]:
    """The N states after start along seq for the optimizing player.

    Only that player's positions are read: the other player runs an
    arbitrary plan, zero headings.
    """
    other = ControlSequence(headings=np.zeros(len(seq)))
    plans = (seq, other) if prob.player.pursues else (other, seq)
    return rollout(prob.start_state, *plans, prob.cfg)[1:]


def _deception_terminals(start: GameState, v_seq: ControlSequence,
                         cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(modeled pursuer, evader, true obstacle) positions at the horizon end."""
    xp = start.x_p
    x_e = start.x_e
    for head in v_seq.headings:
        # The model pursues the evader's position at the start of the step.
        vel = pure_pursuit_model(xp, x_e, cfg.u_c)
        xp = xp + vel * cfg.dt
        x_e = heading_step(x_e, cfg.v_c, float(head), cfg.dt)
    t_end = horizon_times(start.t, len(v_seq), cfg.dt)[-1]
    return xp, x_e, cfg.true_obstacle(t_end)


def objective(prob: HorizonProblem, seq: ControlSequence) -> float:
    """Scalar reference for the raw payoff of one heading sequence."""
    cfg = prob.cfg
    if prob.player is Player.DECEPTIVE_EVADER:
        xp_hat, x_e_term, w_true = _deception_terminals(prob.start_state, seq, cfg)
        return (cfg.alpha_o * float(np.linalg.norm(xp_hat - x_e_term))
                - cfg.alpha_d * float(np.linalg.norm(xp_hat - w_true)))
    states = _own_states(prob, seq)
    mine = states[-1].x_p if prob.player.pursues else states[-1].x_e
    value = float(np.linalg.norm(mine - prob.opponent_end))
    if prob.player is Player.PURSUER and not cfg.q_is_zero:
        # Sensitivity time restarts at zero at each planning step, so
        # uncertainty acts over the lookahead, not over elapsed game time.
        x_p = np.array([s.x_p for s in states])
        x_w = np.array([s.x_w_nominal for s in states])
        rel_ts = horizon_times(0.0, len(seq), cfg.dt)
        value += float(np.sum(rcs_sample(x_p, x_w, rel_ts, cfg).weighted_norm_sq))
    return value


def violations(prob: HorizonProblem, seq: ControlSequence) -> np.ndarray:
    """Scalar reference for the per-sample max(0, g) of the optimizing player."""
    cfg = prob.cfg
    states = _own_states(prob, seq)
    out = np.empty(len(states))
    for i, s in enumerate(states):
        x = s.x_p if prob.player.pursues else s.x_e
        w = s.x_w_true if prob.player.knows_true_disk else s.x_w_nominal
        d = x - w
        out[i] = max(cfg.r_o ** 2 - float(d @ d), 0.0)
    return out


def objective_gradient(prob: HorizonProblem, seq: ControlSequence) -> np.ndarray:
    """Central-difference gradient of the batch payoff w.r.t. headings."""
    ev = _BatchEval(prob)
    raw, _, _ = ev(ev.fd_stencil(seq.headings[None, :]))
    # Row 0 is the point; rows 2j+1 and 2j+2 step heading j by +/-GRAD_H.
    return (raw[1::2] - raw[2::2]) / (2.0 * GRAD_H)


@dataclass(frozen=True)
class SensitivityMatrix:
    """State sensitivity w.r.t. uncertain parameters at one time sample."""

    entries: np.ndarray
    t: float

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2:
            raise ValidationError("entries must be a 2-D matrix")
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "t", float(self.t))


def integrate_sensitivity(a_fn, b_fn, n_steps: int, dt: float,
                          n_state: int, n_param: int,
                          substeps: int = 4) -> list[SensitivityMatrix]:
    """Generic RK4 integration of dS/dt = A(t) S + B(t), S(0) = 0.

    Returns n_steps+1 samples at the step boundaries. Kept general so the
    closed-form path has an independent oracle.
    """
    if n_steps < 0:
        raise ValidationError("n_steps must be nonnegative")
    s = np.zeros((n_state, n_param))
    out = [SensitivityMatrix(entries=s.copy(), t=0.0)]
    h = dt / substeps

    def deriv(t, sm):
        return a_fn(t) @ sm + b_fn(t)

    t = 0.0
    for k in range(n_steps):
        for _ in range(substeps):
            k1 = deriv(t, s)
            k2 = deriv(t + 0.5 * h, s + 0.5 * h * k1)
            k3 = deriv(t + 0.5 * h, s + 0.5 * h * k2)
            k4 = deriv(t + h, s + h * k3)
            s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        out.append(SensitivityMatrix(entries=s.copy(), t=(k + 1) * dt))
    return out


# Stacked-state layout for the ODE path: (x_p, x_e, x_w), 6 dims, with the
# obstacle velocity as the 2 uncertain parameters.
_B_STACKED = np.vstack([np.zeros((4, 2)), np.eye(2)])


def propagate_sensitivity_ode(cfg: ScenarioConfig, u_seq: ControlSequence,
                              v_seq: ControlSequence) -> list[SensitivityMatrix]:
    """Sensitivity of the stacked state to the obstacle velocity, per step.

    Open-loop controls do not depend on the obstacle velocity, so A == 0
    and B is constant; the integral is exact linear stepping. The generic
    RK4 path (integrate_sensitivity) must reproduce this.
    """
    if len(u_seq) != len(v_seq):
        raise ValidationError(
            f"control sequences differ in length: {len(u_seq)} vs {len(v_seq)}")
    return [
        SensitivityMatrix(entries=(k * cfg.dt) * _B_STACKED, t=k * cfg.dt)
        for k in range(len(u_seq) + 1)
    ]


def chain_constraint_row(x_p, x_w_nominal, sm: SensitivityMatrix) -> np.ndarray:
    """Chain dg/dx through a stacked-state sensitivity matrix.

    dg/dx = (-2d, 0, 0, 2d) for d = x_p - x_w; the product reproduces the
    closed-form Cartesian row.
    """
    d = np.asarray(x_p, dtype=float) - np.asarray(x_w_nominal, dtype=float)
    dg_dx = np.concatenate([-2.0 * d, np.zeros(2), 2.0 * d])
    return dg_dx @ sm.entries
