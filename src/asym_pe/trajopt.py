"""Finite-horizon best responses over heading sequences.

One player optimizes its N-step heading sequence against a frozen opponent
sequence (or a pure-pursuit opponent model in the deception game), subject
to obstacle clearance at every horizon sample. Solved by an exterior
quadratic penalty with finite-difference gradient descent, backtracking
line search, and (for the deceptive evader) seeded multi-start.

_BatchEval is the one evaluator: it scores a batch of candidate heading
sequences, and the reported payoff and violations of a single sequence
(evaluate_objective, constraint_violations) are its one-row scoring. Its
positions reproduce the sequential step_state chain bit for bit; the
scalar step_state reference it is tested against is in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .game import (
    COLLISION_TOL,
    ControlSequence,
    GameState,
    ScenarioConfig,
    ValidationError,
    constraint_g,
)
# rcs_sample has no caller here; it stays importable as trajopt.rcs_sample
# because gamebench/tracing.py wraps that name and stops if it is missing.
from .sensitivity import rcs_sample, weighted_terms  # noqa: F401


class Player(Enum):
    """The horizon problems the game solves: who plans, against which disk.

    The pursuer knows only the nominal obstacle velocity; the evader knows
    the true one, and that the pursuer plans with the nominal one.
    """

    PURSUER = "pursuer"  # its own plan; adds the risk term when Q != 0
    EVADER_MODEL = "evader_model"  # the pursuer's model of the evader
    PURSUER_MODEL = "pursuer_model"  # the evader's model of the pursuer, risk-neutral
    EVADER = "evader"  # its own plan, against the true disk
    DECEPTIVE_EVADER = "deceptive_evader"  # vs. a pure-pursuit model, true disk

    @property
    def pursues(self) -> bool:
        return self in (Player.PURSUER, Player.PURSUER_MODEL)

    @property
    def knows_true_disk(self) -> bool:
        return self in (Player.EVADER, Player.DECEPTIVE_EVADER)


class NoFeasibleSequence(RuntimeError):
    """No candidate, the warm start included, is within the feasibility tolerance."""


# Shared with the termination check: plans accepted at this tolerance
# must not register as collisions when executed.
FEASIBILITY_TOL = COLLISION_TOL
MU_SCHEDULE = tuple(10.0 ** k for k in range(1, 8))
N_STARTS = 8
MAX_DESCENT_ITERS = 60
INITIAL_STEP = 0.2
BACKTRACK_FACTOR = 0.5
N_BACKTRACKS = 12
GRAD_H = 1e-6
GRAD_TOL = 1e-8
# Perturbation spread for multi-start seeds, radians; last entry covers
# full heading reversals.
PERTURB_SCALES = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, math.pi)


@dataclass(frozen=True)
class HorizonProblem:
    """One player's fixed-opponent horizon optimization.

    opponent_seq is None exactly for the deceptive evader, whose opponent
    is the pure-pursuit model instead of a frozen sequence.
    """

    player: Player
    start_state: GameState
    opponent_seq: ControlSequence | None
    cfg: ScenarioConfig

    def __post_init__(self):
        if (self.opponent_seq is None) != (self.player is Player.DECEPTIVE_EVADER):
            raise ValidationError(
                "opponent_seq must be None exactly for the deceptive evader")
        if self.opponent_seq is not None:
            if len(self.opponent_seq) != self.cfg.N:
                raise ValidationError(
                    f"opponent_seq length {len(self.opponent_seq)} != N={self.cfg.N}")
            want = self.cfg.v_c if self.player.pursues else self.cfg.u_c
            if self.opponent_seq.speed != want:
                raise ValidationError("opponent_seq speed does not match the player")

    @property
    def my_speed(self) -> float:
        return self.cfg.u_c if self.player.pursues else self.cfg.v_c

    @property
    def my_start(self) -> np.ndarray:
        s = self.start_state
        return s.x_p if self.player.pursues else s.x_e

    @property
    def sign(self) -> float:
        """Multiplier turning the raw payoff into a minimization target."""
        return 1.0 if self.player.pursues else -1.0

    @property
    def risk(self) -> bool:
        """Whether the payoff adds the risk term; at Q = 0 it is exact zeros."""
        return self.player is Player.PURSUER and not self.cfg.q_is_zero


@dataclass(frozen=True)
class BestResponse:
    sequence: ControlSequence
    objective_value: float
    constraint_max_violation: float
    solver_iters: int
    converged: bool


def horizon_times(t0: float, n: int, dt: float) -> np.ndarray:
    """Sample times t0+dt, ..., accumulated exactly as step_state does."""
    return np.cumsum(np.r_[t0, np.full(n, dt)])[1:]


def track(start: np.ndarray, velocities: np.ndarray, dt: float) -> np.ndarray:
    """Positions after each step from start; velocities are (..., N, 2).

    A cumulative sum over [start, v0*dt, v1*dt, ...] adds one step at a
    time in step_state's order, so each track equals the step_state chain
    bit for bit.
    """
    steps = np.empty(velocities.shape[:-2] + (velocities.shape[-2] + 1, 2))
    steps[..., 0, :] = start
    np.multiply(velocities, dt, out=steps[..., 1:, :])
    return np.cumsum(steps, axis=-2)[..., 1:, :]


class _BatchEval:
    """Vectorized payoff/constraint evaluation over candidate headings.

    Positions are accumulated step by step with the same float operations
    as step_state, so each row's positions equal the step_state chain's
    bit for bit. The payoff is the scalar reference's formula (the
    step_state rollout in tests/oracles.py) but not its arithmetic: norms
    taken along an axis and the batched pure-pursuit and risk terms can
    differ from the scalar norms in the last bits. evaluate_objective and
    constraint_violations are the one-row scoring of a sequence.
    """

    def __init__(self, prob: HorizonProblem):
        cfg = prob.cfg
        s0 = prob.start_state
        self.cfg = cfg
        self.n = cfg.N
        self.dt = cfg.dt
        self.deceptive = prob.player is Player.DECEPTIVE_EVADER
        self.risk = prob.risk
        self.speed = prob.my_speed
        self.my_start = prob.my_start
        self.ts = horizon_times(s0.t, self.n, cfg.dt)
        self.rel_ts = horizon_times(0.0, self.n, cfg.dt)
        self.w_nominal = cfg.nominal_obstacle(self.ts)
        # The true obstacle stream is materialized only where the problem
        # is allowed to know it; no model of the other side touches rho_true.
        self.w_true = cfg.true_obstacle(self.ts) if prob.player.knows_true_disk else None
        self.w_model = self.w_nominal if self.w_true is None else self.w_true
        if prob.opponent_seq is not None:
            opp_start = s0.x_e if prob.player.pursues else s0.x_p
            self.opp_pos = track(opp_start, prob.opponent_seq.velocities(), cfg.dt)
        else:
            self.opp_pos = None
        self.x_p0 = s0.x_p
        self.x_e0 = s0.x_e
        # Central-difference stencil around a point: row 0 is the point,
        # rows 2j+1 and 2j+2 step heading j by +GRAD_H and -GRAD_H.
        self.fd_offsets = np.zeros((2 * self.n + 1, self.n))
        self.fd_offsets[1::2] = GRAD_H * np.eye(self.n)
        self.fd_offsets[2::2] = -GRAD_H * np.eye(self.n)

    def positions(self, headings: np.ndarray) -> np.ndarray:
        """(B, N, 2) rollout of the optimizing player."""
        vel = self.speed * np.stack([np.cos(headings), np.sin(headings)], axis=-1)
        return track(self.my_start, vel, self.dt)

    def fd_stencil(self, headings: np.ndarray) -> np.ndarray:
        """(B*(2N+1), N): each (B, N) heading row followed by its 2N neighbours."""
        return (headings[:, None, :] + self.fd_offsets).reshape(-1, self.n)

    def clearance(self, pos: np.ndarray) -> np.ndarray:
        """(B, N) constraint_g against the disk this player plans with."""
        return constraint_g(pos, self.w_model, self.cfg.r_o)

    def __call__(self, headings: np.ndarray):
        """Returns (raw payoff, penalty sum, max violation), each (B,)."""
        cfg = self.cfg
        pos = self.positions(headings)
        g = self.clearance(pos)
        viol = np.maximum(g, 0.0)
        pen = np.sum(viol * viol, axis=-1)
        viol_max = viol.max(axis=-1)
        if self.deceptive:
            b = pos.shape[0]
            xp = np.broadcast_to(self.x_p0, (b, 2))
            e_prev = np.broadcast_to(self.x_e0, (b, 2))
            with np.errstate(invalid="ignore", divide="ignore"):
                for i in range(self.n):
                    d = e_prev - xp
                    n = np.linalg.norm(d, axis=-1, keepdims=True)
                    xp = xp + (cfg.u_c * d / n) * self.dt
                    e_prev = pos[:, i]
                raw = (cfg.alpha_o * np.linalg.norm(xp - pos[:, -1], axis=-1)
                       - cfg.alpha_d * np.linalg.norm(xp - self.w_true[-1], axis=-1))
        else:
            raw = np.linalg.norm(pos[:, -1] - self.opp_pos[-1], axis=-1)
            if self.risk:
                # Only the pursuer's own plan carries risk, and it plans with
                # the nominal disk, so g is already the risk gate's clearance.
                raw = raw + np.sum(weighted_terms(
                    pos - self.w_nominal, g, self.rel_ts, cfg), axis=-1)
        return raw, pen, viol_max


def evaluate_objective(prob: HorizonProblem, seq: ControlSequence) -> float:
    """Raw payoff of one heading sequence (unpenalized, unsigned)."""
    raw, _, _ = _BatchEval(prob)(seq.headings[None, :])
    return float(raw[0])


def constraint_violations(prob: HorizonProblem, seq: ControlSequence) -> np.ndarray:
    """Per-sample max(0, g) of the optimizing player, shape (N,)."""
    ev = _BatchEval(prob)
    return np.maximum(ev.clearance(ev.positions(seq.headings[None, :]))[0], 0.0)


def shift_and_hold(seq: ControlSequence) -> ControlSequence:
    """Receding-horizon warm start: drop the applied step, repeat the last."""
    h = seq.headings
    return ControlSequence(
        headings=np.concatenate([h[1:], h[-1:]]), speed=seq.speed)


def _perturbed_starts(init: ControlSequence, n_starts: int, seed: int) -> np.ndarray:
    n = len(init)
    h = np.empty((n_starts, n))
    h[0] = init.headings
    for m in range(1, n_starts):
        rng = np.random.default_rng([seed, m])
        scale = PERTURB_SCALES[(m - 1) % len(PERTURB_SCALES)]
        h[m] = init.headings + scale * rng.standard_normal(n)
    return h


def best_response(prob: HorizonProblem, init: ControlSequence) -> BestResponse:
    """Feasible local optimizer of the horizon problem from a warm start.

    Exterior penalty method: one round per weight mu in MU_SCHEDULE. In a
    round, every start still infeasible gradient-descends the sign-adjusted
    payoff plus mu * sum(max(0, g)^2) until it no longer moves; the starts
    wait for each other between rounds, and no round begins once every
    start is feasible. The candidates are the descended starts, each as
    its last round left it, and the warm start itself, undescended. The
    feasible candidate with the best finite sign-adjusted payoff wins; on
    a tie a descended start beats the warm start, then the
    lexicographically smaller heading vector wins. NoFeasibleSequence
    means no candidate is feasible, the warm start included.
    """
    cfg = prob.cfg
    # Gauss-Seidel best responses run from the warm iterate only, mirroring
    # warm-started per-block local solves: multi-start winners hopping
    # between distant local optima on successive iterations turn the
    # fixed-point iteration into a limit cycle and select equilibria no
    # warm-started local solver would reach. Only the deceptive evader's
    # single solve, outside any iteration, takes seeded starts.
    n_starts = N_STARTS if prob.player is Player.DECEPTIVE_EVADER else 1
    n = cfg.N
    if len(init) != n:
        raise ValidationError(f"init length {len(init)} != N={n}")
    if init.speed != prob.my_speed:
        raise ValidationError("init speed does not match the optimizing player")
    ev = _BatchEval(prob)
    sign = prob.sign
    ladder = INITIAL_STEP * BACKTRACK_FACTOR ** np.arange(N_BACKTRACKS)

    h_cur = _perturbed_starts(init, n_starts, cfg.seed)
    # Per candidate: the starts, then the warm start, which takes no step.
    # A candidate's scores are those of the point where it stopped.
    raw_end = np.empty(n_starts + 1)
    viol_end = np.empty(n_starts + 1)
    total_iters = np.zeros(n_starts + 1, dtype=int)
    capped = np.zeros(n_starts + 1, dtype=bool)
    infeasible = np.ones(n_starts, dtype=bool)

    for mu in MU_SCHEDULE:
        act = np.flatnonzero(infeasible)
        # Every start in the round has taken k accepted steps.
        for k in range(MAX_DESCENT_ITERS + 1):
            # One call scores each point and its stencil; column 0 is the point.
            raw, pen, viol_max = ev(ev.fd_stencil(h_cur[act]))
            if k == 0 and mu == MU_SCHEDULE[0]:
                # Start 0 is the warm start, so row 0 scores it.
                raw_end[-1], viol_end[-1] = raw[0], viol_max[0]
            f = (sign * raw + mu * pen).reshape(len(act), 2 * n + 1)
            grad = (f[:, 1::2] - f[:, 2::2]) / (2.0 * GRAD_H)
            gnorm = np.linalg.norm(grad, axis=1)
            # The starts that search, narrowed below to the ones that move.
            moved = np.isfinite(f[:, 0]) & (gnorm > GRAD_TOL) & (k < MAX_DESCENT_ITERS)
            if moved.any():
                direction = -grad[moved] / gnorm[moved][:, None]
                cand = (h_cur[act[moved]][:, None, :]
                        + ladder[None, :, None] * direction[:, None, :])
                raw_l, pen_l, _ = ev(cand.reshape(-1, n))
                f_l = (sign * raw_l + mu * pen_l).reshape(-1, N_BACKTRACKS)
                # Each start takes the longest step that lowers its value.
                better = f_l < f[moved, :1]
                took = better.any(axis=1)
                moved[moved] = took
                h_cur[act[moved]] = cand[took, better[took].argmax(axis=1)]
                total_iters[act[moved]] += 1

            # A start that did not move ends its round.
            ended = act[~moved]
            raw_end[ended] = raw[::2 * n + 1][~moved]
            viol_end[ended] = viol_max[::2 * n + 1][~moved]
            infeasible[ended] = viol_end[ended] > FEASIBILITY_TOL
            capped[ended] = k == MAX_DESCENT_ITERS
            act = act[moved]
            if not len(act):
                break
        if not infeasible.any():
            break

    feasible = (viol_end <= FEASIBILITY_TOL) & np.isfinite(raw_end)
    if not feasible.any():
        raise NoFeasibleSequence(
            f"no feasible heading sequence from {n_starts} starts or the warm "
            f"start (best violation {viol_end.min():.3g})")
    candidates = np.vstack([h_cur, init.headings])
    winner = min(np.flatnonzero(feasible), key=lambda m: (
        sign * raw_end[m], m == n_starts, tuple(candidates[m])))
    seq = (init if winner == n_starts
           else ControlSequence(headings=h_cur[winner].copy(), speed=prob.my_speed))

    return BestResponse(
        sequence=seq,
        objective_value=float(raw_end[winner]),
        constraint_max_violation=float(viol_end[winner]),
        solver_iters=int(total_iters[winner]),
        converged=not capped[winner],
    )
