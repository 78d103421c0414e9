"""Finite-horizon best responses over heading sequences.

One player optimizes its N-step heading sequence against the terminal
point of its opponent's plan (or a pure-pursuit opponent model in the
deception game), subject to obstacle clearance at every horizon sample.
A risk-free, non-deceptive player whose straight line is feasible takes
it: it is the global optimum. Otherwise solved by an exterior quadratic
penalty with finite-difference gradient descent, backtracking line
search, and (for the deceptive evader) seeded multi-start. Either way
one rule (_pick) chooses the answer among the candidates.

A HorizonProblem is the one evaluator: calling it scores a batch of
candidate heading sequences, and the reported payoff and violations of a
single sequence (evaluate_objective, constraint_violations) are its
one-row scoring. It reaches positions through game.track, the path
step_state takes too; the scalar reference it is tested against is in
tests/oracles.py.
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
    track,
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
MAX_DESCENT_ITERS = 60
INITIAL_STEP = 0.2
BACKTRACK_FACTOR = 0.5
N_BACKTRACKS = 12
GRAD_H = 1e-6
GRAD_TOL = 1e-8
# Perturbation spread for multi-start seeds, radians; last entry covers
# full heading reversals.
PERTURB_SCALES = (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, math.pi)
# The warm start, then one perturbed start per scale.
N_STARTS = 1 + len(PERTURB_SCALES)


@dataclass(frozen=True)
class BestResponse:
    """The winning candidate of best_response, scored by the batch evaluator.

    solver_iters counts the winner's accepted descent steps only: 0 when
    the straight line or the warm start wins, and the steps of losing
    starts are not counted (a traced run's eval_rows sees all the work).
    converged means the winner's descent was not cut by MAX_DESCENT_ITERS.
    """

    sequence: ControlSequence
    objective_value: float
    constraint_max_violation: float
    solver_iters: int
    converged: bool


def horizon_times(t0: float, n: int, dt: float) -> np.ndarray:
    """Sample times t0+dt, ..., accumulated exactly as step_state does."""
    return np.cumsum(np.r_[t0, np.full(n, dt)])[1:]


class HorizonProblem:
    """One player's fixed-opponent horizon problem, and its batch evaluator.

    The opponent enters the payoff only through the terminal point of its
    plan, opponent_end (x, y). It is None exactly for the deceptive evader,
    whose opponent is a pure-pursuit model chasing each row's own
    positions instead. Calling the problem scores a batch of candidate
    headings. Positions come from game.track, the path step_state takes,
    so each row's positions equal the step_state chain's bit for bit. The
    penalty sums max(0, g + FEASIBILITY_TOL)^2, so a descent that stops
    just short of its zero set still ends feasible, max(0, g) <=
    FEASIBILITY_TOL. The payoff is the scalar reference's formula
    (tests/oracles.py) but not its arithmetic: norms taken along an axis
    and the batched pure-pursuit and risk terms can differ from the scalar
    norms in the last bits. evaluate_objective and constraint_violations
    are the one-row scoring of a sequence.
    """

    def __init__(self, player: Player, start_state: GameState,
                 opponent_end: np.ndarray | None, cfg: ScenarioConfig):
        if (opponent_end is None) != (player is Player.DECEPTIVE_EVADER):
            raise ValidationError(
                "opponent_end must be None exactly for the deceptive evader")
        self.player = player
        self.start_state = start_state
        self.opponent_end = opponent_end
        self.cfg = cfg
        self.n = cfg.N
        self.dt = cfg.dt
        self.deceptive = player is Player.DECEPTIVE_EVADER
        pursues = player.pursues
        self.speed = cfg.u_c if pursues else cfg.v_c
        self.my_start = start_state.x_p if pursues else start_state.x_e
        # Multiplier turning the raw payoff into a minimization target.
        self.sign = 1.0 if pursues else -1.0
        # Only the pursuer's own plan carries risk; at Q = 0 it is exact zeros.
        self.risk = player is Player.PURSUER and not cfg.q_is_zero
        ts = horizon_times(start_state.t, self.n, cfg.dt)
        self.rel_ts = horizon_times(0.0, self.n, cfg.dt)
        self.w_nominal = cfg.nominal_obstacle(ts)
        # The true obstacle stream is materialized only where the problem
        # is allowed to know it; no model of the other side touches rho_true.
        self.w_true = cfg.true_obstacle(ts) if player.knows_true_disk else None
        self.w_model = self.w_nominal if self.w_true is None else self.w_true
        # Central-difference stencil around a point: row 0 is the point,
        # rows 2j+1 and 2j+2 step heading j by +GRAD_H and -GRAD_H.
        self.fd_offsets = np.zeros((2 * self.n + 1, self.n))
        self.fd_offsets[1::2] = GRAD_H * np.eye(self.n)
        self.fd_offsets[2::2] = -GRAD_H * np.eye(self.n)

    def fd_stencil(self, headings: np.ndarray) -> np.ndarray:
        """(B*(2N+1), N): each (B, N) heading row followed by its 2N neighbours."""
        return (headings[:, None, :] + self.fd_offsets).reshape(-1, self.n)

    def clearance(self, pos: np.ndarray) -> np.ndarray:
        """(B, N) constraint_g against the disk this player plans with."""
        return constraint_g(pos, self.w_model, self.cfg.r_o)

    def __call__(self, headings: np.ndarray):
        """Returns (raw payoff, penalty sum, max violation), each (B,)."""
        cfg = self.cfg
        pos = track(self.my_start, headings, self.speed, self.dt)
        g = self.clearance(pos)
        margin = np.maximum(g + FEASIBILITY_TOL, 0.0)
        pen = np.sum(margin * margin, axis=-1)
        viol_max = np.maximum(g.max(axis=-1), 0.0)
        if self.deceptive:
            b = pos.shape[0]
            xp = np.broadcast_to(self.start_state.x_p, (b, 2))
            e_prev = np.broadcast_to(self.my_start, (b, 2))
            with np.errstate(invalid="ignore", divide="ignore"):
                for i in range(self.n):
                    d = e_prev - xp
                    n = np.linalg.norm(d, axis=-1, keepdims=True)
                    xp = xp + (cfg.u_c * d / n) * self.dt
                    e_prev = pos[:, i]
                raw = (cfg.alpha_o * np.linalg.norm(xp - pos[:, -1], axis=-1)
                       - cfg.alpha_d * np.linalg.norm(xp - self.w_true[-1], axis=-1))
        else:
            raw = np.linalg.norm(pos[:, -1] - self.opponent_end, axis=-1)
            if self.risk:
                # Only the pursuer's own plan carries risk, and it plans with
                # the nominal disk, so g is already the risk gate's clearance.
                raw = raw + np.sum(weighted_terms(
                    pos - self.w_nominal, g, self.rel_ts, cfg), axis=-1)
        return raw, pen, viol_max


# gamebench/tracing.py wraps the evaluator as trajopt._BatchEval.__call__.
_BatchEval = HorizonProblem


def evaluate_objective(prob: HorizonProblem, seq: ControlSequence) -> float:
    """Raw payoff of one heading sequence (unpenalized, unsigned)."""
    raw, _, _ = prob(seq.headings[None, :])
    return float(raw[0])


def constraint_violations(prob: HorizonProblem, seq: ControlSequence) -> np.ndarray:
    """Per-sample max(0, g) of the optimizing player, shape (N,)."""
    return np.maximum(prob.clearance(
        track(prob.my_start, seq.headings, prob.speed, prob.dt)), 0.0)


def shift_and_hold(seq: ControlSequence) -> ControlSequence:
    """Receding-horizon warm start: drop the applied step, repeat the last."""
    h = seq.headings
    return ControlSequence(headings=np.concatenate([h[1:], h[-1:]]))


def _perturbed_starts(init: ControlSequence, n_starts: int, seed: int) -> np.ndarray:
    n = len(init)
    h = np.empty((n_starts, n))
    h[0] = init.headings
    for m in range(1, n_starts):
        rng = np.random.default_rng([seed, m])
        h[m] = init.headings + PERTURB_SCALES[m - 1] * rng.standard_normal(n)
    return h


def _straight_line(prob: HorizonProblem) -> np.ndarray | None:
    """The global optimum of a free-space problem as headings, where it is unique.

    Without risk or deception the payoff is the distance from the player's
    terminal point to the opponent's fixed terminal point o, and the
    terminal points the player can reach fill the disk of radius
    speed*N*dt around its start. The farthest from o is the end of the
    straight line away from o; the nearest is the end of the line toward
    o, when o lies beyond that reach. None for any other problem.
    """
    if prob.risk or prob.deceptive:
        return None
    gap = prob.opponent_end - prob.my_start
    if prob.sign < 0.0:  # an evader flees
        gap = -gap
    elif math.hypot(gap[0], gap[1]) <= prob.speed * prob.n * prob.dt:
        return None
    return np.full(prob.n, math.atan2(gap[1], gap[0]))


def best_response(prob: HorizonProblem, init: ControlSequence) -> BestResponse:
    """Optimal or locally optimal feasible plan of the horizon problem.

    A risk-free, non-deceptive player first tries its straight line
    (_straight_line): when feasible it is the constrained global optimum,
    and it and the warm start are the candidates, with no descent step.
    Every other problem descends from the warm start (_descend). Either
    way _pick chooses the answer.
    """
    n = prob.cfg.N
    if len(init) != n:
        raise ValidationError(f"init length {len(init)} != N={n}")
    line = _straight_line(prob)
    if line is not None:
        # The warm start stays a candidate: rounding can leave it a bit better.
        heads = np.vstack([line, init.headings])
        raw, _, viol_max = prob(heads)
        if viol_max[0] <= FEASIBILITY_TOL and np.isfinite(raw[0]):
            return _pick(prob, init, heads, raw, viol_max, np.zeros(2, int), np.zeros(2, bool))
    return _descend(prob, init)


def _pick(prob: HorizonProblem, init: ControlSequence, heads: np.ndarray,
          raw: np.ndarray, viol: np.ndarray, iters: np.ndarray,
          capped: np.ndarray) -> BestResponse:
    """The winning candidate: one row of heads, the last being the warm start.

    Each row comes with its raw payoff, its max violation, its accepted
    descent steps and whether MAX_DESCENT_ITERS cut its descent. The
    feasible row with the best finite sign-adjusted payoff wins; on a tie
    any other row beats the warm start, then the lexicographically
    smaller heading vector wins. NoFeasibleSequence means no row is
    feasible, the warm start included.
    """
    last = len(heads) - 1
    feasible = (viol <= FEASIBILITY_TOL) & np.isfinite(raw)
    if not feasible.any():
        raise NoFeasibleSequence(
            f"no feasible heading sequence from {last} starts or the warm "
            f"start (best violation {viol.min():.3g})")
    winner = min(np.flatnonzero(feasible), key=lambda m: (
        prob.sign * raw[m], m == last, tuple(heads[m])))
    return BestResponse(
        sequence=init if winner == last else ControlSequence(headings=heads[winner].copy()),
        objective_value=float(raw[winner]),
        constraint_max_violation=float(viol[winner]),
        solver_iters=int(iters[winner]),
        converged=not capped[winner],
    )


def _descend(prob: HorizonProblem, init: ControlSequence) -> BestResponse:
    """Feasible local optimizer of the horizon problem from a warm start.

    Exterior penalty method: one round per weight mu in MU_SCHEDULE. In a
    round, every start still infeasible gradient-descends the sign-adjusted
    payoff plus mu * sum(max(0, g)^2) until it no longer moves; the starts
    wait for each other between rounds, and no round begins once every
    start is feasible. The candidates for _pick are the descended starts,
    each as its last round left it, and the warm start itself,
    undescended.
    """
    cfg = prob.cfg
    # Gauss-Seidel best responses run from the warm iterate only, mirroring
    # warm-started per-block local solves: multi-start winners hopping
    # between distant local optima on successive iterations turn the
    # fixed-point iteration into a limit cycle and select equilibria no
    # warm-started local solver would reach. Only the deceptive evader's
    # single solve, outside any iteration, takes seeded starts.
    n_starts = N_STARTS if prob.deceptive else 1
    n = prob.n
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
            raw, pen, viol_max = prob(prob.fd_stencil(h_cur[act]))
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
                raw_l, pen_l, _ = prob(cand.reshape(-1, n))
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

    return _pick(prob, init, np.vstack([h_cur, init.headings]),
                 raw_end, viol_end, total_iters, capped)
