"""Core types and dynamics for the pursuer-evader-obstacle game.

The world is planar. Both players move at fixed speed with heading control;
the circular obstacle drifts at a constant velocity. The pursuer only knows
a nominal value of that velocity, so every state carries two obstacle
copies: the true one (drives termination) and the nominal one (drives the
pursuer's planning).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class ValidationError(ValueError):
    """A scenario or state violates one of its declared invariants."""


class UncertaintySpec(Enum):
    """Which obstacle-velocity parameters the pursuer treats as uncertain."""

    BOTH_CARTESIAN = "both_cartesian"
    RHO1_ONLY = "rho1_only"
    RHO2_ONLY = "rho2_only"
    SPEED_ONLY = "speed_only"
    HEADING_ONLY = "heading_only"

    @property
    def n_params(self) -> int:
        return 2 if self is UncertaintySpec.BOTH_CARTESIAN else 1


class EvaderMode(Enum):
    ORIGINAL = "original"
    DECEPTIVE = "deceptive"


class OutcomeKind(Enum):
    CAPTURE = "Capture"
    PURSUER_COLLISION = "PursuerCollision"
    EVADER_COLLISION = "EvaderCollision"
    TIMEOUT = "Timeout"


# Slack on the timeout comparison: t accumulates one dt per step, so after
# k steps it can sit a few ulps below k*dt.
TIMEOUT_SLACK = 1e-9

# A state is in collision when the clearance constraint is violated beyond
# the planners' feasibility tolerance. Touching the boundary (g = 0) is
# feasible for the constraint g <= 0, and accepted plans may ride it up to
# this tolerance, so only deeper penetration counts as contact.
COLLISION_TOL = 1e-6


def _as_pair(value, name: str) -> tuple[float, float]:
    try:
        a, b = value
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a 2-vector, got {value!r}") from exc
    return (_as_number(a, name), _as_number(b, name))


def _as_number(value, name: str) -> float:
    # NaN and infinity are refused: a game with a NaN dt never terminates.
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return x


def _as_int(value, name: str) -> int:
    x = _as_number(value, name)
    if not x.is_integer():
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value) if isinstance(value, int) else int(x)


@dataclass(frozen=True)
class ScenarioConfig:
    """Immutable description of one game instance.

    Positions and velocities are stored as plain float pairs so configs
    compare and hash like values; convert with np.asarray where arithmetic
    is needed. Q is either a scalar (meaning Q times identity) or a full
    weight matrix stored as nested tuples.
    """

    pursuer_start: tuple[float, float]
    evader_start: tuple[float, float]
    obstacle_start: tuple[float, float]
    u_c: float
    v_c: float
    epsilon: float
    r_o: float
    rho_nominal: tuple[float, float]
    rho_true: tuple[float, float]
    uncertainty_spec: UncertaintySpec
    N: int
    dt: float
    Q: float | tuple[tuple[float, ...], ...] = 0.0
    alpha_o: float = 0.0
    alpha_d: float = 1.0
    evader_mode: EvaderMode = EvaderMode.ORIGINAL
    t_max: float = 10.0
    seed: int = 0
    relevance_scale: float = 1.0

    def __post_init__(self):
        for name in ("pursuer_start", "evader_start", "obstacle_start",
                     "rho_nominal", "rho_true"):
            object.__setattr__(self, name, _as_pair(getattr(self, name), name))
        for name in ("u_c", "v_c", "epsilon", "r_o", "dt", "t_max",
                     "alpha_o", "alpha_d", "relevance_scale"):
            object.__setattr__(self, name, _as_number(getattr(self, name), name))
        for name in ("N", "seed"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        for name, kind in (("uncertainty_spec", UncertaintySpec),
                           ("evader_mode", EvaderMode)):
            try:  # an Enum called on one of its members returns that member
                object.__setattr__(self, name, kind(getattr(self, name)))
            except ValueError as exc:
                raise ValidationError(str(exc)) from exc
        q = self.Q
        k = self.uncertainty_spec.n_params
        if isinstance(q, (int, float)):
            object.__setattr__(self, "Q", _as_number(q, "Q"))
            if self.Q < 0.0:
                raise ValidationError("Q must be positive semidefinite")
        else:
            try:
                mat = np.asarray(q, dtype=float)
            except (TypeError, ValueError):
                raise ValidationError(
                    f"Q must be a number or a {k}x{k} matrix, got {q!r}") from None
            if mat.shape != (k, k):
                raise ValidationError(
                    f"Q matrix must be {k}x{k} for {self.uncertainty_spec.value}, "
                    f"got shape {mat.shape}")
            # float() reads a bool as 0 or 1; the scalar branch refuses one.
            bools = [x for x in np.asarray(q, dtype=object).flat
                     if isinstance(x, (bool, np.bool_))]
            if bools:
                raise ValidationError(f"Q must be a finite number, got {bools[0]!r}")
            if not np.isfinite(mat).all():
                raise ValidationError(f"Q matrix entries must be finite, got {q!r}")
            if not np.allclose(mat, mat.T):
                raise ValidationError("Q matrix must be symmetric")
            if np.linalg.eigvalsh(mat).min() < -1e-12:
                raise ValidationError("Q matrix must be positive semidefinite")
            object.__setattr__(self, "Q", tuple(map(tuple, mat.tolist())))
        self._validate()

    def _validate(self):
        if self.u_c <= 0 or self.v_c <= 0:
            raise ValidationError("speeds u_c and v_c must be positive")
        if self.u_c <= self.v_c:
            raise ValidationError(
                f"capturability requires u_c > v_c, got u_c={self.u_c}, v_c={self.v_c}")
        if self.epsilon <= 0:
            raise ValidationError("capture radius epsilon must be positive")
        if self.r_o <= 0:
            raise ValidationError("obstacle radius r_o must be positive")
        if self.dt <= 0:
            raise ValidationError("time step dt must be positive")
        if self.N < 1:
            raise ValidationError("horizon length N must be at least 1")
        if self.t_max <= 0:
            raise ValidationError("t_max must be positive")
        if self.seed < 0:
            raise ValidationError("seed must be nonnegative")
        if self.relevance_scale <= 0:
            raise ValidationError("relevance_scale must be positive")
        p = np.asarray(self.pursuer_start)
        e = np.asarray(self.evader_start)
        w = np.asarray(self.obstacle_start)
        if np.linalg.norm(p - w) <= self.r_o:
            raise ValidationError("pursuer_start lies inside the obstacle")
        if np.linalg.norm(e - w) <= self.r_o:
            raise ValidationError("evader_start lies inside the obstacle")
        if np.linalg.norm(p - e) <= self.epsilon:
            raise ValidationError("initial positions already within capture radius")

    @property
    def q_is_zero(self) -> bool:
        if isinstance(self.Q, float):
            return self.Q == 0.0
        return not np.any(np.asarray(self.Q))

    def q_matrix(self) -> np.ndarray:
        """Weight matrix on the vectorized RCS row, k x k."""
        k = self.uncertainty_spec.n_params
        if isinstance(self.Q, float):
            return self.Q * np.eye(k)
        return np.asarray(self.Q, dtype=float)

    def nominal_heading(self) -> float:
        """Heading of the nominal obstacle velocity, radians."""
        return math.atan2(self.rho_nominal[1], self.rho_nominal[0])

    def nominal_speed(self) -> float:
        return math.hypot(self.rho_nominal[0], self.rho_nominal[1])

    def nominal_obstacle(self, t) -> np.ndarray:
        """Obstacle centre the pursuer plans against at scalar or (n,) times t."""
        return self._obstacle(self.rho_nominal, t)

    def true_obstacle(self, t) -> np.ndarray:
        """The real obstacle centre at scalar or (n,) times t."""
        return self._obstacle(self.rho_true, t)

    def _obstacle(self, rho, t) -> np.ndarray:
        return (np.asarray(self.obstacle_start)
                + np.asarray(rho) * np.asarray(t)[..., None])


@dataclass(frozen=True)
class GameState:
    """Positions of all agents at one time instant.

    Both obstacle copies follow their velocity exactly: x_w_true is
    cfg.true_obstacle(t) and x_w_nominal is cfg.nominal_obstacle(t).
    """

    t: float
    x_p: np.ndarray
    x_e: np.ndarray
    x_w_true: np.ndarray
    x_w_nominal: np.ndarray

    def __post_init__(self):
        for name in ("x_p", "x_e", "x_w_true", "x_w_nominal"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (2,):
                raise ValidationError(f"{name} must have shape (2,), got {arr.shape}")
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "t", float(self.t))


def initial_state(cfg: ScenarioConfig) -> GameState:
    w0 = np.asarray(cfg.obstacle_start)
    return GameState(
        t=0.0,
        x_p=np.asarray(cfg.pursuer_start),
        x_e=np.asarray(cfg.evader_start),
        x_w_true=w0.copy(),
        x_w_nominal=w0.copy(),
    )


@dataclass(frozen=True)
class ControlSequence:
    """Heading sequence for one player over a planning horizon."""

    headings: np.ndarray
    speed: float

    def __post_init__(self):
        arr = np.asarray(self.headings, dtype=float)
        if arr.ndim != 1:
            raise ValidationError("headings must be a 1-D sequence")
        object.__setattr__(self, "headings", arr)
        object.__setattr__(self, "speed", float(self.speed))

    def __len__(self) -> int:
        return len(self.headings)

    def velocities(self) -> np.ndarray:
        """Implied velocity vectors, shape (N, 2); each has norm == speed."""
        return self.speed * np.stack(
            [np.cos(self.headings), np.sin(self.headings)], axis=-1)


@dataclass(frozen=True)
class Outcome:
    kind: OutcomeKind
    t_end: float


def track(start: np.ndarray, headings, speed: float, dt: float) -> np.ndarray:
    """Positions after each step from start under (..., N) headings: (..., N, 2).

    The one path from headings to positions, for the world step and every
    plan. A cumulative sum over [start, step 0, step 1, ...] adds one step
    at a time, so a batch row is the step-by-step chain bit for bit.
    """
    h = np.asarray(headings, dtype=float)
    steps = np.empty(h.shape[:-1] + (h.shape[-1] + 1, 2))
    steps[..., 0, :] = start
    np.multiply(speed, np.cos(h), out=steps[..., 1:, 0])
    np.multiply(speed, np.sin(h), out=steps[..., 1:, 1])
    steps[..., 1:, :] *= dt
    return np.cumsum(steps, axis=-2)[..., 1:, :]


def step_state(s: GameState, u_head: float, v_head: float,
               cfg: ScenarioConfig) -> GameState:
    """Advance one time step under both players' headings.

    The obstacle copies are recomputed from the start position so their
    trajectories stay exactly linear regardless of step count.
    """
    t_next = s.t + cfg.dt
    return GameState(
        t=t_next,
        x_p=track(s.x_p, [u_head], cfg.u_c, cfg.dt)[0],
        x_e=track(s.x_e, [v_head], cfg.v_c, cfg.dt)[0],
        x_w_true=cfg.true_obstacle(t_next),
        x_w_nominal=cfg.nominal_obstacle(t_next),
    )


def constraint_g(x: np.ndarray, x_w: np.ndarray, r_o: float) -> np.ndarray:
    """Obstacle clearance constraint: nonpositive iff the agent is safe.

    x (either player) and the obstacle centre x_w are (..., 2) positions;
    the result has their broadcast leading shape.
    """
    d = np.asarray(x, dtype=float) - np.asarray(x_w, dtype=float)
    # The length-2 sum written out: the same single rounding as np.sum over
    # the last axis, without a reduction's per-call overhead.
    return r_o * r_o - (d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])


def check_termination(s: GameState, cfg: ScenarioConfig) -> Outcome | None:
    """Detect game end at the sampled state, or None if play continues.

    Collisions are checked against the TRUE obstacle (the pursuer only
    learns of a violation when it happens) and take precedence over
    capture at the same sample.
    """
    if constraint_g(s.x_p, s.x_w_true, cfg.r_o) > COLLISION_TOL:
        return Outcome(OutcomeKind.PURSUER_COLLISION, s.t)
    if constraint_g(s.x_e, s.x_w_true, cfg.r_o) > COLLISION_TOL:
        return Outcome(OutcomeKind.EVADER_COLLISION, s.t)
    if float(np.linalg.norm(s.x_p - s.x_e)) <= cfg.epsilon:
        return Outcome(OutcomeKind.CAPTURE, s.t)
    if s.t >= cfg.t_max - TIMEOUT_SLACK:
        return Outcome(OutcomeKind.TIMEOUT, s.t)
    return None


def line_of_sight_heading(from_pos: np.ndarray, to_pos: np.ndarray) -> float:
    """Heading pointing from one position straight at another."""
    d = np.asarray(to_pos, dtype=float) - np.asarray(from_pos, dtype=float)
    return math.atan2(d[1], d[0])
