"""Constraint-sensitivity machinery for the pursuer's risk term.

The pursuer cannot observe the obstacle's true velocity, so it penalizes
plans whose obstacle clearance is sensitive to that velocity. For linear
obstacle motion that sensitivity has a closed form, evaluated at the
nominal obstacle trajectory.

Sensitivity time restarts at zero at each planning instant: every risk
path (the optimizer's batch evaluator, evaluate_objective and sim's plan
risk) passes times measured from the start of the horizon, while the
nominal obstacle position keeps game time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import ScenarioConfig, ValidationError, _as_int, _as_number, constraint_g
from .game import UncertaintySpec as US


@dataclass(frozen=True)
class RcsSample:
    """Relevance-weighted constraint sensitivity at one horizon sample."""

    s_g: np.ndarray
    relevance: float
    s_gamma: np.ndarray
    weighted_norm_sq: float

    def __post_init__(self):
        object.__setattr__(self, "s_g", np.asarray(self.s_g, dtype=float))
        object.__setattr__(self, "s_gamma", np.asarray(self.s_gamma, dtype=float))


def relevance(z):
    """Relevance weight gamma(z): logistic derivative, clamped above zero.

    Monotone increasing on (-inf, 0], constant 0.25 for z > 0. Accepts
    scalars or arrays; scalar in, float out.
    """
    z_arr = np.asarray(z, dtype=float)
    # e^z/(1+e^z)^2 evaluated with z <= 0 only, so the exponential never
    # overflows; underflow to 0 for very negative z is the correct limit.
    zneg = np.minimum(z_arr, 0.0)
    ez = np.exp(zneg)
    out = ez / (1.0 + ez) ** 2
    if np.isscalar(z) or z_arr.ndim == 0:
        return float(out)
    return out


def _s_g_rows(d: np.ndarray, t, cfg: ScenarioConfig) -> np.ndarray:
    """Sensitivity rows for displacement(s) d = x_p - x_w_nominal.

    d has shape (..., 2), t broadcasts against d[..., 0]; returns
    (..., k) with k set by cfg.uncertainty_spec.
    """
    spec = cfg.uncertainty_spec
    t2 = 2.0 * np.asarray(t, dtype=float)
    if spec is US.BOTH_CARTESIAN:
        return t2[..., None] * d if np.ndim(t2) else t2 * d
    if spec is US.RHO1_ONLY:
        return (t2 * d[..., 0])[..., None]
    if spec is US.RHO2_ONLY:
        return (t2 * d[..., 1])[..., None]
    psi = cfg.nominal_heading()
    if spec is US.SPEED_ONLY:
        return (t2 * (d[..., 1] * np.sin(psi) + d[..., 0] * np.cos(psi)))[..., None]
    # HEADING_ONLY
    return (cfg.nominal_speed() * t2
            * (d[..., 1] * np.cos(psi) - d[..., 0] * np.sin(psi)))[..., None]


def _s_gamma_rows(d: np.ndarray, t, cfg: ScenarioConfig) -> np.ndarray:
    """Relevance-weighted rows gamma(g) * s_g; shapes as in _s_g_rows."""
    g = cfg.r_o ** 2 - np.sum(d ** 2, axis=-1)
    gam = relevance(cfg.relevance_scale * g)
    return np.asarray(gam)[..., None] * _s_g_rows(d, t, cfg)


def weighted_terms(d: np.ndarray, t, cfg: ScenarioConfig) -> np.ndarray:
    """Vectorized ||vec(S_gamma)||^2_Q for displacements d = x_p - x_w_nominal.

    Shapes broadcast as in _s_g_rows; returns shape d.shape[:-1]. This is
    the batch workhorse behind the optimizer's risk term.
    """
    rows = _s_gamma_rows(np.asarray(d, dtype=float), t, cfg)
    q = cfg.q_matrix()
    return np.einsum("...i,ij,...j->...", rows, q, rows)


def rcs_sample(x_p, x_w_nominal, t: float, cfg: ScenarioConfig) -> RcsSample:
    """Relevant constraint sensitivity of a pursuer position at time t."""
    x_p = np.asarray(x_p, dtype=float)
    x_w = np.asarray(x_w_nominal, dtype=float)
    g = constraint_g(x_p, x_w, cfg.r_o)
    gam = relevance(cfg.relevance_scale * g)
    s_g = _s_g_rows(x_p - x_w, float(t), cfg)
    s_gamma = gam * s_g
    q = cfg.q_matrix()
    wns = float(s_gamma @ q @ s_gamma)
    return RcsSample(s_g=s_g, relevance=gam, s_gamma=s_gamma, weighted_norm_sq=wns)


def risk_of_sequence(samples: list[RcsSample]) -> float:
    """Horizon risk: sum of weighted RCS norms (dt absorbed into Q)."""
    return float(sum(s.weighted_norm_sq for s in samples))


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid, res points per axis, endpoints included."""

    x1_min: float
    x1_max: float
    x2_min: float
    x2_max: float
    resolution: int

    def __post_init__(self):
        object.__setattr__(
            self, "resolution", _as_int(self.resolution, "grid resolution"))
        for name in ("x1_min", "x1_max", "x2_min", "x2_max"):
            object.__setattr__(self, name, _as_number(getattr(self, name), name))
        if self.resolution < 2:
            raise ValidationError("grid resolution must be at least 2")
        if self.x1_max <= self.x1_min or self.x2_max <= self.x2_min:
            raise ValidationError("grid extents must have positive span")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.linspace(self.x1_min, self.x1_max, self.resolution),
                np.linspace(self.x2_min, self.x2_max, self.resolution))


def rcs_field_grid(cfg: ScenarioConfig, t: float, grid: GridSpec) -> np.ndarray:
    """||s_gamma|| over candidate pursuer positions at time t.

    Entry [i, j] is the field at (x1_i, x2_j) against the nominal obstacle
    position at t. Used for contour output.
    """
    x_w = np.asarray(cfg.obstacle_start) + np.asarray(cfg.rho_nominal) * float(t)
    a1, a2 = grid.axes()
    p = np.stack(np.meshgrid(a1, a2, indexing="ij"), axis=-1)
    return np.linalg.norm(_s_gamma_rows(p - x_w, float(t), cfg), axis=-1)
