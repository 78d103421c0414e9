"""Constraint-sensitivity machinery for the pursuer's risk term.

The pursuer cannot observe the obstacle's true velocity, so it penalizes
plans whose obstacle clearance is sensitive to that velocity. For linear
obstacle motion that sensitivity has a closed form, evaluated at the
nominal obstacle trajectory.

Every risk number comes from one vectorized formula: weighted_terms, the
optimizer's batch risk term, and rcs_sample, which also returns the rows
it is made of and scores the logged plan risk and evaluate_objective.
Sensitivity time restarts at zero at each planning instant: callers pass
times measured from the start of the horizon, while the nominal obstacle
position keeps game time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import ScenarioConfig, ValidationError, _as_int, _as_number, constraint_g
from .game import UncertaintySpec as US


@dataclass(frozen=True)
class RcsSample:
    """Relevance-weighted constraint sensitivity at horizon samples.

    s_g and s_gamma are (..., k); relevance and weighted_norm_sq are (...).
    """

    s_g: np.ndarray
    relevance: np.ndarray
    s_gamma: np.ndarray
    weighted_norm_sq: np.ndarray


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


def _rcs(x_p, x_w, t, cfg: ScenarioConfig):
    """(s_g, gamma(g), s_gamma = gamma(g) s_g, ||s_gamma||^2_Q) at positions x_p.

    x_p and x_w are (..., 2) arrays of pursuer and nominal obstacle
    positions; t broadcasts against their leading shape, as in _s_g_rows.
    """
    gam = relevance(cfg.relevance_scale * constraint_g(x_p, x_w, cfg.r_o))
    s_g = _s_g_rows(x_p - x_w, t, cfg)
    s_gamma = np.asarray(gam)[..., None] * s_g
    return s_g, gam, s_gamma, np.einsum(
        "...i,ij,...j->...", s_gamma, cfg.q_matrix(), s_gamma)


def weighted_terms(x_p: np.ndarray, x_w: np.ndarray, t,
                   cfg: ScenarioConfig) -> np.ndarray:
    """||vec(S_gamma)||^2_Q alone, shaped as in _rcs: the optimizer's risk term."""
    return _rcs(x_p, x_w, t, cfg)[3]


def rcs_sample(x_p, x_w_nominal, t, cfg: ScenarioConfig) -> RcsSample:
    """Relevant constraint sensitivity of one or a batch of samples, as in _rcs."""
    return RcsSample(*_rcs(x_p, x_w_nominal, t, cfg))


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
    a1, a2 = grid.axes()
    p = np.stack(np.meshgrid(a1, a2, indexing="ij"), axis=-1)
    return np.linalg.norm(
        rcs_sample(p, cfg.nominal_obstacle(t), float(t), cfg).s_gamma, axis=-1)
