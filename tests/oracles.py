"""Independent oracles for the sensitivity rows, used only by tests.

The runtime evaluates constraint sensitivities in closed form
(asym_pe.sensitivity._s_g_rows). These helpers rebuild the Cartesian row
another way: integrate the stacked-state sensitivity ODE, then chain the
clearance gradient through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from asym_pe.game import ControlSequence, ScenarioConfig, ValidationError


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
