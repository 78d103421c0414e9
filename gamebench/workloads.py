"""Scenario documents for the three benchmark workloads.

The benchmark owns its scenarios: every document spells out all fields,
so a change to the program's presets cannot change a workload. Field
values are those of the figure presets they are named after. The checks
read the same mappings, so they never take a scenario value from the
program.
"""

from __future__ import annotations

import math
import random

import yaml

_BASE = {
    "pursuer_start": (0.0, 0.0),
    "evader_start": (3.0, 0.0),
    "obstacle_start": (2.0, 1.15),
    "u_c": 1.0,
    "v_c": 0.6,
    "epsilon": 0.3,
    "r_o": 0.75,
    "rho_nominal": (0.0, -0.25),
    "rho_true": (0.0, -0.35),
    "uncertainty_spec": "rho2_only",
    "N": 10,
    "dt": 0.1,
    "Q": 0.0,
    "alpha_o": 0.0,
    "alpha_d": 1.0,
    "evader_mode": "original",
    "t_max": 10.0,
    "seed": 0,
    "relevance_scale": 1.0,
}


def _polar(speed: float, heading_deg: float) -> tuple[float, float]:
    h = math.radians(heading_deg)
    return (speed * math.cos(h), speed * math.sin(h))


def _figures() -> dict[str, dict]:
    fig4 = dict(_BASE, N=5, dt=0.2, obstacle_start=(4.0, 0.1),
                rho_nominal=(-0.25, 0.0), rho_true=(-0.35, 0.0),
                uncertainty_spec="rho1_only", Q=1.0)
    fig7 = dict(_BASE, evader_start=(4.0, 0.0), obstacle_start=(3.0, 1.65),
                evader_mode="deceptive")
    return {
        "fig2_collision": dict(_BASE),
        "fig4_rho1": fig4,
        "fig5_fast_obstacle": dict(fig4, obstacle_start=(-1.0, 0.1),
                                   rho_nominal=(1.3, 0.0), rho_true=(1.4, 0.0)),
        "fig6_heading": dict(_BASE, obstacle_start=(4.5, 1.0),
                             rho_nominal=_polar(0.3, 180.0),
                             rho_true=_polar(0.3, -150.0),
                             uncertainty_spec="heading_only", Q=2.5),
        "fig7_deception_collision": fig7,
        "fig8_desensitized_vs_deception": dict(
            fig7, Q=0.5, uncertainty_spec="both_cartesian"),
        "fig9_local_minimum": dict(fig7, Q=0.5),
    }


FIGURES = _figures()

# fig4_rho1 is cut at t_max = 4.4: 22 decisions, the last four of them in
# the phase where Gauss-Seidel hits its 50-iteration cap. The whole game
# (44 decisions to a capture at 8.8) takes about 90 s on a 2-core Xeon.
STALEMATE_T_MAX = 4.4

LURE_FIGURES = ("fig7_deception_collision", "fig8_desensitized_vs_deception",
                "fig9_local_minimum")

# Risk weights the sweep draws from: an ascending grid per figure, split
# into a low and a high half. Every value was played once and ends within
# 4 s. fig2_collision turns into a long stalemate from Q = 1 (35 s at
# Q = 1, 98 s at Q = 2), so its grid stops at 0.5. fig5_fast_obstacle
# stops at 1.5: from Q = 2 its cost jumps about with Q (the collision
# moves to t = 0.6 or 0.4), which would make a round's cost depend on
# the seed more than on the program.
SWEEP_Q_GRID = {
    "fig2_collision": ((0.05, 0.1, 0.15, 0.2, 0.25), (0.3, 0.35, 0.4, 0.45, 0.5)),
    "fig5_fast_obstacle": ((0.25, 0.5, 0.75), (1.0, 1.25, 1.5)),
    "fig6_heading": ((0.25, 0.5, 0.75, 1.0, 1.25, 1.5),
                     (1.75, 2.0, 2.25, 2.5, 2.75, 3.0)),
}

WORKLOADS = ("stalemate", "lure", "sweep")

# The information-hygiene replay moves the true obstacle velocity by this
# much; the pursuer's decisions must not change by a single bit.
HYGIENE_RHO_SHIFT = (0.23, -0.11)


def games(workload: str, seed: int) -> list[tuple[str, dict]]:
    """(label, scenario mapping) for every game of one round."""
    if workload == "stalemate":
        # The game never reads its seed: every best response inside
        # Gauss-Seidel is single-start, so the perturbation seed is unused.
        return [("fig4_rho1", dict(FIGURES["fig4_rho1"], t_max=STALEMATE_T_MAX,
                                   seed=seed))]
    if workload == "lure":
        return [(name, dict(FIGURES[name], seed=seed)) for name in LURE_FIGURES]
    if workload == "sweep":
        # Two weights per figure, paired antithetically: the i-th lowest
        # of the low half with the i-th highest of the high half. A game's
        # cost grows with Q on the whole, so the pair's cost, and with it
        # the round's, varies less between seeds than two free draws.
        rng = random.Random(seed)
        out = []
        for name, (low, high) in SWEEP_Q_GRID.items():
            i = rng.randrange(len(low))
            for q in (low[i], high[-1 - i]):
                out.append((f"{name}@Q={q}", dict(FIGURES[name], Q=q)))
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def document(mapping: dict) -> str:
    """The YAML scenario document the program parses."""
    return yaml.safe_dump({k: list(v) if isinstance(v, tuple) else v
                           for k, v in mapping.items()}, sort_keys=False)


def hygiene_mapping(mapping: dict) -> dict:
    """The same scenario with the true obstacle velocity moved."""
    rx, ry = mapping["rho_true"]
    return dict(mapping, rho_true=(rx + HYGIENE_RHO_SHIFT[0],
                                   ry + HYGIENE_RHO_SHIFT[1]))
