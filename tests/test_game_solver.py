"""Per-step strategy solves: alternation, convergence, information limits."""

import math
from dataclasses import replace

import numpy as np
import pytest

from asym_pe import game_solver
from asym_pe.game import (
    ControlSequence,
    ValidationError,
    initial_state,
    line_of_sight_heading,
)
from asym_pe.game_solver import (
    GAUSS_SEIDEL,
    GaussSeidelConfig,
    solve_evader_deceptive,
    solve_evader_original,
    solve_pursuer_game,
)
from asym_pe.scenarios import preset


def make_cfg(**overrides):
    return replace(preset("fig2_collision"), **overrides)


FAR_OBSTACLE = dict(obstacle_start=(1e6, 1e6), rho_nominal=(0.0, 0.0),
                    rho_true=(0.0, 0.0))


def los_warm(cfg, state):
    los = line_of_sight_heading(state.x_p, state.x_e)
    return (ControlSequence(headings=np.full(cfg.N, los), speed=cfg.u_c),
            ControlSequence(headings=np.full(cfg.N, los), speed=cfg.v_c))


def angle_diff(a: float, b: float) -> float:
    return abs(math.remainder(a - b, 2 * math.pi))


def test_collinear_no_obstacle_converges_immediately():
    # Pursue/flee along the common line is a fixed point: the warm start
    # is already optimal for both, so the loop stops within two sweeps.
    cfg = make_cfg(**FAR_OBSTACLE)
    s0 = initial_state(cfg)
    dec = solve_pursuer_game(s0, cfg, los_warm(cfg, s0))
    assert dec.converged
    assert dec.iters <= 2
    los = line_of_sight_heading(s0.x_p, s0.x_e)
    assert angle_diff(dec.u_head, los) <= 1e-2
    assert angle_diff(dec.v_head, los) <= 1e-2  # evader flees along the line
    assert dec.residual_u <= GAUSS_SEIDEL.conv_tol
    assert dec.residual_v <= GAUSS_SEIDEL.conv_tol


def test_fig2_first_heading_near_line_of_sight():
    # At the start the obstacle is still far enough that the clearance
    # constraint is inactive over the horizon; the pursuer aims at the
    # evader, modulo game curvature.
    cfg = preset("fig2_collision")
    s0 = initial_state(cfg)
    dec = solve_pursuer_game(s0, cfg, los_warm(cfg, s0))
    los = line_of_sight_heading(s0.x_p, s0.x_e)
    assert angle_diff(dec.u_head, los) <= 0.15


def test_evader_original_flees_when_obstacle_far():
    cfg = make_cfg(**FAR_OBSTACLE)
    s0 = initial_state(cfg)
    dec = solve_evader_original(s0, cfg, los_warm(cfg, s0))
    los = line_of_sight_heading(s0.x_p, s0.x_e)
    assert angle_diff(dec.v_head, los) <= 1e-2
    assert dec.converged


def test_pursuer_game_never_reads_true_velocity():
    # The entire pursuer-side game is solved in nominal-obstacle terms:
    # changing the true velocity cannot change any part of the decision.
    cfg = preset("fig3_desensitized")
    s0 = initial_state(cfg)
    warm = los_warm(cfg, s0)
    dec_a = solve_pursuer_game(s0, cfg, warm)
    cfg_b = replace(cfg, rho_true=(0.2, 0.3))
    dec_b = solve_pursuer_game(s0, cfg_b, warm)
    np.testing.assert_array_equal(dec_a.u_seq.headings, dec_b.u_seq.headings)
    np.testing.assert_array_equal(dec_a.v_seq.headings, dec_b.v_seq.headings)
    assert dec_a.u_head == dec_b.u_head


def test_solver_is_deterministic():
    cfg = preset("fig2_collision")
    s0 = initial_state(cfg)
    warm = los_warm(cfg, s0)
    dec_a = solve_pursuer_game(s0, cfg, warm)
    dec_b = solve_pursuer_game(s0, cfg, warm)
    np.testing.assert_array_equal(dec_a.u_seq.headings, dec_b.u_seq.headings)
    np.testing.assert_array_equal(dec_a.v_seq.headings, dec_b.v_seq.headings)
    assert dec_a.iters == dec_b.iters


def test_iteration_cap_respected(monkeypatch):
    # With an impossibly tight tolerance the loop must stop at max_iters
    # and report non-convergence honestly. Line-of-sight warm starts are an
    # exact fixed point on fig2, so constant off-line headings are used.
    cfg = preset("fig2_collision")
    s0 = initial_state(cfg)
    gs = GaussSeidelConfig(conv_tol=1e-15, max_iters=2)
    monkeypatch.setattr(game_solver, "GAUSS_SEIDEL", gs)
    warm = (ControlSequence(headings=np.full(cfg.N, 0.3), speed=cfg.u_c),
            ControlSequence(headings=np.full(cfg.N, -0.4), speed=cfg.v_c))
    dec = solve_pursuer_game(s0, cfg, warm)
    assert dec.iters == gs.max_iters
    assert not dec.converged
    assert np.isfinite(dec.residual_u) and np.isfinite(dec.residual_v)
    assert max(dec.residual_u, dec.residual_v) > gs.conv_tol


def test_evaders_pursuer_model_is_risk_neutral():
    # The evader models a pursuer that ignores risk, whatever Q is, while
    # the pursuer's own game does change with Q.
    cfg1 = preset("fig3_desensitized")
    cfg3 = replace(cfg1, Q=3.0)
    s0 = initial_state(cfg1)
    warm = los_warm(cfg1, s0)
    evader1 = solve_evader_original(s0, cfg1, warm)
    evader3 = solve_evader_original(s0, cfg3, warm)
    np.testing.assert_array_equal(evader1.u_seq.headings, evader3.u_seq.headings)
    np.testing.assert_array_equal(evader1.v_seq.headings, evader3.v_seq.headings)
    assert (evader1.iters, evader1.residual_u, evader1.residual_v) == (
        evader3.iters, evader3.residual_u, evader3.residual_v)
    pursuer1 = solve_pursuer_game(s0, cfg1, warm)
    pursuer3 = solve_pursuer_game(s0, cfg3, warm)
    assert not np.array_equal(pursuer1.u_seq.headings, pursuer3.u_seq.headings)


def test_deceptive_decision_shape():
    cfg = preset("fig7_deception_collision")
    s0 = initial_state(cfg)
    warm = ControlSequence(
        headings=np.full(cfg.N, line_of_sight_heading(s0.x_p, s0.x_e)),
        speed=cfg.v_c)
    dec = solve_evader_deceptive(s0, cfg, warm)
    assert math.isnan(dec.u_head)
    assert dec.u_seq is None
    assert len(dec.v_seq) == cfg.N
    assert math.isfinite(dec.v_head)
    assert dec.v_head == dec.v_seq.headings[0]


def test_deceptive_requires_deceptive_mode():
    cfg = preset("fig2_collision")  # original evader mode
    s0 = initial_state(cfg)
    warm = ControlSequence(headings=np.zeros(cfg.N), speed=cfg.v_c)
    with pytest.raises(ValidationError):
        solve_evader_deceptive(s0, cfg, warm)
