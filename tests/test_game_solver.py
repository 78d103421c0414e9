"""Per-step strategy solves: alternation, convergence, information limits."""

import math
from dataclasses import replace

import numpy as np
import pytest

from asym_pe import game_solver
from asym_pe.game import (
    COLLISION_TOL,
    ControlSequence,
    ValidationError,
    constraint_g,
    initial_state,
    line_of_sight_heading,
    track,
)
from asym_pe.game_solver import (
    GAUSS_SEIDEL,
    GaussSeidelConfig,
    StepStatus,
    solve_evader_deceptive,
    solve_evader_original,
    solve_pursuer_game,
)
from asym_pe.scenarios import preset
from asym_pe.sim import run
from asym_pe.trajopt import horizon_times


def make_cfg(**overrides):
    return replace(preset("fig2_collision"), **overrides)


FAR_OBSTACLE = dict(obstacle_start=(1e6, 1e6), rho_nominal=(0.0, 0.0),
                    rho_true=(0.0, 0.0))


def los_warm(cfg, state):
    los = line_of_sight_heading(state.x_p, state.x_e)
    return (ControlSequence(headings=np.full(cfg.N, los)),
            ControlSequence(headings=np.full(cfg.N, los)))


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
    assert angle_diff(dec.u_seq.headings[0], los) <= 1e-2
    assert angle_diff(dec.v_seq.headings[0], los) <= 1e-2  # evader flees along the line
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
    assert angle_diff(dec.u_seq.headings[0], los) <= 0.15


def test_evader_original_flees_when_obstacle_far():
    cfg = make_cfg(**FAR_OBSTACLE)
    s0 = initial_state(cfg)
    dec = solve_evader_original(s0, cfg, los_warm(cfg, s0))
    los = line_of_sight_heading(s0.x_p, s0.x_e)
    assert angle_diff(dec.v_seq.headings[0], los) <= 1e-2
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
    warm = (ControlSequence(headings=np.full(cfg.N, 0.3)),
            ControlSequence(headings=np.full(cfg.N, -0.4)))
    dec = solve_pursuer_game(s0, cfg, warm)
    assert dec.iters == gs.max_iters
    assert dec.status is StepStatus.CAPPED
    assert not dec.converged
    assert np.isfinite(dec.residual_u) and np.isfinite(dec.residual_v)
    assert max(dec.residual_u, dec.residual_v) > gs.conv_tol


@pytest.mark.parametrize("name", ["fig3_desensitized", "fig4_rho1"])
def test_outcome_does_not_depend_on_the_iteration_cap(monkeypatch, name):
    # A cap that binds decides the game by whichever iterate it cuts. Outside
    # the endgame the relaxed iteration converges well inside the cap, and
    # the endgame does not iterate, so moving the cap moves nothing.
    kinds = set()
    for max_iters in (49, 50, 51):
        monkeypatch.setattr(game_solver, "GAUSS_SEIDEL",
                            GaussSeidelConfig(max_iters=max_iters))
        kinds.add(run(preset(name)).outcome.kind)
    assert len(kinds) == 1, kinds


@pytest.mark.parametrize("d", [
    pytest.param(1.02, marks=pytest.mark.xfail(strict=True, reason=(
        "G = 18.5: lam = 0.051 moves the points too slowly, both games cap "
        "at 50 sweeps with the evader 0.435 rad off the line of sight; "
        "ROADMAP item 2's Aitken/Anderson lead"))),
    1.05, 1.15, 1.25])
def test_free_space_game_converges_just_outside_the_endgame(d):
    # Here u_c*T < d < 1.31, so a plain sweep multiplies the line-of-sight
    # error by -G with G > 1. The relaxed iteration must still reach the
    # free-space saddle, both plans on the line of sight, from off-line
    # warm starts. No preset or benchmark game reaches d = 1.02.
    cfg = replace(preset("fig4_rho1"), evader_start=(d, 0.0), **FAR_OBSTACLE)
    s0 = initial_state(cfg)
    assert cfg.u_c * cfg.N * cfg.dt < d
    warm = (ControlSequence(headings=np.full(cfg.N, 0.3)),
            ControlSequence(headings=np.full(cfg.N, -0.2)))
    los = line_of_sight_heading(s0.x_p, s0.x_e)
    for solve in (solve_pursuer_game, solve_evader_original):
        dec = solve(s0, cfg, warm)
        assert dec.status is StepStatus.CONVERGED, (solve.__name__, dec.iters)
        assert angle_diff(dec.u_seq.headings[0], los) <= 0.05
        assert angle_diff(dec.v_seq.headings[0], los) <= 0.05


def test_endgame_with_the_disk_between_the_players():
    # d = 0.9 < u_c*T = 1: no iteration runs. The line of sight crosses a
    # small disk, so the pursuer cannot answer the fleeing evader with a
    # straight line; its best response goes round the nominal disk, and
    # the evader's answers round the true one.
    cfg = replace(preset("fig4_rho1"), evader_start=(0.9, 0.0),
                  obstacle_start=(0.45, 0.02), r_o=0.2)
    s0 = initial_state(cfg)
    warm = los_warm(cfg, s0)
    ts = horizon_times(s0.t, cfg.N, cfg.dt)
    pursuer = solve_pursuer_game(s0, cfg, warm)
    evader = solve_evader_original(s0, cfg, warm)
    assert pursuer.status is evader.status is StepStatus.ENDGAME
    assert not pursuer.converged
    p_plan = track(s0.x_p, pursuer.u_seq.headings, cfg.u_c, cfg.dt)
    assert constraint_g(p_plan, cfg.nominal_obstacle(ts), cfg.r_o).max() <= COLLISION_TOL
    e_plan = track(s0.x_e, evader.v_seq.headings, cfg.v_c, cfg.dt)
    assert constraint_g(e_plan, cfg.true_obstacle(ts), cfg.r_o).max() <= COLLISION_TOL
    # The residuals are point gaps: the evader side answers the end of the
    # pursuer's plan itself, and the pursuer side answers the fleeing point.
    d = float(np.linalg.norm(s0.x_e - s0.x_p))
    flee = s0.x_e + (cfg.v_c * cfg.N * cfg.dt / d) * (s0.x_e - s0.x_p)
    for dec in (pursuer, evader):
        assert dec.residual_u == 0.0
        gap = track(s0.x_e, dec.v_seq.headings, cfg.v_c, cfg.dt)[-1] - flee
        assert abs(dec.residual_v - float(np.linalg.norm(gap))) <= 1e-12
    # The pursuer's endgame, like its iterated game, sees only the nominal disk.
    blind = replace(cfg)
    object.__setattr__(blind, "rho_true", (math.nan, math.nan))
    for hidden in (replace(cfg, rho_true=(0.2, 0.3)), blind):
        dec = solve_pursuer_game(s0, hidden, warm)
        np.testing.assert_array_equal(dec.u_seq.headings, pursuer.u_seq.headings)
        np.testing.assert_array_equal(dec.v_seq.headings, pursuer.v_seq.headings)
        assert (dec.status, dec.residual_u, dec.residual_v) == (
            pursuer.status, pursuer.residual_u, pursuer.residual_v)


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
        headings=np.full(cfg.N, line_of_sight_heading(s0.x_p, s0.x_e)))
    dec = solve_evader_deceptive(s0, cfg, warm)
    assert dec.u_seq is None
    assert len(dec.v_seq) == cfg.N
    assert np.isfinite(dec.v_seq.headings).all()


def test_deceptive_requires_deceptive_mode():
    cfg = preset("fig2_collision")  # original evader mode
    s0 = initial_state(cfg)
    warm = ControlSequence(headings=np.zeros(cfg.N))
    with pytest.raises(ValidationError):
        solve_evader_deceptive(s0, cfg, warm)
