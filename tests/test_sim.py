"""Closed-loop simulation: trace structure, replays, information hygiene."""

import math
from dataclasses import replace

import numpy as np
import pytest

from asym_pe import sim
from asym_pe.game import (
    ControlSequence,
    GameState,
    OutcomeKind,
    UncertaintySpec,
    constraint_g,
    initial_state,
    step_state,
)
from asym_pe.game_solver import solve_pursuer_game
from asym_pe.scenarios import preset
from asym_pe.sensitivity import relevance
from asym_pe.sim import plan_risk, replay_pursuer_decisions, run, run_batch
from asym_pe.trajopt import NoFeasibleSequence, shift_and_hold


@pytest.fixture(scope="module")
def fig2_trace():
    return run(preset("fig2_collision"))


def test_fig2_trace_structure(fig2_trace):
    trace = fig2_trace
    assert trace.outcome.kind is OutcomeKind.PURSUER_COLLISION
    records = trace.records
    # Exactly one terminal record, at the end, carrying no controls.
    assert records[-1].u_head is None
    assert records[-1].v_head is None
    assert records[-1].risk is None
    assert all(r.u_head is not None for r in records[:-1])
    assert len(trace.decision_records) == len(records) - 1
    assert trace.outcome.t_end == records[-1].t
    assert len(trace.states) == len(records)
    # Times advance by dt.
    dts = np.diff([r.t for r in records])
    np.testing.assert_allclose(dts, trace.cfg.dt, atol=1e-12)


def test_fig2_risk_column_is_zero(fig2_trace):
    # Zero risk weight: the logged plan risk is exactly zero every step.
    assert all(r.risk == 0.0 for r in fig2_trace.decision_records)


def test_recorded_states_follow_dynamics(fig2_trace):
    cfg = fig2_trace.cfg
    records = fig2_trace.records
    for prev, nxt in zip(records[:-1], records[1:]):
        redone = step_state(prev.state, prev.u_head, prev.v_head, cfg)
        np.testing.assert_array_equal(redone.x_p, nxt.state.x_p)
        np.testing.assert_array_equal(redone.x_e, nxt.state.x_e)
        np.testing.assert_array_equal(redone.x_w_true, nxt.state.x_w_true)
        np.testing.assert_array_equal(redone.x_w_nominal, nxt.state.x_w_nominal)


def test_simulation_is_deterministic():
    cfg = preset("fig2_collision")
    a = run(cfg)
    b = run(cfg)
    assert a.outcome == b.outcome
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra.u_head == rb.u_head
        assert ra.v_head == rb.v_head
        np.testing.assert_array_equal(ra.state.x_p, rb.state.x_p)
        np.testing.assert_array_equal(ra.state.x_e, rb.state.x_e)


def test_pursuer_replay_reproduces_decisions(fig2_trace):
    cfg = fig2_trace.cfg
    states = [r.state for r in fig2_trace.decision_records]
    replayed = replay_pursuer_decisions(cfg, states)
    original = [r.u_head for r in fig2_trace.decision_records]
    assert replayed == original


def test_pursuer_ignores_true_velocity(fig2_trace):
    # Perturbing the true obstacle velocity in the config must not change
    # a single pursuer decision bit.
    cfg = fig2_trace.cfg
    states = [r.state for r in fig2_trace.decision_records]
    original = [r.u_head for r in fig2_trace.decision_records]
    perturbed = replace(cfg, rho_true=(0.17, 0.31))
    assert replay_pursuer_decisions(perturbed, states) == original


def test_pursuer_never_reads_true_obstacle_position(fig2_trace):
    # NaN tripwire: if any pursuer code path touched the true obstacle
    # position, NaN would propagate into the decisions.
    cfg = fig2_trace.cfg
    original = [r.u_head for r in fig2_trace.decision_records]
    scrubbed = [
        GameState(t=s.t, x_p=s.x_p, x_e=s.x_e,
                  x_w_true=np.array([math.nan, math.nan]),
                  x_w_nominal=s.x_w_nominal)
        for s in (r.state for r in fig2_trace.decision_records)
    ]
    assert replay_pursuer_decisions(cfg, scrubbed) == original


def test_pursuer_never_reads_true_obstacle_velocity(fig2_trace):
    # NaN tripwire on the config: a true-disk read anywhere in the pursuer's
    # game, its own plan or its model of the evader, would change a heading.
    blind = replace(fig2_trace.cfg)
    object.__setattr__(blind, "rho_true", (math.nan, math.nan))  # validation refuses NaN
    states = [r.state for r in fig2_trace.decision_records]
    original = [r.u_head for r in fig2_trace.decision_records]
    assert replay_pursuer_decisions(blind, states) == original


def test_run_batch_matches_individual_runs():
    cfgs = [preset("fig2_collision"),
            replace(preset("fig2_collision"), epsilon=0.5)]
    batch = run_batch(cfgs)
    assert len(batch) == 2
    for cfg, trace in zip(cfgs, batch):
        assert trace.cfg == cfg
        single = run(cfg)
        assert trace.outcome == single.outcome


def _hand_s_g(cfg, d, tau):
    spec = cfg.uncertainty_spec
    if spec is UncertaintySpec.RHO2_ONLY:
        return [2.0 * tau * d[1]]
    if spec is UncertaintySpec.BOTH_CARTESIAN:
        return [2.0 * tau * d[0], 2.0 * tau * d[1]]
    assert spec is UncertaintySpec.HEADING_ONLY
    # d g / d psi for rho = speed * (cos psi, sin psi)
    rx, ry = cfg.rho_nominal
    speed, psi = math.hypot(rx, ry), math.atan2(ry, rx)
    return [2.0 * tau * speed * (d[1] * math.cos(psi) - d[0] * math.sin(psi))]


def test_plan_risk_hand_computed():
    # Independent recomputation of the logged risk: relevance-weighted
    # squared sensitivity, summed over the horizon. Sensitivity time runs
    # from the planning instant; the nominal obstacle runs on game time.
    fig3 = replace(preset("fig3_desensitized"), N=4)
    cases = [
        fig3,  # rho2 only, Q = 1
        replace(fig3, uncertainty_spec=UncertaintySpec.BOTH_CARTESIAN,
                Q=((1.0, 0.3), (0.3, 0.5))),
        replace(fig3, uncertainty_spec=UncertaintySpec.HEADING_ONLY,
                rho_nominal=(0.15, -0.2), Q=2.0, relevance_scale=0.5),
    ]
    for cfg in cases:
        s0 = initial_state(cfg)
        base = step_state(s0, 0.3, 0.1, cfg)  # some mid-game state, t = 0.1
        u = ControlSequence(headings=np.array([0.2, -0.1, 0.05, 0.3]))
        got = plan_risk(cfg, base, u)

        q = cfg.q_matrix()
        expect = 0.0
        p = base.x_p.copy()
        for i in range(cfg.N):
            h = u.headings[i]
            p = p + cfg.u_c * np.array([math.cos(h), math.sin(h)]) * cfg.dt
            t_abs = base.t + (i + 1) * cfg.dt
            tau = (i + 1) * cfg.dt
            w = np.asarray(cfg.obstacle_start) + np.asarray(cfg.rho_nominal) * t_abs
            d = p - w
            gam = relevance(cfg.relevance_scale * (cfg.r_o ** 2 - float(d @ d)))
            s_g = _hand_s_g(cfg, d, tau)
            expect += gam * gam * sum(s_g[a] * q[a][b] * s_g[b]
                                      for a in range(len(s_g)) for b in range(len(s_g)))
        assert expect > 0.0
        assert got == pytest.approx(expect, rel=1e-9), cfg.uncertainty_spec


def test_plan_risk_zero_weight():
    cfg = preset("fig2_collision")
    s0 = initial_state(cfg)
    u = ControlSequence(headings=np.zeros(cfg.N))
    assert plan_risk(cfg, s0, u) == 0.0


def test_infeasible_steps_fall_back_and_are_flagged():
    # A huge nominal obstacle sweeping over the pursuer makes every
    # horizon solve infeasible; the simulation must keep stepping on the
    # line-of-sight fallback, flag each step, and time out.
    cfg = replace(
        preset("fig2_collision"),
        evader_start=(-5.0, 0.0), obstacle_start=(3.05, 0.0), r_o=3.0,
        rho_nominal=(-30.0, 0.0), rho_true=(0.0, 0.0),
        uncertainty_spec=UncertaintySpec.BOTH_CARTESIAN, N=3, Q=0.0,
        t_max=0.3)
    trace = run(cfg)
    assert trace.outcome.kind is OutcomeKind.TIMEOUT
    steps = trace.decision_records
    assert len(steps) == 3
    assert all(r.pursuer_infeasible for r in steps)
    # The evader's own solve recovers once the nominal disk has swept past
    # its position; the pursuer-side game stays infeasible throughout
    # because its internal evader model is still caught in that disk.
    assert steps[0].evader_infeasible and steps[1].evader_infeasible
    assert not steps[2].evader_infeasible
    # Fallback heading: line of sight toward the evader, held thereafter.
    assert steps[0].u_head == pytest.approx(math.pi)
    assert all(r.u_head == steps[0].u_head for r in steps)
    # The run never actually collides with the true (static) obstacle.
    for s in trace.states:
        assert constraint_g(s.x_p, s.x_w_true, cfg.r_o) <= 0.0


@pytest.mark.parametrize("name, t_max", [
    ("fig4_rho1", 0.4), ("fig7_deception_collision", 2.5)])
def test_a_feasible_warm_start_is_never_held(name, t_max):
    # At t = 0.2 of fig4_rho1 (the pursuer's internal evader model) and at
    # t = 2.4 of fig7 (the pursuer), a best response starts from a warm
    # start with violation 0. Before the penalty kept a FEASIBILITY_TOL
    # margin, its descent ended just past the tolerance there. The warm
    # start is a candidate of the best response either way, so neither
    # decision falls back to a hold.
    trace = run(replace(preset(name), t_max=t_max))
    assert not any(r.pursuer_infeasible for r in trace.decision_records)


def test_a_hold_does_not_steer_into_the_disk():
    # At t = 0 the EVADER's line-of-sight warm start has violation 0.559,
    # and a descent whose penalty had no margin ended at 1.23e-06, a hair
    # past FEASIBILITY_TOL. The solve then found no feasible plan, and the
    # hold applied the line of sight (heading 0.0896) into the true disk:
    # EvaderCollision at t = 0.2, although heading pi keeps g <= -0.135
    # over the horizon.
    cfg = replace(preset("fig4_rho1"),
                  evader_start=(3.007092974820154, 0.2702782177955612),
                  obstacle_start=(3.7864957676317803, 0.36918966828234634),
                  t_max=4)
    assert run(cfg).outcome.kind is not OutcomeKind.EVADER_COLLISION


def test_a_hold_follows_the_plan_it_keeps(monkeypatch):
    # On a hold the pursuer keeps its last plan shifted by one step, the
    # warm start, and both the heading it applies and the risk it logs
    # come from that plan. Applying the previous heading instead gives
    # -0.357049 here, where the kept plan starts at -0.356969.
    cfg = replace(preset("fig3_desensitized"), t_max=0.3)
    calls = []

    def second_fails(state, cfg, warm):
        calls.append(state.t)
        if len(calls) == 2:
            raise NoFeasibleSequence("forced")
        return solve_pursuer_game(state, cfg, warm)

    monkeypatch.setattr(sim, "solve_pursuer_game", second_fails)
    first, held = run(cfg).decision_records[:2]
    assert held.pursuer_infeasible and not first.pursuer_infeasible
    kept = shift_and_hold(first.pursuer.u_seq)
    assert held.u_head == kept.headings[0]
    assert held.risk == plan_risk(cfg, held.state, kept)


@pytest.mark.parametrize("name, seed, t_max", [
    ("fig7_deception_collision", 5, 2.3),
    ("fig8_desensitized_vs_deception", 7, 2.0),
    ("fig8_desensitized_vs_deception", 8, 1.8),
])
def test_a_lure_game_does_not_hold(name, seed, t_max):
    # Without a margin in the penalty, a PURSUER descent here ended a hair
    # past FEASIBILITY_TOL and the pursuer held its heading once, at
    # t = 2.2, 1.9 and 1.7.
    trace = run(replace(preset(name), seed=seed, t_max=t_max))
    assert not any(r.pursuer_infeasible or r.evader_infeasible
                   for r in trace.decision_records)
