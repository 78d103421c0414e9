"""Properties of scenario configs and whole games over generated inputs, not only presets."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from asym_pe.game import (
    ControlSequence,
    EvaderMode,
    ScenarioConfig,
    UncertaintySpec,
    ValidationError,
    initial_state,
    line_of_sight_heading,
    step_state,
    track,
)
from asym_pe.scenarios import parse_scenario, serialize_scenario
from asym_pe.sim import replay_pursuer_decisions, run
from asym_pe.trace_io import write_trace_csv
from asym_pe.trajopt import (
    FEASIBILITY_TOL,
    NoFeasibleSequence,
    Player,
    _BatchEval,
    _descend,
    _straight_line,
    best_response,
    constraint_violations,
    evaluate_objective,
)
import oracles

# Derandomized: the same examples on every run, so a failure reproduces.
FAST = settings(max_examples=60, derandomize=True, deadline=None)
# Each example plays two short games and a replay; 10 take about 4 s.
GAMES = settings(max_examples=10, derandomize=True, deadline=None)
# Each example is one best response; 100 take about 3 s.
RESPONSES = settings(max_examples=100, derandomize=True, deadline=None)
# Each example is up to three descents; 60 take about 3 s.
DESCENTS = settings(max_examples=60, derandomize=True, deadline=None)

SCALAR_FIELDS = ("u_c", "v_c", "epsilon", "r_o", "dt", "t_max", "alpha_o",
                 "alpha_d", "relevance_scale", "Q", "N", "seed")
PAIR_FIELDS = ("pursuer_start", "evader_start", "obstacle_start", "rho_nominal",
               "rho_true")
NON_FINITE = (math.nan, math.inf, -math.inf)


def _finite(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _pair(lo: float, hi: float):
    return st.tuples(_finite(lo, hi), _finite(lo, hi))


@st.composite
def _q(draw, spec: UncertaintySpec):
    if draw(st.booleans()):
        return draw(_finite(0.0, 5.0))
    k = spec.n_params
    a = np.array(draw(st.lists(_finite(-2.0, 2.0), min_size=k * k, max_size=k * k)))
    a = a.reshape(k, k)
    return tuple(map(tuple, (a @ a.T).tolist()))


@st.composite
def scenario_configs(draw) -> ScenarioConfig:
    """Valid configs: starts outside the disk and apart, u_c > v_c."""
    r_o = draw(_finite(0.1, 2.0))
    epsilon = draw(_finite(0.05, 0.5))
    obstacle = draw(_pair(-5.0, 5.0))

    def outside_disk():
        angle = draw(_finite(-math.pi, math.pi))
        dist = r_o + draw(_finite(0.01, 6.0))
        return (obstacle[0] + dist * math.cos(angle),
                obstacle[1] + dist * math.sin(angle))

    pursuer = outside_disk()
    evader = outside_disk()
    assume(math.dist(pursuer, evader) > epsilon)
    u_c = draw(_finite(0.2, 3.0))
    spec = draw(st.sampled_from(UncertaintySpec))
    mapping = dict(
        pursuer_start=pursuer, evader_start=evader, obstacle_start=obstacle,
        u_c=u_c, v_c=u_c * draw(_finite(0.05, 0.95)), epsilon=epsilon, r_o=r_o,
        rho_nominal=draw(_pair(-1.0, 1.0)), rho_true=draw(_pair(-1.0, 1.0)),
        uncertainty_spec=spec, N=draw(st.integers(1, 30)),
        dt=draw(_finite(0.01, 0.5)), Q=draw(_q(spec)),
        alpha_o=draw(_finite(0.0, 2.0)), alpha_d=draw(_finite(0.0, 2.0)),
        evader_mode=draw(st.sampled_from(EvaderMode)),
        t_max=draw(_finite(0.1, 20.0)), seed=draw(st.integers(0, 2 ** 32)),
        relevance_scale=draw(_finite(0.1, 5.0)))
    return ScenarioConfig(**mapping)


@FAST
@given(scenario_configs())
def test_serialize_scenario_round_trips(cfg):
    assert parse_scenario(serialize_scenario(cfg)) == cfg


def _with_entry(value, index: int, bad: float):
    """value with one entry, of a pair or of a Q matrix's diagonal, set to bad."""
    if isinstance(value, tuple) and isinstance(value[0], tuple):
        rows = [list(row) for row in value]
        rows[index % len(rows)][index % len(rows)] = bad
        return rows
    if isinstance(value, tuple):
        return [bad if i == index else x for i, x in enumerate(value)]
    return bad


@FAST
@given(scenario_configs())
def test_every_numeric_field_refuses_non_finite(cfg):
    for name in SCALAR_FIELDS + PAIR_FIELDS:
        for bad in NON_FINITE:
            for index in (0, 1):
                with pytest.raises(ValidationError):
                    replace(cfg, **{name: _with_entry(getattr(cfg, name), index, bad)})


@st.composite
def short_games(draw) -> ScenarioConfig:
    """scenario_configs() cut to horizons of 1-3 steps and 1-3 decisions."""
    cfg = draw(scenario_configs())
    return replace(cfg, N=draw(st.integers(1, 3)),
                   t_max=draw(st.integers(1, 3)) * cfg.dt)


@GAMES
@given(short_games(), _pair(-1.0, 1.0))
def test_short_games_replay_exactly_stay_finite_and_hide_rho_true(cfg, moved_rho):
    assume(moved_rho != cfg.rho_true)
    trace = run(cfg)
    text = write_trace_csv(trace)
    assert write_trace_csv(run(cfg)) == text
    decisions = trace.decision_records
    assert len(decisions) <= math.ceil(cfg.t_max / cfg.dt)
    for rec in trace.records:
        s = rec.state
        assert np.isfinite([s.t, *s.x_p, *s.x_e, *s.x_w_true, *s.x_w_nominal]).all()
    for rec in decisions:
        assert np.isfinite([rec.u_head, rec.v_head, rec.risk]).all()
    # Information hygiene: the pursuer's stream cannot see the true velocity,
    # whether it is moved or NaN (a NaN that validation would refuse).
    states, heads = [r.state for r in decisions], [r.u_head for r in decisions]
    blind = replace(cfg)
    object.__setattr__(blind, "rho_true", (math.nan, math.nan))
    for hidden in (replace(cfg, rho_true=moved_rho), blind):
        assert replay_pursuer_decisions(hidden, states) == heads


@RESPONSES
@given(scenario_configs(), st.sampled_from(Player))
# The pursuer's straight line runs this warm line of sight up to rounding
# and scores a last bit worse.
@example(ScenarioConfig(
    pursuer_start=(2.375, 0.0), evader_start=(0.20336945479464585, 2.8677980864866566),
    obstacle_start=(0.0, 0.0), u_c=0.5, v_c=0.25, epsilon=0.5, r_o=1.375,
    rho_nominal=(0.0, 0.0), rho_true=(0.0, 0.0),
    uncertainty_spec=UncertaintySpec.BOTH_CARTESIAN, N=6, dt=0.375), Player.PURSUER)
def test_a_feasible_warm_start_is_never_lost(cfg, player):
    # The warm start is a candidate of its best response: when it is
    # feasible with a finite payoff, the response is feasible and no worse.
    s0 = initial_state(cfg)
    los = line_of_sight_heading(s0.x_p, s0.x_e)
    opp = None if player is Player.DECEPTIVE_EVADER else ControlSequence(
        np.full(cfg.N, los))
    prob = oracles.problem_against(player, s0, opp, cfg)
    ev = _BatchEval(prob)
    warm = ControlSequence(np.full(cfg.N, los))
    warm_value = evaluate_objective(prob, warm)
    assume(constraint_violations(prob, warm).max() <= FEASIBILITY_TOL)
    assume(math.isfinite(warm_value))
    resp = best_response(prob, warm)
    assert resp.constraint_max_violation <= FEASIBILITY_TOL
    assert constraint_violations(prob, resp.sequence).max() <= FEASIBILITY_TOL
    assert ev.sign * resp.objective_value <= ev.sign * warm_value


FREE_SPACE_PLAYERS = (Player.PURSUER, Player.EVADER_MODEL, Player.PURSUER_MODEL,
                      Player.EVADER)


@DESCENTS
@given(scenario_configs(), st.sampled_from(FREE_SPACE_PLAYERS), st.data())
def test_a_feasible_straight_line_is_never_beaten(cfg, player, data):
    # Without risk or deception, the straight line away from (or toward)
    # the opponent's terminal point is the global optimum, so where it is
    # feasible no feasible descent from any start may beat its payoff, and
    # best_response returns it without a step.
    cfg = replace(cfg, Q=0.0)
    s0 = initial_state(cfg)
    angles = st.lists(_finite(-math.pi, math.pi), min_size=cfg.N, max_size=cfg.N)
    prob = oracles.problem_against(player, s0, ControlSequence(
        np.array(data.draw(angles))), cfg)
    ev = _BatchEval(prob)
    line = _straight_line(ev)
    assume(line is not None)
    raw, _, viol = ev(line[None, :])
    assume(viol[0] <= FEASIBILITY_TOL)
    for _ in range(3):
        start = ControlSequence(np.array(data.draw(angles)))
        try:
            resp = _descend(ev, start)
        except NoFeasibleSequence:
            continue
        assert ev.sign * resp.objective_value >= ev.sign * raw[0] - 1e-9
    resp = best_response(prob, start)
    np.testing.assert_array_equal(resp.sequence.headings, line)
    assert (resp.objective_value, resp.solver_iters) == (raw[0], 0)


@FAST
@given(scenario_configs(), st.data())
def test_track_is_the_scalar_step_chain(cfg, data):
    # game.track is the one path from headings to positions. For any batch
    # of heading rows it must add each step exactly as the scalar libm
    # chain in tests/oracles.py does, and step_state's next positions must
    # be that chain's first step.
    b, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 8))
    heads = np.array(data.draw(st.lists(
        _finite(-20.0, 20.0), min_size=b * n, max_size=b * n))).reshape(b, n)
    s0 = initial_state(cfg)
    for start, speed in ((s0.x_p, cfg.u_c), (s0.x_e, cfg.v_c)):
        pos = track(start, heads, speed, cfg.dt)
        assert pos.shape == (b, n, 2)
        for row, row_pos in zip(heads, pos):
            x = start
            for head, p in zip(row, row_pos):
                x = oracles.heading_step(x, speed, float(head), cfg.dt)
                np.testing.assert_array_equal(p, x)
    u_head, v_head = float(heads[0, 0]), float(heads[-1, -1])
    s1 = step_state(s0, u_head, v_head, cfg)
    np.testing.assert_array_equal(
        s1.x_p, oracles.heading_step(s0.x_p, cfg.u_c, u_head, cfg.dt))
    np.testing.assert_array_equal(
        s1.x_e, oracles.heading_step(s0.x_e, cfg.v_c, v_head, cfg.dt))
