"""Horizon best responses against brute-force heading-grid oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest

from asym_pe.game import (
    ControlSequence,
    UncertaintySpec,
    ValidationError,
    initial_state,
    line_of_sight_heading,
    step_state,
    track,
)
from asym_pe import sim, trajopt
from asym_pe.scenarios import preset
from asym_pe.trajopt import (
    FEASIBILITY_TOL,
    GRAD_H,
    HorizonProblem,
    NoFeasibleSequence,
    Player,
    _BatchEval,
    _perturbed_starts,
    best_response,
    constraint_violations,
    evaluate_objective,
    horizon_times,
    shift_and_hold,
)
import oracles


def make_cfg(**overrides):
    return replace(preset("fig2_collision"), **overrides)


FAR_OBSTACLE = dict(obstacle_start=(1e6, 1e6), rho_nominal=(0.0, 0.0),
                    rho_true=(0.0, 0.0))


def constant_seq(heading: float, n: int) -> ControlSequence:
    return ControlSequence(headings=np.full(n, heading))


def grid_headings(step_deg: float = 0.5) -> np.ndarray:
    return np.deg2rad(np.arange(0.0, 360.0, step_deg))


def constant_heading_oracle(prob: HorizonProblem) -> tuple[float, float]:
    """Exhaustive constant-heading search, independent closed-form rollout.

    Constant headings make the player's position at sample i exactly
    start + i*dt*velocity; the opponent's terminal position is the
    problem's fixed point. Returns (best objective, best heading) in the
    problem's own min/max sense.
    """
    cfg = prob.cfg
    thetas = grid_headings()
    n = cfg.N
    s0 = prob.start_state
    my_speed, my_start = ((cfg.u_c, s0.x_p) if prob.player.pursues
                          else (cfg.v_c, s0.x_e))
    vel = my_speed * np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
    my_term = my_start + n * cfg.dt * vel
    dist = np.linalg.norm(my_term - prob.opponent_end, axis=-1)
    if prob.player.pursues:
        k = int(np.argmin(dist))
    else:
        k = int(np.argmax(dist))
    return float(dist[k]), float(thetas[k])


def test_horizon_times_matches_stepwise_accumulation():
    ts = horizon_times(0.3, 5, 0.1)
    t = 0.3
    for i in range(5):
        t = t + 0.1
        assert ts[i] == t  # bitwise: same accumulation order


def test_pure_pursuit_model():
    v = oracles.pure_pursuit_model(np.array([0.0, 0.0]), np.array([3.0, 4.0]), 1.0)
    np.testing.assert_allclose(v, [0.6, 0.8])
    assert np.linalg.norm(v) == pytest.approx(1.0)
    with pytest.raises(oracles.CoincidentPositions):
        oracles.pure_pursuit_model(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 1.0)


def test_problem_validation():
    cfg = make_cfg()
    s0 = initial_state(cfg)
    # A fixed opponent terminal point exactly when the opponent is not the
    # deceptive evader's pure-pursuit model.
    for player in set(Player) - {Player.DECEPTIVE_EVADER}:
        with pytest.raises(ValidationError):
            HorizonProblem(player, s0, None, cfg)
    with pytest.raises(ValidationError):
        HorizonProblem(Player.DECEPTIVE_EVADER, s0, s0.x_p, cfg)


# player: (plans the pursuer's path, against the true disk, risk when Q != 0)
PLAYER_TABLE = {
    Player.PURSUER: (True, False, True),
    Player.EVADER_MODEL: (False, False, False),
    Player.PURSUER_MODEL: (True, False, False),
    Player.EVADER: (False, True, False),
    Player.DECEPTIVE_EVADER: (False, True, False),
}


@pytest.mark.parametrize("q", [0.0, 1.0])
@pytest.mark.parametrize("player", list(Player), ids=lambda p: p.value)
def test_player_speed_start_sign_disk_and_risk(player, q):
    pursues, true_disk, risk = PLAYER_TABLE[player]
    cfg = replace(preset("fig7_deception_collision"), Q=q)
    s0 = initial_state(cfg)
    opp = (None if player is Player.DECEPTIVE_EVADER
           else constant_seq(0.2, cfg.N))
    ev = _BatchEval(oracles.problem_against(player, s0, opp, cfg))
    assert ev.speed == (cfg.u_c if pursues else cfg.v_c)
    assert ev.my_start is (s0.x_p if pursues else s0.x_e)
    assert ev.sign == (1.0 if pursues else -1.0)
    if true_disk:
        assert ev.w_model is ev.w_true
    else:
        assert ev.w_true is None and ev.w_model is ev.w_nominal
    headings = np.random.default_rng(3).uniform(-3.0, 3.0, (5, cfg.N))
    raw = ev(headings)[0]
    if player is not Player.DECEPTIVE_EVADER:
        pos = track(ev.my_start, headings, ev.speed, ev.dt)
        distance = np.linalg.norm(pos[:, -1] - ev.opp_end, axis=-1)
        carries_risk = not np.array_equal(raw, distance)
        assert carries_risk == (risk and q != 0.0)
    assert ev.risk == (risk and q != 0.0)


def test_rollout_matches_step_state_chain():
    cfg = make_cfg()
    s0 = initial_state(cfg)
    rng = np.random.default_rng(1)
    u = ControlSequence(headings=rng.uniform(-3, 3, cfg.N))
    v = ControlSequence(headings=rng.uniform(-3, 3, cfg.N))
    states = oracles.rollout(s0, u, v, cfg)
    assert len(states) == cfg.N + 1
    # The scalar chain visits the states of the runtime's step_state chain.
    s = s0
    for a, b, state in zip(u.headings, v.headings, states[1:]):
        s = step_state(s, a, b, cfg)
        for name in ("t", "x_p", "x_e", "x_w_true", "x_w_nominal"):
            np.testing.assert_array_equal(getattr(state, name), getattr(s, name))
    with pytest.raises(ValidationError):
        oracles.rollout(s0, u, constant_seq(0.0, cfg.N - 1), cfg)


def test_gradient_matches_sequential_finite_differences():
    # The batched stencil evaluation must reproduce plain central
    # differences of one-row batch scorings bit for bit, and those of the
    # scalar reference payoff up to the payoffs' last-bit rounding. Seeds
    # past 4 are draws where batch and scalar payoffs round differently.
    cfg = make_cfg(Q=1.0)
    s0 = initial_state(cfg)
    for seed in (4, 7, 14, 22, 45, 60):
        rng = np.random.default_rng(seed)
        v = ControlSequence(headings=rng.uniform(-3, 3, cfg.N))
        prob = oracles.problem_against(Player.PURSUER, s0, v, cfg)
        u = ControlSequence(headings=rng.uniform(-3, 3, cfg.N))
        grad = oracles.objective_gradient(prob, u)
        ev = _BatchEval(prob)
        batch = np.empty(cfg.N)
        scalar = np.empty(cfg.N)
        for j in range(cfg.N):
            hp = u.headings.copy()
            hm = u.headings.copy()
            hp[j] += GRAD_H
            hm[j] -= GRAD_H
            batch[j] = (ev(hp[None, :])[0][0] - ev(hm[None, :])[0][0]) / (2 * GRAD_H)
            fp = oracles.objective(prob, ControlSequence(headings=hp))
            fm = oracles.objective(prob, ControlSequence(headings=hm))
            scalar[j] = (fp - fm) / (2 * GRAD_H)
        np.testing.assert_array_equal(grad, batch, err_msg=f"seed {seed}")
        np.testing.assert_allclose(grad, scalar, rtol=0.0, atol=1e-8,
                                   err_msg=f"seed {seed}")


def test_q_zero_collapses_to_plain_objective():
    # With Q = 0 the pursuer's own problem is the risk-neutral one the
    # evader models it by: same payoff, same best response, bit for bit.
    cfg = make_cfg(Q=0.0)
    s0 = initial_state(cfg)
    v = constant_seq(0.3, cfg.N)
    u = constant_seq(-0.2, cfg.N)
    probs = [oracles.problem_against(player, s0, v, cfg)
             for player in (Player.PURSUER_MODEL, Player.PURSUER)]
    assert evaluate_objective(probs[0], u) == evaluate_objective(probs[1], u)
    resp0 = best_response(probs[0], u)
    resp1 = best_response(probs[1], u)
    np.testing.assert_array_equal(resp0.sequence.headings, resp1.sequence.headings)
    assert resp0.objective_value == resp1.objective_value


def test_only_the_deceptive_evader_reads_the_seed():
    # Gauss-Seidel players are single-start: the seed feeds only the
    # perturbed extra starts, so their responses are bitwise seed-free.
    # The deceptive evader's eight seeded starts do reach its response.
    def responses(cfg, player, opp, init):
        s0 = initial_state(cfg)
        return [best_response(oracles.problem_against(player, s0, opp,
                                                      replace(cfg, seed=seed)), init)
                for seed in (0, 7)]

    cfg = preset("fig3_desensitized")
    s0 = initial_state(cfg)
    los = line_of_sight_heading(s0.x_p, s0.x_e)
    u, v = constant_seq(los, cfg.N), constant_seq(los, cfg.N)
    for player in (Player.PURSUER, Player.EVADER_MODEL, Player.PURSUER_MODEL,
                   Player.EVADER):
        mine, theirs = (u, v) if player.pursues else (v, u)
        a, b = responses(cfg, player, theirs, mine)
        np.testing.assert_array_equal(a.sequence.headings, b.sequence.headings,
                                      err_msg=player.value)
        assert (a.objective_value, a.solver_iters) == (b.objective_value, b.solver_iters)

    cfg = preset("fig7_deception_collision")
    s0 = initial_state(cfg)
    flee = constant_seq(line_of_sight_heading(s0.x_p, s0.x_e), cfg.N)
    a, b = responses(cfg, Player.DECEPTIVE_EVADER, None, flee)
    assert not np.array_equal(a.sequence.headings, b.sequence.headings)


def test_pursuer_best_response_matches_grid_oracle():
    # No obstacle nearby, evader frozen on a straight course: the optimum
    # over all sequences is a constant heading, so the 0.5-degree grid is
    # a valid oracle for the optimal value.
    cfg = make_cfg(N=5, dt=0.2, **FAR_OBSTACLE)
    s0 = initial_state(cfg)
    v = constant_seq(math.pi / 4, cfg.N)
    prob = oracles.problem_against(Player.PURSUER, s0, v, cfg)
    init = constant_seq(line_of_sight_heading(s0.x_p, s0.x_e), cfg.N)
    resp = best_response(prob, init)
    oracle_val, _ = constant_heading_oracle(prob)
    assert abs(resp.objective_value - oracle_val) <= 1e-3
    assert resp.constraint_max_violation <= FEASIBILITY_TOL
    assert resp.converged


def test_evader_flee_is_local_optimum():
    cfg = make_cfg(**FAR_OBSTACLE)
    s0 = initial_state(cfg)
    los = line_of_sight_heading(s0.x_p, s0.x_e)
    u = constant_seq(los, cfg.N)  # pursuer heads straight at evader
    prob = oracles.problem_against(Player.EVADER, s0, u, cfg)
    flee = constant_seq(los, cfg.N)  # continue along the line of sight
    resp = best_response(prob, flee)
    flee_val = evaluate_objective(prob, flee)
    assert resp.objective_value >= flee_val - 1e-3
    oracle_val, _ = constant_heading_oracle(prob)
    assert resp.objective_value >= oracle_val - 1e-3


def test_deceptive_response_drags_modeled_pursuer_toward_obstacle():
    # Pure deception payoff: minimizing the modeled pursuer's terminal
    # distance to the true obstacle. The response must do at least as well
    # as plain fleeing, i.e. end the modeled pursuer at least as close.
    cfg = preset("fig7_deception_collision")
    s0 = initial_state(cfg)
    prob = HorizonProblem(Player.DECEPTIVE_EVADER, s0, None, cfg)
    flee = constant_seq(line_of_sight_heading(s0.x_p, s0.x_e), cfg.N)
    resp = best_response(prob, flee)
    flee_val = evaluate_objective(prob, flee)
    # alpha_o=0, alpha_d=1: objective is -||modeled pursuer - true obstacle||.
    assert resp.objective_value >= flee_val - 1e-9
    assert -resp.objective_value <= -flee_val
    assert resp.constraint_max_violation <= FEASIBILITY_TOL


def test_returned_plans_are_feasible_near_obstacle():
    # Straight at the evader passes the obstacle: the accepted plan must
    # clear the nominal stream at every sample.
    cfg = preset("fig2_collision")
    s0 = initial_state(cfg)
    v = constant_seq(0.0, cfg.N)
    prob = oracles.problem_against(Player.PURSUER, s0, v, cfg)
    init = constant_seq(line_of_sight_heading(s0.x_p, s0.x_e), cfg.N)
    resp = best_response(prob, init)
    viol = constraint_violations(prob, resp.sequence)
    assert viol.shape == (cfg.N,)
    assert float(viol.max()) <= FEASIBILITY_TOL
    assert resp.constraint_max_violation <= FEASIBILITY_TOL


def test_feasible_init_never_gets_worse():
    cfg = make_cfg(**FAR_OBSTACLE)
    s0 = initial_state(cfg)
    v = constant_seq(0.0, cfg.N)
    prob = oracles.problem_against(Player.PURSUER, s0, v, cfg)
    rng = np.random.default_rng(8)
    for _ in range(5):
        init = ControlSequence(headings=rng.uniform(-math.pi, math.pi, cfg.N))
        init_val = evaluate_objective(prob, init)
        resp = best_response(prob, init)
        assert resp.objective_value <= init_val + 1e-12


# case: (preset, player); every frozen opponent runs the line of sight.
REPORTED_VALUE_CASES = {
    "desensitized_pursuer": ("fig3_desensitized", Player.PURSUER),
    "evader_true_disk": ("fig2_collision", Player.EVADER),
    "deceptive_evader": ("fig7_deception_collision", Player.DECEPTIVE_EVADER),
    "pursuer_q0": ("fig2_collision", Player.PURSUER),
    "evader_model": ("fig3_desensitized", Player.EVADER_MODEL),
    "pursuer_model": ("fig3_desensitized", Player.PURSUER_MODEL),
}


def _reported_value_problem(case: str) -> HorizonProblem:
    name, player = REPORTED_VALUE_CASES[case]
    cfg = preset(name)
    s0 = initial_state(cfg)
    opp = None if player is Player.DECEPTIVE_EVADER else constant_seq(
        line_of_sight_heading(s0.x_p, s0.x_e), cfg.N)
    return oracles.problem_against(player, s0, opp, cfg)


@pytest.mark.parametrize("case", list(REPORTED_VALUE_CASES))
def test_reported_values_are_the_batch_scoring_of_the_sequence(case):
    # The reported payoff and violation, and evaluate_objective and
    # constraint_violations, come from the batch evaluator the optimizer
    # uses: bitwise equal to a one-row scoring of the returned sequence,
    # and within rounding of the scalar references in tests/oracles.py.
    prob = _reported_value_problem(case)
    s0 = prob.start_state
    init = constant_seq(line_of_sight_heading(s0.x_p, s0.x_e), prob.cfg.N)
    resp = best_response(prob, init)
    raw, _, viol = _BatchEval(prob)(resp.sequence.headings[None, :])
    assert resp.objective_value == raw[0]
    assert resp.constraint_max_violation == viol[0]
    assert evaluate_objective(prob, resp.sequence) == raw[0]
    assert constraint_violations(prob, resp.sequence).max() == viol[0]
    assert abs(resp.objective_value
               - oracles.objective(prob, resp.sequence)) <= 1e-12
    np.testing.assert_allclose(constraint_violations(prob, resp.sequence),
                               oracles.violations(prob, resp.sequence),
                               rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("case", list(REPORTED_VALUE_CASES))
def test_batch_positions_equal_step_state_chain(case):
    # Every row of a random batch must be the positions the scalar step
    # chain in tests/oracles.py visits, bit for bit.
    prob = _reported_value_problem(case)
    cfg = prob.cfg
    ev = _BatchEval(prob)
    headings = np.random.default_rng(12).uniform(-7.0, 7.0, (6, cfg.N))
    pos = track(ev.my_start, headings, ev.speed, ev.dt)
    assert pos.shape == (6, cfg.N, 2)
    # Only the optimizing player is compared, so any opponent plan drives
    # the chain.
    opp = constant_seq(0.0, cfg.N)
    mine = "x_p" if prob.player.pursues else "x_e"
    for row, row_pos in zip(headings, pos):
        seq = ControlSequence(headings=row)
        plans = (seq, opp) if prob.player.pursues else (opp, seq)
        states = oracles.rollout(prob.start_state, *plans, cfg)[1:]
        np.testing.assert_array_equal(
            row_pos, np.array([getattr(s, mine) for s in states]))


def test_no_feasible_sequence_raises():
    # A huge nominal obstacle sweeping over the pursuer leaves every
    # candidate heading in violation at the first sample.
    cfg = make_cfg(
        evader_start=(-5.0, 0.0), obstacle_start=(3.05, 0.0), r_o=3.0,
        rho_nominal=(-30.0, 0.0), rho_true=(0.0, 0.0),
        uncertainty_spec=UncertaintySpec.BOTH_CARTESIAN, N=3, Q=0.0)
    s0 = initial_state(cfg)
    v = constant_seq(math.pi, cfg.N)
    prob = oracles.problem_against(Player.PURSUER, s0, v, cfg)
    init = constant_seq(math.pi, cfg.N)
    with pytest.raises(NoFeasibleSequence):
        best_response(prob, init)


def test_feasible_warm_start_wins_when_every_descent_ends_infeasible(monkeypatch):
    # The pursuer's straight line to the evader crosses a small static disk.
    # At mu = 10 alone the descent from a warm start heading away from the
    # disk cuts through it and ends infeasible, so the feasible warm start
    # is the only candidate: it is returned as is, with no step taken.
    cfg = make_cfg(obstacle_start=(0.5, 0.0), r_o=0.3, rho_nominal=(0.0, 0.0),
                   rho_true=(0.0, 0.0))
    s0 = initial_state(cfg)
    prob = oracles.problem_against(
        Player.PURSUER, s0, constant_seq(0.0, cfg.N), cfg)
    init = constant_seq(math.pi / 2, cfg.N)
    assert constraint_violations(prob, init).max() == 0.0
    monkeypatch.setattr(trajopt, "MU_SCHEDULE", (10.0,))
    resp = best_response(prob, init)
    assert resp.sequence is init
    assert (resp.solver_iters, resp.converged) == (0, True)
    assert resp.objective_value == evaluate_objective(prob, init)
    assert resp.constraint_max_violation == 0.0


def _solved_alone(prob, starts, monkeypatch, mu_schedule=trajopt.MU_SCHEDULE):
    """Each start's single-start response, or None where it has no feasible plan."""
    out = []
    with monkeypatch.context() as m:
        m.setattr(trajopt, "N_STARTS", 1)
        m.setattr(trajopt, "MU_SCHEDULE", mu_schedule)
        for h in starts:
            try:
                out.append(best_response(prob, ControlSequence(h)))
            except NoFeasibleSequence:
                out.append(None)
    return out


def _end_violations_at_ten(prob, starts, monkeypatch):
    """Each start's max violation where its lone mu = 10 round ended.

    That is row 0 of the last stencil call, (2N+1) rows, of its solve.
    """
    real_call = _BatchEval.__call__
    ends = []

    def recording(ev, headings):
        scores = real_call(ev, headings)
        if len(headings) == 2 * ev.n + 1:
            ends[-1] = scores[2][0]
        return scores

    with monkeypatch.context() as m:
        m.setattr(_BatchEval, "__call__", recording)
        for h in starts:
            ends.append(None)
            _solved_alone(prob, [h], monkeypatch, (10.0,))
    return np.array(ends)


def test_a_start_descends_as_if_alone(monkeypatch):
    # The multi-start descent runs its starts in lockstep rounds, one per
    # penalty weight. At the decisions checked here some starts turn
    # feasible at mu = 10 while others need mu = 1e2..1e4, so a start
    # shares calls with batch-mates at other weights and stages. Its
    # descent must still be the one it takes alone: the 8-start response
    # is, bit for bit, the tie-rule winner among the starts solved one at
    # a time. The decisions are the first five of a fig7 run, each
    # warm-started as the game does, with that mix of starts.
    cfg = replace(preset("fig7_deception_collision"), t_max=1.6)
    recs = sim.run(cfg).decision_records
    assert len(recs) == 16
    mixed = 0
    for prev, rec in zip(recs, recs[1:]):
        warm = shift_and_hold(prev.evader.v_seq)
        prob = HorizonProblem(Player.DECEPTIVE_EVADER, rec.state, None, cfg)
        starts = _perturbed_starts(warm, trajopt.N_STARTS, cfg.seed)
        at_ten = _end_violations_at_ten(prob, starts, monkeypatch) > FEASIBILITY_TOL
        if at_ten.all() or not at_ten.any():
            continue
        full = best_response(prob, warm)
        alone = [r for r in _solved_alone(prob, starts, monkeypatch) if r is not None]
        sign = _BatchEval(prob).sign
        winner = min(alone, key=lambda r: (sign * r.objective_value,
                                           tuple(r.sequence.headings)))
        np.testing.assert_array_equal(full.sequence.headings, winner.sequence.headings,
                                      err_msg=f"t={rec.t}")
        assert full.solver_iters == winner.solver_iters
        mixed += 1
        if mixed == 5:
            break
    assert mixed == 5


@pytest.mark.parametrize("name, player, cap, expected", [
    ("fig3_desensitized", Player.PURSUER, 60, (True, 11)),
    ("fig3_desensitized", Player.PURSUER, 1, (False, 1)),
    ("fig3_desensitized", Player.PURSUER, 2, (False, 2)),
    ("fig7_deception_collision", Player.DECEPTIVE_EVADER, 60, (True, 50)),
    ("fig7_deception_collision", Player.DECEPTIVE_EVADER, 1, (False, 1)),
])
def test_descent_cap_reaches_converged(monkeypatch, name, player, cap, expected):
    # A round cut by MAX_DESCENT_ITERS reports the response unconverged.
    cfg = preset(name)
    s0 = initial_state(cfg)
    los = line_of_sight_heading(s0.x_p, s0.x_e)
    opp = None if player is Player.DECEPTIVE_EVADER else constant_seq(los, cfg.N)
    prob = oracles.problem_against(player, s0, opp, cfg)
    monkeypatch.setattr(trajopt, "MAX_DESCENT_ITERS", cap)
    resp = best_response(prob, constant_seq(los, cfg.N))
    assert (resp.converged, resp.solver_iters) == expected


def test_best_response_input_validation():
    cfg = make_cfg()
    s0 = initial_state(cfg)
    v = constant_seq(0.0, cfg.N)
    prob = oracles.problem_against(Player.PURSUER, s0, v, cfg)
    with pytest.raises(ValidationError):
        best_response(prob, constant_seq(0.0, cfg.N - 1))


def test_shift_and_hold():
    seq = ControlSequence(headings=np.array([0.1, 0.2, 0.3]))
    shifted = shift_and_hold(seq)
    np.testing.assert_array_equal(shifted.headings, [0.2, 0.3, 0.3])


def test_deception_needs_true_obstacle_geometry():
    # The deception payoff references the true obstacle, so flipping the
    # true velocity changes the objective value.
    cfg = preset("fig7_deception_collision")
    s0 = initial_state(cfg)
    seq = constant_seq(0.5, cfg.N)

    def value(c):
        prob = HorizonProblem(Player.DECEPTIVE_EVADER, s0, None, c)
        return evaluate_objective(prob, seq)

    flipped = replace(cfg, rho_true=(0.35, 0.0))
    assert value(cfg) != value(flipped)
