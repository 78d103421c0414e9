"""Acceptance gate: scenario outcome reproduction and numeric correctness.

Each test prints one [PASS]/[FAIL] line. The outcome gates run every
bundled preset once (cached across tests) and hold them to the expected
qualitative endings; the event-time gates apply a +/-25% band around the
expected event times. Known divergences fail here with a mechanism
diagnostic rather than being papered over: this solver finds different
local equilibria than the reference trajectories for some presets, and
those gaps are documented, not hidden.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from asym_pe.game import (
    ControlSequence,
    GameState,
    OutcomeKind,
    constraint_g,
    line_of_sight_heading,
    track,
)
from asym_pe.game import COLLISION_TOL
from asym_pe.scenarios import PRESET_EXPECTATIONS, preset, time_band
from asym_pe.sensitivity import weighted_terms
from asym_pe.sim import replay_pursuer_decisions, run
from asym_pe.trace_io import parse_trace_csv, write_trace_csv
from asym_pe.trajopt import HorizonProblem, Player, _BatchEval, best_response

MAX_WALL_SECONDS = 60.0

_CACHE: dict[str, tuple] = {}


def run_preset(name: str):
    if name not in _CACHE:
        cfg = preset(name)
        started = time.monotonic()
        trace = run(cfg)
        _CACHE[name] = (trace, time.monotonic() - started)
    return _CACHE[name]


def report(label: str, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line, flush=True)
    return line


# Expected qualitative endings, from the table `asym-pe verify` also
# reads. fig9's gate is the absence of a capture event: the
# low-uncertainty valley is expected to deny the pursuer, not necessarily
# by timeout.
HARD_OUTCOMES = {name: kinds for name, (kinds, _) in PRESET_EXPECTATIONS.items()}

# Mechanism notes for the presets this solver is known to end differently.
DIVERGENCE_NOTES = {
    "fig5_fast_obstacle": (
        "the along-track uncertainty field vanishes in the lateral direction "
        "beside the disk, so the short lookahead accepts a skim through the "
        "band between the nominal and true disk edges and the faster true "
        "obstacle clips it"),
    "fig6_heading": (
        "the heading-uncertainty field is zero along the obstacle's own "
        "flight line, so inside the surrounding ridge the risk gradient "
        "pulls the pursuer toward that line exactly where the true disk "
        "descends across it"),
    "fig8_desensitized_vs_deception": (
        "at risk weight 0.5 the ridge around the nominal disk is shallower "
        "than the deceptive lure's apparent capture gain, so the pursuer "
        "follows the lure into the true disk like the risk-neutral one"),
}

# Expected event times (the event is capture except where noted) with the
# +/-25% acceptance band, upper edge clipped at the simulation cutoff.
EVENT_TIMES = {name: (next(iter(kinds)), target)
               for name, (kinds, target) in PRESET_EXPECTATIONS.items()
               if target is not None}

BAND_NOTES = {
    "fig3_desensitized": (
        "against a line-of-sight flee the no-detour capture floor for this "
        "geometry is about 6.8; the expected 5.7 presumes an evader that "
        "concedes more ground while dodging"),
}


@pytest.mark.parametrize("name", sorted(HARD_OUTCOMES))
def test_outcome_reproduction(name):
    trace, wall = run_preset(name)
    outcome = trace.outcome
    expected = HARD_OUTCOMES[name]
    ok = outcome.kind in expected
    detail = (f"outcome={outcome.kind.value} t_end={outcome.t_end:g} "
              f"wall={wall:.1f}s")
    if name == "fig4_rho1" and ok:
        # Capture must happen without the evader ever touching the true
        # obstacle along the way.
        brushes = sum(
            constraint_g(s.x_e, s.x_w_true, trace.cfg.r_o) > COLLISION_TOL
            for s in trace.states)
        ok = brushes == 0
        detail += f" evader_contacts={brushes}"
    if name == "fig9_local_minimum" and ok:
        detail += " (no capture event)"
        if outcome.kind is not OutcomeKind.TIMEOUT:
            detail += ("; note: the pursuer follows the deceptive lure into "
                       "the true disk rather than stalling on the "
                       "low-uncertainty valley")
    if not ok and name in DIVERGENCE_NOTES:
        detail += f"; {DIVERGENCE_NOTES[name]}"
    line = report(f"outcome {name}", ok, detail)
    assert ok, line
    wall_line = report(f"wall-time {name}", wall <= MAX_WALL_SECONDS,
                       f"{wall:.1f}s <= {MAX_WALL_SECONDS:.0f}s")
    assert wall <= MAX_WALL_SECONDS, wall_line


@pytest.mark.parametrize("name", sorted(EVENT_TIMES))
def test_event_time_band(name):
    kind, target = EVENT_TIMES[name]
    trace, _ = run_preset(name)
    outcome = trace.outcome
    lo, hi = time_band(target, trace.cfg.t_max)
    if outcome.kind is not kind:
        detail = (f"no {kind.value} event to time: outcome="
                  f"{outcome.kind.value} at t={outcome.t_end:g}")
        if name in DIVERGENCE_NOTES:
            detail += f"; {DIVERGENCE_NOTES[name]}"
        line = report(f"event-time {name}", False, detail)
        pytest.fail(line)
    ok = lo <= outcome.t_end <= hi
    detail = f"{kind.value} at t={outcome.t_end:g}, band [{lo:g}, {hi:g}]"
    if not ok and name in BAND_NOTES:
        detail += f"; {BAND_NOTES[name]}"
    line = report(f"event-time {name}", ok, detail)
    assert ok, line


def test_zero_weight_risk_path_is_identical():
    # With zero risk weight the pursuer skips its risk term. That must drop
    # exact zeros: at every decision state of a whole run, a random batch
    # scores bit for bit as distance plus the summed weighted terms.
    trace, _ = run_preset("fig2_collision")
    cfg = trace.cfg
    assert cfg.q_is_zero
    rng = np.random.default_rng(31)
    rows = mismatches = 0
    for rec in trace.decision_records:
        v = rng.uniform(-3, 3, cfg.N)
        v_end = track(rec.state.x_e, v, cfg.v_c, cfg.dt)[-1]
        ev = _BatchEval(HorizonProblem(Player.PURSUER, rec.state, v_end, cfg))
        headings = rng.uniform(-7, 7, (16, cfg.N))
        pos = track(ev.my_start, headings, ev.speed, ev.dt)
        raw = np.linalg.norm(pos[:, -1] - v_end, axis=-1)
        g = constraint_g(pos, ev.w_nominal, cfg.r_o)
        risk_path = raw + np.sum(
            weighted_terms(pos - ev.w_nominal, g, ev.rel_ts, cfg), axis=-1)
        mismatches += int(np.sum(ev(headings)[0] != risk_path))
        rows += len(headings)
    ok = mismatches == 0
    line = report("zero-weight equivalence", ok,
                  f"{rows} batch rows at {len(trace.decision_records)} decision "
                  f"states compared bitwise, {mismatches} differ")
    assert ok, line


def test_information_hygiene():
    # Perturbing the true obstacle velocity must not change any pursuer
    # decision bit, on a plain run and on a risk-averse run.
    mismatches = 0
    total = 0
    for name in ("fig2_collision", "fig6_heading"):
        trace, _ = run_preset(name)
        states = [r.state for r in trace.decision_records]
        original = [r.u_head for r in trace.decision_records]
        perturbed_cfg = replace(trace.cfg, rho_true=(0.23, -0.11))
        replayed = replay_pursuer_decisions(perturbed_cfg, states)
        mismatches += sum(a != b for a, b in zip(original, replayed))
        total += len(original)
    ok = mismatches == 0
    line = report("information hygiene", ok,
                  f"{total} decisions, {mismatches} changed after perturbing "
                  f"the true velocity")
    assert ok, line


def test_best_response_vs_heading_grid():
    # 20 randomized obstacle-free subproblems: optimizer value within 1e-3
    # of an exhaustive 0.5-degree constant-heading search (for terminal
    # distance with no obstacle, a constant heading is globally optimal).
    rng = np.random.default_rng(2024)
    base = replace(preset("fig2_collision"), obstacle_start=(1e6, 1e6),
                   rho_nominal=(0.0, 0.0), rho_true=(0.0, 0.0), N=5, dt=0.2)
    thetas = np.deg2rad(np.arange(0.0, 360.0, 0.5))
    unit = np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
    worst = 0.0
    for trial in range(20):
        p = rng.uniform(-3, 3, 2)
        angle = rng.uniform(-math.pi, math.pi)
        sep = rng.uniform(1.0, 4.0)
        e = p + sep * np.array([math.cos(angle), math.sin(angle)])
        state = GameState(t=0.0, x_p=p, x_e=e,
                          x_w_true=np.array([1e6, 1e6]),
                          x_w_nominal=np.array([1e6, 1e6]))
        pursues = trial % 2 == 0
        opp_speed = base.v_c if pursues else base.u_c
        my_speed = base.u_c if pursues else base.v_c
        opp = ControlSequence(np.full(base.N, rng.uniform(-math.pi, math.pi)))
        my_start = p if pursues else e
        opp_start = e if pursues else p
        opp_term = track(opp_start, opp.headings, opp_speed, base.dt)[-1]
        player = Player.PURSUER if pursues else Player.EVADER_MODEL
        prob = HorizonProblem(player, state, opp_term, base)
        los = line_of_sight_heading(p, e)
        init = ControlSequence(headings=np.full(base.N, los))
        resp = best_response(prob, init)
        my_term = my_start + base.N * base.dt * my_speed * unit
        dist = np.linalg.norm(my_term - opp_term, axis=-1)
        grid_val = float(dist.min() if pursues else dist.max())
        worst = max(worst, abs(resp.objective_value - grid_val))
    ok = worst <= 1e-3
    line = report("best-response grid oracle", ok,
                  f"worst |optimizer - grid| = {worst:.2e} over 20 "
                  f"subproblems (<= 1e-3)")
    assert ok, line


def test_determinism():
    trace, _ = run_preset("fig2_collision")
    again = run(trace.cfg)
    ok = write_trace_csv(again) == write_trace_csv(trace)
    line = report("determinism", ok,
                  "two identical-seed runs serialize to identical traces")
    assert ok, line


def test_csv_replay_reconstructs_states():
    from asym_pe.game import step_state

    total = 0
    for name in ("fig2_collision", "fig3_desensitized"):
        trace, _ = run_preset(name)
        parsed = parse_trace_csv(write_trace_csv(trace))
        for row, nxt in zip(parsed.rows[:-1], parsed.rows[1:]):
            redone = step_state(row.state, row.u_head, row.v_head, trace.cfg)
            assert np.array_equal(redone.x_p, nxt.state.x_p)
            assert np.array_equal(redone.x_e, nxt.state.x_e)
            assert np.array_equal(redone.x_w_true, nxt.state.x_w_true)
            assert np.array_equal(redone.x_w_nominal, nxt.state.x_w_nominal)
            total += 1
    line = report("csv replay", True,
                  f"{total} transitions re-integrated exactly")
    assert total > 0, line
