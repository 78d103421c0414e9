"""Core types: config validation, dynamics stepping, termination rules."""

import math

import numpy as np
import pytest

from asym_pe.game import (
    COLLISION_TOL,
    ControlSequence,
    EvaderMode,
    GameState,
    OutcomeKind,
    ScenarioConfig,
    UncertaintySpec,
    ValidationError,
    check_termination,
    constraint_g,
    initial_state,
    line_of_sight_heading,
    step_state,
    track,
)


def make_cfg(**overrides) -> ScenarioConfig:
    base = dict(
        pursuer_start=(0.0, 0.0),
        evader_start=(3.0, 0.0),
        obstacle_start=(2.0, 1.15),
        u_c=1.0,
        v_c=0.6,
        epsilon=0.3,
        r_o=0.75,
        rho_nominal=(0.0, -0.25),
        rho_true=(0.0, -0.35),
        uncertainty_spec=UncertaintySpec.RHO2_ONLY,
        N=10,
        dt=0.1,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def state_at(t, x_p, x_e, x_w_true, x_w_nominal=None) -> GameState:
    if x_w_nominal is None:
        x_w_nominal = x_w_true
    return GameState(t=t, x_p=np.asarray(x_p, dtype=float),
                     x_e=np.asarray(x_e, dtype=float),
                     x_w_true=np.asarray(x_w_true, dtype=float),
                     x_w_nominal=np.asarray(x_w_nominal, dtype=float))


def test_config_coerces_pairs_and_numbers():
    cfg = make_cfg(pursuer_start=[0, 0], N=10.0, dt="0.1")
    assert cfg.pursuer_start == (0.0, 0.0)
    assert isinstance(cfg.N, int) and cfg.N == 10
    assert cfg.dt == 0.1


def test_config_rejects_bad_pair():
    with pytest.raises(ValidationError):
        make_cfg(obstacle_start=(1.0, 2.0, 3.0))
    with pytest.raises(ValidationError):
        make_cfg(rho_true="fast")


def test_config_enum_conversion():
    cfg = make_cfg(uncertainty_spec="rho1_only", evader_mode="deceptive")
    assert cfg.uncertainty_spec is UncertaintySpec.RHO1_ONLY
    assert cfg.evader_mode is EvaderMode.DECEPTIVE


def test_config_unknown_enum_string_is_validation_error():
    with pytest.raises(ValidationError):
        make_cfg(uncertainty_spec="sideways_only")
    with pytest.raises(ValidationError):
        make_cfg(evader_mode="sneaky")


def test_config_capturability():
    with pytest.raises(ValidationError):
        make_cfg(u_c=0.5, v_c=0.6)
    with pytest.raises(ValidationError):
        make_cfg(u_c=0.6, v_c=0.6)


@pytest.mark.parametrize("field,value", [
    ("epsilon", 0.0), ("r_o", -1.0), ("dt", 0.0), ("N", 0), ("t_max", 0.0),
    ("u_c", -1.0), ("seed", -1), ("relevance_scale", 0.0), ("relevance_scale", -1.0),
])
def test_config_positive_fields(field, value):
    with pytest.raises(ValidationError):
        make_cfg(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("N", "abc"), ("N", 2.5), ("N", math.inf), ("seed", 1.5), ("seed", "x"),
    ("seed", True), ("dt", "fast"), ("dt", math.nan), ("u_c", None), ("t_max", [1.0]),
    ("Q", "abc"), ("Q", math.nan), ("obstacle_start", (1.0, "y")),
])
def test_config_rejects_values_that_are_not_numbers(field, value):
    with pytest.raises(ValidationError, match=field):
        make_cfg(**{field: value})


def test_config_accepts_integral_floats_for_integer_fields():
    cfg = make_cfg(N=5.0, seed=7.0)
    assert (cfg.N, cfg.seed) == (5, 7)
    assert isinstance(cfg.N, int) and isinstance(cfg.seed, int)


def test_config_rejects_starts_inside_obstacle():
    with pytest.raises(ValidationError):
        make_cfg(pursuer_start=(2.0, 1.0))
    with pytest.raises(ValidationError):
        make_cfg(evader_start=(2.0, 1.5))
    with pytest.raises(ValidationError):
        make_cfg(evader_start=(0.1, 0.0))  # within capture radius already


def test_q_scalar_and_matrix():
    assert make_cfg(Q=0.0).q_is_zero
    assert not make_cfg(Q=1.5).q_is_zero
    np.testing.assert_array_equal(make_cfg(Q=2.0).q_matrix(), 2.0 * np.eye(1))
    cfg = make_cfg(uncertainty_spec=UncertaintySpec.BOTH_CARTESIAN,
                   Q=((1.0, 0.2), (0.2, 2.0)))
    np.testing.assert_array_equal(cfg.q_matrix(), [[1.0, 0.2], [0.2, 2.0]])
    with pytest.raises(ValidationError):
        make_cfg(Q=-0.5)
    with pytest.raises(ValidationError):
        make_cfg(Q=((1.0, 0.0), (0.0, 1.0)))  # 2x2 against a 1-param spec
    with pytest.raises(ValidationError):
        make_cfg(uncertainty_spec=UncertaintySpec.BOTH_CARTESIAN,
                 Q=((1.0, 0.5), (0.0, 1.0)))  # asymmetric
    with pytest.raises(ValidationError):
        make_cfg(uncertainty_spec=UncertaintySpec.BOTH_CARTESIAN,
                 Q=((1.0, 2.0), (2.0, 1.0)))  # indefinite


@pytest.mark.parametrize("q", [[[True]], ((np.True_,),), np.ones((1, 1), dtype=bool)],
                         ids=["list", "numpy_scalar", "bool_array"])
def test_q_matrix_refuses_booleans_like_the_scalar(q):
    # float() reads True as 1.0; a bool Q entry is refused as a bool Q is.
    with pytest.raises(ValidationError) as scalar:
        make_cfg(Q=True)
    with pytest.raises(ValidationError) as matrix:
        make_cfg(Q=q)
    assert str(matrix.value).startswith("Q must be a finite number, got ")
    assert str(scalar.value) == "Q must be a finite number, got True"


def test_uncertainty_param_counts():
    assert UncertaintySpec.BOTH_CARTESIAN.n_params == 2
    for spec in (UncertaintySpec.RHO1_ONLY, UncertaintySpec.RHO2_ONLY,
                 UncertaintySpec.SPEED_ONLY, UncertaintySpec.HEADING_ONLY):
        assert spec.n_params == 1


def test_nominal_polar_helpers():
    cfg = make_cfg(rho_nominal=(-0.3, 0.0))
    assert cfg.nominal_speed() == pytest.approx(0.3)
    assert cfg.nominal_heading() == pytest.approx(math.pi)


def test_initial_state_copies_obstacle():
    cfg = make_cfg()
    s = initial_state(cfg)
    assert s.t == 0.0
    np.testing.assert_array_equal(s.x_w_true, s.x_w_nominal)
    np.testing.assert_array_equal(s.x_w_true, [2.0, 1.15])


def test_game_state_shape_validation():
    with pytest.raises(ValidationError):
        GameState(t=0.0, x_p=np.zeros(3), x_e=np.zeros(2),
                  x_w_true=np.zeros(2), x_w_nominal=np.zeros(2))


def test_track_moves_at_speed():
    p = track(np.array([1.0, 2.0]), [math.pi / 2, 0.0], 1.0, 0.1)
    assert p.shape == (2, 2)
    np.testing.assert_allclose(p, [[1.0, 2.1], [1.1, 2.1]], atol=1e-15)
    # A (B, N) batch of heading rows gives (B, N, 2) positions.
    assert track(np.zeros(2), np.zeros((3, 4)), 0.6, 0.1).shape == (3, 4, 2)


def test_step_state_obstacles_stay_exactly_linear():
    # Both obstacle copies are recomputed from the start, so after many
    # steps they equal start + rho * t bit for bit.
    cfg = make_cfg()
    s = initial_state(cfg)
    for _ in range(137):
        s = step_state(s, 0.3, -0.2, cfg)
    w0 = np.asarray(cfg.obstacle_start)
    np.testing.assert_array_equal(
        s.x_w_true, w0 + np.asarray(cfg.rho_true) * s.t)
    np.testing.assert_array_equal(
        s.x_w_nominal, w0 + np.asarray(cfg.rho_nominal) * s.t)
    assert s.t == pytest.approx(13.7, abs=1e-12)


def test_step_state_player_speeds():
    cfg = make_cfg()
    s0 = initial_state(cfg)
    s1 = step_state(s0, 0.7, -1.1, cfg)
    assert np.linalg.norm(s1.x_p - s0.x_p) == pytest.approx(cfg.u_c * cfg.dt)
    assert np.linalg.norm(s1.x_e - s0.x_e) == pytest.approx(cfg.v_c * cfg.dt)


def test_constraint_g_sign_convention():
    w = np.array([0.0, 0.0])
    assert constraint_g(np.array([2.0, 0.0]), w, 1.0) < 0.0  # outside: safe
    assert constraint_g(np.array([0.5, 0.0]), w, 1.0) > 0.0  # inside: violated
    assert constraint_g(np.array([1.0, 0.0]), w, 1.0) == pytest.approx(0.0)
    # (..., 2) positions against a per-sample obstacle track, broadcast.
    rng = np.random.default_rng(8)
    x = rng.uniform(-2.0, 2.0, (4, 3, 2))
    track = rng.uniform(-1.0, 1.0, (3, 2))
    batch = constraint_g(x, track, 0.9)
    assert batch.shape == (4, 3)
    singles = [[constraint_g(x[i, j], track[j], 0.9) for j in range(3)] for i in range(4)]
    np.testing.assert_array_equal(batch, singles)


def test_termination_none_while_play_continues():
    cfg = make_cfg()
    assert check_termination(initial_state(cfg), cfg) is None


def test_termination_pursuer_collision():
    cfg = make_cfg()
    s = state_at(1.0, x_p=[2.0, 1.0], x_e=[5.0, 0.0], x_w_true=[2.0, 1.15])
    out = check_termination(s, cfg)
    assert out is not None and out.kind is OutcomeKind.PURSUER_COLLISION
    assert out.t_end == 1.0


def test_termination_evader_collision():
    cfg = make_cfg()
    s = state_at(1.0, x_p=[-3.0, 0.0], x_e=[2.0, 1.0], x_w_true=[2.0, 1.15])
    out = check_termination(s, cfg)
    assert out is not None and out.kind is OutcomeKind.EVADER_COLLISION


def test_termination_capture():
    cfg = make_cfg()
    s = state_at(2.0, x_p=[5.0, 0.0], x_e=[5.2, 0.0], x_w_true=[0.0, 5.0])
    out = check_termination(s, cfg)
    assert out is not None and out.kind is OutcomeKind.CAPTURE
    # Boundary counts: separation exactly epsilon.
    s2 = state_at(2.0, x_p=[5.0, 0.0], x_e=[5.3, 0.0], x_w_true=[0.0, 5.0])
    out2 = check_termination(s2, cfg)
    assert out2 is not None and out2.kind is OutcomeKind.CAPTURE


def test_termination_timeout_with_slack():
    cfg = make_cfg(t_max=1.0)
    far = dict(x_p=[5.0, 0.0], x_e=[8.0, 0.0], x_w_true=[0.0, 5.0])
    # Accumulated time a few ulps under t_max still times out.
    out = check_termination(state_at(1.0 - 1e-12, **far), cfg)
    assert out is not None and out.kind is OutcomeKind.TIMEOUT
    assert check_termination(state_at(0.9, **far), cfg) is None


def test_termination_precedence():
    cfg = make_cfg()
    # Both players inside the true obstacle: pursuer collision wins.
    s = state_at(1.0, x_p=[2.0, 1.2], x_e=[2.0, 1.1], x_w_true=[2.0, 1.15])
    assert check_termination(s, cfg).kind is OutcomeKind.PURSUER_COLLISION
    # Evader inside while also captured: evader collision wins over capture.
    s = state_at(1.0, x_p=[2.0, 0.3], x_e=[2.0, 0.55], x_w_true=[2.0, 1.15])
    assert constraint_g(s.x_e, s.x_w_true, cfg.r_o) > COLLISION_TOL
    assert float(np.linalg.norm(s.x_p - s.x_e)) <= cfg.epsilon
    assert check_termination(s, cfg).kind is OutcomeKind.EVADER_COLLISION
    # Capture at the cutoff instant wins over timeout.
    cfg2 = make_cfg(t_max=1.0)
    s = state_at(1.0, x_p=[5.0, 0.0], x_e=[5.2, 0.0], x_w_true=[0.0, 5.0])
    assert check_termination(s, cfg2).kind is OutcomeKind.CAPTURE


def test_collision_tolerance_band():
    # Touching the boundary or penetrating less than the planners'
    # feasibility tolerance is not a collision; deeper penetration is.
    cfg = make_cfg()
    w = [2.0, 1.15]

    def state_with_depth(g_target):
        d = math.sqrt(cfg.r_o ** 2 - g_target)
        return state_at(1.0, x_p=[2.0 + d, 1.15], x_e=[8.0, 0.0], x_w_true=w)

    assert check_termination(state_with_depth(0.0), cfg) is None
    assert check_termination(state_with_depth(0.5 * COLLISION_TOL), cfg) is None
    out = check_termination(state_with_depth(2.0 * COLLISION_TOL), cfg)
    assert out is not None and out.kind is OutcomeKind.PURSUER_COLLISION


def test_control_sequence_velocities():
    seq = ControlSequence(headings=np.array([0.0, math.pi / 2]))
    assert len(seq) == 2
    with pytest.raises(ValidationError):
        ControlSequence(headings=np.zeros((2, 2)))


def test_line_of_sight_heading():
    h = line_of_sight_heading(np.array([0.0, 0.0]), np.array([0.0, 2.0]))
    assert h == pytest.approx(math.pi / 2)
