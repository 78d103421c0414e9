"""Sensitivity machinery against independent oracles.

The sensitivity rows every risk path uses (_s_g_rows) are checked against
central finite differences (exact for a quadratic up to rounding), the
generic ODE path in tests/oracles.py, and chain-rule recombinations of the
polar forms; the relevance weighting, batched samples and field grids are
checked against their declared shape properties. Each check runs over two
sets of draws or configs.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from asym_pe.game import ControlSequence, UncertaintySpec, ValidationError, constraint_g
from asym_pe.scenarios import preset
from asym_pe.sensitivity import (
    GridSpec,
    _s_g_rows,
    rcs_field_grid,
    rcs_sample,
    relevance,
    weighted_terms,
)
from oracles import chain_constraint_row, integrate_sensitivity, propagate_sensitivity_ode


def make_cfg(**overrides):
    return replace(preset("fig2_collision"), **overrides)


CARTESIAN = make_cfg(uncertainty_spec=UncertaintySpec.BOTH_CARTESIAN)


def risk_terms(x_p, x_w, t, cfg):
    """weighted_terms at positions x_p against obstacle positions x_w."""
    return weighted_terms(x_p - x_w, constraint_g(x_p, x_w, cfg.r_o), t, cfg)


def nominal_obstacle(w0, rho, t):
    return np.asarray(w0, dtype=float) + np.asarray(rho, dtype=float) * t


def g_of_rho(x_p, w0, rho, t, r_o=0.75):
    d = np.asarray(x_p) - nominal_obstacle(w0, rho, t)
    return r_o * r_o - float(d @ d)


def test_relevance_shape():
    # Logistic derivative: 0.25 at the boundary, clamped flat above it,
    # monotone increasing up to it, vanishing far inside the safe region.
    assert relevance(0.0) == pytest.approx(0.25)
    assert relevance(5.0) == 0.25
    assert relevance(1e9) == 0.25
    zs = np.linspace(-30.0, 0.0, 500)
    vals = relevance(zs)
    assert np.all(np.diff(vals) >= 0.0)
    assert relevance(-30.0) < 1e-12
    assert relevance(-1.0) == pytest.approx(math.exp(-1) / (1 + math.exp(-1)) ** 2)
    # Array in, array out.
    assert isinstance(relevance(np.array([0.0, -1.0])), np.ndarray)


@pytest.mark.parametrize("seed", [7, 42], ids=["seed7", "seed42"])
def test_cartesian_sensitivity_vs_central_differences(seed):
    # g is quadratic in rho, so central differences are exact to rounding.
    rng = np.random.default_rng(seed)
    delta = 1e-5
    for _ in range(100):
        x_p = rng.uniform(-5, 5, 2)
        w0 = rng.uniform(-5, 5, 2)
        rho = rng.uniform(-1, 1, 2)
        t = rng.uniform(0.05, 10.0)
        x_w = nominal_obstacle(w0, rho, t)
        row = _s_g_rows(x_p - x_w, t, CARTESIAN)
        fd = np.array([
            (g_of_rho(x_p, w0, rho + delta * e, t)
             - g_of_rho(x_p, w0, rho - delta * e, t)) / (2 * delta)
            for e in np.eye(2)
        ])
        scale = max(1.0, float(np.linalg.norm(fd)))
        assert np.linalg.norm(row - fd) / scale < 1e-6


@pytest.mark.parametrize("name,n,first,last", [
    ("fig2_collision", 12, 0.0, 1.0),
    ("fig3_desensitized", 10, -0.4, 0.8),
], ids=["fig2_collision", "fig3_desensitized"])
def test_ode_path_matches_closed_form(name, n, first, last):
    cfg = replace(preset(name), uncertainty_spec=UncertaintySpec.BOTH_CARTESIAN)
    u = ControlSequence(headings=np.linspace(first, last, n))
    v = ControlSequence(headings=np.zeros(n))
    mats = propagate_sensitivity_ode(cfg, u, v)
    assert len(mats) == n + 1
    rng = np.random.default_rng(3)
    for sm in mats:
        x_p = rng.uniform(-4, 4, 2)
        x_w = cfg.nominal_obstacle(sm.t)
        chained = chain_constraint_row(x_p, x_w, sm)
        closed = _s_g_rows(x_p - x_w, sm.t, cfg)
        assert np.linalg.norm(chained - closed) <= 1e-9


def test_generic_rk4_reproduces_linear_case():
    # A == 0, constant B: the integral is exact and RK4 must land on it.
    b = np.vstack([np.zeros((4, 2)), np.eye(2)])
    mats = integrate_sensitivity(
        lambda t: np.zeros((6, 6)), lambda t: b, n_steps=10, dt=0.1,
        n_state=6, n_param=2)
    for k, sm in enumerate(mats):
        np.testing.assert_allclose(sm.entries, (k * 0.1) * b, atol=1e-12)
        assert sm.t == pytest.approx(k * 0.1)


def test_generic_rk4_nontrivial_system():
    # dS/dt = A S + B with A = [[0, 1], [0, 0]] and B = e2 has solution
    # S(t) = (t^2/2, t) for a single parameter; fourth-order accuracy
    # leaves this polynomial case exact to rounding.
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0], [1.0]])
    mats = integrate_sensitivity(
        lambda t: a, lambda t: b, n_steps=8, dt=0.25, n_state=2, n_param=1)
    for sm in mats:
        expect = np.array([[sm.t ** 2 / 2.0], [sm.t]])
        np.testing.assert_allclose(sm.entries, expect, atol=1e-12)


def test_ode_rejects_mismatched_sequences():
    cfg = make_cfg()
    u = ControlSequence(headings=np.zeros(3))
    v = ControlSequence(headings=np.zeros(4))
    with pytest.raises(ValidationError):
        propagate_sensitivity_ode(cfg, u, v)


@pytest.mark.parametrize("seed,draws", [(11, 50), (17, 100)], ids=["seed11", "seed17"])
def test_polar_sensitivities_vs_chain_rule(seed, draws):
    # d rho / d speed = (cos psi, sin psi); d rho / d heading =
    # (-speed sin psi, speed cos psi). Chaining either column through the
    # Cartesian row must reproduce the direct polar forms.
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        x_p = rng.uniform(-5, 5, 2)
        x_w = rng.uniform(-5, 5, 2)
        speed = rng.uniform(0.1, 2.0)
        psi = rng.uniform(-math.pi, math.pi)
        t = rng.uniform(0.0, 8.0)
        rho = (speed * math.cos(psi), speed * math.sin(psi))
        polar = {which: make_cfg(uncertainty_spec=which, rho_nominal=rho)
                 for which in (UncertaintySpec.SPEED_ONLY,
                               UncertaintySpec.HEADING_ONLY)}
        # The polar rows read speed and heading back from rho_nominal.
        speed = polar[UncertaintySpec.SPEED_ONLY].nominal_speed()
        psi = polar[UncertaintySpec.SPEED_ONLY].nominal_heading()
        cart = _s_g_rows(x_p - x_w, t, CARTESIAN)
        d_speed = np.array([math.cos(psi), math.sin(psi)])
        d_head = speed * np.array([-math.sin(psi), math.cos(psi)])
        s_speed = _s_g_rows(x_p - x_w, t, polar[UncertaintySpec.SPEED_ONLY])
        s_head = _s_g_rows(x_p - x_w, t, polar[UncertaintySpec.HEADING_ONLY])
        assert abs(s_speed[0] - cart @ d_speed) <= 1e-12 * max(1.0, abs(s_speed[0]))
        assert abs(s_head[0] - cart @ d_head) <= 1e-12 * max(1.0, abs(s_head[0]))


@pytest.mark.parametrize("draws,exact_t", [(20, True), (50, False)],
                         ids=["representable_t", "uniform_t"])
def test_first_order_prediction_exact(draws, exact_t):
    # Linear obstacle motion: perturbing rho shifts the position by exactly
    # t * delta, to machine precision, whether or not t is a binary fraction.
    rng = np.random.default_rng(5)
    for _ in range(draws):
        w0 = rng.uniform(-3, 3, 2)
        rho = rng.uniform(-1, 1, 2)
        delta = rng.uniform(-0.5, 0.5, 2)
        t = float(rng.integers(1, 50)) * 0.125 if exact_t else rng.uniform(0.1, 10.0)
        base = nominal_obstacle(w0, rho, t)
        shifted = nominal_obstacle(w0, rho + delta, t)
        np.testing.assert_allclose(shifted - base, t * delta,
                                   rtol=1e-14, atol=1e-14)


def test_rcs_sample_consistency():
    cfg = make_cfg(Q=1.5)
    x_p = np.array([1.7, 0.9])
    x_w = np.array([2.0, 1.15])
    t = 0.8
    samp = rcs_sample(x_p, x_w, t, cfg)
    g = cfg.r_o ** 2 - float((x_p - x_w) @ (x_p - x_w))
    assert samp.relevance == pytest.approx(relevance(g))
    np.testing.assert_allclose(samp.s_gamma, samp.relevance * samp.s_g)
    assert samp.weighted_norm_sq == pytest.approx(
        1.5 * float(samp.s_gamma @ samp.s_gamma))
    # The optimizer's batch term is the sample's weighted norm.
    batched = risk_terms(x_p, x_w, t, cfg)
    assert float(batched) == pytest.approx(samp.weighted_norm_sq, rel=1e-12)


def test_weighted_terms_broadcast_matches_loop():
    cfg = make_cfg(uncertainty_spec=UncertaintySpec.BOTH_CARTESIAN, Q=0.7)
    rng = np.random.default_rng(2)
    x_p = rng.uniform(-2, 2, (6, 2))
    ts = rng.uniform(0.1, 3.0, 6)
    batch = risk_terms(x_p, np.zeros(2), ts, cfg)
    for i in range(6):
        samp = rcs_sample(x_p[i], np.zeros(2), ts[i], cfg)
        assert batch[i] == pytest.approx(samp.weighted_norm_sq, rel=1e-12)


@pytest.mark.parametrize("spec", list(UncertaintySpec))
def test_rcs_sample_batch_matches_single_samples(spec):
    q = ((1.0, 0.4), (0.4, 0.5)) if spec.n_params == 2 else 1.3
    cfg = make_cfg(uncertainty_spec=spec, rho_nominal=(0.2, -0.25), Q=q)
    rng = np.random.default_rng(13)
    x_p = rng.uniform(0.0, 4.0, (9, 2))
    x_w = cfg.nominal_obstacle(rng.uniform(0.0, 3.0, 9))
    ts = rng.uniform(0.1, 2.0, 9)
    batch = rcs_sample(x_p, x_w, ts, cfg)
    assert batch.s_g.shape == batch.s_gamma.shape == (9, spec.n_params)
    assert batch.relevance.shape == batch.weighted_norm_sq.shape == (9,)
    for i in range(9):
        one = rcs_sample(x_p[i], x_w[i], ts[i], cfg)
        for field in ("s_g", "relevance", "s_gamma", "weighted_norm_sq"):
            np.testing.assert_allclose(getattr(batch, field)[i], getattr(one, field),
                                       rtol=1e-12, atol=0.0)


def test_rho2_field_is_rotated_rho1_field():
    # Swapping the uncertain axis is a 90-degree rotation of the geometry.
    cfg1 = make_cfg(uncertainty_spec=UncertaintySpec.RHO1_ONLY, Q=1.0)
    cfg2 = make_cfg(uncertainty_spec=UncertaintySpec.RHO2_ONLY, Q=1.0)
    rng = np.random.default_rng(9)
    for _ in range(20):
        d = rng.uniform(-2, 2, 2)
        t = rng.uniform(0.1, 4.0)
        rot = np.array([-d[1], d[0]])  # maps the x1 offset onto x2
        v1 = float(risk_terms(d, np.zeros(2), t, cfg1))
        v2 = float(risk_terms(rot, np.zeros(2), t, cfg2))
        assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-15)


def test_grid_spec_validation():
    with pytest.raises(ValidationError):
        GridSpec(0.0, 1.0, 0.0, 1.0, 1)
    with pytest.raises(ValidationError):
        GridSpec(1.0, 0.0, 0.0, 1.0, 5)
    for bad in (math.nan, math.inf, -math.inf):
        for i in range(4):
            extents = [0.0, 1.0, 0.0, 1.0]
            extents[i] = bad
            with pytest.raises(ValidationError, match="must be a finite number"):
                GridSpec(*extents, 5)
        with pytest.raises(ValidationError):
            GridSpec(0.0, 1.0, 0.0, 1.0, bad)
    with pytest.raises(ValidationError, match="must be an integer"):
        GridSpec(0.0, 1.0, 0.0, 1.0, 5.9)
    assert GridSpec(0.0, 1.0, 0.0, 1.0, 5.0).resolution == 5
    axes = GridSpec(0.0, 1.0, -1.0, 1.0, 3).axes()
    np.testing.assert_allclose(axes[0], [0.0, 0.5, 1.0])
    np.testing.assert_allclose(axes[1], [-1.0, 0.0, 1.0])


def test_field_grid_indexing():
    # Entry [i, j] is the field at (a1[i], a2[j]).
    cfg = make_cfg(uncertainty_spec=UncertaintySpec.BOTH_CARTESIAN, Q=1.0)
    grid = GridSpec(0.0, 4.0, -1.0, 3.0, 9)
    t = 1.3
    vals = rcs_field_grid(cfg, t, grid)
    assert vals.shape == (9, 9)
    a1, a2 = grid.axes()
    x_w = nominal_obstacle(cfg.obstacle_start, cfg.rho_nominal, t)
    i, j = 2, 7
    samp = rcs_sample(np.array([a1[i], a2[j]]), x_w, t, cfg)
    assert vals[i, j] == pytest.approx(
        float(np.linalg.norm(samp.s_gamma)), rel=1e-12)


def field_norms(cfg, p, x_w, t):
    """||s_gamma|| at each of the (n, 2) positions p."""
    return np.linalg.norm(rcs_sample(p, x_w, t, cfg).s_gamma, axis=-1)


@pytest.mark.parametrize("radius", [1.1, 1.2])
def test_field_circular_symmetry_both_cartesian(radius):
    cfg = make_cfg(uncertainty_spec=UncertaintySpec.BOTH_CARTESIAN, Q=1.0)
    t = 2.0
    x_w = cfg.nominal_obstacle(t)
    angles = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    ring = x_w + radius * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    vals = field_norms(cfg, ring, x_w, t)
    assert vals.max() - vals.min() < 1e-12


@pytest.mark.parametrize("n_axis,offsets", [
    (17, [(0.7, 0.3), (1.4, -1.0), (0.2, 2.0)]),
    (21, [(0.5, 0.2), (1.0, -0.8), (1.6, 1.1)]),
], ids=["axis17", "axis21"])
def test_field_axis_zero_and_mirror_rho1(n_axis, offsets):
    cfg = make_cfg(uncertainty_spec=UncertaintySpec.RHO1_ONLY, Q=1.0)
    t = 1.5
    x_w = cfg.nominal_obstacle(t)
    # The vertical axis through the obstacle carries no field.
    axis = x_w + np.stack([np.zeros(n_axis), np.linspace(-2.0, 2.0, n_axis)], axis=-1)
    assert field_norms(cfg, axis, x_w, t).max() < 1e-12
    right = field_norms(cfg, x_w + np.array(offsets), x_w, t)
    left = field_norms(cfg, x_w + np.array(offsets) * [-1.0, 1.0], x_w, t)
    assert np.abs(left - right).max() < 1e-12


@pytest.mark.parametrize("cfg,n", [
    (make_cfg(uncertainty_spec=UncertaintySpec.HEADING_ONLY,
              rho_nominal=(-0.3, 0.0), rho_true=(-0.3, 0.0), Q=1.0), 15),
    (preset("fig6_heading"), 21),
], ids=["custom", "fig6_heading"])
def test_field_zero_along_nominal_direction_heading_only(cfg, n):
    # Heading uncertainty rotates the velocity, so offsets parallel to the
    # nominal velocity direction produce no first-order clearance change.
    t = 2.5
    x_w = cfg.nominal_obstacle(t)
    direction = np.asarray(cfg.rho_nominal) / cfg.nominal_speed()
    line = x_w + np.linspace(-2.0, 2.0, n)[:, None] * direction
    assert field_norms(cfg, line, x_w, t).max() < 1e-12
