"""Built-in scenario presets and scenario-file parsing.

Scenario files are YAML mappings whose keys mirror ScenarioConfig field
names, plus an optional `preset` key that supplies defaults which explicit
keys then override. Obstacle velocities may be given in polar form with
explicit degree-suffixed heading keys.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, fields, replace
from pathlib import Path

import yaml

from .game import EvaderMode, OutcomeKind, ScenarioConfig, UncertaintySpec, _as_number


class ParseError(ValueError):
    """A scenario document is malformed: not UTF-8, or bad keys or values."""


def polar_velocity(speed: float, heading_deg: float) -> tuple[float, float]:
    """Velocity vector from speed and heading in degrees."""
    h = math.radians(float(heading_deg))
    return (float(speed) * math.cos(h), float(speed) * math.sin(h))


def _build_presets() -> dict[str, ScenarioConfig]:
    base = ScenarioConfig(
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
        Q=0.0,
        evader_mode=EvaderMode.ORIGINAL,
        t_max=10.0,
        seed=0,
    )
    fig4 = replace(
        base, N=5, dt=0.2, obstacle_start=(4.0, 0.1),
        rho_nominal=(-0.25, 0.0), rho_true=(-0.35, 0.0),
        uncertainty_spec=UncertaintySpec.RHO1_ONLY, Q=1.0)
    fig7 = replace(
        base, evader_start=(4.0, 0.0), obstacle_start=(3.0, 1.65),
        evader_mode=EvaderMode.DECEPTIVE, alpha_o=0.0, alpha_d=1.0, Q=0.0)
    return {
        "fig2_collision": base,
        "fig3_desensitized": replace(base, Q=1.0),
        "fig4_rho1": fig4,
        "fig5_fast_obstacle": replace(
            fig4, obstacle_start=(-1.0, 0.1),
            rho_nominal=(1.3, 0.0), rho_true=(1.4, 0.0)),
        "fig6_heading": replace(
            base, obstacle_start=(4.5, 1.0),
            rho_nominal=polar_velocity(0.3, 180.0),
            rho_true=polar_velocity(0.3, -150.0),
            uncertainty_spec=UncertaintySpec.HEADING_ONLY, Q=2.5),
        "fig7_deception_collision": fig7,
        "fig8_desensitized_vs_deception": replace(
            fig7, Q=0.5, uncertainty_spec=UncertaintySpec.BOTH_CARTESIAN),
        "fig9_local_minimum": replace(fig7, Q=0.5),
    }


PRESETS: dict[str, ScenarioConfig] = _build_presets()

# Expected preset behavior, read by `asym-pe verify` and the acceptance
# suite: outcome kind(s) and, where known, the time of the event (then the
# set holds the one kind being timed), accepted within time_band.
PRESET_EXPECTATIONS: dict[str, tuple[set[OutcomeKind], float | None]] = {
    "fig2_collision": ({OutcomeKind.PURSUER_COLLISION}, None),
    "fig3_desensitized": ({OutcomeKind.CAPTURE}, 5.7),
    "fig4_rho1": ({OutcomeKind.CAPTURE}, 5.6),
    "fig5_fast_obstacle": ({OutcomeKind.CAPTURE}, 6.4),
    "fig6_heading": ({OutcomeKind.CAPTURE}, 10.0),
    "fig7_deception_collision": ({OutcomeKind.PURSUER_COLLISION}, 2.6),
    "fig8_desensitized_vs_deception": ({OutcomeKind.CAPTURE}, 8.4),
    "fig9_local_minimum": (
        {OutcomeKind.TIMEOUT, OutcomeKind.PURSUER_COLLISION,
         OutcomeKind.EVADER_COLLISION}, None),
}


def time_band(target: float, t_max: float) -> tuple[float, float]:
    return 0.75 * target, min(1.25 * target, t_max)


_FIELD_NAMES = tuple(f.name for f in fields(ScenarioConfig))
_POLAR_PREFIXES = ("rho_nominal", "rho_true")
_ALLOWED_KEYS = (set(_FIELD_NAMES) | {"preset"}
                 | {f"{p}_speed" for p in _POLAR_PREFIXES}
                 | {f"{p}_heading_deg" for p in _POLAR_PREFIXES})


def preset(name: str) -> ScenarioConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ParseError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None


def scenario_from_mapping(mapping: dict) -> ScenarioConfig:
    """Build a config from a key/value mapping with preset defaults."""
    if not isinstance(mapping, dict):
        raise ParseError(f"scenario document must be a mapping, got {type(mapping).__name__}")
    # YAML keys need not be strings; str() lets mixed key types sort.
    unknown = sorted(map(str, set(mapping) - _ALLOWED_KEYS))
    if unknown:
        raise ParseError(f"unknown scenario keys: {', '.join(unknown)}")
    merged: dict = {}
    if "preset" in mapping:
        p = preset(str(mapping["preset"]))
        merged.update({name: getattr(p, name) for name in _FIELD_NAMES})
    overrides = {k: v for k, v in mapping.items() if k != "preset"}
    for prefix in _POLAR_PREFIXES:
        speed_key, head_key = f"{prefix}_speed", f"{prefix}_heading_deg"
        if speed_key in overrides or head_key in overrides:
            if not (speed_key in overrides and head_key in overrides):
                raise ParseError(
                    f"{speed_key} and {head_key} must be given together")
            if prefix in overrides:
                raise ParseError(
                    f"{prefix} conflicts with its polar form {speed_key}/{head_key}")
            speed, heading = overrides.pop(speed_key), overrides.pop(head_key)
            try:
                overrides[prefix] = polar_velocity(
                    _as_number(speed, speed_key), _as_number(heading, head_key))
            except ValueError:
                raise ParseError(f"{speed_key} and {head_key} must be finite numbers, "
                                 f"got {speed!r} and {heading!r}") from None
    merged.update(overrides)
    missing = [n for n in _FIELD_NAMES
               if n not in merged and _is_required(n)]
    if missing:
        raise ParseError(f"missing scenario keys: {', '.join(missing)}")
    return ScenarioConfig(**merged)


def _is_required(name: str) -> bool:
    f = next(f for f in fields(ScenarioConfig) if f.name == name)
    return f.default is MISSING and f.default_factory is MISSING


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse a YAML scenario document."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ParseError(f"invalid scenario document: {exc}") from exc
    if doc is None:
        raise ParseError("empty scenario document")
    return scenario_from_mapping(doc)


def load_scenario(source: str | Path) -> ScenarioConfig:
    """Resolve a preset name or scenario file path to a config."""
    name = str(source)
    if name in PRESETS:
        return PRESETS[name]
    path = Path(source)
    if not path.is_file():
        raise ParseError(
            f"{name!r} is neither a preset nor a scenario file; "
            f"presets: {', '.join(sorted(PRESETS))}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"scenario file {name!r} is not UTF-8 text: {exc}") from None
    return parse_scenario(text)


def serialize_scenario(cfg: ScenarioConfig) -> str:
    """Canonical YAML form; parse_scenario inverts it exactly."""
    data: dict = {}
    for name in _FIELD_NAMES:
        value = getattr(cfg, name)
        if isinstance(value, (UncertaintySpec, EvaderMode)):
            value = value.value
        elif isinstance(value, tuple):
            value = [list(row) if isinstance(row, tuple) else row
                     for row in value]
        data[name] = value
    return yaml.safe_dump(data, sort_keys=False)
