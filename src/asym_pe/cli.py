"""Command-line surface: run scenarios, emit field grids, sweep parameters.

Commands print machine-greppable summary lines and write CSV artifacts;
all errors exit nonzero with a message on stderr. The ASYM_PE_SEED
environment variable overrides the scenario seed everywhere.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import yaml

from .game import ScenarioConfig, ValidationError, _as_number
from .scenarios import PRESET_EXPECTATIONS, PRESETS, ParseError, load_scenario, time_band
from .sensitivity import GridSpec
from .sim import run, run_batch
from .trace_io import write_field_csv, write_trace_csv

ENV_SEED = "ASYM_PE_SEED"


def _apply_env_seed(cfg: ScenarioConfig) -> ScenarioConfig:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return cfg
    try:
        seed = int(raw)
    except ValueError:
        raise ParseError(f"{ENV_SEED} must be an integer, got {raw!r}") from None
    return replace(cfg, seed=seed)


def _load(source: str) -> tuple[str, ScenarioConfig]:
    name = source if source in PRESETS else Path(source).stem
    return name, _apply_env_seed(load_scenario(source))


def _out_path(out_dir: str | None, filename: str) -> Path:
    d = Path(out_dir) if out_dir else Path.cwd()
    d.mkdir(parents=True, exist_ok=True)
    return d / filename


def _cmd_run(args) -> int:
    name, cfg = _load(args.scenario)
    trace = run(cfg)
    path = _out_path(args.out, f"{name}_trace.csv")
    path.write_text(write_trace_csv(trace))
    print(f"outcome={trace.outcome.kind.value} "
          f"t_end={trace.outcome.t_end:g} "
          f"steps={len(trace.decision_records)} trace={path}")
    return 0


def _cmd_field(args) -> int:
    name, cfg = _load(args.scenario)
    t = _as_number(args.t, "--t")
    try:
        parts = [float(x) for x in args.grid.split(",")]
    except ValueError:
        raise ParseError(f"bad --grid value {args.grid!r}") from None
    if len(parts) != 5:
        raise ParseError("--grid expects x1min,x1max,x2min,x2max,res")
    grid = GridSpec(*parts)
    path = _out_path(args.out, f"{name}_field.csv")
    path.write_text(write_field_csv(cfg, t, grid))
    print(f"field={path} t={t:g} points={grid.resolution ** 2}")
    return 0


def _cmd_sweep(args) -> int:
    name, cfg = _load(args.scenario)
    key, _, raw_values = args.vary.partition("=")
    if not raw_values:
        raise ParseError("--vary expects KEY=v1,v2,...")
    try:
        values = [yaml.safe_load(v) for v in raw_values.split(",")]
    except yaml.YAMLError:
        raise ParseError(f"bad --vary values {raw_values!r}") from None
    try:
        cfgs = [replace(cfg, **{key: v}) for v in values]
    except TypeError:
        raise ParseError(f"unknown scenario field {key!r}") from None
    for value, trace in zip(values, run_batch(cfgs)):
        print(f"{name} {key}={value} outcome={trace.outcome.kind.value} "
              f"t_end={trace.outcome.t_end:g}")
    return 0


def _cmd_presets(_args) -> int:
    for preset_name in PRESETS:
        print(preset_name)
    return 0


def _decision_summary(trace) -> str:
    """Held headings, and the Gauss-Seidel solves' iterations and non-convergence.

    The deceptive evader's solve is no Gauss-Seidel game: it has no
    pursuer sequence and is left out of gs_iters and unconverged.
    """
    holds = gs_iters = unconverged = 0
    for rec in trace.decision_records:
        holds += rec.pursuer_infeasible + rec.evader_infeasible
        for dec in (rec.pursuer, rec.evader):
            if dec is not None and dec.u_seq is not None:
                gs_iters += dec.iters
                unconverged += not dec.converged
    return f"holds={holds} gs_iters={gs_iters} unconverged={unconverged}"


def _cmd_verify(_args) -> int:
    failures = 0
    for preset_name, (kinds, target) in PRESET_EXPECTATIONS.items():
        cfg = _apply_env_seed(PRESETS[preset_name])
        started = time.monotonic()
        trace = run(cfg)
        elapsed = time.monotonic() - started
        outcome = trace.outcome
        ok = outcome.kind in kinds
        detail = f"outcome={outcome.kind.value} t_end={outcome.t_end:g}"
        if ok and target is not None:
            lo, hi = time_band(target, cfg.t_max)
            ok = lo <= outcome.t_end <= hi
            detail += f" band=[{lo:g},{hi:g}]"
        status = "PASS" if ok else "FAIL"
        failures += 0 if ok else 1
        print(f"{status} {preset_name}: {detail} {_decision_summary(trace)} "
              f"({elapsed:.1f}s)")
    if failures:
        print(f"{failures} preset check(s) failed", file=sys.stderr)
        return 1
    print("all preset checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asym-pe",
        description="Pursuit-evasion with an uncertain dynamic obstacle")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write its trace CSV")
    p_run.add_argument("scenario", help="preset name or scenario file path")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_field = sub.add_parser("field", help="write an RCS field grid CSV")
    p_field.add_argument("scenario", help="preset name or scenario file path")
    p_field.add_argument("--t", type=float, required=True, help="evaluation time")
    p_field.add_argument("--grid", required=True,
                         help="x1min,x1max,x2min,x2max,res")
    p_field.add_argument("--out", default=None, help="output directory")
    p_field.set_defaults(func=_cmd_field)

    p_sweep = sub.add_parser("sweep", help="run a scenario over several field values")
    p_sweep.add_argument("scenario", help="preset name or scenario file path")
    p_sweep.add_argument("--vary", required=True, help="KEY=v1,v2,...")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_presets = sub.add_parser("presets", help="list built-in presets")
    p_presets.set_defaults(func=_cmd_presets)

    p_verify = sub.add_parser("verify",
                              help="run all presets and check expected outcomes")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
