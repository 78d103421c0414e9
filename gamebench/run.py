#!/usr/bin/env python3
"""Whole-game benchmark for asym-pe.

    python3 gamebench/run.py --workload {stalemate,lure,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. One operation is one game: sim.run (or one
sim.run_batch call for the sweep) followed by trace_io.write_trace_csv.
The run plays whole rounds, each round every game of the workload once,
until --seconds have passed (at least two rounds), then checks the first
round's games against the benchmark's own computations (checks.py) and
prints one JSON line. --trace 0 reports the end-to-end metrics and patches
nothing; --trace 1 wraps the calls between layers (tracing.py) and reports
the per-layer metrics instead. Traces, spans and results go to
gamebench/out/.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

# The load is one process: pin every BLAS/OpenMP pool to one thread before
# numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
MIN_ROUNDS = 2
# setup_s is the median of this many fresh interpreters plus the run's own.
SETUP_PROBES = 4


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def load_program() -> SimpleNamespace:
    src = ROOT / "src"
    if not (src / "asym_pe" / "__init__.py").is_file():
        raise BenchError(f"no program source at {src / 'asym_pe'}")
    sys.path.insert(0, str(src))
    import asym_pe
    from asym_pe import game, game_solver, scenarios, sim, trace_io, trajopt
    if Path(asym_pe.__file__).resolve().parent != (src / "asym_pe").resolve():
        raise BenchError(f"asym_pe was imported from {asym_pe.__file__}, not {src}")
    return SimpleNamespace(game=game, game_solver=game_solver, scenarios=scenarios,
                           sim=sim, trace_io=trace_io, trajopt=trajopt)


def setup(workload: str, seed: int):
    """Import the program and parse the workload's generated documents."""
    prog = load_program()
    games = workloads.games(workload, seed)
    cfgs = [prog.scenarios.parse_scenario(workloads.document(m)) for _, m in games]
    return prog, games, cfgs, time.perf_counter() - _START


def play_round(prog, workload: str, cfgs) -> list:
    """One round; (trace, csv text) per game, or an error string."""
    sim, trace_io = prog.sim, prog.trace_io
    if workload == "sweep":
        try:
            traces = sim.run_batch(cfgs)
        except Exception as exc:  # a failed game is counted, not fatal
            return [f"{type(exc).__name__}: {exc}"] * len(cfgs)
    else:
        traces = []
        for cfg in cfgs:
            try:
                traces.append(sim.run(cfg))
            except Exception as exc:
                traces.append(f"{type(exc).__name__}: {exc}")
    return [t if isinstance(t, str) else (t, trace_io.write_trace_csv(t))
            for t in traces]


def time_rounds(prog, workload: str, cfgs, seconds: float, tracer):
    times, first, mismatches, failed = [], None, [], 0
    begin = time.perf_counter()
    while len(times) < MIN_ROUNDS or time.perf_counter() - begin < seconds:
        t0 = time.perf_counter()
        games = play_round(prog, workload, cfgs)
        times.append(time.perf_counter() - t0)
        failed += sum(isinstance(g, str) for g in games)
        if tracer is not None:
            tracer.keep_spans = False
        if first is None:
            first = games
            continue
        for i, (a, b) in enumerate(zip(first, games)):
            same = a == b if isinstance(a, str) else (not isinstance(b, str) and a[1] == b[1])
            if not same:
                mismatches.append(f"game {i}: round {len(times)} differs from round 1")
    return times, first, mismatches, failed


def check_rules(prog) -> SimpleNamespace:
    """The program's parser and the tolerances that define the game."""
    gs = prog.game_solver.GaussSeidelConfig()
    return SimpleNamespace(
        collision_tol=prog.game.COLLISION_TOL, timeout_slack=prog.game.TIMEOUT_SLACK,
        conv_tol=gs.conv_tol, max_iters=gs.max_iters,
        parse_trace_csv=prog.trace_io.parse_trace_csv)


def replay_pursuer(prog, mapping: dict, trace) -> list[float]:
    """The pursuer's headings replayed over the game's states under mapping."""
    cfg = prog.scenarios.parse_scenario(workloads.document(mapping))
    return prog.sim.replay_pursuer_decisions(
        cfg, [r.state for r in trace.decision_records])


def check_first_round(prog, games, first) -> tuple[dict, float]:
    rules = check_rules(prog)
    t0 = time.perf_counter()
    report = {}
    for i, ((label, scn), played) in enumerate(zip(games, first)):
        if isinstance(played, str):
            continue
        trace, text = played
        try:
            replayed = replay_pursuer(prog, workloads.hygiene_mapping(scn), trace)
            result = checks.check_game(scn, text, trace, replayed, rules)
        except Exception as exc:  # output a check cannot read is wrong output
            result = {"crashed": [f"{type(exc).__name__}: {exc}"]}
        report[f"{i}:{label}"] = result
    return report, time.perf_counter() - t0


def probe_setup(args) -> list[float]:
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time set-up and print it (used for setup_s)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    prog, games, cfgs, setup_s = setup(args.workload, args.seed)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(prog)
    times, first, mismatches, failed = time_rounds(prog, args.workload, cfgs, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    report, checks_s = check_first_round(prog, games, first)

    attempted = len(games) * len(times)
    decisions = sum(len(g[0].decision_records) for g in first if not isinstance(g, str))
    errors = [f"{game}: {name}: {e}" for game, res in report.items()
              for name, errs in res.items() for e in errs] + mismatches
    run_s = statistics.median(times)

    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        metrics = tracer.metrics(len(times))
        tracer.write_spans(OUT_DIR / f"spans_{stem}.csv")
    else:
        setups = [setup_s] + probe_setup(args)
        metrics = {
            "run_s": (run_s, "s"),
            "decisions_per_s": (decisions / run_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    traces_dir = OUT_DIR / "traces"
    traces_dir.mkdir(exist_ok=True)
    for i, ((label, _), played) in enumerate(zip(games, first)):
        if not isinstance(played, str):
            name = label.split("@")[0]
            (traces_dir / f"{stem}_{i}_{name}.csv").write_text(played[1])
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed,
                  games=[label for label, _ in games], round_s=times,
                  decisions_per_round=decisions, checks_s=checks_s,
                  failures=[g for g in first if isinstance(g, str)],
                  errors=errors, outcomes=[
                      None if isinstance(g, str) else
                      f"{g[0].outcome.kind.value}@{g[0].outcome.t_end:g}" for g in first])
    if not args.trace:
        detail["setup_samples_s"] = setups
    (OUT_DIR / f"result_{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for e in errors[:20]:
        print(f"CHECK FAILED {e}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(times)} rounds, "
          f"round_s={[round(t, 3) for t in times]}, checks {checks_s:.2f} s",
          file=sys.stderr)
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, tracing.MissingHook, ImportError) as exc:
        print(f"gamebench: {exc}", file=sys.stderr)
        sys.exit(2)
