"""The traced benchmark's hooks still fit the program.

gamebench/tracing.py wraps names the program looks up between layers and
stops with MissingHook when one is gone; this catches a refactor that drops
or binds away such a name before the benchmark does.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

from asym_pe import game_solver, sim, trace_io, trajopt
from asym_pe.scenarios import preset

TRACING = Path(__file__).resolve().parents[1] / "gamebench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("gamebench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_program_and_restores_it():
    tracing = _load_tracing()
    owners = (sim, game_solver, trajopt, trace_io, trajopt._BatchEval)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    tracer.install(SimpleNamespace(sim=sim, game_solver=game_solver,
                                   trajopt=trajopt, trace_io=trace_io))
    try:
        assert sim.solve_pursuer_game is not before[0]["solve_pursuer_game"]
        # Q = 1, so the pursuer's risk term runs through the wrapped name.
        trace = sim.run(replace(preset("fig3_desensitized"), t_max=0.2))
        tracer.metrics(rounds=1)  # raises MissingHook if no layer was seen
    finally:
        tracer.uninstall()
    # Every decision went through the wrapped module-level solves.
    decisions = len(trace.decision_records)
    assert decisions == 2
    assert tracer.calls["game_solver.pursuer"] == decisions
    assert tracer.calls["game_solver.evader"] == decisions
    assert tracer.calls["sim.plan_risk"] == decisions
    # The batch evaluator scores the risk through trajopt.weighted_terms,
    # and nothing in a game calls the one-sequence scorings.
    assert tracer.calls["sensitivity.weighted_terms"] > 0
    assert tracer.calls["trajopt.scalar_eval"] == 0
    # Each GS iteration is two best responses, and their BestResponse
    # fields still carry the descent's step count and cap flag.
    assert tracer.calls["trajopt.best_response"] == 2 * tracer.counts["gs_iters"]
    assert tracer.counts["descent_iters"] > 0
    assert tracer.counts["descent_capped"] == 0
    for owner, names in zip(owners, before):
        restored = vars(owner)
        assert restored.keys() == names.keys()
        assert all(restored[k] is v for k, v in names.items())
