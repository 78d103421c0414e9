#!/usr/bin/env python3
"""Mutation self-test of the benchmark's per-game checks.

    python3 gamebench/selftest.py

Plays one short game (fig4_rho1 cut at t_max = 1.0: five decisions, one
pursuer hold, Q = 1 so the risk column is not zero) and confirms that
every check passes on it. It then corrupts the output four ways, and each
corruption must make its own check fail:

- integration: one logged pursuer heading nudged by 1e-3 rad;
- outcome: the logged outcome swapped for another kind;
- risk: one risk value raised by 1e-6;
- hygiene: a pursuer that plans with the true obstacle velocity, so its
  replay stream differs.

Exits 0 when the clean game passes and all four corruptions are caught.
"""

from __future__ import annotations

import sys

import checks
import run
import workloads

NUDGE_RAD = 1e-3
RISK_BUMP = 1e-6


def _edit_cell(text: str, row: int, column: str, edit) -> str:
    lines = text.split("\n")
    col = lines[0].split(",").index(column)
    cells = lines[1 + row].split(",")
    cells[col] = repr(edit(float(cells[col])))
    lines[1 + row] = ",".join(cells)
    return "\n".join(lines)


def _swap_outcome(text: str) -> str:
    head, _, tail = text.rpartition(checks.OUTCOME_LINE)
    kind, sep, rest = tail.partition(",")
    other = "Capture" if kind != "Capture" else "Timeout"
    return head + checks.OUTCOME_LINE + other + sep + rest


def main() -> int:
    prog = run.load_program()
    rules = run.check_rules(prog)
    scn = dict(workloads.FIGURES["fig4_rho1"], t_max=1.0)
    trace = prog.sim.run(prog.scenarios.parse_scenario(workloads.document(scn)))
    text = prog.trace_io.write_trace_csv(trace)
    moved = workloads.hygiene_mapping(scn)
    replayed = run.replay_pursuer(prog, moved, trace)

    decisions = trace.decision_records
    held = [k for k, r in enumerate(decisions) if r.pursuer is None]
    planned = next(k for k, r in enumerate(decisions) if r.pursuer is not None)
    print(f"game: {len(decisions)} decisions, pursuer holds at {held}, "
          f"outcome {trace.outcome.kind.value}")

    # A pursuer that leaks the true velocity into its plan: the replay's
    # nominal velocity is the (moved) true one.
    leaky = run.replay_pursuer(prog, dict(moved, rho_nominal=moved["rho_true"]), trace)
    cases = [
        ("clean", None, text, replayed),
        ("nudge one heading", "integration",
         _edit_cell(text, 2, "u_head", lambda h: h + NUDGE_RAD), replayed),
        ("swap the outcome", "outcome", _swap_outcome(text), replayed),
        ("perturb one risk value", "risk",
         _edit_cell(text, planned, "risk", lambda r: r + RISK_BUMP), replayed),
        ("replay stream differs", "hygiene", text, leaky),
    ]
    ok = True
    for name, target, csv_text, stream in cases:
        result = checks.check_game(scn, csv_text, trace, stream, rules)
        failing = sorted(k for k, errs in result.items() if errs)
        if target is None:
            caught = not failing
        else:
            caught = target in failing
        ok &= caught
        print(f"{'ok    ' if caught else 'MISSED'} {name:24s} failing checks: "
              f"{', '.join(failing) or 'none'}")
        if target is not None and caught:
            print(f"       {result[target][0]}")
    print("all corruptions caught" if ok else "SELF-TEST FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
