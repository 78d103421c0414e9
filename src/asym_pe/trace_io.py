"""CSV serialization of simulation traces and RCS field grids.

Numbers are written with repr() so every value round-trips to the exact
same float on parse; replaying a parsed trace therefore reconstructs the
logged states bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import GameState, ScenarioConfig
from .sensitivity import GridSpec, rcs_field_grid
from .sim import SimRecord, SimulationTrace

TRACE_HEADER = "t,xp1,xp2,xe1,xe2,xw_true1,xw_true2,xw_nom1,xw_nom2,u_head,v_head,risk"
FIELD_HEADER = "x1,x2,rcs_norm"


def _num(value) -> str:
    return "" if value is None else repr(float(value))


def write_trace_csv(trace: SimulationTrace) -> str:
    """One row per record; the terminal record has empty control fields."""
    lines = [TRACE_HEADER]
    for r in trace.records:
        s = r.state
        lines.append(",".join([
            _num(r.t),
            _num(s.x_p[0]), _num(s.x_p[1]),
            _num(s.x_e[0]), _num(s.x_e[1]),
            _num(s.x_w_true[0]), _num(s.x_w_true[1]),
            _num(s.x_w_nominal[0]), _num(s.x_w_nominal[1]),
            _num(r.u_head), _num(r.v_head), _num(r.risk),
        ]))
    lines.append(
        f"# outcome={trace.outcome.kind.value},t_end={repr(float(trace.outcome.t_end))}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ParsedTrace:
    """The trace's records without the solver decisions, which a CSV does not keep."""

    rows: list[SimRecord]
    outcome_kind: str
    t_end: float


def parse_trace_csv(text: str) -> ParsedTrace:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError("not a trace CSV: bad or missing header")
    if not lines[-1].startswith("# outcome="):
        raise ValueError("not a trace CSV: missing outcome line")
    tail = lines[-1][len("# outcome="):]
    kind, _, t_part = tail.partition(",t_end=")
    rows = []
    for ln in lines[1:-1]:
        parts = ln.split(",")
        if len(parts) != 12:
            raise ValueError(f"bad trace row: {ln!r}")
        vals = [None if p == "" else float(p) for p in parts]
        state = GameState(
            t=vals[0], x_p=np.array(vals[1:3]), x_e=np.array(vals[3:5]),
            x_w_true=np.array(vals[5:7]), x_w_nominal=np.array(vals[7:9]))
        rows.append(SimRecord(vals[0], state, vals[9], vals[10], vals[11]))
    return ParsedTrace(rows=rows, outcome_kind=kind, t_end=float(t_part))


def write_field_csv(cfg: ScenarioConfig, t: float, grid: GridSpec) -> str:
    """Row-major scan of the RCS field: x1 outer, x2 inner."""
    values = rcs_field_grid(cfg, t, grid)
    a1, a2 = grid.axes()
    lines = [FIELD_HEADER]
    for i, x1 in enumerate(a1):
        for j, x2 in enumerate(a2):
            lines.append(f"{repr(float(x1))},{repr(float(x2))},{repr(float(values[i, j]))}")
    return "\n".join(lines) + "\n"
