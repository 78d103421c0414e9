"""Independent per-game checks of the program's output.

Each check recomputes something from the scenario mapping the benchmark
wrote and from the trace CSV the program produced, with the benchmark's
own arithmetic, and returns a list of error strings (empty when the game
passes). Only the tolerances COLLISION_TOL and TIMEOUT_SLACK and the
Gauss-Seidel convergence tolerance are taken from the program, because
they are part of the game's definition.
"""

from __future__ import annotations

import math

# Re-integrated positions may differ from the program's in the last bits
# if a later version orders the same float operations differently.
POS_TOL = 1e-9
RISK_REL_TOL = 1e-9
RISK_ABS_TOL = 1e-12
# Allowance for the rounding between two ways of computing a clearance.
CLEARANCE_ROUNDING = 1e-12

OUTCOME_LINE = "# outcome="


def parse_csv(text: str) -> tuple[list[dict], str, float]:
    """Rows as dicts of floats (None for empty cells), outcome kind, t_end."""
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:-1]:
        cells = line.split(",")
        rows.append({k: (None if c == "" else float(c))
                     for k, c in zip(header, cells)})
    tail = lines[-1]
    if not tail.startswith(OUTCOME_LINE):
        raise ValueError("trace CSV has no outcome line")
    kind, _, t_end = tail[len(OUTCOME_LINE):].partition(",t_end=")
    return rows, kind, float(t_end)


def _pair(row: dict, a: str, b: str) -> tuple[float, float]:
    return row[a], row[b]


def _far(p, q, tol=POS_TOL) -> bool:
    return abs(p[0] - q[0]) > tol or abs(p[1] - q[1]) > tol


def _advance(pos, speed: float, heading: float, dt: float):
    return (pos[0] + speed * math.cos(heading) * dt,
            pos[1] + speed * math.sin(heading) * dt)


def _obstacle(scn: dict, rho_key: str, t: float):
    w0, rho = scn["obstacle_start"], scn[rho_key]
    return (w0[0] + rho[0] * t, w0[1] + rho[1] * t)


def _g(pos, centre, r_o: float) -> float:
    dx, dy = pos[0] - centre[0], pos[1] - centre[1]
    return r_o * r_o - (dx * dx + dy * dy)


def check_integration(scn: dict, rows: list[dict]) -> list[str]:
    """Every row follows from the previous one and its logged headings."""
    errors = []
    first = rows[0]
    if (first["t"] != 0.0 or _pair(first, "xp1", "xp2") != scn["pursuer_start"]
            or _pair(first, "xe1", "xe2") != scn["evader_start"]):
        errors.append("first row is not the scenario's start")
    dt = scn["dt"]
    for k, row in enumerate(rows):
        t = row["t"]
        for cols, key in ((("xw_true1", "xw_true2"), "rho_true"),
                          (("xw_nom1", "xw_nom2"), "rho_nominal")):
            if _far(_pair(row, *cols), _obstacle(scn, key, t)):
                errors.append(f"row {k}: {cols[0][:-1]} is not obstacle_start + {key}*t")
        if k + 1 == len(rows):
            break
        nxt = rows[k + 1]
        if row["u_head"] is None or row["v_head"] is None:
            errors.append(f"row {k}: decision row without headings")
            continue
        if abs(nxt["t"] - (t + dt)) > POS_TOL:
            errors.append(f"row {k + 1}: t does not advance by dt")
        if _far(_pair(nxt, "xp1", "xp2"),
                _advance(_pair(row, "xp1", "xp2"), scn["u_c"], row["u_head"], dt)):
            errors.append(f"row {k + 1}: pursuer is not where u_head={row['u_head']!r} puts it")
        if _far(_pair(nxt, "xe1", "xe2"),
                _advance(_pair(row, "xe1", "xe2"), scn["v_c"], row["v_head"], dt)):
            errors.append(f"row {k + 1}: evader is not where v_head={row['v_head']!r} puts it")
    last = rows[-1]
    if any(last[c] is not None for c in ("u_head", "v_head", "risk")):
        errors.append("terminal row carries controls")
    return errors


def classify(scn: dict, row: dict, collision_tol: float, timeout_slack: float):
    """Outcome kind the game's rules give at one logged state, or None."""
    w = _pair(row, "xw_true1", "xw_true2")
    p, e = _pair(row, "xp1", "xp2"), _pair(row, "xe1", "xe2")
    if _g(p, w, scn["r_o"]) > collision_tol:
        return "PursuerCollision"
    if _g(e, w, scn["r_o"]) > collision_tol:
        return "EvaderCollision"
    if math.hypot(p[0] - e[0], p[1] - e[1]) <= scn["epsilon"]:
        return "Capture"
    if row["t"] >= scn["t_max"] - timeout_slack:
        return "Timeout"
    return None


def check_outcome(scn: dict, rows: list[dict], kind: str, t_end: float,
                  collision_tol: float, timeout_slack: float) -> list[str]:
    """The terminal condition holds at the last row and at no earlier one."""
    errors = []
    for k, row in enumerate(rows[:-1]):
        early = classify(scn, row, collision_tol, timeout_slack)
        if early is not None:
            errors.append(f"row {k} (t={row['t']!r}) already meets {early}")
            break
    final = classify(scn, rows[-1], collision_tol, timeout_slack)
    if final != kind:
        errors.append(f"logged outcome {kind} but the last state gives {final}")
    if t_end != rows[-1]["t"]:
        errors.append(f"t_end {t_end!r} is not the last row's t {rows[-1]['t']!r}")
    return errors


def _horizon(t0: float, n: int, dt: float) -> list[float]:
    out, t = [], t0
    for _ in range(n):
        t = t + dt
        out.append(t)
    return out


def _plan_positions(start, speed: float, headings, dt: float):
    out, p = [], start
    for h in headings:
        p = _advance(p, speed, h, dt)
        out.append(p)
    return out


def _s_g(scn: dict, d, tau: float) -> list[float]:
    spec = scn["uncertainty_spec"]
    if spec == "both_cartesian":
        return [2.0 * tau * d[0], 2.0 * tau * d[1]]
    if spec == "rho1_only":
        return [2.0 * tau * d[0]]
    if spec == "rho2_only":
        return [2.0 * tau * d[1]]
    rx, ry = scn["rho_nominal"]
    psi = math.atan2(ry, rx)
    if spec == "speed_only":
        return [2.0 * tau * (d[1] * math.sin(psi) + d[0] * math.cos(psi))]
    if spec == "heading_only":
        return [2.0 * math.hypot(rx, ry) * tau
                * (d[1] * math.cos(psi) - d[0] * math.sin(psi))]
    raise ValueError(f"unknown uncertainty_spec {spec!r}")


def _quad(q, s: list[float]) -> float:
    if isinstance(q, (int, float)):
        return q * sum(x * x for x in s)
    return sum(s[i] * q[i][j] * s[j] for i in range(len(s)) for j in range(len(s)))


def plan_risk(scn: dict, row: dict, headings) -> float:
    """Sum over the plan of gamma(g)^2 * s_g' Q s_g against the nominal disk.

    Sensitivity time restarts at the planning instant; the nominal
    obstacle keeps game time.
    """
    dt, n = scn["dt"], len(headings)
    ts, taus = _horizon(row["t"], n, dt), _horizon(0.0, n, dt)
    pos = _plan_positions(_pair(row, "xp1", "xp2"), scn["u_c"], headings, dt)
    total = 0.0
    for p, t, tau in zip(pos, ts, taus):
        w = _obstacle(scn, "rho_nominal", t)
        d = (p[0] - w[0], p[1] - w[1])
        z = min(scn["relevance_scale"] * _g(p, w, scn["r_o"]), 0.0)
        ez = math.exp(z)
        gamma = ez / (1.0 + ez) ** 2
        total += gamma * gamma * _quad(scn["Q"], _s_g(scn, d, tau))
    return total


def check_risk(scn: dict, rows: list[dict], plans: list) -> list[str]:
    """The risk column matches the closed form for every non-hold decision.

    plans[k] holds the pursuer's plan headings at decision row k, or None
    where the pursuer held its heading.
    """
    errors = []
    for k, (row, plan) in enumerate(zip(rows, plans)):
        if plan is None:
            continue
        want = plan_risk(scn, row, plan)
        got = row["risk"]
        if got is None or abs(got - want) > RISK_ABS_TOL + RISK_REL_TOL * abs(want):
            errors.append(f"row {k}: risk {got!r}, closed form gives {want!r}")
    return errors


def check_plans_clear(scn: dict, rows: list[dict], p_plans: list, e_plans: list,
                      collision_tol: float) -> list[str]:
    """Each applied plan clears the disk it planned against.

    The pursuer plans against the nominal disk, the evader against the
    true one.
    """
    errors = []
    dt = scn["dt"]
    for k, row in enumerate(rows[:len(p_plans)]):
        ts = None
        for who, plan, start_cols, speed, rho_key in (
                ("pursuer", p_plans[k], ("xp1", "xp2"), scn["u_c"], "rho_nominal"),
                ("evader", e_plans[k], ("xe1", "xe2"), scn["v_c"], "rho_true")):
            if plan is None:
                continue
            ts = ts or _horizon(row["t"], len(plan), dt)
            pos = _plan_positions(_pair(row, *start_cols), speed, plan, dt)
            worst = max(_g(p, _obstacle(scn, rho_key, t), scn["r_o"])
                        for p, t in zip(pos, ts))
            if worst > collision_tol + CLEARANCE_ROUNDING:
                errors.append(f"row {k}: {who} plan enters its disk (g={worst!r})")
    return errors


def check_converged(decisions: list, conv_tol: float, max_iters: int) -> list[str]:
    """A converged Gauss-Seidel decision has both residuals within conv_tol.

    decisions holds (row index, who, StepDecision) for every Gauss-Seidel
    solve; a solve that did not converge must have used every iteration.
    """
    errors = []
    for k, who, dec in decisions:
        if dec.converged:
            if not (dec.residual_u <= conv_tol and dec.residual_v <= conv_tol):
                errors.append(f"row {k}: {who} converged with residuals "
                              f"{dec.residual_u!r}, {dec.residual_v!r}")
        elif dec.iters != max_iters:
            errors.append(f"row {k}: {who} stopped unconverged after {dec.iters} iterations")
    return errors


def check_round_trip(parsed, trace) -> list[str]:
    """The program's own parse of the CSV restores the trace exactly."""
    errors = []
    if len(parsed.rows) != len(trace.records):
        return [f"parse gives {len(parsed.rows)} rows for {len(trace.records)} records"]
    for k, (row, rec) in enumerate(zip(parsed.rows, trace.records)):
        same = (row.t == rec.t and row.u_head == rec.u_head
                and row.v_head == rec.v_head and row.risk == rec.risk
                and all((getattr(row.state, a) == getattr(rec.state, a)).all()
                        for a in ("x_p", "x_e", "x_w_true", "x_w_nominal")))
        if not same:
            errors.append(f"row {k} does not round-trip")
    if parsed.outcome_kind != trace.outcome.kind.value or parsed.t_end != trace.outcome.t_end:
        errors.append("outcome does not round-trip")
    return errors


def check_hygiene(logged: list[float], replayed: list[float]) -> list[str]:
    """The pursuer's replay with a moved true velocity is bitwise the same."""
    if len(logged) != len(replayed):
        return [f"replay gives {len(replayed)} decisions for {len(logged)}"]
    changed = [k for k, (a, b) in enumerate(zip(logged, replayed))
               if a.hex() != b.hex()]
    if changed:
        return [f"{len(changed)} pursuer headings change when rho_true moves "
                f"(first at decision {changed[0]})"]
    return []


def check_game(scn: dict, text: str, trace, replayed: list[float], rules) -> dict[str, list[str]]:
    """Every check on one game; maps check name to its errors.

    rules carries the program's parse_trace_csv and the tolerances named in
    the module docstring.
    """
    rows, kind, t_end = parse_csv(text)
    decisions = trace.decision_records
    p_plans = [r.pursuer.u_seq.headings if r.pursuer else None for r in decisions]
    e_plans = [r.evader.v_seq.headings if r.evader else None for r in decisions]
    gs = [(k, "pursuer", r.pursuer) for k, r in enumerate(decisions) if r.pursuer]
    gs += [(k, "evader", r.evader) for k, r in enumerate(decisions)
           if r.evader and r.evader.u_seq is not None]
    return {
        "integration": check_integration(scn, rows),
        "outcome": check_outcome(scn, rows, kind, t_end,
                                 rules.collision_tol, rules.timeout_slack),
        "risk": check_risk(scn, rows, p_plans),
        "plans_clear": check_plans_clear(scn, rows, p_plans, e_plans,
                                         rules.collision_tol),
        "converged": check_converged(gs, rules.conv_tol, rules.max_iters),
        "round_trip": check_round_trip(rules.parse_trace_csv(text), trace),
        "hygiene": check_hygiene([r.u_head for r in decisions], replayed),
    }
