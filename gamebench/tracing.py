"""Traced run: spans around the calls from one layer into the next.

The program's modules look their collaborators up as module-level names
at call time, so replacing those names with timing wrappers records every
call between layers without editing the program. Spans stay in memory and
are written out at the end; a span's self time is its duration minus the
time its child spans cover. Counts come from the values the program
already returns (StepDecision, BestResponse, SimRecord).

Layer order: sim -> game_solver -> trajopt (best_response, _BatchEval)
-> sensitivity; trace_io is called by the benchmark after each game.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict


class MissingHook(RuntimeError):
    """A name the traced run wraps no longer exists in the program."""


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.decision_ms: list[float] = []
        # (span id, parent id, game, name, start, end); kept for the first
        # round only, which bounds memory on long runs.
        self.spans: list[tuple] = []
        self.keep_spans = True
        self.game = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._last_step_end: float | None = None
        self._installed: list[tuple] = []

    def _span(self, name: str, fn, on_result=None, on_call=None):
        stack = self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else -1
            if on_call is not None:
                on_call(args)
            frame = [0.0, sid]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                self.total[name] += dur
                self.self_time[name] += dur - frame[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += dur
                if self.keep_spans:
                    self.spans.append((sid, parent, self.game, name, start, end))
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _step_marker(self, fn):
        # sim.run calls check_termination once per state, so the time from
        # one return to the next call is one closed-loop decision: both
        # solves, the risk of the plan, and the world step.
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            now = perf()
            if self._last_step_end is not None:
                self.decision_ms.append((now - self._last_step_end) * 1e3)
            result = fn(*args, **kwargs)
            self._last_step_end = perf()
            return result
        return wrapper

    # --- result hooks -------------------------------------------------
    def _new_game(self, _args):
        self.game += 1
        self._last_step_end = None

    def _game_done(self, trace):
        for rec in trace.decision_records:
            self.counts["infeasible_holds"] += rec.pursuer_infeasible + rec.evader_infeasible

    def _gs_done(self, dec):
        self.counts["gs_solves"] += 1
        self.counts["gs_iters"] += dec.iters
        self.counts["gs_capped"] += not dec.converged

    def _br_done(self, br):
        self.counts["descent_iters"] += br.solver_iters
        self.counts["descent_capped"] += not br.converged

    def _eval_rows(self, args):
        self.counts["eval_rows"] += len(args[1])

    def _csv_done(self, text):
        self.counts["trace_bytes"] += len(text.encode())

    def install(self, prog) -> None:
        sim, gs, tro, tio = prog.sim, prog.game_solver, prog.trajopt, prog.trace_io
        hooks = [
            (sim, "run", self._span("sim.run", _get(sim, "run"),
                                    self._game_done, self._new_game)),
            (sim, "check_termination", self._step_marker(_get(sim, "check_termination"))),
            (sim, "solve_pursuer_game", self._span(
                "game_solver.pursuer", _get(sim, "solve_pursuer_game"), self._gs_done)),
            (sim, "solve_evader_original", self._span(
                "game_solver.evader", _get(sim, "solve_evader_original"), self._gs_done)),
            (sim, "solve_evader_deceptive", self._span(
                "game_solver.evader", _get(sim, "solve_evader_deceptive"))),
            (sim, "plan_risk", self._span("sim.plan_risk", _get(sim, "plan_risk"))),
            (sim, "rcs_sample", self._span("sensitivity.rcs_sample", _get(sim, "rcs_sample"))),
            (gs, "best_response", self._span(
                "trajopt.best_response", _get(gs, "best_response"), self._br_done)),
            (_get(tro, "_BatchEval"), "__call__", self._span(
                "trajopt.eval", _get(_get(tro, "_BatchEval"), "__call__"),
                on_call=self._eval_rows)),
            (tro, "evaluate_objective", self._span(
                "trajopt.scalar_eval", _get(tro, "evaluate_objective"))),
            (tro, "constraint_violations", self._span(
                "trajopt.scalar_eval", _get(tro, "constraint_violations"))),
            (tro, "weighted_terms", self._span(
                "sensitivity.weighted_terms", _get(tro, "weighted_terms"))),
            (tro, "rcs_sample", self._span("sensitivity.rcs_sample", _get(tro, "rcs_sample"))),
            (tio, "write_trace_csv", self._span(
                "trace_io.write", _get(tio, "write_trace_csv"), self._csv_done)),
        ]
        for owner, attr, wrapper in hooks:
            self._installed.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics for one round: (value, unit) by name."""
        t, own, c = self.total, self.self_time, self.counts
        calls = self.calls
        if calls["trajopt.eval"] == 0 or not self.decision_ms:
            raise MissingHook("the traced run recorded no batch evaluation or decision")
        deciles = statistics.quantiles(self.decision_ms, n=10)
        gs_solves = c["gs_solves"]
        per = 1.0 / rounds
        return {
            "sim.decision_ms_p50": (statistics.median(self.decision_ms), "ms"),
            "sim.decision_ms_p90": (deciles[8], "ms"),
            "sim.self_s": (own["sim.run"] * per, "s"),
            "sim.plan_risk_s": (t["sim.plan_risk"] * per, "s"),
            "sim.infeasible_holds": (c["infeasible_holds"] * per, "count"),
            "game_solver.pursuer_s": (t["game_solver.pursuer"] * per, "s"),
            "game_solver.evader_s": (t["game_solver.evader"] * per, "s"),
            "game_solver.self_s": ((own["game_solver.pursuer"] + own["game_solver.evader"])
                                   * per, "s"),
            "game_solver.gs_iters": (c["gs_iters"] * per, "count"),
            "game_solver.gs_capped": (c["gs_capped"] * per, "count"),
            "game_solver.converged_ratio": (
                (gs_solves - c["gs_capped"]) / gs_solves if gs_solves else 1.0, "ratio"),
            "trajopt.best_response_calls": (calls["trajopt.best_response"] * per, "count"),
            "trajopt.best_response_s": (t["trajopt.best_response"] * per, "s"),
            "trajopt.self_s": (own["trajopt.best_response"] * per, "s"),
            "trajopt.descent_iters": (c["descent_iters"] * per, "count"),
            "trajopt.descent_capped": (c["descent_capped"] * per, "count"),
            "trajopt.eval_calls": (calls["trajopt.eval"] * per, "count"),
            "trajopt.eval_rows": (c["eval_rows"] * per, "count"),
            "trajopt.rows_per_eval": (c["eval_rows"] / calls["trajopt.eval"], "rows/call"),
            "trajopt.eval_s": (t["trajopt.eval"] * per, "s"),
            "trajopt.eval_us_per_row": (t["trajopt.eval"] / c["eval_rows"] * 1e6, "us/row"),
            "trajopt.scalar_eval_s": (t["trajopt.scalar_eval"] * per, "s"),
            "sensitivity.weighted_terms_s": (t["sensitivity.weighted_terms"] * per, "s"),
            "sensitivity.rcs_sample_calls": (calls["sensitivity.rcs_sample"] * per, "count"),
            "sensitivity.rcs_sample_s": (t["sensitivity.rcs_sample"] * per, "s"),
            "trace_io.write_s": (t["trace_io.write"] * per, "s"),
            "trace_io.bytes": (c["trace_bytes"] * per, "bytes"),
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,game,name,start_s,end_s\n")
            for sid, parent, game, name, start, end in self.spans:
                fh.write(f"{sid},{parent},{game},{name},{start!r},{end!r}\n")


def _get(owner, attr: str):
    # Look in the owner's own namespace: on a class, getattr would find an
    # inherited __call__ and hide that the program's own one is gone.
    namespace = vars(owner)
    if attr not in namespace:
        raise MissingHook(
            f"traced run cannot wrap {getattr(owner, '__name__', owner)}.{attr}: "
            "the name no longer exists")
    return namespace[attr]
