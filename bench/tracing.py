"""Outside-in tracing of febvp for the benchmark's traced run.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` replaces
public functions with timing wrappers under the names their callers look
up at call time (``febvp.bvp_shooting.integrate_ivp``,
``febvp.functional_laws.eval_F``, ``febvp.cli.bind``, ...).  Each wrapper
records a span (name, start, end, parent span, request or law-call id) in
flat in-memory arrays; ``Tracer.write`` saves them when the run ends.

Calls that are too cheap for a span are counted instead: every rhs
evaluation (for the integrator's step statistics), every connection
``gamma`` call, and, with their time, parser rhs evaluations and
closed-form calls.  The time of a timed counter is charged to its own
layer and taken out of the enclosing span's self time.
"""

from __future__ import annotations

import time
import weakref
from array import array
from collections import defaultdict

import numpy as np

from febvp import bvp_shooting, catalog, cli, functional_laws, geodesics
from febvp.errors import FebvpError
from febvp.rhs_parser import BinOp, Call, Neg

perf = time.perf_counter

# Codes a shooting-layer call can raise; anything else is folded into "other".
SHOOTING_CODES = ("conjugate_point", "no_convergence", "step_underflow",
                  "max_steps_exceeded", "nonfinite_rhs", "out_of_span",
                  "evaluation_error", "other")
TRACED_LAWS = ("composition", "boundary", "extension", "lemma1", "angelesco")
CLOSED_FORMS = ("free_fall_F", "free_fall_S", "conic_F", "conic_S",
                "linear_F", "cos_sin_S")
SHOOTING_SPANS = ("eval_F", "eval_S", "eval_state", "solve_neumann",
                  "solve_integral")

# Per-layer metrics of the traced run, with their units.
PER_LAYER = {
    "ode_core.ivp_calls": "count",
    "ode_core.self_s": "s",
    "ode_core.accepted_steps": "count",
    "ode_core.us_per_step": "us",
    "ode_core.rhs_evals_per_step": "1",
    "ode_core.rejected_step_ratio": "1",
    "bvp_shooting.solves": "count",
    "bvp_shooting.self_s": "s",
    "bvp_shooting.ivps_per_solve": "1",
    "bvp_shooting.newton_iters_per_solve": "1",
    "bvp_shooting.jacobian_ivps_per_solve": "1",
    "bvp_shooting.line_search_halvings": "count",
    "bvp_shooting.cache_hit_ratio": "1",
    "bvp_shooting.extension_ivps": "count",
    **{f"bvp_shooting.failures.{code}": "count" for code in SHOOTING_CODES},
    **{f"functional_laws.law_s.{law}": "s" for law in TRACED_LAWS},
    "functional_laws.overhead_us_per_sample": "us",
    "closed_forms.calls": "count",
    "closed_forms.ns_per_call": "ns",
    "catalog.angelesco_us_per_sample": "us",
    "rhs_parser.parse_us": "us",
    "rhs_parser.rhs_calls": "count",
    "rhs_parser.ns_per_node": "ns",
    "geodesics.eval_calls": "count",
    "geodesics.ms_per_eval": "ms",
    "geodesics.gamma_calls": "count",
    "reconstruction.calls": "count",
    "reconstruction.ms_per_call": "ms",
    "reconstruction.S_calls_per_call": "1",
    "cli.self_ms_per_request": "ms",
    "trace.overhead_ratio": "1",
}

def ast_nodes(expr) -> int:
    """Node count of a parsed rhs expression (or a list of them)."""
    if isinstance(expr, (list, tuple)):
        return sum(ast_nodes(e) for e in expr)
    if isinstance(expr, BinOp):
        return 1 + ast_nodes(expr.left) + ast_nodes(expr.right)
    if isinstance(expr, Neg):
        return 1 + ast_nodes(expr.operand)
    if isinstance(expr, Call):
        return 1 + ast_nodes(expr.arg)
    return 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # one entry per span
        self.code = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.ids = array("q")
        self.child_s = array("d")
        self.info: dict[int, dict] = {}
        self._stack: list[int] = []
        self.request_id = 0
        self.rhs_evals = 0
        self.gamma_calls = 0
        # key -> [calls, seconds, ast node evaluations]
        self.timed_stats = defaultdict(lambda: [0, 0.0, 0])
        self._counted_odes = weakref.WeakSet()
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, code: int) -> int:
        idx = len(self.start)
        self.code.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.ids.append(self.request_id)
        self.child_s.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf())
        return idx

    def _close(self, idx: int, info) -> None:
        end = perf()
        self.end[idx] = end
        self._stack.pop()
        if info is not None:
            self.info[idx] = info
        parent = self.parent[idx]
        if parent >= 0:
            self.child_s[parent] += end - self.start[idx]

    def span(self, name: str, fn, info=None):
        """Wrap fn in a span; info(args, result) adds details on success."""
        code = self._code(name)

        def wrapper(*args, **kwargs):
            idx = self._open(code)
            try:
                result = fn(*args, **kwargs)
            except FebvpError as exc:
                self._close(idx, {"error": exc.code})
                raise
            except BaseException:
                self._close(idx, {"error": "other"})
                raise
            self._close(idx, info(args, result) if info else None)
            return result
        return wrapper

    def timed(self, key: str, fn, nodes: int = 0):
        """Count and time fn without a span (for calls of a few µs)."""
        stats = self.timed_stats[key]
        stack, child_s = self._stack, self.child_s

        def wrapper(*args):
            t0 = perf()
            try:
                return fn(*args)
            finally:
                dt = perf() - t0
                stats[0] += 1
                stats[1] += dt
                stats[2] += nodes
                if stack:
                    child_s[stack[-1]] += dt
        return wrapper

    def _count_rhs(self, ode) -> None:
        if ode in self._counted_odes:
            return
        self._counted_odes.add(ode)

        def counted(fn):
            def rhs(*args):
                self.rhs_evals += 1
                return fn(*args)
            return rhs

        ode.rhs = counted(ode.rhs)
        if ode.rhs1 is not None:
            ode.rhs1 = counted(ode.rhs1)

    # -- installation ------------------------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Put back every function install() replaced.  ODEs that went
        through the traced integrator keep their counting rhs wrappers."""
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def install(self) -> None:
        """Patch the wrappers in under every name a caller looks up."""
        orig_ivp = bvp_shooting.integrate_ivp
        ivp_code = self._code("integrate_ivp")

        def integrate_ivp(ode, start, tau_end, *rest):
            self._count_rhs(ode)
            idx = self._open(ivp_code)
            before = self.rhs_evals
            try:
                traj = orig_ivp(ode, start, tau_end, *rest)
            except FebvpError as exc:
                self._close(idx, {"error": exc.code})
                raise
            self._close(idx, {"steps": traj.n_segments,
                              "rhs": self.rhs_evals - before})
            return traj

        self._patch(bvp_shooting, "integrate_ivp", integrate_ivp)

        def solve_info(args, result):
            return {"iters": result.iterations, "dim": args[1].dim}

        wrapped = {
            "solve_neumann": self.span("solve_neumann",
                                       bvp_shooting.solve_neumann, solve_info),
            "solve_integral": self.span("solve_integral",
                                        bvp_shooting.solve_integral),
            "eval_F": self.span("eval_F", bvp_shooting.eval_F),
            "eval_S": self.span("eval_S", bvp_shooting.eval_S),
            "eval_state": self.span("eval_state", bvp_shooting.eval_state),
        }
        for module in (bvp_shooting, functional_laws, cli, geodesics):
            for name, fn in wrapped.items():
                if hasattr(module, name):
                    self._patch(module, name, fn)

        for name in CLOSED_FORMS:
            self._patch(catalog, name,
                        self.timed("closed_forms", getattr(catalog, name)))
        self._patch(geodesics.GeodesicMap, "eval",
                    self.span("GeodesicMap.eval", geodesics.GeodesicMap.eval))
        orig_half_plane = cli.half_plane_connection

        def half_plane_connection():
            conn = orig_half_plane()
            gamma = conn.gamma

            def counted_gamma(point):
                self.gamma_calls += 1
                return gamma(point)

            conn.gamma = counted_gamma
            return conn

        self._patch(cli, "half_plane_connection", half_plane_connection)
        self._patch(cli, "reconstruct_f",
                    self.span("reconstruct_f", cli.reconstruct_f))
        self._patch(cli, "parse", self.span("parse", cli.parse))
        orig_bind = cli.bind

        def bind(exprs, params):
            return self.timed("rhs_parser", orig_bind(exprs, params),
                              ast_nodes(exprs))

        self._patch(cli, "bind", bind)

    def law(self, name: str, fn):
        return self.span("law." + name, fn,
                         lambda args, result: {"samples": args[-1].count})

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Save the spans as numpy arrays (span i's parent is parent[i])."""
        np.savez(path, names=np.array(self.names), name=np.asarray(self.code),
                 start_s=np.asarray(self.start), end_s=np.asarray(self.end),
                 parent=np.asarray(self.parent), id=np.asarray(self.ids))

    def metrics(self) -> dict:
        """Per-layer figures derived from the spans and counters."""
        code = np.asarray(self.code, dtype=np.int64)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        self_time = dur - np.asarray(self.child_s)
        parent_code = np.where(parent >= 0, code[parent] if len(code) else 0,
                               -1)

        def is_(arr, *names):
            return np.isin(arr, [self.names.index(n) for n in names
                                 if n in self.names])

        def ratio(num, den):
            return float(num) / den if den else 0.0

        def infos(name):
            mask = is_(code, name)
            return {int(i): self.info.get(int(i), {})
                    for i in np.flatnonzero(mask)}

        out = {}
        ivp_mask = is_(code, "integrate_ivp")
        stepped = [r for r in infos("integrate_ivp").values()
                   if r.get("rhs", 0) > 0]
        steps = sum(r["steps"] for r in stepped)
        rhs = sum(r["rhs"] for r in stepped)
        attempts = (rhs - len(stepped)) / 6
        ode_self = float(self_time[ivp_mask].sum())
        out["ode_core.ivp_calls"] = int(ivp_mask.sum())
        out["ode_core.self_s"] = ode_self
        out["ode_core.accepted_steps"] = steps
        out["ode_core.us_per_step"] = 1e6 * ratio(ode_self, steps)
        out["ode_core.rhs_evals_per_step"] = ratio(rhs, steps)
        out["ode_core.rejected_step_ratio"] = ratio(attempts - steps, attempts)

        solve_ivps = np.bincount(parent[ivp_mask & (parent >= 0)],
                                 minlength=len(code))
        solved = {i: r for i, r in infos("solve_neumann").items()
                  if "iters" in r}
        iters = sum(r["iters"] for r in solved.values())
        jac = sum(r["dim"] * max(r["iters"], 1) for r in solved.values())
        ivps = int(sum(solve_ivps[i] for i in solved))
        n = len(solved)
        out["bvp_shooting.solves"] = n
        out["bvp_shooting.self_s"] = float(
            self_time[is_(code, *SHOOTING_SPANS)].sum())
        out["bvp_shooting.ivps_per_solve"] = ratio(ivps, n)
        out["bvp_shooting.newton_iters_per_solve"] = ratio(iters, n)
        out["bvp_shooting.jacobian_ivps_per_solve"] = ratio(jac, n)
        out["bvp_shooting.line_search_halvings"] = ivps - n - jac - iters
        f_calls = int(is_(code, "eval_F").sum())
        f_solving = len(set(parent[is_(code, "solve_neumann")
                                   & is_(parent_code, "eval_F")].tolist()))
        out["bvp_shooting.cache_hit_ratio"] = ratio(f_calls - f_solving,
                                                    f_calls)
        out["bvp_shooting.extension_ivps"] = int(
            (ivp_mask & is_(parent_code, "eval_state", "eval_S")).sum())
        failures = dict.fromkeys(SHOOTING_CODES, 0)
        outer = is_(code, *SHOOTING_SPANS) & ~is_(parent_code,
                                                   *SHOOTING_SPANS)
        for i, r in self.info.items():
            if "error" in r and outer[i]:
                key = r["error"] if r["error"] in failures else "other"
                failures[key] += 1
        for key, count in failures.items():
            out[f"bvp_shooting.failures.{key}"] = count

        law_names = [n for n in self.names if n.startswith("law.")]
        law_mask = is_(code, *law_names)
        samples = sum(r.get("samples", 0) for n in law_names
                      for r in infos(n).values())
        for law in TRACED_LAWS:
            out[f"functional_laws.law_s.{law}"] = float(
                dur[is_(code, "law." + law)].sum())
        out["functional_laws.overhead_us_per_sample"] = 1e6 * ratio(
            self_time[law_mask].sum(), samples)

        calls, seconds, _ = self.timed_stats["closed_forms"]
        out["closed_forms.calls"] = calls
        out["closed_forms.ns_per_call"] = 1e9 * ratio(seconds, calls)
        angelesco = infos("law.angelesco")
        out["catalog.angelesco_us_per_sample"] = 1e6 * ratio(
            dur[is_(code, "law.angelesco")].sum(),
            sum(r.get("samples", 0) for r in angelesco.values()))

        def mean_ms(name):
            mask = is_(code, name)
            return 1e3 * ratio(dur[mask].sum(), mask.sum())

        calls, seconds, nodes = self.timed_stats["rhs_parser"]
        out["rhs_parser.parse_us"] = 1e3 * mean_ms("parse")
        out["rhs_parser.rhs_calls"] = calls
        out["rhs_parser.ns_per_node"] = 1e9 * ratio(seconds, nodes)
        out["geodesics.eval_calls"] = int(is_(code, "GeodesicMap.eval").sum())
        out["geodesics.ms_per_eval"] = mean_ms("GeodesicMap.eval")
        out["geodesics.gamma_calls"] = self.gamma_calls
        recon = int(is_(code, "reconstruct_f").sum())
        out["reconstruction.calls"] = recon
        out["reconstruction.ms_per_call"] = mean_ms("reconstruct_f")
        out["reconstruction.S_calls_per_call"] = ratio(
            (is_(code, "eval_S") & is_(parent_code, "reconstruct_f")).sum(),
            recon)
        mains = is_(code, "cli.main")
        out["cli.self_ms_per_request"] = 1e3 * ratio(self_time[mains].sum(),
                                                     mains.sum())
        return out
