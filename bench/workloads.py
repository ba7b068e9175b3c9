"""The benchmark's workloads: seeded inputs, timed passes and output checks.

This module runs inside the single-threaded child process that ``run.py``
starts for one workload.  Importing it imports numpy and febvp, so the
import is part of the measured set-up time.

laws-numeric
    numeric-mode boundary, composition, extension and lemma1 over the
    acceptance grid plus the oscillator.  Nearly all time goes to the
    scalar integrator kernel and Newton shooting; composition reuses one
    cached solve for three of its four evaluations and extension mostly
    takes the Cauchy path near the diagonal, so integrator and shooting
    changes move it differently.
laws-closed
    closed-mode composition, boundary and extension over the same grid,
    plus angelesco.  It never reaches ode_core or bvp_shooting, so an
    integrator or shooting change must leave it unchanged; the sampling
    harness carries most of its time.
requests
    a seeded stream of one-off ``cli.main(argv)`` calls, one problem at a
    time with the solve cache cleared before each call.  The only workload
    where rhs_parser, the vector kernel, geodesics, reconstruction and cli
    carry the work.

A workload's seeded inputs form one *pass*: a list of items, each a law
call on one family or one CLI request.  A run repeats the pass, in the
same order, until its time is up; rates and latencies come from the calls
of every complete pass.  Every output is checked: the first pass's against
thresholds and oracles, the later ones for bit-identity with the first.
The solve cache is cleared at the start of each pass (laws) or before each
request, so that no pass reuses another's solves.  A laws-numeric pass is
thus one ``febvp verify`` process's worth of work per family, and its
cache is never cleared inside it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import time
from collections import Counter

import numpy as np

import hostspeed
from febvp import bvp_shooting, catalog, cli, closed_forms, functional_laws
from febvp.closed_forms import COS_SIN_BASIS, ConicParams
from febvp.errors import FebvpError
from febvp.functional_laws import SampleSpec
from febvp.geodesics import half_plane_geodesic_point

perf = time.perf_counter

# The acceptance grid (FAMILIES in tests/test_acceptance.py).
GRID = [("free_fall", {})] + [
    ("conic", {"k": k, "g": g}) for k in (0.5, 1.0, 2.0)
    for g in (0.0, 2.0, -2.0)] + [("linear_basis", {})]
NUMERIC_FAMILIES = GRID + [("oscillator", {})]

# Laws in the order `febvp verify` runs them (its default is
# "composition,boundary").
NUMERIC_LAWS = ("composition", "boundary", "extension", "lemma1")
CLOSED_LAWS = ("composition", "boundary", "extension")

# A law pass makes one call per (family, law) pair, and the calls on one
# family share one sample seed, as the laws of one `febvp verify` process
# do.  `febvp verify` draws 200 samples per law call; laws-closed keeps
# that.  laws-numeric scales it down to 10, so that a 35-s run holds over
# 200 numeric calls from whole passes (ten beyond the 95th percentile) even
# at half the reference host's speed: at 10 samples a pass of 48 calls takes
# about 3.5 s, at 200 samples over a minute.
COUNT = {"laws-numeric": 10, "laws-closed": 200}

# The README's default thresholds per law and mode.
THRESHOLDS = {
    ("composition", "closed"): 1e-10, ("composition", "numeric"): 1e-7,
    ("boundary", "closed"): 1e-9, ("boundary", "numeric"): 1e-8,
    ("extension_offdiag", "closed"): 1e-8,
    ("extension_offdiag", "numeric"): 1e-8,
    ("lemma1_agreement", "numeric"): 1e-9,
    ("lemma1_quadrature", "numeric"): 1e-8,
    ("angelesco", "closed"): 1e-10,
}
# Solve rows are checked against the family's closed form at the numeric
# composition threshold (both compare two evaluations of F inside the
# family's box); geodesic rows against the semicircle oracle at the
# acceptance suite's 1e-6; reconstructions against the true rhs at the
# CLI's 1e-4 gate.
SOLVE_TOL = 1e-7
GEODESIC_TOL = 1e-6
RECONSTRUCT_TOL = 1e-4

# The request kinds, in equal shares: nothing in the package says how
# often each kind is used.  A pass holds REQUEST_BLOCKS blocks of one
# request of each kind.  Later passes repeat the first one's inputs, so
# one pass needs 30 blocks (210 requests) to put ten distinct requests
# beyond the 95th percentile; 60 blocks halve the share of the run's time
# that rests on any one drawn input, so that seeds differ less.
REQUEST_KINDS = ("solve_catalog", "solve_ode", "solve_cauchy", "solve_2d",
                 "geodesic", "reconstruct_catalog", "reconstruct_ode")
REQUEST_BLOCKS = 60


# A margin above this many decades only says "exact to rounding" (a double
# carries about 16 digits); capping it keeps a few exact zeros from
# swinging the mean margin.  A non-finite error is clamped to -MARGIN_CAP.
MARGIN_CAP = 16.0


def margin(error: float, threshold: float) -> float:
    """Decades between an error and its threshold; negative when over.
    The error is floored at 1e-300 so that an exact zero stays finite."""
    if not math.isfinite(error):
        return -math.inf
    return math.log10(threshold / max(error, 1e-300))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Outcome:
    """Attempts, failures by error code, and the margins of checked outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.codes: Counter = Counter()
        self.problems: list[str] = []
        # smallest margin of each item, clamped to +-MARGIN_CAP so that
        # the mean stays finite
        self.margins: list[float] = []
        # smallest margin by law (law workloads) or request kind
        self.group_min: dict = {}
        self._item_margin = math.inf

    def fail(self, count: int, codes: dict, what: str) -> None:
        self.failed += count
        self.codes.update(codes)
        if len(self.problems) < 10:
            self.problems.append(f"{dict(codes)} in {what}")

    def check(self, error: float, threshold: float) -> bool:
        m = margin(error, threshold)
        self._item_margin = min(self._item_margin, m)
        return m >= 0.0

    def end_item(self, group: str) -> None:
        if self._item_margin < math.inf:
            m = max(-MARGIN_CAP, min(self._item_margin, MARGIN_CAP))
            self.margins.append(m)
            self.group_min[group] = min(self.group_min.get(group, m), m)
        self._item_margin = math.inf


class Runner:
    """Runs a workload's pass of items; subclasses supply the items."""

    workload = ""
    tracer = None

    def __init__(self, items: list):
        self.items = items
        self._first_output: list = [None] * len(items)

    def digest(self) -> str:
        return digest(self.items)

    def run_passes(self, deadline: float, out: Outcome) -> list[list]:
        """Repeat the pass until the deadline, but finish at least one.
        Returns, for each complete pass, one (call time, host kernel time)
        pair per item: the host-speed kernel runs just before each call.
        The pass the deadline cuts off is checked but not timed, so every
        item weighs the same."""
        passes: list[list] = []
        while not passes or perf() < deadline:
            self.start_pass()
            times = []
            for i in range(len(self.items)):
                if passes and perf() >= deadline:
                    return passes
                if self.tracer is not None:
                    self.tracer.request_id = i
                kernel_s = hostspeed.time_kernel()
                seconds, output = self.run_item(i)
                times.append((seconds, kernel_s))
                self._check(i, output, out)
            passes.append(times)
        return passes

    def _check(self, i: int, output, out: Outcome) -> None:
        out.attempted += self.work(i)
        text = self.fingerprint(output)
        if self._first_output[i] is None:
            self._first_output[i] = text
            self.check_item(i, output, out)
            out.end_item(self.group(i))
        elif text != self._first_output[i]:
            out.fail(self.work(i), {"nondeterministic_output": 1},
                     self.describe(i))

    def start_pass(self) -> None:
        bvp_shooting.clear_cache()

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# law workloads

def _family_box(name: str, params: dict) -> tuple:
    """(lo, hi, min_separation, max_interval) of the default sampling plan
    intersected with the family's evaluation domain."""
    _, resolved = catalog.make_ode(name, params)
    dom = catalog.get_entry(name).domain(resolved)
    lo, hi = dom.alpha_beta_range or (-2.0, 2.0)
    return (max(lo, -2.0), min(hi, 2.0), max(0.05, dom.min_separation),
            dom.max_interval or math.inf)


@dataclasses.dataclass
class LawTarget:
    name: str
    params: dict
    evaluator: object
    ode: object
    lemma1_box: dict


def law_targets(mode: str) -> list[LawTarget]:
    families = NUMERIC_FAMILIES if mode == "numeric" else GRID
    make = (catalog.numeric_evaluator if mode == "numeric"
            else catalog.closed_evaluator)
    targets = []
    for name, params in families:
        # check_lemma1_equivalence ignores the family's domain: draw its
        # endpoints from the family's box, and keep oscillating families
        # off the first conjugate spacing.
        lo, hi, sep, cap = _family_box(name, params)
        half = min(hi, 0.47 * cap)
        targets.append(LawTarget(
            name, params, make(name, params),
            catalog.make_ode(name, params)[0],
            {"alpha_beta_range": (max(lo, -half), half),
             "min_separation": sep}))
    return targets


def law_pass(workload: str, seed: int) -> list[list]:
    """Tasks [law, target index, sample count, sample seed] of one pass."""
    rng = random.Random(f"{workload}/{seed}")
    numeric = workload == "laws-numeric"
    families = NUMERIC_FAMILIES if numeric else GRID
    laws = NUMERIC_LAWS if numeric else CLOSED_LAWS
    tasks = []
    for i in range(len(families)):
        sample_seed = rng.getrandbits(63)
        tasks += [[law, i, COUNT[workload], sample_seed] for law in laws]
    if not numeric:
        tasks.append(["angelesco", -1, COUNT[workload], rng.getrandbits(63)])
    return tasks


class LawRunner(Runner):
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        super().__init__(law_pass(workload, seed))
        self.mode = "numeric" if workload == "laws-numeric" else "closed"
        self.targets = law_targets(self.mode)
        self.calls = {
            "composition": functional_laws.check_composition,
            "boundary": functional_laws.check_boundary,
            "extension": functional_laws.check_extension,
            "lemma1": functional_laws.check_lemma1_equivalence,
            "angelesco": catalog.check_angelesco,
        }

    def trace_with(self, tracer) -> None:
        self.tracer = tracer
        self.calls = {law: tracer.law(law, fn)
                      for law, fn in self.calls.items()}
        for t in self.targets:
            ev = t.evaluator
            t.evaluator = dataclasses.replace(
                ev, eval_f=tracer.span("evaluator", ev.eval_f),
                eval_s=tracer.span("evaluator", ev.eval_s))

    def work(self, i: int) -> int:
        return self.items[i][2]

    def run_task(self, task, evaluator=None) -> list:
        law, i, count, sample_seed = task
        fn = self.calls[law]
        if law == "angelesco":
            return [fn(SampleSpec(count=count, seed=sample_seed))]
        target = self.targets[i]
        if law == "lemma1":
            return fn(target.ode,
                      SampleSpec(count=count, seed=sample_seed,
                                 **target.lemma1_box))
        reports = fn(evaluator or target.evaluator,
                     SampleSpec(count=count, seed=sample_seed))
        return reports if isinstance(reports, list) else [reports]

    def run_item(self, i: int) -> tuple:
        t0 = perf()
        reports = self.run_task(self.items[i])
        return perf() - t0, reports

    @staticmethod
    def fingerprint(reports) -> str:
        return json.dumps([r.to_json() for r in reports])

    def group(self, i: int) -> str:
        return self.items[i][0]

    def describe(self, i: int) -> str:
        law, t, _, sample_seed = self.items[i]
        family = (f" on {self.targets[t].name}{self.targets[t].params}"
                  if t >= 0 else "")
        return f"{law}{family} (sample seed {sample_seed})"

    def check_item(self, i: int, reports, out: Outcome) -> None:
        law, _, count, _ = self.items[i]
        # a sample can fail in several of one law's reports; count it once
        failed = min(count, sum(r.failures for r in reports))
        if failed:
            out.fail(failed, self.failure_codes(self.items[i]),
                     self.describe(i))
            return
        if law == "extension":
            checked, diags = reports[:1], reports[1:]
            ok = all(d.max_residual > e.max_residual
                     or d.max_residual == e.max_residual == 0.0
                     for d, e in zip(diags, diags[1:]))
        else:
            checked, ok = reports, True
        for r in checked:
            ok &= out.check(r.max_residual,
                            THRESHOLDS[(r.law_name, self.mode)])
        if not ok:
            out.fail(count, {"check_failed": 1}, self.describe(i))

    def failure_codes(self, task) -> dict:
        """LawReport keeps no error codes: re-run the task with the calls a
        sample can fail in wrapped, and collect the code of each error."""
        seen: Counter = Counter()

        def record(fn):
            def wrapper(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                except FebvpError as exc:
                    seen[exc.code] += 1
                    raise
                except (ArithmeticError, ValueError) as exc:
                    seen[type(exc).__name__] += 1
                    raise
            return wrapper

        law, i, _, _ = task
        if law in ("angelesco", "lemma1"):
            module = catalog if law == "angelesco" else functional_laws
            names = (("angelesco_residual", "conic_F") if law == "angelesco"
                     else ("solve_integral", "solve_neumann"))
            saved = {n: getattr(module, n) for n in names}
            try:
                for n, fn in saved.items():
                    setattr(module, n, record(fn))
                self.run_task(task)
            finally:
                for n, fn in saved.items():
                    setattr(module, n, fn)
        else:
            ev = self.targets[i].evaluator
            self.run_task(task, evaluator=dataclasses.replace(
                ev, eval_f=record(ev.eval_f), eval_s=record(ev.eval_s)))
        # a failure that raised nothing was a non-finite residual
        return dict(seen) or {"nonfinite_residual": 1}


# ---------------------------------------------------------------------------
# requests workload

def _num(value: float) -> str:
    # Fixed-point text, so argparse always reads a negative value as a
    # number (it takes "-1e-05" for an option).
    return f"{value:.6f}"


def _lhs(rng: random.Random, n: int, dims: int) -> list[list]:
    """n points of a Latin hypercube in [0, 1)^dims: in every dimension
    each of n equal strata holds exactly one point.  Stratified draws keep
    the cost of a pass far less dependent on the seed than independent
    draws would."""
    cols = []
    for _ in range(dims):
        strata = list(range(n))
        rng.shuffle(strata)
        cols.append([(k + rng.random()) / n for k in strata])
    return [list(row) for row in zip(*cols)]


class _Draws:
    """Scales successive uniforms of one Latin-hypercube point."""

    def __init__(self, point: list):
        self._it = iter(point)

    def __call__(self, lo: float, hi: float) -> float:
        return float(_num(lo + (hi - lo) * next(self._it)))

    def pair(self, box: tuple) -> tuple:
        lo, hi, sep, cap = box
        width = self(sep, min(cap, hi - lo))
        left = self(lo, hi - width)
        right = float(_num(left + width))
        return (left, right) if self(0.0, 1.0) < 0.5 else (right, left)


def _param_flags(params: dict) -> list:
    return [arg for key in sorted(params)
            for arg in ("--param", f"{key}={_num(params[key])}")]


# Each grid family as an --ode expression.  "-x" must be passed as
# "--ode=-x": argparse reads a separate "-x" as an option.
EXPRESSIONS = {"free_fall": ("g", {"g": -9.8}),
               "conic": ("k^2*x + g", None),
               "linear_basis": ("-x", {}),
               "oscillator": ("-x", {})}


# uniforms each kind of request consumes
REQUEST_DIMS = {"solve_catalog": 8, "solve_ode": 8, "solve_cauchy": 6,
                "solve_2d": 10, "geodesic": 7, "reconstruct_catalog": 3,
                "reconstruct_ode": 3}


def make_request(kind: str, family: tuple, draw: _Draws) -> dict:
    """One request: argv (a config file, if any, is written to the path
    that replaces "{config}"), plus what its output must match."""
    name, params = family
    if kind == "geodesic":
        a = [draw(-0.5, 0.5), draw(0.5, 2.0)]
        b = [draw(-0.5, 0.5), draw(0.5, 2.0)]
        rhos = sorted(draw(0.0, 1.0) for _ in range(3))
        argv = ["geodesic", "--connection", "half_plane",
                "--a", *map(_num, a), "--b", *map(_num, b)]
        for rho in rhos:
            argv += ["--rho", _num(rho)]
        return {"kind": kind, "argv": argv + ["--format", "json"],
                "a": a, "b": b, "rhos": rhos}
    if kind.startswith("reconstruct"):
        point = [draw(-1.0, 1.0) for _ in range(3)]
        if kind == "reconstruct_catalog":
            source = ["--catalog", name]
        else:
            expr, fixed = EXPRESSIONS[name]
            source, params = [f"--ode={expr}"], (
                params if fixed is None else fixed)
        argv = (["reconstruct", *source, *_param_flags(params),
                 "--point", *map(_num, point), "--format", "json"])
        return {"kind": kind, "argv": argv, "family": name,
                "params": params, "point": point}
    lo, hi, sep, cap = _family_box(name, params)
    if kind == "solve_2d":
        # x1'' = k^2 x1 + g beside x2'' = -x2, whose span stays below pi
        alpha, beta = draw.pair((lo, hi, sep, min(cap, 2.8)))
        a = [draw(-2.0, 2.0), draw(-2.0, 2.0)]
        b = [draw(-2.0, 2.0), draw(-2.0, 2.0)]
        taus = sorted(draw(lo, hi) for _ in range(3))
        config = {"ode": ["k^2*x1 + g", "-x2"], "params": params,
                  "neumann": [alpha, beta, a, b], "taus": taus,
                  "format": "json"}
        return {"kind": kind, "argv": ["solve", "--config", "{config}"],
                "config": config, "params": params,
                "data": ["neumann", alpha, beta, a, b], "taus": taus}
    if kind == "solve_cauchy":
        data = ["cauchy", draw(lo, hi), draw(-2.0, 2.0), draw(-2.0, 2.0)]
    else:
        data = ["neumann", *draw.pair((lo, hi, sep, cap)),
                draw(-2.0, 2.0), draw(-2.0, 2.0)]
    taus = sorted(draw(lo, hi) for _ in range(3))
    if kind == "solve_ode":
        expr, fixed = EXPRESSIONS[name]
        source, params = [f"--ode={expr}"], (
            params if fixed is None else fixed)
    else:
        source = ["--catalog", name]
    argv = ["solve", *source, *_param_flags(params), f"--{data[0]}",
            *map(_num, data[1:])]
    for tau in taus:
        argv += ["--tau", _num(tau)]
    return {"kind": kind, "argv": argv + ["--format", "json"],
            "family": name, "params": params, "data": data, "taus": taus}


# The oracles call febvp.closed_forms directly rather than through the
# catalog, whose closed-form names the traced run wraps and counts.
def _closed_F(name: str, params: dict):
    if name == "free_fall":
        g = params.get("g", -9.8)
        return lambda t, al, be, a, b: closed_forms.free_fall_F(
            g, t, al, be, a, b)
    if name == "conic":
        p = ConicParams(params["k"], params["g"])
        return lambda t, al, be, a, b: closed_forms.conic_F(
            p, t, al, be, a, b)
    return lambda t, al, be, a, b: closed_forms.linear_F(
        COS_SIN_BASIS, t, al, be, a, b)


def _closed_S(name: str, params: dict):
    if name == "free_fall":
        g = params.get("g", -9.8)
        return lambda t, al, be, a, v: closed_forms.free_fall_S(
            g, t, al, be, a, v)
    if name == "conic":
        p = ConicParams(params["k"], params["g"])
        return lambda t, al, be, a, v: closed_forms.conic_S(
            p, t, al, be, a, v)
    return closed_forms.cos_sin_S


def expected_rows(req: dict) -> list:
    """(row key, expected value, threshold) for every checked row."""
    kind = req["kind"]
    if kind == "geodesic":
        return [("point", half_plane_geodesic_point(req["a"], req["b"],
                                                       rho), GEODESIC_TOL)
                for rho in req["rhos"]]
    if kind.startswith("reconstruct"):
        tau, x, v = req["point"]
        truth = catalog.rhs_true(req["family"], req["params"])
        return [("f_reconstructed", truth(tau, x, v), RECONSTRUCT_TOL)]
    data, taus = req["data"], req["taus"]
    if kind == "solve_2d":
        alpha, beta, a, b = data[1:]
        params = req["params"]
        conic, osc = _closed_F("conic", params), _closed_F("linear_basis", {})
        return [("x", [conic(t, alpha, beta, a[0], b[0]),
                          osc(t, alpha, beta, a[1], b[1])], SOLVE_TOL)
                for t in taus]
    if data[0] == "cauchy":
        alpha, a, v = data[1:]
        s = _closed_S(req["family"], req["params"])
        return [("x", s(t, alpha, alpha, a, v), SOLVE_TOL) for t in taus]
    alpha, beta, a, b = data[1:]
    f = _closed_F(req["family"], req["params"])
    return [("x", f(t, alpha, beta, a, b), SOLVE_TOL) for t in taus]


def check_request(req: dict, rc: int, stdout: str, stderr: str,
                  out: Outcome) -> None:
    out.attempted += 1
    what = " ".join(req["argv"])
    if rc != 0:
        try:
            code = json.loads(stderr.strip().splitlines()[-1])["code"]
        except (ValueError, IndexError, KeyError, TypeError):
            code = f"exit_{rc}"
        out.fail(1, {code: 1}, what)
        return
    rows = json.loads(stdout)["rows"]
    expected = expected_rows(req)
    ok = len(rows) == len(expected)
    for row, (key, want, tol) in zip(rows, expected):
        error = float(np.max(np.abs(np.atleast_1d(row[key])
                                    - np.atleast_1d(want))))
        ok &= out.check(error, tol)
    if not ok:
        out.fail(1, {"check_failed": 1}, what)


def request_pass(seed: int) -> list[dict]:
    """REQUEST_BLOCKS blocks, each holding every kind once in shuffled
    order.  Each kind's requests cover their families equally often and
    take their numbers from one Latin hypercube."""
    rng = random.Random(f"requests/{seed}")
    by_kind = {}
    for kind in REQUEST_KINDS:
        families = (NUMERIC_FAMILIES if kind.startswith("reconstruct")
                    else GRID[1:10] if kind == "solve_2d" else GRID)
        picks = [families[k % len(families)] for k in range(REQUEST_BLOCKS)]
        rng.shuffle(picks)
        by_kind[kind] = [
            make_request(kind, family, _Draws(point)) for family, point in
            zip(picks, _lhs(rng, REQUEST_BLOCKS, REQUEST_DIMS[kind]))]
    reqs = []
    for _ in range(REQUEST_BLOCKS):
        kinds = list(REQUEST_KINDS)
        rng.shuffle(kinds)
        reqs += [by_kind[kind].pop() for kind in kinds]
    return reqs


class RequestRunner(Runner):
    workload = "requests"

    def __init__(self, seed: int, workdir: str):
        super().__init__(request_pass(seed))
        self.config_path = os.path.join(workdir, f"request-{os.getpid()}.json")
        self.main = cli.main

    def trace_with(self, tracer) -> None:
        self.tracer = tracer
        self.main = tracer.span("cli.main", cli.main)

    def work(self, i: int) -> int:
        return 1

    def run_item(self, i: int) -> tuple:
        req = self.items[i]
        argv = req["argv"]
        if "config" in req:
            with open(self.config_path, "w", encoding="utf-8") as fh:
                json.dump(req["config"], fh)
            argv = [self.config_path if a == "{config}" else a for a in argv]
        bvp_shooting.clear_cache()
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            t0 = perf()
            rc = self.main(argv)
            seconds = perf() - t0
        return seconds, (rc, stdout.getvalue(), stderr.getvalue())

    @staticmethod
    def fingerprint(output) -> str:
        return repr(output)

    def group(self, i: int) -> str:
        return self.items[i]["kind"]

    def describe(self, i: int) -> str:
        return " ".join(self.items[i]["argv"])

    def check_item(self, i: int, output, out: Outcome) -> None:
        check_request(self.items[i], *output, out)

    def close(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.config_path)


def make_runner(workload: str, seed: int, workdir: str) -> Runner:
    if workload == "requests":
        return RequestRunner(seed, workdir)
    return LawRunner(workload, seed)


def scaled_times(passes: list[list]) -> list[list]:
    """Each pass's call times at the reference host speed (hostspeed.py)."""
    scales = iter(hostspeed.local_scales(
        [kernel_s for times in passes for _, kernel_s in times]))
    return [[seconds * next(scales) for seconds, _ in times]
            for times in passes]


def measure(runner: Runner, seconds: float, traced: bool,
            workdir: str) -> dict:
    """Run the workload for `seconds`.  A traced run repeats the untraced
    pass for half the time, then runs one pass traced."""
    from tracing import PER_LAYER, Tracer

    n = len(runner.items)
    out = Outcome()
    hostspeed.time_kernel()  # warm the kernel up
    start = perf()
    passes = runner.run_passes(start + seconds / (2 if traced else 1), out)
    totals = [sum(times) for times in scaled_times(passes)]
    result = {"passes": len(passes), "items": n}
    if not traced:
        work = len(passes) * sum(map(runner.work, range(n)))
        calls = [t for times in scaled_times(passes) for t in times]
        wall = [seconds for times in passes for seconds, _ in times]
        result["metrics"] = {
            "samples_per_s": work / sum(totals),
            "request_ms_p50": 1e3 * statistics.median(calls),
            "request_ms_p95": 1e3 * statistics.quantiles(calls, n=20)[18],
            # no margins when every item failed; the run then exits 1
            # with its failure codes
            "accuracy_margin_decades": (statistics.fmean(out.margins)
                                        if out.margins else -MARGIN_CAP),
            "peak_rss_mb": peak_rss_mb(),
        }
        # the same figures unscaled, and the host speed they were taken at
        result["wall"] = {
            "samples_per_s": work / sum(wall),
            "request_ms_p50": 1e3 * statistics.median(wall),
            "request_ms_p95": 1e3 * statistics.quantiles(wall, n=20)[18],
            "kernel_ms": 1e3 * statistics.median(
                kernel_s for times in passes for _, kernel_s in times),
        }
    else:
        tracer = Tracer()
        tracer.install()
        runner.trace_with(tracer)
        traced_pass = runner.run_passes(perf(), out)[:1]
        tracer.write(os.path.join(workdir, f"trace-{runner.workload}.npz"))
        values = tracer.metrics()
        values["trace.overhead_ratio"] = (
            sum(scaled_times(traced_pass)[0]) / statistics.median(totals)
            - 1.0)
        result["per_layer"] = {name: [values[name], unit]
                               for name, unit in PER_LAYER.items()}
    runner.close()
    result.update(min_margin=min(out.margins, default=math.nan),
                  group_min=out.group_min,
                  attempted=out.attempted, failed=out.failed,
                  codes=dict(out.codes), problems=out.problems)
    return result
