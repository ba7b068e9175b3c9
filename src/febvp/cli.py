"""Command-line interface.

Four subcommands: ``solve`` evaluates two-point or initial-data solutions
at requested times, ``verify`` samples functional-law residuals over a
catalog family and reports them, ``reconstruct`` rebuilds the right-hand
side from the solution operator by second differences, and ``geodesic``
evaluates the interpolation map of a connection.

Results go to stdout as a table, a single JSON document, or RFC-4180 CSV.
Errors go to stderr as one JSON object {"code", "message", "context"}.
Exit status: 0 success, 1 usage or configuration error, 2 numeric failure
(no convergence, conjugate interval, residual above threshold).

A JSON config file (--config) provides defaults for most options; explicit
flags win.  The environment variable FEBVP_SEED supplies the default seed.
Every option is one row of _OPTIONS, which builds the argparse parsers and
checks a flag value and a config-file value with the same parser.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import catalog as _catalog
from .bvp_shooting import (DEFAULT_SHOOTING, IntegralConditions, NeumannConditions,
                           ShootingConfig, eval_state, solve_integral, solve_neumann)
from .errors import FebvpError
from .functional_laws import (DependenceEvaluator, EvalDomain, LawReport, SampleSpec,
                              check_boundary, check_composition, check_extension,
                              check_lemma1_equivalence, evaluator_from_ode)
from .geodesics import (GeodesicMap, check_klapka, flat_connection, half_plane_connection,
                        jensen_midpoint_check)
from .ode_core import SecondOrderOde
from .reconstruction import ReconstructionConfig, reconstruct_f, solver_extension
from .rhs_parser import ParseError, bind, parse

__all__ = ["RunConfig", "main", "KNOWN_LAWS"]

_FORMATS = ("table", "json", "csv")
_CONNECTIONS = ("flat", "half_plane")


class _UsageError(ValueError):
    """Configuration or argument problem; maps to exit status 1, as every
    ValueError that reaches main does."""

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context


@dataclass
class RunConfig:
    """What the laws of ``verify`` read: the ode source, the sampling
    plan, the solver controls, and the law settings."""

    catalog_name: Optional[str]
    params: dict
    ode: Optional[SecondOrderOde]
    sampling: SampleSpec
    shooting: ShootingConfig
    mode: str
    connection: str
    rho_range: tuple
    domain_override: dict
    thresholds: dict


# ---------------------------------------------------------------------------
# output helpers

def _emit_error(code: str, message: str, context: Optional[dict] = None) -> None:
    print(json.dumps({"code": code, "message": message, "context": context or {}}),
          file=sys.stderr)


def _plain(obj):
    """Recursively convert numpy values so json.dumps accepts them."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    return obj


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return " ".join(_cell(v) for v in value)
    if value is None:
        return ""
    return str(value)


def _scalarize(vec: np.ndarray):
    return float(vec[0]) if vec.shape == (1,) else [float(c) for c in vec]


def _emit_doc(fmt: str, doc, columns: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    """doc as JSON, or columns and rows as CSV or as an aligned table."""
    if fmt == "json":
        print(json.dumps(doc, indent=2))
    elif fmt == "csv":
        csv.writer(sys.stdout).writerows([columns, *rows])
    else:
        widths = [max(map(len, cells)) for cells in zip(columns, *rows)]
        for row in [columns, *rows]:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


# ---------------------------------------------------------------------------
# value parsers: each takes a flag or config-file value and the name to
# report it under, and returns the checked value or raises _UsageError

def _convert(kind: type, noun: str) -> Callable:
    def parse(value, what: str):
        try:
            number = kind(value)
        except (TypeError, ValueError, OverflowError):
            number = None
        # a bool is no number, and a count from a file keeps no fraction
        if (number is None or isinstance(value, bool)
                or kind is int and isinstance(value, float) and number != value):
            raise _UsageError(f"{what} must be {noun}, got {value!r}")
        return number
    return parse


_real = _convert(float, "a real number")
_integer = _convert(int, "an integer")


def _bounded(test: Callable, noun: str) -> Callable:
    def parse(value, what: str) -> float:
        number = _real(value, what)
        if not test(number):
            raise _UsageError(f"{what} must be {noun}, got {value!r}")
        return number
    return parse


_finite = _bounded(math.isfinite, "a finite number")
_threshold = _bounded(lambda number: number >= 0, "a number >= 0")


def _text(value, what: str) -> str:
    if not isinstance(value, str):
        raise _UsageError(f"{what} must be a string, got {value!r}")
    return value


def _one_of(choices: tuple, value, what: str):
    if value not in choices:
        raise _UsageError(f"{what} must be one of {', '.join(choices)}, got {value!r}")
    return value


def _tuple(n: int) -> Callable:
    def parse(value, what: str) -> list:
        if not (isinstance(value, (list, tuple)) and len(value) == n):
            raise _UsageError(f"{what} must be a list of {n} values, got {value!r}")
        return list(value)
    return parse


def _each(item: Callable) -> Callable:
    def parse(value, what: str) -> list:
        if not isinstance(value, (list, tuple)):
            raise _UsageError(f"{what} must be a list, got {value!r}")
        return [item(v, f"{what}[{i}]") for i, v in enumerate(value)]
    return parse


def _range(value, what: str) -> tuple:
    lo, hi = (_real(v, what) for v in _tuple(2)(value, what))
    if not lo < hi:
        raise _UsageError(f"{what} must satisfy low < high, got {lo} {hi}")
    return (lo, hi)


def _mapping(noun: str, item: Callable, known: Callable = None) -> Callable:
    """A JSON object of name -> value (--param and --threshold give theirs
    as NAME=VALUE pairs); known() lists the accepted names, if any."""
    def parse(value, what: str) -> dict:
        if not isinstance(value, dict):
            raise _UsageError(f"config {what} must be an object mapping {noun} names to numbers")
        for name in value:
            if known is not None and name not in known():
                raise _UsageError(f"unknown {noun} name {name!r} "
                                  f"(available: {', '.join(known())})")
        return {name: item(v, f"{noun} {name}") for name, v in value.items()}
    return parse


def _parse_vec(text, what: str, dim: int = 2) -> np.ndarray:
    """Scalar or comma-separated component list, validated against dim."""
    parts = list(text) if isinstance(text, (list, tuple)) else str(text).split(",")
    vec = np.array([_real(p, what) for p in parts])
    if vec.shape != (dim,):
        raise _UsageError(f"{what} must have {dim} component(s), got {len(vec)}")
    return vec


def _exprs(value, what: str) -> list:
    """One rhs expression, or one per component."""
    return _each(_text)([value] if isinstance(value, str) else value, what)


def _laws(value, what: str) -> list:
    if isinstance(value, str):
        value = [w.strip() for w in value.split(",") if w.strip()]
    laws = _each(_text)(value, what)
    if not laws:
        raise _UsageError("no laws requested")
    for law in laws:
        if law not in _LAWS:
            raise _UsageError(f"unknown law {law!r} (available: {', '.join(KNOWN_LAWS)})")
    return laws


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _UsageError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise _UsageError(f"config file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise _UsageError("config file must hold a JSON object")
    return doc


def _build_expression_ode(exprs: Sequence[str], params: Mapping) -> SecondOrderOde:
    dim = len(exprs)
    names = tuple(sorted(params))
    parsed = []
    for text in exprs:
        try:
            parsed.append(parse(text, dim=dim, params=names))
        except ParseError as exc:
            pos = exc.context.get("position")
            caret = (f"\n  {text}\n  {' ' * pos}^"
                     if isinstance(pos, int) and 0 <= pos <= len(text) else "")
            raise _UsageError(f"cannot parse ode expression: {exc}{caret}",
                              expression=text, **_plain(exc.context))
    label = "; ".join(exprs)
    if dim == 1:
        return SecondOrderOde.from_scalar(bind(parsed[0], dict(params)), label=label)
    rhs_list = bind(parsed, dict(params))
    return SecondOrderOde(dim=dim, label=label, rhs1=rhs_list,
                          rhs=lambda tau, x, v: np.asarray(rhs_list(tau, x, v), dtype=float))


# ---------------------------------------------------------------------------
# the laws of verify

def _make_evaluator(cfg: RunConfig) -> DependenceEvaluator:
    if cfg.catalog_name is not None:
        entry = _catalog.get_entry(cfg.catalog_name)
        if cfg.mode == "closed":
            if entry.closed_f is None:
                raise _UsageError(f"family '{entry.name}' has no closed form; "
                                  "use --mode numeric")
            ev = _catalog.closed_evaluator(cfg.catalog_name, cfg.params)
        else:
            ev = _catalog.numeric_evaluator(cfg.catalog_name, cfg.params, cfg.shooting)
        return dataclasses.replace(
            ev, domain=dataclasses.replace(ev.domain, **cfg.domain_override))
    if cfg.mode == "closed":
        raise _UsageError("expression odes have no closed form; use --mode numeric")
    return evaluator_from_ode(cfg.ode, cfg.shooting, domain=EvalDomain(**cfg.domain_override),
                              label=cfg.ode.label)


def _geodesic_map(connection: str, shooting: ShootingConfig) -> GeodesicMap:
    conn = half_plane_connection() if connection == "half_plane" else flat_connection()
    return GeodesicMap(conn, shooting)


def _run_extension(cfg: RunConfig) -> list:
    ev = _make_evaluator(cfg)
    if ev.eval_s is None:
        raise _UsageError("the extension law needs a smooth extension; this source "
                          "does not provide one")
    return check_extension(ev, cfg.sampling)


def _run_jensen(cfg: RunConfig) -> list:
    if cfg.connection != "flat":
        raise _UsageError("the jensen midpoint law assumes an interpolation map "
                          "affine in its endpoints; use --connection flat")
    return [jensen_midpoint_check(_geodesic_map(cfg.connection, cfg.shooting),
                                  cfg.sampling, cfg.rho_range)]


def _run_angelesco(cfg: RunConfig) -> list:
    pin = (cfg.catalog_name == "conic"
           or (cfg.catalog_name is None and bool(cfg.params)))
    return [_catalog.check_angelesco(cfg.sampling, cfg.params if pin else None)]


def _diagonals_shrink(reports: list) -> bool:
    """Extension's diagonal reports: no failures, finite, and strictly
    decreasing with eps.  A residual that is exactly zero cannot decrease
    further; only a nonzero plateau signals a discontinuous extension."""
    diags = reports[1:]
    return (all(d.failures == 0 and np.isfinite(d.max_residual) for d in diags)
            and all(d.max_residual > e.max_residual
                    or d.max_residual == e.max_residual == 0.0
                    for d, e in zip(diags, diags[1:])))


class _Law(NamedTuple):
    """run(cfg) returns the law's reports.  thresholds maps each
    --threshold key, in report order, to its default: one literal, or one
    per mode or per connection.  A run passes when each of those reports
    is free of failures and within its threshold, and passes(reports)
    holds."""

    run: Callable[[RunConfig], list]
    needs_ode: bool
    thresholds: dict
    passes: Callable[[list], bool] = lambda reports: True


_LAWS = {
    "composition": _Law(
        lambda cfg: [check_composition(_make_evaluator(cfg), cfg.sampling)],
        True, {"composition": {"closed": 1e-10, "numeric": 1e-7}}),
    "boundary": _Law(
        lambda cfg: [check_boundary(_make_evaluator(cfg), cfg.sampling)],
        True, {"boundary": {"closed": 1e-9, "numeric": 1e-8}}),
    "extension": _Law(_run_extension, True, {"extension": 1e-8}, _diagonals_shrink),
    "lemma1": _Law(
        lambda cfg: check_lemma1_equivalence(cfg.ode, cfg.sampling, cfg.shooting),
        True, {"lemma1_agreement": 1e-9, "lemma1_quadrature": 1e-8}),
    "klapka": _Law(
        lambda cfg: [check_klapka(_geodesic_map(cfg.connection, cfg.shooting),
                                  cfg.sampling, cfg.rho_range)],
        False, {"klapka": {"flat": 1e-12, "half_plane": 1e-6}}),
    "jensen": _Law(_run_jensen, False, {"jensen": 1e-12}),
    "angelesco": _Law(_run_angelesco, False, {"angelesco": 1e-10}),
}

KNOWN_LAWS = tuple(_LAWS)


def _threshold_keys() -> list:
    return [key for law in _LAWS.values() for key in law.thresholds]


def _limit(key: str, default, cfg: RunConfig) -> float:
    if isinstance(default, dict):
        default = default.get(cfg.mode, default.get(cfg.connection))
    return cfg.thresholds.get(key, default)


def _clean(report: LawReport, limit: float) -> bool:
    return (report.failures == 0 and np.isfinite(report.max_residual)
            and report.max_residual <= limit)


# ---------------------------------------------------------------------------
# the option table

class _Opt:
    """One option: its flag, its config-file key (None for --config), the
    subcommands that take it, the parser that checks its flag or file value
    (by default, membership in kw's choices), its default (a callable is
    called), and its argparse keywords.  A merged option's NAME=VALUE flag
    entries update the file's object instead of replacing it."""

    def __init__(self, flag: str, key: Optional[str], commands: tuple,
                 parse: Optional[Callable] = None, default=None, merge: bool = False, **kw):
        self.flag, self.key, self.commands, self.default = flag, key, commands, default
        self.parse = parse or functools.partial(_one_of, kw.get("choices"))
        self.merge, self.kw = merge, kw
        self.dest = flag[2:].replace("-", "_")


_ALL = ("solve", "verify", "reconstruct", "geodesic")
_SOURCE = ("solve", "verify", "reconstruct")
_RANGE = dict(nargs=2, type=float, metavar=("LO", "HI"))

_OPTIONS = (
    _Opt("--config", None, _ALL, help="JSON file with option defaults"),
    _Opt("--format", "format", _ALL, None, "table", choices=_FORMATS,
         help="output format (default table)"),
    _Opt("--seed", "seed", _ALL, _integer, lambda: os.environ.get("FEBVP_SEED", 0),
         type=int, help="PRNG seed (default: FEBVP_SEED or 0)"),
    _Opt("--catalog", "catalog", _SOURCE, _text, help="catalog family name"),
    _Opt("--param", "params", _SOURCE, _mapping("parameter", _real), merge=True,
         action="append", metavar="NAME=VALUE",
         help="family or expression parameter (repeatable)"),
    _Opt("--ode", "ode", _SOURCE, _exprs, action="append", metavar="EXPR",
         help="rhs expression; repeat for vector components; "
         "write one that starts with '-' as --ode=-x"),
    _Opt("--newton-tol", "newton_tol", _ALL, _real, type=float),
    _Opt("--rel-tol", "rel_tol", _ALL, _real, type=float),
    _Opt("--abs-tol", "abs_tol", _ALL, _real, type=float),
    _Opt("--singular-floor", "singular_floor", _ALL, _real, type=float,
         help="conjugate-interval sensitivity: the shooting Jacobian is declared "
         "singular below this fraction of its natural scale"),
    _Opt("--neumann", "neumann", ("solve",), _tuple(4), nargs=4,
         metavar=("ALPHA", "BETA", "A", "B"), help="endpoint data x(alpha)=A, x(beta)=B"),
    _Opt("--integral", "integral", ("solve",), _tuple(4), nargs=4,
         metavar=("ALPHA", "BETA", "A", "V"), help="left value A and average slope V"),
    _Opt("--cauchy", "cauchy", ("solve",), _tuple(3), nargs=3,
         metavar=("ALPHA", "A", "V"), help="initial value A and initial velocity V"),
    _Opt("--tau", "taus", ("solve",), _each(_finite), [], action="append", type=float,
         help="evaluation time (repeatable)"),
    _Opt("--samples", "samples", ("verify",), _integer, 200, type=int,
         help="sample count (default 200)"),
    _Opt("--tau-range", "tau_range", ("verify",), _range, **_RANGE),
    _Opt("--alpha-beta-range", "alpha_beta_range", ("verify",), _range, **_RANGE),
    _Opt("--ab-range", "ab_range", ("verify",), _range, **_RANGE),
    _Opt("--min-separation", "min_separation", ("verify",), _real, type=float),
    _Opt("--max-interval", "max_interval", ("verify",), _real, type=float,
         help="override the family's endpoint span cap"),
    _Opt("--laws", "laws", ("verify",), _laws, "composition,boundary",
         help="comma-separated subset of: " + ", ".join(KNOWN_LAWS)),
    _Opt("--mode", "mode", ("verify",), choices=("closed", "numeric"),
         help="evaluate closed forms or the shooting solver"),
    _Opt("--connection", "connection", ("verify",), None, "flat", choices=_CONNECTIONS,
         help="connection for klapka/jensen (default flat)"),
    _Opt("--rho-range", "rho_range", ("verify",), _range, (0.0, 1.0), **_RANGE),
    _Opt("--threshold", "thresholds", ("verify",),
         _mapping("threshold", _threshold, _threshold_keys), merge=True,
         action="append", metavar="LAW=VALUE",
         help="override a pass threshold (repeatable; LAW one of: "
         + ", ".join(_threshold_keys()) + ")"),
    _Opt("--point", "points", ("reconstruct",), _each(_tuple(3)), [], action="append",
         nargs=3, metavar=("TAU", "X", "V"),
         help="state to reconstruct at (repeatable; X and V are comma-separated "
         "for vector odes)"),
    _Opt("--fd-step", "fd_step", ("reconstruct",), _real, type=float),
    _Opt("--threshold", "threshold", ("reconstruct",), _threshold, 1e-4, type=float,
         help="abs error gate when the true rhs is known (default 1e-4)"),
    _Opt("--connection", "connection", ("geodesic",), None, "flat", choices=_CONNECTIONS,
         help="default flat"),
    _Opt("--a", "a", ("geodesic",), _parse_vec, nargs=2, type=float,
         metavar=("A1", "A2"), help="start point"),
    _Opt("--b", "b", ("geodesic",), _parse_vec, nargs=2, type=float,
         metavar=("B1", "B2"), help="end point"),
    _Opt("--rho", "rho", ("geodesic",), _each(_finite), [0.5], action="append",
         type=float, help="interpolation parameter (repeatable)"),
)


def _pair(item: str, opt: _Opt) -> tuple:
    name, sep, value = item.partition("=")
    if not sep or not name:
        raise _UsageError(f"{opt.flag} expects {opt.kw['metavar']}, got {item!r}")
    return name, value


def _resolve(opt: _Opt, args: argparse.Namespace, config: dict):
    """The flag's value, else the config file's, else the default, checked
    by opt.parse."""
    flag, value = getattr(args, opt.dest), config.get(opt.key)
    if opt.merge:
        pairs = dict(_pair(item, opt) for item in flag or ())
        return {**opt.parse({} if value is None else value, opt.key),
                **opt.parse(pairs, opt.key)}
    if flag is not None:
        value = flag
    if value is None:
        value = opt.default() if callable(opt.default) else opt.default
    return None if value is None else opt.parse(value, opt.key)


# ---------------------------------------------------------------------------
# subcommands: each takes the resolved options, keyed by config key

def _given(o: dict, *keys: str) -> dict:
    return {key: o[key] for key in keys if o[key] is not None}


def _shooting(o: dict) -> ShootingConfig:
    integrator = dataclasses.replace(DEFAULT_SHOOTING.integrator,
                                     **_given(o, "rel_tol", "abs_tol"))
    return dataclasses.replace(DEFAULT_SHOOTING, integrator=integrator,
                               **_given(o, "newton_tol", "singular_floor"))


def _ode_source(o: dict) -> tuple:
    """(catalog name or None, params, ode) from --catalog or --ode."""
    name, exprs = o["catalog"], o["ode"]
    if name and exprs:
        raise _UsageError("--catalog and --ode are mutually exclusive")
    if name:
        ode, params = _catalog.make_ode(name, o["params"])
        return name, params, ode
    if exprs:
        return None, o["params"], _build_expression_ode(exprs, o["params"])
    raise _UsageError("an ODE is required: pass --catalog NAME or --ode EXPR")


# condition kind -> (class, names of its two data values)
_CONDITIONS = {
    "neumann": (NeumannConditions, "endpoint value A", "endpoint value B"),
    "integral": (IntegralConditions, "left value A", "average slope V"),
    "cauchy": (IntegralConditions, "initial value A", "initial velocity V"),
}


def _solve(o: dict) -> int:
    shooting = _shooting(o)
    ode = _ode_source(o)[2]
    given = [kind for kind in _CONDITIONS if o[kind] is not None]
    if len(given) != 1:
        raise _UsageError("exactly one of --neumann, --integral, --cauchy is required")
    make, what_a, what_b = _CONDITIONS[given[0]]
    data = o[given[0]]
    if given[0] == "cauchy":  # initial data: beta = alpha
        data = data[:1] + data
    conditions = make(_real(data[0], "alpha"), _real(data[1], "beta"),
                      _parse_vec(data[2], what_a, ode.dim), _parse_vec(data[3], what_b, ode.dim))
    if not o["taus"]:
        raise _UsageError("at least one --tau is required")
    solve = solve_neumann if make is NeumannConditions else solve_integral
    result = solve(ode, conditions, shooting)
    taus = sorted(o["taus"])
    states = [eval_state(ode, result.trajectory, tau, shooting.integrator) for tau in taus]
    doc = {"command": "solve", "ode": ode.label, "iterations": result.iterations,
           "final_residual": float(result.final_residual),
           "rows": [{"tau": tau, "x": _scalarize(st.x), "v": _scalarize(st.v)}
                    for tau, st in zip(taus, states)]}
    n = ode.dim
    columns = ["tau"] + ([f"{s}{i + 1}" for s in "xv" for i in range(n)] if n > 1 else ["x", "v"])
    _emit_doc(o["format"], doc, columns,
              [[_cell(tau)] + [_cell(float(c)) for c in (*st.x, *st.v)]
               for tau, st in zip(taus, states)])
    return 0


def _verify(o: dict) -> int:
    laws = o["laws"]
    if o["catalog"] or o["ode"] or any(_LAWS[law].needs_ode for law in laws):
        name, params, ode = _ode_source(o)
    else:
        name, params, ode = None, o["params"], None
    sampling = SampleSpec(count=o["samples"], seed=o["seed"], **_given(
        o, "tau_range", "alpha_beta_range", "ab_range", "min_separation"))
    closed = name is not None and _catalog.get_entry(name).closed_f is not None
    cfg = RunConfig(catalog_name=name, params=params, ode=ode, sampling=sampling,
                    shooting=_shooting(o), mode=o["mode"] or ("closed" if closed else "numeric"),
                    connection=o["connection"], rho_range=o["rho_range"],
                    domain_override=_given(o, "max_interval"), thresholds=o["thresholds"])
    reports: list[LawReport] = []
    all_ok = True
    for law in map(_LAWS.get, laws):
        law_reports = law.run(cfg)
        reports.extend(law_reports)
        limits = [_limit(key, default, cfg) for key, default in law.thresholds.items()]
        all_ok = (all_ok and law.passes(law_reports)
                  and all(map(_clean, law_reports, limits)))
    columns = ["law", "samples", "max_residual", "mean_residual", "failures", "worst_case"]
    cells = [[r.law_name, str(r.samples), _cell(float(r.max_residual)),
              _cell(float(r.mean_residual)), str(r.failures), json.dumps(_plain(r.worst_case))]
             for r in reports]
    _emit_doc(o["format"], [r.to_json() for r in reports], columns, cells)
    return 0 if all_ok else 2


def _reconstruct(o: dict) -> int:
    shooting = _shooting(o)
    name, params, ode = _ode_source(o)
    recon = ReconstructionConfig(**_given(o, "fd_step"))
    points = [(_real(tau, "point tau"), _parse_vec(x, "point x", ode.dim),
               _parse_vec(v, "point v", ode.dim)) for tau, x, v in o["points"]]
    if not points:
        raise _UsageError("at least one --point TAU X V is required")
    truth = ode.rhs1 if name else None
    S, eff = solver_extension(ode, recon, shooting)
    rows = []
    for tau, x, v in points:
        rebuilt = reconstruct_f(S, tau, x, v, eff)
        expected = err = None
        if truth is not None:
            expected = np.atleast_1d(np.asarray(
                truth(tau, float(x[0]), float(v[0])) if ode.dim == 1 else truth(tau, x, v),
                dtype=float))
            err = float(np.max(np.abs(rebuilt - expected)))
        rows.append({"tau": tau, "x": _scalarize(x), "v": _scalarize(v),
                     "f_reconstructed": _scalarize(rebuilt),
                     "f_true": None if expected is None else _scalarize(expected),
                     "abs_err": err})
    doc = {"command": "reconstruct", "ode": ode.label, "fd_step": eff.fd_step, "rows": rows}
    _emit_doc(o["format"], doc, list(rows[0]),
              [[_cell(value) for value in row.values()] for row in rows])
    # from 0.0 on, so that a NaN error never becomes the maximum
    worst = max([0.0] + [row["abs_err"] for row in rows if truth is not None])
    if worst > o["threshold"]:
        _emit_error("reconstruction_mismatch",
                    f"max |f_reconstructed - f_true| = {worst!r} exceeds "
                    f"threshold {o['threshold']!r}",
                    {"max_abs_err": worst, "threshold": o["threshold"]})
        return 2
    return 0


def _geodesic(o: dict) -> int:
    gmap = _geodesic_map(o["connection"], _shooting(o))
    a, b = o["a"], o["b"]
    if a is None or b is None:
        raise _UsageError("--a and --b are required")
    if o["connection"] == "half_plane" and (a[1] <= 0 or b[1] <= 0):
        raise _UsageError("half-plane points need a positive second component")
    rows = [{"rho": rho, "point": [float(c) for c in gmap.eval(a, b, rho)]}
            for rho in sorted(o["rho"])]
    doc = {"command": "geodesic", "connection": o["connection"],
           "a": [float(c) for c in a], "b": [float(c) for c in b], "rows": rows}
    columns = ["rho"] + [f"point{i + 1}" for i in range(gmap.connection.dim)]
    _emit_doc(o["format"], doc, columns,
              [[_cell(row["rho"])] + [_cell(c) for c in row["point"]] for row in rows])
    return 0


class _Command(NamedTuple):
    help: str
    run: Callable[[dict], int]


_COMMANDS = {
    "solve": _Command("solve one problem and print (tau, x, v) rows", _solve),
    "verify": _Command("sample law residuals and report them", _verify),
    "reconstruct": _Command("rebuild the rhs from the solution operator at given states",
                            _reconstruct),
    "geodesic": _Command("evaluate a connection's interpolation map", _geodesic),
}


# ---------------------------------------------------------------------------
# argument parsing

# argparse reads an argument that starts with "-" as an option unless its
# negative-number pattern matches, and its own pattern takes only "-1" and
# "-1.5".  This one also takes exponents, comma lists and the names float()
# reads ("-1e-3", "-0.3,0.4", "-inf", "-nan"), so that values like these
# need no "--flag=value" form and reach the value checks.
_NEGATIVE_VALUE = re.compile(
    r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|(?i:inf|infinity|nan))(,.*)?$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE

    def error(self, message):
        raise _UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built from _OPTIONS on first use and
    shared for the rest of the process, so callers must not change it."""
    parser = _Parser(prog="febvp", description=__doc__.split("\n\n")[0])
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, command in _COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        for opt in _OPTIONS:
            if name in opt.commands:
                sub.add_argument(opt.flag, **opt.kw)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required: solve, verify, "
                              "reconstruct, or geodesic")
        config = _load_config(args.config) if args.config else {}
        return _COMMANDS[args.command].run({
            opt.key: _resolve(opt, args, config) for opt in _OPTIONS
            if opt.key and args.command in opt.commands})
    except ValueError as exc:
        # a _UsageError, or a config dataclass rejecting a value
        _emit_error("config_error", str(exc), _plain(getattr(exc, "context", {})))
        return 1
    except FebvpError as exc:
        _emit_error(exc.code, str(exc), _plain(exc.context))
        return 2


if __name__ == "__main__":
    sys.exit(main())
