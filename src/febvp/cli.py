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
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import catalog as _catalog
from .bvp_shooting import (
    DEFAULT_SHOOTING,
    IntegralConditions,
    NeumannConditions,
    ShootingConfig,
    eval_state,
    solve_integral,
    solve_neumann,
)
from .errors import FebvpError
from .functional_laws import (
    DependenceEvaluator,
    EvalDomain,
    LawReport,
    SampleSpec,
    check_boundary,
    check_composition,
    check_extension,
    check_lemma1_equivalence,
    evaluator_from_ode,
)
from .geodesics import (
    GeodesicMap,
    check_klapka,
    flat_connection,
    half_plane_connection,
    jensen_midpoint_check,
)
from .ode_core import SecondOrderOde
from .reconstruction import ReconstructionConfig, reconstruct_f, solver_extension
from .rhs_parser import ParseError, bind, parse

__all__ = ["RunConfig", "cmd_solve", "cmd_verify", "cmd_reconstruct",
           "cmd_geodesic", "main", "KNOWN_LAWS"]

_FORMATS = ("table", "json", "csv")


class _UsageError(Exception):
    """Configuration or argument problem; maps to exit status 1."""

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context


@dataclass
class RunConfig:
    """Everything a subcommand needs, resolved from flags, config file,
    environment, and defaults (in that precedence order)."""

    output_format: str = "table"
    seed: int = 0
    catalog_name: Optional[str] = None
    params: dict = field(default_factory=dict)
    exprs: Optional[list] = None
    ode: Optional[SecondOrderOde] = None
    conditions: object = None
    taus: list = field(default_factory=list)
    sampling: SampleSpec = field(
        default_factory=lambda: SampleSpec(count=200, seed=0))
    domain_override: dict = field(default_factory=dict)
    mode: str = "closed"
    connection: str = "flat"
    rho_range: tuple = (0.0, 1.0)
    thresholds: dict = field(default_factory=dict)
    shooting: ShootingConfig = field(
        default_factory=lambda: DEFAULT_SHOOTING)
    recon: ReconstructionConfig = field(
        default_factory=ReconstructionConfig)
    recon_threshold: float = 1e-4


# ---------------------------------------------------------------------------
# output helpers

def _emit_error(code: str, message: str, context: Optional[dict] = None) -> None:
    doc = {"code": code, "message": message, "context": context or {}}
    print(json.dumps(doc), file=sys.stderr)


def _numeric_exit(exc: FebvpError) -> int:
    _emit_error(exc.code, str(exc), _plain(getattr(exc, "context", {})))
    return 2


def _plain(obj):
    """Recursively convert numpy values so json.dumps accepts them."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [float(c) for c in obj]
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


def _print_table(columns: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    widths = [len(c) for c in columns]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    print("  ".join(c.ljust(widths[i]) for i, c in enumerate(columns)).rstrip())
    for row in rows:
        print("  ".join(cell.ljust(widths[i])
                        for i, cell in enumerate(row)).rstrip())


def _print_csv(columns: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    writer = csv.writer(sys.stdout)
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2))


def _emit_doc(fmt: str, doc, columns, rows) -> None:
    if fmt == "json":
        _print_json(doc)
    elif fmt == "csv":
        _print_csv(columns, rows)
    else:
        _print_table(columns, rows)


# ---------------------------------------------------------------------------
# value parsing

def _parse_float(text, what: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        raise _UsageError(f"{what} must be a real number, got {text!r}")


def _parse_positive(text, what: str) -> float:
    """A finite number > 0: a NaN Newton tolerance never compares as met,
    and a NaN or negative singular floor turns off the conjugate-point
    certificate."""
    value = _parse_float(text, what)
    if not (math.isfinite(value) and value > 0):
        raise _UsageError(f"{what} must be a finite number > 0, got {text!r}")
    return value


def _parse_vec(text, dim: int, what: str) -> np.ndarray:
    """Scalar or comma-separated component list, validated against dim."""
    if isinstance(text, (list, tuple)):
        parts = list(text)
    else:
        parts = str(text).split(",")
    vec = np.array([_parse_float(p, what) for p in parts])
    if vec.shape != (dim,):
        raise _UsageError(
            f"{what} must have {dim} component(s), got {len(vec)}")
    return vec


def _parse_params(pairs, config_params) -> dict:
    params = dict(config_params or {})
    for item in pairs or ():
        name, sep, value = str(item).partition("=")
        if not sep or not name:
            raise _UsageError(
                f"--param expects NAME=VALUE, got {item!r}")
        params[name] = _parse_float(value, f"parameter {name}")
    return {k: float(v) for k, v in params.items()}


def _parse_range(value, what: str) -> tuple:
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise _UsageError(f"{what} must be two numbers (low high)")
    lo = _parse_float(value[0], what)
    hi = _parse_float(value[1], what)
    if not lo < hi:
        raise _UsageError(f"{what} must satisfy low < high, got {lo} {hi}")
    return (lo, hi)


# ---------------------------------------------------------------------------
# config resolution

def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
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


def _pick(flag_value, config: Mapping, key: str, default):
    if flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return default


def _resolve_seed(flag_value, config: Mapping) -> int:
    value = _pick(flag_value, config, "seed", None)
    if value is None:
        value = os.environ.get("FEBVP_SEED", 0)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise _UsageError(f"seed must be an integer, got {value!r}")


def _build_expression_ode(exprs: Sequence[str], params: Mapping) -> SecondOrderOde:
    dim = len(exprs)
    names = tuple(sorted(params))
    parsed = []
    for text in exprs:
        try:
            parsed.append(parse(text, dim=dim, params=names))
        except ParseError as exc:
            pos = exc.context.get("position")
            caret = ""
            if isinstance(pos, int) and 0 <= pos <= len(text):
                caret = "\n  " + text + "\n  " + " " * pos + "^"
            raise _UsageError(
                f"cannot parse ode expression: {exc}{caret}",
                expression=text, **_plain(exc.context))
    label = "; ".join(exprs)
    if dim == 1:
        return SecondOrderOde.from_scalar(bind(parsed[0], dict(params)),
                                          label=label)
    rhs_list = bind(parsed, dict(params))

    def rhs(tau, x, v):
        return np.asarray(rhs_list(tau, x, v), dtype=float)

    return SecondOrderOde(dim=dim, rhs=rhs, label=label, rhs1=rhs_list)


def _resolve_ode(args, config) -> tuple:
    """Returns (catalog_name_or_None, params, exprs_or_None, ode)."""
    name = _pick(getattr(args, "catalog", None), config, "catalog", None)
    exprs = _pick(getattr(args, "ode", None), config, "ode", None)
    if isinstance(exprs, str):
        exprs = [exprs]
    params = _parse_params(getattr(args, "param", None),
                           config.get("params"))
    if name and exprs:
        raise _UsageError("--catalog and --ode are mutually exclusive")
    if name:
        try:
            ode, params = _catalog.make_ode(name, params)
        except ValueError as exc:
            raise _UsageError(str(exc))
        return name, params, None, ode
    if exprs:
        return None, params, list(exprs), _build_expression_ode(exprs, params)
    raise _UsageError("an ODE is required: pass --catalog NAME or --ode EXPR")


def _resolve_shooting(args, config) -> ShootingConfig:
    newton_tol = _pick(getattr(args, "newton_tol", None), config,
                       "newton_tol", None)
    rel_tol = _pick(getattr(args, "rel_tol", None), config, "rel_tol", None)
    abs_tol = _pick(getattr(args, "abs_tol", None), config, "abs_tol", None)
    floor = _pick(getattr(args, "singular_floor", None), config,
                  "singular_floor", None)
    cfg = DEFAULT_SHOOTING
    if rel_tol is not None or abs_tol is not None:
        icfg = cfg.integrator
        icfg = dataclasses.replace(
            icfg,
            rel_tol=(_parse_float(rel_tol, "rel_tol") if rel_tol is not None
                     else icfg.rel_tol),
            abs_tol=(_parse_float(abs_tol, "abs_tol") if abs_tol is not None
                     else icfg.abs_tol))
        cfg = dataclasses.replace(cfg, integrator=icfg)
    if newton_tol is not None:
        cfg = dataclasses.replace(cfg, newton_tol=_parse_positive(
            newton_tol, "newton_tol"))
    if floor is not None:
        cfg = dataclasses.replace(cfg, singular_floor=_parse_positive(
            floor, "singular_floor"))
    return cfg


def _resolve_sampling(args, config, seed: int) -> SampleSpec:
    defaults = SampleSpec(count=1, seed=0)
    count = _pick(getattr(args, "samples", None), config, "samples", 200)
    try:
        count = int(count)
    except (TypeError, ValueError):
        raise _UsageError(f"samples must be an integer, got {count!r}")
    tau_range = _parse_range(
        _pick(getattr(args, "tau_range", None), config, "tau_range", None),
        "tau range") or defaults.tau_range
    ab_pair_range = _parse_range(
        _pick(getattr(args, "alpha_beta_range", None), config,
              "alpha_beta_range", None),
        "alpha/beta range") or defaults.alpha_beta_range
    value_range = _parse_range(
        _pick(getattr(args, "ab_range", None), config, "ab_range", None),
        "data range") or defaults.ab_range
    min_sep = _pick(getattr(args, "min_separation", None), config,
                    "min_separation", None)
    min_sep = (_parse_float(min_sep, "min_separation") if min_sep is not None
               else defaults.min_separation)
    try:
        return SampleSpec(count=count, seed=seed, tau_range=tau_range,
                          alpha_beta_range=ab_pair_range,
                          ab_range=value_range, min_separation=min_sep)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _parse_threshold(value, what: str) -> float:
    limit = _parse_float(value, what)
    if not limit >= 0:
        raise _UsageError(f"{what} must be a number >= 0, got {value!r}")
    return limit


def _resolve_thresholds(args, config) -> dict:
    keys = _threshold_keys()
    thresholds = config.get("thresholds") or {}
    if not isinstance(thresholds, dict):
        raise _UsageError("config thresholds must be an object "
                          "mapping threshold names to numbers")
    thresholds = dict(thresholds)
    for item in getattr(args, "threshold", None) or ():
        name, sep, value = str(item).partition("=")
        if not sep or name not in keys:
            raise _UsageError(
                f"--threshold expects LAW=VALUE with LAW one of "
                f"{', '.join(keys)}; got {item!r}")
        thresholds[name] = _parse_threshold(value, f"threshold {name}")
    for name in thresholds:
        if name not in keys:
            raise _UsageError(f"unknown threshold name {name!r}")
    return {k: _parse_threshold(v, f"threshold {k}")
            for k, v in thresholds.items()}


def _apply_domain_override(domain: EvalDomain, override: Mapping) -> EvalDomain:
    if not override:
        return domain
    return dataclasses.replace(domain, **override)


# ---------------------------------------------------------------------------
# subcommands

def _scalarize(vec: np.ndarray):
    if vec.shape == (1,):
        return float(vec[0])
    return [float(c) for c in vec]


def _state_columns(dim: int) -> list:
    if dim == 1:
        return ["tau", "x", "v"]
    cols = ["tau"]
    cols += [f"x{i + 1}" for i in range(dim)]
    cols += [f"v{i + 1}" for i in range(dim)]
    return cols


def _state_cells(tau: float, x: np.ndarray, v: np.ndarray) -> list:
    return ([_cell(tau)] + [_cell(float(c)) for c in x]
            + [_cell(float(c)) for c in v])


def cmd_solve(cfg: RunConfig) -> int:
    if not cfg.taus:
        raise _UsageError("at least one --tau is required")
    ode = cfg.ode
    try:
        if isinstance(cfg.conditions, NeumannConditions):
            result = solve_neumann(ode, cfg.conditions, cfg.shooting)
        else:
            result = solve_integral(ode, cfg.conditions, cfg.shooting)
        rows = []
        for tau in sorted(float(t) for t in cfg.taus):
            st = eval_state(ode, result.trajectory, tau,
                            cfg.shooting.integrator)
            rows.append((tau, st.x, st.v))
    except FebvpError as exc:
        return _numeric_exit(exc)
    doc = {
        "command": "solve",
        "ode": ode.label,
        "iterations": result.iterations,
        "final_residual": float(result.final_residual),
        "rows": [{"tau": tau, "x": _scalarize(x), "v": _scalarize(v)}
                 for tau, x, v in rows],
    }
    columns = _state_columns(ode.dim)
    cells = [_state_cells(tau, x, v) for tau, x, v in rows]
    _emit_doc(cfg.output_format, doc, columns, cells)
    return 0


def _make_evaluator(cfg: RunConfig) -> DependenceEvaluator:
    if cfg.catalog_name is not None:
        entry = _catalog.get_entry(cfg.catalog_name)
        if cfg.mode == "closed":
            if entry.closed_f is None:
                raise _UsageError(
                    f"family '{entry.name}' has no closed form; "
                    "use --mode numeric")
            ev = _catalog.closed_evaluator(cfg.catalog_name, cfg.params)
        else:
            ev = _catalog.numeric_evaluator(cfg.catalog_name, cfg.params,
                                            cfg.shooting)
        return dataclasses.replace(
            ev, domain=_apply_domain_override(ev.domain, cfg.domain_override))
    if cfg.mode == "closed":
        raise _UsageError("expression odes have no closed form; "
                          "use --mode numeric")
    domain = _apply_domain_override(EvalDomain(), cfg.domain_override)
    return evaluator_from_ode(cfg.ode, cfg.shooting, domain=domain,
                              label=cfg.ode.label)


def _geodesic_map(cfg: RunConfig) -> GeodesicMap:
    if cfg.connection == "flat":
        conn = flat_connection()
    elif cfg.connection == "half_plane":
        conn = half_plane_connection()
    else:
        raise _UsageError(
            f"unknown connection {cfg.connection!r} "
            "(available: flat, half_plane)")
    return GeodesicMap(conn, cfg.shooting)


def _run_extension(cfg: RunConfig) -> list:
    ev = _make_evaluator(cfg)
    if ev.eval_s is None:
        raise _UsageError(
            "the extension law needs a smooth extension; this source "
            "does not provide one")
    return check_extension(ev, cfg.sampling)


def _run_jensen(cfg: RunConfig) -> list:
    if cfg.connection != "flat":
        raise _UsageError(
            "the jensen midpoint law assumes an interpolation map "
            "affine in its endpoints; use --connection flat")
    return [jensen_midpoint_check(_geodesic_map(cfg), cfg.sampling,
                                  cfg.rho_range)]


def _run_angelesco(cfg: RunConfig) -> list:
    pin = (cfg.catalog_name == "conic"
           or (cfg.catalog_name is None and bool(cfg.params)))
    return [_catalog.check_angelesco(cfg.sampling,
                                     cfg.params if pin else None)]


def _diagonals_shrink(reports: list) -> bool:
    """Extension's diagonal reports: no failures, finite, and strictly
    decreasing with eps.  A residual that is exactly zero cannot decrease
    further; only a nonzero plateau signals a discontinuous extension."""
    diags = reports[1:]
    return (all(d.failures == 0 and np.isfinite(d.max_residual)
                for d in diags)
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
    "extension": _Law(_run_extension, True, {"extension": 1e-8},
                      _diagonals_shrink),
    "lemma1": _Law(
        lambda cfg: check_lemma1_equivalence(cfg.ode, cfg.sampling,
                                             cfg.shooting),
        True, {"lemma1_agreement": 1e-9, "lemma1_quadrature": 1e-8}),
    "klapka": _Law(
        lambda cfg: [check_klapka(_geodesic_map(cfg), cfg.sampling,
                                  cfg.rho_range)],
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


def cmd_verify(cfg: RunConfig, laws: Sequence[str]) -> int:
    for law in laws:
        if law not in KNOWN_LAWS:
            raise _UsageError(
                f"unknown law {law!r} (available: {', '.join(KNOWN_LAWS)})")
    reports: list[LawReport] = []
    all_ok = True
    for name in laws:
        law = _LAWS[name]
        try:
            law_reports = law.run(cfg)
        except ValueError as exc:
            raise _UsageError(str(exc))
        except FebvpError as exc:
            return _numeric_exit(exc)
        reports.extend(law_reports)
        limits = [_limit(key, default, cfg)
                  for key, default in law.thresholds.items()]
        all_ok = (all_ok and law.passes(law_reports)
                  and all(map(_clean, law_reports, limits)))
    doc = [r.to_json() for r in reports]
    columns = ["law", "samples", "max_residual", "mean_residual",
               "failures", "worst_case"]
    cells = [[r.law_name, str(r.samples), _cell(float(r.max_residual)),
              _cell(float(r.mean_residual)), str(r.failures),
              json.dumps(_plain(r.worst_case))]
             for r in reports]
    _emit_doc(cfg.output_format, doc, columns, cells)
    return 0 if all_ok else 2


def cmd_reconstruct(cfg: RunConfig, points: Sequence) -> int:
    if not points:
        raise _UsageError("at least one --point TAU X V is required")
    ode = cfg.ode
    truth = (_catalog.rhs_true(cfg.catalog_name, cfg.params)
             if cfg.catalog_name else None)
    S, eff = solver_extension(ode, cfg.recon, cfg.shooting)
    rows = []
    worst = 0.0
    try:
        for tau, x, v in points:
            x = np.atleast_1d(np.asarray(x, dtype=float))
            v = np.atleast_1d(np.asarray(v, dtype=float))
            rebuilt = reconstruct_f(S, float(tau), x, v, eff)
            if truth is not None:
                if ode.dim == 1:
                    expected = np.array([truth(float(tau), float(x[0]),
                                               float(v[0]))])
                else:
                    expected = np.atleast_1d(np.asarray(
                        truth(float(tau), x, v), dtype=float))
                err = float(np.max(np.abs(rebuilt - expected)))
                worst = max(worst, err)
            else:
                expected, err = None, None
            rows.append((float(tau), x, v, rebuilt, expected, err))
    except FebvpError as exc:
        return _numeric_exit(exc)
    doc = {
        "command": "reconstruct",
        "ode": ode.label,
        "fd_step": eff.fd_step,
        "rows": [{
            "tau": tau,
            "x": _scalarize(x),
            "v": _scalarize(v),
            "f_reconstructed": _scalarize(rebuilt),
            "f_true": None if expected is None else _scalarize(expected),
            "abs_err": err,
        } for tau, x, v, rebuilt, expected, err in rows],
    }
    columns = ["tau", "x", "v", "f_reconstructed", "f_true", "abs_err"]
    cells = [[_cell(tau), _cell(_scalarize(x)), _cell(_scalarize(v)),
              _cell(_scalarize(rebuilt)),
              "" if expected is None else _cell(_scalarize(expected)),
              "" if err is None else _cell(err)]
             for tau, x, v, rebuilt, expected, err in rows]
    _emit_doc(cfg.output_format, doc, columns, cells)
    if truth is not None and worst > cfg.recon_threshold:
        _emit_error("reconstruction_mismatch",
                    f"max |f_reconstructed - f_true| = {worst!r} exceeds "
                    f"threshold {cfg.recon_threshold!r}",
                    {"max_abs_err": worst,
                     "threshold": cfg.recon_threshold})
        return 2
    return 0


def cmd_geodesic(cfg: RunConfig, a, b, rhos: Sequence[float]) -> int:
    gmap = _geodesic_map(cfg)
    dim = gmap.connection.dim
    a = _parse_vec(a, dim, "--a")
    b = _parse_vec(b, dim, "--b")
    if cfg.connection == "half_plane" and (a[1] <= 0 or b[1] <= 0):
        raise _UsageError("half-plane points need a positive second "
                          "component")
    rows = []
    try:
        for rho in sorted(float(r) for r in rhos):
            point = gmap.eval(a, b, rho)
            rows.append((rho, point))
    except FebvpError as exc:
        return _numeric_exit(exc)
    doc = {
        "command": "geodesic",
        "connection": cfg.connection,
        "a": [float(c) for c in a],
        "b": [float(c) for c in b],
        "rows": [{"rho": rho, "point": [float(c) for c in point]}
                 for rho, point in rows],
    }
    columns = ["rho"] + [f"point{i + 1}" for i in range(dim)]
    cells = [[_cell(rho)] + [_cell(float(c)) for c in point]
             for rho, point in rows]
    _emit_doc(cfg.output_format, doc, columns, cells)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

# argparse reads an argument that starts with "-" as an option unless its
# negative-number pattern matches, and its own pattern takes only "-1" and
# "-1.5".  This one also takes exponents and comma lists ("-1e-3",
# "-0.3,0.4"), so that values like these need no "--flag=value" form.
_NEGATIVE_VALUE = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?(,.*)?$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE

    def error(self, message):
        raise _UsageError(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file with option defaults")
    sub.add_argument("--format", choices=_FORMATS, dest="format",
                     help="output format (default table)")
    sub.add_argument("--seed", type=int,
                     help="PRNG seed (default: FEBVP_SEED or 0)")


def _add_ode_source(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--catalog", help="catalog family name")
    sub.add_argument("--param", action="append", metavar="NAME=VALUE",
                     help="family or expression parameter (repeatable)")
    sub.add_argument("--ode", action="append", metavar="EXPR",
                     help="rhs expression; repeat for vector components; "
                     "write one that starts with '-' as --ode=-x")


def _add_tolerances(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--newton-tol", type=float, dest="newton_tol")
    sub.add_argument("--rel-tol", type=float, dest="rel_tol")
    sub.add_argument("--abs-tol", type=float, dest="abs_tol")
    sub.add_argument("--singular-floor", type=float, dest="singular_floor",
                     help="conjugate-interval sensitivity: the shooting "
                     "Jacobian is declared singular below this fraction "
                     "of its natural scale")


def _add_sampling(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--samples", type=int, help="sample count (default 200)")
    sub.add_argument("--tau-range", nargs=2, type=float, dest="tau_range",
                     metavar=("LO", "HI"))
    sub.add_argument("--alpha-beta-range", nargs=2, type=float,
                     dest="alpha_beta_range", metavar=("LO", "HI"))
    sub.add_argument("--ab-range", nargs=2, type=float, dest="ab_range",
                     metavar=("LO", "HI"))
    sub.add_argument("--min-separation", type=float, dest="min_separation")
    sub.add_argument("--max-interval", type=float, dest="max_interval",
                     help="override the family's endpoint span cap")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="febvp", description=__doc__.split("\n\n")[0])
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)

    solve = subs.add_parser("solve", help="solve one problem and print "
                            "(tau, x, v) rows")
    _add_common(solve)
    _add_ode_source(solve)
    _add_tolerances(solve)
    solve.add_argument("--neumann", nargs=4, metavar=("ALPHA", "BETA", "A", "B"),
                       help="endpoint data x(alpha)=A, x(beta)=B")
    solve.add_argument("--integral", nargs=4, metavar=("ALPHA", "BETA", "A", "V"),
                       help="left value A and average slope V")
    solve.add_argument("--cauchy", nargs=3, metavar=("ALPHA", "A", "V"),
                       help="initial value A and initial velocity V")
    solve.add_argument("--tau", action="append", type=float,
                       help="evaluation time (repeatable)")

    verify = subs.add_parser("verify", help="sample law residuals and "
                             "report them")
    _add_common(verify)
    _add_ode_source(verify)
    _add_tolerances(verify)
    _add_sampling(verify)
    verify.add_argument("--laws", help="comma-separated subset of: "
                        + ", ".join(KNOWN_LAWS))
    verify.add_argument("--mode", choices=("closed", "numeric"),
                        help="evaluate closed forms or the shooting solver")
    verify.add_argument("--connection", choices=("flat", "half_plane"),
                        help="connection for klapka/jensen (default flat)")
    verify.add_argument("--rho-range", nargs=2, type=float, dest="rho_range",
                        metavar=("LO", "HI"))
    verify.add_argument("--threshold", action="append", metavar="LAW=VALUE",
                        help="override a pass threshold (repeatable; LAW "
                        "one of: " + ", ".join(_threshold_keys()) + ")")

    recon = subs.add_parser("reconstruct", help="rebuild the rhs from the "
                            "solution operator at given states")
    _add_common(recon)
    _add_ode_source(recon)
    _add_tolerances(recon)
    recon.add_argument("--point", action="append", nargs=3,
                       metavar=("TAU", "X", "V"),
                       help="state to reconstruct at (repeatable; X and V "
                       "are comma-separated for vector odes)")
    recon.add_argument("--fd-step", type=float, dest="fd_step")
    recon.add_argument("--threshold", type=float,
                       help="abs error gate when the true rhs is known "
                       "(default 1e-4)")

    geo = subs.add_parser("geodesic", help="evaluate a connection's "
                          "interpolation map")
    _add_common(geo)
    _add_tolerances(geo)
    geo.add_argument("--connection", choices=("flat", "half_plane"),
                     help="default flat")
    geo.add_argument("--a", nargs=2, type=float, metavar=("A1", "A2"),
                     help="start point")
    geo.add_argument("--b", nargs=2, type=float, metavar=("B1", "B2"),
                     help="end point")
    geo.add_argument("--rho", action="append", type=float,
                     help="interpolation parameter (repeatable)")

    return parser


def _base_config(args, config) -> RunConfig:
    fmt = _pick(getattr(args, "format", None), config, "format", "table")
    if fmt not in _FORMATS:
        raise _UsageError(f"format must be one of {', '.join(_FORMATS)}")
    seed = _resolve_seed(getattr(args, "seed", None), config)
    shooting = _resolve_shooting(args, config)
    return RunConfig(output_format=fmt, seed=seed, shooting=shooting)


def _dispatch(args) -> int:
    config = _load_config(getattr(args, "config", None))
    cfg = _base_config(args, config)

    if args.command == "solve":
        cfg.catalog_name, cfg.params, cfg.exprs, cfg.ode = _resolve_ode(
            args, config)
        neumann = _pick(args.neumann, config, "neumann", None)
        integral = _pick(args.integral, config, "integral", None)
        cauchy = _pick(args.cauchy, config, "cauchy", None)
        given = [c for c in (neumann, integral, cauchy) if c is not None]
        if len(given) != 1:
            raise _UsageError(
                "exactly one of --neumann, --integral, --cauchy is required")
        dim = cfg.ode.dim
        try:
            if neumann is not None:
                cfg.conditions = NeumannConditions(
                    _parse_float(neumann[0], "alpha"),
                    _parse_float(neumann[1], "beta"),
                    _parse_vec(neumann[2], dim, "endpoint value A"),
                    _parse_vec(neumann[3], dim, "endpoint value B"))
            elif integral is not None:
                cfg.conditions = IntegralConditions(
                    _parse_float(integral[0], "alpha"),
                    _parse_float(integral[1], "beta"),
                    _parse_vec(integral[2], dim, "left value A"),
                    _parse_vec(integral[3], dim, "average slope V"))
            else:
                alpha = _parse_float(cauchy[0], "alpha")
                cfg.conditions = IntegralConditions(
                    alpha, alpha,
                    _parse_vec(cauchy[1], dim, "initial value A"),
                    _parse_vec(cauchy[2], dim, "initial velocity V"))
        except ValueError as exc:
            raise _UsageError(str(exc))
        cfg.taus = list(_pick(args.tau, config, "taus", []) or [])
        return cmd_solve(cfg)

    if args.command == "verify":
        laws_value = _pick(args.laws, config, "laws",
                           "composition,boundary")
        if isinstance(laws_value, str):
            laws = [w.strip() for w in laws_value.split(",") if w.strip()]
        else:
            laws = [str(w) for w in laws_value]
        if not laws:
            raise _UsageError("no laws requested")
        needs_ode = any(_LAWS[law].needs_ode for law in laws
                        if law in _LAWS)
        source_given = (_pick(args.catalog, config, "catalog", None)
                        or _pick(args.ode, config, "ode", None))
        if needs_ode or source_given:
            cfg.catalog_name, cfg.params, cfg.exprs, cfg.ode = _resolve_ode(
                args, config)
        else:
            cfg.params = _parse_params(getattr(args, "param", None),
                                       config.get("params"))
        cfg.sampling = _resolve_sampling(args, config, cfg.seed)
        default_mode = "closed"
        if cfg.catalog_name:
            if _catalog.get_entry(cfg.catalog_name).closed_f is None:
                default_mode = "numeric"
        else:
            default_mode = "numeric"
        cfg.mode = _pick(args.mode, config, "mode", default_mode)
        if cfg.mode not in ("closed", "numeric"):
            raise _UsageError("mode must be closed or numeric")
        cfg.connection = _pick(args.connection, config, "connection", "flat")
        rho_range = _parse_range(
            _pick(args.rho_range, config, "rho_range", None), "rho range")
        if rho_range is not None:
            cfg.rho_range = rho_range
        max_interval = _pick(args.max_interval, config, "max_interval", None)
        if max_interval is not None:
            cfg.domain_override["max_interval"] = _parse_float(
                max_interval, "max_interval")
        cfg.thresholds = _resolve_thresholds(args, config)
        return cmd_verify(cfg, laws)

    if args.command == "reconstruct":
        cfg.catalog_name, cfg.params, cfg.exprs, cfg.ode = _resolve_ode(
            args, config)
        fd_step = _pick(args.fd_step, config, "fd_step", None)
        if fd_step is not None:
            cfg.recon = ReconstructionConfig(
                fd_step=_parse_float(fd_step, "fd_step"))
        threshold = _pick(args.threshold, config, "threshold", None)
        if threshold is not None:
            cfg.recon_threshold = _parse_threshold(threshold, "threshold")
        raw_points = _pick(args.point, config, "points", None) or []
        dim = cfg.ode.dim
        points = []
        for item in raw_points:
            if len(item) != 3:
                raise _UsageError("each point needs TAU X V")
            points.append((
                _parse_float(item[0], "point tau"),
                _parse_vec(item[1], dim, "point x"),
                _parse_vec(item[2], dim, "point v")))
        return cmd_reconstruct(cfg, points)

    if args.command == "geodesic":
        cfg.connection = _pick(args.connection, config, "connection", "flat")
        a = _pick(args.a, config, "a", None)
        b = _pick(args.b, config, "b", None)
        if a is None or b is None:
            raise _UsageError("--a and --b are required")
        rhos = list(_pick(args.rho, config, "rho", None) or [0.5])
        return cmd_geodesic(cfg, a, b, rhos)

    raise _UsageError("a subcommand is required: solve, verify, "
                      "reconstruct, or geodesic")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except _UsageError as exc:
        _emit_error("config_error", str(exc), _plain(exc.context))
        return 1


if __name__ == "__main__":
    sys.exit(main())
