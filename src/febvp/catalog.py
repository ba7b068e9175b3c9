"""Registry of named ODE families for the CLI and the acceptance suite.

Each entry couples a numeric ODE, whose rhs is also the true right-hand
side for reconstruction comparisons, with (when available) its closed-form
dependence maps, and the sampling domain on which the family is
well-conditioned enough for tight residual thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .closed_forms import (
    COS_SIN_BASIS,
    ConicParams,
    angelesco_residual,
    conic_F,
    conic_S,
    cos_sin_S,
    free_fall_F,
    free_fall_S,
    linear_F,
)
from .functional_laws import (
    DependenceEvaluator,
    EvalDomain,
    LawReport,
    SampleSpec,
    SampledLaw,
    draw_pair,
    evaluator_from_ode,
    evaluator_from_scalar,
    run_law,
)
from .bvp_shooting import DEFAULT_SHOOTING, ShootingConfig
from .ode_core import SecondOrderOde

__all__ = [
    "CatalogEntry",
    "CATALOG",
    "catalog_names",
    "get_entry",
    "resolve_params",
    "make_ode",
    "closed_evaluator",
    "numeric_evaluator",
    "rhs_true",
    "check_angelesco",
]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    defaults: Mapping[str, float]
    make_ode: Callable[[Mapping[str, float]], SecondOrderOde]
    domain: Callable[[Mapping[str, float]], EvalDomain]
    closed_f: Optional[Callable] = None  # params -> (tau,alpha,beta,a,b)->x
    closed_s: Optional[Callable] = None  # params -> (tau,alpha,beta,a,v)->x


def _free_fall_ode(p):
    g = p["g"]

    def rhs1(tau: float, x: float, v: float) -> float:
        return g

    return SecondOrderOde.from_scalar(rhs1, label="free_fall")


def _conic_ode(p):
    k2, g = p["k"] ** 2, p["g"]

    def rhs1(tau: float, x: float, v: float) -> float:
        return k2 * x + g

    return SecondOrderOde.from_scalar(rhs1, label="conic")


def _linear_zero_ode(p):
    def rhs1(tau: float, x: float, v: float) -> float:
        return 0.0

    return SecondOrderOde.from_scalar(rhs1, label="linear_zero")


def _oscillator_ode(p):
    w2 = p["omega"] ** 2

    def rhs1(tau: float, x: float, v: float) -> float:
        return -w2 * x

    return SecondOrderOde.from_scalar(rhs1, label="oscillator")


def _cos_sin_ode(p):
    def rhs1(tau: float, x: float, v: float) -> float:
        return -x

    return SecondOrderOde.from_scalar(rhs1, label="linear_basis")


class _InvalidConic:
    """Stands in for the ConicParams of a member whose k or g is not
    finite: any use raises the ValueError that building it raised, so
    every sample fails."""

    def __init__(self, reason: tuple):
        self.reason = reason

    def __getattr__(self, name):
        raise ValueError(*self.reason)


def _conic_params(p):
    """One conic member's ConicParams, built once per evaluator.  The conic
    closures bind it as a default argument and look conic_F and conic_S up
    as module globals at each call, so a wrapper installed on those names
    sees every call."""
    try:
        return ConicParams(p["k"], p["g"])
    except ValueError as exc:
        return _InvalidConic(exc.args)


def _conic_domain(p) -> EvalDomain:
    # Hyperbolic solutions grow like exp(|k| L); shrink the box as |k| grows
    # so closed-vs-rebased comparisons stay far below the acceptance
    # thresholds, and keep endpoints separated enough that the interpolation
    # weights stay O(1).
    k = abs(p["k"])
    if k == 0.0:
        return EvalDomain(min_separation=0.25)
    half_width = min(max(1.5 / k, 0.75), 2.0)
    box = (-half_width, half_width)
    return EvalDomain(tau_range=box, alpha_beta_range=box,
                      min_separation=0.25)


def _oscillator_domain(p) -> EvalDomain:
    omega = p["omega"]
    if omega <= 0:
        raise ValueError("omega must be > 0")
    return EvalDomain(max_interval=3.0 / omega)


CATALOG: dict[str, CatalogEntry] = {
    "free_fall": CatalogEntry(
        name="free_fall",
        defaults={"g": -9.8},
        make_ode=_free_fall_ode,
        domain=lambda p: EvalDomain(),
        closed_f=lambda p: (lambda t, al, be, a, b:
                            free_fall_F(p["g"], t, al, be, a, b)),
        closed_s=lambda p: (lambda t, al, be, a, v:
                            free_fall_S(p["g"], t, al, be, a, v)),
    ),
    "conic": CatalogEntry(
        name="conic",
        defaults={"k": 1.0, "g": -9.8},
        make_ode=_conic_ode,
        domain=_conic_domain,
        closed_f=lambda p: (lambda t, al, be, a, b, cp=_conic_params(p):
                            conic_F(cp, t, al, be, a, b)),
        closed_s=lambda p: (lambda t, al, be, a, v, cp=_conic_params(p):
                            conic_S(cp, t, al, be, a, v)),
    ),
    "linear_zero": CatalogEntry(
        name="linear_zero",
        defaults={},
        make_ode=_linear_zero_ode,
        domain=lambda p: EvalDomain(),
        closed_f=lambda p: (lambda t, al, be, a, b:
                            free_fall_F(0.0, t, al, be, a, b)),
        closed_s=lambda p: (lambda t, al, be, a, v:
                            free_fall_S(0.0, t, al, be, a, v)),
    ),
    "oscillator": CatalogEntry(
        name="oscillator",
        defaults={"omega": 1.0},
        make_ode=_oscillator_ode,
        domain=_oscillator_domain,
    ),
    "linear_basis": CatalogEntry(
        name="linear_basis",
        defaults={},
        make_ode=_cos_sin_ode,
        domain=lambda p: EvalDomain(max_interval=3.0),
        closed_f=lambda p: (lambda t, al, be, a, b:
                            linear_F(COS_SIN_BASIS, t, al, be, a, b)),
        closed_s=lambda p: (lambda t, al, be, a, v:
                            cos_sin_S(t, al, be, a, v)),
    ),
}


def catalog_names() -> list[str]:
    return sorted(CATALOG)


def get_entry(name: str) -> CatalogEntry:
    try:
        return CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown catalog family '{name}' "
            f"(available: {', '.join(catalog_names())})")


def resolve_params(entry: CatalogEntry,
                   overrides: Mapping[str, float] | None) -> dict[str, float]:
    params = dict(entry.defaults)
    for key, val in (overrides or {}).items():
        if key not in params:
            raise ValueError(
                f"family '{entry.name}' has no parameter '{key}' "
                f"(accepts: {', '.join(sorted(params)) or 'none'})")
        params[key] = float(val)
    return params


def make_ode(name: str, overrides: Mapping[str, float] | None = None
             ) -> tuple[SecondOrderOde, dict[str, float]]:
    entry = get_entry(name)
    params = resolve_params(entry, overrides)
    return entry.make_ode(params), params


def closed_evaluator(name: str,
                     overrides: Mapping[str, float] | None = None
                     ) -> DependenceEvaluator:
    entry = get_entry(name)
    if entry.closed_f is None:
        raise ValueError(f"family '{entry.name}' has no closed form")
    params = resolve_params(entry, overrides)
    closed_s = entry.closed_s(params) if entry.closed_s else None
    return evaluator_from_scalar(entry.closed_f(params), closed_s,
                                 domain=entry.domain(params),
                                 label=f"{entry.name}[closed]")


def numeric_evaluator(name: str,
                      overrides: Mapping[str, float] | None = None,
                      cfg: ShootingConfig = DEFAULT_SHOOTING
                      ) -> DependenceEvaluator:
    entry = get_entry(name)
    params = resolve_params(entry, overrides)
    ode = entry.make_ode(params)
    return evaluator_from_ode(ode, cfg, domain=entry.domain(params),
                              label=f"{entry.name}[numeric]")


def rhs_true(name: str, overrides: Mapping[str, float] | None = None
             ) -> Callable:
    """The family's true rhs (tau, x, v) -> xdd: its ode's float-level
    rhs1."""
    return make_ode(name, overrides)[0].rhs1


def check_angelesco(spec: SampleSpec,
                    params: Mapping[str, float] | None = None) -> LawReport:
    """Five-point product residual over sampled members of the
    xdd = k^2 x + g family, relative to the larger product magnitude.

    When params fixes k and g, only the member varies; otherwise k is drawn
    from [0.25, 2] and g from the sampling plan's ab_range.  Draw order
    per sample:
    [k; g;] (alpha, beta) endpoint pair; a; b; tau0 from tau_range; delta
    from [0.1, 0.5].  The pair is drawn by whole-pair rejection, at most
    1000 attempts, like the other laws' pairs.

    Raises:
        ValueError: no pair at least min_separation apart was drawn.
    """
    fixed_k = params.get("k") if params else None
    fixed_g = params.get("g") if params else None

    def draw(rng, box):
        k = float(fixed_k) if fixed_k is not None else rng.uniform(0.25, 2.0)
        g = float(fixed_g) if fixed_g is not None else rng.uniform(
            *box.values)
        alpha, beta = draw_pair(rng, box)
        sample = dict(k=k, g=g, alpha=alpha, beta=beta,
                      a=rng.uniform(*box.values), b=rng.uniform(*box.values),
                      tau0=rng.uniform(*box.tau), delta=rng.uniform(0.1, 0.5))
        ConicParams(k, g)  # a non-finite member is a configuration error
        return sample

    def residuals(s):
        p = ConicParams(s["k"], s["g"])
        alpha, beta, a, b = s["alpha"], s["beta"], s["a"], s["b"]
        tau0, delta = s["tau0"], s["delta"]
        values = []

        def member(t: float) -> float:
            values.append(conic_F(p, t, alpha, beta, a, b))
            return values[-1]

        residual = angelesco_residual(member, tau0, delta)
        x0, x1, x2, x3, x4 = values
        scale = max(abs((x4 - x1) * (x2 - x1)), abs((x3 - x0) * (x3 - x2)),
                    1e-30)
        return [(abs(residual) / scale, s)]

    return run_law(SampledLaw(("angelesco",), draw, residuals), spec)[0]
