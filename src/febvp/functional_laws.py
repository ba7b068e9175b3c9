"""Randomized residual checks for the functional laws a dependence map must
satisfy: composition, boundary behavior, smooth extension across the
diagonal, and the equivalence of endpoint data with average-slope data.

Each law is a SampledLaw record: the names of its reports, a draw(rng, box)
function that draws one sample in the law's documented order, and a
residuals(sample) function that returns one outcome per report.  run_law
owns everything else: the sampling box, the seeded stream, the loop over
spec.count samples, per-sample failures and the aggregation into
LawReports.  The laws of catalog, geodesics and reconstruction are records
over the same runner.

Every check draws its samples from a seeded splitmix64 stream so that any
implementation, in any language, can reproduce the exact sample tuples.  The
draw order is part of the contract and is documented on each check; all
scalars are drawn as lo + (hi - lo) * u where u = (z >> 11) * 2^-53 and z is
the next splitmix64 output.  Interval pairs are drawn by whole-pair
rejection: draw both endpoints, accept when the separation constraints hold,
retry otherwise (at most 1000 attempts, then the configuration is rejected
as unsatisfiable).

Residuals use the componentwise infinity norm.  A sample whose evaluation
raises a solver/domain error, or whose residual is non-finite, increments
the report's failure count and contributes nothing to the aggregates.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import FebvpError
from .ode_core import SecondOrderOde
from .bvp_shooting import (
    DEFAULT_SHOOTING,
    IntegralConditions,
    NeumannConditions,
    ShootingConfig,
    end_value,
    eval_F,
    eval_S,
    solve_integral,
)

__all__ = [
    "Splitmix64",
    "DRAW_BLOCK",
    "EvaluatorFailure",
    "EvalDomain",
    "DependenceEvaluator",
    "SampleSpec",
    "LawReport",
    "DIAG_EPSILONS",
    "SAMPLE_ERRORS",
    "SampleBox",
    "SampledLaw",
    "draw_pair",
    "draw_vec",
    "run_law",
    "check_composition",
    "check_boundary",
    "check_extension",
    "check_lemma1_equivalence",
    "evaluator_from_scalar",
    "evaluator_from_ode",
]


class EvaluatorFailure(FebvpError):
    """An evaluator could not produce a value for a sample (domain fault,
    solver breakdown).  Recorded per sample, never fatal to a check."""

    code = "evaluator_failure"


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
DRAW_BLOCK = 64  # draws that Splitmix64.uniform mixes at once
# A block's counter steps gamma * (DRAW_BLOCK, ..., 1), reversed as list.pop
# takes the last entry first, and the mix's constants as NumPy scalars, which
# array operations take without a conversion.
_BLOCK_STEPS = np.arange(DRAW_BLOCK, 0, -1, dtype=np.uint64) * np.uint64(_GAMMA)
_S30, _M1, _S27, _M2, _S31, _S11 = map(
    np.uint64, (30, 0xBF58476D1CE4E5B9, 27, 0x94D049BB133111EB, 31, 11))


class Splitmix64:
    """The splitmix64 generator (Steele, Lea, Flood 2014), used verbatim so
    sample streams are reproducible across implementations.

    state += 0x9E3779B97F4A7C15
    z = state; z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
    z = (z ^ z>>27) * 0x94D049BB133111EB; return z ^ z>>31

    Output k mixes the counter seed + k * 0x9E3779B97F4A7C15 mod 2^64, so
    uniform pops draws u = (z >> 11) * 2^-53 that _refill mixes DRAW_BLOCK at
    a time in NumPy uint64 arrays (which wrap without a warning; z >> 11 <
    2^53 converts exactly).  next_u64 runs the recurrence.  Both advance the
    counter that state reads, and setting state drops the rest of the block.
    """

    __slots__ = ("_end", "_block")

    def __init__(self, seed: int):
        self.state = seed

    @property
    def state(self) -> int:
        # _end is the counter of the block's last draw
        return (self._end - _GAMMA * len(self._block)) & _MASK64

    @state.setter
    def state(self, value: int) -> None:
        self._end, self._block = operator.index(value) & _MASK64, []

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def _refill(self) -> list:
        z = _BLOCK_STEPS + np.uint64(self._end)
        self._end = (self._end + DRAW_BLOCK * _GAMMA) & _MASK64
        z = (z ^ (z >> _S30)) * _M1
        z = (z ^ (z >> _S27)) * _M2
        self._block = (((z ^ (z >> _S31)) >> _S11).astype(np.float64) * 2.0 ** -53).tolist()
        return self._block

    def uniform(self, lo: float, hi: float) -> float:
        u = (self._block or self._refill()).pop()
        return lo + (hi - lo) * u


@dataclass(frozen=True)
class EvalDomain:
    """Box constraints under which an evaluator is defined and
    well-conditioned.  None leaves the harness range unrestricted;
    min_separation and max_interval constrain |beta - alpha|."""

    tau_range: Optional[tuple[float, float]] = None
    alpha_beta_range: Optional[tuple[float, float]] = None
    ab_range: Optional[tuple[float, float]] = None
    min_separation: float = 0.0
    max_interval: Optional[float] = None

    def __post_init__(self):
        # draw_pair compares the span with <=, which NaN never fails.
        if self.max_interval is not None and not self.max_interval >= 0:
            raise ValueError(f"max_interval must be a number >= 0, got {self.max_interval!r}")


@dataclass(eq=False)
class DependenceEvaluator:
    """A dependence map under test: eval_f(tau, alpha, beta, a, b), optional
    eval_s(tau, alpha, beta, a, v), and the domain it is defined on.

    Evaluators receive tau, alpha and beta as floats and a, b and v as
    (dim,) float arrays.  They may return a float (dim 1) or a (dim,)
    vector; any other shape fails the sample."""

    dim: int
    eval_f: Callable
    eval_s: Optional[Callable] = None
    domain: EvalDomain = field(default_factory=EvalDomain)
    label: str = ""


@dataclass(frozen=True)
class SampleSpec:
    """Sampling plan: how many tuples, from which seed, over which ranges.
    Ranges are intersected with the evaluator's domain before drawing.
    count and seed are integers, NumPy's too but not bool, kept as ints."""

    count: int
    seed: int
    tau_range: tuple[float, float] = (-2.0, 2.0)
    alpha_beta_range: tuple[float, float] = (-2.0, 2.0)
    ab_range: tuple[float, float] = (-2.0, 2.0)
    min_separation: float = 0.05

    def __post_init__(self):
        for name in ("count", "seed"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not self.min_separation > 0:
            raise ValueError("min_separation must be > 0")
        for name in ("tau_range", "alpha_beta_range", "ab_range"):
            if any(math.isnan(end) for end in getattr(self, name)):
                raise ValueError(f"{name} must not have a NaN end, got {getattr(self, name)!r}")


@dataclass(eq=False)
class LawReport:
    """Aggregated residuals of one law over one sample stream."""

    law_name: str
    samples: int
    max_residual: float
    mean_residual: float
    worst_case: Optional[dict]
    failures: int

    def __post_init__(self):
        if self.samples and self.max_residual < self.mean_residual:
            raise ValueError("max_residual must dominate mean_residual")

    def to_json(self) -> dict:
        return {
            "law": self.law_name,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "worst_case": self.worst_case,
            "failures": self.failures,
        }


DIAG_EPSILONS = (1e-2, 1e-3, 1e-4)

_MAX_PAIR_TRIES = 1000

# Errors that mark a sample as failed rather than aborting the whole check.
SAMPLE_ERRORS = (FebvpError, ValueError, ZeroDivisionError,
                 OverflowError, FloatingPointError)


def _intersect(spec_range: tuple[float, float],
               dom_range: Optional[tuple[float, float]],
               what: str) -> tuple[float, float]:
    lo, hi = spec_range
    if dom_range is not None:
        lo = max(lo, dom_range[0])
        hi = min(hi, dom_range[1])
        if not lo < hi:
            raise ValueError(f"empty {what} range after domain intersection")
    # a draw lo + (hi - lo) * u on an infinite end is inf or NaN
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{what} range must have finite ends after domain "
                         f"intersection, got {(lo, hi)!r}")
    return (lo, hi)


@dataclass(frozen=True)
class SampleBox:
    """A sampling plan's ranges intersected with an evaluator's domain:
    tau, the interval endpoints, the data values, and the separation
    constraints on an endpoint pair."""

    tau: tuple[float, float]
    endpoints: tuple[float, float]
    values: tuple[float, float]
    min_sep: float
    max_interval: Optional[float]

    @staticmethod
    def of(spec: SampleSpec, domain: EvalDomain) -> "SampleBox":
        return SampleBox(
            tau=_intersect(spec.tau_range, domain.tau_range, "tau"),
            endpoints=_intersect(spec.alpha_beta_range,
                                 domain.alpha_beta_range, "alpha/beta"),
            values=_intersect(spec.ab_range, domain.ab_range, "a/b"),
            min_sep=max(spec.min_separation, domain.min_separation),
            max_interval=domain.max_interval,
        )


def draw_pair(rng: Splitmix64, box: SampleBox) -> tuple[float, float]:
    """An endpoint pair by whole-pair rejection (module docstring)."""
    lo, hi = box.endpoints
    for _ in range(_MAX_PAIR_TRIES):
        p = rng.uniform(lo, hi)
        q = rng.uniform(lo, hi)
        sep = abs(q - p)
        if sep < box.min_sep:
            continue
        if box.max_interval is not None and sep > box.max_interval:
            continue
        return p, q
    raise ValueError(
        "could not draw an admissible endpoint pair in "
        f"{_MAX_PAIR_TRIES} attempts (range {box.endpoints}, "
        f"min_separation {box.min_sep}, max_interval {box.max_interval})")


def draw_vec(rng: Splitmix64, box: SampleBox, n: int) -> np.ndarray:
    """n data components, each from the box's value range."""
    lo, hi = box.values
    return np.array([rng.uniform(lo, hi) for _ in range(n)])


# Inside a law's residuals a value is a Python float in dim 1, which
# rounds as the 1-element NumPy operations it replaces, and an (n,) array
# in dim n.  Values that overflow to inf or NaN fail their sample, so
# NumPy's warnings about them are silenced.

def _as_value(raw, dim: int):
    """An evaluator's result as a harness value."""
    if dim == 1 and type(raw) is float:
        return raw
    out = np.atleast_1d(np.asarray(raw, dtype=float))
    if out.shape != (dim,):
        raise EvaluatorFailure(
            f"evaluator returned shape {out.shape}, expected ({dim},)")
    return out.item() if dim == 1 else out


def _value(vec: np.ndarray, dim: int):
    """A sample's (dim,) array as a harness value."""
    return vec.item() if dim == 1 else vec


def _vector(value, dim: int) -> np.ndarray:
    """A harness value as the (dim,) array an evaluator receives."""
    return np.array([value]) if dim == 1 else value


def _gap(x, y) -> float:
    """Infinity-norm distance of two harness values."""
    if type(x) is float:
        return abs(x - y)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max(np.abs(x - y)))


@dataclass(frozen=True)
class SampledLaw:
    """A law checked over a seeded sample stream.

    reports names the law's reports.  draw(rng, box) draws one sample in
    the law's documented order and returns its named values, in that
    order.  residuals(sample) returns one outcome per report: a pair
    (residual, case), case being the named values a worst case reports,
    or None when the sample failed for that report.  Raising a
    SAMPLE_ERRORS error instead fails the sample in every report.
    """

    reports: tuple[str, ...]
    draw: Callable[[Splitmix64, SampleBox], dict]
    residuals: Callable[[dict], Sequence[Optional[tuple[float, dict]]]]


def _jsonable(case: dict) -> dict:
    return {key: [float(c) for c in val] if isinstance(val, np.ndarray)
            else float(val) for key, val in case.items()}


def run_law(law: SampledLaw, spec: SampleSpec,
            domain: EvalDomain = EvalDomain()) -> list[LawReport]:
    """Draw spec.count samples from a splitmix64 stream seeded with
    spec.seed over the box of spec and domain, and aggregate each report's
    residuals: a failed or non-finite outcome counts as a failure, and the
    worst case is the last sample to reach the maximum residual."""
    box = SampleBox.of(spec, domain)
    rng = Splitmix64(spec.seed)
    n = len(law.reports)
    failures = [0] * n
    totals = [0.0] * n
    maxima = [0.0] * n
    worst: list[Optional[dict]] = [None] * n
    for _ in range(spec.count):
        sample = law.draw(rng, box)
        try:
            outcomes = law.residuals(sample)
        except SAMPLE_ERRORS:
            outcomes = (None,) * n
        for i, outcome in enumerate(outcomes):
            if outcome is None or not math.isfinite(outcome[0]):
                failures[i] += 1
                continue
            residual, case = outcome
            totals[i] += residual
            if residual >= maxima[i]:
                maxima[i] = residual
                worst[i] = _jsonable(case)
    reports = []
    for i, name in enumerate(law.reports):
        ok = spec.count - failures[i]
        # rounding in the sum can lift the mean of equal residuals above
        # their maximum
        mean = min(totals[i] / ok, maxima[i]) if ok else 0.0
        reports.append(LawReport(law_name=name, samples=spec.count,
                                 max_residual=maxima[i], mean_residual=mean,
                                 worst_case=worst[i], failures=failures[i]))
    return reports


def check_composition(F: DependenceEvaluator, spec: SampleSpec) -> LawReport:
    """Residual of rebasing the map onto an inner interval:

        F(tau, alpha, beta, a, b)
        vs F(tau, gamma, delta, F(gamma, alpha, beta, a, b),
                                F(delta, alpha, beta, a, b)).

    Draw order per sample: tau; (alpha, beta) pair; (gamma, delta) pair;
    a components; b components.
    """

    def draw(rng, box):
        tau = rng.uniform(*box.tau)
        alpha, beta = draw_pair(rng, box)
        gamma, delta = draw_pair(rng, box)
        return dict(tau=tau, alpha=alpha, beta=beta, gamma=gamma,
                    delta=delta, a=draw_vec(rng, box, F.dim),
                    b=draw_vec(rng, box, F.dim))

    def residuals(s):
        tau, alpha, beta = s["tau"], s["alpha"], s["beta"]
        gamma, delta, a, b = s["gamma"], s["delta"], s["a"], s["b"]
        direct = _as_value(F.eval_f(tau, alpha, beta, a, b), F.dim)
        at_gamma = _as_value(F.eval_f(gamma, alpha, beta, a, b), F.dim)
        at_delta = _as_value(F.eval_f(delta, alpha, beta, a, b), F.dim)
        rebased = _as_value(
            F.eval_f(tau, gamma, delta, _vector(at_gamma, F.dim),
                     _vector(at_delta, F.dim)), F.dim)
        return [(_gap(direct, rebased), s)]

    law = SampledLaw(("composition",), draw, residuals)
    return run_law(law, spec, F.domain)[0]


def check_boundary(F: DependenceEvaluator, spec: SampleSpec) -> LawReport:
    """Residual of the endpoint conditions:
    max(|F(alpha, alpha, beta, a, b) - a|, |F(beta, alpha, beta, a, b) - b|).

    Draw order per sample: (alpha, beta) pair; a components; b components.
    """

    def draw(rng, box):
        alpha, beta = draw_pair(rng, box)
        return dict(alpha=alpha, beta=beta, a=draw_vec(rng, box, F.dim),
                    b=draw_vec(rng, box, F.dim))

    def residuals(s):
        alpha, beta, a, b = s["alpha"], s["beta"], s["a"], s["b"]
        at_alpha = _as_value(F.eval_f(alpha, alpha, beta, a, b), F.dim)
        at_beta = _as_value(F.eval_f(beta, alpha, beta, a, b), F.dim)
        return [(max(_gap(at_alpha, _value(a, F.dim)),
                     _gap(at_beta, _value(b, F.dim))), s)]

    law = SampledLaw(("boundary",), draw, residuals)
    return run_law(law, spec, F.domain)[0]


def check_extension(F: DependenceEvaluator,
                    spec: SampleSpec) -> list[LawReport]:
    """Two residual families for the smooth extension, four reports total.

    extension_offdiag: |S(tau, alpha, beta, a, v)
                        - F(tau, alpha, beta, a, a + v (beta - alpha))|
    for the sampled off-diagonal pair.

    extension_diag_<eps> (eps in 1e-2, 1e-3, 1e-4):
    |S(tau, alpha, alpha+eps, a, v) - S(tau, alpha, alpha, a, v)|,
    evaluated on the same sample tuples for all three eps so the three maxima
    are comparable; they must shrink as eps does for a continuous extension.

    Failures are counted per report: an off-diagonal failure and a failure
    at one eps fail only their own report, while a failure at
    S(tau, alpha, alpha, a, v) fails all three diagonal reports.

    Draw order per sample: tau; (alpha, beta) pair; a components;
    v components.  The diagonal family reuses tau, alpha, a, v.
    """
    if F.eval_s is None:
        raise ValueError("check_extension requires an evaluator with eval_s")
    names = ("extension_offdiag",) + tuple(
        f"extension_diag_{eps:.0e}".replace("e-0", "e-")
        for eps in DIAG_EPSILONS)

    def draw(rng, box):
        tau = rng.uniform(*box.tau)
        alpha, beta = draw_pair(rng, box)
        return dict(tau=tau, alpha=alpha, beta=beta,
                    a=draw_vec(rng, box, F.dim), v=draw_vec(rng, box, F.dim))

    def residuals(s):
        tau, alpha, beta, a, v = s["tau"], s["alpha"], s["beta"], s["a"], s["v"]
        try:
            s_val = _as_value(F.eval_s(tau, alpha, beta, a, v), F.dim)
            f_val = _as_value(
                F.eval_f(tau, alpha, beta, a,
                         end_value(a, v, beta - alpha)), F.dim)
        except SAMPLE_ERRORS:
            outcomes = [None]
        else:
            outcomes = [(_gap(s_val, f_val), s)]
        try:
            on_diag = _as_value(F.eval_s(tau, alpha, alpha, a, v), F.dim)
        except SAMPLE_ERRORS:
            return outcomes + [None] * len(DIAG_EPSILONS)
        for eps in DIAG_EPSILONS:
            try:
                near = _as_value(F.eval_s(tau, alpha, alpha + eps, a, v),
                                 F.dim)
            except SAMPLE_ERRORS:
                outcomes.append(None)
                continue
            outcomes.append((_gap(near, on_diag),
                             dict(tau=tau, alpha=alpha, eps=eps, a=a, v=v)))
        return outcomes

    return run_law(SampledLaw(names, draw, residuals), spec, F.domain)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
# mapped from [-1, 1] to [0, 1], as plain floats
_GL01_NODES = (0.5 * (_GL_NODES + 1.0)).tolist()
_GL01_WEIGHTS = (0.5 * _GL_WEIGHTS).tolist()


def check_lemma1_equivalence(ode: SecondOrderOde, spec: SampleSpec,
                             cfg: ShootingConfig = DEFAULT_SHOOTING
                             ) -> list[LawReport]:
    """Equivalence of endpoint data and average-slope data, two reports.

    lemma1_agreement: the average-slope solution (alpha, beta, a, v) against
    the endpoint-data one (alpha, beta, a, a + v (beta - alpha)).  They are
    one solve, since solve_integral is solve_neumann on those endpoint data,
    so the agreement is 0.0 by construction and costs no second solve.

    lemma1_quadrature: independently verify the average-slope property of
    the integral-data solution by 64-point Gauss-Legendre quadrature:
    integral over gamma in [0, 1] of xdot((1-gamma) alpha + gamma beta)
    equals v.

    Draw order per sample: (alpha, beta) pair; a components; v components.
    Solver breakdowns (conjugate intervals included) count as failures in
    both reports.
    """

    def draw(rng, box):
        alpha, beta = draw_pair(rng, box)
        return dict(alpha=alpha, beta=beta, a=draw_vec(rng, box, ode.dim),
                    v=draw_vec(rng, box, ode.dim))

    def residuals(s):
        alpha, beta, a, v = s["alpha"], s["beta"], s["a"], s["v"]
        traj = solve_integral(ode, IntegralConditions(alpha, beta, a, v), cfg).trajectory
        nodes = [(1.0 - node) * alpha + node * beta for node in _GL01_NODES]
        # one batched read; each component summed in node order
        n = ode.dim
        mean_slope = [0.0] * n
        for row, weight in zip(traj.read(nodes), _GL01_WEIGHTS):
            for i, vi in enumerate(row[n:]):
                mean_slope[i] += weight * vi
        slope = mean_slope[0] if n == 1 else np.array(mean_slope)
        return [(0.0, s), (_gap(slope, _value(v, n)), s)]

    law = SampledLaw(("lemma1_agreement", "lemma1_quadrature"), draw,
                     residuals)
    return run_law(law, spec)


def evaluator_from_scalar(eval_f: Callable, eval_s: Optional[Callable] = None,
                          domain: EvalDomain = EvalDomain(),
                          label: str = "") -> DependenceEvaluator:
    """Wrap scalar closed forms f(tau, alpha, beta, a, b) (and optionally
    s(tau, alpha, beta, a, v)) taking/returning plain floats.  The wrappers
    take (1,) arrays and return the closed form's float as it is."""

    def f_vec(tau, alpha, beta, a, b):
        return eval_f(tau, alpha, beta, float(a[0]), float(b[0]))

    s_vec = None
    if eval_s is not None:
        def s_vec(tau, alpha, beta, a, v):
            return eval_s(tau, alpha, beta, float(a[0]), float(v[0]))

    return DependenceEvaluator(dim=1, eval_f=f_vec, eval_s=s_vec,
                               domain=domain, label=label)


def evaluator_from_ode(ode: SecondOrderOde,
                       cfg: ShootingConfig = DEFAULT_SHOOTING,
                       domain: EvalDomain = EvalDomain(),
                       label: str = "") -> DependenceEvaluator:
    """Wrap the numeric shooting solver on an ODE as a DependenceEvaluator."""

    def f_vec(tau, alpha, beta, a, b):
        cond = NeumannConditions(alpha, beta, np.asarray(a, dtype=float),
                                 np.asarray(b, dtype=float))
        return eval_F(ode, tau, cond, cfg)

    def s_vec(tau, alpha, beta, a, v):
        cond = IntegralConditions(alpha, beta, np.asarray(a, dtype=float),
                                  np.asarray(v, dtype=float))
        return eval_S(ode, tau, cond, cfg)

    return DependenceEvaluator(dim=ode.dim, eval_f=f_vec, eval_s=s_vec,
                               domain=domain, label=label or ode.label)
