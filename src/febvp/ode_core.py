"""Adaptive integration of second-order ODE systems xdd = f(tau, x, xd).

The integrator is an explicit Dormand-Prince 5(4) pair with the standard
quartic dense-output interpolant and a PI step-size controller (safety 0.9,
step-ratio clamp [0.2, 5.0]).  Integration works forward or backward in tau
and produces a Trajectory that can be evaluated anywhere inside the covered
span; evaluation exactly at a stored knot returns the stored state bitwise.

There is one step loop, written once as a template (_TEMPLATE) and
unrolled for each dimension n into straight-line code over named floats:
one statement per component and stage (x0_2, v0_2, k0_2, x1_2, ...), with
no lists, comprehensions or per-stage helper calls.  _kernel generates
the source and compiles it once per (n, variant, rhs source) into a
bounded cache that shows its lines in tracebacks.

The rhs is a float-level ``SecondOrderOde.rhs1``, and each stage's
``@call`` expands in one of two ways.  A generated rhs carries its own
straight-line source (a KernelSource; rhs_parser.compile_rhs makes every
one, and this module none), and the kernel runs that source inline, with
its temporaries renamed per stage and its constants read from the
function's globals once per run, so a new parameter value reuses the
compiled kernel.  Any other callable, a wrapper around a generated one
included, is called on every stage.  The two variants differ in two
snippets:

- the rhs call: the dim-1 variant's ``rhs1`` takes and returns floats,
  and the seven values of a step are checked together once they are in;
  the dim-n variant calls ``rhs1`` with lists of n floats, or a wrapper
  around the array ``rhs`` that hands it fresh (n,) arrays, and checks
  the length and each value's finiteness as they come (an inline source
  has the variant's shape, and its values are checked in the same order);
- the error scale: builtin max in dim 1, np.maximum's rule (a NaN wins)
  in dim n.

The error norm is the same in both: sqrt(ss / 2n), where ss sums the
squared ratios left to right in Python floats, x components first, then
v components.  (That is the order OpenBLAS's AVX2 ``ddot`` kernels sum a
(2n,) vector in, but no BLAS call decides it, so no CPU does.)  A zero
scale makes the division raise ZeroDivisionError, and an inf or NaN ss
makes en inf or NaN; either rejects the step.

Each other statement is the scalar form of a whole-array NumPy expression,
in its operation order (NumPy's elementwise ops round as Python floats
do), so the dim-n bits are those of the array version; the tests keep
both an array reference kernel and a plain dim-1 one, and pin every
result to theirs bit for bit.  With one norm, a dim-1 ode gives the same
bits on either variant.

integrate_ivp runs the step loop exactly once.  With its ``record``
argument set (the default) the loop appends one tuple per accepted step
to a list: start time, signed width, start state and the stage
derivatives the interpolant reads, ``(t, h, x, v, k1, v3, k3, ..., v7,
k7)`` (stage 1's derivative is ``(v, k1)``, and stage 2's, whose row of
P is zero, is not kept); without it the run
keeps only its two ends and its count of accepted steps, so runs read
only at their ends (Jacobian columns, extensions, Cauchy runs) pass
record=False and record nothing.  A step's interpolant
is built from its tuple when a tau inside it is evaluated, and never
kept.

Every evaluation is one batched read, Trajectory.read, which returns plain
floats.  When every tau is a span end it returns the stored end rows, with
no bisect (shooting residuals and extension starts read these).  Else a
knot tau reads its stored state, and each step touched by an interior tau
builds its q = K.T @ P once, as straight-line float code generated per
dimension (_dense_q).  Then each row of q @ p is its four terms summed
in floats, with p = (th, th^2, th^3, th^4): in dim 1 in pairs,
(q0 p1 + q2 p3) + (q1 p2 + q3 p4), the order of NumPy's stacked
(m, 2, 4) @ (m, 4, 1) product that dim-1 reads once made, so their bits
did not move; in dim n left to right.  The row is y0 + h * qp.  These
are the per-tau operations of the quartic interpolant, so every tau has
the same bits alone or in a batch.  Only the public eval and
eval_many build StatePoints from the rows.

A step too small to move tau (t + h == t, far from 0) raises
StepSizeUnderflow, as one below h_min does.

Results are deterministic: identical inputs and config yield identical bits,
and a Trajectory returns the same bits for a tau whatever it was asked before.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import itertools
import linecache
import math
import operator
import re
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from types import CodeType, FunctionType
from typing import Callable

import numpy as np

from .errors import FebvpError

__all__ = [
    "SecondOrderOde",
    "StatePoint",
    "IntegratorConfig",
    "Trajectory",
    "IntegrationError",
    "StepSizeUnderflow",
    "MaxStepsExceeded",
    "NonFiniteRhs",
    "OutOfSpan",
    "integrate_ivp",
    "KernelSource",
]


class IntegrationError(FebvpError):
    """Base class for integrator failures."""


class StepSizeUnderflow(IntegrationError):
    code = "step_underflow"


class MaxStepsExceeded(IntegrationError):
    code = "max_steps_exceeded"


class NonFiniteRhs(IntegrationError):
    code = "nonfinite_rhs"


class OutOfSpan(FebvpError):
    code = "out_of_span"


@dataclass(eq=False)
class SecondOrderOde:
    """A second-order system xdd = f(tau, x, xd) in dimension ``dim``.

    Args:
        dim: number of components n (>= 1).
        rhs: map (tau, x, v) -> f with x, v, f numpy arrays of shape (n,).
        label: human-readable name used in reports and error context.
        rhs1: optional float-level form of ``rhs``, which the integrator
            uses instead of ``rhs`` to avoid array overhead.  For dim == 1
            it takes plain floats (tau, x, v) and returns a float; for
            dim n it takes tau and lists of n floats x, v and returns a
            sequence of n floats (any other length raises ValueError).  It
            must give the bits of ``rhs``.  A generated rhs1 that carries
            a KernelSource (rhs_parser.compile_rhs's) is run inline by the
            integrator and never called; any other rhs1, a wrapper put on
            a generated one included, is called once at the start and six
            times per attempted step of each run.
    """

    dim: int
    rhs: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    label: str = ""
    rhs1: Callable[[float, float, float], float] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")

    @classmethod
    def from_scalar(cls, f: Callable[[float, float, float], float], label: str = "") -> "SecondOrderOde":
        """Build a one-dimensional ode from a float-valued rhs."""

        def rhs(tau: float, x: np.ndarray, v: np.ndarray) -> np.ndarray:
            return np.array([f(tau, float(x[0]), float(v[0]))])

        return cls(dim=1, rhs=rhs, label=label, rhs1=f)


@dataclass(frozen=True)
class StatePoint:
    """State (x, xd) at a time tau.  Arrays have shape (dim,)."""

    tau: float
    x: np.ndarray
    v: np.ndarray

    @classmethod
    def of(cls, tau: float, x, v) -> "StatePoint":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        v = np.atleast_1d(np.asarray(v, dtype=float))
        if x.shape != v.shape or x.ndim != 1:
            raise ValueError(f"x and v must be 1-d arrays of equal length, got {x.shape} and {v.shape}")
        return cls(float(tau), x, v)


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and limits for integrate_ivp.

    Local error per step is controlled against abs_tol + rel_tol * |state|
    componentwise (RMS-aggregated).
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    h_init: float = 1e-3
    h_min: float = 1e-12
    max_steps: int = 1_000_000

    def __post_init__(self):
        # A NaN or negative tolerance turns off error control, and a NaN
        # step floor never compares as undercut.  A zero tolerance is
        # legal: a zero error scale rejects the step.
        for name in ("rel_tol", "abs_tol", "h_min"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
        if not (math.isfinite(self.h_init) and self.h_init > 0):
            raise ValueError(f"h_init must be a finite number > 0, got {self.h_init!r}")
        if not self.max_steps >= 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps!r}")


# Dormand-Prince 5(4) tableau (Butcher coefficients), the embedded error
# weights E = b5 - b4hat, and the quartic dense-output matrix P.
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71 / 57600,
    -71 / 16695,
    71 / 1920,
    -17253 / 339200,
    22 / 525,
    -1 / 40,
)
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
_FLOAT64 = np.dtype(float)
# The nonzero entries (s, P[s][j]) of each column j of P, in stage order,
# and the stages they read, whose derivatives a recorded step keeps.
_P_COLUMNS = tuple(tuple((s, row[j]) for s, row in enumerate(_P) if row[j] != 0.0)
                   for j in range(4))
_P_STAGES = tuple(s for s, row in enumerate(_P) if any(row))

# PI controller constants: factor = SAFETY * err^(-KI) * err_prev^(KP),
# clamped to [MIN_FACTOR, MAX_FACTOR].
_SAFETY = 0.9
_KI = 0.7 / 5
_KP = 0.4 / 5
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ERR_PREV_INIT = 1e-4


def _dense_q(n: int) -> Callable:
    """The q of a step tuple in dimension n, ``q(step)``: the 8n floats
    (row-major (2n, 4), x rows, then v rows) of K.T @ P, each summed from
    0.0 over its column of P's nonzero entries in stage order, as
    straight-line float code compiled on first use into _DENSE_Q.  Row s
    of K is the derivative of stage s + 1; the tuple keeps the rows of
    _P_STAGES from its start v on, row 0 being (v, k1)."""

    def build() -> tuple[str, str]:
        n2 = 2 * n
        names = ", ".join(f"k{s}_{r}" for s in _P_STAGES for r in range(n2))
        sums = ", ".join(" + ".join(["0.0"] + [f"{p!r} * k{s}_{r}" for s, p in column])
                         for r in range(n2) for column in _P_COLUMNS)
        return (f"<febvp.ode_core dense q, dim {n}>",
                f"def q(step):\n"
                f"    {names}, = step[{2 + n}:]\n"
                f"    return ({sums},)\n")

    return _DENSE_Q.function(n, build, globals())


class Trajectory:
    """Piecewise dense solution of one integration run.

    It holds the run's two ends, ``_ends`` (the start and end taus) and
    ``_rows`` (the (2n,) states ``x, v`` there, as lists of floats), its
    count of accepted steps, and, when the run recorded, ``_steps``: one
    tuple of ``2 + 13 n`` floats per accepted step, in integration order,
    ``t, h, x (n), v (n), k1 (n), (v3, k3), ..., (v7, k7)``: start time,
    signed width, start state, and the stage derivatives the interpolant
    reads, each ``(v_s, k_s)`` of 2n floats.  Stage 1's is ``(v, k1)``,
    whose v is the start state's, and stage 2's is not kept, as its row
    of the interpolant's P is zero.  A run that did not
    record has ``_steps`` None: it reads its two ends and nothing else.
    The knot list, each step's start time and the end tau, is built on
    the first read that needs it; a backward run keeps decreasing tau and
    is searched in reverse, never copied.

    Every evaluation goes through read: exactly at a knot it returns the
    stored state; strictly inside a step it evaluates the step's quartic
    interpolant, built from its tuple (the same arithmetic whichever
    kernel variant produced the run).  Nothing is kept between calls but
    the steps and the knot list, so every query gives the same bits in
    any order and in any batch.
    """

    def __init__(self, dim: int, ends: tuple[float, float], rows: tuple[list, list],
                 n_segments: int, steps: list[tuple] | None, label: str = ""):
        self.dim = dim
        self._ends, self._rows = ends, rows
        self.n_segments = n_segments  # accepted steps
        self._steps = steps
        self._knots: list[float] | None = None
        self._backward = ends[1] < ends[0]
        self.label = label

    def _knot_list(self) -> list[float]:
        if self._steps is None:
            raise ValueError("the run was not recorded: only its two ends can be read")
        if self._knots is None:
            self._knots = [step[0] for step in self._steps] + [self._ends[1]]
        return self._knots

    @property
    def knots(self) -> list[float]:
        """Step boundaries in increasing tau.

        Raises:
            ValueError: the run was not recorded.
        """
        knots = self._knot_list()
        return knots[::-1] if self._backward else list(knots)

    @property
    def span(self) -> tuple[float, float]:
        t0, t1 = self._ends
        return (t1, t0) if self._backward else (t0, t1)

    def eval(self, tau: float) -> StatePoint:
        """Evaluate the trajectory at tau.

        Raises:
            OutOfSpan: tau lies outside [span lo, span hi].
        """
        return self.eval_many((tau,))[0]

    def eval_many(self, taus) -> list[StatePoint]:
        """Evaluate the trajectory at each tau of taus, in the order given;
        each result has the bits of eval(tau).

        Raises:
            OutOfSpan: a tau lies outside [span lo, span hi].
        """
        taus = [float(tau) for tau in taus]
        n = self.dim
        return [StatePoint(tau, np.array(row[:n]), np.array(row[n:]))
                for tau, row in zip(taus, self.read(taus))]

    def read(self, taus) -> list[list[float]]:
        """The state at each tau of taus, in the order given, as a row of
        2n plain floats: x, then v.

        When every tau is a span end, copies of the stored end rows are
        returned.  Else a knot tau reads its stored state, and an interior
        tau its step's interpolant y0 + h * (q @ p), with th = (tau - t) / h
        and p = (th, th^2, th^3, th^4): q is built once per touched step,
        and each row of q @ p is summed in floats, in dim 1 in pairs,
        (q0 p1 + q2 p3) + (q1 p2 + q3 p4), in dim n left to right.  A run
        that did not record reads only its ends.

        Raises:
            OutOfSpan: a tau lies outside [span lo, span hi].
            ValueError: a tau lies strictly inside the span of a run that
                did not record.
        """
        lo, hi = self.span
        taus = [float(tau) for tau in taus]
        n2 = 2 * self.dim
        if {lo, hi}.issuperset(taus):
            # the stored end rows
            t0 = self._ends[0]
            start, end = self._rows
            return [start[:] if tau == t0 else end[:] for tau in taus]
        for tau in taus:
            if not lo <= tau <= hi:
                raise OutOfSpan(
                    f"tau={tau!r} outside trajectory span [{lo!r}, {hi!r}]",
                    tau=tau, span=(lo, hi),
                )
        knots, steps = self._knot_list(), self._steps
        rows = []
        # per interior tau: (its place in rows, h, y0), then its q and p
        inner, qs, ps = [], [], []
        built, q_of = {}, _dense_q(self.dim)
        for tau in taus:
            if self._backward:
                i = bisect.bisect_left(knots, -tau, key=operator.neg)
            else:
                i = bisect.bisect_left(knots, tau)
            if knots[i] == tau:
                rows.append(list(steps[i][2:2 + n2]) if i < len(steps) else self._rows[1][:])
                continue
            step = steps[i - 1]
            q = built.get(i)
            if q is None:
                q = built[i] = q_of(step)
            h = step[1]
            th = (tau - step[0]) / h
            inner.append((len(rows), h, step[2:2 + n2]))
            rows.append(None)
            qs.append(q)
            ps.append((th, th * th, th ** 3, th ** 4))
        if n2 == 2:
            # each row of q times p, summed in pairs in the order of the
            # stacked NumPy product (m, 2, 4) @ (m, 4, 1) dim-1 reads once made
            qp = [[(q0 * p1 + q2 * p3) + (q1 * p2 + q3 * p4),
                   (q4 * p1 + q6 * p3) + (q5 * p2 + q7 * p4)]
                  for (q0, q1, q2, q3, q4, q5, q6, q7), (p1, p2, p3, p4) in zip(qs, ps)]
        else:
            # each row of q times p, summed left to right
            qp = [[a * p1 + b * p2 + c * p3 + d * p4 for a, b, c, d in zip(*[iter(q)] * 4)]
                  for q, (p1, p2, p3, p4) in zip(qs, ps)]
        # y0 + h * qp in plain floats, which round as NumPy's do
        for (j, h, y0), hq in zip(inner, qp):
            rows[j] = [y + h * c for y, c in zip(y0, hq)]
        return rows


def _pi_factor(err_norm: float, err_prev: float) -> float:
    if err_norm == 0.0:
        return _MAX_FACTOR
    f = _SAFETY * err_norm ** (-_KI) * err_prev ** _KP
    return min(_MAX_FACTOR, max(_MIN_FACTOR, f))


def integrate_ivp(ode: SecondOrderOde, start: StatePoint, tau_end: float,
                  config: IntegratorConfig = IntegratorConfig(),
                  record: bool = True) -> Trajectory:
    """Integrate the first-order system y = (x, v) from start.tau to tau_end.

    tau_end may be below start.tau (backward integration).  A zero-width call
    (tau_end == start.tau) yields a trajectory with a single knot.  With
    record False the trajectory reads only its two ends (Trajectory.read).

    Raises:
        StepSizeUnderflow: required step fell below config.h_min.
        MaxStepsExceeded: attempted steps exceeded config.max_steps.
        NonFiniteRhs: the rhs produced a non-finite value.
    """
    n = ode.dim
    if start.x.shape != (n,) or start.v.shape != (n,):
        raise ValueError(f"start state has wrong dimension for ode of dim {n}")
    y0 = start.x.tolist() + start.v.tolist()
    if not (all(map(math.isfinite, y0)) and math.isfinite(start.tau)):
        raise ValueError("start state must be finite")
    tau_end = float(tau_end)
    if not math.isfinite(tau_end):
        raise ValueError("tau_end must be finite")

    t0 = float(start.tau)
    if start.x.dtype is not _FLOAT64 or start.v.dtype is not _FLOAT64:  # NumPy casts the rest
        y0 = np.concatenate([start.x, start.v]).astype(float).tolist()
    if tau_end == t0:
        return Trajectory(n, (t0, t0), (y0, y0), 0, [], label=ode.label)
    if n == 1 and ode.rhs1 is not None:
        f, variant = ode.rhs1, "scalar"
    else:
        f = ode.rhs1 if ode.rhs1 is not None else _float_rhs(ode.rhs, n)
        variant = "vector"
    t_last, y_last, n_segments, steps = _kernel(n, variant, f)(f, t0, y0, tau_end, config, record)
    return Trajectory(n, (t0, t_last), (y0, y_last), n_segments, steps, label=ode.label)


def _float_rhs(rhs: Callable, n: int) -> Callable:
    """The float-level form f(tau, xs, vs) -> list of n floats of an array
    rhs, which gets fresh (n,) arrays.  A float64 (n,) result is read back
    as it is (the kernel checks its finiteness); any other result (lists,
    scalars, other dtypes and shapes) is checked for finiteness, then
    broadcast and cast into (n,) floats, in that order."""
    new_array, ndarray, float64, shape = np.array, np.ndarray, np.dtype(float), (n,)
    buf = np.empty(n)

    def f(t: float, xs: list, vs: list) -> list:
        fv = rhs(t, new_array(xs), new_array(vs))
        if type(fv) is ndarray and fv.dtype is float64 and fv.shape == shape:
            return fv.tolist()
        if not np.all(np.isfinite(fv)):
            raise NonFiniteRhs(f"rhs returned a non-finite value at tau={t!r}", tau=t)
        buf[:] = fv
        return buf.tolist()

    return f


# The step loop, written once; _kernel unrolls it for a dimension n and a
# variant of _VARIANTS:
#
# - ``name{*}suffix`` becomes ``name0suffix, name1suffix, ...``;
# - each run of lines holding ``{i}`` is repeated once per component i;
# - ``@call S TIME`` becomes the rhs values of stage S at TIME: the
#   variant's call of f, or, for an f that carries a KernelSource, that
#   source inline (_inline_snippets); ``@load`` reads the inline source's
#   globals from f (nothing for a call);
# - ``@check`` becomes the variant's step check and ``{scale}`` its max;
# - ``{ss}`` becomes the sum of the squared error ratios, left to right:
#   ``ex0 * ex0 + ex1 * ex1 + ... + ev0 * ev0 + ...``;
# - ``{n}`` becomes n, and ``{n2}`` the float 2n.
#
# Component i of stage s = 1..7 is x{i}_{s}, v{i}_{s} and k{i}_{s}, the rhs
# value there; stage 1 is the step's start, stage 7 its end, and the stage
# derivative is (v{i}_{s}, k{i}_{s}).  max/min and _pi_factor are inline:
# max(a, b) is written ``b if b > a else a`` and min(a, b)
# ``b if b < a else a``.
_TEMPLATE = '''\
def kernel(f, t0, y0, t_end, cfg, record):
    @load
    # Locals are cheaper to read than module globals on every step.
    isfinite, sqrt, inf = math.isfinite, math.sqrt, math.inf
    c2, c3, c4, c5 = _C2, _C3, _C4, _C5
    a21, a31, a32, a41, a42, a43 = _A21, _A31, _A32, _A41, _A42, _A43
    a51, a52, a53, a54 = _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    b1, b3, b4, b5, b6 = _B1, _B3, _B4, _B5, _B6
    e1, e3, e4, e5, e6, e7 = _E1, _E3, _E4, _E5, _E6, _E7
    safety, neg_ki, kp = _SAFETY, -_KI, _KP
    min_factor, max_factor, err_prev_init = _MIN_FACTOR, _MAX_FACTOR, _ERR_PREV_INIT
    rel, at = cfg.rel_tol, cfg.abs_tol
    h_min, max_steps = cfg.h_min, cfg.max_steps

    direction = 1.0 if t_end > t0 else -1.0
    t = t0
    x{*}_1, v{*}_1 = y0
    @call 1 t
    # (the dim-n call has checked these already; the dim-1 one has not)
    if not all(map(isfinite, (k{*}_1,))):
        raise NonFiniteRhs(f"rhs returned a non-finite value at tau={t!r}", tau=t)
    h = direction * min(cfg.h_init, abs(t_end - t0))
    err_prev = err_prev_init
    attempts = 0
    accepted = 0

    steps = [] if record else None
    if record:
        append = steps.append

    remaining = t_end - t
    while remaining * direction > 0.0:
        if abs(h) >= abs(remaining):
            hs, last = remaining, True
        else:
            hs, last = h, False
            if abs(hs) < h_min:
                raise StepSizeUnderflow(
                    f"step size {abs(hs)!r} fell below h_min={h_min!r} at tau={t!r}",
                    tau=t, h=abs(hs))
            if t + hs == t:
                raise StepSizeUnderflow(
                    f"step size {abs(hs)!r} does not move tau={t!r}", tau=t, h=abs(hs))
        attempts += 1
        if attempts > max_steps:
            raise MaxStepsExceeded(
                f"exceeded max_steps={max_steps} before reaching tau={t_end!r}",
                tau=t, max_steps=max_steps)

        x{i}_2 = x{i}_1 + hs * (a21 * v{i}_1)
        v{i}_2 = v{i}_1 + hs * (a21 * k{i}_1)
        @call 2 t + c2 * hs
        x{i}_3 = x{i}_1 + hs * (a31 * v{i}_1 + a32 * v{i}_2)
        v{i}_3 = v{i}_1 + hs * (a31 * k{i}_1 + a32 * k{i}_2)
        @call 3 t + c3 * hs
        x{i}_4 = x{i}_1 + hs * (a41 * v{i}_1 + a42 * v{i}_2 + a43 * v{i}_3)
        v{i}_4 = v{i}_1 + hs * (a41 * k{i}_1 + a42 * k{i}_2 + a43 * k{i}_3)
        @call 4 t + c4 * hs
        x{i}_5 = x{i}_1 + hs * (a51 * v{i}_1 + a52 * v{i}_2 + a53 * v{i}_3 + a54 * v{i}_4)
        v{i}_5 = v{i}_1 + hs * (a51 * k{i}_1 + a52 * k{i}_2 + a53 * k{i}_3 + a54 * k{i}_4)
        @call 5 t + c5 * hs
        x{i}_6 = x{i}_1 + hs * (a61 * v{i}_1 + a62 * v{i}_2 + a63 * v{i}_3 + a64 * v{i}_4 + a65 * v{i}_5)
        v{i}_6 = v{i}_1 + hs * (a61 * k{i}_1 + a62 * k{i}_2 + a63 * k{i}_3 + a64 * k{i}_4 + a65 * k{i}_5)
        @call 6 t + hs
        x{i}_7 = x{i}_1 + hs * (b1 * v{i}_1 + b3 * v{i}_3 + b4 * v{i}_4 + b5 * v{i}_5 + b6 * v{i}_6)
        v{i}_7 = v{i}_1 + hs * (b1 * k{i}_1 + b3 * k{i}_3 + b4 * k{i}_4 + b5 * k{i}_5 + b6 * k{i}_6)
        t_new = t_end if last else t + hs
        @call 7 t_new
        @check

        ex{i} = hs * (e1 * v{i}_1 + e3 * v{i}_3 + e4 * v{i}_4 + e5 * v{i}_5 + e6 * v{i}_6 + e7 * v{i}_7)
        ev{i} = hs * (e1 * k{i}_1 + e3 * k{i}_3 + e4 * k{i}_4 + e5 * k{i}_5 + e6 * k{i}_6 + e7 * k{i}_7)
        s0, s1 = abs(x{i}_1), abs(x{i}_7)
        sx{i} = at + rel * ({scale})
        s0, s1 = abs(v{i}_1), abs(v{i}_7)
        sv{i} = at + rel * ({scale})
        try:
            ex{i} = ex{i} / sx{i}
            ev{i} = ev{i} / sv{i}
        except ZeroDivisionError:
            # A zero scale rejects the step, as a nan or inf norm does.
            en = inf
        else:
            # RMS of the ratios; an inf or NaN sum rejects the step.
            en = sqrt(({ss}) / {n2})

        if isfinite(en) and en <= 1.0:
            accepted += 1
            if record:
                # stage 1's derivative starts at the state's v, and stage
                # 2's P row is zero: neither is kept
                append((t, hs, x{*}_1, v{*}_1, k{*}_1, v{*}_3, k{*}_3,
                        v{*}_4, k{*}_4, v{*}_5, k{*}_5, v{*}_6, k{*}_6, v{*}_7, k{*}_7))
            # _pi_factor(en, err_prev), then max(en, _ERR_PREV_INIT).
            if en == 0.0:
                fac = max_factor
            else:
                fac = safety * en ** neg_ki * err_prev ** kp
                fac = fac if fac > min_factor else min_factor
                fac = fac if fac < max_factor else max_factor
            h = hs * fac
            err_prev = err_prev_init if err_prev_init > en else en
            t = t_new
            x{i}_1, v{i}_1, k{i}_1 = x{i}_7, v{i}_7, k{i}_7
            remaining = t_end - t
        else:
            if isfinite(en):
                fac = safety * en ** -0.2
                fac = fac if fac > min_factor else min_factor
            else:
                fac = min_factor
            h = hs * fac
            if abs(h) < h_min:
                raise StepSizeUnderflow(
                    f"step size {abs(h)!r} fell below h_min={h_min!r} at tau={t!r}",
                    tau=t, h=abs(h))
    return t, [x{*}_1, v{*}_1], accepted, steps
'''

# What the two variants do differently: the rhs call of a stage (with its
# checks, and the checks made once a step's seven calls are in) and the
# error scale's max.  An inline source replaces the call and load
# snippets, and keeps the checks.
_VARIANTS = {
    # dim 1, f(tau, x, v) -> float; the rhs values are checked once all
    # seven are in.
    "scalar": {
        "load": "",
        "call": "k{*}_{s} = f({t}, x{*}_{s}, v{*}_{s})",
        "check": ("if not (isfinite(k0_2) and isfinite(k0_3) and isfinite(k0_4)"
                  " and isfinite(k0_5) and isfinite(k0_6) and isfinite(k0_7)):\n"
                  "    raise NonFiniteRhs(f\"rhs returned a non-finite value near tau={t!r}\", tau=t)"),
        "scale": "s1 if s1 > s0 else s0",
    },
    # dim n, f(tau, xs, vs) -> n values, each checked as it comes.
    "vector": {
        "load": "",
        "call": """\
ts = {t}
fs = f(ts, [x{*}_{s}], [v{*}_{s}])
try:
    wrong = len(fs) != {n}
except TypeError:
    wrong = True
if wrong:
    raise ValueError(f"rhs1 must return {n} values, got {fs!r}")
k{*}_{s}, = fs
if not isfinite(k{i}_{s}): raise NonFiniteRhs(f"rhs returned a non-finite value at tau={ts!r}", tau=ts)""",
        "check": "",
        # np.maximum(|y|, |y_new|): a NaN s1 wins, where builtin max keeps s0.
        "scale": "s1 if s1 > s0 or s1 != s1 else s0",
    },
}


@dataclass(frozen=True, eq=False)
class KernelSource:
    """The straight-line source of a generated float-level rhs, which a
    kernel unrolls into each stage in place of calling the function.

    ``lines`` are assignments, run in order, each to a temporary of its
    own, and ``results`` the names of the values: one for a scalar source
    (a dim-1 rhs, which returns a float), n for a list source (a dim-n rhs,
    which returns a list).  Every name of the source is marked with ``$``:
    ``$tau``, ``$x1``..``$xn`` and ``$v1``..``$vn`` are the rhs arguments,
    a name that a line assigns is a temporary, and any other is a global of
    the function, which the kernel reads from ``f.__globals__`` once per
    run.  ``code`` is the code of the function that carries the source as
    its ``kernel_source``: a kernel inlines it only for that function, so a
    wrapper that copied the attribute is still called.  rhs_parser.compile_rhs
    makes that function from the lines and results, and sets its source.
    """

    code: CodeType
    lines: tuple[str, ...]
    results: tuple[str, ...]
    scalar: bool


_MARKED = re.compile(r"\$(\w+)")
_ARGUMENT = re.compile(r"([xv])([1-9][0-9]*)")


def _inline_snippets(source: KernelSource, variant: str) -> dict:
    """The ``load`` and ``call`` snippets of a kernel that runs source in
    place of calling f.  ``load`` reads the source's globals from f once per
    run.  ``call`` assigns the stage's k values from the stage's names: a
    temporary that is a result is the k value itself, the others are
    renamed per stage, and the stage time is computed only where the
    source reads ``$tau``.  The vector variant then checks each value, in
    order, as its call snippet does."""
    assigned = {line.split("=", 1)[0].strip()[1:] for line in source.lines}
    results: dict = {}
    for i, value in enumerate(source.results):
        if value[1:] in assigned:
            results.setdefault(value[1:], i)
    globals_: dict = {}

    def rename(m: re.Match) -> str:
        word = m[1]
        if word == "tau":
            return "ts"
        argument = _ARGUMENT.fullmatch(word)
        if argument:
            return f"{argument[1]}{int(argument[2]) - 1}_{{s}}"
        if word in results:
            return f"k{results[word]}_{{s}}"
        if word in assigned:
            return f"r_{word}_{{s}}"
        globals_[word] = None
        return f"f_{word}"

    call = [_MARKED.sub(rename, line) for line in source.lines]
    call += [f"k{i}_{{s}} = " + _MARKED.sub(rename, value)
             for i, value in enumerate(source.results) if results.get(value[1:]) != i]
    if any(m[1] == "tau" for text in source.lines + source.results for m in _MARKED.finditer(text)):
        call.insert(0, "ts = {t}")
    if variant == "vector":
        call += [f"if not isfinite(k{i}_{{s}}): raise NonFiniteRhs("
                 'f"rhs returned a non-finite value at tau={({t})!r}", tau={t})'
                 for i in range(len(source.results))]
    load = [f"f_{name} = f.__globals__[{name!r}]" for name in globals_]
    return {"load": "\n".join(load), "call": "\n".join(call)}


class CodeCache:
    """The code of the last ``size`` generated functions used, by key: the
    kernels here and rhs_parser.compile_rhs's.  Eviction drops only the
    cache's reference: a code's lines stay in linecache, for tracebacks,
    until the code dies, and a source whose code lives gets it back, so no
    two live codes share a filename.  A live evicted code may be held only
    by garbage (a dropped traceback's frames), so evicting one collects if
    it was used since an eviction last collected: at most one eviction in
    ``size`` collects, however many functions a caller holds."""

    # (filename, source) -> code, for every live code of every cache
    _live = weakref.WeakValueDictionary()
    _collections = 0  # garbage collections evictions have run

    def __init__(self, size: int):
        self.size = size
        self._entries: OrderedDict = OrderedDict()  # key -> [function, collections at last use]

    def function(self, key, build: Callable[[], tuple[str, str]],
                 namespace: dict) -> FunctionType:
        """key's function over the globals namespace (the kept one when it
        has those).  On a miss, build() gives the filename and the source
        that defines it."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            entry[1] = CodeCache._collections
        else:
            filename, source = built = build()
            code = self._live.get(built)
            if code is None:
                scope: dict = {}
                exec(compile(source, filename, "exec"), namespace, scope)
                (fn,) = scope.values()
                self._live[built] = fn.__code__
                linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
                weakref.finalize(fn.__code__, linecache.cache.pop, filename, None)
            else:
                fn = FunctionType(code, namespace)
            entry = self._entries[key] = [fn, CodeCache._collections]
            if len(self._entries) > self.size:
                _, (evicted, used) = self._entries.popitem(last=False)
                evicted = weakref.ref(evicted.__code__)
                if evicted() is not None and used == CodeCache._collections:
                    gc.collect()
                    CodeCache._collections += 1
        fn = entry[0]
        return fn if fn.__globals__ is namespace else FunctionType(fn.__code__, namespace)


# The kernels of the last few (n, variant, source) keys: one costs 3 ms
# and 218 lines to compile at n = 2, 154 ms and 5960 lines at n = 200,
# and about 40 KB to keep.  A pass of the benchmark's requests uses 6
# inline kernels, and a traced pass (whose rhs wrappers are called) the
# 2 call kernels of dims 1 and 2.
_KERNELS = CodeCache(16)
# The dense-output q of the last few dimensions read (_dense_q).
_DENSE_Q = CodeCache(4)


def _kernel(n: int, variant: str, f: Callable) -> Callable:
    """_TEMPLATE unrolled for dimension n with the snippets of
    _VARIANTS[variant], compiled on first use into _KERNELS.  Where f
    carries a KernelSource of the variant's shape, its stages run that
    source inline, and f is never called; otherwise they call f."""
    source = getattr(f, "kernel_source", None)
    if source is not None and not (source.code is getattr(f, "__code__", None)
                                   and source.scalar == (variant == "scalar")
                                   and len(source.results) == n):
        source = None
    key = (n, variant) if source is None else (n, variant, source.lines, source.results)

    def unroll() -> tuple[str, str]:
        snippets, name = _VARIANTS[variant], f"dim {n}, {variant}"
        if source is not None:
            snippets = {**snippets, **_inline_snippets(source, variant)}
            name += ", inline " + hashlib.blake2b(repr(key).encode(), digest_size=6).hexdigest()

        def directive(m: re.Match) -> str:
            text = snippets[m[2]].replace("{s}", m[3]).replace("{t}", m[4])
            return "\n".join(m[1] + line for line in text.splitlines())

        text = re.sub(r"^( *)@(\w+) ?(\d?) ?(.*)$", directive, _TEMPLATE, flags=re.M)
        squares = " + ".join(f"e{c}{i} * e{c}{i}" for c in "xv" for i in range(n))
        text = (text.replace("{scale}", snippets["scale"]).replace("{ss}", squares)
                .replace("{n}", str(n)).replace("{n2}", repr(2.0 * n)))
        text = re.sub(r"(\w*)\{\*\}(\w*)",
                      lambda m: ", ".join(f"{m[1]}{i}{m[2]}" for i in range(n)), text)
        lines = []
        for unrolled, run in itertools.groupby(text.splitlines(True), lambda line: "{i}" in line):
            run = list(run)
            lines += [line.replace("{i}", str(i)) for i in range(n) for line in run] if unrolled else run
        return f"<febvp.ode_core kernel, {name}>", "".join(lines)

    return _KERNELS.function(key, unroll, globals())
