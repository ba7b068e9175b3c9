"""Adaptive integration of second-order ODE systems xdd = f(tau, x, xd).

The integrator is an explicit Dormand-Prince 5(4) pair with the standard
quartic dense-output interpolant and a PI step-size controller (safety 0.9,
step-ratio clamp [0.2, 5.0]).  Integration works forward or backward in tau
and produces a Trajectory that can be evaluated anywhere inside the covered
span; evaluation exactly at a stored knot returns the stored state bitwise.

The step loop only records each accepted step: its start time, width,
start state and the seven stage derivatives go into one flat
``array('d')`` per run, and the knot times and states into two more.  The
scalar kernel appends each accepted step to Python lists, moves them into
those arrays with ``fromlist`` every _FLUSH_DOUBLES doubles of step records
and appends the rest by concatenation at the end of the run, so it pays no
per-step array call and holds a bounded number of pending floats.  A step's interpolant is built
from its record when a tau inside it is evaluated, and never kept, so
most steps (those of Jacobian and line-search runs that are never
evaluated inside) cost no dense-output work at all.

Results are deterministic: identical inputs and config yield identical bits,
and a Trajectory returns the same bits for a tau whatever it was asked before.
"""

from __future__ import annotations

import bisect
import math
import operator
from array import array
from dataclasses import dataclass
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
        rhs1: optional scalar fast path for dim == 1, called with plain
            floats (tau, x, v) and returning a float.  Semantically it must
            equal ``rhs``; when present the integrator uses it to avoid
            array overhead on one-dimensional problems.
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
_P_ARR = np.array(_P)
# The nonzero entries (s, P[s][j]) of each column j of P, in stage order.
_P_COLUMNS = tuple(tuple((s, row[j]) for s, row in enumerate(_P) if row[j] != 0.0)
                   for j in range(4))

# PI controller constants: factor = SAFETY * err^(-KI) * err_prev^(KP),
# clamped to [MIN_FACTOR, MAX_FACTOR].
_SAFETY = 0.9
_KI = 0.7 / 5
_KP = 0.4 / 5
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ERR_PREV_INIT = 1e-4

# The scalar kernel moves its pending step records from Python lists into
# the flat arrays once they hold this many doubles, so a long run keeps
# about this many floats as Python objects.
_FLUSH_DOUBLES = 4096


def _interpolate(t: float, h: float, y0: np.ndarray, q: np.ndarray,
                 tau: float) -> np.ndarray:
    th = (tau - t) / h
    p = np.array([th, th * th, th ** 3, th ** 4])
    return y0 + h * (q @ p)


def _dense_scalar(steps: array, base: int, n2: int) -> tuple:
    """Interpolant ``(t, h, y0, q)`` of a scalar-kernel step, q summed stage
    by stage in plain floats over the nonzero entries of P."""
    t, h, x, v = steps[base:base + 4]
    kxs = steps[base + 4:base + 18:2]
    kvs = steps[base + 5:base + 18:2]
    qx = []
    qv = []
    for column in _P_COLUMNS:
        ax = bv = 0.0
        for s, ps in column:
            ax += ps * kxs[s]
            bv += ps * kvs[s]
        qx.append(ax)
        qv.append(bv)
    return t, h, np.array((x, v)), np.array((qx, qv))


def _dense_vector(steps: array, base: int, n2: int) -> tuple:
    """Interpolant ``(t, h, y0, q)`` of a vector-kernel step: q = K.T @ P, as
    one matrix product."""
    y0 = np.frombuffer(steps, count=n2, offset=8 * (base + 2))
    K = np.frombuffer(steps, count=7 * n2, offset=8 * (base + 2 + n2)).reshape(7, n2)
    return steps[base], steps[base + 1], y0, K.T @ _P_ARR


class Trajectory:
    """Piecewise dense solution of one integration run, stored flat.

    Three ``array('d')`` buffers hold the run in integration order, so a
    backward run keeps decreasing tau and is indexed in reverse, never copied:

    - ``_knots``: the accepted step boundaries, one double each;
    - ``_states``: the (2n,) state ``(x, v)`` at each knot;
    - ``_steps``: one record of ``2 + 16 n`` doubles per accepted step,
      ``t, h, y (2n), K (7 x 2n, stage-major)``: start time, signed width,
      start state and the seven stage derivatives.

    A step's quartic interpolant is built from its record only when a tau
    strictly inside it is evaluated, with the arithmetic of the kernel that
    produced the run; exactly at a knot the stored state is returned.
    Nothing is kept between calls, so every query gives the same bits in
    any order; eval_many shares one step's interpolant among its taus.
    """

    def __init__(self, dim: int, knots: array, states: array, steps: array,
                 dense: Callable = _dense_vector, label: str = ""):
        self.dim = dim
        self._knots = knots
        self._states = states
        self._steps = steps
        self._dense = dense
        self._backward = len(knots) > 1 and knots[-1] < knots[0]
        self.label = label

    @property
    def knots(self) -> list[float]:
        """Step boundaries in increasing tau."""
        return list(reversed(self._knots) if self._backward else self._knots)

    @property
    def span(self) -> tuple[float, float]:
        k = self._knots
        return (k[-1], k[0]) if self._backward else (k[0], k[-1])

    @property
    def n_segments(self) -> int:
        """Number of accepted steps."""
        return len(self._steps) // (2 + 16 * self.dim)

    def eval(self, tau: float) -> StatePoint:
        """Evaluate the trajectory at tau.

        Raises:
            OutOfSpan: tau lies outside [span lo, span hi].
        """
        return self.eval_many((tau,))[0]

    def eval_many(self, taus) -> list[StatePoint]:
        """Evaluate the trajectory at each tau of taus, in the order given.

        Each result has the bits of eval(tau); a step's interpolant is built
        once however many of the taus fall inside it.

        Raises:
            OutOfSpan: a tau lies outside [span lo, span hi].
        """
        taus = [float(tau) for tau in taus]
        lo, hi = self.span
        for tau in taus:
            if not lo <= tau <= hi:
                raise OutOfSpan(
                    f"tau={tau!r} outside trajectory span [{lo!r}, {hi!r}]",
                    tau=tau, span=(lo, hi),
                )
        knots = self._knots
        n = self.dim
        n2 = 2 * n
        built = {}
        out = []
        for tau in taus:
            if self._backward:
                i = bisect.bisect_left(knots, -tau, key=operator.neg)
            else:
                i = bisect.bisect_left(knots, tau)
            if knots[i] == tau:
                y = np.frombuffer(self._states, count=n2, offset=8 * n2 * i)
            else:
                segment = built.get(i)
                if segment is None:
                    segment = built[i] = self._dense(
                        self._steps, (i - 1) * (2 + 8 * n2), n2)
                y = _interpolate(*segment, tau)
            out.append(StatePoint(tau, y[:n].copy(), y[n:].copy()))
        return out


def _pi_factor(err_norm: float, err_prev: float) -> float:
    if err_norm == 0.0:
        return _MAX_FACTOR
    f = _SAFETY * err_norm ** (-_KI) * err_prev ** _KP
    return min(_MAX_FACTOR, max(_MIN_FACTOR, f))


def integrate_ivp(ode: SecondOrderOde, start: StatePoint, tau_end: float,
                  config: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Integrate the first-order system y = (x, v) from start.tau to tau_end.

    tau_end may be below start.tau (backward integration).  A zero-width call
    (tau_end == start.tau) yields a trajectory with a single knot.

    Raises:
        StepSizeUnderflow: required step fell below config.h_min.
        MaxStepsExceeded: attempted steps exceeded config.max_steps.
        NonFiniteRhs: the rhs produced a non-finite value.
    """
    n = ode.dim
    if start.x.shape != (n,) or start.v.shape != (n,):
        raise ValueError(f"start state has wrong dimension for ode of dim {n}")
    if not (np.all(np.isfinite(start.x)) and np.all(np.isfinite(start.v)) and math.isfinite(start.tau)):
        raise ValueError("start state must be finite")
    tau_end = float(tau_end)
    if not math.isfinite(tau_end):
        raise ValueError("tau_end must be finite")

    t0 = float(start.tau)
    if tau_end == t0:
        states = array("d", np.concatenate([start.x, start.v]).astype(float).tobytes())
        return Trajectory(n, array("d", (t0,)), states, array("d"), label=ode.label)

    if n == 1 and ode.rhs1 is not None:
        knots, states, steps = _integrate_scalar(
            ode.rhs1, t0, float(start.x[0]), float(start.v[0]), tau_end, config)
        return Trajectory(n, knots, states, steps, _dense_scalar, label=ode.label)
    knots, states, steps = _integrate_vector(ode, t0, start, tau_end, config)
    return Trajectory(n, knots, states, steps, _dense_vector, label=ode.label)


def _integrate_scalar(f, t0: float, x0: float, v0: float, t_end: float,
                      cfg: IntegratorConfig):
    """Unrolled dim-1 kernel; same scheme as the vector path, plain floats.

    The loop does the floating-point operations of _pi_factor and of the
    builtin max/min inline, in the same order: max(a, b) is written
    ``b if b > a else a`` and min(a, b) ``b if b < a else a``.
    """
    # Locals are cheaper to read than module globals on every step.
    isfinite, sqrt = math.isfinite, math.sqrt
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
    t, x, v = t0, x0, v0
    kv1 = f(t, x, v)
    if not isfinite(kv1):
        raise NonFiniteRhs(f"rhs returned a non-finite value at tau={t!r}", tau=t)
    kx1 = v
    h = direction * min(cfg.h_init, abs(t_end - t0))
    err_prev = err_prev_init
    attempts = 0

    knots = array("d", (t0,))
    states = array("d", (x0, v0))
    steps = array("d")
    # Accepted steps collect in lists, moved into the arrays in batches.
    pending_knots = []
    pending_states = []
    pending_steps = []

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
        attempts += 1
        if attempts > max_steps:
            raise MaxStepsExceeded(
                f"exceeded max_steps={max_steps} before reaching tau={t_end!r}",
                tau=t, max_steps=max_steps)

        # Stages 2..6: x-derivative is the stage velocity, v-derivative is f.
        x2 = x + hs * (a21 * kx1)
        v2 = v + hs * (a21 * kv1)
        kv2 = f(t + c2 * hs, x2, v2)
        x3 = x + hs * (a31 * kx1 + a32 * v2)
        v3 = v + hs * (a31 * kv1 + a32 * kv2)
        kv3 = f(t + c3 * hs, x3, v3)
        x4 = x + hs * (a41 * kx1 + a42 * v2 + a43 * v3)
        v4 = v + hs * (a41 * kv1 + a42 * kv2 + a43 * kv3)
        kv4 = f(t + c4 * hs, x4, v4)
        x5 = x + hs * (a51 * kx1 + a52 * v2 + a53 * v3 + a54 * v4)
        v5 = v + hs * (a51 * kv1 + a52 * kv2 + a53 * kv3 + a54 * kv4)
        kv5 = f(t + c5 * hs, x5, v5)
        x6 = x + hs * (a61 * kx1 + a62 * v2 + a63 * v3 + a64 * v4 + a65 * v5)
        v6 = v + hs * (a61 * kv1 + a62 * kv2 + a63 * kv3 + a64 * kv4 + a65 * kv5)
        kv6 = f(t + hs, x6, v6)
        x_new = x + hs * (b1 * kx1 + b3 * v3 + b4 * v4 + b5 * v5 + b6 * v6)
        v_new = v + hs * (b1 * kv1 + b3 * kv3 + b4 * kv4 + b5 * kv5 + b6 * kv6)
        t_new = t_end if last else t + hs
        kv7 = f(t_new, x_new, v_new)
        if not (isfinite(kv2) and isfinite(kv3) and isfinite(kv4)
                and isfinite(kv5) and isfinite(kv6) and isfinite(kv7)):
            raise NonFiniteRhs(f"rhs returned a non-finite value near tau={t!r}", tau=t)

        err_x = hs * (e1 * kx1 + e3 * v3 + e4 * v4 + e5 * v5 + e6 * v6 + e7 * v_new)
        err_v = hs * (e1 * kv1 + e3 * kv3 + e4 * kv4 + e5 * kv5 + e6 * kv6 + e7 * kv7)
        s0, s1 = abs(x), abs(x_new)
        sx = at + rel * (s1 if s1 > s0 else s0)
        s0, s1 = abs(v), abs(v_new)
        sv = at + rel * (s1 if s1 > s0 else s0)
        ex = err_x / sx
        ev = err_v / sv
        en = sqrt(0.5 * (ex * ex + ev * ev))

        if isfinite(en) and en <= 1.0:
            pending_steps += (t, hs, x, v, kx1, kv1, v2, kv2, v3, kv3, v4, kv4,
                              v5, kv5, v6, kv6, v_new, kv7)
            pending_knots.append(t_new)
            pending_states += (x_new, v_new)
            if len(pending_steps) >= _FLUSH_DOUBLES:
                steps.fromlist(pending_steps)
                knots.fromlist(pending_knots)
                states.fromlist(pending_states)
                pending_steps.clear()
                pending_knots.clear()
                pending_states.clear()
            # _pi_factor(en, err_prev), then max(en, _ERR_PREV_INIT).
            if en == 0.0:
                fac = max_factor
            else:
                fac = safety * en ** neg_ki * err_prev ** kp
                fac = fac if fac > min_factor else min_factor
                fac = fac if fac < max_factor else max_factor
            h = hs * fac
            err_prev = err_prev_init if err_prev_init > en else en
            t, x, v = t_new, x_new, v_new
            kx1, kv1 = v_new, kv7
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
    # Concatenation allocates each buffer at its exact size (fromlist would
    # over-allocate by about 1/16, and cached trajectories keep that).
    return (knots + array("d", pending_knots),
            states + array("d", pending_states),
            steps + array("d", pending_steps))


def _integrate_vector(ode: SecondOrderOde, t0: float, start: StatePoint,
                      t_end: float, cfg: IntegratorConfig):
    n = ode.dim
    rhs = ode.rhs

    def fsys(t: float, y: np.ndarray) -> np.ndarray:
        x = y[:n]
        v = y[n:]
        fv = rhs(t, x, v)
        if not np.all(np.isfinite(fv)):
            raise NonFiniteRhs(f"rhs returned a non-finite value at tau={t!r}", tau=t)
        out = np.empty(2 * n)
        out[:n] = v
        out[n:] = fv
        return out

    rel, at = cfg.rel_tol, cfg.abs_tol
    direction = 1.0 if t_end > t0 else -1.0
    t = t0
    y = np.concatenate([start.x, start.v]).astype(float)
    k1 = fsys(t, y)
    h = direction * min(cfg.h_init, abs(t_end - t0))
    err_prev = _ERR_PREV_INIT
    attempts = 0

    knots = array("d", (t0,))
    states = array("d", y.tobytes())
    steps = array("d")
    K = np.empty((7, 2 * n))

    while (t_end - t) * direction > 0.0:
        remaining = t_end - t
        if abs(h) >= abs(remaining):
            hs, last = remaining, True
        else:
            hs, last = h, False
            if abs(hs) < cfg.h_min:
                raise StepSizeUnderflow(
                    f"step size {abs(hs)!r} fell below h_min={cfg.h_min!r} at tau={t!r}",
                    tau=t, h=abs(hs))
        attempts += 1
        if attempts > cfg.max_steps:
            raise MaxStepsExceeded(
                f"exceeded max_steps={cfg.max_steps} before reaching tau={t_end!r}",
                tau=t, max_steps=cfg.max_steps)

        K[0] = k1
        K[1] = fsys(t + _C2 * hs, y + hs * (_A21 * K[0]))
        K[2] = fsys(t + _C3 * hs, y + hs * (_A31 * K[0] + _A32 * K[1]))
        K[3] = fsys(t + _C4 * hs, y + hs * (_A41 * K[0] + _A42 * K[1] + _A43 * K[2]))
        K[4] = fsys(t + _C5 * hs, y + hs * (_A51 * K[0] + _A52 * K[1] + _A53 * K[2] + _A54 * K[3]))
        K[5] = fsys(t + hs, y + hs * (_A61 * K[0] + _A62 * K[1] + _A63 * K[2] + _A64 * K[3] + _A65 * K[4]))
        y_new = y + hs * (_B1 * K[0] + _B3 * K[2] + _B4 * K[3] + _B5 * K[4] + _B6 * K[5])
        t_new = t_end if last else t + hs
        K[6] = fsys(t_new, y_new)

        err = hs * (_E1 * K[0] + _E3 * K[2] + _E4 * K[3] + _E5 * K[4] + _E6 * K[5] + _E7 * K[6])
        scale = at + rel * np.maximum(np.abs(y), np.abs(y_new))
        ratio = err / scale
        en = math.sqrt(float(ratio @ ratio) / (2 * n))

        if math.isfinite(en) and en <= 1.0:
            steps.extend((t, hs))
            steps.frombytes(y.tobytes())
            steps.frombytes(K.tobytes())
            knots.append(t_new)
            states.frombytes(y_new.tobytes())
            h = hs * _pi_factor(en, err_prev)
            err_prev = max(en, _ERR_PREV_INIT)
            t, y, k1 = t_new, y_new, K[6].copy()
        else:
            fac = _MIN_FACTOR if not math.isfinite(en) else max(_MIN_FACTOR, _SAFETY * en ** -0.2)
            h = hs * fac
            if abs(h) < cfg.h_min:
                raise StepSizeUnderflow(
                    f"step size {abs(h)!r} fell below h_min={cfg.h_min!r} at tau={t!r}",
                    tau=t, h=abs(h))
    return knots, states, steps
