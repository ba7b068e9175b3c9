"""Integrator tests against closed-form solutions."""

import functools
import gc
import linecache
import math
import random
import re
import struct
import time
import traceback
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from febvp import bvp_shooting, catalog, cli, geodesics, ode_core
from febvp.functional_laws import SampleSpec, check_lemma1_equivalence
from febvp.rhs_parser import EvaluationError, ParseError, bind, eval_expr, parse
from febvp.ode_core import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
    _A61, _A62, _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6,
    _C2, _C3, _C4, _C5, _E1, _E3, _E4, _E5, _E6, _E7,
    _ERR_PREV_INIT, _KERNELS, _MIN_FACTOR, _SAFETY,
    CodeCache,
    IntegrationError,
    IntegratorConfig,
    MaxStepsExceeded,
    NonFiniteRhs,
    OutOfSpan,
    SecondOrderOde,
    StatePoint,
    StepSizeUnderflow,
    _P,
    _float_rhs,
    _kernel,
    _pi_factor,
    integrate_ivp,
)

FREE_FALL = SecondOrderOde.from_scalar(lambda t, x, v: -9.8, label="ff")
OSC = SecondOrderOde.from_scalar(lambda t, x, v: -x, label="osc")


def ff_exact(t, x0, v0, g=-9.8):
    return x0 + v0 * t + 0.5 * g * t * t


def test_free_fall_exact():
    traj = integrate_ivp(FREE_FALL, StatePoint.of(0.0, [1.0], [2.0]), 3.0,
                         IntegratorConfig())
    for t in (0.0, 0.7, 1.5, 2.25, 3.0):
        st = traj.eval(t)
        assert abs(float(st.x[0]) - ff_exact(t, 1.0, 2.0)) < 1e-12
        assert abs(float(st.v[0]) - (2.0 - 9.8 * t)) < 1e-12


def test_oscillator_half_period():
    # x(0)=1, v(0)=0 -> x(t)=cos t; at pi the state is exactly negated
    traj = integrate_ivp(OSC, StatePoint.of(0.0, [1.0], [0.0]), math.pi,
                         IntegratorConfig())
    end = traj.eval(math.pi)
    assert abs(float(end.x[0]) + 1.0) < 5e-11
    assert abs(float(end.v[0])) < 5e-11


def test_dense_output_between_steps():
    traj = integrate_ivp(OSC, StatePoint.of(0.0, [1.0], [0.0]), 6.0,
                         IntegratorConfig())
    ts = np.linspace(0.05, 5.95, 237)
    worst = max(abs(float(traj.eval(t).x[0]) - math.cos(t)) for t in ts)
    assert worst < 1e-9


def test_backward_integration():
    # start at pi with the state of sin, integrate back to 0
    traj = integrate_ivp(OSC, StatePoint.of(math.pi, [math.sin(math.pi)],
                                            [math.cos(math.pi)]), 0.0,
                         IntegratorConfig())
    for t in (0.0, 0.5, 1.7, 3.0):
        assert abs(float(traj.eval(t).x[0]) - math.sin(t)) < 1e-10


def test_span_endpoints_exact():
    traj = integrate_ivp(FREE_FALL, StatePoint.of(0.25, [0.0], [1.0]), 1.75,
                         IntegratorConfig())
    lo, hi = traj.span
    assert lo == 0.25 and hi == 1.75
    # landing is exact, not merely close
    assert traj.eval(1.75).tau == 1.75


def test_vector_system():
    # planar rotation: both components solve xdd = -x
    ode = SecondOrderOde(dim=2, rhs=lambda t, x, v: -x, label="rot")
    traj = integrate_ivp(ode, StatePoint.of(0.0, [1.0, 0.0], [0.0, 1.0]), 2.0,
                         IntegratorConfig())
    st = traj.eval(1.3)
    assert abs(float(st.x[0]) - math.cos(1.3)) < 1e-10
    assert abs(float(st.x[1]) - math.sin(1.3)) < 1e-10


def test_nonfinite_rhs_raises():
    bad = SecondOrderOde.from_scalar(
        lambda t, x, v: float("nan") if t > 0.5 else 0.0, label="nan-jump")
    with pytest.raises(NonFiniteRhs):
        integrate_ivp(bad, StatePoint.of(0.0, [0.0], [0.0]), 1.0,
                      IntegratorConfig())


def test_max_steps_raises():
    with pytest.raises(MaxStepsExceeded):
        integrate_ivp(OSC, StatePoint.of(0.0, [1.0], [0.0]), 100.0,
                      IntegratorConfig(max_steps=5))


def test_eval_outside_span_raises():
    traj = integrate_ivp(FREE_FALL, StatePoint.of(0.0, [0.0], [0.0]), 1.0,
                         IntegratorConfig())
    with pytest.raises(OutOfSpan):
        traj.eval(1.5)
    with pytest.raises(OutOfSpan):
        traj.eval(-0.1)


def test_integration_error_is_common_base():
    assert issubclass(MaxStepsExceeded, IntegrationError)
    assert issubclass(NonFiniteRhs, IntegrationError)


def test_tolerance_scaling():
    # loosening rel_tol by 4 orders must not break a 1e-6 bound but
    # should take visibly fewer steps
    tight = integrate_ivp(OSC, StatePoint.of(0.0, [1.0], [0.0]), 10.0,
                          IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14))
    loose = integrate_ivp(OSC, StatePoint.of(0.0, [1.0], [0.0]), 10.0,
                          IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10))
    assert abs(float(loose.eval(10.0).x[0]) - math.cos(10.0)) < 1e-6
    assert loose.n_segments < tight.n_segments


def test_zero_width_target():
    traj = integrate_ivp(OSC, StatePoint.of(0.3, [0.5], [0.1]), 0.3,
                         IntegratorConfig())
    st = traj.eval(0.3)
    assert float(st.x[0]) == 0.5 and float(st.v[0]) == 0.1


# ------------------------------------------------- lazy dense output (pinned)
#
# A Trajectory keeps each accepted step as a tuple, t, h, y (2n) and the
# stage derivatives K (7 x 2n, stage-major), and builds the quartic
# interpolant only when a tau inside the step is evaluated.  The reference
# below is the eager formula the integrator used to apply at every accepted
# step; evaluation must reproduce it bit for bit.

DAMPED = SecondOrderOde.from_scalar(
    lambda t, x, v: -x + 0.3 * math.sin(t) * v, label="damped")
DAMPED_VEC1 = SecondOrderOde(
    dim=1, rhs=lambda t, x, v: -x + 0.3 * np.sin(t) * v, label="damped[vec]")
COUPLED = SecondOrderOde(
    dim=2, rhs=lambda t, x, v: np.array([-x[1] + 0.1 * v[0],
                                         x[0] - 0.2 * np.cos(t) * v[1]]),
    label="coupled")


def eager_q(K):
    """The eager q of a step, (2n, 4): row r, column j sums P[s][j] * K[s][r]
    over the nonzero entries of column j in stage order, from 0.0, in plain
    floats (the dim-1 kernel's old 4x7 loop, per component)."""
    q = []
    for r in range(K.shape[1]):
        ks = [float(k) for k in K[:, r]]
        row = []
        for j in range(4):
            acc = 0.0
            for s in range(7):
                if _P[s][j] != 0.0:
                    acc += _P[s][j] * ks[s]
            row.append(acc)
        q.append(row)
    return np.array(q)


def eager_interpolant(y0, h, q, th):
    """y0 + h * (q @ p) with p = (th, th^2, th^3, th^4): NumPy's product in
    dim 1, each row's four terms summed left to right in dim n."""
    p = [th, th * th, th ** 3, th ** 4]
    if len(y0) == 2:
        return y0 + h * (q @ np.array(p))
    return y0 + h * np.array([a * p[0] + b * p[1] + c * p[2] + d * p[3] for a, b, c, d in q.tolist()])


def step_records(traj):
    """(t, h, y0, K) of each accepted step's tuple, in integration order.
    The tuple keeps stage 1's derivative as (v, k1), v being y0's, and not
    stage 2's, whose row of P is zero: K's row 1 is NaN."""
    n = traj.dim
    records = []
    for step in traj._steps:
        y0, k1, rest = step[2:2 + 2 * n], step[2 + 2 * n:2 + 3 * n], step[2 + 3 * n:]
        K = np.array([y0[n:] + k1, [math.nan] * 2 * n, *np.reshape(rest, (5, 2 * n)).tolist()])
        records.append((step[0], step[1], np.array(y0), K))
    return records


def buffers(traj):
    """The bytes of a recorded trajectory's two end rows and step tuples."""
    return ([array("d", row).tobytes() for row in traj._rows]
            + [array("d", step).tobytes() for step in traj._steps])


def bits(state):
    return (float(state.tau).hex(), tuple(float(c).hex() for c in state.x),
            tuple(float(c).hex() for c in state.v))


LAZY_CASES = [
    pytest.param(DAMPED, [0.5], [-0.3], 0.0, 5.0,
                 id="scalar-forward"),
    pytest.param(DAMPED, [0.5], [-0.3], 5.0, -1.0,
                 id="scalar-backward"),
    pytest.param(DAMPED_VEC1, [0.5], [-0.3], 0.0, 5.0,
                 id="vector1-forward"),
    pytest.param(DAMPED_VEC1, [0.5], [-0.3], 5.0, -1.0,
                 id="vector1-backward"),
    pytest.param(COUPLED, [0.5, 1.0], [-0.3, 0.2], 0.0, 5.0,
                 id="vector2-forward"),
    pytest.param(COUPLED, [0.5, 1.0], [-0.3, 0.2], 5.0, -1.0,
                 id="vector2-backward"),
]


@pytest.mark.parametrize("ode, x0, v0, t0, t1", LAZY_CASES)
def test_lazy_dense_output_matches_eager_reference(ode, x0, v0, t0, t1):
    traj = integrate_ivp(ode, StatePoint.of(t0, x0, v0), t1, IntegratorConfig())
    records = step_records(traj)
    n = ode.dim
    assert traj.n_segments == len(records) == len(traj.knots) - 1

    # Knots: each step starts where the previous one ended; the run ends
    # exactly at t1.  Knot states are the states the steps start from.
    starts = [t for t, _, _, _ in records]
    forward = starts + [t1]
    assert traj.knots == (forward if t1 > t0 else forward[::-1])
    for t, _, y0, _ in records:
        st = traj.eval(t)
        assert bits(st) == bits(StatePoint(t, y0[:n], y0[n:]))
    end = traj.eval(t1)
    assert end.tau == t1

    # Interior points: two per step, against the eager interpolant.
    interior = 0
    for t, h, y0, K in records:
        q = eager_q(K)
        for frac in (0.29, 0.71):
            tau = t + frac * h
            y = eager_interpolant(y0, h, q, (tau - t) / h)
            assert bits(traj.eval(tau)) == bits(StatePoint(tau, y[:n], y[n:]))
            interior += 1
    assert interior >= 200


@pytest.mark.parametrize("ode, x0, v0, t0, t1", LAZY_CASES)
def test_lazy_dense_output_ignores_query_order(ode, x0, v0, t0, t1):
    start = StatePoint.of(t0, x0, v0)
    lo, hi = min(t0, t1), max(t0, t1)
    taus = list(np.linspace(lo, hi, 257))
    taus += integrate_ivp(ode, start, t1, IntegratorConfig()).knots[::7]
    orders = [taus, taus[::-1],
              list(np.random.default_rng(3).permutation(taus))]
    seen = []
    for order in orders:
        traj = integrate_ivp(ode, start, t1, IntegratorConfig())
        got = {float(t): bits(traj.eval(t)) for t in order}
        # asking again on the same trajectory changes nothing either
        assert {float(t): bits(traj.eval(t)) for t in reversed(order)} == got
        seen.append(got)
    assert seen[0] == seen[1] == seen[2]


@pytest.mark.parametrize("t0, t1", [(0.0, 5.0), (5.0, -1.0), (0.0, 20.0)])
def test_scalar_and_vector_kernels_agree_bit_for_bit(t0, t1):
    # Both kernels sum the error norm and the dense q in one order, and a
    # dim-1 read is the same product whichever kernel recorded the run, so
    # knots, knot states and dense output keep the same bits.
    start = StatePoint.of(t0, [0.5], [-0.3])
    scalar = integrate_ivp(DAMPED, start, t1, IntegratorConfig())
    vector = integrate_ivp(DAMPED_VEC1, start, t1, IntegratorConfig())
    assert scalar.span == vector.span
    assert scalar.knots == vector.knots
    assert buffers(scalar) == buffers(vector)
    taus = np.linspace(t0, t1, 401).tolist()
    assert ([[c.hex() for c in row] for row in scalar.read(taus)]
            == [[c.hex() for c in row] for row in vector.read(taus)])


# ------------------------------------------------- kernel entry points
#
# The compiled kernels, called as the parity tests below call them: on the
# start state directly, recording, outside integrate_ivp.  A run returns
# its end tau, its end row, its count of accepted steps and one tuple per
# accepted step.

def _integrate_scalar(f, t0: float, x0: float, v0: float, t_end: float,
                      cfg: IntegratorConfig):
    """The dim-1 kernel on a float rhs f(tau, x, v) -> float, recording."""
    return _kernel(1, "scalar", f)(f, t0, (x0, v0), t_end, cfg, True)


def _integrate_vector(ode: SecondOrderOde, t0: float, start: StatePoint,
                      t_end: float, cfg: IntegratorConfig):
    """The dim-n kernel on ``ode.rhs1``, or on ``ode.rhs`` behind _float_rhs,
    recording.  Both are looked up on every call."""
    f = ode.rhs1 if ode.rhs1 is not None else _float_rhs(ode.rhs, ode.dim)
    y0 = np.concatenate([start.x, start.v]).astype(float).tolist()
    return _kernel(ode.dim, "vector", f)(f, t0, y0, t_end, cfg, True)


# ------------------------------------------------- scalar kernel bit parity
#
# The scalar kernel is written for few interpreter operations per step
# (locals for the tableau, the PI controller and max/min inline).  The
# plain version below, with module-global lookups and helper calls, is the
# reference: the kernel must give the same bits and the same errors.

def reference_integrate_scalar(f, t0: float, x0: float, v0: float, t_end: float,
                               cfg: IntegratorConfig):
    """Unrolled dim-1 kernel; same scheme as the vector path, plain floats."""
    rel, at = cfg.rel_tol, cfg.abs_tol
    direction = 1.0 if t_end > t0 else -1.0
    t, x, v = t0, x0, v0
    kv1 = f(t, x, v)
    if not math.isfinite(kv1):
        raise NonFiniteRhs(f"rhs returned a non-finite value at tau={t!r}", tau=t)
    kx1 = v
    h = direction * min(cfg.h_init, abs(t_end - t0))
    err_prev = _ERR_PREV_INIT
    attempts = 0

    steps = []

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
            if t + hs == t:
                raise StepSizeUnderflow(
                    f"step size {abs(hs)!r} does not move tau={t!r}", tau=t, h=abs(hs))
        attempts += 1
        if attempts > cfg.max_steps:
            raise MaxStepsExceeded(
                f"exceeded max_steps={cfg.max_steps} before reaching tau={t_end!r}",
                tau=t, max_steps=cfg.max_steps)

        # Stages 2..6: x-derivative is the stage velocity, v-derivative is f.
        x2 = x + hs * (_A21 * kx1)
        v2 = v + hs * (_A21 * kv1)
        kv2 = f(t + _C2 * hs, x2, v2)
        x3 = x + hs * (_A31 * kx1 + _A32 * v2)
        v3 = v + hs * (_A31 * kv1 + _A32 * kv2)
        kv3 = f(t + _C3 * hs, x3, v3)
        x4 = x + hs * (_A41 * kx1 + _A42 * v2 + _A43 * v3)
        v4 = v + hs * (_A41 * kv1 + _A42 * kv2 + _A43 * kv3)
        kv4 = f(t + _C4 * hs, x4, v4)
        x5 = x + hs * (_A51 * kx1 + _A52 * v2 + _A53 * v3 + _A54 * v4)
        v5 = v + hs * (_A51 * kv1 + _A52 * kv2 + _A53 * kv3 + _A54 * kv4)
        kv5 = f(t + _C5 * hs, x5, v5)
        x6 = x + hs * (_A61 * kx1 + _A62 * v2 + _A63 * v3 + _A64 * v4 + _A65 * v5)
        v6 = v + hs * (_A61 * kv1 + _A62 * kv2 + _A63 * kv3 + _A64 * kv4 + _A65 * kv5)
        kv6 = f(t + hs, x6, v6)
        x_new = x + hs * (_B1 * kx1 + _B3 * v3 + _B4 * v4 + _B5 * v5 + _B6 * v6)
        v_new = v + hs * (_B1 * kv1 + _B3 * kv3 + _B4 * kv4 + _B5 * kv5 + _B6 * kv6)
        t_new = t_end if last else t + hs
        kv7 = f(t_new, x_new, v_new)
        if not (math.isfinite(kv2) and math.isfinite(kv3) and math.isfinite(kv4)
                and math.isfinite(kv5) and math.isfinite(kv6) and math.isfinite(kv7)):
            raise NonFiniteRhs(f"rhs returned a non-finite value near tau={t!r}", tau=t)

        err_x = hs * (_E1 * kx1 + _E3 * v3 + _E4 * v4 + _E5 * v5 + _E6 * v6 + _E7 * v_new)
        err_v = hs * (_E1 * kv1 + _E3 * kv3 + _E4 * kv4 + _E5 * kv5 + _E6 * kv6 + _E7 * kv7)
        sx = at + rel * max(abs(x), abs(x_new))
        sv = at + rel * max(abs(v), abs(v_new))
        ex = err_x / sx
        ev = err_v / sv
        en = math.sqrt(0.5 * (ex * ex + ev * ev))

        if math.isfinite(en) and en <= 1.0:
            steps.append((t, hs, x, v, kv1, v3, kv3, v4, kv4,
                          v5, kv5, v6, kv6, v_new, kv7))
            h = hs * _pi_factor(en, err_prev)
            err_prev = max(en, _ERR_PREV_INIT)
            t, x, v = t_new, x_new, v_new
            kx1, kv1 = v_new, kv7
        else:
            fac = _MIN_FACTOR if not math.isfinite(en) else max(_MIN_FACTOR, _SAFETY * en ** -0.2)
            h = hs * fac
            if abs(h) < cfg.h_min:
                raise StepSizeUnderflow(
                    f"step size {abs(h)!r} fell below h_min={cfg.h_min!r} at tau={t!r}",
                    tau=t, h=abs(h))
    return t, [x, v], len(steps), steps


def run_bytes(run):
    """A kernel run's end tau, end row, accepted count and step tuples, as
    hex and bytes."""
    t, y, accepted, steps = run
    return t.hex(), array("d", y).tobytes(), accepted, [array("d", step).tobytes() for step in steps]


def kernel_outcome(kernel, *args):
    """run_bytes of the run, or the error's class, message and context."""
    try:
        return run_bytes(kernel(*args))
    except (IntegrationError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "context", None)


def _rhs1(name, **params):
    return catalog.make_ode(name, params)[0].rhs1


DEFAULT = IntegratorConfig()
PARITY_CASES = [
    pytest.param(_rhs1("free_fall"), 0.0, 0.3, -0.2, 2.0, DEFAULT,
                 id="free_fall-forward"),
    pytest.param(_rhs1("free_fall"), 2.0, 0.3, -0.2, -1.0, DEFAULT,
                 id="free_fall-backward"),
    pytest.param(_rhs1("conic", k=2.0, g=-2.0), 0.0, 0.3, -0.2, 2.0, DEFAULT,
                 id="conic-forward"),
    pytest.param(_rhs1("conic", k=2.0, g=-2.0), 2.0, 0.3, -0.2, -1.0, DEFAULT,
                 id="conic-backward"),
    pytest.param(_rhs1("oscillator"), 0.0, 1.0, 0.0, math.pi, DEFAULT,
                 id="oscillator-forward"),
    pytest.param(_rhs1("oscillator"), math.pi, 0.0, -1.0, -0.5, DEFAULT,
                 id="oscillator-backward"),
    pytest.param(DAMPED.rhs1, 0.0, 0.5, -0.3, 5.0, DEFAULT,
                 id="damped-forward"),
    pytest.param(DAMPED.rhs1, 5.0, 0.5, -0.3, -1.0, DEFAULT,
                 id="damped-backward"),
    pytest.param(DAMPED.rhs1, 1.5, 0.5, -0.3, 1.5, DEFAULT,
                 id="damped-zero-width"),
    pytest.param(DAMPED.rhs1, 0.0, 0.5, -0.3, 30.0, DEFAULT,
                 id="damped-long"),
    pytest.param(DAMPED.rhs1, 0.0, 0.5, -0.3, 5.0,
                 IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, h_init=0.5),
                 id="damped-loose-rejecting"),
    # errors
    pytest.param(lambda t, x, v: math.nan, 0.0, 0.0, 0.0, 1.0, DEFAULT,
                 id="nonfinite-at-start"),
    pytest.param(lambda t, x, v: math.inf if t > 0.5 else 0.0,
                 0.0, 0.0, 0.0, 1.0, DEFAULT, id="nonfinite-in-step"),
    pytest.param(_rhs1("oscillator"), 0.0, 1.0, 0.0, 10.0,
                 IntegratorConfig(h_min=1e-2), id="underflow-before-step"),
    pytest.param(_rhs1("oscillator"), 0.0, 1.0, 0.0, 10.0,
                 IntegratorConfig(h_init=1.0, h_min=0.5, rel_tol=1e-14,
                                  abs_tol=1e-16),
                 id="underflow-after-rejection"),
    pytest.param(lambda t, x, v: x * x, 0.0, 1.0, 1.0, 5.0, DEFAULT,
                 id="underflow-at-blow-up"),
    pytest.param(_rhs1("oscillator"), 0.0, 1.0, 0.0, 100.0,
                 IntegratorConfig(max_steps=40), id="max-steps"),
    # h_init is below the spacing of floats at 1e20: t + h == t
    pytest.param(_rhs1("free_fall"), 1e20, 0.3, -0.2, 1e20 + 1e6, DEFAULT,
                 id="step-does-not-move-tau"),
]


@pytest.mark.parametrize("f, t0, x0, v0, t1, cfg", PARITY_CASES)
def test_scalar_kernel_matches_reference_bits(f, t0, x0, v0, t1, cfg):
    got = kernel_outcome(_integrate_scalar, f, t0, x0, v0, t1, cfg)
    assert got == kernel_outcome(reference_integrate_scalar,
                                 f, t0, x0, v0, t1, cfg)


def test_parity_cases_cover_every_error():
    errors = set()
    for case in PARITY_CASES:
        got = kernel_outcome(_integrate_scalar, *case.values)
        if isinstance(got[0], type):
            errors.add(got[0])
    assert errors == {NonFiniteRhs, StepSizeUnderflow, MaxStepsExceeded}


# ------------------------------------------------- vector kernel bit parity
#
# The vector kernel computes on lists of plain floats in the order of the
# NumPy expressions below, which are the reference: the kernel must give
# the same bits and the same errors, for any rhs return type.

def reference_integrate_vector(ode: SecondOrderOde, t0: float, start: StatePoint,
                               t_end: float, cfg: IntegratorConfig):
    """The vector kernel as whole-array NumPy expressions."""
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

    steps = []
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
            if t + hs == t:
                raise StepSizeUnderflow(
                    f"step size {abs(hs)!r} does not move tau={t!r}", tau=t, h=abs(hs))
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
        # The norm's rule: the squared ratios summed left to right in
        # floats, from 0.0, in y's order (x components, then v components).
        ss = 0.0
        for r in ratio.tolist():
            ss += r * r
        en = math.sqrt(ss / (2 * n))

        if math.isfinite(en) and en <= 1.0:
            steps.append((t, hs, *y.tolist(), *K[0, n:].tolist(), *K[2:].ravel().tolist()))
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
    return t, y.tolist(), len(steps), steps


HALF_PLANE = geodesics.geodesic_ode(geodesics.half_plane_connection())
EXPRESSION2 = cli._build_expression_ode(["k^2*x1 + g", "-x2"],
                                        {"k": 1.5, "g": -0.5})


def vector_case(ode, t0, x0, v0, t1, cfg=DEFAULT, *, id):
    return pytest.param(ode, float(t0), StatePoint.of(t0, x0, v0), t1, cfg, id=id)


VECTOR_PARITY_CASES = [
    vector_case(HALF_PLANE, 0.0, [0.2, 1.0], [0.7, 0.4], 1.0,
                id="geodesic-forward"),
    vector_case(HALF_PLANE, 1.0, [0.2, 1.0], [0.7, 0.4], -0.5,
                id="geodesic-backward"),
    vector_case(EXPRESSION2, 0.0, [0.5, 1.0], [-0.3, 0.2], 2.0,
                id="expression-forward"),
    vector_case(EXPRESSION2, 2.0, [0.5, 1.0], [-0.3, 0.2], -1.0,
                id="expression-backward"),
    vector_case(DAMPED_VEC1, 0.0, [0.5], [-0.3], 5.0, id="damped-vec1-forward"),
    vector_case(DAMPED_VEC1, 5.0, [0.5], [-0.3], -1.0,
                id="damped-vec1-backward"),
    vector_case(COUPLED, 1.5, [0.5, 1.0], [-0.3, 0.2], 1.5, id="zero-width"),
    vector_case(DAMPED_VEC1, 0.0, [0.5], [-0.3], 5.0,
                IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, h_init=0.5),
                id="loose-rejecting"),
    vector_case(COUPLED, 0.0, [0.5, 1.0], [-0.3, 0.2], 30.0, id="long"),
    # rhs return types other than a float (n,) array
    vector_case(SecondOrderOde(2, lambda t, x, v: [-x[1] + 0.1 * v[0], x[0]]),
                0.0, [0.5, 1.0], [-0.3, 0.2], 3.0, id="list-rhs"),
    vector_case(SecondOrderOde(2, lambda t, x, v: -1.5),
                0.0, [0.5, 1.0], [-0.3, 0.2], 3.0, id="scalar-rhs-broadcast"),
    vector_case(SecondOrderOde(2, lambda t, x, v: np.zeros(3)),
                0.0, [0.5, 1.0], [-0.3, 0.2], 3.0, id="wrong-shape"),
    # The finiteness check comes before the shape check.
    vector_case(SecondOrderOde(2, lambda t, x, v: np.array([0.0, 1.0, math.nan])),
                0.0, [0.5, 1.0], [-0.3, 0.2], 3.0, id="wrong-shape-nonfinite"),
    # A zero scale (abs_tol 0 on a component that stays 0) divides 0 by 0.
    vector_case(HALF_PLANE, 0.0, [0.0, 1.0], [0.0, 0.5], 1.0,
                IntegratorConfig(abs_tol=0.0), id="zero-scale"),
    # x overflows to inf and later meets -inf: a NaN in y_new must make
    # its scale NaN (np.maximum), where builtin max would keep |y| = inf.
    vector_case(SecondOrderOde(1, lambda t, x, v: np.array([-1e305])),
                0.0, [0.0], [1e307], 300.0, id="overflow-nan-scale"),
    # errors
    vector_case(SecondOrderOde(2, lambda t, x, v: np.array([math.nan, 0.0])),
                0.0, [0.5, 1.0], [-0.3, 0.2], 1.0, id="nonfinite-at-start"),
    vector_case(SecondOrderOde(
        2, lambda t, x, v: np.array([0.0, math.inf if t > 0.5 else 0.0])),
                0.0, [0.5, 1.0], [-0.3, 0.2], 1.0, id="nonfinite-in-step"),
    vector_case(HALF_PLANE, 0.0, [0.2, 1.0], [0.7, 0.4], 10.0,
                IntegratorConfig(h_min=1e-2), id="underflow-before-step"),
    vector_case(SecondOrderOde(2, lambda t, x, v: x * x),
                0.0, [1.0, 1.0], [1.0, 0.5], 5.0, id="underflow-at-blow-up"),
    vector_case(HALF_PLANE, 0.0, [0.2, 1.0], [0.7, 0.4], 10.0,
                IntegratorConfig(max_steps=20), id="max-steps"),
    vector_case(COUPLED, 1e20, [0.5, 1.0], [-0.3, 0.2], 1e20 + 1e6,
                id="step-does-not-move-tau"),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("ode, t0, start, t1, cfg", VECTOR_PARITY_CASES)
def test_vector_kernel_matches_reference_bits(ode, t0, start, t1, cfg):
    got = kernel_outcome(_integrate_vector, ode, t0, start, t1, cfg)
    assert got == kernel_outcome(reference_integrate_vector,
                                 ode, t0, start, t1, cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_vector_parity_cases_cover_every_error_and_rejection():
    errors = set()
    rejecting = 0
    for case in VECTOR_PARITY_CASES:
        ode, t0, start, t1, cfg = case.values
        calls = []

        def counted(t, x, v, rhs=ode.rhs):
            calls.append(t)
            return rhs(t, x, v)

        counting = SecondOrderOde(ode.dim, counted)
        got = kernel_outcome(_integrate_vector, counting, t0, start, t1, cfg)
        if isinstance(got[0], type):
            errors.add(got[0])
        else:
            rejecting += len(calls) > 1 + 6 * got[2]
    assert errors == {NonFiniteRhs, StepSizeUnderflow, MaxStepsExceeded,
                      ValueError}
    assert rejecting


# ------------------------------------------------------ float-level rhs1
#
# The dim-n kernel calls a dim-n ode's rhs1 on lists of floats when it is
# set.  The half-plane geodesic and the compiled --ode system have one; the
# reference above still calls the array rhs, so these cases check rhs1
# against einsum and against the tree-walking evaluator, bit for bit.

EXPRESSION2_TEXTS = ["k^2*x1 + g", "-x2"]
EXPRESSION2_PARAMS = {"k": 1.5, "g": -0.5}
_tree = [parse(text, dim=2, params=("g", "k")) for text in EXPRESSION2_TEXTS]
TREE_WALK2 = SecondOrderOde(2, lambda t, x, v: np.array(
    [eval_expr(e, t, x, v, EXPRESSION2_PARAMS) for e in _tree]))


def without_array_rhs(ode):
    """ode with an array rhs that fails if the kernel calls it."""
    def rhs(t, x, v):
        raise AssertionError("the kernel called the array rhs")
    return SecondOrderOde(ode.dim, rhs, ode.label, rhs1=ode.rhs1)


def rhs1_case(ode, reference, t0, x0, v0, t1, cfg=DEFAULT, *, id):
    return pytest.param(ode, reference, float(t0), StatePoint.of(t0, x0, v0),
                        t1, cfg, id=id)


RHS1_CASES = [
    rhs1_case(HALF_PLANE, HALF_PLANE, 0.0, [0.2, 1.0], [0.7, 0.4], 1.0,
              id="geodesic-forward"),
    rhs1_case(HALF_PLANE, HALF_PLANE, 1.0, [0.2, 1.0], [0.7, 0.4], -0.5,
              id="geodesic-backward"),
    # v1 = 0 stays 0: einsum's zero symbols turn -0.0 sums into +0.0
    rhs1_case(HALF_PLANE, HALF_PLANE, 0.0, [0.2, 1.0], [0.7, 0.0], 1.0,
              id="geodesic-zero-velocity-component"),
    rhs1_case(HALF_PLANE, HALF_PLANE, 0.0, [0.2, 1.0], [-0.0, 0.5], 1.0,
              id="geodesic-vertical"),
    rhs1_case(HALF_PLANE, HALF_PLANE, 0.0, [0.2, 1.0], [0.7, 0.4], 10.0,
              IntegratorConfig(max_steps=20), id="geodesic-max-steps"),
    rhs1_case(EXPRESSION2, TREE_WALK2, 0.0, [0.5, 1.0], [-0.3, 0.2], 2.0,
              id="expression-forward"),
    rhs1_case(EXPRESSION2, TREE_WALK2, 2.0, [0.5, 1.0], [-0.3, 0.2], -1.0,
              id="expression-backward"),
    rhs1_case(EXPRESSION2, TREE_WALK2, 0.0, [0.5, 1.0], [-0.3, 0.2], 30.0,
              id="expression-long"),
]


@pytest.mark.parametrize("ode, reference, t0, start, t1, cfg", RHS1_CASES)
def test_vector_kernel_runs_rhs1_with_the_reference_bits(
        ode, reference, t0, start, t1, cfg):
    assert ode.rhs1 is not None
    got = kernel_outcome(_integrate_vector, without_array_rhs(ode),
                         t0, start, t1, cfg)
    assert got == kernel_outcome(reference_integrate_vector,
                                 reference, t0, start, t1, cfg)


@pytest.mark.parametrize("result", [[1.0], (1.0,), [1.0, 2.0, 3.0], 1.0, []])
def test_dim_n_rhs1_of_the_wrong_length_raises_value_error(result):
    # one value too few or too many is never truncated or broadcast
    ode = SecondOrderOde(2, lambda t, x, v: np.zeros(2),
                         rhs1=lambda t, x, v: result)
    with pytest.raises(ValueError, match="rhs1 must return 2 values"):
        integrate_ivp(ode, StatePoint.of(0.0, [0.5, 1.0], [0.0, 0.0]), 1.0)


def test_dim_n_rhs1_nonfinite_raises_like_the_array_rhs():
    array_rhs = SecondOrderOde(
        2, lambda t, x, v: np.array([0.0, math.inf if t > 0.5 else 0.0]))
    float_rhs = SecondOrderOde(
        2, array_rhs.rhs,
        rhs1=lambda t, x, v: (0.0, math.inf if t > 0.5 else 0.0))
    start = StatePoint.of(0.0, [0.5, 1.0], [-0.3, 0.2])
    got = kernel_outcome(_integrate_vector, float_rhs, 0.0, start, 1.0, DEFAULT)
    assert got[0] is NonFiniteRhs
    assert got == kernel_outcome(_integrate_vector, array_rhs, 0.0, start,
                                 1.0, DEFAULT)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_zero_scale_raises_the_same_underflow_in_both_kernels():
    # abs_tol 0 on the zero solution: every error scale is 0.  The scalar
    # kernel's 0/0 used to escape as ZeroDivisionError; both kernels now
    # reject the step and end in the same StepSizeUnderflow.
    cfg = IntegratorConfig(abs_tol=0.0)
    scalar = kernel_outcome(_integrate_scalar, OSC.rhs1, 0.0, 0.0, 0.0, 1.0,
                            cfg)
    vector = kernel_outcome(_integrate_vector,
                            SecondOrderOde(1, lambda t, x, v: -x), 0.0,
                            StatePoint.of(0.0, [0.0], [0.0]), 1.0, cfg)
    assert scalar[0] is StepSizeUnderflow
    assert scalar == vector


_entries = hst.floats(-2.0, 2.0)


@settings(max_examples=50, deadline=None)
@given(A=hst.lists(_entries, min_size=4, max_size=4),
       B=hst.lists(_entries, min_size=4, max_size=4),
       c=hst.lists(_entries, min_size=2, max_size=2),
       x0=hst.lists(_entries, min_size=2, max_size=2),
       v0=hst.lists(_entries, min_size=2, max_size=2),
       t0=hst.floats(-2.0, 2.0), span=hst.floats(-3.0, 3.0))
def test_vector_kernel_matches_reference_on_random_linear_systems(
        A, B, c, x0, v0, t0, span):
    A, B, c = np.reshape(A, (2, 2)), np.reshape(B, (2, 2)), np.array(c)
    ode = SecondOrderOde(2, lambda t, x, v: A @ x + B @ v + c)
    start = StatePoint.of(t0, x0, v0)
    args = (ode, start.tau, start, t0 + span, DEFAULT)
    assert (kernel_outcome(_integrate_vector, *args)
            == kernel_outcome(reference_integrate_vector, *args))


# ------------------------------------------------------- generated kernels
#
# Both kernels are one template unrolled per dimension (ode_core._kernel).
# The cases above run it at n = 1 and n = 2; these run n = 3, and check
# what the generated code owes its callers: tracebacks that show its lines,
# and an rhs looked up afresh on every run.

def _coupled3(t, x, v):
    return [-x[0] + 0.3 * x[1] + 0.1 * v[2], -x[1] + 0.3 * x[0] - 0.05 * v[0] * v[1],
            -2.0 * x[2] + 0.1 * t * v[0]]


COUPLED3 = SecondOrderOde(3, lambda t, x, v: np.array(_coupled3(t, x, v)),
                          label="coupled3")
COUPLED3_RHS1 = SecondOrderOde(3, COUPLED3.rhs, label="coupled3[rhs1]",
                               rhs1=_coupled3)
START3 = ([0.5, 1.0, -0.2], [-0.3, 0.2, 0.4])

DIM3_CASES = [
    vector_case(ode, t0, *START3, t1, cfg, id=f"{name}-{case}")
    for name, ode in (("array", COUPLED3), ("rhs1", COUPLED3_RHS1))
    for case, t0, t1, cfg in (
        ("forward", 0.0, 2.0, DEFAULT),
        ("backward", 2.0, -1.0, DEFAULT),
        ("loose-rejecting", 0.0, 3.0,
         IntegratorConfig(rel_tol=1e-6, abs_tol=1e-8, h_init=0.5)),
        ("long", 0.0, 20.0, DEFAULT),
        ("max-steps", 0.0, 20.0, IntegratorConfig(max_steps=20)),
    )
] + [
    vector_case(SecondOrderOde(
        3, lambda t, x, v: np.array([0.0, 0.0, math.inf if t > 0.5 else 0.0])),
                0.0, *START3, 1.0, id="nonfinite-in-step"),
    vector_case(SecondOrderOde(3, lambda t, x, v: np.zeros(2)),
                0.0, *START3, 1.0, id="wrong-shape"),
]


@pytest.mark.parametrize("ode, t0, start, t1, cfg", DIM3_CASES)
def test_dim3_kernel_matches_reference_bits(ode, t0, start, t1, cfg):
    got = kernel_outcome(_integrate_vector, ode, t0, start, t1, cfg)
    reference = COUPLED3 if ode is COUPLED3_RHS1 else ode
    assert got == kernel_outcome(reference_integrate_vector,
                                 reference, t0, start, t1, cfg)


def test_dim3_cases_cover_errors_and_rejections():
    errors = set()
    rejecting = 0
    for case in DIM3_CASES:
        ode, t0, start, t1, cfg = case.values
        calls = []
        counting = SecondOrderOde(3, _counted(ode.rhs, calls))
        got = kernel_outcome(_integrate_vector, counting, t0, start, t1, cfg)
        if isinstance(got[0], type):
            errors.add(got[0])
        else:
            rejecting += len(calls) > 1 + 6 * got[2]
    assert errors == {NonFiniteRhs, MaxStepsExceeded, ValueError}
    assert rejecting


@settings(max_examples=30, deadline=None)
@given(A=hst.lists(_entries, min_size=9, max_size=9),
       B=hst.lists(_entries, min_size=9, max_size=9),
       c=hst.lists(_entries, min_size=3, max_size=3),
       x0=hst.lists(_entries, min_size=3, max_size=3),
       v0=hst.lists(_entries, min_size=3, max_size=3),
       t0=hst.floats(-2.0, 2.0), span=hst.floats(-3.0, 3.0))
def test_dim3_kernel_matches_reference_on_random_linear_systems(
        A, B, c, x0, v0, t0, span):
    A, B, c = np.reshape(A, (3, 3)), np.reshape(B, (3, 3)), np.array(c)
    ode = SecondOrderOde(3, lambda t, x, v: A @ x + B @ v + c)
    start = StatePoint.of(t0, x0, v0)
    args = (ode, start.tau, start, t0 + span, DEFAULT)
    assert (kernel_outcome(_integrate_vector, *args)
            == kernel_outcome(reference_integrate_vector, *args))


def kernel_frames(tb):
    return [frame for frame in traceback.extract_tb(tb)
            if frame.filename.startswith("<febvp.ode_core kernel")]


def test_generated_kernel_tracebacks_show_its_lines():
    # raised by the kernel itself
    wrong = SecondOrderOde(3, COUPLED3.rhs, rhs1=lambda t, x, v: [0.0, 1.0])
    with pytest.raises(ValueError, match="rhs1 must return 3 values") as info:
        integrate_ivp(wrong, StatePoint.of(0.0, *START3), 1.0)
    frame, = kernel_frames(info.tb)
    assert frame.filename == "<febvp.ode_core kernel, dim 3, vector>"
    assert frame.line.startswith("raise ValueError(")
    with pytest.raises(StepSizeUnderflow) as info:
        _integrate_scalar(OSC.rhs1, 0.0, 1.0, 0.0, 10.0, IntegratorConfig(h_min=1e-2))
    frame, = kernel_frames(info.tb)
    assert frame.filename == "<febvp.ode_core kernel, dim 1, scalar>"
    assert frame.line.startswith("raise StepSizeUnderflow(")

    # raised by the rhs, through the kernel's call of it
    def rhs1(t, x, v):
        if t > 0.0:
            raise ZeroDivisionError("in the rhs")
        return -x
    with pytest.raises(ZeroDivisionError, match="in the rhs") as info:
        _integrate_scalar(rhs1, 0.0, 1.0, 0.0, 1.0, DEFAULT)
    frame, = kernel_frames(info.tb)
    assert " = f(t + c2 * hs, " in frame.line
    assert frame.line in "".join(traceback.format_tb(info.tb))


def test_kernel_cache_is_bounded_with_its_linecache_lines():
    # More dimensions than the cache keeps: the oldest kernels, and their
    # linecache lines, are dropped; the newest still shows its lines.  Only
    # the kernels this test compiles are judged: one that an earlier test
    # left alive (a kept trajectory runs it) rightly keeps its lines.
    size = _KERNELS.size
    names = [f"<febvp.ode_core kernel, dim {n}, vector>" for n in range(1, size + 3)]
    own = [name for name in names if name not in linecache.cache]
    for n in range(1, size + 3):
        ode = SecondOrderOde(n, lambda t, x, v: -x)
        integrate_ivp(ode, StatePoint.of(0.0, [1.0] * n, [0.0] * n), 0.5)
    kept = [name for name in own if name in linecache.cache]
    assert len(kept) <= size
    assert names[0] not in kept
    newest = names[-1]
    assert linecache.getline(newest, 1) == "def kernel(f, t0, y0, t_end, cfg, record):\n"


def _build(name):
    """A CodeCache build of ``def <name>(): return '<name>'``."""
    return lambda: (f"<test code cache {name}>", f"def {name}():\n    return {name!r}\n")


def test_code_cache_adopts_an_evicted_key_whose_code_still_lives(monkeypatch):
    compiled = []
    monkeypatch.setattr(ode_core, "compile", lambda *args: compiled.append(args[1]) or compile(*args),
                        raising=False)
    cache = CodeCache(1)
    held = cache.function("adopted", _build("adopted"), {})
    cache.function("evicting", _build("evicting"), {})
    again = cache.function("adopted", _build("adopted"), {})
    assert compiled == ["<test code cache adopted>", "<test code cache evicting>"]
    assert again.__code__ is held.__code__ and again() == "adopted"


def test_code_cache_drops_an_evicted_codes_lines_when_the_code_dies():
    cache = CodeCache(1)
    held = cache.function("dropped", _build("dropped"), {})
    filename = held.__code__.co_filename
    cache.function("kept", _build("kept"), {})
    # evicted, but held still runs the code: its lines stay for tracebacks
    assert linecache.getline(filename, 2) == "    return 'dropped'\n"
    del held
    gc.collect()
    assert filename not in linecache.cache
    assert linecache.getline("<test code cache kept>", 2) == "    return 'kept'\n"


def test_code_cache_collects_garbage_at_most_once_per_size_evictions(monkeypatch):
    # A live evicted code may be held only by garbage, here a list that
    # holds itself: evicting it collects, and takes its lines.  Evicting
    # codes not used since then does not collect again.
    collect, collections = gc.collect, []
    monkeypatch.setattr(gc, "collect", lambda: collections.append(collect()))
    cache, held = CodeCache(2), []
    enabled = gc.isenabled()
    gc.disable()
    try:
        garbage = [cache.function("in_garbage", _build("in_garbage"), {})]
        garbage.append(garbage)
        del garbage
        for name in ("held1", "held2"):
            held.append(cache.function(name, _build(name), {}))
        assert len(collections) == 1
        assert "<test code cache in_garbage>" not in linecache.cache
        for name in ("held3", "held4", "held5"):
            held.append(cache.function(name, _build(name), {}))
    finally:
        if enabled:
            gc.enable()
    assert len(collections) == 2


def _counted(fn, calls):
    def wrapper(*args):
        calls.append(args[0])
        return fn(*args)
    return wrapper


@pytest.mark.parametrize("make, start", [
    (lambda: SecondOrderOde.from_scalar(lambda t, x, v: -x + 0.3 * v),
     StatePoint.of(0.0, [0.5], [-0.3])),
    (lambda: geodesics.geodesic_ode(geodesics.half_plane_connection()),
     StatePoint.of(0.0, [0.2, 1.0], [0.7, 0.4])),
    (lambda: SecondOrderOde(3, COUPLED3.rhs), StatePoint.of(0.0, *START3)),
], ids=["dim1-rhs1", "dim2-rhs1", "dim3-array-rhs"])
def test_rhs_wrapped_after_a_run_sees_every_call_of_the_next(make, start):
    # Tracing wraps ode.rhs and ode.rhs1 of an ode that may already have
    # run; a kernel must not keep the rhs it was first given.
    fresh, calls_fresh = make(), []
    fresh.rhs = _counted(fresh.rhs, calls_fresh)
    if fresh.rhs1 is not None:
        fresh.rhs1 = _counted(fresh.rhs1, calls_fresh)
    expected = integrate_ivp(fresh, start, 2.0)

    reused, calls = make(), []
    integrate_ivp(reused, start, 2.0)
    reused.rhs = _counted(reused.rhs, calls)
    if reused.rhs1 is not None:
        reused.rhs1 = _counted(reused.rhs1, calls)
    got = integrate_ivp(reused, start, 2.0)
    assert got.knots == expected.knots
    assert calls == calls_fresh
    assert len(calls) >= 1 + 6 * got.n_segments


# ----------------------------------------------------------- batched eval

@pytest.mark.parametrize("ode, x0, v0, t0, t1", LAZY_CASES)
def test_eval_many_matches_eval_in_any_order(ode, x0, v0, t0, t1):
    traj = integrate_ivp(ode, StatePoint.of(t0, x0, v0), t1, IntegratorConfig())
    lo, hi = traj.span
    # several taus per step, the knots, and repeats
    taus = list(np.linspace(lo, hi, 701)) + traj.knots[::5] + [lo, hi, lo]
    single = {float(t): bits(traj.eval(t)) for t in taus}
    for order in (taus, taus[::-1],
                  list(np.random.default_rng(5).permutation(taus))):
        got = traj.eval_many(order)
        assert [st.tau for st in got] == [float(t) for t in order]
        assert [bits(st) for st in got] == [single[float(t)] for t in order]


def test_eval_many_rejects_out_of_span():
    traj = integrate_ivp(FREE_FALL, StatePoint.of(0.0, [0.0], [0.0]), 1.0,
                         IntegratorConfig())
    assert traj.eval_many([]) == []
    for taus in ([0.5, 1.5], [math.nan], [-0.1, 0.2]):
        with pytest.raises(OutOfSpan):
            traj.eval_many(taus)


def eager_row(traj, tau):
    """The eager reference at tau, as the hex of its 2n floats: a knot's
    stored state, or the interpolant of the step strictly around tau."""
    records = step_records(traj)
    knots = [t for t, _, _, _ in records] + [traj._ends[1]]
    states = [y0 for _, _, y0, _ in records] + [np.array(traj._rows[1])]
    if tau in knots:
        y = states[knots.index(tau)]
    else:
        (t, h, y0, K), = [record for k, record in enumerate(records)
                          if min(knots[k], knots[k + 1]) < tau < max(knots[k], knots[k + 1])]
        y = eager_interpolant(y0, h, eager_q(K), (tau - t) / h)
    return [float(c).hex() for c in y]


def linear_ode(dim, scalar, A, B, c):
    """A x + B v + c in dimension dim from flat coefficient lists: on the
    scalar kernel when dim is 1 and scalar is set, else on the vector one."""
    A, B, c = np.reshape(A[:dim * dim], (dim, dim)), np.reshape(B[:dim * dim], (dim, dim)), np.array(c[:dim])
    if dim == 1 and scalar:
        a, b, c0 = float(A[0, 0]), float(B[0, 0]), float(c[0])
        return SecondOrderOde.from_scalar(lambda t, x, v: a * x + b * v + c0)
    return SecondOrderOde(dim, lambda t, x, v: A @ x + B @ v + c)


_nine = hst.lists(_entries, min_size=9, max_size=9)
_three = hst.lists(_entries, min_size=3, max_size=3)


@settings(max_examples=60, deadline=None)
@given(dim=hst.sampled_from([1, 2, 3]), scalar=hst.booleans(), A=_nine, B=_nine, c=_three,
       x0=_three, v0=_three, t0=hst.floats(-2.0, 2.0), span=hst.floats(0.5, 3.0),
       backward=hst.booleans(),
       picks=hst.lists(hst.tuples(hst.integers(0, 10 ** 6),
                                  hst.sampled_from([0.0, 0.29, 0.71]) | hst.floats(0.0, 1.0)),
                       min_size=1, max_size=30))
def test_batched_read_matches_eager_reference(dim, scalar, A, B, c, x0, v0, t0, span, backward, picks):
    ode = linear_ode(dim, scalar, A, B, c)
    t1 = t0 - span if backward else t0 + span
    traj = integrate_ivp(ode, StatePoint.of(t0, x0[:dim], v0[:dim]), t1, DEFAULT)
    records = step_records(traj)
    # knots (frac 0.0), interior points, several taus in one step, repeats;
    # t + h of the last step may round past the span's end
    lo, hi = traj.span
    taus = [min(max(records[k % len(records)][0] + frac * records[k % len(records)][1], lo), hi)
            for k, frac in picks]
    t, h = records[picks[0][0] % len(records)][:2]
    taus += [t + 0.25 * h, t + 0.5 * h, t + 0.75 * h, t1, t0] + taus[:3]
    expected = [eager_row(traj, tau) for tau in taus]
    assert [[c.hex() for c in row] for row in traj.read(taus)] == expected
    # the rows read one at a time, eval and eval_many keep those bits
    assert [[c.hex() for c in traj.read((tau,))[0]] for tau in taus] == expected
    for points in (traj.eval_many(taus), [traj.eval(tau) for tau in taus]):
        assert [list(bits(st)[1] + bits(st)[2]) for st in points] == expected


_unit = hst.floats(-1.0, 1.0)
_unit_nine = hst.lists(_unit, min_size=9, max_size=9)


@settings(max_examples=60, deadline=None)
@given(dim=hst.sampled_from([1, 2, 3]), scalar=hst.booleans(), A=_unit_nine, B=_unit_nine,
       c=_three, x0=_three, v0=_three, t0=hst.floats(-2.0, 2.0), span=hst.floats(-2.0, 2.0))
def test_backward_run_from_the_end_state_returns_to_the_start(dim, scalar, A, B, c, x0, v0, t0, span):
    # Integrate [t0, t1], then from the end state back to t0.  With these
    # coefficient bounds the state grows little over |span| <= 2, so the two
    # runs' global errors (rel_tol 1e-10) leave the start within 1e-8.
    ode = linear_ode(dim, scalar, A, B, c)
    start = StatePoint.of(t0, x0[:dim], v0[:dim])
    t1 = t0 + span
    end = integrate_ivp(ode, start, t1, DEFAULT).eval(t1)
    back = integrate_ivp(ode, end, t0, DEFAULT).eval(t0)
    assert back.tau == t0
    assert np.max(np.abs(back.x - start.x)) <= 1e-8
    assert np.max(np.abs(back.v - start.v)) <= 1e-8


def test_dim1_read_sums_in_the_order_of_the_stacked_product():
    # dim-1 read sums each row of q @ p in floats, in pairs; its rows must
    # keep the bits of y0 + h * NumPy's stacked (m, 2, 4) @ (m, 4, 1), the
    # product dim-1 reads once made, on random steps whose stage
    # derivatives span sixteen decades
    rng = np.random.default_rng(12)
    m = 4000
    knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.5, m))]).tolist()
    steps = [(t, t1 - t, *(rng.standard_normal(13) * 10.0 ** rng.integers(-8, 8)).tolist())
             for t, t1 in zip(knots, knots[1:])]
    traj = ode_core.Trajectory(1, (0.0, knots[-1]), (list(steps[0][2:4]), [0.0, 0.0]), m, steps)
    picked = [(step, step[0] + f * step[1]) for step, f in zip(steps, rng.uniform(0.0, 1.0, m))]
    picked = [(step, tau) for step, tau in picked if step[0] < tau < step[0] + step[1]
              and tau not in knots]
    # p in floats, as read builds it (NumPy's th ** 3 may round otherwise)
    ths = [(tau - step[0]) / step[1] for step, tau in picked]
    p = np.array([(th, th * th, th ** 3, th ** 4) for th in ths]).reshape(-1, 4, 1)
    q = np.array([ode_core._dense_q(1)(step) for step, _ in picked]).reshape(-1, 2, 4)
    y0 = np.array([step[2:4] for step, _ in picked])
    h = np.array([[step[1]] for step, _ in picked])
    expected = (y0 + h * np.matmul(q, p).reshape(-1, 2)).tolist()
    assert len(picked) > 3900
    assert ([[c.hex() for c in row] for row in traj.read([tau for _, tau in picked])]
            == [[c.hex() for c in row] for row in expected])


@pytest.mark.parametrize("field, value", [
    ("rel_tol", math.nan), ("rel_tol", -1e-8), ("rel_tol", math.inf),
    ("abs_tol", math.nan), ("abs_tol", -1.0), ("h_init", 0.0),
    ("h_init", -1e-3), ("h_init", math.nan), ("h_min", -1.0),
    ("h_min", math.nan), ("max_steps", 0)])
def test_integrator_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        IntegratorConfig(**{field: value})


def test_integrator_config_accepts_zero_tolerances_and_floor():
    # a zero error scale is legal: it rejects steps until step_underflow
    cfg = IntegratorConfig(rel_tol=0.0, abs_tol=0.0, h_min=0.0, max_steps=1)
    assert (cfg.rel_tol, cfg.abs_tol, cfg.h_min) == (0.0, 0.0, 0.0)


# ------------------------------------------------------ inlined rhs sources
#
# A generated rhs (rhs_parser.bind's functions, so the catalog families and
# --ode systems, and the half-plane accel) carries its straight-line
# source, and a kernel runs that source in each stage in place of calling
# it.  The reference kernels above call the rhs: the inlined kernels must
# give their bits and their errors (class, message and context).

def run_outcome(kernel, *args):
    """kernel_outcome, with any exception as its class, message and context."""
    try:
        return run_bytes(kernel(*args))
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "context", None)


def inlined(f, n=1, variant="scalar"):
    """Whether the kernel for f runs f's source inline."""
    return ", inline " in _kernel(n, variant, f).__code__.co_filename


# ACCEPTANCE 11's token pool; each dimension adds its variables and the
# parameters k and g.
ACCEPTANCE_POOL = list("xv+-*/^(). 0123456789") + ["tau", "sin", "cos", "exp",
                                                    "x1", "v2", ","]


def random_system(seed, dim):
    """dim expressions from ACCEPTANCE 11's generator (1 to 12 random
    tokens), each the first text that parses."""
    rng = random.Random(seed)
    pool = ACCEPTANCE_POOL + [f"{k}{i}" for k in "xv" for i in range(1, dim + 1)] + ["k", "g"]
    exprs = []
    while len(exprs) < dim:
        text = "".join(rng.choice(pool) for _ in range(rng.randint(1, 12)))
        try:
            exprs.append(parse(text, dim=dim, params=("k", "g")))
        except ParseError:
            pass
    return exprs


SHORT = IntegratorConfig(max_steps=300)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(seed=hst.integers(0, 2 ** 32 - 1), dim=hst.integers(1, 3),
       k=hst.floats(-2.0, 2.0), g=hst.floats(-2.0, 2.0),
       y0=hst.lists(hst.floats(-2.0, 2.0), min_size=6, max_size=6),
       t1=hst.sampled_from([1.5, -1.5]))
def test_inlined_expressions_match_the_reference_kernels(seed, dim, k, g, y0, t1):
    exprs = random_system(seed, dim)
    x0, v0 = y0[:dim], y0[3:3 + dim]
    if dim == 1:
        f = bind(exprs[0], {"k": k, "g": g})
        assert inlined(f)
        args = (f, 0.0, x0[0], v0[0], t1, SHORT)
        assert run_outcome(_integrate_scalar, *args) == run_outcome(reference_integrate_scalar, *args)
    else:
        f = bind(exprs, {"k": k, "g": g})
        assert inlined(f, dim, "vector")
        ode = SecondOrderOde(dim, lambda t, x, v: np.array(f(t, x, v)), rhs1=f)
        args = (ode, 0.0, StatePoint.of(0.0, x0, v0), t1, SHORT)
        assert run_outcome(_integrate_vector, *args) == run_outcome(reference_integrate_vector, *args)


# Faults in the middle of a run: evaluation errors, and a NaN or an inf
# once tau passes 0.25.
FAULTS = ["sqrt(0.5 - tau)", "log(x)", "(x - 0.2)^0.5", "exp(tau*800)",
          "((tau - 0.25)/abs(tau - 0.25) + 1)*1e300*1e300*0",
          "x*((tau - 0.25)/abs(tau - 0.25) + 1)*1e300*1e300"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_inlined_faults_match_the_reference_kernels():
    outcomes = set()
    for text in FAULTS:
        f = bind(parse(text), {})
        args = (f, 0.0, 0.3, -0.5, 1.5, SHORT)
        got = run_outcome(_integrate_scalar, *args)
        assert got == run_outcome(reference_integrate_scalar, *args), text
        system = bind([parse("v1 - x2", dim=2), parse(re.sub(r"\bx\b", "x2", text), dim=2)], {})
        ode = SecondOrderOde(2, lambda t, x, v: np.array(system(t, x, v)), rhs1=system)
        args = (ode, 0.0, StatePoint.of(0.0, [0.1, 0.3], [0.2, -0.5]), 1.5, SHORT)
        assert run_outcome(_integrate_vector, *args) == run_outcome(reference_integrate_vector, *args), text
        outcomes.add(got[0])
    assert {EvaluationError, NonFiniteRhs} <= outcomes


# The catalog's rhs1 closures before the families became expressions.
def _old_free_fall(p):
    g = p["g"]
    return lambda tau, x, v: g


def _old_conic(p):
    k2, g = p["k"] ** 2, p["g"]
    return lambda tau, x, v: k2 * x + g


def _old_oscillator(p):
    w2 = p["omega"] ** 2
    return lambda tau, x, v: -w2 * x


OLD_CLOSURES = {"free_fall": _old_free_fall, "conic": _old_conic,
                "linear_zero": lambda p: (lambda tau, x, v: 0.0),
                "oscillator": _old_oscillator,
                "linear_basis": lambda p: (lambda tau, x, v: -x)}
FAMILY_MEMBERS = [
    ("free_fall", {}), ("free_fall", {"g": 3.5}), ("free_fall", {"g": math.nan}),
    ("conic", {}), ("conic", {"k": 0.5, "g": 0.0}), ("conic", {"k": 2.0, "g": -2.0}),
    ("conic", {"k": 1.3, "g": math.inf}), ("linear_zero", {}),
    ("oscillator", {}), ("oscillator", {"omega": 2.5}), ("linear_basis", {}),
]


@pytest.mark.parametrize("name, overrides", FAMILY_MEMBERS)
def test_catalog_families_inline_with_the_old_closures_bits(name, overrides):
    ode, params = catalog.make_ode(name, overrides)
    rhs1, old = ode.rhs1, OLD_CLOSURES[name](params)
    assert inlined(rhs1)
    points = uniform_draws(7)
    for _ in range(200):
        t, x, v = points(), points(), points()
        assert struct.pack("<d", rhs1(t, x, v)) == struct.pack("<d", old(t, x, v))
    for t0, t1 in ((0.0, 2.0), (2.0, -1.0)):
        assert (run_outcome(_integrate_scalar, rhs1, t0, 0.3, -0.2, t1, DEFAULT)
                == run_outcome(reference_integrate_scalar, old, t0, 0.3, -0.2, t1, DEFAULT))


def uniform_draws(seed):
    """Seeded uniform draws from [-3, 3]."""
    rng = random.Random(seed)
    return lambda: rng.uniform(-3.0, 3.0)


def _old_half_plane_accel(tau, x, v):
    g = -1.0 / x[1]
    h = 1.0 / x[1]
    v0, v1 = v
    return [-((g * v0) * v1 + (g * v1) * v0 + 0.0),
            -((h * v0) * v0 + (g * v1) * v1)]


def _accel_outcome(f, *args):
    try:
        return [struct.pack("<d", value) for value in f(*args)]
    except ZeroDivisionError as exc:
        return type(exc)


def test_half_plane_source_gives_the_old_accel_and_einsum_bits():
    accel = HALF_PLANE.rhs1
    assert accel.kernel_source.lines and inlined(accel, 2, "vector")
    draw = uniform_draws(11)
    points = [([draw(), abs(draw())], [draw(), draw()]) for _ in range(300)]
    points += [([0.2, 0.0], [0.7, 0.4]), ([0.2, -0.0], [0.0, 0.0]),
               ([0.2, 1.0], [0.0, 0.5]), ([0.2, 1.0], [-0.0, 0.5]),
               ([0.2, 1.0], [0.7, 0.0]), ([0.2, 1.0], [0.0, -0.0])]
    for x, v in points:
        want = _accel_outcome(_old_half_plane_accel, 0.0, x, v)
        assert _accel_outcome(accel, 0.0, x, v) == want
        assert _accel_outcome(HALF_PLANE.rhs, 0.0, np.array(x), np.array(v)) == want


OLD_HALF_PLANE = SecondOrderOde(2, HALF_PLANE.rhs, rhs1=_old_half_plane_accel)


@pytest.mark.parametrize("x0, v0, t1, cfg", [
    ([0.2, 1.0], [0.7, 0.4], 1.0, DEFAULT),
    ([0.2, 1.0], [0.7, 0.4], -0.5, DEFAULT),
    ([0.2, 1.0], [0.0, 0.5], 1.0, DEFAULT),
    ([0.2, 1.0], [0.7, 0.0], 1.0, DEFAULT),
    ([0.2, 0.0], [0.7, 0.4], 1.0, DEFAULT),  # y = 0: ZeroDivisionError
    ([0.2, 1.0], [0.7, 0.4], 10.0, IntegratorConfig(max_steps=20)),
], ids=["forward", "backward", "vertical", "zero-velocity-component",
        "y-zero", "max-steps"])
def test_half_plane_inlined_kernel_matches_the_old_accel_and_einsum(x0, v0, t1, cfg):
    start = StatePoint.of(0.0, x0, v0)
    got = run_outcome(_integrate_vector, HALF_PLANE, 0.0, start, t1, cfg)
    assert got == run_outcome(_integrate_vector, OLD_HALF_PLANE, 0.0, start, t1, cfg)
    assert got == run_outcome(reference_integrate_vector, HALF_PLANE, 0.0, start, t1, cfg)


def _plain_counter(fn, calls):
    def wrapper(*args):
        calls.append(args[0])
        return fn(*args)
    return wrapper


def _wraps_counter(fn, calls):
    # functools.wraps copies fn's kernel_source, but not its code
    @functools.wraps(fn)
    def wrapper(*args):
        calls.append(args[0])
        return fn(*args)
    return wrapper


@pytest.mark.parametrize("wrap", [_plain_counter, _wraps_counter], ids=["plain", "wraps"])
@pytest.mark.parametrize("make, start", [
    (lambda: catalog.make_ode("conic", {"k": 1.5, "g": 0.5})[0],
     StatePoint.of(0.0, [0.3], [-0.2])),
    (lambda: cli._build_expression_ode(["k^2*x + g"], {"k": 1.5, "g": 0.5}),
     StatePoint.of(0.0, [0.3], [-0.2])),
    (lambda: cli._build_expression_ode(["k^2*x1 + g", "-x2"], {"k": 1.5, "g": 0.5}),
     StatePoint.of(0.0, [0.3, 1.0], [-0.2, 0.5])),
    (lambda: geodesics.geodesic_ode(geodesics.half_plane_connection()),
     StatePoint.of(0.0, [0.2, 1.0], [0.7, 0.4])),
], ids=["catalog", "ode", "ode-2d", "half-plane"])
def test_a_wrapper_on_rhs1_sees_every_call(make, start, wrap):
    # A wrapper has no source of its own, so the kernel calls it: once at
    # the start and 6 times per attempted step (these runs reject none).
    # The benchmark's tracer counts rhs evaluations this way.
    inline = integrate_ivp(make(), start, 2.0)
    ode, calls = make(), []
    ode.rhs1 = wrap(ode.rhs1, calls)
    got = integrate_ivp(ode, start, 2.0)
    assert len(calls) == 1 + 6 * got.n_segments
    # the run recorded as it ran: reading its steps calls nothing more
    assert buffers(got) == buffers(inline)
    assert got.read([0.5, 1.0]) == inline.read([0.5, 1.0])
    assert len(calls) == 1 + 6 * got.n_segments


def _request_kinds(p, q):
    """The seven kinds of benchmark request, with parameters p, q."""
    return [
        ["solve", "--catalog", "conic", "--param", f"k={p}", "--param", f"g={q}",
         "--neumann", "0", "1", "0.2", "-0.4", "--tau", "0.5"],
        ["solve", "--ode", "k^2*x + g", "--param", f"k={p}", "--param", f"g={q}",
         "--neumann", "0", "1", "0.2", "-0.4", "--tau", "0.5"],
        ["solve", "--catalog", "oscillator", "--param", f"omega={p}",
         "--cauchy", "0", "0.3", f"{q}", "--tau", "0.5"],
        ["solve", "--ode", "k^2*x1 + g", "--ode=-x2", "--param", f"k={p}",
         "--param", f"g={q}", "--neumann", "0", "1", "0.2,1", "-0.4,0", "--tau", "0.5"],
        ["geodesic", "--connection", "half_plane", "--a", "0.1", f"{p}",
         "--b", "-0.3", "1.5", "--rho", "0.25"],
        ["reconstruct", "--catalog", "free_fall", "--param", f"g={q}",
         "--point", "0.3", "0.5", "-0.2"],
        ["reconstruct", "--ode=-x", "--point", f"{q}", "0.5", "-0.2"],
    ]


def test_requests_compile_each_kernel_and_rhs_once(monkeypatch, capsys):
    # New parameter values reuse the compiled kernels and rhs code: the
    # kernel cache is keyed by source, and constants are not in it.
    compiled = []

    def counting_compile(source, filename, mode):
        compiled.append(filename)
        return compile(source, filename, mode)

    kernels = set()
    function = ode_core.CodeCache.function

    def recording(self, key, build, namespace):
        if self is _KERNELS:
            kernels.add(key)
        return function(self, key, build, namespace)

    monkeypatch.setattr(ode_core, "compile", counting_compile, raising=False)
    monkeypatch.setattr(ode_core.CodeCache, "function", recording)
    for i, (p, q) in enumerate([(1.5, 0.5), (0.7, -2.0), (1.9, 1.25)]):
        for argv in _request_kinds(p, q):
            assert cli.main(argv + ["--format", "json"]) == 0, argv
        if i == 0:
            first = list(compiled)
    capsys.readouterr()
    assert compiled == first
    assert len(set(compiled)) == len(compiled)
    # the cache keeps these and a traced run's two call kernels with room
    assert len(kernels) + 2 <= _KERNELS.size // 2


def test_a_step_that_does_not_move_tau_raises_step_underflow_at_once():
    # From tau = 8.8e307 no step of h_init moves tau.  The kernel used to
    # store such steps as repeated knots, growing h 5x per step, and ended
    # in max_steps_exceeded after 10^6 attempts (about 4 s).
    ff = catalog.make_ode("free_fall")[0]
    started = time.perf_counter()
    with pytest.raises(StepSizeUnderflow, match="does not move tau") as info:
        integrate_ivp(ff, StatePoint.of(8.8e307, [0.0], [1.0]), 8.9e307)
    assert time.perf_counter() - started < 1.0
    assert info.value.context == {"tau": 8.8e307, "h": 1e-3}
    with pytest.raises(StepSizeUnderflow, match="does not move tau"):
        integrate_ivp(HALF_PLANE, StatePoint.of(-8.8e307, [0.2, 1.0], [0.7, 0.4]), 0.0)
    # From 1e20 the first steps, below 16384 (the spacing of floats
    # there), used to be stored as zero-width steps until h outgrew it.
    with pytest.raises(StepSizeUnderflow, match="does not move tau"):
        integrate_ivp(ff, StatePoint.of(1e20, [0.3], [-0.2]), 1e20 + 1e6)


# ------------------------------------------------------------- recording
#
# integrate_ivp runs its kernel once.  A recording run (the default) keeps
# one tuple per accepted step and is the eager reference; a run with
# record False keeps its two ends and its count of accepted steps, reads
# its ends with the recording run's bits, and raises ValueError for any
# tau strictly inside its span.

def counting(ode):
    """ode with the rhs its kernel calls counting its calls, and the calls."""
    calls = []
    if ode.rhs1 is not None:
        ode.rhs1 = _counted(ode.rhs1, calls)
    else:
        ode.rhs = _counted(ode.rhs, calls)
    return ode, calls


def read_outcome(traj, taus):
    """The hex of each row traj reads at taus, or the error's class,
    message and context."""
    try:
        return [[c.hex() for c in row] for row in traj.read(taus)]
    except (OutOfSpan, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "context", None)


_READS = ["start", "end", "inside", "before", "after"]


@settings(max_examples=60, deadline=None)
@given(dim=hst.sampled_from([1, 2, 3]), scalar=hst.booleans(), A=_unit_nine, B=_unit_nine,
       c=_three, x0=_three, v0=_three, t0=hst.floats(-2.0, 2.0), span=hst.floats(0.5, 3.0),
       backward=hst.booleans(),
       reads=hst.lists(hst.tuples(hst.sampled_from(_READS), hst.floats(0.0, 1.0)),
                       min_size=1, max_size=12))
def test_an_unrecorded_run_reads_only_the_ends_of_a_recorded_one(dim, scalar, A, B, c, x0, v0,
                                                                 t0, span, backward, reads):
    t1 = t0 - span if backward else t0 + span
    start = StatePoint.of(t0, x0[:dim], v0[:dim])
    ode, calls = counting(linear_ode(dim, scalar, A, B, c))
    recorded = integrate_ivp(ode, start, t1, DEFAULT)
    run = len(calls)
    bare = integrate_ivp(ode, start, t1, DEFAULT, False)
    # the same run, once each
    assert calls == calls[:run] * 2
    assert bare._steps is None and len(recorded._steps) == recorded.n_segments > 0
    assert (bare.span, bare.n_segments) == (recorded.span, recorded.n_segments)
    assert [array("d", row).tobytes() for row in bare._rows] == buffers(recorded)[:2]
    lo, hi = recorded.span
    where = {"start": lambda f: t0, "end": lambda f: t1, "inside": lambda f: lo + f * (hi - lo),
             "before": lambda f: lo - 1.0 - f, "after": lambda f: hi + 1.0 + f}
    taus = [where[kind](frac) for kind, frac in reads]
    unrecorded = (ValueError, "the run was not recorded: only its two ends can be read", None)
    for tau in taus:
        got = read_outcome(bare, [tau])
        assert got == (unrecorded if lo < tau < hi else read_outcome(recorded, [tau]))
    ends = [tau for tau in taus if tau in (lo, hi)]
    assert read_outcome(bare, ends) == read_outcome(recorded, ends)
    if len(ends) < len(taus) and all(lo <= tau <= hi for tau in taus):
        assert read_outcome(bare, taus) == unrecorded
    with pytest.raises(ValueError, match="not recorded"):
        bare.knots
    assert len(calls) == 2 * run  # reading runs nothing


@pytest.fixture
def kernel_records(monkeypatch):
    """The record flag of every kernel run that integrate_ivp starts."""
    records, kernel = [], ode_core._kernel

    def counted_kernel(n, variant, f):
        run = kernel(n, variant, f)

        def counted(*args):
            records.append(args[-1])
            return run(*args)
        return counted

    monkeypatch.setattr(ode_core, "_kernel", counted_kernel)
    return records


def test_extension_and_cauchy_runs_record_nothing(kernel_records, capsys):
    conic = catalog.make_ode("conic", {"k": 1.5, "g": 0.5})[0]
    cfg = bvp_shooting.DEFAULT_SHOOTING
    traj = bvp_shooting.solve_neumann(conic, bvp_shooting.NeumannConditions(0.0, 1.0, 0.2, -0.4),
                                      cfg).trajectory
    assert any(kernel_records)  # Newton's trials record
    del kernel_records[:]
    for tau in (1.5, -0.5, 1.0 + 1e-9):
        bvp_shooting.eval_state(conic, traj, tau, cfg.integrator)
    for tau in (0.5, -0.25):
        bvp_shooting.eval_S(conic, tau, bvp_shooting.IntegralConditions(0.0, 0.0, 0.2, -0.4), cfg)
    cauchy = ["solve", "--catalog", "conic", "--param", "k=1.5", "--param", "g=0.5",
              "--cauchy", "0", "0.2", "-0.4", "--tau", "0.5", "--tau", "-1", "--format", "json"]
    assert cli.main(cauchy) == 0
    capsys.readouterr()
    assert len(kernel_records) == 7 and not any(kernel_records)


def test_lemma1_records_only_its_secant_starts_and_newton_trials(kernel_records, monkeypatch):
    # These linear solves halve no Newton step, so each iteration runs one
    # trial; each trial and each solve's secant start record.
    iterations, solve = [], bvp_shooting.solve_neumann

    def counted(*args):
        result = solve(*args)
        iterations.append(result.iterations)
        return result

    monkeypatch.setattr(bvp_shooting, "solve_neumann", counted)
    conic = catalog.make_ode("conic", {"k": 1.5, "g": 0.5})[0]
    reports = check_lemma1_equivalence(conic, SampleSpec(count=12, seed=3))
    assert all(r.failures == 0 for r in reports)
    assert len(iterations) == 12 and min(iterations) > 0
    assert kernel_records.count(True) == len(iterations) + sum(iterations)
    assert len(kernel_records) > 3 * 12


# ------------------------------------------------------------ end reads
#
# A read whose taus are all span ends returns the stored end rows straight
# from the trajectory's two ends: no bisect, and no knot list, recorded or
# not.

_ENDS = ["t0", "t1", "lo", "hi", "signed zero"]


@settings(max_examples=80, deadline=None)
@given(dim=hst.sampled_from([1, 2]), scalar=hst.booleans(), A=_unit_nine, B=_unit_nine,
       c=_three, x0=_three, v0=_three, t0=hst.just(0.0) | hst.floats(-2.0, 2.0),
       span=hst.just(0.0) | hst.floats(0.5, 3.0), backward=hst.booleans(),
       recorded=hst.booleans(), ends=hst.lists(hst.sampled_from(_ENDS), max_size=8))
def test_end_reads_return_the_general_paths_bits_with_no_knot_list(
        dim, scalar, A, B, c, x0, v0, t0, span, backward, recorded, ends):
    t1 = t0 - span if backward else t0 + span
    start = StatePoint.of(t0, x0[:dim], v0[:dim])
    ode = linear_ode(dim, scalar, A, B, c)
    eager = integrate_ivp(ode, start, t1, DEFAULT)
    traj = integrate_ivp(ode, start, t1, DEFAULT, recorded)
    lo, hi = traj.span
    # an end given as -0.0 where it is 0.0 is the same tau
    place = {"t0": t0, "t1": t1, "lo": lo, "hi": hi, "signed zero": -t0 if t0 == 0.0 else t0}
    taus = [place[end] for end in ends]
    expected = [eager_row(eager, tau) for tau in taus]
    assert read_outcome(traj, taus) == expected
    assert [read_outcome(traj, [tau])[0] for tau in taus] == expected
    assert [list(bits(st)[1] + bits(st)[2]) for st in traj.eval_many(taus)] == expected
    if span:
        # the general path: the same taus batched with an interior one
        assert read_outcome(eager, taus + [0.5 * (lo + hi)])[:len(taus)] == expected
    assert traj._knots is None


@pytest.mark.parametrize("span", [2, -2, 0], ids=["forward", "backward", "zero-width"])
@pytest.mark.parametrize("record", [True, False], ids=["recorded", "unrecorded"])
@pytest.mark.parametrize("dim", [1, 2])
def test_a_span_end_read_returns_fresh_copies_of_the_stored_rows(dim, record, span):
    # A read of one tau at a span end (what Newton's residuals and the
    # extension starts make) returns a fresh row: a caller that changes it
    # changes no later read.  The tau may be a float, an np.float64 or an
    # int, passed in a tuple, a list or a generator; a NaN tau is outside
    # every span.
    ode = linear_ode(dim, True, [0.3] * 9, [-0.2] * 9, [0.5] * 3)
    traj = integrate_ivp(ode, StatePoint.of(0.0, [0.4, -1.0][:dim], [1.2, 0.7][:dim]),
                         float(span), DEFAULT, record)
    stored = [list(row) for row in traj._rows]
    spellings = (lambda tau: (tau,), lambda tau: [tau], lambda tau: (t for t in (tau,)))
    for end, row in ((0, stored[0]), (span, stored[1] if span else stored[0])):
        for tau in (float(end), np.float64(end), end):
            for spell in spellings:
                got = traj.read(spell(tau))
                assert [[c.hex() for c in r] for r in got] == [[c.hex() for c in row]]
                got[0][:] = [math.nan] * (2 * dim)
                got[0].append(0.0)
        assert [list(r) for r in traj._rows] == stored
    for spell in spellings:
        with pytest.raises(OutOfSpan):
            traj.read(spell(math.nan))


# ------------------------------------------------- start states and dtypes

@pytest.mark.parametrize("dtype", [np.int64, np.float32], ids=["int64", "float32"])
@pytest.mark.parametrize("ode, x0, v0", [
    (SecondOrderOde.from_scalar(lambda t, x, v: -x + 0.3 * v), [2], [-1]),
    (geodesics.geodesic_ode(geodesics.half_plane_connection()), [0, 1], [1, 2]),
    (SecondOrderOde(2, COUPLED.rhs), [1, -2], [3, 1]),
], ids=["dim1", "dim2-half-plane", "dim2-array-rhs"])
def test_a_start_of_another_dtype_integrates_to_its_float64_copys_bits(ode, x0, v0, dtype):
    # StatePoint itself takes any arrays; integrate_ivp reads them as float64.
    start = StatePoint(0.0, np.array(x0, dtype=dtype), np.array(v0, dtype=dtype))
    copy = StatePoint.of(0.0, start.x, start.v)
    assert copy.x.dtype == copy.v.dtype == np.float64
    for t1 in (0.0, 0.75, -0.5):
        got, want = integrate_ivp(ode, start, t1), integrate_ivp(ode, copy, t1)
        assert [bits(st) for st in got.eval_many([t1, 0.0, 0.5 * t1])] == \
            [bits(st) for st in want.eval_many([t1, 0.0, 0.5 * t1])]
        assert got.knots == want.knots
