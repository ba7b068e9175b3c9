"""Integrator tests against closed-form solutions."""

import math

import numpy as np
import pytest

from febvp.ode_core import (
    IntegrationError,
    IntegratorConfig,
    MaxStepsExceeded,
    NonFiniteRhs,
    OutOfSpan,
    SecondOrderOde,
    StatePoint,
    _P,
    _P_ARR,
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
# A Trajectory keeps each accepted step as a raw record, t, h, y (2n) and
# the stage derivatives K (7 x 2n, stage-major), and builds the quartic
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


def eager_q_scalar(K):
    """The scalar kernel's eager q: a 4x7 loop in plain floats."""
    kxs = [float(k) for k in K[:, 0]]
    kvs = [float(k) for k in K[:, 1]]
    qx = [0.0] * 4
    qv = [0.0] * 4
    for j in range(4):
        ax = bv = 0.0
        for s in range(7):
            ps = _P[s][j]
            if ps != 0.0:
                ax += ps * kxs[s]
                bv += ps * kvs[s]
        qx[j] = ax
        qv[j] = bv
    return np.array((qx, qv))


def eager_q_vector(K):
    """The vector kernel's eager q: one matrix product."""
    return np.ascontiguousarray(K).T @ _P_ARR


def step_records(traj):
    """(t, h, y0, K) of each accepted step, in integration order."""
    n2 = 2 * traj.dim
    rec = np.array(traj._steps).reshape(-1, 2 + 8 * n2)
    return [(float(r[0]), float(r[1]), r[2:2 + n2].copy(),
             r[2 + n2:].reshape(7, n2)) for r in rec]


def bits(state):
    return (float(state.tau).hex(), tuple(float(c).hex() for c in state.x),
            tuple(float(c).hex() for c in state.v))


LAZY_CASES = [
    pytest.param(DAMPED, eager_q_scalar, [0.5], [-0.3], 0.0, 5.0,
                 id="scalar-forward"),
    pytest.param(DAMPED, eager_q_scalar, [0.5], [-0.3], 5.0, -1.0,
                 id="scalar-backward"),
    pytest.param(DAMPED_VEC1, eager_q_vector, [0.5], [-0.3], 0.0, 5.0,
                 id="vector1-forward"),
    pytest.param(DAMPED_VEC1, eager_q_vector, [0.5], [-0.3], 5.0, -1.0,
                 id="vector1-backward"),
    pytest.param(COUPLED, eager_q_vector, [0.5, 1.0], [-0.3, 0.2], 0.0, 5.0,
                 id="vector2-forward"),
    pytest.param(COUPLED, eager_q_vector, [0.5, 1.0], [-0.3, 0.2], 5.0, -1.0,
                 id="vector2-backward"),
]


@pytest.mark.parametrize("ode, eager_q, x0, v0, t0, t1", LAZY_CASES)
def test_lazy_dense_output_matches_eager_reference(ode, eager_q, x0, v0, t0, t1):
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
            th = (tau - t) / h
            y = y0 + h * (q @ np.array([th, th * th, th ** 3, th ** 4]))
            assert bits(traj.eval(tau)) == bits(StatePoint(tau, y[:n], y[n:]))
            interior += 1
    assert interior >= 200


@pytest.mark.parametrize("ode, eager_q, x0, v0, t0, t1", LAZY_CASES)
def test_lazy_dense_output_ignores_query_order(ode, eager_q, x0, v0, t0, t1):
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


def test_scalar_and_vector_kernels_agree_within_fixed_tolerance():
    # The two kernels round differently (the error norm and the dense
    # output are summed in different orders), so their knots differ in
    # the last bits; they are not bit-identical.  They must still agree to
    # far below the integrator tolerance: 1e-12, fixed before measuring
    # (the largest difference seen on this problem was 1.4e-15).
    start = StatePoint.of(0.0, [0.5], [-0.3])
    scalar = integrate_ivp(DAMPED, start, 5.0, IntegratorConfig())
    vector = integrate_ivp(DAMPED_VEC1, start, 5.0, IntegratorConfig())
    assert scalar.span == vector.span == (0.0, 5.0)
    for t in np.linspace(0.0, 5.0, 401):
        a, b = scalar.eval(t), vector.eval(t)
        assert abs(float(a.x[0]) - float(b.x[0])) <= 1e-12
        assert abs(float(a.v[0]) - float(b.v[0])) <= 1e-12
