"""Integrator tests against closed-form solutions."""

import math
from array import array

import numpy as np
import pytest

from febvp import catalog
from febvp.ode_core import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54,
    _A61, _A62, _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6,
    _C2, _C3, _C4, _C5, _E1, _E3, _E4, _E5, _E6, _E7,
    _ERR_PREV_INIT, _FLUSH_DOUBLES, _MIN_FACTOR, _SAFETY,
    IntegrationError,
    IntegratorConfig,
    MaxStepsExceeded,
    NonFiniteRhs,
    OutOfSpan,
    SecondOrderOde,
    StatePoint,
    StepSizeUnderflow,
    _P,
    _P_ARR,
    _integrate_scalar,
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


# ------------------------------------------------- scalar kernel bit parity
#
# The scalar kernel is written for few interpreter operations per step
# (locals for the tableau, the PI controller and max/min inline, steps
# collected in lists and moved into the arrays in batches).  The plain
# version below, with a module-global lookup and an array call per step, is
# the reference: the kernel must give the same bits and the same errors.

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

    knots = array("d", (t0,))
    states = array("d", (x0, v0))
    steps = array("d")

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
            steps.extend((t, hs, x, v, kx1, kv1, v2, kv2, v3, kv3, v4, kv4,
                          v5, kv5, v6, kv6, v_new, kv7))
            knots.append(t_new)
            states.extend((x_new, v_new))
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
    return knots, states, steps



def kernel_outcome(kernel, f, t0, x0, v0, t1, cfg):
    """The three buffers' bytes, or the error's class, message and context."""
    try:
        return tuple(buf.tobytes() for buf in kernel(f, t0, x0, v0, t1, cfg))
    except IntegrationError as exc:
        return type(exc), str(exc), exc.context


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
]


@pytest.mark.parametrize("f, t0, x0, v0, t1, cfg", PARITY_CASES)
def test_scalar_kernel_matches_reference_bits(f, t0, x0, v0, t1, cfg):
    got = kernel_outcome(_integrate_scalar, f, t0, x0, v0, t1, cfg)
    assert got == kernel_outcome(reference_integrate_scalar,
                                 f, t0, x0, v0, t1, cfg)


def test_parity_cases_cover_every_error_and_the_flush():
    errors = set()
    longest = 0
    for case in PARITY_CASES:
        got = kernel_outcome(_integrate_scalar, *case.values)
        if isinstance(got[0], type):
            errors.add(got[0])
        else:
            longest = max(longest, len(got[2]) // 8)
    assert errors == {NonFiniteRhs, StepSizeUnderflow, MaxStepsExceeded}
    assert longest > 4 * _FLUSH_DOUBLES


# ----------------------------------------------------------- batched eval

@pytest.mark.parametrize("ode, eager_q, x0, v0, t0, t1", LAZY_CASES)
def test_eval_many_matches_eval_in_any_order(ode, eager_q, x0, v0, t0, t1):
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
