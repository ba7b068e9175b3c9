"""Recovering a right-hand side from its smooth extension."""

import math

import numpy as np
import pytest

from febvp.closed_forms import ConicParams, conic_S, cos_sin_S, free_fall_S
from febvp.errors import FebvpError
from febvp.functional_laws import SampleSpec
from febvp.ode_core import SecondOrderOde
from febvp.reconstruction import (
    EvaluationFailure,
    MidpointViolation,
    ReconstructionConfig,
    noise_aware_step,
    reconstruct_f,
    roundtrip_check,
)


def _wrap(scalar_S):
    """Adapt a scalar closed-form extension to the array calling shape."""

    def S(query_tau, alpha, beta, a, v):
        return scalar_S(query_tau, alpha, beta, float(a[0]), float(v[0]))

    return S


# ---------------------------------------------------------------- step choice

def test_noise_aware_step_widens_for_loose_solvers():
    cfg = ReconstructionConfig(fd_step=1e-3)
    assert noise_aware_step(cfg, 1e-10) == pytest.approx((1e-10) ** 0.25)
    assert noise_aware_step(cfg, 1e-10) > cfg.fd_step


def test_noise_aware_step_keeps_configured_floor():
    cfg = ReconstructionConfig(fd_step=1e-3)
    assert noise_aware_step(cfg, 1e-16) == 1e-3


def test_config_rejects_bad_step():
    with pytest.raises(ValueError):
        ReconstructionConfig(fd_step=0.0)
    with pytest.raises(ValueError):
        ReconstructionConfig(fd_step=-1e-3)


# ------------------------------------------------- analytic extensions exact

def test_free_fall_recovered_from_closed_extension():
    g = -9.8
    S = _wrap(lambda t, al, be, a, v: free_fall_S(g, t, al, be, a, v))
    for tau, x, v in [(0.0, 0.0, 0.0), (0.7, -1.2, 0.4), (-0.9, 2.0, -3.0)]:
        got = reconstruct_f(S, tau, np.array([x]), np.array([v]))
        assert abs(float(got[0]) - g) <= 1e-8


def test_conic_rhs_recovered_from_closed_extension():
    p = ConicParams(k=1.3, g=2.0)
    S = _wrap(lambda t, al, be, a, v: conic_S(p, t, al, be, a, v))
    for tau, x, v in [(0.2, 0.7, -0.3), (-0.5, -0.4, 1.1)]:
        got = float(reconstruct_f(S, tau, np.array([x]), np.array([v]))[0])
        assert abs(got - (p.k ** 2 * x + p.g)) <= 1e-8


def test_oscillator_rhs_recovered_from_closed_extension():
    S = _wrap(cos_sin_S)
    for tau, x, v in [(0.5, 0.8, 0.2), (1.4, -0.6, -1.0)]:
        got = float(reconstruct_f(S, tau, np.array([x]), np.array([v]))[0])
        assert abs(got - (-x)) <= 1e-8


def test_richardson_beats_plain_difference():
    tau, x, v, h = 0.3, 0.8, -0.5, 1e-3

    def at(t):
        return cos_sin_S(t, tau, tau, x, v)

    plain = (at(tau + h) - 2.0 * at(tau) + at(tau - h)) / (h * h)
    err_plain = abs(plain - (-x))
    sharp = reconstruct_f(_wrap(cos_sin_S), tau, np.array([x]), np.array([v]),
                          ReconstructionConfig(fd_step=h))
    err_sharp = abs(float(sharp[0]) - (-x))
    # central difference of cos carries an O(h^2) truncation term ~ x h^2 / 12;
    # the sharpened value bottoms out at the cancellation floor near 1e-9
    assert err_plain > 1e-9
    assert err_sharp < err_plain / 10.0
    assert err_sharp < 5e-9


# ------------------------------------------------------------ failure modes

def test_midpoint_violation_detected():
    def S(query_tau, alpha, beta, a, v):
        return a + 1e-3

    with pytest.raises(MidpointViolation) as info:
        reconstruct_f(S, 0.0, np.array([1.0]), np.array([0.0]))
    assert info.value.context["drift"] == pytest.approx(1e-3)


def test_small_diagonal_drift_tolerated():
    def S(query_tau, alpha, beta, a, v):
        return a + 1e-9

    got = reconstruct_f(S, 0.0, np.array([1.0]), np.array([0.0]))
    assert abs(float(got[0])) <= 1e-8


def test_stencil_error_wrapped():
    class Boom(FebvpError):
        code = "boom"

    def S(query_tau, alpha, beta, a, v):
        if query_tau != alpha:
            raise Boom("off-diagonal query refused")
        return a

    with pytest.raises(EvaluationFailure):
        reconstruct_f(S, 0.25, np.array([0.5]), np.array([0.1]))


def test_midpoint_error_wrapped():
    def S(query_tau, alpha, beta, a, v):
        raise ValueError("no data here")

    with pytest.raises(EvaluationFailure):
        reconstruct_f(S, 0.0, np.array([0.0]), np.array([0.0]))


# ------------------------------------------------------- numeric roundtrips

def test_roundtrip_free_fall():
    ode = SecondOrderOde(dim=1,
                         rhs=lambda t, x, v: np.array([-9.8]),
                         label="uniform pull")
    report = roundtrip_check(ode, spec=SampleSpec(count=15, seed=3,
                                                  tau_range=(-1.0, 1.0),
                                                  ab_range=(-1.0, 1.0)))
    assert report.failures == 0
    assert report.max_residual <= 1e-6


def test_roundtrip_oscillator():
    ode = SecondOrderOde(dim=1,
                         rhs=lambda t, x, v: -x,
                         label="unit oscillator")
    report = roundtrip_check(ode, spec=SampleSpec(count=15, seed=5,
                                                  tau_range=(-1.0, 1.0),
                                                  ab_range=(-1.0, 1.0)))
    assert report.failures == 0
    assert report.max_residual <= 1e-4


def test_roundtrip_deterministic():
    ode = SecondOrderOde(dim=1,
                         rhs=lambda t, x, v: np.array([-9.8]),
                         label="uniform pull")
    spec = SampleSpec(count=8, seed=11, tau_range=(-1.0, 1.0),
                      ab_range=(-1.0, 1.0))
    first = roundtrip_check(ode, spec=spec).to_json()
    second = roundtrip_check(ode, spec=spec).to_json()
    assert first == second
