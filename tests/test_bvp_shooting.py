"""Shooting solver tests: closed-form targets, conjugate detection, the
kept last solve, and the smooth extension."""

import math
from dataclasses import replace

import numpy as np
import pytest

from febvp import bvp_shooting
from febvp.catalog import numeric_evaluator
from febvp.functional_laws import SampleSpec, check_composition
from febvp.bvp_shooting import (
    ConjugatePoint,
    DEFAULT_SHOOTING,
    IntegralConditions,
    NeumannConditions,
    NoConvergence,
    ShootingConfig,
    clear_cache,
    diag_switch,
    eval_F,
    eval_S,
    eval_state,
    solve_integral,
    solve_neumann,
)
from febvp.ode_core import IntegratorConfig, SecondOrderOde

FREE_FALL = SecondOrderOde.from_scalar(lambda t, x, v: -9.8, label="ff")
OSC = SecondOrderOde.from_scalar(lambda t, x, v: -x, label="osc")
PENDULUM = SecondOrderOde.from_scalar(lambda t, x, v: -math.sin(x),
                                      label="pendulum")


def ff_bvp(tau, al, be, a, b, g=-9.8):
    line = (a * (be - tau) + b * (tau - al)) / (be - al)
    return line + 0.5 * g * (tau - al) * (tau - be)


def test_free_fall_bvp_matches_quadratic():
    cond = NeumannConditions(0.0, 1.0, 0.0, 0.0)
    res = solve_neumann(FREE_FALL, cond)
    for t in (0.0, 0.25, 0.5, 0.9, 1.0):
        x = float(eval_state(FREE_FALL, res.trajectory, t,
                             DEFAULT_SHOOTING.integrator).x[0])
        assert abs(x - ff_bvp(t, 0.0, 1.0, 0.0, 0.0)) < 1e-10


def test_linear_problem_converges_quickly():
    res = solve_neumann(FREE_FALL, NeumannConditions(-0.5, 2.0, 1.0, -1.0))
    assert res.iterations <= 2
    assert res.final_residual <= DEFAULT_SHOOTING.newton_tol


def test_endpoints_hit():
    cond = NeumannConditions(0.3, 1.7, 0.8, -0.4)
    res = solve_neumann(OSC, cond)
    xa = float(res.trajectory.eval(0.3).x[0])
    xb = float(res.trajectory.eval(1.7).x[0])
    assert abs(xa - 0.8) < 1e-10
    assert abs(xb + 0.4) < 1e-10


def test_conjugate_at_pi():
    with pytest.raises(ConjugatePoint):
        solve_neumann(OSC, NeumannConditions(0.0, math.pi, 0.5, -0.5))


def test_conjugate_at_pi_zero_data():
    # a = b = 0 converges instantly from the zero guess; the certification
    # pass must still flag the singular Jacobian
    with pytest.raises(ConjugatePoint):
        solve_neumann(OSC, NeumannConditions(0.0, math.pi, 0.0, 0.0))


def test_converges_just_inside_pi():
    res = solve_neumann(OSC, NeumannConditions(0.0, math.pi - 0.1, 0.3, 0.7))
    assert res.final_residual <= 1e-8


def test_no_convergence_when_iterations_exhausted():
    cfg = ShootingConfig(max_newton_iters=1, newton_tol=1e-14)
    with pytest.raises(NoConvergence):
        solve_neumann(PENDULUM, NeumannConditions(0.0, 2.5, 0.0, 3.0), cfg)


def test_solve_integral_matches_endpoint_route():
    # average slope v pins x(beta) = a + v (beta - alpha)
    cond = IntegralConditions(0.0, 1.2, 0.4, -0.9)
    res = solve_integral(OSC, cond)
    xb = float(res.trajectory.eval(1.2).x[0])
    assert abs(xb - (0.4 - 0.9 * 1.2)) < 1e-9


def test_solve_integral_average_slope_quadrature():
    # independent check: Gauss-Legendre mean of the velocity equals v
    cond = IntegralConditions(-0.3, 0.9, 1.0, 0.25)
    res = solve_integral(FREE_FALL, cond)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    gamma = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    taus = (1.0 - gamma) * (-0.3) + gamma * 0.9
    mean_slope = sum(
        wi * float(res.trajectory.eval(t).v[0]) for wi, t in zip(w, taus))
    assert abs(mean_slope - 0.25) < 1e-10


def test_zero_width_integral_is_cauchy():
    cond = IntegralConditions(0.5, 0.5, 1.0, 2.0)
    res = solve_integral(FREE_FALL, cond)
    assert res.iterations == 0
    x1 = float(eval_state(FREE_FALL, res.trajectory, 1.5,
                          DEFAULT_SHOOTING.integrator).x[0])
    # x(t) = 1 + 2 (t - 0.5) - 4.9 (t - 0.5)^2
    assert abs(x1 - (1.0 + 2.0 - 4.9)) < 1e-10


def test_eval_F_matches_solution_inside_and_outside_span():
    cond = NeumannConditions(0.0, 1.0, 0.2, -0.1)
    for t in (-0.75, 0.4, 1.0, 2.3):
        got = float(eval_F(FREE_FALL, t, cond)[0])
        assert abs(got - ff_bvp(t, 0.0, 1.0, 0.2, -0.1)) < 1e-9


def test_eval_F_cache_bitwise_repeatable():
    clear_cache()
    cond = NeumannConditions(0.1, 1.4, -0.6, 0.9)
    first = eval_F(OSC, 0.77, cond)
    second = eval_F(OSC, 0.77, cond)
    assert first[0] == second[0]
    # a direct solve, past the kept one, gives the same bits
    direct = solve_neumann(OSC, cond)
    third = eval_state(OSC, direct.trajectory, 0.77, DEFAULT_SHOOTING.integrator).x
    assert third.tobytes() == first.tobytes()


@pytest.fixture
def solves(monkeypatch):
    """The conditions of every solve_neumann call eval_F makes."""
    calls = []
    real = bvp_shooting.solve_neumann

    def counted(ode, cond, cfg=DEFAULT_SHOOTING):
        calls.append(cond)
        return real(ode, cond, cfg)

    monkeypatch.setattr(bvp_shooting, "solve_neumann", counted)
    clear_cache()
    yield calls
    clear_cache()


def test_composition_solves_twice_per_sample(solves):
    # F(tau), F(gamma) and F(delta) on [alpha, beta] share one solve; the
    # rebased F(tau) on [gamma, delta] is the second.
    report = check_composition(numeric_evaluator("free_fall"), SampleSpec(count=5, seed=3))
    assert report.failures == 0
    assert len(solves) == 10


def test_cache_keeps_only_the_last_solve(solves):
    cond1 = NeumannConditions(0.0, 1.0, 0.3, 0.4)
    cond2 = NeumannConditions(0.0, 1.0, 0.3, 0.5)
    first = eval_F(OSC, 0.6, cond1)
    eval_F(OSC, 0.6, cond2)
    again = eval_F(OSC, 0.6, cond1)
    assert len(solves) == 3
    assert again.tobytes() == first.tobytes()
    # equal conditions and an equal config are a hit; another ode is not
    eval_F(OSC, 0.2, NeumannConditions(0.0, 1.0, 0.3, 0.4), ShootingConfig())
    assert len(solves) == 3
    eval_F(FREE_FALL, 0.2, cond1)
    assert len(solves) == 4
    clear_cache()
    assert eval_F(FREE_FALL, 0.2, cond1).tobytes() == eval_F(FREE_FALL, 0.2, cond1).tobytes()
    assert len(solves) == 5


def test_cache_distinguishes_configs():
    clear_cache()
    cond = NeumannConditions(0.0, 1.0, 0.3, 0.4)
    loose = ShootingConfig(integrator=IntegratorConfig(rel_tol=1e-6,
                                                       abs_tol=1e-8))
    a = float(eval_F(OSC, 0.5, cond)[0])
    b = float(eval_F(OSC, 0.5, cond, loose)[0])
    assert abs(a - b) < 1e-6  # same problem, looser integration


def test_eval_S_on_diagonal_is_input_value():
    cond = IntegralConditions(0.4, 0.4, 0.9, -1.1)
    out = eval_S(FREE_FALL, 0.4, cond)
    assert float(out[0]) == 0.9
    out2 = eval_S(FREE_FALL, 1.0, cond)
    # Cauchy solution from (0.4, 0.9) with slope -1.1
    t = 1.0 - 0.4
    assert abs(float(out2[0]) - (0.9 - 1.1 * t - 4.9 * t * t)) < 1e-10


def test_eval_S_continuous_across_switch():
    alpha = 0.2
    eps = diag_switch(alpha)
    above = IntegralConditions(alpha, alpha + 2 * eps, 0.7, 0.3)
    below = IntegralConditions(alpha, alpha + 0.5 * eps, 0.7, 0.3)
    xa = float(eval_S(FREE_FALL, 1.0, above)[0])
    xb = float(eval_S(FREE_FALL, 1.0, below)[0])
    assert abs(xa - xb) < 1e-6


def test_neumann_conditions_validation():
    with pytest.raises(ValueError):
        NeumannConditions(1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        NeumannConditions(0.0, 1.0, [0.0, 1.0], [0.0])


def test_integral_conditions_allow_equal_endpoints():
    cond = IntegralConditions(0.3, 0.3, 1.0, 0.0)
    assert cond.alpha == cond.beta


def test_vector_shooting():
    ode = SecondOrderOde(dim=2, rhs=lambda t, x, v: -x, label="rot")
    cond = NeumannConditions(0.0, 1.0, [1.0, 0.0],
                             [math.cos(1.0), math.sin(1.0)])
    res = solve_neumann(ode, cond)
    mid = res.trajectory.eval(0.5)
    assert abs(float(mid.x[0]) - math.cos(0.5)) < 1e-9
    assert abs(float(mid.x[1]) - math.sin(0.5)) < 1e-9


@pytest.mark.parametrize("field", ["newton_tol", "singular_floor"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_shooting_config_rejects_bad_tolerances(field, value):
    # A NaN newton_tol used to return the unconverged guess (0 iterations)
    # to a Python caller; the CLI checked these values, the config did not.
    with pytest.raises(ValueError, match=f"{field} must be a finite number > 0"):
        replace(DEFAULT_SHOOTING, **{field: value})
    with pytest.raises(ValueError, match=f"{field} must be a finite number > 0"):
        ShootingConfig(**{field: value})
