"""Shooting solver tests: closed-form targets, conjugate detection, the
kept last solve, and the smooth extension."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from febvp import bvp_shooting, functional_laws, ode_core
from febvp.catalog import make_ode, numeric_evaluator
from febvp.errors import FebvpError
from febvp.functional_laws import (
    SampleSpec,
    check_composition,
    check_extension,
    check_lemma1_equivalence,
)
from febvp.bvp_shooting import (
    ConjugatePoint,
    DEFAULT_SHOOTING,
    IntegralConditions,
    NeumannConditions,
    NoConvergence,
    ShootingConfig,
    ShootingResult,
    clear_cache,
    diag_switch,
    eval_F,
    eval_S,
    eval_state,
    solve_integral,
    solve_neumann,
)
from febvp.ode_core import IntegratorConfig, SecondOrderOde, StatePoint, integrate_ivp

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


def test_vector_shooting_certifies_a_conjugate_point():
    # x'' = -x in the plane over a length-pi interval: every solution
    # through the origin returns to it, so the float SVD's certificate must
    # find the Jacobian singular.
    ode = SecondOrderOde(dim=2, rhs=lambda t, x, v: -x, label="rot")
    with pytest.raises(ConjugatePoint, match="numerically singular"):
        solve_neumann(ode, NeumannConditions(0.0, math.pi, [0.0, 0.0], [0.0, 0.0]))


def test_dim3_coupled_linear_shooting_matches_the_closed_form():
    # x'' = R diag(-1, -4, 0.25) R^T x: in y = R^T x the components
    # decouple, y_i'' = lam_i y_i, and the two-point solution of each is
    # (y_a s(beta - tau) + y_b s(tau - alpha)) / s(beta - alpha), with
    # s(t) = sin(w t) for lam = -w^2 and sinh(k t) for lam = k^2.
    # R is a fixed rotation: turns about the z, y and x axes.
    (cz, cy, cx), (sz, sy, sx) = np.cos([0.3, -0.7, 1.1]), np.sin([0.3, -0.7, 1.1])
    R = (np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
         @ np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
         @ np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]]))
    lam = np.array([-1.0, -4.0, 0.25])
    M = R @ np.diag(lam) @ R.T
    assert np.allclose(np.linalg.eigvalsh(M), sorted(lam))
    ode = SecondOrderOde(dim=3, rhs=lambda t, x, v: M @ x, label="coupled3")
    alpha, beta = 0.2, 1.4
    a, b = np.array([1.0, -0.5, 0.3]), np.array([0.2, 0.8, -1.1])
    cond = NeumannConditions(alpha, beta, a, b)

    def s(t):
        w = np.sqrt(np.abs(lam))
        return np.where(lam < 0, np.sin(w * t), np.sinh(w * t))

    def closed(tau):
        ya, yb = R.T @ a, R.T @ b
        y = (ya * s(beta - tau) + yb * s(tau - alpha)) / s(beta - alpha)
        return R @ y

    res = solve_neumann(ode, cond)
    assert res.u.dtype == np.float64 and res.u.shape == (3,)
    for tau in (alpha, 0.5, 0.9, beta, -0.3, 2.0):
        assert np.max(np.abs(eval_F(ode, tau, cond) - closed(tau))) < 1e-8
    # pi/2 is the conjugate interval of the -4 mode: sin(2 (beta - alpha)) = 0
    with pytest.raises(ConjugatePoint, match="numerically singular"):
        solve_neumann(ode, NeumannConditions(alpha, alpha + math.pi / 2, a, b))


# entries of magnitude 1e-3 to 1e3 or exactly 0, so a well-conditioned
# solve never overflows
_entry = hst.floats(1e-3, 1e3) | hst.floats(-1e3, -1e-3) | hst.sampled_from([0.0, 1.0])
_matrices = hst.integers(1, 5).flatmap(lambda n: hst.lists(
    hst.lists(_entry, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=200, deadline=None)
@given(rows=_matrices, scale=hst.sampled_from([1e-200, 1e-8, 1.0, 1e8, 1e200]))
def test_float_svd_matches_lapack(rows, scale):
    # one-sided Jacobi in floats against LAPACK, to a few ulps of sigma_max
    A = np.array(rows) * scale
    want = np.linalg.svd(A, compute_uv=False)
    got = bvp_shooting._singular_values(A.T.tolist())
    assert got == sorted(got, reverse=True)
    assert np.max(np.abs(np.array(got) - want)) <= 1e-14 * len(rows) * want[0]


@settings(max_examples=200, deadline=None)
@given(rows=_matrices, rhs=hst.lists(_entry, min_size=5, max_size=5))
def test_float_gaussian_elimination_matches_lapack(rows, rhs):
    # partial pivoting in floats against LAPACK's solve, within the
    # condition number's bound; a singular matrix meets a zero pivot
    A, b = np.array(rows), np.array(rhs[:len(rows)])
    got = bvp_shooting._solve(rows, b.tolist())
    cond = np.linalg.cond(A)
    if got is None:
        assert cond > 1e12
        return
    if cond < 1e8:
        want = np.linalg.solve(A, b)
        assert np.max(np.abs(np.array(got) - want)) <= 1e-12 * cond * max(1.0, np.max(np.abs(want)))


def test_float_svd_and_solve_edge_cases():
    svd, solve = bvp_shooting._singular_values, bvp_shooting._solve
    assert svd([[math.nan, 0.0], [0.0, 1.0]]) is None  # does not decompose
    assert svd([[math.inf, 0.0], [0.0, 1.0]]) == [math.inf, math.inf]
    assert svd([[0.0, 0.0], [0.0, 0.0]]) == [0.0, 0.0]
    assert svd([[1.0, 2.0], [2.0, 4.0]]) == [5.0, 0.0]
    # squares of 1e300 would overflow; the power-of-two scaling avoids it
    assert svd([[1e300, 1e300], [1e300, -1e300]]) == [math.sqrt(2) * 1e300] * 2
    # dim 1: LAPACK's 1x1 bits, |J| and -r / J
    for J in (3.0, -2.5, 5e-324, 1e308):
        assert svd([[J]]) == [abs(J)] and solve([[J]], [-1.5]) == [-1.5 / J]
    assert solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]) is None
    assert solve([[0.0, 1.0], [1.0, 0.0]], [3.0, 4.0]) == [4.0, 3.0]


@pytest.mark.parametrize("field", ["newton_tol", "singular_floor"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_shooting_config_rejects_bad_tolerances(field, value):
    # A NaN newton_tol used to return the unconverged guess (0 iterations)
    # to a Python caller; the CLI checked these values, the config did not.
    with pytest.raises(ValueError, match=f"{field} must be a finite number > 0"):
        replace(DEFAULT_SHOOTING, **{field: value})
    with pytest.raises(ValueError, match=f"{field} must be a finite number > 0"):
        ShootingConfig(**{field: value})


# ------------------------------------------ floats against arrays
#
# _array_newton is solve_neumann as it was when every dimension ran through
# NumPy: a (1,) residual, a 1x1 Jacobian, np.linalg.svd for the certificate
# and np.linalg.solve for the step.  solve_neumann's one float path, the
# same for every dimension, must give its bits, counts and errors in dim 1.
# Its IVPs go through the module's integrate_ivp, as solve_neumann's do.

def _array_check_singular(J, interval, cfg, where):
    try:
        sigma = np.linalg.svd(J, compute_uv=False)
    except np.linalg.LinAlgError:
        raise ConjugatePoint(
            f"shooting Jacobian is not decomposable near {where}", interval=interval)
    if not np.all(np.isfinite(sigma)):
        raise ConjugatePoint(
            f"shooting Jacobian is non-finite near {where}", interval=interval)
    smax = float(sigma[0])
    smin = float(sigma[-1])
    ref = max(smax, abs(interval))
    if smin <= 0.0 or ref / smin > bvp_shooting._COND_LIMIT or smin < cfg.singular_floor * ref:
        raise ConjugatePoint(
            "shooting Jacobian numerically singular "
            f"(sigma_min={smin!r}, scale={ref!r}) near {where}: endpoint data "
            "does not determine a locally unique solution",
            sigma_min=smin, scale=ref, interval=interval)


def _array_newton(ode, cond, cfg=DEFAULT_SHOOTING):
    n = ode.dim
    alpha, beta = cond.alpha, cond.beta
    a, b = cond.a, cond.b
    interval = beta - alpha
    tol = cfg.newton_tol

    def residual(u):
        traj = bvp_shooting.integrate_ivp(ode, StatePoint(alpha, a, u), beta, cfg.integrator)
        return traj.eval(beta).x - b, traj

    def jacobian(u, r_base):
        J = np.empty((n, n))
        for j in range(n):
            dj = bvp_shooting._FD_STEP * max(1.0, abs(float(u[j])))
            up = u.copy()
            up[j] += dj
            rj, _ = residual(up)
            J[:, j] = (rj - r_base) / dj
        return J

    u = (b - a) / interval
    r, traj = residual(u)
    rn = float(np.max(np.abs(r)))
    iterations = 0
    J = None
    while rn > tol:
        if iterations >= cfg.max_newton_iters:
            raise NoConvergence(
                f"Newton did not reach tol={tol!r} in {cfg.max_newton_iters} "
                f"iterations (residual {rn!r})", residual=rn, iterations=iterations)
        J = jacobian(u, r)
        _array_check_singular(J, interval, cfg, f"u={u.tolist()!r}")
        try:
            s = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            raise ConjugatePoint("shooting Jacobian solve failed", interval=interval)
        if not np.all(np.isfinite(s)):
            raise ConjugatePoint("shooting Newton step is non-finite", interval=interval)
        lam = 1.0
        for _ in range(bvp_shooting._MAX_HALVINGS + 1):
            u_try = u + lam * s
            r_try, traj_try = residual(u_try)
            rn_try = float(np.max(np.abs(r_try)))
            if rn_try < rn or rn_try <= tol:
                break
            lam *= 0.5
        else:
            raise NoConvergence(
                f"damped line search stalled after {bvp_shooting._MAX_HALVINGS} halvings "
                f"(residual {rn!r})", residual=rn, iterations=iterations)
        u, r, rn, traj = u_try, r_try, rn_try, traj_try
        iterations += 1
    if J is None:
        J = jacobian(u, r)
    _array_check_singular(J, interval, cfg, "the converged solution")
    return ShootingResult(u=u, trajectory=traj, iterations=iterations, final_residual=rn)


def _family(name, params=None):
    return make_ode(name, params)[0]


def _solve_outcome(solve, ode, cond, cfg=DEFAULT_SHOOTING):
    """Everything a solve shows: result bits, or error class, message and
    context."""
    try:
        res = solve(ode, cond, cfg)
    except FebvpError as exc:
        return type(exc), str(exc), exc.context
    assert isinstance(res.final_residual, float)
    return (res.u.shape, res.u.dtype, res.u.tobytes(), res.iterations,
            res.final_residual.hex(), np.array(res.trajectory.knots).tobytes())


def _ivp_count(monkeypatch, solve, ode, cond):
    calls = []
    real = bvp_shooting.integrate_ivp

    def counted(*args):
        calls.append(args)
        return real(*args)

    with monkeypatch.context() as m:
        m.setattr(bvp_shooting, "integrate_ivp", counted)
        _solve_outcome(solve, ode, cond)
    return len(calls)


_FAMILIES = {
    "free_fall": lambda d: {"g": d(hst.floats(-20.0, 20.0))},
    "conic": lambda d: {"k": d(hst.floats(0.0, 6.0)), "g": d(hst.floats(-2.0, 2.0))},
    "oscillator": lambda d: {"omega": d(hst.floats(0.25, 3.0))},
    "linear_basis": lambda d: {},
}


@settings(max_examples=60, deadline=None)
@given(data=hst.data(), family=hst.sampled_from(sorted(_FAMILIES)),
       alpha=hst.floats(-2.0, 2.0), length=hst.floats(-4.5, 4.5).filter(lambda w: abs(w) > 0.05),
       a=hst.floats(-3.0, 3.0), b=hst.floats(-3.0, 3.0),
       tol=hst.sampled_from([1e-10, 1e-13, 1e-15]), iters=hst.sampled_from([1, 50]))
def test_dim1_float_newton_matches_the_array_newton(data, family, alpha, length, a, b, tol, iters):
    ode = _family(family, _FAMILIES[family](data.draw))
    cond = NeumannConditions(alpha, alpha + length, a, b)
    cfg = ShootingConfig(newton_tol=tol, max_newton_iters=iters)
    assert (_solve_outcome(solve_neumann, ode, cond, cfg)
            == _solve_outcome(_array_newton, ode, cond, cfg))


@pytest.mark.parametrize("ode, cond, error", [
    # the secant guess is exact, then the certificate finds the conjugate point
    (_family("linear_basis"), NeumannConditions(0.0, math.pi, 0.0, 0.0), ConjugatePoint),
    (_family("oscillator"), NeumannConditions(0.0, math.pi, 0.5, -0.5), ConjugatePoint),
    # exp(20) growth: the line search stalls after 20 halvings
    (_family("conic", {"k": 5.0}), NeumannConditions(0.0, 4.0, 0.0, 1.0), NoConvergence),
    # a nonlinear problem whose line search halves once, then converges
    (PENDULUM, NeumannConditions(0.0, 2.82, 2.14, 2.95), None),
    (OSC, NeumannConditions(0.0, math.pi - 0.1, 0.3, 0.7), None),
    (SecondOrderOde(dim=2, rhs=lambda t, x, v: -x, label="rot"),
     NeumannConditions(0.0, 1.0, [1.0, 0.0], [math.cos(1.0), math.sin(1.0)]), None),
], ids=["linear-basis-pi", "oscillator-pi", "conic-k5", "pendulum-halving",
        "inside-pi", "dim2"])
def test_newton_edge_cases_match_the_array_newton(ode, cond, error):
    got = _solve_outcome(solve_neumann, ode, cond)
    assert got == _solve_outcome(_array_newton, ode, cond)
    # an error's class, or a result's u shape
    assert got[0] == (error or cond.a.shape)


def test_pendulum_case_halves_its_step(monkeypatch):
    # One IVP for the first residual, then per Newton iteration one for the
    # Jacobian and one per line-search trial: any IVP past 2 * iterations + 1
    # is a halving.
    cond = NeumannConditions(0.0, 2.82, 2.14, 2.95)
    iterations = solve_neumann(PENDULUM, cond).iterations
    for solve in (solve_neumann, _array_newton):
        assert _ivp_count(monkeypatch, solve, PENDULUM, cond) > 2 * iterations + 1


class _EndValue:
    """A stand-in trajectory whose value at every tau is x."""

    def __init__(self, x):
        self.x = x

    def eval(self, tau):
        return StatePoint.of(tau, [self.x], [0.0])

    def read(self, taus):
        return [[self.x, 0.0] for _ in taus]


@pytest.mark.parametrize("J, kind", [
    (math.nan, "not decomposable"), (math.inf, "non-finite"),
    (-math.inf, "non-finite"), (0.0, "numerically singular"),
    (-0.0, "numerically singular"), (5e-324, "numerically singular"),
])
def test_dim1_certificate_matches_lapack(monkeypatch, J, kind):
    # np.linalg's own verdicts on the 1x1 Jacobian [[J]]: NaN does not
    # decompose, an infinity has singular value NaN, and the rest |J|.
    if J != J:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.svd([[J]], compute_uv=False)
    else:
        sigma = np.linalg.svd([[J]], compute_uv=False)[0]
        assert (sigma != sigma) if math.isinf(J) else (sigma == abs(J))
    # x(beta) = x0 at the secant slope u0 = 2e6 and x1 at u0 + du, with
    # du = 2.0 exactly, so the forward difference (x1 - x0) / du is J.  A
    # finite J meets a guess that already converged (x0 = 0), so the final
    # certificate sees it; a non-finite one meets a residual of 1, so a
    # Newton iteration's certificate does.
    u0, du = 2e6, 2.0
    assert bvp_shooting._FD_STEP * u0 == du
    x0 = 0.0 if math.isfinite(J) else 1.0
    x1 = J * du if x0 == 0.0 else x0 + J * du

    def fake_ivp(ode, start, tau_end, *rest):
        return _EndValue(x0 if float(start.v[0]) == u0 else x1)

    monkeypatch.setattr(bvp_shooting, "integrate_ivp", fake_ivp)
    cond = NeumannConditions(0.0, 1.0, -u0, 0.0)
    got = _solve_outcome(solve_neumann, FREE_FALL, cond)
    assert got == _solve_outcome(_array_newton, FREE_FALL, cond)
    assert got[0] is ConjugatePoint and kind in got[1]


# ------------------------------------------------- lemma1 solves once

def test_lemma1_solves_once_per_sample(solves):
    reports = check_lemma1_equivalence(_family("conic"), SampleSpec(count=12, seed=3))
    assert [r.failures for r in reports] == [0, 0]
    assert reports[0].max_residual == 0.0
    assert len(solves) == 12


@pytest.mark.parametrize("family", ["conic", "oscillator", "free_fall"])
def test_integral_and_endpoint_solves_agree_on_lemma1_samples(monkeypatch, family):
    # lemma1 reports its agreement as 0.0 without a second solve, because
    # solve_integral is solve_neumann on b = a + v (beta - alpha).  Check
    # that bit for bit on the conditions the law draws.
    ode = _family(family)
    drawn = []
    real = functional_laws.solve_integral

    def recorded(ode, cond, cfg=DEFAULT_SHOOTING):
        result = real(ode, cond, cfg)
        drawn.append((cond, result))
        return result

    monkeypatch.setattr(functional_laws, "solve_integral", recorded)
    check_lemma1_equivalence(ode, SampleSpec(count=15, seed=11))
    assert len(drawn) == 15
    for cond, by_integral in drawn:
        b = cond.a + cond.v * (cond.beta - cond.alpha)
        by_endpoint = solve_neumann(ode, NeumannConditions(cond.alpha, cond.beta, cond.a, b))
        assert (_solve_outcome(lambda *_: by_integral, ode, cond)
                == _solve_outcome(lambda *_: by_endpoint, ode, cond))
        taus = list(np.linspace(cond.alpha, cond.beta, 20))
        for p, q in zip(by_integral.trajectory.eval_many(taus),
                        by_endpoint.trajectory.eval_many(taus)):
            assert (p.x.tobytes(), p.v.tobytes()) == (q.x.tobytes(), q.v.tobytes())


# ------------------------------------------ every IVP on the traced path
#
# Tracing (bench/tracing.py) and the spies above wrap the module global
# bvp_shooting.integrate_ivp, so every first run of a kernel must come from
# one call of it; only a recording run may start elsewhere.

def test_every_first_kernel_run_comes_from_one_integrate_ivp_call(monkeypatch):
    ivps = []  # per integrate_ivp call, its kernel runs with record off
    inside = []  # the integrate_ivp calls running now, by index into ivps
    stray = []  # record-off runs outside any integrate_ivp call
    real_ivp, real_kernel = bvp_shooting.integrate_ivp, ode_core._kernel

    def traced_ivp(*args):
        ivps.append(0)
        inside.append(len(ivps) - 1)
        try:
            return real_ivp(*args)
        finally:
            inside.pop()

    def counted_kernel(n, variant, f):
        run = real_kernel(n, variant, f)

        def counted(*args):
            if not args[-1]:
                if inside:
                    ivps[inside[-1]] += 1
                else:
                    stray.append(args)
            return run(*args)
        return counted

    monkeypatch.setattr(bvp_shooting, "integrate_ivp", traced_ivp)
    monkeypatch.setattr(ode_core, "_kernel", counted_kernel)
    clear_cache()
    conic = numeric_evaluator("conic", {"k": 1.5, "g": 0.5})
    assert check_composition(conic, SampleSpec(count=6, seed=5)).failures == 0
    assert all(r.failures == 0 for r in check_extension(conic, SampleSpec(count=6, seed=5)))
    assert all(r.failures == 0 for r in
               check_lemma1_equivalence(_family("conic"), SampleSpec(count=6, seed=5)))
    clear_cache()
    assert len(ivps) > 50 and not stray
    assert set(ivps) <= {0, 1} and ivps.count(1) > 50


@pytest.mark.parametrize("ode, cond", [
    (OSC, NeumannConditions(0.3, 1.7, 0.8, -0.4)),
    (OSC, NeumannConditions(1.7, 0.3, -0.4, 0.8)),
    (make_ode("conic", {"k": 1.5, "g": 0.5})[0], NeumannConditions(-0.5, 0.25, 0.2, -0.1)),
    (SecondOrderOde(2, lambda t, x, v: np.array([-x[1], x[0] - 0.2 * v[1]])),
     NeumannConditions(0.0, 0.9, [0.5, 1.0], [-0.3, 0.2])),
], ids=["forward", "backward", "conic", "dim2"])
def test_eval_state_continues_with_the_bits_of_an_ivp_from_the_end(ode, cond):
    traj = solve_neumann(ode, cond).trajectory
    lo, hi = traj.span
    icfg = DEFAULT_SHOOTING.integrator

    def state(point):
        return point.tau.hex(), point.x.tobytes(), point.v.tobytes()

    for tau in (hi + 0.25, hi + 1e-3, hi + 1.5, lo - 0.25, lo - 1e-3, lo - 1.5):
        end = hi if tau > hi else lo
        want = integrate_ivp(ode, traj.eval(end), tau, icfg).eval(tau)
        got = eval_state(ode, traj, tau, icfg)
        assert state(got) == state(want)
        assert got.x.dtype == got.v.dtype == np.float64
