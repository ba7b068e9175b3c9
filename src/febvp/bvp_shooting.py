"""Two-point solves and the dependence maps F and S.

solve_neumann finds the solution of xdd = f(tau, x, xd) passing through
x(alpha) = a and x(beta) = b by Newton iteration on the initial velocity
(single shooting, forward-difference Jacobian, damped updates).  eval_F
exposes the solution value at any tau as a function of the conditions; eval_S
is the smooth extension that replaces b with the average-slope parameter v,
so the diagonal beta == alpha carries Cauchy data (x(alpha) = a,
xd(alpha) = v).

The solver certifies local uniqueness: a numerically singular shooting
Jacobian raises ConjugatePoint even when the residual already vanished (a
conjugate interval admits many solutions through the same endpoint data, and
a converged residual alone cannot tell).

One Newton loop serves every dimension, which picks how the residual is
read, the Jacobian J formed, its singular values taken and the step solved:
NumPy in dim n, and in dim 1 Python floats with LAPACK's 1x1 bits (-r / J
as solve gives it, |J| as the SVD does; a NaN J does not decompose).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FebvpError
from .ode_core import (
    IntegratorConfig,
    SecondOrderOde,
    StatePoint,
    Trajectory,
    integrate_ivp,
)

__all__ = [
    "NeumannConditions",
    "IntegralConditions",
    "ShootingConfig",
    "ShootingResult",
    "ConjugatePoint",
    "NoConvergence",
    "solve_neumann",
    "solve_integral",
    "eval_F",
    "eval_S",
    "eval_state",
    "diag_switch",
    "end_value",
    "clear_cache",
]


class ConjugatePoint(FebvpError):
    """Shooting Jacobian numerically singular: endpoint data does not pin a
    locally unique solution on this interval."""

    code = "conjugate_point"


class NoConvergence(FebvpError):
    code = "no_convergence"


def _as_vec(val, dim_hint: int | None = None) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(val, dtype=float))
    if arr.ndim != 1:
        raise ValueError("condition values must be scalars or 1-d arrays")
    if dim_hint is not None and arr.shape != (dim_hint,):
        raise ValueError(f"expected {dim_hint} components, got {arr.shape[0]}")
    return arr


@dataclass(eq=False)
class NeumannConditions:
    """Endpoint-value data x(alpha) = a, x(beta) = b with alpha != beta."""

    alpha: float
    beta: float
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.alpha = float(self.alpha)
        self.beta = float(self.beta)
        self.a = _as_vec(self.a)
        self.b = _as_vec(self.b, self.a.shape[0])
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if self.alpha == self.beta:
            raise ValueError("endpoint data requires alpha != beta")

    @property
    def dim(self) -> int:
        return self.a.shape[0]


@dataclass(eq=False)
class IntegralConditions:
    """Average-slope data x(alpha) = a, (x(beta) - x(alpha))/(beta - alpha) = v.

    alpha == beta is allowed; the data then degenerate to Cauchy data with
    initial velocity v.
    """

    alpha: float
    beta: float
    a: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.alpha = float(self.alpha)
        self.beta = float(self.beta)
        self.a = _as_vec(self.a)
        self.v = _as_vec(self.v, self.a.shape[0])
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")

    @property
    def dim(self) -> int:
        return self.a.shape[0]


# The forward-difference Jacobian perturbs component j by
# _FD_STEP * max(1, |u_j|); a Newton step that does not lower the residual
# is halved up to _MAX_HALVINGS times; a Jacobian whose condition number
# exceeds _COND_LIMIT is singular.
_FD_STEP = 1e-6
_MAX_HALVINGS = 20
_COND_LIMIT = 1e12


@dataclass(frozen=True)
class ShootingConfig:
    """Newton-shooting controls.

    newton_tol is an infinity-norm bound on the endpoint residual.
    singular_floor drives the ConjugatePoint test: the Jacobian is declared
    singular when sigma_min < singular_floor * ref or ref / sigma_min >
    _COND_LIMIT, with ref = max(sigma_max, |beta - alpha|) the natural
    Jacobian scale.
    """

    newton_tol: float = 1e-10
    max_newton_iters: int = 50
    singular_floor: float = 1e-4
    integrator: IntegratorConfig = field(default_factory=IntegratorConfig)

    def __post_init__(self):
        # A NaN tolerance never compares as met, so the solve would return
        # its unconverged guess; a NaN or non-positive floor turns off the
        # conjugate-point certificate.
        for name in ("newton_tol", "singular_floor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


DEFAULT_SHOOTING = ShootingConfig()


@dataclass(eq=False)
class ShootingResult:
    """Converged solve: initial velocity, trajectory over [alpha, beta],
    Newton iteration count, and the final endpoint residual (inf-norm)."""

    u: np.ndarray
    trajectory: Trajectory
    iterations: int
    final_residual: float


def _check_singular(sigma: list[float] | None, interval: float, cfg: ShootingConfig, where: str):
    """sigma: the Jacobian's singular values, largest first; None if it does not decompose."""
    if sigma is None:
        raise ConjugatePoint(
            f"shooting Jacobian is not decomposable near {where}", interval=interval)
    if not all(map(math.isfinite, sigma)):
        raise ConjugatePoint(
            f"shooting Jacobian is non-finite near {where}", interval=interval)
    smin = sigma[-1]
    ref = max(sigma[0], abs(interval))
    if smin <= 0.0 or ref / smin > _COND_LIMIT or smin < cfg.singular_floor * ref:
        raise ConjugatePoint(
            "shooting Jacobian numerically singular "
            f"(sigma_min={smin!r}, scale={ref!r}) near {where}: endpoint data "
            "does not determine a locally unique solution",
            sigma_min=smin, scale=ref, interval=interval)


def solve_neumann(ode: SecondOrderOde, cond: NeumannConditions,
                  cfg: ShootingConfig = DEFAULT_SHOOTING) -> ShootingResult:
    """Solve the endpoint-value problem by Newton shooting on xd(alpha),
    starting from the secant slope (b - a)/(beta - alpha).

    Raises:
        ConjugatePoint: Jacobian numerically singular (no locally unique
            solution; oscillator over a length-pi interval is the canonical
            case).
        NoConvergence: iteration or line-search budget exhausted.
        IntegrationError subclasses propagate from the integrator.
    """
    if cond.dim != ode.dim:
        raise ValueError(f"conditions have dim {cond.dim}, ode has dim {ode.dim}")
    n = ode.dim
    alpha, beta = cond.alpha, cond.beta
    a, b = cond.a, cond.b
    interval = beta - alpha
    tol = cfg.newton_tol

    def residual(u):
        traj = integrate_ivp(ode, StatePoint(alpha, a, vec(u)), beta, cfg.integrator)
        return (*read(traj), traj)

    # vec(u) is u as the (n,) array an IVP starts from; None is a non-finite step
    vec = np.atleast_1d
    if n == 1:
        b0 = float(b[0])

        def read(traj):
            r = traj.read((beta,))[0][0] - b0
            return r, abs(r)

        def jacobian(u, r_base):
            du = _FD_STEP * max(1.0, abs(u))
            return (residual(u + du)[0] - r_base) / du

        def singular_values(J):
            return None if J != J else [abs(J)]

        def newton_step(J, r):
            s = -r / J
            return s if math.isfinite(s) else None

        u = (b0 - float(a[0])) / interval
    else:
        def read(traj):
            r = traj.eval(beta).x - b
            return r, float(np.max(np.abs(r)))

        def jacobian(u, r_base):
            J = np.empty((n, n))
            for j in range(n):
                dj = _FD_STEP * max(1.0, abs(float(u[j])))
                up = u.copy()
                up[j] += dj
                J[:, j] = (residual(up)[0] - r_base) / dj
            return J

        def singular_values(J):
            try:
                return np.linalg.svd(J, compute_uv=False).tolist()
            except np.linalg.LinAlgError:
                return None

        def newton_step(J, r):
            try:
                s = np.linalg.solve(J, -r)
            except np.linalg.LinAlgError:
                raise ConjugatePoint("shooting Jacobian solve failed", interval=interval)
            return s if np.all(np.isfinite(s)) else None

        # data that overflow give a non-finite guess, which the IVP rejects
        with np.errstate(over="ignore", invalid="ignore"):
            u = (b - a) / interval

    r, rn, traj = residual(u)
    iterations = 0
    J = None

    while rn > tol:
        if iterations >= cfg.max_newton_iters:
            raise NoConvergence(
                f"Newton did not reach tol={tol!r} in {cfg.max_newton_iters} "
                f"iterations (residual {rn!r})", residual=rn, iterations=iterations)
        J = jacobian(u, r)
        _check_singular(singular_values(J), interval, cfg, f"u={vec(u).tolist()!r}")
        s = newton_step(J, r)
        if s is None:
            raise ConjugatePoint("shooting Newton step is non-finite", interval=interval)

        lam = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            u_try = u + lam * s
            r_try, rn_try, traj_try = residual(u_try)
            if rn_try < rn or rn_try <= tol:
                break
            lam *= 0.5
        else:
            raise NoConvergence(
                f"damped line search stalled after {_MAX_HALVINGS} halvings "
                f"(residual {rn!r})", residual=rn, iterations=iterations)
        u, r, rn, traj = u_try, r_try, rn_try, traj_try
        iterations += 1

    # Certify local uniqueness at the solution.  When Newton accepted the
    # initial guess outright no Jacobian was ever formed (the conjugate case
    # with matching endpoint data lands here), so form one now.
    if J is None:
        J = jacobian(u, r)
    _check_singular(singular_values(J), interval, cfg, "the converged solution")
    return ShootingResult(u=vec(u), trajectory=traj, iterations=iterations, final_residual=rn)


def end_value(a: np.ndarray, v: np.ndarray, span: float) -> np.ndarray:
    """b = a + v * span, the endpoint value of average-slope data over an
    interval of length span.  Data that overflow give inf or NaN, which the
    solve or the sampled law then rejects, so NumPy's warnings about them
    are silenced."""
    with np.errstate(over="ignore", invalid="ignore"):
        return a + v * span


def solve_integral(ode: SecondOrderOde, cond: IntegralConditions,
                   cfg: ShootingConfig = DEFAULT_SHOOTING) -> ShootingResult:
    """Solve under average-slope data by reduction to endpoint data.

    For alpha != beta this is solve_neumann with b = a + v * (beta - alpha);
    the average of xd over the interval then equals v.  For alpha == beta the
    data are Cauchy data and the result is the degenerate zero-width solve
    with u = v.
    """
    if cond.dim != ode.dim:
        raise ValueError(f"conditions have dim {cond.dim}, ode has dim {ode.dim}")
    if cond.alpha == cond.beta:
        traj = integrate_ivp(ode, StatePoint(cond.alpha, cond.a, cond.v),
                             cond.alpha, cfg.integrator)
        return ShootingResult(u=cond.v.copy(), trajectory=traj, iterations=0,
                              final_residual=0.0)
    b = end_value(cond.a, cond.v, cond.beta - cond.alpha)
    ncond = NeumannConditions(cond.alpha, cond.beta, cond.a, b)
    return solve_neumann(ode, ncond, cfg)


# The last eval_F solve as (ode, key, result), keyed by the exact bits of
# the conditions and the config's value.  The laws read one solve at several
# taus in a row, so this one slot serves every repeat they make.
_last: tuple = (None, None, None)


def clear_cache() -> None:
    """Drop the kept solve."""
    global _last
    _last = (None, None, None)


def _cached_solve(ode: SecondOrderOde, cond: NeumannConditions,
                  cfg: ShootingConfig) -> ShootingResult:
    global _last
    key = (cond.alpha.hex(), cond.beta.hex(), cond.a.tobytes(), cond.b.tobytes(), cfg)
    last_ode, last_key, result = _last
    if last_ode is ode and last_key == key:
        return result
    # the module global, so that a wrapper installed on solve_neumann
    # (tracing, tests) sees every solve
    result = solve_neumann(ode, cond, cfg)
    _last = (ode, key, result)
    return result


def eval_state(ode: SecondOrderOde, traj: Trajectory, tau: float,
               icfg: IntegratorConfig) -> StatePoint:
    """Evaluate a solve's trajectory at tau, integrating past an end if tau
    lies outside the stored span.

    Extensions are recomputed per call (never cached), so the value at tau
    depends only on (ode, trajectory, tau, config) and not on the history of
    earlier queries.
    """
    lo, hi = traj.span
    if lo <= tau <= hi:
        return traj.eval(tau)
    if tau > hi:
        ext = integrate_ivp(ode, traj.eval(hi), tau, icfg)
    else:
        ext = integrate_ivp(ode, traj.eval(lo), tau, icfg)
    return ext.eval(tau)


def eval_F(ode: SecondOrderOde, tau: float, cond: NeumannConditions,
           cfg: ShootingConfig = DEFAULT_SHOOTING) -> np.ndarray:
    """Value x(tau) of the endpoint-data solution, as a map of (tau, cond).

    The last solve is kept, so sweeping tau over one (cond, cfg) costs one
    solve.  tau may lie outside [alpha, beta]; the solution is continued by
    direct integration.
    """
    result = _cached_solve(ode, cond, cfg)
    return eval_state(ode, result.trajectory, float(tau), cfg.integrator).x


def diag_switch(alpha: float) -> float:
    """Interval width below which eval_S switches to Cauchy integration."""
    return 1e-8 * max(1.0, abs(alpha))


def eval_S(ode: SecondOrderOde, tau: float, cond: IntegralConditions,
           cfg: ShootingConfig = DEFAULT_SHOOTING) -> np.ndarray:
    """Smooth extension of eval_F across the diagonal beta == alpha.

    For |beta - alpha| above diag_switch(alpha) this is
    eval_F(tau, alpha, beta, a, a + v*(beta - alpha)); at and below the
    switch the solution is integrated directly from Cauchy data (alpha, a, v).
    """
    tau = float(tau)
    alpha, beta = cond.alpha, cond.beta
    if abs(beta - alpha) > diag_switch(alpha):
        b = end_value(cond.a, cond.v, beta - alpha)
        ncond = NeumannConditions(alpha, beta, cond.a, b)
        return eval_F(ode, tau, ncond, cfg)
    if tau == alpha:
        return cond.a.copy()
    traj = integrate_ivp(ode, StatePoint(alpha, cond.a, cond.v), tau, cfg.integrator)
    return traj.eval(tau).x
