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

One Newton loop serves every dimension, on lists of n Python floats: the
residual is read from each IVP's stored end row, the Jacobian J is formed
by forward-difference columns, the step is Gaussian elimination with
partial pivoting and the certificate's singular values come from a
one-sided Jacobi SVD (_solve and _singular_values).  No BLAS or LAPACK
kernel, and no CPU it picks, decides a bit.  In dim 1 these give LAPACK's
1x1 bits: the step -r / J and the singular value |J| (a NaN J does not
decompose).
"""

from __future__ import annotations

import math
import operator
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
    # a 1-d float64 ndarray is the array that asarray and atleast_1d return
    as_is = type(val) is np.ndarray and val.dtype == float and val.ndim == 1
    arr = val if as_is else np.atleast_1d(np.asarray(val, dtype=float))
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
# The one-sided Jacobi SVD of an n x n matrix rotates a pair of columns
# while the cosine of their angle exceeds n * _EPS (LAPACK dgesvj's
# tolerance) and neither column's norm is below n * _EPS times the
# matrix's, for at most _JACOBI_SWEEPS sweeps.
_EPS = 2.0 ** -52
_JACOBI_SWEEPS = 60


def _solve(rows: list[list[float]], rhs: list[float]) -> list[float] | None:
    """x with rows @ x = rhs, by Gaussian elimination with partial pivoting
    (the first largest |pivot| of a column) and back substitution, in
    floats.  A zero pivot means rows is singular: None."""
    n = len(rhs)
    m = [row + [b] for row, b in zip(rows, rhs)]
    for k in range(n):
        p = k
        for i in range(k + 1, n):
            if abs(m[i][k]) > abs(m[p][k]):
                p = i
        if m[p][k] == 0.0:
            return None
        m[k], m[p] = m[p], m[k]
        pivot = m[k]
        for row in m[k + 1:]:
            f = row[k] / pivot[k]
            for j in range(k + 1, n + 1):
                row[j] -= f * pivot[j]
    x = [0.0] * n
    for k in reversed(range(n)):
        row, acc = m[k], m[k][n]
        for j in range(k + 1, n):
            acc -= row[j] * x[j]
        x[k] = acc / row[k]
    return x


def _singular_values(columns: list[list[float]]) -> list[float] | None:
    """The singular values, largest first, of the matrix with these columns,
    by a one-sided Jacobi SVD (Hestenes; Demmel & Veselic 1992) in floats:
    plane rotations make the columns orthogonal, and their norms are the
    singular values.  The matrix is scaled by a power of two (exactly) so
    that no square overflows.  A NaN entry, or no convergence, gives None
    (it does not decompose); an infinite one gives infinite values."""
    flat = [abs(a) for col in columns for a in col]
    if any(map(math.isnan, flat)):
        return None
    top = max(flat)
    if top == 0.0 or math.isinf(top):
        return [top] * len(columns)
    e = math.frexp(top)[1]
    cols = [[math.ldexp(a, -e) for a in col] for col in columns]
    tol = len(cols) * _EPS
    # a column this small is rank-deficiency noise: its value is about 0
    negligible = 0.0
    for col in cols:
        for a in col:
            negligible += a * a
    negligible *= tol * tol
    for _ in range(_JACOBI_SWEEPS):
        rotated = False
        for i in range(len(cols) - 1):
            for j in range(i + 1, len(cols)):
                ci, cj = cols[i], cols[j]
                alpha = beta = gamma = 0.0
                for a, b in zip(ci, cj):
                    alpha += a * a
                    beta += b * b
                    gamma += a * b
                if (alpha <= negligible or beta <= negligible
                        or abs(gamma) <= tol * math.sqrt(alpha) * math.sqrt(beta)):
                    continue
                rotated = True
                # the rotation that zeroes gamma, by its smaller angle
                zeta = (beta - alpha) / (2.0 * gamma)
                if abs(zeta) > 1e150:
                    t = 0.5 / zeta
                else:
                    t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                cols[i] = [c * a - s * b for a, b in zip(ci, cj)]
                cols[j] = [s * a + c * b for a, b in zip(ci, cj)]
        if not rotated:
            break
    else:
        return None
    norms = []
    for col in cols:
        ss = 0.0
        for a in col:
            ss += a * a
        norms.append(math.ldexp(math.sqrt(ss), e))
    return sorted(norms, reverse=True)


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


def _check_singular(sigma: list[float] | None, interval: float, cfg: ShootingConfig,
                    u: list[float] | None = None):
    """sigma: the Jacobian's singular values, largest first; None if it does not decompose.
    u: the Newton iterate it was formed at; None at the converged solution."""
    def where() -> str:
        return "the converged solution" if u is None else f"u={u!r}"

    if sigma is None:
        raise ConjugatePoint(
            f"shooting Jacobian is not decomposable near {where()}", interval=interval)
    if not all(map(math.isfinite, sigma)):
        raise ConjugatePoint(
            f"shooting Jacobian is non-finite near {where()}", interval=interval)
    smin = sigma[-1]
    ref = max(sigma[0], abs(interval))
    if smin <= 0.0 or ref / smin > _COND_LIMIT or smin < cfg.singular_floor * ref:
        raise ConjugatePoint(
            "shooting Jacobian numerically singular "
            f"(sigma_min={smin!r}, scale={ref!r}) near {where()}: endpoint data "
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
        NoConvergence: iteration or line-search budget exhausted, or a
            secant start that overflows.
        IntegrationError subclasses propagate from the integrator.
    """
    if cond.dim != ode.dim:
        raise ValueError(f"conditions have dim {cond.dim}, ode has dim {ode.dim}")
    n = ode.dim
    alpha, beta = cond.alpha, cond.beta
    a, b = cond.a.tolist(), cond.b.tolist()
    interval = beta - alpha
    tol = cfg.newton_tol

    def residual(u):
        traj = integrate_ivp(ode, StatePoint(alpha, cond.a, np.array(u)), beta, cfg.integrator)
        (row,) = traj.read((beta,))
        r = list(map(operator.sub, row, b))  # row is x, then v: map stops after n
        return r, max(map(abs, r)), traj

    def jacobian(u, r_base):
        # J as its n columns
        J = []
        for j in range(n):
            dj = _FD_STEP * max(1.0, abs(u[j]))
            up = u.copy()
            up[j] += dj
            J.append([(rp - rb) / dj for rp, rb in zip(residual(up)[0], r_base)])
        return J

    # u, the initial velocity, and r and s are lists of n floats
    u = [(y - x) / interval for x, y in zip(a, b)]
    # finite data whose secant slope overflows leave Newton no finite start
    if not all(map(math.isfinite, u)) and all(map(math.isfinite, a + b)):
        raise NoConvergence("the secant start (b - a)/(beta - alpha) is not finite",
                            interval=interval)

    r, rn, traj = residual(u)
    iterations = 0
    J = None

    while rn > tol:
        if iterations >= cfg.max_newton_iters:
            raise NoConvergence(
                f"Newton did not reach tol={tol!r} in {cfg.max_newton_iters} "
                f"iterations (residual {rn!r})", residual=rn, iterations=iterations)
        J = jacobian(u, r)
        _check_singular(_singular_values(J), interval, cfg, u)
        s = _solve([list(row) for row in zip(*J)], [-x for x in r])
        if s is None:
            raise ConjugatePoint("shooting Jacobian solve failed", interval=interval)
        if not all(map(math.isfinite, s)):
            raise ConjugatePoint("shooting Newton step is non-finite", interval=interval)

        lam = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            u_try = [x + lam * y for x, y in zip(u, s)]
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

    # Certify local uniqueness at the solution.  Newton's last iteration
    # already certified the last Jacobian it formed; when Newton accepted
    # the initial guess outright no Jacobian was ever formed (the conjugate
    # case with matching endpoint data lands here), so form one now.
    if J is None:
        _check_singular(_singular_values(jacobian(u, r)), interval, cfg)
    return ShootingResult(u=np.array(u), trajectory=traj, iterations=iterations, final_residual=rn)


def end_value(a: np.ndarray, v: np.ndarray, span: float) -> np.ndarray:
    """b = a + v * span, the endpoint value of average-slope data over an
    interval of length span, in floats (with NumPy's elementwise bits).
    Data that overflow give inf or NaN, which the solve or the sampled law
    then rejects; float arithmetic does not warn about them."""
    return np.array([x + y * span for x, y in zip(a.tolist(), v.tolist())])


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
    """Evaluate a solve's trajectory at tau, integrating past an end, from
    its stored row, if tau lies outside the stored span.

    Extensions are recomputed per call (never cached), so the value at tau
    depends only on (ode, trajectory, tau, config) and not on the history of
    earlier queries.
    """
    lo, hi = traj.span
    if lo <= tau <= hi:
        return traj.eval(tau)
    n, end = traj.dim, hi if tau > hi else lo
    (row,) = traj.read((end,))
    ext = integrate_ivp(ode, StatePoint(end, np.array(row[:n]), np.array(row[n:])), tau, icfg)
    (row,) = ext.read((tau,))
    return StatePoint(float(tau), np.array(row[:n]), np.array(row[n:]))


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
