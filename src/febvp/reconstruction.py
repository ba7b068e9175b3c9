"""Recovering the right-hand side from a smooth extension.

On the diagonal, the extension S(., tau, tau, x, v) is the solution through
state (tau, x, v), so its second derivative in the first slot at tau is
f(tau, x, v).  reconstruct_f computes that derivative by a central second
difference with the second and third slots pinned at tau, sharpened by one
Richardson step; roundtrip_check runs it against the numeric shooting
extension of an ODE and compares with the true rhs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bvp_shooting
from .errors import FebvpError
from .bvp_shooting import DEFAULT_SHOOTING, IntegralConditions, ShootingConfig
from .functional_laws import (
    SAMPLE_ERRORS,
    LawReport,
    SampleSpec,
    SampledLaw,
    draw_vec,
    run_law,
)
from .ode_core import SecondOrderOde

__all__ = [
    "ReconstructionConfig",
    "EvaluationFailure",
    "MidpointViolation",
    "reconstruct_f",
    "roundtrip_check",
    "noise_aware_step",
    "solver_extension",
]


class EvaluationFailure(FebvpError):
    """The extension could not be evaluated at a stencil point."""

    code = "evaluation_failure"


class MidpointViolation(FebvpError):
    """S(tau, tau, tau, x, v) strayed from x: the callable is not a
    conforming extension (the diagonal value must be the state itself)."""

    code = "midpoint_violation"


_MIDPOINT_TOL = 1e-6


@dataclass(frozen=True)
class ReconstructionConfig:
    """fd_step is the central-difference step h; the h and h/2 differences
    are combined as (4 D(h/2) - D(h)) / 3 for fourth-order truncation."""

    fd_step: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.fd_step) and self.fd_step > 0):
            raise ValueError(f"fd_step must be a finite number > 0, got {self.fd_step!r}")


def noise_aware_step(cfg: ReconstructionConfig, solver_tol: float) -> float:
    """Step used on solver-backed extensions: the second difference divides
    noise of size solver_tol by h^2, so h below solver_tol^(1/4) lets noise
    beat the O(h^2) truncation; keep the larger of the two."""
    return max(cfg.fd_step, solver_tol ** 0.25)


def _second_difference(S: Callable, tau: float, x: np.ndarray,
                       v: np.ndarray, h: float, center: np.ndarray
                       ) -> np.ndarray:
    try:
        plus = np.atleast_1d(np.asarray(S(tau + h, tau, tau, x, v),
                                        dtype=float))
        minus = np.atleast_1d(np.asarray(S(tau - h, tau, tau, x, v),
                                         dtype=float))
    except SAMPLE_ERRORS as exc:
        raise EvaluationFailure(
            f"extension failed at a stencil point: {exc}",
            tau=tau, h=h) from exc
    return (plus - 2.0 * center + minus) / (h * h)


def reconstruct_f(S: Callable, tau: float, x, v,
                  cfg: ReconstructionConfig = ReconstructionConfig()
                  ) -> np.ndarray:
    """Second derivative of S in the first slot at
    (tau, tau, tau, x, v): the right-hand side value f(tau, x, v).

    S is called as S(query_tau, tau, tau, x, v); only the first slot moves.
    Raises MidpointViolation when |S(tau, tau, tau, x, v) - x| exceeds 1e-6
    and EvaluationFailure when a stencil evaluation errors out.
    """
    tau = float(tau)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    try:
        center = np.atleast_1d(np.asarray(S(tau, tau, tau, x, v),
                                          dtype=float))
    except SAMPLE_ERRORS as exc:
        raise EvaluationFailure(
            f"extension failed at the midpoint: {exc}", tau=tau) from exc
    drift = float(np.max(np.abs(center - x)))
    if drift > _MIDPOINT_TOL:
        raise MidpointViolation(
            f"diagonal value off by {drift!r} (must equal the state)",
            drift=drift, tau=tau)
    h = cfg.fd_step
    coarse = _second_difference(S, tau, x, v, h, center)
    fine = _second_difference(S, tau, x, v, 0.5 * h, center)
    return (4.0 * fine - coarse) / 3.0


def solver_extension(ode: SecondOrderOde, cfg: ReconstructionConfig,
                     shooting_cfg: ShootingConfig
                     ) -> tuple[Callable, ReconstructionConfig]:
    """The ODE's numeric extension S(query_tau, alpha, beta, a, v) from the
    shooting solver, and cfg with its difference step widened by
    noise_aware_step against the solver tolerance."""

    def S(query_tau, alpha, beta, a, v):
        cond = IntegralConditions(alpha, beta, a, v)
        # looked up at call time, so that a wrapper installed on
        # bvp_shooting.eval_S (tracing, tests) sees every stencil call
        return bvp_shooting.eval_S(ode, query_tau, cond, shooting_cfg)

    step = noise_aware_step(cfg, shooting_cfg.newton_tol)
    return S, ReconstructionConfig(fd_step=step)


def roundtrip_check(ode: SecondOrderOde,
                    cfg: ReconstructionConfig = ReconstructionConfig(),
                    shooting_cfg: ShootingConfig = DEFAULT_SHOOTING,
                    spec: SampleSpec = SampleSpec(count=100, seed=0,
                                                  tau_range=(-1.0, 1.0),
                                                  ab_range=(-1.0, 1.0)),
                    ) -> LawReport:
    """Reconstruct the rhs from the ODE's own numeric extension on sampled
    states and compare with ode.rhs directly.

    The difference step is widened by noise_aware_step against the solver
    tolerance.  Draw order per sample: tau; x components; v components.
    """
    S, eff_cfg = solver_extension(ode, cfg, shooting_cfg)

    def draw(box):
        lo, hi = box.tau
        width, vec = hi - lo, draw_vec(box, ode.dim)
        return lambda u: (lo + width * next(u), vec(u), vec(u))

    def residuals(tau, x, v):
        rebuilt = reconstruct_f(S, tau, x, v, eff_cfg)
        truth = np.atleast_1d(np.asarray(ode.rhs(tau, x, v), dtype=float))
        return (float(np.max(np.abs(rebuilt - truth))),)

    law = SampledLaw(("reconstruction_roundtrip",), ("tau", "x", "v"), draw,
                     residuals)
    return run_law(law, spec)[0]
