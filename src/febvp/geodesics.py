"""Geodesics of a linear connection as two-point solves.

A connection is given by its Christoffel symbols in one chart; its geodesics
solve xdd^k = -Gamma^k_ij(x) xd^i xd^j.  The interpolation map
G(a, b, rho) evaluates the geodesic through x(0)=a, x(1)=b at parameter rho,
and inherits the composition/boundary laws of the underlying dependence map:

    G(a, b, 0) = a,   G(a, b, 1) = b,
    G(a, b, (1-rho) zeta + rho eta) = G(G(a,b,zeta), G(a,b,eta), rho),

plus G(a, a, rho) = a (constant geodesics).  When G is affine in (a, b)
(flat connection), the map Q(rho)(b) = G(0, b, rho) satisfies the midpoint
averaging law Q((zeta+eta)/2) = (Q(zeta)+Q(eta))/2.

The upper half-plane fixture (y > 0, symbols -1/y coupling x'y' in the first
component, (y'^2 - x'^2)/y in the second... see half_plane_connection) has
an exact oracle: geodesics are semicircles centered on the boundary line
(vertical rays in the degenerate case), affinely parametrized by hyperbolic
arclength, which this module implements independently of the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .bvp_shooting import (
    DEFAULT_SHOOTING,
    NeumannConditions,
    ShootingConfig,
    eval_F,
)
from .functional_laws import (
    LawReport,
    SampleSpec,
    SampledLaw,
    run_law,
)
from .ode_core import SecondOrderOde
from .rhs_parser import compile_rhs

__all__ = [
    "Connection",
    "GeodesicMap",
    "flat_connection",
    "half_plane_connection",
    "geodesic_ode",
    "connection_asymmetry",
    "check_klapka",
    "jensen_midpoint_check",
    "half_plane_geodesic_point",
]


@dataclass(eq=False)
class Connection:
    """Christoffel symbols in a single chart.

    gamma(point) returns an (n, n, n) array Gamma[k][i][j], symmetric in
    (i, j).  sampling_box lists per-coordinate (lo, hi) bounds inside which
    two-point solves are expected to converge (the operational stand-in for
    a convex neighborhood).  accel(tau, x, v), optional for dim >= 2, is
    the geodesic acceleration -Gamma^k_ij(x) v^i v^j on lists of n floats,
    returning n floats with the bits of the einsum in geodesic_ode; the
    integrator uses it instead of building Gamma (the half-plane accel,
    made by rhs_parser.compile_rhs, runs inline in the kernel).
    """

    dim: int
    gamma: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    sampling_box: Optional[Sequence[tuple[float, float]]] = None
    accel: Optional[Callable[[float, list, list], list]] = None


def flat_connection(dim: int = 2) -> Connection:
    zeros = np.zeros((dim, dim, dim))

    def gamma(point: np.ndarray) -> np.ndarray:
        return zeros

    return Connection(dim=dim, gamma=gamma, label="flat",
                      sampling_box=[(-2.0, 2.0)] * dim)


def half_plane_connection() -> Connection:
    """Upper half-plane fixture: at (x, y) with y > 0 the nonzero symbols
    are Gamma^1_12 = Gamma^1_21 = -1/y, Gamma^2_11 = 1/y, Gamma^2_22 = -1/y.
    Sampling box y in [0.5, 2], |x| <= 0.5 keeps solves well inside the
    convergent regime.

    Its accel is generated from four lines, which the integrator kernel
    also runs inline.  einsum adds (G[k, i, j] * v[i]) * v[j] for (i, j)
    in C order to +0.0, zero symbols included.  For finite v the zero
    terms only decide the sign of a zero first component: the last one,
    (0.0 * v2) * v2 = +0.0, makes it +0.0, hence the + 0.0."""

    def gamma(point: np.ndarray) -> np.ndarray:
        y = float(point[1])
        out = np.zeros((2, 2, 2))
        out[0, 0, 1] = out[0, 1, 0] = -1.0 / y
        out[1, 0, 0] = 1.0 / y
        out[1, 1, 1] = -1.0 / y
        return out

    accel = compile_rhs(("$g = -1.0 / $x2",
                         "$h = 1.0 / $x2",
                         "$a1 = -(($g * $v1) * $v2 + ($g * $v2) * $v1 + 0.0)",
                         "$a2 = -(($h * $v1) * $v1 + ($g * $v2) * $v2)"),
                        ("$a1", "$a2"), False)
    return Connection(dim=2, gamma=gamma, label="half_plane",
                      sampling_box=[(-0.5, 0.5), (0.5, 2.0)], accel=accel)


def connection_asymmetry(conn: Connection, points: Sequence) -> float:
    """Largest |Gamma[k][i][j] - Gamma[k][j][i]| over the given points."""
    worst = 0.0
    for point in points:
        g = np.asarray(conn.gamma(np.asarray(point, dtype=float)))
        worst = max(worst, float(np.max(np.abs(g - g.transpose(0, 2, 1)))))
    return worst


def geodesic_ode(conn: Connection) -> SecondOrderOde:
    """The geodesic equation xdd^k = -Gamma^k_ij(x) xd^i xd^j, with the
    connection's accel, if any, as its float-level rhs1."""

    def rhs(tau: float, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        g = conn.gamma(x)
        return -np.einsum("kij,i,j->k", g, v, v)

    return SecondOrderOde(dim=conn.dim, rhs=rhs,
                          label=f"geodesic[{conn.label}]", rhs1=conn.accel)


@dataclass(eq=False)
class GeodesicMap:
    """The interpolation map of a connection's geodesics.

    eval(a, b, rho) returns the geodesic through x(0)=a, x(1)=b at rho,
    computed as the two-point dependence map at tau=rho on [0, 1]."""

    connection: Connection
    shooting_cfg: ShootingConfig = field(default_factory=lambda: DEFAULT_SHOOTING)

    def __post_init__(self):
        self.ode = geodesic_ode(self.connection)

    def eval(self, a, b, rho: float) -> np.ndarray:
        cond = NeumannConditions(0.0, 1.0, a, b)
        return eval_F(self.ode, float(rho), cond, self.shooting_cfg)


def _interpolation_law(name: str, gmap: GeodesicMap,
                       rho_range: tuple[float, float],
                       residual: Callable) -> SampledLaw:
    """A law over sampled (a, b, zeta, eta, rho), drawn in that order: the
    points from the connection's sampling_box (falling back to the spec's
    ab_range per coordinate), zeta, eta and rho from rho_range.
    residual(a, b, zeta, eta, rho) is the sample's residual."""
    if not all(map(math.isfinite, rho_range)):
        raise ValueError(f"rho_range must have finite ends, got {tuple(rho_range)!r}")
    conn = gmap.connection

    def draw(box):
        points = [(lo, hi - lo) for lo, hi in conn.sampling_box or [box.values] * conn.dim]
        lo, width = rho_range[0], rho_range[1] - rho_range[0]
        return lambda u: (np.array([p + w * x for (p, w), x in zip(points, u)]),
                          np.array([p + w * x for (p, w), x in zip(points, u)]),
                          lo + width * next(u), lo + width * next(u), lo + width * next(u))

    return SampledLaw((name,), ("a", "b", "zeta", "eta", "rho"), draw,
                      lambda *sample: (residual(*sample),))


def check_klapka(gmap: GeodesicMap, spec: SampleSpec,
                 rho_range: tuple[float, float] = (0.0, 1.0)) -> LawReport:
    """Residuals of the interpolation laws over sampled
    (a, b, zeta, eta, rho): the endpoint identities G(a,b,0)=a, G(a,b,1)=b
    and the rebasing identity
    G(a, b, (1-rho) zeta + rho eta) = G(G(a,b,zeta), G(a,b,eta), rho).
    The per-sample residual is the worst of the three.

    Points are drawn from the connection's sampling_box (falling back to the
    spec's ab_range per coordinate); zeta, eta, rho come from rho_range,
    which defaults to [0, 1] to stay inside the convex regime.

    Draw order per sample: a coords; b coords; zeta; eta; rho.
    """

    def residual(a, b, zeta, eta, rho):
        at0 = gmap.eval(a, b, 0.0)
        at1 = gmap.eval(a, b, 1.0)
        at_zeta = gmap.eval(a, b, zeta)
        at_eta = gmap.eval(a, b, eta)
        mixed = gmap.eval(a, b, (1.0 - rho) * zeta + rho * eta)
        rebased = gmap.eval(at_zeta, at_eta, rho)
        return max(float(np.max(np.abs(at0 - a))),
                   float(np.max(np.abs(at1 - b))),
                   float(np.max(np.abs(mixed - rebased))))

    law = _interpolation_law("klapka", gmap, rho_range, residual)
    return run_law(law, spec)[0]


def jensen_midpoint_check(gmap: GeodesicMap, spec: SampleSpec,
                          rho_range: tuple[float, float] = (0.0, 1.0)
                          ) -> LawReport:
    """For a map affine in its endpoints (flat connection), residuals of the
    midpoint law of Q(rho)(b) = G(0, b, rho):

        Q((zeta+eta)/2)(b) = (Q(zeta)(b) + Q(eta)(b)) / 2,

    together with the reversal identity G(a,b,1-rho) = G(b,a,rho) and the
    halving identity Q(1/2)(a) = a/2.  Per-sample residual is the worst of
    the three.

    Draw order per sample: a coords; b coords; zeta; eta; rho.
    """
    zero = np.zeros(gmap.connection.dim)

    def residual(a, b, zeta, eta, rho):
        q_mid = gmap.eval(zero, b, 0.5 * (zeta + eta))
        q_zeta = gmap.eval(zero, b, zeta)
        q_eta = gmap.eval(zero, b, eta)
        forward = gmap.eval(a, b, 1.0 - rho)
        reversed_ = gmap.eval(b, a, rho)
        q_half = gmap.eval(zero, a, 0.5)
        return max(
            float(np.max(np.abs(q_mid - 0.5 * (q_zeta + q_eta)))),
            float(np.max(np.abs(forward - reversed_))),
            float(np.max(np.abs(q_half - 0.5 * a))))

    law = _interpolation_law("jensen", gmap, rho_range, residual)
    return run_law(law, spec)[0]


def half_plane_geodesic_point(a, b, rho: float) -> np.ndarray:
    """Exact half-plane geodesic through a and b (both with y > 0) at
    parameter rho, for the affine [0, 1] parametrization with x(0)=a,
    x(1)=b.

    Non-vertical case: the semicircle centered at
    c = (|b|^2 - |a|^2) / (2 (b1 - a1)) on the boundary line, radius
    r = |a - (c, 0)|, parametrized so that sigma = log tan(theta/2)
    (the arclength coordinate along the semicircle) is affine in rho.
    Vertical case (a1 = b1): x stays fixed, y = ya^(1-rho) * yb^rho.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a[1] <= 0 or b[1] <= 0:
        raise ValueError("half-plane points need y > 0")
    if a[0] == b[0]:
        y = a[1] ** (1.0 - rho) * b[1] ** rho
        return np.array([a[0], y])
    c = (float(b @ b) - float(a @ a)) / (2.0 * (b[0] - a[0]))
    r = math.hypot(a[0] - c, a[1])
    theta_a = math.atan2(a[1], a[0] - c)
    theta_b = math.atan2(b[1], b[0] - c)
    sigma_a = math.log(math.tan(0.5 * theta_a))
    sigma_b = math.log(math.tan(0.5 * theta_b))
    sigma = (1.0 - rho) * sigma_a + rho * sigma_b
    theta = 2.0 * math.atan(math.exp(sigma))
    return np.array([c + r * math.cos(theta), r * math.sin(theta)])
