"""Closed-form dependence maps for families where the two-point solve has an
explicit formula.

These are the exact references the numeric shooting solver is tested against:

* linear families spanned by two basis solutions (quotient and determinant
  forms),
* constant forcing ("free fall", xdd = g),
* the hyperbolic family xdd = k^2 x + g, which degenerates to free fall as
  k -> 0,
* the oscillator xdd = -x (via the cos/sin basis, plus its smooth extension),
* the five-point product identity satisfied exactly by the k^2 x + g family.

All functions here are scalar (one-dimensional state) and pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import FebvpError

__all__ = [
    "DegenerateBasis",
    "LinearBasis",
    "ConicParams",
    "COS_SIN_BASIS",
    "AFFINE_BASIS",
    "SERIES_SWITCH",
    "linear_F",
    "neuman_det",
    "free_fall_F",
    "free_fall_S",
    "conic_F",
    "conic_S",
    "cos_sin_S",
    "angelesco_residual",
]


class DegenerateBasis(FebvpError):
    """The two basis solutions fail independence on (alpha, beta): the
    denominator x1(alpha)x2(beta) - x1(beta)x2(alpha) vanishes numerically."""

    code = "degenerate_basis"


@dataclass(frozen=True)
class LinearBasis:
    """Two scalar solutions spanning a linear family.

    Independence on the intended (alpha, beta) region,
    x1(alpha)x2(beta) - x1(beta)x2(alpha) != 0, is checked where the basis is
    used, not at construction.
    """

    x1: Callable[[float], float]
    x2: Callable[[float], float]
    labels: str = ""


COS_SIN_BASIS = LinearBasis(math.cos, math.sin, labels="cos,sin")
AFFINE_BASIS = LinearBasis(lambda t: 1.0, lambda t: t, labels="1,tau")


@dataclass(frozen=True)
class ConicParams:
    """Parameters of xdd = k^2 x + g (k real; k = 0 is free fall)."""

    k: float
    g: float

    def __post_init__(self):
        if not (math.isfinite(self.k) and math.isfinite(self.g)):
            raise ValueError("k and g must be finite")

    @property
    def K(self) -> float:
        return self.k * self.k


# Below this value of |k*(beta-alpha)| the hyperbolic quotient is replaced by
# its expansion in powers of k^2 (through k^4).
SERIES_SWITCH = 1e-4


def _basis_rows(basis: LinearBasis, tau: float, alpha: float, beta: float):
    x1, x2 = basis.x1, basis.x2
    return (x1(alpha), x2(alpha), x1(beta), x2(beta), x1(tau), x2(tau))


def _wronskian_like(x1a: float, x2a: float, x1b: float, x2b: float) -> float:
    return x1a * x2b - x1b * x2a


def linear_F(basis: LinearBasis, tau: float, alpha: float, beta: float,
             a: float, b: float) -> float:
    """Two-point solution value for a family spanned by basis (x1, x2):

        ((x1(tau)x2(beta) - x1(beta)x2(tau)) a
         + (x1(alpha)x2(tau) - x1(tau)x2(alpha)) b)
        / (x1(alpha)x2(beta) - x1(beta)x2(alpha))

    Raises DegenerateBasis when the denominator is numerically zero relative
    to its constituent products.
    """
    x1a, x2a, x1b, x2b, x1t, x2t = _basis_rows(basis, tau, alpha, beta)
    w = _wronskian_like(x1a, x2a, x1b, x2b)
    scale = max(abs(x1a * x2b), abs(x1b * x2a), 1.0)
    if abs(w) <= 1e-14 * scale:
        raise DegenerateBasis(
            f"basis ({basis.labels or 'x1,x2'}) is dependent on "
            f"[{alpha!r}, {beta!r}]", w=w, scale=scale)
    return ((x1t * x2b - x1b * x2t) * a + (x1a * x2t - x1t * x2a) * b) / w


def neuman_det(basis: LinearBasis, tau: float, alpha: float, beta: float,
               a: float, b: float, F_val: float) -> float:
    """Determinant of the 3x3 matrix with rows

        [x1(alpha)  x2(alpha)  a]
        [x1(beta)   x2(beta)   b]
        [x1(tau)    x2(tau)    F_val]

    Zero (to rounding) exactly when F_val is the linear_F value; expanded
    along the last column, so shifting F_val by 1 shifts the result by
    x1(alpha)x2(beta) - x1(beta)x2(alpha).
    """
    x1a, x2a, x1b, x2b, x1t, x2t = _basis_rows(basis, tau, alpha, beta)
    m13 = x1b * x2t - x1t * x2b
    m23 = x1a * x2t - x1t * x2a
    m33 = _wronskian_like(x1a, x2a, x1b, x2b)
    return a * m13 - b * m23 + F_val * m33


def free_fall_F(g: float, tau: float, alpha: float, beta: float,
                a: float, b: float) -> float:
    """xdd = g two-point value: linear interpolation plus the parabolic sag
    (1/2) g (tau-alpha)(tau-beta).  Requires alpha != beta."""
    if alpha == beta:
        raise ValueError("free_fall_F requires alpha != beta")
    lin = ((tau - beta) * a + (alpha - tau) * b) / (alpha - beta)
    return lin + 0.5 * g * (tau - alpha) * (tau - beta)


def free_fall_S(g: float, tau: float, alpha: float, beta: float,
                a: float, v: float) -> float:
    """Smooth extension of free_fall_F in average-slope form; defined for all
    (alpha, beta) including alpha == beta."""
    return a + v * (tau - alpha) + 0.5 * g * (tau - alpha) * (tau - beta)


def _shc(z: float) -> float:
    """sinh(z)/z, equal to 1 at z = 0."""
    if abs(z) < 1e-4:
        z2 = z * z
        return 1.0 + z2 / 6.0 + z2 * z2 / 120.0
    return math.sinh(z) / z


def _snc(z: float) -> float:
    """sin(z)/z, equal to 1 at z = 0."""
    if abs(z) < 1e-4:
        z2 = z * z
        return 1.0 - z2 / 6.0 + z2 * z2 / 120.0
    return math.sin(z) / z


def _conic_F_series(k: float, g: float, u: float, w: float, s: float,
                    a: float, b: float) -> float:
    # Expansion of the same quotient in powers of k^2 through k^4; the k^0
    # term is the free fall value.
    k2 = k * k
    k4 = k2 * k2
    s2 = s * s
    q = u * u + u * w + w * w
    f0 = (a * u + b * w) / s
    f1 = (a * u**3 + b * w**3) / (6.0 * s)
    f2 = (a * u**5 + b * w**5) / (120.0 * s)
    part_ab = f0 + k2 * (f1 - f0 * s2 / 6.0) \
        + k4 * (f2 - f1 * s2 / 6.0 + f0 * s2 * s2 * (7.0 / 360.0))
    g1 = -u * w / 2.0
    g2 = -u * w * q / 24.0
    g3 = -u * w * q * q / 720.0
    part_g = g1 + k2 * (g2 - g1 * s2 / 6.0) \
        + k4 * (g3 - g2 * s2 / 6.0 + g1 * s2 * s2 * (7.0 / 360.0))
    return part_ab + g * part_g


def conic_F(p: ConicParams, tau: float, alpha: float, beta: float,
            a: float, b: float) -> float:
    """Two-point value for xdd = k^2 x + g.  Requires alpha != beta.

    For |k(beta-alpha)| >= SERIES_SWITCH this is the hyperbolic quotient
    with numerator (k^2 a + g) sinh(k(tau-beta)) + (k^2 b + g)
    sinh(k(alpha-tau)) - g sinh(k(alpha-beta)) over k^2 sinh(k(alpha-beta));
    below the switch, its k -> 0 expansion (leading term: free fall).
    """
    if alpha == beta:
        raise ValueError("conic_F requires alpha != beta")
    k = p.k
    u = tau - beta
    w = alpha - tau
    s = alpha - beta
    ks = k * s
    if abs(ks) < SERIES_SWITCH:
        return _conic_F_series(k, p.g, u, w, s, a, b)
    # The quotient
    #   [(k^2 a + g) sinh(ku) + (k^2 b + g) sinh(kw) - g sinh(ks)]
    #   / (k^2 sinh(ks)),   s = u + w,
    # evaluated through sinh(A) + sinh(B) - sinh(A+B)
    #   = -2 [sinh(A) sinh^2(B/2) + sinh(B) sinh^2(A/2)],
    # which removes the three-way cancellation that otherwise eats half the
    # mantissa for small |ks|.  Each sinh(z)/z is _shc(z) written out: its
    # series below |z| = 1e-4, which ks is not (|ks| >= SERIES_SWITCH).
    sinh = math.sinh
    h = 0.5 * k
    ku, kw = k * u, k * w
    ku2, kw2 = h * u, h * w
    shs = sinh(ks) / ks
    shu = (1.0 + ku * ku / 6.0 + ku * ku * (ku * ku) / 120.0
           if ku < 1e-4 and -1e-4 < ku else sinh(ku) / ku)
    shw = (1.0 + kw * kw / 6.0 + kw * kw * (kw * kw) / 120.0
           if kw < 1e-4 and -1e-4 < kw else sinh(kw) / kw)
    hu = (1.0 + ku2 * ku2 / 6.0 + ku2 * ku2 * (ku2 * ku2) / 120.0
          if ku2 < 1e-4 and -1e-4 < ku2 else sinh(ku2) / ku2)
    hw = (1.0 + kw2 * kw2 / 6.0 + kw2 * kw2 * (kw2 * kw2) / 120.0
          if kw2 < 1e-4 and -1e-4 < kw2 else sinh(kw2) / kw2)
    den = s * shs
    term_ab = (a * u * shu + b * w * shw) / den
    bracket = w * shu * hw * hw + u * shw * hu * hu
    term_g = -0.5 * p.g * u * w * bracket / den
    return term_ab + term_g


def conic_S(p: ConicParams, tau: float, alpha: float, beta: float,
            a: float, v: float) -> float:
    """Smooth extension of conic_F in average-slope form.

    Defined for all (alpha, beta) including the diagonal; k = 0 reproduces
    free_fall_S exactly.  The initial slope solving the average condition is
    u0 = -(sp/2)(k^2 a + g) shc^2(k sp/2)/shc(k sp) + v/shc(k sp) with
    sp = beta - alpha and shc(z) = sinh(z)/z.
    """
    k, g = p.k, p.g
    sp = beta - alpha
    tp = tau - alpha
    # each sinh(z)/z is _shc(z) written out, as in conic_F
    sinh = math.sinh
    h = 0.5 * k
    ksp, ktp = k * sp, k * tp
    ksp2, ktp2 = h * sp, h * tp
    sh_sp = (1.0 + ksp * ksp / 6.0 + ksp * ksp * (ksp * ksp) / 120.0
             if ksp < 1e-4 and -1e-4 < ksp else sinh(ksp) / ksp)
    sh_tp = (1.0 + ktp * ktp / 6.0 + ktp * ktp * (ktp * ktp) / 120.0
             if ktp < 1e-4 and -1e-4 < ktp else sinh(ktp) / ktp)
    h_sp = (1.0 + ksp2 * ksp2 / 6.0 + ksp2 * ksp2 * (ksp2 * ksp2) / 120.0
            if ksp2 < 1e-4 and -1e-4 < ksp2 else sinh(ksp2) / ksp2)
    h_tp = (1.0 + ktp2 * ktp2 / 6.0 + ktp2 * ktp2 * (ktp2 * ktp2) / 120.0
            if ktp2 < 1e-4 and -1e-4 < ktp2 else sinh(ktp2) / ktp2)
    u0 = (-0.5 * sp * (k * k * a + g) * h_sp * h_sp + v) / sh_sp
    return (a * math.cosh(ktp)
            + 0.5 * g * tp * tp * h_tp * h_tp
            + u0 * tp * sh_tp)


def cos_sin_S(tau: float, alpha: float, beta: float,
              a: float, v: float) -> float:
    """Smooth extension for the oscillator xdd = -x (cos/sin family).

    Valid for |beta - alpha| < pi (the first conjugate spacing); raises
    ValueError at or beyond it.  alpha == beta reduces to the Cauchy solution
    a cos(tau-alpha) + v sin(tau-alpha).
    """
    sp = beta - alpha
    if abs(sp) >= math.pi:
        raise ValueError("cos_sin_S requires |beta - alpha| < pi")
    tp = tau - alpha
    u0 = a * math.tan(0.5 * sp) + v / _snc(sp)
    return a * math.cos(tp) + u0 * math.sin(tp)


def angelesco_residual(x: Callable[[float], float], tau: float,
                       delta: float) -> float:
    """Five-point product residual

        (x(tau+4d) - x(tau+d)) (x(tau+2d) - x(tau+d))
        - (x(tau+3d) - x(tau)) (x(tau+3d) - x(tau+2d))

    which vanishes identically when x solves xdd = k^2 x + g (any k, g) and
    is nonzero off that family (x = tau^3 at (0, 1) gives -72).  Requires
    delta != 0.
    """
    if delta == 0:
        raise ValueError("angelesco_residual requires delta != 0")
    x0 = x(tau)
    x1 = x(tau + delta)
    x2 = x(tau + 2.0 * delta)
    x3 = x(tau + 3.0 * delta)
    x4 = x(tau + 4.0 * delta)
    return (x4 - x1) * (x2 - x1) - (x3 - x0) * (x3 - x2)
