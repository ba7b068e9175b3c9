"""Closed-form family tests.

The *_ORACLE tables were computed offline at 50-digit precision from the
classical interpolation form of each solution (shifted cosh/sinh basis for
the conic family, sine interpolation for the cos/sin family), a different
algebraic route than the implementation uses.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from febvp import closed_forms
from febvp.closed_forms import (
    AFFINE_BASIS,
    COS_SIN_BASIS,
    ConicParams,
    DegenerateBasis,
    LinearBasis,
    SERIES_SWITCH,
    angelesco_residual,
    conic_F,
    conic_S,
    cos_sin_S,
    free_fall_F,
    free_fall_S,
    linear_F,
    neuman_det,
)

# (k, g, tau, alpha, beta, a, b) -> F, sinh branch
CONIC_F_ORACLE = [
    ((1.0, -9.8, 0.25, -0.5, 1.0, 0.3, -0.7), 2.07610326142735515768),
    ((2.0, 3.0, -0.1, -0.75, 0.6, -1.2, 0.4), -0.6019895780727251551582),
    ((0.5, 0.0, 1.3, 0.2, 1.9, 2.0, -0.5), 0.3346506055880107264468),
    ((1.7, -2.0, -0.9, -1.1, 0.35, 0.8, 1.1), 0.7925528629236408946889),
]

# same map, |k (beta - alpha)| far below the branch switch
CONIC_F_SERIES_ORACLE = [
    ((1e-05, -9.8, 0.25, -0.5, 1.0, 0.3, -0.7), 2.55624999994102560712),
    ((2e-06, 3.0, -0.1, -0.75, 0.6, -1.2, 0.4), -1.11212962962873844885),
    ((5e-05, -2.0, 1.3, 0.2, 1.9, 2.0, -0.5), 1.042352940170698259581),
]

# (k, g, tau, alpha, beta, a, v) -> S
CONIC_S_ORACLE = [
    ((1.0, -9.8, 0.25, -0.5, 1.0, 0.3, 0.6), 2.809873451591756399985),
    ((0.8, 2.5, -0.4, 0.3, -1.2, 1.1, -0.9), 0.8475862345666547940523),
]

# (tau, alpha, beta, a, b) -> F for the (cos, sin) basis
COS_SIN_F_ORACLE = [
    ((0.3, -0.4, 1.1, 0.7, -0.2), 0.3742432104376156312566),
    ((1.8, 0.0, 2.5, -1.0, 0.5), -0.2628257193726145943275),
]

# (tau, alpha, beta, a, v) -> S for the (cos, sin) basis
COS_SIN_S_ORACLE = [
    ((0.3, -0.4, 1.1, 0.7, -0.2), 0.7617445187484954069316),
    ((-0.6, 0.2, 1.5, 1.3, 0.8), -0.5774857029733231786458),
]


def test_free_fall_F_quadratic():
    # line through the endpoints plus g/2 (tau-alpha)(tau-beta)
    for (g, tau, al, be, a, b), want in [
        ((-9.8, 0.5, 0.0, 1.0, 0.0, 0.0), 1.225000000000000088818),
        ((3.0, -0.7, -1.5, 0.4, 1.2, -0.3), -0.7515789473684211479754),
    ]:
        got = free_fall_F(g, tau, al, be, a, b)
        assert got == pytest.approx(want, abs=1e-15)
    assert free_fall_F(-9.8, 0.0, 0.0, 1.0, 0.25, 0.5) == 0.25
    assert free_fall_F(-9.8, 1.0, 0.0, 1.0, 0.25, 0.5) == 0.5


def test_free_fall_F_requires_distinct_endpoints():
    with pytest.raises(ValueError):
        free_fall_F(-9.8, 0.5, 1.0, 1.0, 0.0, 0.0)


def test_free_fall_S():
    # u0 = v - g (beta - alpha) / 2, then x = a + u0 dt + g dt^2 / 2
    g, al, be, a, v = -9.8, 0.2, 1.4, 0.5, -0.3
    u0 = v - 0.5 * g * (be - al)
    for tau in (-1.0, 0.2, 0.8, 1.4, 2.5):
        dt = tau - al
        want = a + u0 * dt + 0.5 * g * dt * dt
        assert abs(free_fall_S(g, tau, al, be, a, v) - want) < 1e-13


def test_conic_F_oracle_sinh_branch():
    for args, want in CONIC_F_ORACLE:
        got = conic_F(ConicParams(args[0], args[1]), *args[2:])
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_conic_F_oracle_series_branch():
    for args, want in CONIC_F_SERIES_ORACLE:
        p = ConicParams(args[0], args[1])
        assert abs(p.k * (args[3] - args[4])) < SERIES_SWITCH
        got = conic_F(p, *args[2:])
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_conic_branches_agree_at_switch():
    # spec'd handover: both branches agree near |k s| = series_switch
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(300):
        s = rng.uniform(0.3, 2.0)
        ks = SERIES_SWITCH * rng.uniform(0.9, 1.1)
        k = ks / s
        g = rng.uniform(-10, 10)
        al = rng.uniform(-2, 2)
        be = al + s
        tau = rng.uniform(-2, 2)
        a, b = rng.uniform(-2, 2, size=2)
        p_lo = ConicParams(k * 0.999, g)   # below switch: series
        p_hi = ConicParams(k * 1.001, g)   # above switch: sinh
        lo = conic_F(p_lo, tau, al, be, a, b)
        hi = conic_F(p_hi, tau, al, be, a, b)
        # continuity in k bounds the budget: dF/dk ~ O(|g| m^2); the two
        # k values differ by 2e-3 k, so residual stays far under 1e-8
        worst = max(worst, abs(lo - hi) / max(1.0, abs(lo)))
    assert worst < 1e-8


def test_conic_endpoint_exactness():
    p = ConicParams(1.3, -4.0)
    assert abs(conic_F(p, -0.4, -0.4, 0.9, 0.8, -0.2) - 0.8) < 1e-14
    assert abs(conic_F(p, 0.9, -0.4, 0.9, 0.8, -0.2) + 0.2) < 1e-14


def test_conic_small_k_matches_free_fall():
    worst = 0.0
    for (tau, al, be, a, b) in [
        (0.3, -0.5, 1.0, 0.2, -0.7),
        (-1.2, 0.0, 0.8, 1.0, 1.0),
        (1.9, -1.0, 1.5, -0.4, 0.9),
    ]:
        ff = free_fall_F(-9.8, tau, al, be, a, b)
        co = conic_F(ConicParams(1e-8, -9.8), tau, al, be, a, b)
        worst = max(worst, abs(ff - co))
    assert worst < 1e-9


def test_conic_shift_invariance():
    p = ConicParams(1.1, -3.0)
    base = conic_F(p, 0.4, -0.2, 0.9, 0.6, -0.8)
    for c in (-5.0, 0.125, 17.0):
        shifted = conic_F(p, 0.4 + c, -0.2 + c, 0.9 + c, 0.6, -0.8)
        assert abs(shifted - base) < 1e-12


def test_conic_reflection_symmetry():
    p = ConicParams(0.9, 2.0)
    base = conic_F(p, 0.4, -0.2, 0.9, 0.6, -0.8)
    mirrored = conic_F(p, -0.4, 0.2, -0.9, 0.6, -0.8)
    assert mirrored == base


def test_conic_S_oracle():
    for args, want in CONIC_S_ORACLE:
        got = conic_S(ConicParams(args[0], args[1]), *args[2:])
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_conic_S_delegates_to_F_off_diagonal():
    p = ConicParams(1.4, -2.5)
    tau, al, be, a, v = 0.7, -0.3, 1.1, 0.5, -0.6
    b = a + v * (be - al)
    assert abs(conic_S(p, tau, al, be, a, v)
               - conic_F(p, tau, al, be, a, b)) < 1e-12


def test_conic_S_zero_k_is_free_fall_S():
    got = conic_S(ConicParams(0.0, -9.8), 0.9, 0.1, 1.2, 0.4, -0.2)
    want = free_fall_S(-9.8, 0.9, 0.1, 1.2, 0.4, -0.2)
    assert abs(got - want) < 1e-13


def test_cos_sin_F_oracle():
    for (tau, al, be, a, b), want in COS_SIN_F_ORACLE:
        got = linear_F(COS_SIN_BASIS, tau, al, be, a, b)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_cos_sin_S_oracle():
    for args, want in COS_SIN_S_ORACLE:
        got = cos_sin_S(*args)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_cos_sin_S_domain():
    with pytest.raises(ValueError):
        cos_sin_S(0.5, 0.0, math.pi, 1.0, 0.0)
    with pytest.raises(ValueError):
        cos_sin_S(0.5, 0.0, 3.5, 1.0, 0.0)


def test_linear_F_against_lineq_solve():
    # independent route: solve the 2x2 system for the basis coefficients
    rng = np.random.default_rng(7)
    for _ in range(50):
        al, be = sorted(rng.uniform(-1.4, 1.4, size=2))
        if be - al < 0.2:
            continue
        a, b = rng.uniform(-2, 2, size=2)
        tau = rng.uniform(-2, 2)
        M = np.array([[math.cos(al), math.sin(al)],
                      [math.cos(be), math.sin(be)]])
        c = np.linalg.solve(M, [a, b])
        want = c[0] * math.cos(tau) + c[1] * math.sin(tau)
        got = linear_F(COS_SIN_BASIS, tau, al, be, a, b)
        assert abs(got - want) < 1e-11


def test_linear_F_affine_basis():
    got = linear_F(AFFINE_BASIS, 0.25, 0.0, 1.0, 2.0, 6.0)
    assert abs(got - 3.0) < 1e-14


def test_degenerate_basis_at_pi():
    with pytest.raises(DegenerateBasis):
        linear_F(COS_SIN_BASIS, 0.5, 0.0, math.pi, 1.0, 1.0)
    # just off the root the system is solvable again
    linear_F(COS_SIN_BASIS, 0.5, 0.0, math.pi - 1e-6, 1.0, 1.0)


def test_degenerate_basis_localized_near_root():
    # the guard must fire within 1e-10 of the root, not merely nearby
    fired_at = None
    for off in (1e-3, 1e-6, 1e-9, 1e-11):
        try:
            linear_F(COS_SIN_BASIS, 0.5, 0.0, math.pi - off, 1.0, 1.0)
        except DegenerateBasis:
            fired_at = off
            break
    assert fired_at is None or fired_at <= 1e-10


def test_neuman_det_vs_numpy():
    rng = np.random.default_rng(11)
    for _ in range(40):
        al, be, tau = rng.uniform(-1.2, 1.2, size=3)
        a, b, val = rng.uniform(-2, 2, size=3)
        rows = np.array([
            [math.cos(al), math.sin(al), a],
            [math.cos(be), math.sin(be), b],
            [math.cos(tau), math.sin(tau), val],
        ])
        want = np.linalg.det(rows)
        got = neuman_det(COS_SIN_BASIS, tau, al, be, a, b, val)
        assert abs(got - want) < 1e-13


def test_neuman_det_perturbation_shift():
    al, be, tau = 0.1, 1.3, 0.7
    a, b = 0.4, -0.9
    val = linear_F(COS_SIN_BASIS, tau, al, be, a, b)
    w = (math.cos(al) * math.sin(be) - math.cos(be) * math.sin(al))
    d0 = neuman_det(COS_SIN_BASIS, tau, al, be, a, b, val)
    d1 = neuman_det(COS_SIN_BASIS, tau, al, be, a, b, val + 1.0)
    assert abs(d0) < 1e-13
    assert d1 - d0 == pytest.approx(w, abs=1e-15)


def test_angelesco_cubic_is_minus_72():
    res = angelesco_residual(lambda t: t ** 3, 0.0, 1.0)
    assert res == -72.0


def test_angelesco_zero_on_conic_members():
    p = ConicParams(1.2, -3.0)

    def member(t):
        return conic_F(p, t, -0.5, 0.75, 0.8, -0.3)

    for (tau0, delta) in [(0.0, 0.3), (-0.7, 0.15), (0.4, 0.5)]:
        res = angelesco_residual(member, tau0, delta)
        x = [member(tau0 + i * delta) for i in range(5)]
        scale = max(abs((x[4] - x[1]) * (x[2] - x[1])),
                    abs((x[3] - x[0]) * (x[3] - x[2])), 1e-30)
        assert abs(res) / scale < 1e-10


def test_angelesco_nonzero_off_family():
    # exp(2 t) solves xdd = 4 x (no forcing offset considered here) but
    # t^3 + t is not a conic graph; the residual must be visibly nonzero
    res = angelesco_residual(lambda t: t ** 3 + t, 0.2, 0.4)
    assert abs(res) > 1e-3


def test_angelesco_rejects_zero_delta():
    with pytest.raises(ValueError):
        angelesco_residual(lambda t: t, 0.0, 0.0)


def test_linear_basis_frozen():
    with pytest.raises(Exception):
        COS_SIN_BASIS.labels = ("a", "b")


def test_conic_params_K():
    assert ConicParams(2.0, 1.0).K == 4.0


# ------------------------------------------------- bits of the sinh branches
#
# Reference copies of conic_F's sinh branch and of conic_S as they read with
# one _shc call per sinh(z)/z; conic_F and conic_S must keep their bits.

def _ref_shc(z):
    if abs(z) < 1e-4:
        z2 = z * z
        return 1.0 + z2 / 6.0 + z2 * z2 / 120.0
    return math.sinh(z) / z


def _ref_conic_F(p, tau, alpha, beta, a, b):
    if alpha == beta:
        raise ValueError("conic_F requires alpha != beta")
    k, g = p.k, p.g
    u = tau - beta
    w = alpha - tau
    s = alpha - beta
    if abs(k * s) < SERIES_SWITCH:
        return closed_forms._conic_F_series(k, g, u, w, s, a, b)
    den = s * _ref_shc(k * s)
    shu = _ref_shc(k * u)
    shw = _ref_shc(k * w)
    term_ab = (a * u * shu + b * w * shw) / den
    hu = _ref_shc(0.5 * k * u)
    hw = _ref_shc(0.5 * k * w)
    bracket = w * shu * hw * hw + u * shw * hu * hu
    term_g = -0.5 * g * u * w * bracket / den
    return term_ab + term_g


def _ref_conic_S(p, tau, alpha, beta, a, v):
    k, g = p.k, p.g
    sp = beta - alpha
    tp = tau - alpha
    sh_sp = _ref_shc(k * sp)
    h_sp = _ref_shc(0.5 * k * sp)
    u0 = (-0.5 * sp * (k * k * a + g) * h_sp * h_sp + v) / sh_sp
    h_tp = _ref_shc(0.5 * k * tp)
    return (a * math.cosh(k * tp)
            + 0.5 * g * tp * tp * h_tp * h_tp
            + u0 * tp * _ref_shc(k * tp))


def _bits(fn, *args):
    try:
        return fn(*args).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@hst.composite
def _conic_cases(draw):
    """(k, g, origin, two offsets from it, two data values): each offset
    is 0, a plain float, or one that puts k * offset or 0.5 * k * offset
    within a few ulps of _shc's 1e-4 switch (SERIES_SWITCH, for the span)."""
    k = draw(hst.one_of(hst.sampled_from([0.5, 1.0, 2.0, 1e-5]),
                        hst.floats(-5.0, 5.0)))
    origin = draw(hst.one_of(hst.just(0.0), hst.floats(-3.0, 3.0)))

    def offset():
        kind = draw(hst.sampled_from(["zero", "plain", "whole", "half"]))
        if kind == "zero" or k == 0.0:
            return 0.0
        if kind == "plain":
            return draw(hst.floats(-3.0, 3.0))
        z = 1e-4 / k if kind == "whole" else 2e-4 / k
        z = _nudged(z, draw(hst.integers(-3, 3)))
        return z if draw(hst.booleans()) else -z

    offsets = (offset(), offset())
    g, x, y = (draw(hst.floats(-5.0, 5.0)) for _ in range(3))
    return k, g, origin, offsets, x, y


@settings(max_examples=1000, deadline=None)
@given(case=_conic_cases(), tau_at=hst.sampled_from([None, "alpha", "beta"]))
def test_conic_closed_forms_keep_the_shc_bits(case, tau_at):
    # F: beta at the origin, u = tau - beta and s = alpha - beta are the
    # offsets (exactly so at origin 0); S: alpha at the origin, with
    # tp = tau - alpha and sp = beta - alpha.  tau may sit on an end.
    k, g, origin, (d_tau, d_other), x, y = case
    p = ConicParams(k, g)
    tau, end = origin + d_tau, origin + d_other
    if tau_at is not None:
        tau = origin if tau_at == "beta" else end
    assert _bits(conic_F, p, tau, end, origin, x, y) == _bits(_ref_conic_F, p, tau, end, origin, x, y)
    if tau_at is not None:
        tau = origin if tau_at == "alpha" else end
    assert _bits(conic_S, p, tau, origin, end, x, y) == _bits(_ref_conic_S, p, tau, origin, end, x, y)
    assert _bits(conic_S, p, tau, origin, origin, x, y) == _bits(_ref_conic_S, p, tau, origin, origin, x, y)


def test_conic_closed_forms_keep_the_shc_bits_at_the_switch():
    # every argument just below, at and just above 1e-4, at k in
    # {0.5, 1, 2, 1e-5}, with tau on either end or the span at the switch
    for k in (0.5, 1.0, 2.0, 1e-5):
        p = ConicParams(k, -1.5)
        for scale in (1e-4, 2e-4):
            for ulps in (-1, 0, 1):
                d = _nudged(scale / k, ulps)
                for tau, other in ((d, 1.0), (0.0, d), (d, d), (1.0, 0.0), (-d, 2.0 * d)):
                    args = (p, tau, other, 0.0, 0.7, -0.4)
                    assert _bits(conic_F, *args) == _bits(_ref_conic_F, *args)
                    args = (p, tau, 0.0, other, 0.7, -0.4)
                    assert _bits(conic_S, *args) == _bits(_ref_conic_S, *args)


def test_conic_closed_forms_make_no_shc_call(monkeypatch):
    # each sinh(z)/z is computed where it is used, with _shc's bits, also
    # where an argument is 0 or below the switch: tau on an end, the
    # diagonal, a tiny span
    calls = []
    monkeypatch.setattr(closed_forms, "_shc", lambda z: calls.append(z))
    p = ConicParams(2.0, -2.0)
    for tau, alpha, beta in ((0.3, -0.5, 0.6), (-0.5, -0.5, 0.6), (0.6, -0.5, 0.6),
                             (0.3, 0.6, -0.5), (0.3, 0.3, 0.3 + 1e-5), (1e-5, 0.0, 1.0)):
        assert _bits(conic_F, p, tau, alpha, beta, 0.7, -0.4) == _bits(
            _ref_conic_F, p, tau, alpha, beta, 0.7, -0.4)
    for tau, alpha, beta in ((0.3, -0.5, 0.6), (-0.5, -0.5, 0.6), (0.3, -0.5, -0.5),
                             (-0.5, -0.5, -0.5), (0.3, -0.5, -0.5 + 1e-4), (1e-5, 0.0, 1e-5)):
        assert _bits(conic_S, p, tau, alpha, beta, 0.7, -0.4) == _bits(
            _ref_conic_S, p, tau, alpha, beta, 0.7, -0.4)
    assert calls == []
