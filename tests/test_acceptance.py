"""Acceptance gate: twelve numbered criteria, each a single test that
prints one PASS line (a failed criterion shows up as the test's FAILED
line instead).  Tolerances are written as literals so they cannot drift."""

import json
import math
import random
import struct
import time

import numpy as np
import pytest

from febvp import cli
from febvp.bvp_shooting import (
    ConjugatePoint,
    IntegralConditions,
    NeumannConditions,
    ShootingConfig,
    clear_cache,
    eval_S,
    solve_neumann,
)
from febvp.catalog import (
    check_angelesco,
    closed_evaluator,
    get_entry,
    make_ode,
    numeric_evaluator,
    resolve_params,
    rhs_true,
)
from febvp.closed_forms import (
    COS_SIN_BASIS,
    ConicParams,
    DegenerateBasis,
    angelesco_residual,
    conic_F,
    free_fall_F,
    linear_F,
    neuman_det,
)
from febvp.functional_laws import (
    SampleSpec,
    Splitmix64,
    check_boundary,
    check_composition,
    check_extension,
    check_lemma1_equivalence,
)
from febvp.geodesics import (
    GeodesicMap,
    check_klapka,
    flat_connection,
    half_plane_connection,
    half_plane_geodesic_point,
    jensen_midpoint_check,
)
from febvp.ode_core import IntegratorConfig
from febvp.reconstruction import reconstruct_f, roundtrip_check
from febvp.rhs_parser import EvaluationError, ParseError, bind, eval_expr, parse


# free fall, the conic grid, and the cos/sin linear family (|beta-alpha|
# is capped at 3 by the family's own evaluation domain)
FAMILIES = [("free_fall", None)] + [
    ("conic", {"k": k, "g": g})
    for k in (0.5, 1.0, 2.0) for g in (0.0, 2.0, -2.0)
] + [("linear_basis", None)]

ALL_CATALOG = ("free_fall", "conic", "linear_zero", "oscillator",
               "linear_basis")


def _line(log: list, num: int, name: str, detail: str) -> None:
    log.append(f"ACCEPTANCE {num:02d} {name}: PASS ({detail})")


def _family_evaluator(name, overrides, mode):
    if mode == "closed":
        return closed_evaluator(name, overrides)
    return numeric_evaluator(name, overrides)


def test_criterion_01_boundary_law(acceptance_log):
    t0 = time.perf_counter()
    worst_closed = worst_numeric = 0.0
    for name, over in FAMILIES:
        spec = SampleSpec(count=500, seed=101)
        closed = check_boundary(closed_evaluator(name, over), spec)
        numeric = check_boundary(numeric_evaluator(name, over), spec)
        assert closed.failures == 0, (name, over)
        assert numeric.failures == 0, (name, over)
        worst_closed = max(worst_closed, closed.max_residual)
        worst_numeric = max(worst_numeric, numeric.max_residual)
        clear_cache()
    elapsed = time.perf_counter() - t0
    assert worst_closed <= 1e-9
    assert worst_numeric <= 1e-8
    assert elapsed <= 60.0
    _line(acceptance_log, 1, "boundary law",
          f"closed {worst_closed:.2e}, numeric {worst_numeric:.2e}, "
          f"{elapsed:.1f}s for {len(FAMILIES)} families x 500 samples")


def test_criterion_02_composition_law(acceptance_log):
    worst_closed = worst_numeric = 0.0
    for name, over in FAMILIES:
        spec = SampleSpec(count=500, seed=102)
        closed = check_composition(closed_evaluator(name, over), spec)
        numeric = check_composition(numeric_evaluator(name, over), spec)
        assert closed.failures == 0, (name, over)
        assert numeric.failures == 0, (name, over)
        worst_closed = max(worst_closed, closed.max_residual)
        worst_numeric = max(worst_numeric, numeric.max_residual)
        clear_cache()
    assert worst_closed <= 1e-10
    assert worst_numeric <= 1e-7
    _line(acceptance_log, 2, "composition law",
          f"closed {worst_closed:.2e}, numeric {worst_numeric:.2e}")


def test_criterion_03_extension(acceptance_log):
    worst_off = 0.0
    for name in ALL_CATALOG:
        mode = "numeric" if name == "oscillator" else "closed"
        reports = check_extension(_family_evaluator(name, None, mode),
                                  SampleSpec(count=100, seed=7))
        by_law = {r.law_name: r for r in reports}
        assert all(r.failures == 0 for r in reports), name
        off = by_law["extension_offdiag"].max_residual
        diag = [by_law[f"extension_diag_1e-{k}"].max_residual
                for k in (2, 3, 4)]
        assert off <= 1e-8, name
        # strictly decreasing, except a plateau at exactly zero, which is
        # the degenerate perfect case (extension independent of beta)
        assert all(diag[i] > diag[i + 1] or diag[i] == diag[i + 1] == 0.0
                   for i in range(2)), (name, diag)
        worst_off = max(worst_off, off)
        clear_cache()
    _line(acceptance_log, 3, "smooth extension",
          f"off-diagonal {worst_off:.2e}, diagonal strictly decreasing "
          f"on {len(ALL_CATALOG)} families")


def test_criterion_04_reconstruction(acceptance_log):
    def box(seed):
        return SampleSpec(count=100, seed=seed, tau_range=(-1.0, 1.0),
                          ab_range=(-1.0, 1.0))

    free = roundtrip_check(make_ode("free_fall")[0], spec=box(11))
    osc = roundtrip_check(make_ode("oscillator")[0], spec=box(12))
    con = roundtrip_check(make_ode("conic")[0], spec=box(13))
    clear_cache()
    for rep in (free, osc, con):
        assert rep.failures == 0, rep.law_name
    assert free.max_residual <= 1e-6
    assert osc.max_residual <= 1e-4
    assert con.max_residual <= 1e-4

    worst_closed = 0.0
    rng = Splitmix64(14)
    for name in ("free_fall", "conic", "linear_zero", "linear_basis"):
        entry = get_entry(name)
        params = resolve_params(entry, None)
        closed_s = entry.closed_s(params)
        truth = rhs_true(name, params)

        def S(qt, al, be, a, v):
            return closed_s(qt, al, be, float(a[0]), float(v[0]))

        for _ in range(100):
            tau = rng.uniform(-1.0, 1.0)
            x = rng.uniform(-1.0, 1.0)
            v = rng.uniform(-1.0, 1.0)
            got = float(reconstruct_f(S, tau, np.array([x]),
                                      np.array([v]))[0])
            worst_closed = max(worst_closed, abs(got - truth(tau, x, v)))
    assert worst_closed <= 1e-8
    _line(acceptance_log, 4, "rhs reconstruction",
          f"numeric roundtrip free {free.max_residual:.2e} / "
          f"osc {osc.max_residual:.2e} / conic {con.max_residual:.2e}, "
          f"analytic {worst_closed:.2e}")


def test_criterion_05_initial_slope(acceptance_log):
    h = 1e-4
    worst = 0.0
    rng = Splitmix64(17)
    tight = ShootingConfig(integrator=IntegratorConfig(rel_tol=1e-12,
                                                       abs_tol=1e-13))
    for name in ALL_CATALOG:
        entry = get_entry(name)
        params = resolve_params(entry, None)
        if entry.closed_s is not None:
            closed_s = entry.closed_s(params)

            def S(qt, al, a, v):
                return closed_s(qt, al, al, a, v)
        else:
            ode = entry.make_ode(params)

            def S(qt, al, a, v):
                cond = IntegralConditions(al, al, np.array([a]),
                                          np.array([v]))
                return float(eval_S(ode, qt, cond, tight)[0])

        for _ in range(20):
            alpha = rng.uniform(-1.5, 1.5)
            a = rng.uniform(-2.0, 2.0)
            v = rng.uniform(-2.0, 2.0)
            slope = (S(alpha + h, alpha, a, v)
                     - S(alpha - h, alpha, a, v)) / (2.0 * h)
            worst = max(worst, abs(slope - v))
        clear_cache()
    assert worst <= 1e-6
    _line(acceptance_log, 5, "diagonal initial slope",
          f"max |dS/dtau - v| = {worst:.2e} at h=1e-4")


def test_criterion_06_integral_equivalence(acceptance_log):
    worst_agree = worst_quad = 0.0
    cases = [
        ("free_fall", SampleSpec(count=100, seed=19)),
        ("conic", SampleSpec(count=100, seed=20)),
        ("linear_zero", SampleSpec(count=100, seed=21)),
        ("linear_basis", SampleSpec(count=100, seed=22,
                                    alpha_beta_range=(-1.4, 1.4))),
    ]
    for name, spec in cases:
        reports = check_lemma1_equivalence(make_ode(name)[0], spec)
        by_law = {r.law_name: r for r in reports}
        assert all(r.failures == 0 for r in reports), name
        worst_agree = max(worst_agree,
                          by_law["lemma1_agreement"].max_residual)
        worst_quad = max(worst_quad,
                         by_law["lemma1_quadrature"].max_residual)
        clear_cache()
    assert worst_agree <= 1e-9
    assert worst_quad <= 1e-8
    _line(acceptance_log, 6, "endpoint/average-slope equivalence",
          f"trajectory {worst_agree:.2e}, quadrature {worst_quad:.2e}")


def test_criterion_07_determinant_and_degeneracy(acceptance_log):
    rng = Splitmix64(23)
    worst = 0.0
    for _ in range(200):
        alpha = rng.uniform(-2.0, 2.0)
        beta = alpha + rng.uniform(0.3, 3.0)
        tau = rng.uniform(-2.0, 2.0)
        a = rng.uniform(-2.0, 2.0)
        b = rng.uniform(-2.0, 2.0)
        val = linear_F(COS_SIN_BASIS, tau, alpha, beta, a, b)
        worst = max(worst, abs(neuman_det(COS_SIN_BASIS, tau, alpha, beta,
                                          a, b, val)))
    assert worst <= 1e-12

    def degenerate(sep: float) -> bool:
        try:
            linear_F(COS_SIN_BASIS, 0.1, 0.3, 0.3 + sep, 1.0, 1.0)
            return False
        except DegenerateBasis:
            return True

    assert degenerate(math.pi)
    lo, hi = 3.0, math.pi
    assert not degenerate(lo)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if degenerate(mid):
            hi = mid
        else:
            lo = mid
    assert abs(hi - math.pi) <= 1e-10
    _line(acceptance_log, 7, "determinant identity",
          f"max |det| = {worst:.2e} on 200 samples, degeneracy onset "
          f"{abs(hi - math.pi):.1e} from pi")


def test_criterion_08_five_point_product(acceptance_log):
    report = check_angelesco(SampleSpec(count=50, seed=25))
    assert report.failures == 0
    assert report.max_residual <= 1e-10

    assert angelesco_residual(lambda t: t ** 3, 0.0, 1.0) == -72.0

    rng = Splitmix64(26)
    worst = 0.0
    for g in (-9.8, 2.0):
        for k in (0.0, 1e-7):
            p = ConicParams(k, g)
            for _ in range(20):
                alpha = rng.uniform(-1.0, 1.0)
                beta = alpha + rng.uniform(0.3, 1.5)
                tau = rng.uniform(-1.0, 1.5)
                a = rng.uniform(-2.0, 2.0)
                b = rng.uniform(-2.0, 2.0)
                diff = abs(conic_F(p, tau, alpha, beta, a, b)
                           - free_fall_F(g, tau, alpha, beta, a, b))
                worst = max(worst, diff)
    assert worst <= 1e-9
    _line(acceptance_log, 8, "five-point product identity",
          f"relative residual {report.max_residual:.2e} on 50 members, "
          f"cubic pins -72 exactly, k->0 limit {worst:.2e}")


def test_criterion_09_geodesic_laws(acceptance_log):
    flat = GeodesicMap(flat_connection())
    hyper = GeodesicMap(half_plane_connection())

    k_flat = check_klapka(flat, SampleSpec(count=50, seed=31))
    assert k_flat.failures == 0 and k_flat.max_residual <= 1e-12
    k_hyp = check_klapka(hyper, SampleSpec(count=40, seed=33))
    assert k_hyp.failures == 0 and k_hyp.max_residual <= 1e-6
    jensen = jensen_midpoint_check(flat, SampleSpec(count=50, seed=35))
    assert jensen.failures == 0 and jensen.max_residual <= 1e-12

    rng = Splitmix64(37)
    worst = 0.0
    for _ in range(10):
        a = np.array([rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)])
        b = np.array([rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)])
        rho = rng.uniform(0.1, 0.9)
        got = hyper.eval(a, b, rho)
        want = half_plane_geodesic_point(a, b, rho)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-6
    _line(acceptance_log, 9, "geodesic interpolation laws",
          f"flat {k_flat.max_residual:.2e}, half-plane "
          f"{k_hyp.max_residual:.2e}, jensen {jensen.max_residual:.2e}, "
          f"vs oracle {worst:.2e}")


def test_criterion_10_conjugate_point(acceptance_log):
    ode, _ = make_ode("oscillator")
    for _ in range(3):
        clear_cache()
        with pytest.raises(ConjugatePoint):
            solve_neumann(ode, NeumannConditions(0.0, math.pi, 0.0, 0.0))
    clear_cache()
    result = solve_neumann(ode, NeumannConditions(0.0, math.pi - 0.1,
                                                  0.0, 1.0))
    assert result.final_residual <= 1e-8
    _line(acceptance_log, 10, "conjugate interval",
          f"length pi raises deterministically, length pi-0.1 converges "
          f"with residual {result.final_residual:.2e}")


def test_criterion_11_parser(acceptance_log):
    rng = random.Random(0)
    pool = list("xv+-*/^(). 0123456789") + ["tau", "sin", "cos", "exp",
                                            "x1", "v2", ","]
    parsed = 0
    for _ in range(100_000):
        text = "".join(rng.choice(pool) for _ in range(rng.randint(1, 12)))
        try:
            expr = parse(text, dim=2)
        except ParseError:
            continue
        parsed += 1
        try:
            eval_expr(expr, 0.3, [0.5, -1.0], [1.0, 2.0], {})
        except EvaluationError:
            pass

    expr = parse("k^2*x + g", params=("k", "g"))
    checked = 0
    for k, g in [(1.0, -9.8), (0.5, 2.0), (2.0, 0.0), (0.7, -1.3)]:
        ode, _ = make_ode("conic", {"k": k, "g": g})
        bound = bind(expr, {"k": k, "g": g})
        pts = Splitmix64(41)
        for _ in range(250):
            tau = pts.uniform(-2.0, 2.0)
            x = pts.uniform(-3.0, 3.0)
            v = pts.uniform(-3.0, 3.0)
            ours = struct.pack("<d", float(ode.rhs(tau, np.array([x]),
                                                   np.array([v]))[0]))
            theirs = struct.pack("<d", float(bound(tau, x, v)))
            assert ours == theirs, (k, g, tau, x)
            checked += 1
    assert checked == 1000

    assert eval_expr(parse("2^3^2"), 0.0, 0.0, 0.0, {}) == 512.0
    assert eval_expr(parse("-2^2"), 0.0, 0.0, 0.0, {}) == -4.0
    _line(acceptance_log, 11, "expression parser",
          f"fuzz 100000 inputs ({parsed} parsed) without crash, "
          f"parity 0 ulp on 1000 points, grammar anchors hold")


def test_criterion_12_determinism(capsys, acceptance_log):
    argv = ["verify", "--catalog", "free_fall", "--laws",
            "composition,boundary", "--mode", "closed", "--samples", "120",
            "--seed", "42", "--format", "json"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    clear_cache()
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)
    _line(acceptance_log, 12, "deterministic output",
          f"two seeded runs produced byte-identical JSON "
          f"({len(first)} bytes)")
