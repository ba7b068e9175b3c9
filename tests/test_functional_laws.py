"""Sampling harness and law-check tests.

The splitmix64 outputs for seed 0 are the reference values of the
published algorithm (Steele/Lea/Flood), frozen here as the PRNG oracle.
"""

import json

import numpy as np
import pytest

from febvp.bvp_shooting import DEFAULT_SHOOTING
from febvp.errors import FebvpError
from febvp.functional_laws import (
    DIAG_EPSILONS,
    DependenceEvaluator,
    EvalDomain,
    EvaluatorFailure,
    LawReport,
    SampleSpec,
    Splitmix64,
    check_boundary,
    check_composition,
    check_extension,
    check_lemma1_equivalence,
    evaluator_from_ode,
    evaluator_from_scalar,
)
from febvp.closed_forms import free_fall_F, free_fall_S
from febvp.ode_core import SecondOrderOde

SPLITMIX64_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4,
                    0x06C45D188009454F)


def ff_evaluator():
    return evaluator_from_scalar(
        lambda t, al, be, a, b: free_fall_F(-9.8, t, al, be, a, b),
        lambda t, al, be, a, v: free_fall_S(-9.8, t, al, be, a, v),
        label="ff")


def test_splitmix64_reference_vectors():
    rng = Splitmix64(0)
    for want in SPLITMIX64_SEED0:
        assert rng.next_u64() == want


def test_splitmix64_uniform_derivation():
    rng = Splitmix64(0)
    got = rng.uniform(0.0, 1.0)
    assert got == (SPLITMIX64_SEED0[0] >> 11) * 2.0 ** -53
    assert 0.0 <= got < 1.0


def test_splitmix64_uniform_range_mapping():
    rng = Splitmix64(12345)
    for _ in range(100):
        u = rng.uniform(-3.0, 5.0)
        assert -3.0 <= u < 5.0


def test_sample_spec_validation():
    with pytest.raises(ValueError):
        SampleSpec(count=0, seed=1)
    with pytest.raises(ValueError):
        SampleSpec(count=10, seed=1, min_separation=0.0)


def test_law_report_shape():
    rep = check_boundary(ff_evaluator(), SampleSpec(count=20, seed=5))
    doc = rep.to_json()
    assert set(doc) == {"law", "samples", "max_residual", "mean_residual",
                        "worst_case", "failures"}
    assert doc["law"] == "boundary"
    assert doc["samples"] == 20
    assert doc["failures"] == 0
    json.dumps(doc)  # must be serializable as-is


def test_boundary_tight_on_exact_family():
    rep = check_boundary(ff_evaluator(), SampleSpec(count=200, seed=1))
    assert rep.max_residual < 1e-12
    assert rep.mean_residual <= rep.max_residual


def test_composition_tight_on_exact_family():
    rep = check_composition(ff_evaluator(), SampleSpec(count=200, seed=2))
    assert rep.max_residual < 1e-11


def test_composition_detects_broken_map():
    # the bump vanishes at the endpoints, so the boundary law stays clean;
    # it depends nonlinearly on the data, so no ODE produces it and
    # rebasing through interior points must expose it.  (A data-independent
    # bump c (t-al)(t-be) would NOT do: that is exactly the dependence map
    # of a different constant-force equation and composition really holds.)
    def bad_f(t, al, be, a, b):
        return (free_fall_F(-9.8, t, al, be, a, b)
                + 0.01 * (b - a) ** 2 * (t - al) * (t - be))

    ev = evaluator_from_scalar(bad_f, label="bent")
    good = check_boundary(ev, SampleSpec(count=100, seed=3))
    assert good.max_residual < 1e-12
    rep = check_composition(ev, SampleSpec(count=100, seed=3))
    assert rep.max_residual > 1e-4


def test_boundary_detects_broken_map():
    def bad_f(t, al, be, a, b):
        return free_fall_F(-9.8, t, al, be, a, b) + 0.01 * (t - al)

    rep = check_boundary(evaluator_from_scalar(bad_f),
                         SampleSpec(count=100, seed=4))
    assert rep.max_residual > 1e-4


def test_extension_reports():
    reports = check_extension(ff_evaluator(), SampleSpec(count=50, seed=6))
    names = [r.law_name for r in reports]
    assert names == ["extension_offdiag", "extension_diag_1e-2",
                     "extension_diag_1e-3", "extension_diag_1e-4"]
    off, d = reports[0], reports[1:]
    assert off.max_residual < 1e-10
    assert d[0].max_residual > d[1].max_residual > d[2].max_residual
    assert all(r.failures == 0 for r in reports)
    assert tuple(DIAG_EPSILONS) == (1e-2, 1e-3, 1e-4)


def test_extension_requires_eval_s():
    ev = evaluator_from_scalar(
        lambda t, al, be, a, b: free_fall_F(-9.8, t, al, be, a, b))
    with pytest.raises(ValueError):
        check_extension(ev, SampleSpec(count=5, seed=0))


def test_lemma1_on_free_fall():
    ode = SecondOrderOde.from_scalar(lambda t, x, v: -9.8, label="ff")
    agree, quad = check_lemma1_equivalence(ode, SampleSpec(count=20, seed=7),
                                           DEFAULT_SHOOTING)
    assert agree.law_name == "lemma1_agreement"
    assert quad.law_name == "lemma1_quadrature"
    assert agree.max_residual <= 1e-9
    assert quad.max_residual <= 1e-8


def test_domain_restricts_sampling():
    seen = []

    def probe(t, al, be, a, b):
        seen.append((t, al, be))
        return free_fall_F(-9.8, t, al, be, a, b)

    domain = EvalDomain(tau_range=(0.0, 1.0), alpha_beta_range=(0.0, 1.0),
                        min_separation=0.3)
    ev = evaluator_from_scalar(probe, domain=domain)
    check_boundary(ev, SampleSpec(count=50, seed=8))
    assert seen
    for t, al, be in seen:
        assert 0.0 <= t <= 1.0
        assert 0.0 <= al <= 1.0 and 0.0 <= be <= 1.0
        assert abs(be - al) >= 0.3


def test_max_interval_cap():
    seen = []

    def probe(t, al, be, a, b):
        seen.append((al, be))
        return free_fall_F(-9.8, t, al, be, a, b)

    ev = evaluator_from_scalar(probe, domain=EvalDomain(max_interval=0.8))
    check_boundary(ev, SampleSpec(count=50, seed=9))
    assert all(abs(be - al) <= 0.8 for al, be in seen)


def test_undrawable_domain_raises():
    ev = evaluator_from_scalar(
        lambda t, al, be, a, b: a,
        domain=EvalDomain(alpha_beta_range=(0.0, 0.1), min_separation=0.5))
    with pytest.raises(ValueError):
        check_boundary(ev, SampleSpec(count=5, seed=0))


def test_failures_counted_not_fatal():
    class Boom(FebvpError):
        code = "boom"

    def flaky(t, al, be, a, b):
        if a > 0:
            raise Boom("synthetic")
        return free_fall_F(-9.8, t, al, be, a, b)

    rep = check_boundary(evaluator_from_scalar(flaky),
                         SampleSpec(count=100, seed=10))
    assert 0 < rep.failures < 100
    assert rep.max_residual < 1e-12  # max over the successful samples


def test_nonfinite_residual_counts_as_failure():
    def sometimes_inf(t, al, be, a, b):
        if b > 0:
            return float("inf")
        return free_fall_F(-9.8, t, al, be, a, b)

    rep = check_boundary(evaluator_from_scalar(sometimes_inf),
                         SampleSpec(count=100, seed=11))
    assert rep.failures > 0
    assert np.isfinite(rep.max_residual)


def test_bad_shape_counts_as_failure():
    def wrong_shape(t, al, be, a, b):
        return np.array([1.0, 2.0])

    rep = check_boundary(
        DependenceEvaluator(dim=1, eval_f=wrong_shape, eval_s=None,
                            domain=EvalDomain(), label="bad"),
        SampleSpec(count=5, seed=0))
    assert rep.failures == 5


def test_reports_are_deterministic():
    a = check_composition(ff_evaluator(), SampleSpec(count=60, seed=42))
    b = check_composition(ff_evaluator(), SampleSpec(count=60, seed=42))
    assert a.to_json() == b.to_json()


def test_numeric_evaluator_consistent_with_closed():
    ode = SecondOrderOde.from_scalar(lambda t, x, v: -9.8, label="ff")
    num = evaluator_from_ode(ode, DEFAULT_SHOOTING)
    got = num.eval_f(0.3, 0.0, 1.0, np.array([0.2]), np.array([-0.4]))
    want = free_fall_F(-9.8, 0.3, 0.0, 1.0, 0.2, -0.4)
    assert abs(float(got[0]) - want) < 1e-9


def test_mean_of_equal_residuals_stays_at_their_max():
    # 0.1 three times sums to 0.30000000000000004, whose third lies above
    # 0.1: the mean must be clamped to the maximum, not rejected
    ev = DependenceEvaluator(
        dim=1, eval_f=lambda t, al, be, a, b: (np.asarray(a) + 0.1 if t == al
                                               else np.asarray(b) + 0.1))
    rep = check_boundary(ev, SampleSpec(count=3, seed=0,
                                        ab_range=(0.0, 1e-20)))
    assert rep.failures == 0
    assert rep.max_residual == 0.1
    assert rep.mean_residual == rep.max_residual


def counting_evaluator(calls, fail_s=lambda al, be: False):
    """Free fall that logs "f" or "s" per call and raises EvaluatorFailure
    from eval_s wherever fail_s(alpha, beta) holds."""

    def eval_f(t, al, be, a, b):
        calls.append("f")
        return np.array([free_fall_F(-9.8, t, al, be, float(a[0]),
                                     float(b[0]))])

    def eval_s(t, al, be, a, v):
        calls.append("s")
        if fail_s(al, be):
            raise EvaluatorFailure("synthetic")
        return np.array([free_fall_S(-9.8, t, al, be, float(a[0]),
                                     float(v[0]))])

    return DependenceEvaluator(dim=1, eval_f=eval_f, eval_s=eval_s)


@pytest.mark.parametrize("check, per_sample", [
    (check_composition, "ffff"),
    (check_boundary, "ff"),
    (check_extension, "sfssss"),
])
def test_evaluator_calls_per_sample(check, per_sample):
    calls = []
    check(counting_evaluator(calls), SampleSpec(count=7, seed=12))
    assert "".join(calls) == per_sample * 7


def extension_failures(fail_s):
    calls = []
    reports = check_extension(counting_evaluator(calls, fail_s),
                              SampleSpec(count=9, seed=13))
    return {r.law_name: r.failures for r in reports}


def test_extension_offdiag_failure_leaves_diagonal_reports_clean():
    # drawn pairs lie at least min_separation = 0.05 apart, the diagonal
    # probes at most 1e-2
    assert extension_failures(lambda al, be: abs(be - al) > 0.02) == {
        "extension_offdiag": 9, "extension_diag_1e-2": 0,
        "extension_diag_1e-3": 0, "extension_diag_1e-4": 0}


def test_extension_on_diagonal_failure_fails_every_diagonal_report():
    assert extension_failures(lambda al, be: al == be) == {
        "extension_offdiag": 0, "extension_diag_1e-2": 9,
        "extension_diag_1e-3": 9, "extension_diag_1e-4": 9}


def test_extension_failure_at_one_eps_fails_only_its_report():
    assert extension_failures(
        lambda al, be: abs((be - al) - 1e-3) < 1e-9) == {
        "extension_offdiag": 0, "extension_diag_1e-2": 0,
        "extension_diag_1e-3": 9, "extension_diag_1e-4": 0}
