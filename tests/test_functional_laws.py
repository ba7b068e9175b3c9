"""Sampling harness and law-check tests.

The splitmix64 outputs for seed 0 are the reference values of the
published algorithm (Steele/Lea/Flood), frozen here as the PRNG oracle.
"""

import dataclasses
import functools
import itertools
import json
import math
import signal
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as hst

from febvp import catalog, functional_laws
from febvp.bvp_shooting import DEFAULT_SHOOTING, ShootingConfig
from febvp.errors import FebvpError
from febvp.functional_laws import (
    DIAG_EPSILONS,
    DRAW_BLOCK,
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
from febvp.closed_forms import (
    COS_SIN_BASIS,
    ConicParams,
    conic_F,
    conic_S,
    cos_sin_S,
    free_fall_F,
    free_fall_S,
    linear_F,
)
from febvp.geodesics import GeodesicMap, check_klapka, flat_connection
from febvp.ode_core import IntegratorConfig, SecondOrderOde
from febvp.reconstruction import roundtrip_check

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


_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def _reference_outputs(seed, n):
    """The first n splitmix64 outputs of seed with the state after each,
    from the published recurrence on plain ints."""
    state, out = seed & _MASK, []
    for _ in range(n):
        state = (state + _GAMMA) & _MASK
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append((z ^ (z >> 31), state))
    return out


_seeds = hst.one_of(
    hst.sampled_from([0, 1, 2 ** 63, 2 ** 64 - 1, -1, -2 ** 63, 2 ** 64, 2 ** 64 + 5, 2 ** 130 + 7]),
    hst.integers(0, 2 ** 64 - 1), hst.integers(-2 ** 70, -1), hst.integers(2 ** 64, 2 ** 80))


@settings(max_examples=200, deadline=None)
@example(seed=2 ** 64 - 1, calls=[True] * (2 * DRAW_BLOCK + 2), lo=-1.0, width=2.0)
@example(seed=7, calls=[True] * (DRAW_BLOCK - 1) + [False] + [True] * (DRAW_BLOCK + 2), lo=0.0, width=1.0)
@given(seed=_seeds, calls=hst.lists(hst.booleans(), max_size=2 * DRAW_BLOCK + 2),
       lo=hst.floats(-10.0, 10.0), width=hst.floats(0.0, 10.0))
def test_block_draws_follow_the_plain_int_stream(seed, calls, lo, width):
    # calls: True is a uniform draw, False a next_u64; runs longer than
    # DRAW_BLOCK cross the boundary between the block uniform pops from and
    # the next one (draws DRAW_BLOCK and DRAW_BLOCK + 1).
    # The counter wraps past 2^64 every second draw or so, which the NumPy
    # block must do without a warning.
    rng = Splitmix64(seed)
    hi = lo + width
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for uniform, (z, state) in zip(calls, _reference_outputs(seed, len(calls))):
            if uniform:
                assert rng.uniform(lo, hi) == lo + (hi - lo) * ((z >> 11) * 2.0 ** -53)
            else:
                assert rng.next_u64() == z
            assert rng.state == state
    assert rng.state == (seed + _GAMMA * len(calls)) & _MASK


@settings(max_examples=200, deadline=None)
@example(seed=-1, taken=0, n=2 * DRAW_BLOCK + 2, lo=-1.0, width=2.0)
@example(seed=2 ** 64 - 1, taken=DRAW_BLOCK - 1, n=DRAW_BLOCK + 3, lo=0.0, width=1.0)
@example(seed=2 ** 64 + 5, taken=3, n=2 * DRAW_BLOCK + 2, lo=-2.0, width=4.0)
@given(seed=_seeds, taken=hst.integers(0, DRAW_BLOCK + 1), n=hst.integers(0, 2 * DRAW_BLOCK + 2),
       lo=hst.floats(-10.0, 10.0), width=hst.floats(0.0, 10.0))
def test_uniforms_yield_the_bits_of_successive_uniform_calls(seed, taken, n, lo, width):
    # uniforms() starts where the generator stands, after taken uniform
    # calls, and its values cross block boundaries and the counter's wrap
    # past 2^64 as uniform(0.0, 1.0) does; a law's lo + (hi - lo) * u is
    # then uniform(lo, hi)
    rng, plain, ranged = Splitmix64(seed), Splitmix64(seed), Splitmix64(seed)
    hi = lo + width
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for gen in (rng, plain, ranged):
            [gen.uniform(0.0, 1.0) for _ in range(taken)]
        got = list(itertools.islice(rng.uniforms(), n))
        assert [u.hex() for u in got] == [plain.uniform(0.0, 1.0).hex() for _ in range(n)]
        assert ([(lo + (hi - lo) * u).hex() for u in got]
                == [ranged.uniform(lo, hi).hex() for _ in range(n)])
    assert got == [(z >> 11) * 2.0 ** -53 for z, _ in _reference_outputs(seed, taken + n)[taken:]]


def test_setting_state_restarts_the_stream_there():
    rng = Splitmix64(5)
    [rng.uniform(0.0, 1.0) for _ in range(10)]
    rng.state = 2 ** 64 + 3
    assert rng.state == 3
    z, _ = _reference_outputs(3, 1)[0]
    assert rng.uniform(0.0, 1.0) == (z >> 11) * 2.0 ** -53


def test_sample_spec_takes_numpy_integers_as_python_ints():
    ev = ff_evaluator()
    want = check_boundary(ev, SampleSpec(count=3, seed=5)).to_json()
    for count, seed in ((3, np.int64(5)), (np.int64(3), 5), (np.uint8(3), np.uint64(5))):
        spec = SampleSpec(count=count, seed=seed)
        assert type(spec.count) is int and type(spec.seed) is int
        doc = check_boundary(ev, spec).to_json()
        assert doc == want
        assert json.dumps(doc) == json.dumps(want)


@pytest.mark.parametrize("field,bad", [
    ("count", 2.5), ("seed", 1.5), ("count", 3.0), ("seed", np.float64(5.0)),
    ("count", True), ("seed", False), ("seed", np.bool_(True)), ("count", "3"),
    ("seed", None)])
def test_sample_spec_rejects_counts_and_seeds_that_are_not_integers(field, bad):
    kwargs = {"count": 3, "seed": 5, field: bad}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SampleSpec(**kwargs)


def test_sample_spec_validation():
    with pytest.raises(ValueError):
        SampleSpec(count=0, seed=1)
    with pytest.raises(ValueError):
        SampleSpec(count=10, seed=1, min_separation=0.0)
    for name in ("tau_range", "alpha_beta_range", "ab_range"):
        for bad in ((math.nan, 1.0), (0.0, math.nan)):
            with pytest.raises(ValueError, match=f"{name} must not have a NaN end"):
                SampleSpec(count=10, seed=1, **{name: bad})


def test_eval_domain_rejects_nan_or_negative_max_interval():
    for bad in (math.nan, -1.0, -math.inf):
        with pytest.raises(ValueError, match="max_interval must be a number >= 0"):
            EvalDomain(max_interval=bad)
    for good in (None, 0.0, 0.8, math.inf):
        assert EvalDomain(max_interval=good).max_interval == good


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
    got = num.eval_f(0.3, 0.0, 1.0, 0.2, -0.4)
    want = free_fall_F(-9.8, 0.3, 0.0, 1.0, 0.2, -0.4)
    assert abs(float(got[0]) - want) < 1e-9


def test_mean_of_equal_residuals_stays_at_their_max():
    # 0.1 three times sums to 0.30000000000000004, whose third lies above
    # 0.1: the mean must be clamped to the maximum, not rejected
    ev = DependenceEvaluator(
        dim=1, eval_f=lambda t, al, be, a, b: a + 0.1 if t == al else b + 0.1)
    rep = check_boundary(ev, SampleSpec(count=3, seed=0,
                                        ab_range=(0.0, 1e-20)))
    assert rep.failures == 0
    assert rep.max_residual == 0.1
    assert rep.mean_residual == rep.max_residual


def _zero(*args):
    return 0.0


@pytest.mark.parametrize("check, ev, per_sample", [
    (check_composition, DependenceEvaluator(dim=1, eval_f=_zero), 4),
    (check_boundary, DependenceEvaluator(dim=1, eval_f=lambda t, al, be, a, b: a if t == al else b), 2),
    (check_extension, DependenceEvaluator(dim=1, eval_f=_zero, eval_s=_zero), 6),
])
def test_worst_case_of_equal_residuals_is_the_last_sample_built_once(
        monkeypatch, check, ev, per_sample):
    # every residual is 0.0, so each sample ties the maximum: the worst
    # case is the last sample, as it has always been, and each report's
    # is built once per run_law call
    calls, built = [], []

    def logged(fn):
        return None if fn is None else lambda *args: calls.append(args) or fn(*args)

    build = functional_laws._worst_case
    monkeypatch.setattr(functional_laws, "_worst_case",
                        lambda *args: built.append(args[1]) or build(*args))
    ev = DependenceEvaluator(dim=1, eval_f=logged(ev.eval_f), eval_s=logged(ev.eval_s))
    reports = check(ev, SampleSpec(count=40, seed=17))
    reports = reports if isinstance(reports, list) else [reports]
    assert built == list(range(len(reports)))
    assert all(r.failures == 0 and r.max_residual == 0.0 for r in reports)
    last = calls[-per_sample:]
    if check is check_composition:
        (tau, alpha, beta, a, b), (gamma, *_), (delta, *_), _ = last
        want = [dict(tau=tau, alpha=alpha, beta=beta, gamma=gamma, delta=delta, a=[a], b=[b])]
    elif check is check_boundary:
        (alpha, _, beta, a, b), _ = last
        want = [dict(alpha=alpha, beta=beta, a=[a], b=[b])]
    else:
        tau, alpha, beta, a, v = last[0]
        want = [dict(tau=tau, alpha=alpha, beta=beta, a=[a], v=[v])] + [
            dict(tau=tau, alpha=alpha, eps=eps, a=[a], v=[v]) for eps in DIAG_EPSILONS]
    assert [r.worst_case for r in reports] == want


def counting_evaluator(calls, fail_s=lambda al, be: False):
    """Free fall that logs "f" or "s" per call and raises EvaluatorFailure
    from eval_s wherever fail_s(alpha, beta) holds."""

    def eval_f(t, al, be, a, b):
        calls.append("f")
        return free_fall_F(-9.8, t, al, be, a, b)

    def eval_s(t, al, be, a, v):
        calls.append("s")
        if fail_s(al, be):
            raise EvaluatorFailure("synthetic")
        return free_fall_S(-9.8, t, al, be, a, v)

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


# ------------------------------------------------- any sampling box

class _Overran(Exception):
    pass


@contextmanager
def _deadline(seconds):
    """Raise _Overran in the test if the block runs longer than seconds."""
    def overran(signum, frame):
        raise _Overran(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# range ends and separations: mostly moderate, some huge, reversed, empty
# or not finite
_moderate = hst.floats(-10.0, 10.0)
_odd = hst.sampled_from([0.0, -1.0, 1e-300, 1e308, -1e308, math.inf, -math.inf, math.nan])
_end = hst.one_of(_moderate, _moderate, _moderate, hst.floats(-1e300, 1e300), _odd)
_range = hst.tuples(_end, _end)
_separation = hst.one_of(*[hst.floats(1e-12, 4.0)] * 4, _odd)
# Far from tau = 0 a step can be too small to move tau (t + h == t), and a
# numeric solve there takes every step the integrator allows, about 4 s at
# the default 10^6; the numeric cases allow 20000.
_BOUNDED = ShootingConfig(integrator=IntegratorConfig(max_steps=20_000))
_LAWS = [(check_composition, catalog.closed_evaluator(name)) for name in catalog.catalog_names()
         if catalog.get_entry(name).closed_f is not None] + [
    (check_boundary, catalog.closed_evaluator("linear_basis")),
    (check_extension, catalog.closed_evaluator("conic")),
    (check_boundary, catalog.numeric_evaluator("free_fall", cfg=_BOUNDED)),
    (lambda ev, spec: check_lemma1_equivalence(catalog.make_ode("free_fall")[0], spec, _BOUNDED), None),
]


@settings(max_examples=150, deadline=None)
@given(law=hst.sampled_from(_LAWS), count=hst.integers(1, 4), seed=hst.integers(0, 2 ** 64 - 1),
       tau_range=_range, alpha_beta_range=_range, ab_range=_range,
       min_separation=_separation)
def test_any_sampling_box_reports_or_raises_a_typed_error(
        law, count, seed, tau_range, alpha_beta_range, ab_range, min_separation):
    check, evaluator = law
    with _deadline(20.0):
        try:
            spec = SampleSpec(count=count, seed=seed, tau_range=tau_range,
                              alpha_beta_range=alpha_beta_range, ab_range=ab_range,
                              min_separation=min_separation)
            reports = check(evaluator, spec)
        except (ValueError, FebvpError) as exc:
            event(f"raised {type(exc).__name__}: {str(exc)[:30]}")
            return
    event("reported")
    reports = reports if isinstance(reports, list) else [reports]
    assert all(r.samples == count and 0 <= r.failures <= count for r in reports)


# ------------------------------------------- float path vs NumPy path

def _forms(draw):
    """A scalar map F and its extension S, from a closed-form family or a
    map that breaks composition."""
    kind = draw(hst.sampled_from(["free_fall", "conic", "linear_basis", "bent"]))
    g = draw(hst.floats(-10.0, 10.0))
    if kind == "free_fall":
        return (lambda t, al, be, a, b: free_fall_F(g, t, al, be, a, b),
                lambda t, al, be, a, v: free_fall_S(g, t, al, be, a, v))
    if kind == "conic":
        p = ConicParams(draw(hst.floats(0.0, 2.0)), g)
        return (lambda t, al, be, a, b: conic_F(p, t, al, be, a, b),
                lambda t, al, be, a, v: conic_S(p, t, al, be, a, v))
    if kind == "linear_basis":
        return (lambda t, al, be, a, b: linear_F(COS_SIN_BASIS, t, al, be, a, b),
                cos_sin_S)
    return (lambda t, al, be, a, b: (free_fall_F(g, t, al, be, a, b)
                                     + 0.01 * (b - a) ** 2 * (t - al) * (t - be)),
            lambda t, al, be, a, v: free_fall_S(g, t, al, be, a, v))


def _faulty(form, fault, cut):
    """form, except that where its last argument (b or v) exceeds cut it
    raises (fault "raise") or returns fault."""
    if fault is None:
        return form

    def scalar(t, al, be, a, x):
        if x > cut:
            if fault == "raise":
                raise EvaluatorFailure("synthetic")
            return fault
        return form(t, al, be, a, x)

    return scalar


def _checking_inputs(fn):
    """fn, asserting that every call receives five Python floats."""
    def call(*args):
        assert len(args) == 5 and all(type(arg) is float for arg in args)
        return fn(*args)

    return call


def _array_evaluator(f, s):
    """The dim-1 maps f and s as an evaluator returning (1,) arrays."""
    return DependenceEvaluator(
        dim=1,
        eval_f=lambda t, al, be, a, b: np.array([f(t, al, be, a, b)]),
        eval_s=lambda t, al, be, a, v: np.array([s(t, al, be, a, v)]))


@hst.composite
def _scalar_maps(draw):
    f, s = _forms(draw)
    faults = hst.sampled_from([None, "raise", math.nan, math.inf, -math.inf])
    cut = hst.floats(-2.0, 2.0)
    return (_faulty(f, draw(faults), draw(cut)),
            _faulty(s, draw(faults), draw(cut)))


def _docs(check, ev, spec):
    reports = check(ev, spec)
    reports = reports if isinstance(reports, list) else [reports]
    return json.dumps([r.to_json() for r in reports])


@settings(max_examples=60, deadline=None)
@given(maps=_scalar_maps(), count=hst.integers(1, 25),
       seed=hst.integers(0, 2 ** 64 - 1),
       ab_range=hst.sampled_from([(-2.0, 2.0), (-1e3, 1e3), (-1e308, 1e308)]))
def test_float_harness_matches_the_numpy_path(maps, count, seed, ab_range):
    # evaluator_from_scalar returns the map's floats, which the harness
    # keeps as floats; the same map returning (1,) arrays goes through
    # the NumPy conversion.  Every report must agree to the byte, faults
    # (NaN, inf, raise) included.
    f, s = maps
    spec = SampleSpec(count=count, seed=seed, ab_range=ab_range)
    for check in (check_composition, check_boundary, check_extension):
        docs = []
        for ev in (evaluator_from_scalar(f, s), _array_evaluator(f, s)):
            checked = DependenceEvaluator(dim=1, eval_f=_checking_inputs(ev.eval_f),
                                          eval_s=_checking_inputs(ev.eval_s))
            docs.append(_docs(check, checked, spec))
        assert docs[0] == docs[1]


# ------------------------------------------- wrapped evaluators

def _spanned(ev):
    """ev with eval_f and eval_s behind plain forwarding wrappers, as a
    tracer's spans put them."""
    def span(fn):
        def wrapper(*args, **kwargs):
            return fn(*args, **kwargs)

        return wrapper

    return dataclasses.replace(ev, eval_f=span(ev.eval_f), eval_s=span(ev.eval_s))


@pytest.mark.parametrize("wraps", [False, True])
@pytest.mark.parametrize("make", [
    lambda: catalog.closed_evaluator("conic", {"k": 2.0, "g": -2.0}),
    lambda: catalog.numeric_evaluator("free_fall"),
])
@pytest.mark.parametrize("check, per_sample", [
    (check_composition, "ffff"),
    (check_boundary, "ff"),
    (check_extension, "sfssss"),
])
def test_a_wrapper_on_an_evaluator_sees_every_call_on_floats(
        make, check, per_sample, wraps):
    # a tracer or failure recorder puts its wrapper on eval_f and eval_s
    # with dataclasses.replace; the laws must call the wrapper with five
    # floats and report as they do on the bare evaluator.
    ev, calls = make(), []

    def wrap(fn, name):
        checked = _checking_inputs(fn)

        def wrapper(*args):
            calls.append(name)
            return checked(*args)

        return functools.wraps(fn)(wrapper) if wraps else wrapper

    wrapped = dataclasses.replace(ev, eval_f=wrap(ev.eval_f, "f"), eval_s=wrap(ev.eval_s, "s"))
    spec = SampleSpec(count=6, seed=21)
    assert _docs(check, wrapped, spec) == _docs(check, ev, spec)
    assert "".join(calls) == per_sample * 6


@pytest.mark.parametrize("make", [
    lambda: catalog.closed_evaluator("free_fall"),
    lambda: _spanned(catalog.closed_evaluator("conic", {"k": 2.0, "g": -2.0})),
], ids=["bare", "wrapped"])
@pytest.mark.parametrize("check", [check_composition, check_boundary, check_extension])
def test_float_path_builds_no_array_per_sample(monkeypatch, check, make):
    array, ev, counts = functional_laws.np.array, make(), []
    for count in (1, 50):
        built = []
        with monkeypatch.context() as m:
            m.setattr(functional_laws.np, "array",
                      lambda *args, **kwargs: built.append(args) or array(*args, **kwargs))
            check(ev, SampleSpec(count=count, seed=22))
        counts.append(len(built))
    assert counts[0] == counts[1]


def _shape(case):
    """A worst case's JSON shape: the length of each list, "float" else."""
    for value in case.values():
        assert all(type(c) is float for c in (value if isinstance(value, list) else [value]))
    return {key: len(value) if isinstance(value, list) else "float"
            for key, value in case.items()}


def _linear_2d():
    """x'' = 0 in dim 2, as an evaluator on (2,) arrays."""
    return DependenceEvaluator(
        dim=2,
        eval_f=lambda t, al, be, a, b: a + (b - a) * ((t - al) / (be - al)),
        eval_s=lambda t, al, be, a, v: a + v * (t - al))


@pytest.mark.parametrize("dim", [1, 2])
def test_worst_case_shapes(dim):
    # data vectors are lists in every dimension, a dim-1 float as [x];
    # every other value of a worst case is a float
    ev = ff_evaluator() if dim == 1 else _linear_2d()
    ode = (catalog.make_ode("free_fall")[0] if dim == 1
           else SecondOrderOde(dim=2, rhs=lambda t, x, v: np.zeros(2)))
    spec = SampleSpec(count=5, seed=23)
    reports = [check_composition(ev, spec), check_boundary(ev, spec),
               *check_extension(ev, spec), *check_lemma1_equivalence(ode, spec),
               roundtrip_check(ode, spec=spec)]
    want = [dict(tau="float", alpha="float", beta="float", gamma="float",
                 delta="float", a=dim, b=dim),
            dict(alpha="float", beta="float", a=dim, b=dim),
            dict(tau="float", alpha="float", beta="float", a=dim, v=dim)]
    want += [dict(tau="float", alpha="float", eps="float", a=dim, v=dim)] * 3
    want += [dict(alpha="float", beta="float", a=dim, v=dim)] * 2
    want += [dict(tau="float", x=dim, v=dim)]
    assert [_shape(r.worst_case) for r in reports] == want
    if dim == 1:
        angelesco = catalog.check_angelesco(spec)
        assert _shape(angelesco.worst_case) == dict.fromkeys(
            ("k", "g", "alpha", "beta", "a", "b", "tau0", "delta"), "float")
    else:
        klapka = check_klapka(GeodesicMap(flat_connection()), spec)
        assert _shape(klapka.worst_case) == dict(a=2, b=2, zeta="float",
                                                 eta="float", rho="float")


# ------------------------------------------------------------- drawers
#
# A law's draw(box) reads the box once per law call and returns its
# per-sample drawer.  draw_pair, draw_vec and _draw_value are such
# drawers; these reference copies draw from (u, box) on every call, as the
# harness once did, and the drawers must give their values exactly.

def _ref_draw_pair(u, box):
    lo, hi = box.endpoints
    width, min_sep, cap = hi - lo, box.min_sep, box.max_interval
    for _ in range(1000):
        p = lo + width * next(u)
        q = lo + width * next(u)
        sep = abs(q - p)
        if sep < min_sep or (cap is not None and sep > cap):
            continue
        return p, q
    raise ValueError(
        "could not draw an admissible endpoint pair in "
        f"1000 attempts (range {box.endpoints}, "
        f"min_separation {box.min_sep}, max_interval {box.max_interval})")


def _ref_draw_vec(u, box, n):
    lo, hi = box.values
    return np.array([lo + (hi - lo) * x for x in itertools.islice(u, n)])


def _ref_draw_value(u, box, dim):
    if dim == 1:
        lo, hi = box.values
        return lo + (hi - lo) * next(u)
    return _ref_draw_vec(u, box, dim)


def _outcome(draw, *args):
    """The hex of every float draw returns, or its error's class and text."""
    try:
        got = draw(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return [x.hex() for x in np.atleast_1d(got).tolist()], type(got)


@hst.composite
def _boxes(draw):
    """Sampling boxes whose min separation reaches 0.95 of the endpoint
    width and whose cap, when there is one, lies in [0, width]."""
    lo = draw(hst.floats(-5.0, 5.0))
    width = draw(hst.floats(1e-3, 5.0))
    endpoints = (lo, lo + width)
    min_sep = draw(hst.floats(0.0, 0.95)) * (endpoints[1] - endpoints[0])
    cap = draw(hst.none() | hst.floats(0.0, 1.0).map(lambda f: f * (endpoints[1] - endpoints[0])))
    v_lo = draw(hst.floats(-5.0, 5.0))
    values = (v_lo, v_lo + draw(hst.floats(0.0, 5.0)))
    return functional_laws.SampleBox((-1.0, 1.0), endpoints, values, min_sep, cap)


@settings(max_examples=150, deadline=None)
@example(box=functional_laws.SampleBox((-1.0, 1.0), (0.0, 1.0), (-2.0, 2.0), 0.95, None),
         seed=2 ** 64 - 1, ops=[("pair", 1)] * 6)
@example(box=functional_laws.SampleBox((-1.0, 1.0), (0.0, 1.0), (-2.0, 2.0), 0.05, 0.0),
         seed=2 ** 64 - 3, ops=[("pair", 1)])
@given(box=_boxes(), seed=hst.integers(2 ** 64 - 2 ** 12, 2 ** 64 + 2 ** 12),
       ops=hst.lists(hst.tuples(hst.sampled_from(["pair", "vec", "value"]), hst.integers(1, 3)),
                     min_size=1, max_size=12))
def test_drawers_give_the_values_of_the_per_call_draws(box, seed, ops):
    # The same ops on two streams from one seed near 2^64, whose counter
    # wraps: a drawer made once must give each value, rejection and error
    # of the per-call reference, and leave its stream where it leaves its.
    ref_u, u = Splitmix64(seed).uniforms(), Splitmix64(seed).uniforms()
    pair = functional_laws.draw_pair(box)
    for kind, n in ops:
        if kind == "pair":
            want, got = _outcome(_ref_draw_pair, ref_u, box), _outcome(pair, u)
        elif kind == "vec":
            want = _outcome(_ref_draw_vec, ref_u, box, n)
            got = _outcome(functional_laws.draw_vec(box, n), u)
        else:
            want = _outcome(_ref_draw_value, ref_u, box, n)
            got = _outcome(functional_laws._draw_value(box, n), u)
        assert got == want
        event(f"{kind}: {'error' if want[0] is ValueError else 'drawn'}")
    assert next(u) == next(ref_u)


def test_a_pair_drawer_that_runs_out_of_tries_names_its_box():
    # no pair in [0, 1] is 2 apart: all 1000 tries, 2000 draws, are spent
    box = functional_laws.SampleBox((-1.0, 1.0), (0.0, 1.0), (-2.0, 2.0), 2.0, None)
    u = Splitmix64(11).uniforms()
    with pytest.raises(ValueError) as exc:
        functional_laws.draw_pair(box)(u)
    assert str(exc.value) == ("could not draw an admissible endpoint pair in 1000 attempts "
                              "(range (0.0, 1.0), min_separation 2.0, max_interval None)")
    assert next(u) == list(itertools.islice(Splitmix64(11).uniforms(), 2001))[-1]
    capped = dataclasses.replace(box, min_sep=0.5, max_interval=0.25)
    with pytest.raises(ValueError, match=r"min_separation 0\.5, max_interval 0\.25\)$"):
        functional_laws.draw_pair(capped)(u)


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_a_pair_at_exactly_the_min_separation_or_the_cap_is_drawn(seed):
    u0, u1 = itertools.islice(Splitmix64(seed).uniforms(), 2)
    p, q = -1.0 + 3.0 * u0, -1.0 + 3.0 * u1
    for min_sep, cap in ((abs(q - p), None), (0.0, abs(q - p))):
        box = functional_laws.SampleBox((-1.0, 1.0), (-1.0, 2.0), (-2.0, 2.0), min_sep, cap)
        assert functional_laws.draw_pair(box)(Splitmix64(seed).uniforms()) == (p, q)


def _box_reads(monkeypatch):
    """Every read of a SampleBox field that run_law's boxes see."""
    reads = []
    fields = {f.name for f in dataclasses.fields(functional_laws.SampleBox)}

    class CountingBox(functional_laws.SampleBox):
        def __getattribute__(self, name):
            if name in fields:
                reads.append(name)
            return super().__getattribute__(name)

    monkeypatch.setattr(functional_laws, "SampleBox", CountingBox)
    return reads


_LAW_CALLS = {
    "composition": lambda spec: check_composition(ff_evaluator(), spec),
    "boundary": lambda spec: check_boundary(ff_evaluator(), spec),
    "extension": lambda spec: check_extension(ff_evaluator(), spec),
    "lemma1": lambda spec: check_lemma1_equivalence(catalog.make_ode("free_fall")[0], spec),
    "angelesco": lambda spec: catalog.check_angelesco(spec),
    "angelesco-fixed": lambda spec: catalog.check_angelesco(spec, {"k": 1.5, "g": 2.0}),
    # a connection without a sampling box draws its points from the box's
    "klapka": lambda spec: check_klapka(
        GeodesicMap(dataclasses.replace(flat_connection(), sampling_box=None)), spec),
    "roundtrip": lambda spec: roundtrip_check(catalog.make_ode("free_fall")[0], spec=spec),
}


@pytest.mark.parametrize("law", sorted(_LAW_CALLS))
def test_a_law_call_reads_its_box_a_number_of_times_independent_of_count(monkeypatch, law):
    reads = _box_reads(monkeypatch)
    counts = []
    for count in (2, 7):
        del reads[:]
        _LAW_CALLS[law](SampleSpec(count=count, seed=4))
        counts.append(len(reads))
    assert counts[0] == counts[1] > 0
