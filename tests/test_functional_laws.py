"""Sampling harness and law-check tests.

The splitmix64 outputs for seed 0 are the reference values of the
published algorithm (Steele/Lea/Flood), frozen here as the PRNG oracle.
"""

import json
import math
import signal
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as hst

from febvp import catalog
from febvp.bvp_shooting import DEFAULT_SHOOTING, ShootingConfig
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
from febvp.ode_core import IntegratorConfig, SecondOrderOde

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
@given(seed=_seeds, calls=hst.lists(hst.booleans(), max_size=300),
       lo=hst.floats(-10.0, 10.0), width=hst.floats(0.0, 10.0))
def test_block_draws_follow_the_plain_int_stream(seed, calls, lo, width):
    # calls: True is a uniform draw, False a next_u64; runs longer than
    # DRAW_BLOCK cross the 64/65 boundary of the block uniform pops from.
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
    """fn, asserting that every call receives floats and (1,) float arrays."""
    def call(t, al, be, a, x):
        assert all(type(arg) is float for arg in (t, al, be))
        for arr in (a, x):
            assert type(arr) is np.ndarray and arr.shape == (1,)
            assert arr.dtype == np.float64
        return fn(t, al, be, a, x)

    return call


@hst.composite
def _scalar_maps(draw):
    f, s = _forms(draw)
    faults = hst.sampled_from([None, "raise", math.nan, math.inf, -math.inf])
    cut = hst.floats(-2.0, 2.0)
    return (_faulty(f, draw(faults), draw(cut)),
            _faulty(s, draw(faults), draw(cut)))


@settings(max_examples=60, deadline=None)
@given(maps=_scalar_maps(), count=hst.integers(1, 25),
       seed=hst.integers(0, 2 ** 64 - 1),
       ab_range=hst.sampled_from([(-2.0, 2.0), (-1e3, 1e3), (-1e308, 1e308)]))
def test_float_harness_matches_the_numpy_path(maps, count, seed, ab_range):
    # evaluator_from_scalar returns the map's floats, which the harness
    # keeps as floats; the same map returning (1,) arrays goes through
    # the NumPy conversion.  Every report must agree to the byte.
    f, s = maps
    floats = evaluator_from_scalar(f, s)
    arrays = DependenceEvaluator(
        dim=1,
        eval_f=lambda t, al, be, a, b: np.array([f(t, al, be, float(a[0]), float(b[0]))]),
        eval_s=lambda t, al, be, a, v: np.array([s(t, al, be, float(a[0]), float(v[0]))]))
    spec = SampleSpec(count=count, seed=seed, ab_range=ab_range)
    for check in (check_composition, check_boundary, check_extension):
        docs = []
        for ev in (floats, arrays):
            checked = DependenceEvaluator(dim=1, eval_f=_checking_inputs(ev.eval_f),
                                          eval_s=_checking_inputs(ev.eval_s))
            reports = check(checked, spec)
            reports = reports if isinstance(reports, list) else [reports]
            docs.append(json.dumps([r.to_json() for r in reports]))
        assert docs[0] == docs[1]
