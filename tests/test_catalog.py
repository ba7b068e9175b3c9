"""Named ODE families: registry lookups, domains, and the product identity."""

import math
import struct

import numpy as np
import pytest

from febvp import catalog
from febvp.catalog import (
    CATALOG,
    catalog_names,
    check_angelesco,
    closed_evaluator,
    get_entry,
    make_ode,
    numeric_evaluator,
    resolve_params,
    rhs_true,
)
from febvp.functional_laws import SampleSpec, Splitmix64, check_extension
from febvp.rhs_parser import bind, parse


def _bits(x: float) -> bytes:
    return struct.pack("<d", float(x))


# ------------------------------------------------------------------ registry

def test_catalog_names_sorted_and_complete():
    names = catalog_names()
    assert names == sorted(names)
    assert set(names) == {"free_fall", "conic", "linear_zero", "oscillator",
                          "linear_basis"}


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="free_fall"):
        get_entry("parabola")


def test_param_merge_and_validation():
    entry = get_entry("conic")
    merged = resolve_params(entry, {"k": 2.0})
    assert merged == {"k": 2.0, "g": -9.8}
    assert resolve_params(entry, None) == {"k": 1.0, "g": -9.8}
    with pytest.raises(ValueError, match="accepts"):
        resolve_params(entry, {"mass": 1.0})
    with pytest.raises(ValueError):
        resolve_params(get_entry("linear_zero"), {"g": 1.0})


def test_make_ode_returns_resolved_params():
    ode, params = make_ode("oscillator", {"omega": 2.0})
    assert params == {"omega": 2.0}
    assert ode.dim == 1
    got = ode.rhs(0.0, np.array([0.5]), np.array([0.0]))
    assert float(got[0]) == pytest.approx(-2.0)


# ------------------------------------------------------------- the rhs texts

def test_conic_rhs_matches_parsed_expression_bitwise():
    # the catalog writes the conic rhs exactly as `k ^ 2 * x + g`
    expr = parse("k^2 * x + g", params=("k", "g"))
    for k, g in [(1.0, -9.8), (0.7, 2.5), (2.0, 0.0)]:
        ode, _ = make_ode("conic", {"k": k, "g": g})
        bound = bind(expr, {"k": k, "g": g})
        rng = Splitmix64(17)
        for _ in range(200):
            tau = rng.uniform(-2.0, 2.0)
            x = rng.uniform(-3.0, 3.0)
            v = rng.uniform(-3.0, 3.0)
            ours = ode.rhs(tau, np.array([x]), np.array([v]))
            assert _bits(ours[0]) == _bits(bound(tau, x, v))


def test_conic_closed_forms_are_looked_up_at_each_call(monkeypatch):
    # a wrapper installed on catalog.conic_F / conic_S after the evaluator
    # is built still sees every call (the benchmark's tracer counts them)
    ev = closed_evaluator("conic", {"k": 0.5})
    calls = []
    for name in ("conic_F", "conic_S"):
        def counted(*args, name=name, fn=getattr(catalog, name)):
            calls.append(name)
            return fn(*args)
        monkeypatch.setattr(catalog, name, counted)
    check_extension(ev, SampleSpec(count=5, seed=1))
    assert calls.count("conic_F") == 5 and calls.count("conic_S") == 25


def test_rhs_true_values():
    f = rhs_true("conic", {"k": 1.5, "g": 2.0})
    assert float(np.atleast_1d(f(0.3, np.array([0.4]),
                                 np.array([0.0])))[0]) == \
        pytest.approx(1.5 ** 2 * 0.4 + 2.0)
    f = rhs_true("free_fall")
    assert float(np.atleast_1d(f(0.0, np.array([9.0]),
                                 np.array([9.0])))[0]) == -9.8
    f = rhs_true("linear_basis")
    assert float(np.atleast_1d(f(0.0, np.array([0.25]),
                                 np.array([1.0])))[0]) == -0.25


# ------------------------------------------------------------------- domains

def test_conic_domain_shrinks_with_stiffness():
    entry = get_entry("conic")
    wide = entry.domain({"k": 0.5, "g": 0.0})
    assert wide.tau_range == (-2.0, 2.0)
    mid = entry.domain({"k": 1.0, "g": 0.0})
    assert mid.tau_range == (-1.5, 1.5)
    tight = entry.domain({"k": 4.0, "g": 0.0})
    assert tight.tau_range == (-0.75, 0.75)
    assert tight.min_separation == 0.25


def test_oscillator_domain_stays_under_half_period():
    entry = get_entry("oscillator")
    dom = entry.domain({"omega": 1.0})
    assert dom.max_interval == pytest.approx(3.0)
    assert dom.max_interval < math.pi
    dom2 = entry.domain({"omega": 2.0})
    assert dom2.max_interval == pytest.approx(1.5)
    with pytest.raises(ValueError):
        entry.domain({"omega": 0.0})


# ---------------------------------------------------------------- evaluators

@pytest.mark.parametrize("name,overrides", [
    ("free_fall", None),
    ("conic", {"k": 0.8, "g": 1.5}),
    ("linear_zero", None),
    ("linear_basis", None),
])
def test_closed_and_numeric_evaluators_agree(name, overrides):
    closed = closed_evaluator(name, overrides)
    numeric = numeric_evaluator(name, overrides)
    assert closed.label.endswith("[closed]")
    assert numeric.label.endswith("[numeric]")
    rng = Splitmix64(23)
    lo, hi = closed.domain.alpha_beta_range or (-1.4, 1.4)
    tau_lo, tau_hi = closed.domain.tau_range or (lo, hi)
    for _ in range(10):
        alpha = rng.uniform(lo, hi)
        beta = rng.uniform(lo, hi)
        if abs(beta - alpha) < 0.3:
            continue
        a = np.array([rng.uniform(-1.0, 1.0)])
        b = np.array([rng.uniform(-1.0, 1.0)])
        tau = rng.uniform(tau_lo, tau_hi)
        want = closed.eval_f(tau, alpha, beta, a, b)
        got = numeric.eval_f(tau, alpha, beta, a, b)
        assert float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) \
            <= 1e-8


def test_oscillator_has_no_closed_form():
    with pytest.raises(ValueError, match="closed"):
        closed_evaluator("oscillator")


def test_numeric_oscillator_interval_capped():
    ev = numeric_evaluator("oscillator", {"omega": 2.0})
    assert ev.domain.max_interval == pytest.approx(1.5)


# ----------------------------------------------------------- product law run

def test_angelesco_pinned_family():
    report = check_angelesco(SampleSpec(count=30, seed=7),
                             params={"k": 1.0, "g": -9.8})
    assert report.failures == 0
    assert report.max_residual <= 1e-10


def test_angelesco_free_family():
    report = check_angelesco(SampleSpec(count=30, seed=9))
    assert report.failures == 0
    assert report.max_residual <= 1e-10


def test_angelesco_deterministic():
    spec = SampleSpec(count=12, seed=4)
    assert check_angelesco(spec).to_json() == check_angelesco(spec).to_json()


def test_angelesco_evaluates_five_members_per_sample(monkeypatch):
    # the scale reuses the five values the residual read
    calls = []
    real = catalog.conic_F

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(catalog, "conic_F", counted)
    report = check_angelesco(SampleSpec(count=4, seed=9))
    assert report.failures == 0
    assert len(calls) == 20


def test_angelesco_pair_draws_follow_the_documented_stream():
    # Draw order per sample: k; g; then (alpha, beta) by whole-pair
    # rejection.  In [0, 0.3] with min_separation 0.2 about eight pairs in
    # nine are rejected, so this pins the rejection loop's stream.
    for seed in range(20):
        spec = SampleSpec(count=1, seed=seed, alpha_beta_range=(0.0, 0.3),
                          min_separation=0.2)
        rng = Splitmix64(seed)
        rng.uniform(0.25, 2.0)
        rng.uniform(*spec.ab_range)
        alpha, beta = rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3)
        while abs(beta - alpha) < 0.2:
            alpha, beta = rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.3)
        case = check_angelesco(spec).worst_case
        assert (case["alpha"], case["beta"]) == (alpha, beta)


def test_angelesco_unsatisfiable_range_raises():
    with pytest.raises(ValueError, match="1000 attempts"):
        check_angelesco(SampleSpec(count=1, seed=0,
                                   alpha_beta_range=(0.0, 0.01)))


def test_angelesco_non_finite_member_is_a_configuration_error():
    # raised by the draw, before any residual, so it is not counted as a
    # sample failure
    with pytest.raises(ValueError, match="finite"):
        check_angelesco(SampleSpec(count=3, seed=0), {"k": math.inf,
                                                      "g": 0.0})
