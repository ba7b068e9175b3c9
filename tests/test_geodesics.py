"""Geodesic interpolation tests: flat and hyperbolic half-plane."""

import itertools
import math
import struct
import types

import numpy as np
import pytest

from febvp.functional_laws import SampleSpec
from febvp.geodesics import (
    Connection,
    GeodesicMap,
    check_klapka,
    connection_asymmetry,
    flat_connection,
    geodesic_ode,
    half_plane_connection,
    half_plane_geodesic_point,
    jensen_midpoint_check,
)


def test_flat_geodesics_are_straight_lines():
    gmap = GeodesicMap(flat_connection())
    a = np.array([0.4, -1.0])
    b = np.array([-0.6, 2.0])
    for rho in (0.0, 0.3, 0.5, 1.0, 1.7, -0.4):
        got = gmap.eval(a, b, rho)
        want = (1 - rho) * a + rho * b
        assert np.max(np.abs(got - want)) < 1e-10


def test_half_plane_christoffels():
    conn = half_plane_connection()
    g = conn.gamma(np.array([0.3, 2.0]))
    want = np.zeros((2, 2, 2))
    want[0, 0, 1] = want[0, 1, 0] = -0.5   # -1/y
    want[1, 0, 0] = 0.5                     # 1/y
    want[1, 1, 1] = -0.5                    # -1/y
    assert np.max(np.abs(g - want)) < 1e-15


def test_connections_are_symmetric():
    pts = [np.array([0.1, 1.5]), np.array([-0.4, 0.7])]
    assert connection_asymmetry(half_plane_connection(), pts) == 0.0
    assert connection_asymmetry(flat_connection(), pts) == 0.0


def test_geodesic_rhs_values():
    ode = geodesic_ode(half_plane_connection())
    f = ode.rhs(0.0, np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    # (2 u w / y, (w^2 - u^2) / y) at u=w=1, y=2
    assert abs(float(f[0]) - 1.0) < 1e-15
    assert abs(float(f[1]) - 0.0) < 1e-15


def test_half_plane_accel_has_the_einsum_bits():
    conn = half_plane_connection()
    ode = geodesic_ode(conn)
    assert ode.rhs1 is conn.accel
    comps = [0.0, -0.0, 0.7, -1.3, 1e-200, -2.5e-170, 3e150, 5e-324]
    ys = [0.5, 1.0, 2.0, 1e-300, -1.0, 3e200, math.inf, -math.inf]
    for y, v0, v1 in itertools.product(ys, comps, comps):
        with np.errstate(all="ignore"):
            want = ode.rhs(0.0, np.array([0.2, y]), np.array([v0, v1]))
        got = conn.accel(0.0, [0.2, y], [v0, v1])
        if np.all(np.isfinite(want)):
            assert [struct.pack("<d", f) for f in got] == [
                struct.pack("<d", f) for f in want.tolist()], (y, v0, v1)
        else:
            assert not all(map(math.isfinite, got)), (y, v0, v1)


def test_vertical_geodesic_is_geometric_mean():
    gmap = GeodesicMap(half_plane_connection())
    a = np.array([0.2, 1.0])
    b = np.array([0.2, math.e ** 2])
    mid = gmap.eval(a, b, 0.5)
    assert abs(float(mid[0]) - 0.2) < 1e-8
    assert abs(float(mid[1]) - math.e) < 1e-7


def test_half_plane_midpoint_semicircle():
    gmap = GeodesicMap(half_plane_connection())
    mid = gmap.eval([-0.3, 1.0], [0.3, 1.0], 0.5)
    assert abs(float(mid[0])) < 1e-8
    assert abs(float(mid[1]) - math.sqrt(1.09)) < 1e-8


def test_oracle_matches_solver():
    gmap = GeodesicMap(half_plane_connection())
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        a = np.array([rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)])
        b = np.array([rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0)])
        rho = rng.uniform(0.0, 1.0)
        got = gmap.eval(a, b, rho)
        want = half_plane_geodesic_point(a, b, rho)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-6


def test_oracle_endpoints_exact():
    a = np.array([-0.3, 1.0])
    b = np.array([0.4, 1.7])
    assert np.allclose(half_plane_geodesic_point(a, b, 0.0), a,
                       rtol=0, atol=1e-14)
    assert np.allclose(half_plane_geodesic_point(a, b, 1.0), b,
                       rtol=0, atol=1e-14)


def test_oracle_vertical_case():
    a = np.array([0.1, 0.5])
    b = np.array([0.1, 2.0])
    mid = half_plane_geodesic_point(a, b, 0.5)
    assert mid[0] == 0.1
    assert abs(float(mid[1]) - 1.0) < 1e-14  # geometric mean of 0.5 and 2


def test_oracle_rejects_lower_half():
    with pytest.raises(ValueError):
        half_plane_geodesic_point([0.0, -1.0], [1.0, 1.0], 0.5)


def test_klapka_flat():
    rep = check_klapka(GeodesicMap(flat_connection()),
                       SampleSpec(count=25, seed=3))
    assert rep.law_name == "klapka"
    assert rep.failures == 0
    assert rep.max_residual < 1e-12


def test_klapka_half_plane():
    rep = check_klapka(GeodesicMap(half_plane_connection()),
                       SampleSpec(count=10, seed=4))
    assert rep.failures == 0
    assert rep.max_residual < 1e-6


def test_klapka_detects_broken_map():
    # componentwise square-interpolation is not the geodesic map of the
    # flat connection's rebasing identity
    flat = GeodesicMap(flat_connection())

    def warped(a, b, rho):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        return (1 - rho) * a + rho * b + 0.05 * rho * (1 - rho) * (a - b) ** 2

    fake = types.SimpleNamespace(connection=flat.connection, eval=warped)
    rep = check_klapka(fake, SampleSpec(count=25, seed=5))
    assert rep.max_residual > 1e-3


def test_jensen_flat():
    rep = jensen_midpoint_check(GeodesicMap(flat_connection()),
                                SampleSpec(count=25, seed=6))
    assert rep.law_name == "jensen"
    assert rep.max_residual < 1e-12
    assert rep.failures == 0


def test_sampling_boxes_attached():
    assert list(half_plane_connection().sampling_box) == [(-0.5, 0.5),
                                                          (0.5, 2.0)]
    box = flat_connection().sampling_box
    assert len(box) == 2


def test_geodesic_ode_labels_connection():
    ode = geodesic_ode(half_plane_connection())
    assert ode.dim == 2
    assert "half" in ode.label


def test_connection_custom():
    conn = Connection(dim=1, gamma=lambda x: np.zeros((1, 1, 1)),
                      label="line", sampling_box=[(0.0, 1.0)])
    ode = geodesic_ode(conn)
    f = ode.rhs(0.0, np.array([0.3]), np.array([2.0]))
    assert float(f[0]) == 0.0
