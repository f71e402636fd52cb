"""Geometry layer (curves, quadrature grids) and the geometry oracles of oracles.py."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenrestrict import geometry as geo
from eigenrestrict import harmonics as ha
from oracles import (distance_gradient_check, exp_map, polar_pair_grid,
                     sphere_distance, sphere_grid, tangent_basis, zonal_gl_grid)


def random_unit(rng, dim):
    v = rng.standard_normal(dim + 1)
    return v / np.linalg.norm(v)


def random_tangent(rng, x):
    v = rng.standard_normal(x.size)
    v -= np.dot(v, x) * x
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- distances

def test_distance_basics():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert sphere_distance(e1, e1) == 0.0
    assert math.isclose(sphere_distance(e1, e2), math.pi / 2, abs_tol=1e-15)
    assert math.isclose(sphere_distance(e1, -e1), math.pi, abs_tol=1e-12)


def test_distance_rejects_bad_input():
    e1 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        sphere_distance(e1, np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        sphere_distance(e1, np.array([0.5, 0.0, 0.0]))


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]))
def test_triangle_inequality(seed, dim):
    rng = np.random.default_rng(seed)
    x, y, z = (random_unit(rng, dim) for _ in range(3))
    assert sphere_distance(x, z) <= (sphere_distance(x, y)
                                     + sphere_distance(y, z) + 1e-12)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 3.0), st.sampled_from([2, 3]))
def test_exp_map_radial_distance(seed, r, dim):
    rng = np.random.default_rng(seed)
    x = random_unit(rng, dim)
    v = random_tangent(rng, x)
    y = exp_map(x, r * v)
    assert math.isclose(np.linalg.norm(y), 1.0, abs_tol=1e-12)
    # arccos conditioning near the endpoints limits this to ~1e-7
    assert abs(sphere_distance(x, y) - r) < 1e-6


def test_exp_map_zero_and_tangency():
    x = np.array([0.0, 0.0, 1.0])
    assert np.allclose(exp_map(x, np.zeros(3)), x)
    with pytest.raises(ValueError):
        exp_map(x, np.array([0.0, 0.0, 0.3]))  # not tangent


def test_tangent_basis_orthonormal():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = random_unit(rng, 2)
        u1, u2 = tangent_basis(x)
        gram = np.array([[u1 @ u1, u1 @ u2, u1 @ x],
                         [u2 @ u1, u2 @ u2, u2 @ x]])
        assert np.allclose(gram, [[1, 0, 0], [0, 1, 0]], atol=1e-13)


# ------------------------------------------------------------------- curves

def test_curve_constructors_and_measures():
    eq = geo.equator()
    assert (eq.ambient_dim, eq.dim, eq.curved) == (2, 1, False)
    assert eq.length == 2 * math.pi
    lat = geo.LatitudeCircle(math.pi / 4)
    assert math.isclose(lat.length, 2 * math.pi * math.sin(math.pi / 4))
    assert (lat.ambient_dim, lat.dim, lat.curved) == (2, 1, True)
    sub = geo.GreatSubsphere()
    assert (sub.ambient_dim, sub.dim, sub.curved) == (3, 2, False)
    assert not hasattr(sub, "length")  # a surface: area, not length


def test_equator_is_the_latitude_circle_at_half_pi():
    # height and curvature exactly 0.0: the same bits as cos(s), sin(s), 0
    eq = geo.LatitudeCircle(math.pi / 2)
    s = np.linspace(0.0, 7.0, 29)
    pts = eq.points(s)
    assert np.array_equal(pts, np.column_stack([np.cos(s), np.sin(s), np.zeros(s.size)]))
    assert np.all(pts[:, 2] == 0.0)
    assert eq.curvature == 0.0 and not eq.curved
    assert np.array_equal(geo.equator().points(s), pts)
    # the colatitude is kept exactly as given
    assert geo.LatitudeCircle(1.5707963267948966).colatitude == 1.5707963267948966


def test_curve_validation_errors():
    with pytest.raises(ValueError):
        geo.LatitudeCircle(0.0)
    with pytest.raises(ValueError):
        geo.LatitudeCircle(2.0)  # past the equator
    with pytest.raises(ValueError, match="colatitude in"):
        geo.LatitudeCircle(math.nan)


def test_curve_points_on_sphere_and_periodic():
    for curve in (geo.equator(), geo.LatitudeCircle(0.9)):
        s = np.linspace(0.0, 2 * curve.length, 37)
        pts = curve.points(s)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-13)
        wrapped = curve.points(s + curve.length)
        assert np.allclose(pts, wrapped, atol=1e-12)


@settings(deadline=None, max_examples=40)
@given(st.floats(0.15, 1.55), st.floats(0.0, 6.0), st.floats(0.0, 6.0))
def test_latitude_chord_closed_form(theta0, s1, s2):
    # cos d(gamma(s1), gamma(s2)) = sin^2 t0 cos((s1-s2)/sin t0) + cos^2 t0
    curve = geo.LatitudeCircle(theta0)
    x, y = curve.points([s1, s2])
    st_, ct = math.sin(theta0), math.cos(theta0)
    want = st_**2 * math.cos((s1 - s2) / st_) + ct**2
    assert math.isclose(math.cos(sphere_distance(x, y)), want, abs_tol=1e-12)


def test_latitude_curvature_values():
    assert geo.equator().curvature == 0.0
    assert math.isclose(geo.LatitudeCircle(math.pi / 4).curvature, 1.0)
    assert geo.LatitudeCircle(0.6).curvature == 1.0 / math.tan(0.6)


# ---------------------------------------------------------- gradient identity

def test_distance_gradient_identity_batch():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        x = random_unit(rng, 2)
        omega = random_tangent(rng, x)
        r = rng.uniform(0.05, math.pi / 2 - 0.05)
        worst = max(worst, distance_gradient_check(x, r, omega))
    assert worst < 1e-6


def test_distance_gradient_rejects_bad_config():
    x = np.array([0.0, 0.0, 1.0])
    omega = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        distance_gradient_check(x, 2.0, omega)  # r past pi/2
    with pytest.raises(ValueError):
        distance_gradient_check(x, 0.5, np.array([0.0, 0.0, 1.0]))


# ------------------------------------------------------------------- grids

def test_sphere_grid_total_measure():
    nodes, weights = sphere_grid(48)
    assert math.isclose(float(np.sum(weights)), 4 * math.pi, rel_tol=1e-13)
    assert np.allclose(np.linalg.norm(nodes, axis=1), 1.0, atol=1e-13)


def test_reduced_grids_total_measure():
    _, zonal_weights = zonal_gl_grid(np.array([0.0, 0.0, 1.0]), 40)
    assert math.isclose(float(np.sum(zonal_weights)), 4 * math.pi, rel_tol=1e-13)
    _, pair_weights = polar_pair_grid(40)
    assert math.isclose(float(np.sum(pair_weights)), 2 * math.pi**2, rel_tol=1e-13)


def test_polar_pair_grid_closed_form():
    # integral over S^3 of |x1 + i x2|^(2n) equals 2 pi^2 / (n+1)
    for n in (1, 4, 9):
        nodes, weights = polar_pair_grid(2 * n + 8)
        vals = (nodes[:, 0] ** 2 + nodes[:, 1] ** 2) ** n
        got = float(np.sum(weights * vals))
        assert math.isclose(got, 2 * math.pi**2 / (n + 1), rel_tol=1e-12)


def test_sphere_grid_spectral_exactness():
    # a degree-12 harmonic integrates to zero on a grid resolving degree 12
    nodes, weights = sphere_grid(40)
    vals = ha.Zonal(2, 12, np.array([0.6, 0.0, 0.8]))(nodes)
    assert abs(float(np.sum(weights * vals))) < 1e-11


@pytest.mark.parametrize("n", [4, 17, 64])
def test_gauss_legendre_integrates_even_powers_exactly(n):
    x, w = geo.gauss_legendre(n)
    for k in range(n):  # degree 2k <= 2n - 1
        got = float(np.sum(w * x ** (2 * k)))
        assert math.isclose(got, 2.0 / (2 * k + 1), rel_tol=1e-13), (n, k)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 16, 17, 63, 64])
def test_gauss_legendre_nodes_match_leggauss(n):
    x, w = geo.gauss_legendre(n)
    xr, wr = np.polynomial.legendre.leggauss(n)
    assert np.all(np.diff(x) > 0.0)
    assert np.max(np.abs(x - xr)) <= 4e-16
    # leggauss's own endpoint weights are off by ~1e-12 at n = 64
    assert np.allclose(w, wr, rtol=1e-11, atol=0.0)


def test_gauss_legendre_endpoint_weights_at_large_n():
    # ((1 + x)/2)^(2n-1) has degree 2n - 1 and integrates to 1/n; nearly all
    # of it sits on the nodes closest to x = 1, so this checks those weights
    # (leggauss is off by 4e-11 here)
    n = 2064
    x, w = geo.gauss_legendre(n)
    got = float(np.sum(w * ((1.0 + x) / 2.0) ** (2 * n - 1)))
    assert math.isclose(got, 1.0 / n, rel_tol=1e-12)
    assert math.isclose(float(np.sum(w)), 2.0, rel_tol=1e-14)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


@pytest.mark.parametrize("n, want", [(530, 2.636793222802492756555892e-5),
                                     (2064, 1.741079432234948965125192e-6)])
def test_gauss_legendre_outermost_weight(n, want):
    # 45-digit reference (Newton on the recurrence in mpmath); leggauss is
    # off by 1e-9 and 3e-8 here
    assert math.isclose(float(geo.gauss_legendre(n)[1][-1]), want, rel_tol=2e-14)


def test_gauss_legendre_repeat_is_shared_and_read_only():
    # a repeat call hands back the memoised rule, bit for bit what a fresh
    # computation gives; since every caller shares it, writing raises
    x, w = geo.gauss_legendre(37)
    again = geo.gauss_legendre(37)
    fresh = geo.gauss_legendre.__wrapped__(37)
    for got, want in zip((x, w), fresh):
        assert got.tobytes() == want.tobytes()
    assert again[0] is x and again[1] is w
    for arr in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_sphere_grid_rejects_tiny_resolution():
    with pytest.raises(ValueError):
        sphere_grid(3)
