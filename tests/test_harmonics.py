"""Eigenfunction families: normalization, recurrences, eigenvalue equation."""

import math
from fractions import Fraction

import numpy as np
import pytest

from eigenrestrict import geometry as geo
from eigenrestrict import harmonics as ha
from eigenrestrict.profiles import unit_bump
from eigenrestrict.restriction import lp_norm_weighted
from oracles import exp_map, polar_pair_grid, sphere_grid, zonal_gl_grid

Z_AXIS = np.array([0.0, 0.0, 1.0])


def l2_norm(f, grid):
    nodes, weights = grid
    return lp_norm_weighted(f(nodes), weights, 2)


def s3_zonal_grid(pole, normal, m):
    """m midpoint nodes in the angle chi from `pole` toward `normal` on S^3.

    For f depending only on t = <x, pole>, int_{S^3} f = 4 pi int_0^pi
    f(cos chi) sin^2(chi) dchi.  There U_n(cos chi) sin(chi) = sin((n+1) chi),
    so |U_n|^2 sin^2 is 1/2 minus half a cosine of frequency 2(n+1), which
    the rule integrates exactly unless m divides n + 1.
    """
    chi = math.pi * (np.arange(m) + 0.5) / m
    nodes = np.outer(np.cos(chi), pole) + np.outer(np.sin(chi), normal)
    return nodes, 4.0 * math.pi**2 / m * np.sin(chi) ** 2


def lb_residual(f, x, dim, h=2e-4):
    """|Laplace-Beltrami f + lambda^2 f| at x via normal-coordinate stencil.

    In normal coordinates the Christoffel symbols vanish at the center, so
    the metric Laplacian is the flat second-difference sum over an
    orthonormal tangent frame, up to O(h^2).
    """
    x = geo.as_unit_vector(x)
    frame = []
    for e in np.eye(dim + 1):
        v = e - np.dot(e, x) * x
        nv = np.linalg.norm(v)
        if nv > 1e-6:
            v = v / nv
            for u in frame:
                v -= np.dot(v, u) * u
                nv = np.linalg.norm(v)
                if nv < 1e-6:
                    break
                v = v / nv
            else:
                frame.append(v)
        if len(frame) == dim:
            break
    lap = 0.0
    fx = complex(f(x))
    for u in frame:
        fp = complex(f(exp_map(x, h * u)))
        fm = complex(f(exp_map(x, -h * u)))
        lap += (fp + fm - 2.0 * fx) / h**2
    lam2 = f.eigenvalue**2
    return abs(lap + lam2 * fx) / (lam2 * max(abs(fx), 1e-12))


# ------------------------------------------------------------- scalar bases

def test_eigenvalue_values():
    assert ha.eigenvalue(2, 10) == math.sqrt(110.0)
    assert ha.eigenvalue(3, 7) == math.sqrt(63.0)
    with pytest.raises(ValueError):
        ha.eigenvalue(2, -1)


def legendre_p(n, t):
    """P_n(t) = sqrt(2/(2n+1)) P-hat_n^0(t)."""
    return math.sqrt(2.0 / (2 * n + 1)) * ha.assoc_legendre_norm(n, 0, t)


def test_legendre_and_gegenbauer_closed_forms():
    t = np.linspace(-1.0, 1.0, 31)
    assert np.allclose(legendre_p(2, t), 0.5 * (3 * t**2 - 1), atol=1e-14)
    assert np.allclose(legendre_p(9, np.array([1.0])), 1.0)


# Exact references: every float t is a dyadic rational a/d, so d^k U_k(t) and
# k! d^k P_k(t) obey three-term recurrences in integers; the Fraction built
# from the last term is the exact polynomial value.

def exact_chebyshev_u(n, t):
    a, d = Fraction(t).as_integer_ratio()
    prev, cur = 1, (2 * a if n else 1)
    for _ in range(1, n):
        prev, cur = cur, 2 * a * cur - d * d * prev
    return Fraction(cur, d**n)


def exact_legendre_p(n, t):
    a, d = Fraction(t).as_integer_ratio()
    prev, cur = 1, (a if n else 1)
    for k in range(1, n):
        prev, cur = cur, (2 * k + 1) * a * cur - k * k * d * d * prev
    return Fraction(cur, math.factorial(n) * d**n)


ORACLE_POINTS = np.array([-1.0, np.nextafter(-1.0, 0.0), -0.3, 0.0,
                          np.nextafter(1.0, 0.0), 1.0])


def _points_at(t, dim):
    """Points of S^dim whose inner product with e_{dim+1} is exactly t."""
    t = np.asarray(t, dtype=float)
    rest = np.zeros((t.size, dim - 1))
    return np.column_stack([np.sqrt(1.0 - t**2), rest, t])


# ORACLE_POINTS plus seeded random t; the exact references take a few
# seconds at n = 4096, so only a handful
_ZONAL_POINTS = np.concatenate([ORACLE_POINTS,
                                np.random.default_rng(7).uniform(-1.0, 1.0, 4)])


@pytest.mark.parametrize("dim, exact", [(2, exact_legendre_p), (3, exact_chebyshev_u)],
                         ids=["s2-legendre", "s3-chebyshev"])
@pytest.mark.parametrize("n", [0, 1, 9, 256, 1024, 4096])
def test_zonal_series_matches_exact_polynomials(dim, exact, n):
    # the Gegenbauer series by Horner in e^{-2 i theta} has positive terms,
    # so its error stays within ~ n eps of the pole value: no n^2 eps drift
    f = ha.Zonal(dim, n, np.eye(dim + 1)[dim])
    const = math.sqrt((2 * n + 1) / (4 * math.pi)) if dim == 2 else 1 / math.sqrt(2 * math.pi**2)
    pole_value = const * float(exact(n, 1.0))
    want = np.array([const * float(exact(n, t)) for t in _ZONAL_POINTS])
    err = np.max(np.abs(f(_points_at(_ZONAL_POINTS, dim)) - want))
    assert err <= 4 * (n + 1) * np.finfo(float).eps * pole_value


@pytest.mark.parametrize("n", [0, 1, 9, 256, 1024])
def test_normalized_legendre_matches_exact_recurrence(n):
    want = np.array([float(exact_legendre_p(n, t)) for t in ORACLE_POINTS])
    assert np.max(np.abs(legendre_p(n, ORACLE_POINTS) - want)) <= 1e-11


def test_assoc_legendre_low_order_closed_form():
    # fully normalized (integral of square over [-1, 1] is 1) with the
    # Condon-Shortley sign (-1)^m
    t = np.linspace(-0.99, 0.99, 11)
    want = -math.sqrt(0.75) * np.sqrt(1 - t**2)
    assert np.allclose(ha.assoc_legendre_norm(1, 1, t), want, atol=1e-14)
    want0 = math.sqrt(2.5) * 0.5 * (3 * t**2 - 1)
    assert np.allclose(ha.assoc_legendre_norm(2, 0, t), want0, atol=1e-14)


def test_assoc_legendre_unit_mass_and_orthogonality():
    nodes, weights = geo.gauss_legendre(80)
    for (n, m) in ((5, 3), (12, 7), (20, 0), (20, 20)):
        vals = ha.assoc_legendre_norm(n, m, nodes)
        assert math.isclose(float(np.sum(weights * vals**2)), 1.0, rel_tol=1e-12)
    v1 = ha.assoc_legendre_norm(14, 4, nodes)
    v2 = ha.assoc_legendre_norm(18, 4, nodes)
    assert abs(float(np.sum(weights * v1 * v2))) < 1e-12


def test_assoc_legendre_batched_scan_matches_single_m():
    t0 = math.cos(math.pi / 4)
    n = 37
    row = ha.assoc_legendre_norm(n, np.arange(n + 1), t0)
    for m in (0, 1, 11, 19, 30, 37):
        single = float(ha.assoc_legendre_norm(n, m, np.array([t0]))[0])
        assert math.isclose(row[m], single, rel_tol=1e-11, abs_tol=1e-13)


def _whole_row_reference(n, orders, t0):
    """The row stepped over every order at every k, unstarted ones held by a
    mask: the loop the live-prefix row replaced, kept as its reference."""
    p = ha._diag_rescaled(int(orders.max()))[orders].copy()
    p_prev, offset = np.zeros(orders.size), np.zeros(orders.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(int(orders.min()) + 1, n + 1):
            a = np.sqrt((4.0 * k * k - 1.0) / (k * k - orders * orders))
            b = np.sqrt((2.0 * k + 1.0) * (k - 1.0 - orders) * (k - 1.0 + orders)
                        / ((2.0 * k - 3.0) * (k - orders) * (k + orders)))
            live = orders < k
            new = a * t0 * p - b * p_prev
            p, p_prev = np.where(live, new, p), np.where(live, p, p_prev)
            hot = np.abs(p) > ha._BIG
            p, p_prev = np.where(hot, p / ha._BIG, p), np.where(hot, p_prev / ha._BIG, p_prev)
            offset = np.where(hot, offset + ha._LOG_BIG, offset)
        logs = offset + np.where(orders > 0, orders * math.log(math.sqrt(1.0 - t0**2)), 0.0)
    return p * np.exp(logs)


@pytest.mark.parametrize("n", [32, 128, 1024])
@pytest.mark.parametrize("theta0", [0.3, math.pi / 4, 1.5])
def test_assoc_legendre_row_is_bitwise_the_whole_row_loop(n, theta0):
    t0 = math.cos(theta0)
    for orders in (np.arange(n + 1), np.arange((n + 1) // 2, n + 1), np.array([2, 5, 5, n])):
        assert np.array_equal(ha.assoc_legendre_norm(n, orders, t0),
                              _whole_row_reference(n, orders, t0))


@pytest.mark.parametrize("orders, t", [
    (np.array([3, 2]), 0.5),                 # not ascending
    (np.array([[1, 2]]), 0.5),               # not 1-d
    (np.array([], dtype=int), 0.5),          # empty
    (np.array([1, 2]), np.array([0.5])),     # t is not a scalar
])
def test_assoc_legendre_order_array_form_is_narrow(orders, t):
    with pytest.raises(ValueError, match="order array"):
        ha.assoc_legendre_norm(8, orders, t)


def test_recurrence_stable_at_large_degree():
    t0 = math.cos(math.pi / 4)
    big = ha.assoc_legendre_norm(4096, 2048, np.array([t0]))
    assert np.isfinite(big).all()
    row = ha.assoc_legendre_norm(4096, np.arange(4097), t0)
    assert np.isfinite(row).all()
    assert np.max(np.abs(row)) < 1e3  # normalized values stay moderate


def test_order_zero_is_bounded_by_its_endpoint_value():
    # |P-hat_n^0| <= sqrt((2n+1)/2) on [-1, 1], attained at t = 1: why order
    # 0 there never needs the large-value rescaling (the recurrence's own
    # roundoff reaches 2e-10 relative at n = 4096)
    t = np.cos(np.linspace(0.0, math.pi, 2001))
    for n in (1, 64, 4096):
        vals = ha.assoc_legendre_norm(n, 0, t)
        bound = math.sqrt((2 * n + 1) / 2)
        assert np.max(np.abs(vals)) <= bound * (1.0 + 1e-9)
        assert math.isclose(vals[0], bound, rel_tol=1e-9)
    # off [-1, 1] it grows like (3 + sqrt(8))^n at t = 3, past the rescale
    # threshold, and still matches the Legendre series
    want = math.sqrt(401 / 2) * np.polynomial.legendre.legval(3.0, [0.0] * 200 + [1.0])
    assert want > 1e150
    assert math.isclose(ha.assoc_legendre_norm(200, 0, np.array([3.0]))[0], want,
                        rel_tol=1e-12)


# ------------------------------------------------------------ sphere families

def test_zonal_pole_value_and_norm():
    pole = np.array([0.0, 0.0, 1.0])
    z10 = ha.Zonal(2, 10, pole)
    assert math.isclose(abs(complex(z10(pole))), math.sqrt(21.0 / (4 * math.pi)),
                        rel_tol=1e-13)
    assert math.isclose(l2_norm(z10, zonal_gl_grid(pole, 2 * 10 + 16)),
                        1.0, rel_tol=1e-12)
    # reduced meridian rule agrees with the full product grid
    full = l2_norm(z10, sphere_grid(2 * 10 + 16))
    assert math.isclose(full, 1.0, rel_tol=1e-12)


def test_zonal_s3_pole_value_and_norm():
    pole = np.array([1.0, 0.0, 0.0, 0.0])
    z6 = ha.Zonal(3, 6, pole)
    assert math.isclose(abs(complex(z6(pole))), 7.0 / math.sqrt(2 * math.pi**2),
                        rel_tol=1e-13)
    assert math.isclose(l2_norm(z6, s3_zonal_grid(pole, np.eye(4)[1], 2 * 6 + 16)),
                        1.0, rel_tol=1e-12)


def test_zonal_checks_its_sphere_when_built():
    with pytest.raises(ValueError, match="S\\^2 and S\\^3"):
        ha.Zonal(4, 6, np.eye(5)[0])
    with pytest.raises(ValueError, match="pole dimension"):
        ha.Zonal(3, 6, Z_AXIS)


def test_pole_value_growth_rate():
    # |Z_n(pole)| grows like sqrt((2n+1)/4pi) ~ n^(1/2) on S^2
    pole = np.array([0.0, 0.0, 1.0])
    for n in (16, 64, 256):
        z = ha.Zonal(2, n, pole)
        want = math.sqrt((2 * n + 1) / (4 * math.pi))
        assert math.isclose(abs(complex(z(pole))), want, rel_tol=1e-12)


def test_assoc_harmonic_frozen_value_and_conjugation():
    pts = geo.equator().points(np.array([0.3, 1.1]))
    y11 = ha.AssocHarmonic(1, 1)
    assert np.allclose(np.abs(y11(pts)), math.sqrt(3 / (8 * math.pi)), atol=1e-14)
    ym = ha.AssocHarmonic(7, -3)
    yp = ha.AssocHarmonic(7, 3)
    assert np.allclose(ym(pts), (-1) ** 3 * np.conj(yp(pts)), atol=1e-13)
    with pytest.raises(ValueError):
        ha.AssocHarmonic(4, 6)


def test_assoc_harmonic_norm_full_grid():
    y = ha.AssocHarmonic(12, 5)
    assert math.isclose(l2_norm(y, sphere_grid(40)), 1.0,
                        rel_tol=1e-12)


def test_highest_weight_norms_and_values():
    e8 = ha.HighestWeight(2, 8)
    assert math.isclose(l2_norm(e8, zonal_gl_grid(Z_AXIS, 2 * 8 + 16)),
                        1.0, rel_tol=1e-12)
    assert math.isclose(l2_norm(e8, sphere_grid(2 * 8 + 16)),
                        1.0, rel_tol=1e-12)
    s3 = ha.HighestWeight(3, 8)
    assert math.isclose(l2_norm(s3, polar_pair_grid(2 * 8 + 16)),
                        1.0, rel_tol=1e-12)
    # closed form: |e_n|^2 integrates |x1+ix2|^(2n), total 2 pi^2/(n+1) on S^3
    x = np.array([1.0, 0.0, 0.0, 0.0])
    assert math.isclose(abs(complex(s3(x))), math.sqrt(9.0 / (2 * math.pi**2)),
                        rel_tol=1e-12)


# log Gamma(x + 1/2) - log Gamma(x) and log c_{n,2} = -(1/2) log(2 pi^{3/2}
# n! / Gamma(n + 3/2)) to 30 digits (mpmath at 40 digits); hard-coded so that
# the check needs no arbitrary-precision library
HALF_RATIO_30 = {0.5: -0.572364942924700087071713675677,
                 3.0: 0.507826421787128915398789759993,
                 7.5: 0.99079712430668134500716340391,
                 8.0: 1.02410589623558341157160904478,
                 100.5: 2.30383508778586858882808066713,
                 4097.0: 4.15897462864414832509880827548,
                 12289.0: 4.70821974444403467671033312405,
                 1e6: 6.90775515398213705205918269739}
HW2_LOG_CONST_30 = {0: -1.26551212348464539648894579713,
                    5: -0.767585846129475018178980885341,
                    4096: 0.874366309655051377233217563497,
                    8192: 1.04763021940511327650382495807}


@pytest.mark.parametrize("x", sorted(HALF_RATIO_30))
def test_log_gamma_half_ratio_matches_30_digit_values(x):
    # on both sides of the switch to the series at x = 8; two lgamma calls
    # at x = 12289 (each near 1.0e5) leave about 1e-11 of the difference
    assert math.isclose(ha.log_gamma_half_ratio(x), HALF_RATIO_30[x],
                        rel_tol=4e-15, abs_tol=4e-15)


@pytest.mark.parametrize("n", sorted(HW2_LOG_CONST_30))
def test_highest_weight_s2_const_matches_30_digit_values(n):
    # 2 lgamma(n + 1) - lgamma(2n + 2) would cancel to about 1.6e-12 at n = 4096
    assert math.isclose(ha.highest_weight_log_const(2, n), HW2_LOG_CONST_30[n],
                        rel_tol=4e-15, abs_tol=4e-15)


def test_highest_weight_vanishes_off_torus_axis():
    e5 = ha.HighestWeight(2, 5)
    assert abs(complex(e5(np.array([0.0, 0.0, 1.0])))) == 0.0


def test_orthogonality_across_families():
    nodes, weights = sphere_grid(56)
    z = ha.Zonal(2, 12, np.array([0.0, 0.0, 1.0]))
    e = ha.HighestWeight(2, 12)
    y = ha.AssocHarmonic(12, 5)
    zi = z(nodes)
    for other in (e(nodes), y(nodes)):
        inner = float(np.abs(np.sum(weights * zi * np.conj(other))))
        assert inner < 1e-12


# --------------------------------------------------------- eigenvalue equation

@pytest.mark.parametrize("family,dim", [
    (lambda: ha.Zonal(2, 8, np.array([0.6, 0.0, 0.8])), 2),
    (lambda: ha.Zonal(2, 64, np.array([0.0, 0.0, 1.0])), 2),
    (lambda: ha.Zonal(3, 16, np.array([0.5, 0.5, 0.5, 0.5])), 3),
    (lambda: ha.AssocHarmonic(5, 3), 2),
    (lambda: ha.HighestWeight(2, 20), 2),
    (lambda: ha.HighestWeight(3, 12), 3),
])
def test_laplace_beltrami_eigen_equation(family, dim):
    f = family()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(4):
        x = rng.standard_normal(dim + 1)
        x /= np.linalg.norm(x)
        if abs(complex(f(x))) < 1e-3:   # stay away from nodal sets
            continue
        worst = max(worst, lb_residual(f, x, dim))
    assert worst < 1e-3


def test_averaged_beam_is_harmonic_and_normalized():
    u16 = ha.Averaged(16, 0.9)
    assert math.isclose(l2_norm(u16, sphere_grid(2 * 16 + 16)),
                        1.0, rel_tol=1e-12)
    x = geo.equator().points(0.4)[0]
    assert lb_residual(u16, x, 2) < 1e-4


# ------------------------------------------- closed-form norms vs quadrature
# The sweeps divide by `l2_norm`; each check integrates |f|^2 on a geometry
# grid that is exact for the family (reduced grids use its symmetry).

@pytest.mark.parametrize("n", [16, 64, 128])
def test_averaged_l2_norm_matches_full_sphere_quadrature(n):
    u = ha.Averaged(n, 0.9)
    grid = sphere_grid(2 * n + 16)
    assert math.isclose(l2_norm(u, grid), u.l2_norm, rel_tol=1e-12)


@pytest.mark.parametrize("family,grid,rel_tol", [
    (lambda: ha.Zonal(2, 37, Z_AXIS), lambda: zonal_gl_grid(Z_AXIS, 90), 1e-12),
    (lambda: ha.Zonal(2, 1024, Z_AXIS), lambda: zonal_gl_grid(Z_AXIS, 2064), 1e-10),
    (lambda: ha.Zonal(3, 41, np.array([0.5, 0.5, 0.5, 0.5])),
     lambda: s3_zonal_grid(np.array([0.5, 0.5, 0.5, 0.5]),
                           np.array([0.5, -0.5, 0.5, -0.5]), 98), 1e-12),
    (lambda: ha.HighestWeight(2, 45), lambda: zonal_gl_grid(Z_AXIS, 106), 1e-12),
    (lambda: ha.HighestWeight(3, 45), lambda: polar_pair_grid(106), 1e-12),
    (lambda: ha.AssocHarmonic(40, 17), lambda: zonal_gl_grid(Z_AXIS, 96), 1e-12),
    (lambda: ha.AssocHarmonic(40, -40), lambda: zonal_gl_grid(Z_AXIS, 96), 1e-12),
])
def test_closed_form_l2_norm_matches_reduced_quadrature(family, grid, rel_tol):
    f = family()
    assert math.isclose(l2_norm(f, grid()), f.l2_norm, rel_tol=rel_tol)


def test_averaged_raw_is_weighted_sum_of_rotated_beams():
    # the tilt average is sum_j W_j e_n(R_j x) with R_j the rotation by phi_j
    # about the x1-axis; compare against the beam formula written out directly
    n, delta = 24, 0.9
    pts, _ = sphere_grid(8)
    w = ha.averaged_window(n, delta)
    t, wt = np.polynomial.legendre.leggauss(ha.averaged_node_count(n))
    logc = ha.highest_weight_log_const(2, n)
    want = np.zeros(pts.shape[0], dtype=complex)
    for phi, weight in zip(w * t, w * wt):
        z = pts[:, 0] + 1j * (math.cos(phi) * pts[:, 1] + math.sin(phi) * pts[:, 2])
        want += weight * float(unit_bump(phi / w)) * math.exp(logc) * z**n
    got = ha.eval_averaged_raw(n, delta, pts)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))


def test_averaged_window_guard():
    assert ha.averaged_window(64, 0.9) < math.pi
    with pytest.raises(ValueError):
        ha.averaged_window(4, 6.0)
    for delta in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            ha.averaged_window(64, delta)


# ------------------------------------------------------------------- torus

def test_torus_sum_requires_single_circle():
    with pytest.raises(ValueError):
        ha.TorusSum(np.array([[1, 0], [1, 1]]), np.ones(2))
    with pytest.raises(ValueError):
        ha.TorusSum(np.zeros((0, 2)), np.zeros(0))


def test_torus_sum_eval_and_plancherel():
    freqs = np.array([[1, 0], [0, 1], [-1, 0]])
    f = ha.TorusSum(freqs, np.full(3, 1.0 / math.sqrt(3)))
    assert math.isclose(abs(complex(f(np.zeros(2)))), math.sqrt(3.0), rel_tol=1e-14)
    assert math.isclose(f.l2_norm, 1.0, rel_tol=1e-14)
    assert f.circle_number == 1
    assert math.isclose(f.eigenvalue, 1.0)
