"""Restricted norms, exponent oracle, sweeps, envelope and turning point."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenrestrict import cli
from eigenrestrict import geometry as geo
from eigenrestrict import harmonics as ha
from eigenrestrict import restriction as re_
from oracles import meridian, sphere_grid, zonal_gl_grid


class _Const:
    """Constant test function with a pluggable nominal frequency."""

    def __init__(self, value=1.0, lam=1.0, degree=0):
        self.value = value
        self.eigenvalue = lam
        self.degree = degree

    def __call__(self, pts):
        return np.full(np.atleast_2d(pts).shape[0], self.value)


# ----------------------------------------------------------------- norm kernel

def test_lp_norm_weighted_basics():
    v = np.array([1.0, -2.0, 2.0])
    w = np.array([0.25, 0.5, 0.25])
    assert math.isclose(re_.lp_norm_weighted(v, w, 2), math.sqrt(0.25 + 2 + 1))
    assert re_.lp_norm_weighted(v, w, math.inf) == 2.0
    with pytest.raises(ValueError):
        re_.lp_norm_weighted(v, w, 0.0)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_lp_norm_weighted_neither_underflows_nor_overflows(scale):
    # scale^6 is 0.0 or inf in doubles; the norm, scale 2^(1/6), is not
    got = re_.lp_norm_weighted(np.full(4, scale), 0.5, 6)
    assert math.isclose(got, scale * 2 ** (1 / 6), rel_tol=1e-15)


@pytest.mark.parametrize("p", [math.nan, -math.inf])
def test_lp_norm_weighted_rejects_p_that_is_not_positive(p):
    # NaN compares False with everything: only `not p > 0` rejects it
    with pytest.raises(ValueError, match="p must be positive"):
        re_.lp_norm_weighted(np.ones(3), np.ones(3), p)


def test_required_curve_points_floor():
    assert re_.required_curve_points(1.0) == 4096
    assert re_.required_curve_points(300.0) == 6000


def _is_5_smooth(n):
    for q in (2, 3, 5):
        while n % q == 0:
            n //= q
    return n == 1


@pytest.mark.parametrize("lam", [1.0, 204.8, 300.0, 2049.0, 2049.5, 8192.5, 123456.7])
def test_required_curve_points_is_a_smooth_size_just_above_the_floor(lam):
    floor = max(4096, math.ceil(20 * lam))
    n = re_.required_curve_points(lam)
    assert _is_5_smooth(n) and floor <= n <= 1.055 * floor
    # the smallest such size: nothing between the floor and n is 5-smooth
    assert not any(_is_5_smooth(k) for k in range(floor, n))


def test_curve_norm_frozen_values():
    eq = geo.equator()
    c = _Const()
    assert math.isclose(re_.lp_norm_on_curve(c, eq, 2), math.sqrt(2 * math.pi),
                        rel_tol=1e-13)
    assert math.isclose(re_.lp_norm_on_curve(c, eq, 4), (2 * math.pi) ** 0.25,
                        rel_tol=1e-13)
    assert math.isclose(re_.lp_norm_on_curve(c, eq, math.inf), 1.0, rel_tol=1e-15)
    e1 = ha.HighestWeight(2, 1)
    assert math.isclose(re_.lp_norm_on_curve(e1, eq, 2), math.sqrt(0.75),
                        rel_tol=1e-12)
    z9 = ha.Zonal(2, 9, np.array([1.0, 0.0, 0.0]))
    assert math.isclose(re_.lp_norm_on_curve(z9, eq, math.inf),
                        math.sqrt(19.0 / (4 * math.pi)), rel_tol=1e-12)


def _circle_nodes(curve, n):
    """n uniform arc-length nodes of a latitude circle, the first at angle 0."""
    return curve.points(curve.length * np.arange(n) / n)


def _meridian_nodes(axis, n):
    """n uniform nodes cos(s) axis + sin(s) u of the meridian through `axis`,
    u the normal the oracle `meridian` takes, on the subsphere {x4 = 0}."""
    s = 2 * math.pi * np.arange(n) / n
    return _pad(meridian(axis, np.cos(s), np.sin(s)))


def _pad(nodes):
    """S^2 nodes as points of the great subsphere {x4 = 0} of S^3."""
    return np.column_stack([nodes, np.zeros(nodes.shape[0])])


_HALF = np.array([0.5, 0.5, 0.5, 0.5])
_E1, _E4 = np.eye(4)[0], np.eye(4)[3]
_E3 = np.array([0.0, 0.0, 1.0])  # |x1 + i x2|^2 = 1 - x3^2 on the subsphere


@pytest.mark.parametrize("curve", [geo.equator(), geo.LatitudeCircle(math.pi / 4)])
def test_pinf_curve_norm_is_the_doubled_grid_max(curve):
    # the N-node grid is the even-index subset of the 2N-node grid, bit for bit
    f = ha.Zonal(2, 300, np.array([0.6, 0.0, 0.8]))
    n = re_.required_curve_points(f.eigenvalue)
    coarse, fine = _circle_nodes(curve, n), _circle_nodes(curve, 2 * n)
    assert np.array_equal(coarse, fine[::2])
    # the values are interpolated, not evaluated, at the 2N nodes
    want = float(np.max(np.abs(f(fine))))
    assert math.isclose(re_.lp_norm_on_curve(f, curve, math.inf), want, rel_tol=1e-11)


def test_circle_norms_measure_the_circle_length():
    # a constant has L^p norm length^(1/p) and sup 1 on every latitude circle
    c = _Const()
    for curve in _CIRCLES.values():
        for p in (2.0, 4.0):
            assert math.isclose(re_.lp_norm_on_curve(c, curve, p), curve.length ** (1 / p),
                                rel_tol=1e-13)
        assert math.isclose(re_.lp_norm_on_curve(c, curve, math.inf), 1.0, rel_tol=1e-15)


_CIRCLES = {"equator": geo.equator(), "lat0.785": geo.LatitudeCircle(0.785),
            "lat1.0": geo.LatitudeCircle(1.0)}
_FAMILIES = {
    "zonal-e1": lambda n: ha.Zonal(2, n, np.array([1.0, 0.0, 0.0])),
    "zonal-off": lambda n: ha.Zonal(2, n, np.array([math.sin(1.0), 0.0, math.cos(1.0)])),
    "zonal-tilted": lambda n: ha.Zonal(2, n, np.array([0.6, 0.0, 0.8])),
    "highest-weight": lambda n: ha.HighestWeight(2, n),
    "assoc-half": lambda n: ha.AssocHarmonic(n, n // 2),
    "averaged": lambda n: ha.Averaged(n, 0.9),
}
_CIRCLE_CASES = [
    pytest.param(_FAMILIES[family], degree, curve, id=f"{family}-{degree}-{label}")
    for family in sorted(_FAMILIES) for degree in (4, 37, 300)
    for label, curve in _CIRCLES.items()]


@pytest.mark.parametrize("family, degree, curve", _CIRCLE_CASES)
def test_interpolated_circle_values_match_direct_evaluation(family, degree, curve):
    f = family(degree)
    n = re_.required_curve_points(f.eigenvalue)
    direct = f(_circle_nodes(curve, n))
    scale = float(np.max(np.abs(direct)))
    if scale == 0.0:  # e.g. P-hat_37^18 is odd in cos(theta): 0 on the equator
        # so the values must be 0 to 1e-12 of the degree's scale sqrt((2n + 1) / 4 pi)
        scale = 1e-2 * math.sqrt((2 * degree + 1) / (4 * math.pi))
    got = re_._fourier_values(re_._circle_coefficients(f, curve), degree, n)
    assert got.shape == (n,)
    assert np.max(np.abs(got - direct)) <= 1e-10 * scale


@pytest.mark.parametrize("degree", [4, 37, 300])
@pytest.mark.parametrize("theta0", [0.4, 1.0])
@pytest.mark.parametrize("pole", [(math.sin(1.0), 0.0, math.cos(1.0)), (0.6, 0.0, 0.8)],
                         ids=["off", "tilted"])
def test_mirrored_half_circle_matches_the_full_circle(monkeypatch, pole, theta0, degree):
    # pole[1] == 0.0: f is even about the circle's start, so half the samples do
    f, curve = ha.Zonal(2, degree, np.array(pole)), geo.LatitudeCircle(theta0)
    m = re_._smooth_size(max(4, 2 * degree + 1))
    full = np.fft.fft(f(_circle_nodes(curve, m))) / m
    counted, call = [], ha.Zonal.__call__

    def counting(self, pts):
        counted.append(len(pts))
        return call(self, pts)

    monkeypatch.setattr(ha.Zonal, "__call__", counting)
    mirrored = re_._circle_coefficients(f, curve)
    assert counted == [re_._smooth_size(degree + 1) + 1]  # M/2 + 1
    # both sum the series, accurate to ~ n eps of the pole value (not of the
    # circle's max, which is far smaller off the pole)
    n, pole_value = 2 * degree + 1, math.sqrt((2 * degree + 1) / (4 * math.pi))
    got, want = (re_._fourier_values(c, degree, n) for c in (mirrored, full))
    assert np.max(np.abs(got - want)) <= 1e-13 * pole_value


def test_fourier_values_need_2_deg_plus_1_nodes():
    re_._fourier_values(np.ones(21), 10, 21)
    with pytest.raises(ValueError, match="20 curve nodes cannot resolve degree 10"):
        re_._fourier_values(np.ones(21), 10, 20)


_ROTATED = np.array([math.cos(0.3), math.sin(0.3), 0.0])  # at angle 0.3 on the equator


@pytest.mark.parametrize("pole", [np.array([1.0, 0.0, 0.0]), _ROTATED], ids=["e1", "rotated"])
@pytest.mark.parametrize("degree", [16, 181, 1024])
@pytest.mark.parametrize("p", [2.0, 6.0, math.inf])
def test_equator_zonal_closed_form_matches_the_sampler(pole, degree, p):
    # the closed form reads the equator from the pole; so does the sampler here
    f = ha.Zonal(2, degree, pole)
    eq = geo.equator()
    n = re_.required_curve_points(f.eigenvalue) * (2 if math.isinf(p) else 1)
    s0 = math.atan2(pole[1], pole[0])
    m = re_._smooth_size(2 * degree + 1)  # one FFT of f at the rotated nodes
    sampled = re_._fourier_values(
        np.fft.fft(f(eq.points(s0 + eq.length * np.arange(m) / m))) / m, degree, n)
    closed = re_._fourier_values(f.circle_coefficients(), degree, n)
    assert np.max(np.abs(closed - sampled)) <= 1e-12 * np.max(np.abs(sampled))
    want = re_.lp_norm_weighted(sampled, eq.length / n, p)
    assert math.isclose(re_.lp_norm_on_curve(f, eq, p), want, rel_tol=1e-12)


_GREAT_CIRCLE_POLES = {
    "s2-e1": np.array([1.0, 0.0, 0.0]),
    "s2-rotated": _ROTATED,
    "s2-tilted": np.array([0.6, 0.0, 0.8]),
    "s3-e1": np.eye(4)[0],
    "s3-e2-e3": np.array([0.0, 0.6, 0.8, 0.0]),
    "s3-half": np.array([0.5, 0.5, 0.5, 0.5]),
}


@pytest.mark.parametrize("label", sorted(_GREAT_CIRCLE_POLES))
@pytest.mark.parametrize("degree", [16, 181, 1024])
def test_circle_coefficients_are_the_zonal_along_a_great_circle(label, degree):
    # any great circle through the pole, from the pole: the closed form and
    # the series summed pointwise agree to rounding, with no pole condition
    pole = _GREAT_CIRCLE_POLES[label]
    f = ha.Zonal(pole.size - 1, degree, pole)
    n = re_.required_curve_points(f.eigenvalue)
    s = 2 * math.pi * np.arange(n) / n
    direct = f(meridian(f.pole, np.cos(s), np.sin(s)))
    closed = re_._fourier_values(f.circle_coefficients(), degree, n)
    assert np.max(np.abs(closed - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_only_a_pole_on_the_equator_reads_closed_form_coefficients(monkeypatch):
    # the great sphere {x_d = 0}: the equator of S^2, the subsphere of S^3
    eq, sub, e1 = geo.equator(), geo.GreatSubsphere(), np.array([1.0, 0.0, 0.0])
    calls = {"samples": 0, "coefficients": 0}
    sample, coefficients = ha.Zonal.__call__, ha.Zonal.circle_coefficients

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ha.Zonal, "__call__", counting("samples", sample))
    monkeypatch.setattr(ha.Zonal, "circle_coefficients", counting("coefficients", coefficients))
    for pole, curve in ((_ROTATED, eq), (_E1, sub), (np.array([0.0, 0.6, 0.8, 0.0]), sub)):
        for p in (6, math.inf):
            calls.update(samples=0, coefficients=0)
            re_.lp_norm_on_curve(ha.Zonal(pole.size - 1, 64, pole), curve, p)
            assert calls == {"samples": 0, "coefficients": 1}
    tilted = np.array([1.0, 0.0, 1e-9])  # z != 0, however small
    cases = [(tilted, eq), *((e1, curve) for curve in _CIRCLES.values() if curve.curved)]
    for pole, curve in cases:
        calls.update(samples=0, coefficients=0)
        re_.lp_norm_on_curve(ha.Zonal(2, 64, pole), curve, 6)
        assert calls == {"samples": 1, "coefficients": 0}
    # an S^3 pole off {x4 = 0} has no meridian to be read on
    for pole in (_HALF, _E4):
        with pytest.raises(ValueError, match="x4 = 0"):
            re_.lp_norm_on_curve(ha.Zonal(3, 64, pole), sub, 6)


@pytest.mark.parametrize("degree", [4096, 8192])
def test_equator_zonal_sup_is_the_pole_value_free_of_recurrence_drift(degree):
    # the recurrence's n^2 eps drift put this 2.2e-10 and 6.7e-10 off
    f = ha.Zonal(2, degree, np.array([1.0, 0.0, 0.0]))
    got = re_.lp_norm_on_curve(f, geo.equator(), math.inf)
    assert math.isclose(got, math.sqrt((2 * degree + 1) / (4 * math.pi)), rel_tol=1e-13)


def test_curve_norm_needs_a_degree():
    def undegreed(pts):
        return np.ones(np.atleast_2d(pts).shape[0])

    undegreed.eigenvalue = 1.0
    for curve in (geo.equator(), geo.LatitudeCircle(1.0)):
        with pytest.raises(ValueError, match="degree"):
            re_.lp_norm_on_curve(undegreed, curve, 2)
    # a degree the eigenvalue's grid cannot hold would alias, not interpolate;
    # an even p sizes its nodes from the degree, so this needs an odd one
    with pytest.raises(ValueError, match="cannot resolve degree 3000"):
        re_.lp_norm_on_curve(_Const(lam=1.0, degree=3000), geo.equator(), 3)


_EXACT_RULE_CASES = {
    "zonal-off-lat1.0": (lambda n: ha.Zonal(2, n, np.array([math.sin(1.0), 0.0, math.cos(1.0)])),
                         geo.LatitudeCircle(1.0)),
    "averaged-equator": (lambda n: ha.Averaged(n, 0.9), geo.equator()),
    "zonal-s3-subsphere": (lambda n: ha.Zonal(3, n, _E1), geo.GreatSubsphere()),
}


def _lambda_grid_norm(f, curve, p):
    """The norm on the lambda grid N = required_curve_points, 2N on the subsphere."""
    n = re_.required_curve_points(f.eigenvalue) * curve.dim
    values = re_._fourier_values(re_._circle_coefficients(f, curve), f.degree, n)
    weights = curve.length / n if curve.dim == 1 else re_._meridian_weights(n)
    return re_.lp_norm_weighted(values, weights, p)


@pytest.mark.parametrize("label", sorted(_EXACT_RULE_CASES))
@pytest.mark.parametrize("degree", [16, 181, 1024])
@pytest.mark.parametrize("p", [2, 4, 6])
def test_even_p_reads_pn_plus_1_nodes_and_matches_the_lambda_grid(label, degree, p):
    # |f|^p has degree pn along the circle: both rules are exact for it
    family, curve = _EXACT_RULE_CASES[label]
    f = family(degree)
    nodes = re_._smooth_size(p * degree + 1) * curve.dim
    assert re_._curve_nodes(f, curve, p) == nodes
    assert nodes < re_.required_curve_points(f.eigenvalue) * curve.dim
    got = re_.lp_norm_on_curve(f, curve, p)
    assert math.isclose(got, _lambda_grid_norm(f, curve, p), rel_tol=1e-13)


def test_even_p_past_the_lambda_grid_keeps_it():
    # 22 n + 1 = 6601 nodes would exceed the lambda grid's 6075 at n = 300
    family, curve = _EXACT_RULE_CASES["zonal-off-lat1.0"]
    f = family(300)
    grid = re_.required_curve_points(f.eigenvalue)
    assert 22 * 300 + 1 > grid
    assert re_._curve_nodes(f, curve, 22) == grid
    assert re_.lp_norm_on_curve(f, curve, 22) == _lambda_grid_norm(f, curve, 22)


@pytest.mark.parametrize("degree", [16, 1024, 8192])
def test_subsphere_zonal_sup_is_the_pole_value(degree):
    # read from its pole: no values, the sum of its positive coefficients
    f = ha.Zonal(3, degree, _E1)
    assert re_._curve_nodes(f, geo.GreatSubsphere(), math.inf) == 0
    got = re_.lp_norm_on_curve(f, geo.GreatSubsphere(), math.inf)
    assert math.isclose(got, (degree + 1) / math.sqrt(2 * math.pi**2), rel_tol=1e-13)


@pytest.mark.parametrize("family, curve, p", [
    (lambda n: ha.Zonal(2, n, np.array([1.0, 0.0, 0.0])), geo.equator(), math.inf),
    (lambda n: ha.Zonal(2, n, np.array([1.0, 0.0, 0.0])), geo.equator(), 6),
    (lambda n: ha.Zonal(2, n, np.array([0.6, 0.0, 0.8])), geo.equator(), math.inf),
    (lambda n: ha.Zonal(2, n, np.array([0.6, 0.0, 0.8])), geo.LatitudeCircle(1.0), 3),
    (lambda n: ha.Zonal(3, n, _E1), geo.GreatSubsphere(), 4),
    (lambda n: ha.Zonal(3, n, _E1), geo.GreatSubsphere(), 3),
    (lambda n: ha.HighestWeight(2, n), geo.equator(), 2),
    (lambda n: ha.Averaged(n, 0.9), geo.equator(), 2),
])
def test_curve_nodes_count_the_values_the_norm_reads(monkeypatch, family, curve, p):
    read, kernel = [], re_.lp_norm_weighted

    def counting(values, weights, q):
        read.append(np.size(values))
        return kernel(values, weights, q)

    monkeypatch.setattr(re_, "lp_norm_weighted", counting)
    for degree in (16, 181):
        read.clear()
        f = family(degree)
        re_.lp_norm_on_curve(f, curve, p)
        assert sum(read) == re_._curve_nodes(f, curve, p)


def test_curve_norm_needs_an_eigenvalue():
    def bare(pts):
        return np.ones(np.atleast_2d(pts).shape[0])

    with pytest.raises(ValueError, match="eigenvalue"):
        re_.lp_norm_on_curve(bare, geo.equator(), 2)
    with pytest.raises(ValueError, match="eigenvalue"):
        re_.lp_norm_on_curve(bare, geo.GreatSubsphere(), 2)


def test_curve_norm_grid_refinement_converged():
    eq = geo.equator()
    f = ha.HighestWeight(2, 40)
    base = re_.lp_norm_on_curve(f, eq, 4)
    fine = re_.lp_norm_weighted(f(_circle_nodes(eq, 2 * 4096)), eq.length / (2 * 4096), 4)
    assert abs(base - fine) < 1e-5 * base


def test_subsphere_norm_and_floor():
    sub = geo.GreatSubsphere()
    # the meridian rule is already exact for |z|^2: a Gauss-Legendre rule in
    # <x, axis> at twice the degree agrees
    z = ha.Zonal(3, 50, np.array([1.0, 0.0, 0.0, 0.0]))
    nodes, weights = zonal_gl_grid(z.pole[:3], 2 * (int(math.ceil(2 * z.eigenvalue)) + 16))
    fine = re_.lp_norm_weighted(z(_pad(nodes)), weights, 2)
    assert math.isclose(re_.lp_norm_on_curve(z, sub, 2), fine, rel_tol=1e-12)
    # below the curve floor the exact rule on 2 _smooth_size(4n + 1) = 36
    # meridian values agrees with the 2 CURVE_FLOOR of the lambda grid
    small = ha.Zonal(3, 4, np.array([1.0, 0.0, 0.0, 0.0]))
    assert re_._curve_nodes(small, sub, 4) == 36
    m = 2 * re_.CURVE_FLOOR
    assert re_.required_curve_points(small.eigenvalue) == re_.CURVE_FLOOR
    values = small(_meridian_nodes(small.pole[:3], m))
    want = re_.lp_norm_weighted(values, re_._meridian_weights(m), 4)
    assert math.isclose(re_.lp_norm_on_curve(small, sub, 4), want, rel_tol=1e-13)


@pytest.mark.parametrize("degree", [16, 64, 256])
@pytest.mark.parametrize("label, family, p", [
    ("zonal-s3-e1", lambda n: ha.Zonal(3, n, _E1), 4.0),
    ("zonal-s3-e2-e3", lambda n: ha.Zonal(3, n, np.array([0.0, 0.6, 0.8, 0.0])), 4.0),
    ("hw-s3-p2", lambda n: ha.HighestWeight(3, n), 2.0),
    ("hw-s3-p2.5", lambda n: ha.HighestWeight(3, n), 2.5),
])
def test_subsphere_norm_matches_the_product_grid(label, family, p, degree):
    # the S^2 product rule at this resolution is exact for these |f|^p
    # (p = 2.5: the same rule in <x, e3>), whatever the axis
    f = family(degree)
    nodes, weights = sphere_grid(max(64, int(math.ceil(2 * f.eigenvalue)) + 16))
    want = re_.lp_norm_weighted(f(_pad(nodes)), weights, p)
    got = re_.lp_norm_on_curve(f, geo.GreatSubsphere(), p)
    assert math.isclose(got, want, rel_tol=1e-11)
    assert got > 0.0


@pytest.mark.parametrize("degree", [64, 256, 1024])
def test_subsphere_p6_norm_matches_a_rule_exact_for_it(degree):
    # |U_n|^6 has degree 6n in <x, e1>: Gauss-Legendre in t at 8 times the
    # ceil(2 lambda) + 16 nodes of the former 1-d rule integrates it exactly,
    # which that rule, exact to degree ~ 4n + 31, did not (off by 7.1e-3,
    # 1.8e-2 and 2.2e-2 relative here)
    f = ha.Zonal(3, degree, _E1)
    nodes, weights = zonal_gl_grid(f.pole[:3], 8 * (int(math.ceil(2 * f.eigenvalue)) + 16))
    want = re_.lp_norm_weighted(f(_pad(nodes)), weights, 6)
    got = re_.lp_norm_on_curve(f, geo.GreatSubsphere(), 6)
    assert math.isclose(got, want, rel_tol=1e-10)


def test_subsphere_p6_sweep_fits_the_sharp_exponent():
    # the hypersurface exponent 1 - 2/p at p = 6; the former 1-d rule's bias
    # bent the 16:1024 fit to 0.66012
    samples = re_.sweep(lambda n: ha.Zonal(3, n, _E1), geo.GreatSubsphere(), 6,
                        re_.geometric_degrees(16, 1024))
    slope = re_.fit_exponent(samples).slope
    assert abs(slope - 2.0 / 3.0) <= 1e-3


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 6.0])
def test_highest_weight_subsphere_norm_is_the_beta_integral(p):
    # the closed form against f itself at the 2N uniform points of the
    # meridian through e3, weighed by the |sin s| rule: |f| is zonal about e3
    sub = geo.GreatSubsphere()
    for degree in re_.geometric_degrees(16, 8192):
        f = ha.HighestWeight(3, degree)
        m = 2 * re_.required_curve_points(f.eigenvalue)
        want = re_.lp_norm_weighted(f(_meridian_nodes(_E3, m)), re_._meridian_weights(m), p)
        got = re_.lp_norm_on_curve(f, sub, p)
        assert math.isclose(got, want, rel_tol=1e-11), degree
        assert got > 0.0


# (2 pi c^p B(1/2, pn/2 + 1))^{1/p}, c^2 = (n + 1) / (2 pi^2), to 30 digits
# (mpmath at 40 digits), hard-coded so that the check needs no
# arbitrary-precision library
HW3_SUBSPHERE_30 = {(2.0, 4096): 6.00946275670972934493494430222,
                    (6.0, 4096): 9.8227917424893449708300140147,
                    (2.5, 1024): 4.51758267792809847881638476405,
                    (3.0, 8192): 9.47087832047610303357722326062}


@pytest.mark.parametrize("p, degree", sorted(HW3_SUBSPHERE_30))
def test_highest_weight_subsphere_norm_matches_30_digit_values(p, degree):
    # lgamma(pn/2 + 1) - lgamma(pn/2 + 3/2) would cancel to about 2.5e-12 at
    # p = 6, n = 4096; the log Gamma ratio keeps the norm to a few ulps
    got = re_.lp_norm_on_curve(ha.HighestWeight(3, degree), geo.GreatSubsphere(), p)
    assert math.isclose(got, HW3_SUBSPHERE_30[p, degree], rel_tol=4e-15)


@pytest.mark.parametrize("label", sorted(_CIRCLES))
@pytest.mark.parametrize("degree", [16, 181, 1024])
@pytest.mark.parametrize("p", [2.0, 3.0, 6.0, math.inf])
def test_highest_weight_circle_norm_matches_direct_values(label, degree, p):
    # |f| = c sin(theta0)^n is constant on the circle: the closed form against
    # f itself at 2N uniform nodes.  At n = 1024 on 0.785 the sup is ~1e-153,
    # whose sixth power underflowed to a norm of 0 before the kernel scaled
    curve = _CIRCLES[label]
    f = ha.HighestWeight(2, degree)
    m = 2 * re_.required_curve_points(f.eigenvalue)
    want = re_.lp_norm_weighted(f(_circle_nodes(curve, m)), curve.length / m, p)
    got = re_.lp_norm_on_curve(f, curve, p)
    assert math.isclose(got, want, rel_tol=1e-12)
    assert got > 0.0


@pytest.mark.parametrize("m", [8, 10, 12, 64, 4098, 10368])
def test_meridian_weights_integrate_even_powers_of_cos(m):
    # int_{S^2} t^{2j} = 4 pi / (2j + 1); cos^{2j} s has degree 2j < m / 2
    w = re_._meridian_weights(m)
    assert math.isclose(float(np.sum(w)), 4 * math.pi, rel_tol=1e-14)
    assert np.all(w > 0.0)
    # symmetric in j -> m - j to rounding of the mean weight 4 pi / m (the
    # weights by the poles are smaller, down to 6e-6 of it at m = 328050)
    assert np.allclose(w[1:], w[:0:-1], rtol=0.0, atol=1e-14 * 4 * math.pi / m)
    t2 = np.cos(2 * math.pi * np.arange(m) / m) ** 2
    power = np.ones(m)
    for j in range((m + 3) // 4):
        got = float(np.sum(w * power))
        assert math.isclose(got, 4 * math.pi / (2 * j + 1), rel_tol=1e-13), (m, j)
        power *= t2


def test_subsphere_norm_needs_an_axis():
    # only a zonal harmonic with its pole on the subsphere has a meridian
    with pytest.raises(ValueError, match="x4 = 0"):
        re_.lp_norm_on_curve(_Const(), geo.GreatSubsphere(), 2)
    with pytest.raises(ValueError, match="S\\^3"):
        re_.lp_norm_on_curve(ha.HighestWeight(2, 8), geo.GreatSubsphere(), 2)


@pytest.mark.parametrize("f, curve, spheres", [
    (ha.Zonal(3, 16, np.array([1.0, 0.0, 0.0, 0.0])), geo.equator(), ("2", "3")),
    (ha.Zonal(3, 16, np.array([1.0, 0.0, 0.0, 0.0])), geo.LatitudeCircle(1.0), ("2", "3")),
    (ha.Zonal(2, 16, np.array([1.0, 0.0, 0.0])), geo.GreatSubsphere(), ("3", "2")),
], ids=["zonal-s3-equator", "zonal-s3-latitude-1.0", "zonal-s2-subsphere"])
def test_family_on_another_sphere_is_refused_by_name(f, curve, spheres):
    # every family is checked against the target's sphere before any
    # coefficient is read, not only the closed-form highest-weight beam
    target, own = spheres
    with pytest.raises(ValueError, match=rf"the target lies in S\^{target}, not S\^{own}$"):
        re_.lp_norm_on_curve(f, curve, 2)


@pytest.mark.parametrize("degree", [16, 45, 256])
def test_subsphere_sup_is_the_closed_form(degree):
    # zonal-s3 peaks at its pole, (n+1)/sqrt(2 pi^2), which the 2N meridian
    # points hold; highest-weight-s3 on the circle x3 = 0 of the subsphere,
    # where |x1 + i x2| = 1: its value at e1
    sub = geo.GreatSubsphere()
    zonal = re_.lp_norm_on_curve(ha.Zonal(3, degree, _E1), sub, math.inf)
    assert math.isclose(zonal, (degree + 1) / math.sqrt(2 * math.pi**2), rel_tol=1e-12)
    f = ha.HighestWeight(3, degree)
    hw = re_.lp_norm_on_curve(f, sub, math.inf)
    assert math.isclose(hw, abs(complex(f(_E1))), rel_tol=1e-12)


def test_subsphere_sup_runs_through_the_pole():
    # s = 0 and s = pi of the meridian are the pole and its antipode, where
    # zonal-s3 peaks at (n + 1) / sqrt(2 pi^2).  The meridian values come
    # from closed-form coefficients, all positive at the pole, so the sup
    # there is their sum: the pole value to rounding, whatever 2N and n are.
    # A pole off the coordinate axes takes the same path.
    sub = geo.GreatSubsphere()
    for pole in (_E1, np.array([0.0, 0.6, 0.8, 0.0])):
        for degree in (4, 37, 300, 362, 937, 8192):
            got = re_.lp_norm_on_curve(ha.Zonal(3, degree, pole), sub, math.inf)
            want = (degree + 1) / math.sqrt(2 * math.pi**2)
            assert math.isclose(got, want, rel_tol=1e-12), (pole, degree)


def test_norm_monotone_in_p_after_normalizing():
    # on a probability-normalized curve measure L^p norms increase with p
    eq = geo.equator()
    f = ha.Zonal(2, 12, np.array([1.0, 0.0, 0.0]))
    vals = f(_circle_nodes(eq, 4096))
    norms = [re_.lp_norm_weighted(vals, 1.0 / 4096, p) for p in (2, 4, 6, math.inf)]
    assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))


# ------------------------------------------------------------- exponent oracle

def test_oracle_curves_on_s2():
    # hypersurface branch of S^2: curves, critical index p0 = 4
    assert re_.theoretical_exponent(2, 1, 2.0).value == 0.25
    assert re_.theoretical_exponent(2, 1, 3.0).value == 0.25
    oracle4 = re_.theoretical_exponent(2, 1, 4.0)
    assert oracle4.log_endpoint and math.isclose(oracle4.value, 0.25)
    assert math.isclose(re_.theoretical_exponent(2, 1, 6.0).value, 1 / 3)
    assert re_.theoretical_exponent(2, 1, math.inf).value == 0.5


def test_oracle_curved_improvement_below_p4():
    # nonvanishing geodesic curvature improves 1/4 to 1/3 - 1/(3p) on [2, 4)
    for p in (2.0, 2.5, 3.0, 3.9):
        flat = re_.theoretical_exponent(2, 1, p).value
        curved = re_.theoretical_exponent(2, 1, p, curved=True).value
        assert math.isclose(curved, 1 / 3 - 1 / (3 * p))
        assert curved < flat
    assert math.isclose(re_.theoretical_exponent(2, 1, 2.0, curved=True).value,
                        1 / 6)
    with pytest.raises(ValueError):
        re_.theoretical_exponent(3, 2, 2.5, curved=True)


def test_oracle_hypersurfaces_s3():
    assert re_.theoretical_exponent(3, 2, 2.0).value == 0.25
    crit = re_.theoretical_exponent(3, 2, 3.0)
    assert crit.log_endpoint and math.isclose(crit.value, 1 / 3)
    assert math.isclose(re_.theoretical_exponent(3, 2, 4.0).value, 0.5)
    assert math.isclose(re_.theoretical_exponent(3, 2, 6.0).value, 2 / 3)
    assert re_.theoretical_exponent(3, 2, math.inf).value == 1.0


def test_oracle_codimension_two_and_lower():
    # k = d-2 carries the log flag at p = 2 with value 1/2
    flagged = re_.theoretical_exponent(3, 1, 2.0)
    assert flagged.log_endpoint and flagged.value == 0.5
    assert math.isclose(re_.theoretical_exponent(3, 1, 4.0).value, 1 - 1 / 4)
    assert math.isclose(re_.theoretical_exponent(4, 2, 6.0).value, 1.5 - 2 / 6)
    # k <= d-3 branch has no flag, even at p = 2
    low = re_.theoretical_exponent(4, 1, 2.0)
    assert not low.log_endpoint and math.isclose(low.value, 1.0)
    assert math.isclose(re_.theoretical_exponent(5, 1, math.inf).value, 2.0)


def test_oracle_validation():
    with pytest.raises(ValueError):
        re_.theoretical_exponent(1, 1, 2.0)
    with pytest.raises(ValueError):
        re_.theoretical_exponent(3, 3, 2.0)
    with pytest.raises(ValueError):
        re_.theoretical_exponent(2, 1, 1.5)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 3, 4, 5]), st.floats(2.0, 40.0))
def test_oracle_monotone_in_p(d, p):
    # growth exponents never decrease with p at fixed (d, k)
    for k in range(1, d):
        lo = re_.theoretical_exponent(d, k, p).value
        hi = re_.theoretical_exponent(d, k, p + 0.5).value
        assert hi >= lo - 1e-12


# ----------------------------------------------------------------- fits

def test_geometric_degrees_frozen_ladders():
    assert re_.geometric_degrees(16, 256) == [16, 23, 32, 45, 64, 91, 128, 181, 256]
    assert re_.geometric_degrees(32, 512) == [32, 45, 64, 91, 128, 181, 256, 362, 512]
    with pytest.raises(ValueError):
        re_.geometric_degrees(2, 64)


def test_geometric_degrees_rejects_end_beyond_float_range():
    with pytest.raises(ValueError, match="hi exceeds the largest float"):
        re_.geometric_degrees(4, 10**400)


@pytest.mark.parametrize("xs", [[50.0], [200.0, 200.0], []])
def test_loglog_fit_needs_two_distinct_x(xs):
    with pytest.raises(ValueError, match="two distinct x"):
        re_.loglog_fit(xs, [1.0] * len(xs))


@settings(deadline=None, max_examples=40)
@given(st.floats(-1.0, 1.0), st.floats(0.1, 10.0))
def test_fit_exponent_recovers_synthetic_power_law(slope, amplitude):
    samples = [re_.NormSample(n, float(n), 2.0, amplitude * float(n) ** slope, 1.0)
               for n in (8, 16, 32, 64, 128)]
    fit = re_.fit_exponent(samples, theoretical=slope, tolerance=0.01)
    assert abs(fit.slope - slope) < 1e-9
    assert fit.verdict == "pass"
    assert fit.residual < 1e-12


def test_loglog_fit_shared_by_exponent_fit():
    x = np.array([3.0, 7.0, 20.0, 55.0])
    y = 2.5 * x ** -0.4 * np.array([1.0, 1.01, 0.99, 1.0])
    slope, intercept, rms = re_.loglog_fit(x, y)
    assert abs(slope + 0.4) < 0.01 and abs(intercept - math.log(2.5)) < 0.03
    assert 0.0 < rms < 0.01
    fit = re_.fit_exponent([re_.NormSample(4 + i, lam, 2.0, r, 1.0)
                            for i, (lam, r) in enumerate(zip(x, y))])
    assert (fit.slope, fit.intercept, fit.residual) == (slope, intercept, rms)


def test_fit_exponent_needs_four_positive_samples():
    samples = [re_.NormSample(n, float(n), 2.0, 1.0, 1.0) for n in (4, 5, 6)]
    with pytest.raises(ValueError):
        re_.fit_exponent(samples)
    fit = re_.fit_exponent(samples + [re_.NormSample(7, 7.0, 2.0, 1.0, 1.0)])
    assert fit.verdict == "no_contract"


def test_norm_sample_validation():
    with pytest.raises(ValueError):
        re_.NormSample(4, 4.0, 2.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        re_.NormSample(4, 4.0, 2.0, 1.0, 0.0)


def test_envelope_check_behaviour():
    good = [re_.NormSample(n, float(n), 2.0, float(n) ** 0.25, 1.0)
            for n in (8, 16, 32, 64)]
    rep = re_.envelope_check(good, 0.25)
    assert rep.ok and rep.worst_excess <= 1.0 + 1e-9
    # a terminal spike above the allowed exponent breaks the envelope
    spiked = good[:-1] + [re_.NormSample(64, 64.0, 2.0, 3.0 * 64 ** 0.25, 1.0)]
    assert not re_.envelope_check(spiked, 0.25).ok


# ----------------------------------------------------------------- sweeps

def test_sweep_produces_ordered_samples():
    samples = re_.sweep(lambda n: ha.HighestWeight(2, n), geo.equator(), 2.0,
                        [4, 6, 8, 11])
    assert [s.degree for s in samples] == [4, 6, 8, 11]
    assert all(s.ambient_norm == 1.0 for s in samples)
    assert all(s.ratio > 0 for s in samples)
    assert all(b.lam > a.lam for a, b in zip(samples, samples[1:]))
    with pytest.raises(ValueError):
        re_.sweep(lambda n: ha.HighestWeight(2, n), geo.equator(), 2.0, [8, 6])


def test_turning_point_scan_matches_direct_argmax():
    theta0 = math.pi / 4
    t0 = math.cos(theta0)
    n = 48
    row = np.abs(ha.assoc_legendre_norm(n, np.arange(n + 1), t0))
    direct = [abs(float(ha.assoc_legendre_norm(n, m, np.array([t0]))[0]))
              for m in range(n + 1)]
    assert np.allclose(row, direct, atol=1e-13)
    result = re_.turning_point_sweep(theta0, [32, 45, 64, 91])
    # winning orders track the turning latitude: m*/n below but near sin(theta0)
    for m, s in zip(result.orders, result.samples):
        assert 0.5 <= m / s.degree <= math.sin(theta0) + 0.02
    # the norm read from the circle spectrum against the curve quadrature
    circle = geo.LatitudeCircle(theta0)
    for m, s in zip(result.orders, result.samples):
        quad = re_.lp_norm_on_curve(ha.AssocHarmonic(s.degree, m), circle, 2)
        assert math.isclose(s.restricted_norm, quad, rel_tol=1e-12)
    fit = re_.fit_exponent(result.samples)
    assert fit.slope > 0.1  # caustic growth clearly visible already


@pytest.mark.parametrize("theta0", [0.4, math.pi / 4, 1.2, math.pi / 2])
@pytest.mark.parametrize("n", [16, 181, 1024, 4096])
def test_circle_spectrum_matches_recurrence_row(n, theta0):
    eps = np.finfo(float).eps
    spectrum = re_.circle_spectrum(theta0, n)
    row = ha.assoc_legendre_norm(n, np.arange(n + 1), math.cos(theta0)) ** 2
    assert spectrum.shape == (n + 1,) and np.all(spectrum >= 0.0)
    assert np.argmax(spectrum) == np.argmax(row)
    assert np.max(np.abs(spectrum - row)) <= 8 * n * eps * row.max()
    # addition theorem: sum over m = -n..n of |P-hat_n^m|^2 is (2n + 1) / 2
    total = spectrum[0] + 2.0 * spectrum[1:].sum()
    assert math.isclose(total, (2 * n + 1) / 2, rel_tol=4 * n * eps)


@pytest.mark.parametrize("n", [16, 181, 4096])
def test_equator_spectrum_is_the_closed_form(monkeypatch, n):
    # the zonal's pole e1 lies on the equator: its coefficients, no samples
    monkeypatch.setattr(ha.Zonal, "__call__", lambda *a: pytest.fail("sampled"))
    f = ha.Zonal(2, n, np.array([1.0, 0.0, 0.0]))
    want = 2 * math.pi * math.sqrt((2 * n + 1) / (4 * math.pi)) * f.circle_coefficients()
    assert np.array_equal(re_.circle_spectrum(math.pi / 2, n), want[:n + 1])


@pytest.mark.parametrize("theta0", [0.4, 0.6])
def test_turning_point_scan_reaches_orders_below_half_the_degree(theta0):
    # n sin(theta0) < n / 2 here: a scan of m in [n/2, n] returned its edge
    result = re_.turning_point_sweep(theta0, re_.geometric_degrees(32, 512))
    for m, s in zip(result.orders, result.samples):
        # the Airy peak sits ~ n^{1/3} orders below n sin(theta0); at n = 32,
        # theta0 = 0.6 that is m* = 16, so the band starts at n = 45
        if s.degree >= 45:
            assert math.sin(theta0) - 0.05 <= m / s.degree <= math.sin(theta0)
    fit = re_.fit_exponent(result.samples, 1.0 / 6.0, cli.EXPONENT_TOLERANCE)
    assert fit.verdict == "pass", fit.slope
