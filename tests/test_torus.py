"""Lattice circles, r_2 arithmetic and random torus eigenfunctions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenrestrict import torus
from eigenrestrict.harmonics import TorusSum

# classic r_2 values, checked against sums-of-two-squares tables
R2_KNOWN = {1: 4, 2: 4, 3: 0, 5: 8, 25: 12, 65: 16, 169: 12,
            625: 20, 4225: 36, 34225: 36}


def test_r2_frozen_values():
    for N, expected in R2_KNOWN.items():
        assert torus.representations(N).r2 == expected


def test_representations_structure():
    reps = torus.representations(65)
    assert reps.points.shape == (16, 2)
    assert np.all(np.sum(reps.points**2, axis=1) == 65)
    assert len({tuple(p) for p in reps.points}) == 16
    assert not reps.degenerate


def test_representations_edge_cases():
    zero = torus.representations(0)
    assert zero.degenerate and zero.r2 == 1
    with pytest.raises(ValueError):
        torus.representations(-4)


def test_scan_matches_sieve():
    table = torus.r2_table(2000)
    for N in range(2000 + 1):
        assert table[N] == torus.representations(N).r2


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 10**6))
def test_r2_multiple_of_four(N):
    # the four rotations/reflections of any representation are distinct
    r2 = torus.representations(N).r2
    assert r2 % 4 == 0 or r2 == 0


def test_divisor_growth_trend():
    growth = torus.divisor_growth(3000)
    assert np.all(growth.r2 > 0)
    assert np.all(growth.N >= 2)
    # r_2(2) = 4 gives the global max exponent 2 log 2 / log sqrt 2 = 4
    assert math.isclose(growth.max_exponent(2, 3000), 4.0)
    maxima, decreasing = torus.exponent_trend(10**5, cutoffs=(10**2, 10**3, 10**4))
    assert decreasing
    assert all(b < a for a, b in zip(maxima, maxima[1:]))
    with pytest.raises(ValueError):
        torus.exponent_trend(10**4, cutoffs=(100, 100, 200))
    with pytest.raises(ValueError):
        torus.exponent_trend(10**3, cutoffs=(10, 10**4))


def test_random_eigenfunction_seeded_and_normalized():
    f = torus.random_eigenfunction(65, seed=3)
    g = torus.random_eigenfunction(65, seed=3)
    assert np.array_equal(f.coeffs, g.coeffs)
    assert math.isclose(f.l2_norm, 1.0, rel_tol=1e-12)
    assert np.allclose(np.abs(f.coeffs), 1.0 / math.sqrt(16))
    assert not np.allclose(f.coeffs, torus.random_eigenfunction(65, 4).coeffs)
    with pytest.raises(ValueError):
        torus.random_eigenfunction(3, seed=0)
    with pytest.raises(ValueError):
        torus.random_eigenfunction(0, seed=0)


def test_grid_sup_respects_cauchy_schwarz():
    for seed in range(6):
        f = torus.random_eigenfunction(325, seed)  # r_2(325) = 24
        doubled, base = torus.grid_sup_norm(f)
        assert base <= doubled + 1e-12
        assert doubled <= math.sqrt(24) + 1e-12


def test_grid_sup_exact_for_aligned_phases():
    # all-ones coefficients align at the origin: sup = sqrt(r_2) exactly
    reps = torus.representations(25)
    f = TorusSum(reps.points, np.full(reps.r2, 1.0 / math.sqrt(reps.r2)))
    doubled, base = torus.grid_sup_norm(f)
    assert math.isclose(doubled, math.sqrt(reps.r2), rel_tol=1e-12)
    assert abs(doubled - base) < 1e-12


def test_grid_sup_base_is_the_coarse_grid():
    # the base sup reads every other node of the doubled grid: it matches a
    # direct evaluation on the base grid
    f = torus.random_eigenfunction(325, 3)
    m = math.ceil(torus.POINTS_PER_AXIS_WAVELENGTH * f.eigenvalue)
    _, base = torus.grid_sup_norm(f)
    x = 2.0 * math.pi * np.arange(m) / m
    xy = np.column_stack([np.repeat(x, m), np.tile(x, m)])
    assert math.isclose(base, float(np.max(np.abs(f(xy)))), rel_tol=1e-12)


def test_grid_sup_underresolved_error():
    f = torus.random_eigenfunction(169, 0)
    with pytest.raises(ValueError, match="underresolves"):
        torus.grid_sup_norm(f, grid_m=32)


def test_curve_l2_of_constant_is_one():
    f = TorusSum(np.array([[0, 1]]), np.array([1.0 + 0j]))
    norms = torus.curve_l2_norms(f, num_points=4096)
    assert set(norms) == {"slope0", "slope1", "slope1/2", "circle"}
    # slope-0 geodesic holds e^{iy} constant in modulus; all curves see |f| = 1
    for val in norms.values():
        assert math.isclose(val, 1.0, rel_tol=1e-12)


def test_verify_linfty_bound_report():
    report = torus.verify_linfty_bound([25, 169], seeds=range(3))
    assert len(report.rows) == 6
    assert report.bound_ok and report.worst_margin <= 1e-12
    assert report.slope is not None
    for row in report.rows:
        assert row.sup <= math.sqrt(row.r2) + 1e-12
        assert 0.0 < row.curve_l2 <= row.sup + 1e-12
    with pytest.raises(ValueError, match="not a sum of two squares"):
        torus.verify_linfty_bound([21], seeds=[0])
    # a ceiling checked over no rows would pass vacuously
    for ns, seeds in (([25], range(0)), ([], [0])):
        with pytest.raises(ValueError, match="at least one N and one seed"):
            torus.verify_linfty_bound(ns, seeds)
