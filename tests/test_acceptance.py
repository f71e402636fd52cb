"""Acceptance battery: the sharp-exponent and kernel-level contracts.

Each test prints one pass/fail line (run with `pytest tests/test_acceptance.py -s`
to see them all) and asserts the stated tolerance and runtime budget.
"""

import math
import time

import numpy as np
import pytest

from eigenrestrict import cli
from eigenrestrict import geometry as geo
from eigenrestrict import harmonics as ha
from eigenrestrict import oscillatory as osc
from eigenrestrict import restriction as re_
from eigenrestrict import torus
from oracles import critical_points, distance_gradient_check, tangent_basis

EQ = geo.equator()
SUB = geo.GreatSubsphere()
POLE3 = np.array([1.0, 0.0, 0.0])
POLE4 = np.array([1.0, 0.0, 0.0, 0.0])
OFF_POLE = np.array([math.sin(1.0), 0.0, math.cos(1.0)])
TOL = cli.EXPONENT_TOLERANCE  # the bound every CLI exponent fit is held to


def _report(num, label, ok, detail, elapsed, budget):
    status = "pass" if ok and elapsed < budget else "FAIL"
    line = (f"acceptance {num:02d} {label}: {status} "
            f"({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    print(line)
    assert ok, line
    assert elapsed < budget, line


def test_a01_geodesic_sharpness_p2():
    t0 = time.monotonic()
    samples = re_.sweep(lambda n: ha.HighestWeight(2, n), EQ, 2.0,
                        re_.geometric_degrees(16, 256))
    fit = re_.fit_exponent(samples, 0.25, 0.02)
    _report(1, "geodesic sharpness p=2", fit.verdict == "pass",
            f"slope={fit.slope:.4f} target 0.25+/-0.02",
            time.monotonic() - t0, 60.0)


def test_a02_zonal_sharpness_large_p():
    t0 = time.monotonic()
    degrees = re_.geometric_degrees(16, 256)
    fit_inf = re_.fit_exponent(
        re_.sweep(lambda n: ha.Zonal(2, n, POLE3), EQ, math.inf, degrees),
        0.5, TOL)
    fit_6 = re_.fit_exponent(
        re_.sweep(lambda n: ha.Zonal(2, n, POLE3), EQ, 6.0, degrees),
        1.0 / 3.0, TOL)
    ok = fit_inf.verdict == "pass" and fit_6.verdict == "pass"
    _report(2, "zonal sharpness p=inf,6", ok,
            f"slope(inf)={fit_inf.slope:.4f} target 0.50+/-{TOL}, "
            f"slope(6)={fit_6.slope:.4f} target 0.3333+/-{TOL}",
            time.monotonic() - t0, 120.0)


def test_a03_turning_point_improvement():
    t0 = time.monotonic()
    result = re_.turning_point_sweep(math.pi / 4, re_.geometric_degrees(32, 512))
    fit = re_.fit_exponent(result.samples, 1.0 / 6.0, TOL)
    _report(3, "turning-point slope", fit.verdict == "pass",
            f"slope={fit.slope:.4f} target 0.1667+/-{TOL}",
            time.monotonic() - t0, 600.0)


def test_a04_upper_bound_envelope_matrix():
    t0 = time.monotonic()
    degrees = re_.geometric_degrees(16, 256)
    matrix = (
        ("highest-weight/equator/p=2", lambda n: ha.HighestWeight(2, n), EQ, 2.0, (2, 1)),
        ("highest-weight/equator/p=4", lambda n: ha.HighestWeight(2, n), EQ, 4.0, (2, 1)),
        ("zonal/equator/p=6", lambda n: ha.Zonal(2, n, POLE3), EQ, 6.0, (2, 1)),
        ("zonal/equator/p=inf", lambda n: ha.Zonal(2, n, POLE3), EQ, math.inf, (2, 1)),
        ("zonal-off/equator/p=4", lambda n: ha.Zonal(2, n, OFF_POLE), EQ, 4.0, (2, 1)),
        ("zonal-off/equator/p=6", lambda n: ha.Zonal(2, n, OFF_POLE), EQ, 6.0, (2, 1)),
        ("averaged0.9/equator/p=2", lambda n: ha.Averaged(n, 0.9), EQ, 2.0, (2, 1)),
        ("zonal-s3/subsphere/p=4", lambda n: ha.Zonal(3, n, POLE4), SUB, 4.0, (3, 2)),
        ("hw-s3/subsphere/p=2", lambda n: ha.HighestWeight(3, n), SUB, 2.0, (3, 2)),
    )
    failures = []
    for label, family, curve, p, (d, k) in matrix:
        samples = re_.sweep(family, curve, p, degrees)
        delta = re_.theoretical_exponent(d, k, p).value
        if not re_.envelope_check(samples, delta).ok:
            failures.append(label)
    # curved improvement as an envelope: turning-point masses under delta~(2)
    tp = re_.turning_point_sweep(math.pi / 4, re_.geometric_degrees(32, 256))
    delta_curved = re_.theoretical_exponent(2, 1, 2.0, curved=True).value
    if not re_.envelope_check(tp.samples, delta_curved).ok:
        failures.append("turning-point/p=2 curved")
    _report(4, "upper-bound envelope", not failures,
            f"{10 - len(failures)}/10 sweeps under C*lambda^(delta+0.02)"
            + (f", failed: {failures}" if failures else ""),
            time.monotonic() - t0, 300.0)


def test_a05_phase_expansion_coefficients():
    t0 = time.monotonic()
    dev_flat = osc.phase_expansion_fit(EQ).deviation
    devs = [osc.phase_expansion_fit(geo.LatitudeCircle(th)).deviation
            for th in (math.pi / 4, math.pi / 3)]
    ok = dev_flat < 1e-8 and max(devs) < 1e-6
    _report(5, "phase expansion c=cot^2/24", ok,
            f"great-circle dev={dev_flat:.1e} (<1e-8), "
            f"latitude dev={max(devs):.1e} (<1e-6)",
            time.monotonic() - t0, 1.0)


def test_a06_kernel_decay_band():
    t0 = time.monotonic()
    report = osc.verify_kernel_bound(lams=(50.0, 100.0, 200.0, 400.0))
    ratios = ", ".join(f"{q:.3f}" for q in report.ratios)
    _report(6, "kernel decay ratios", report.ok,
            f"sup ratios [{ratios}] within [0.5, 1.5]",
            time.monotonic() - t0, 300.0)


def test_a07_critical_point_structure():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    w = np.linspace(0.0, 2.0 * math.pi, 80000, endpoint=False)
    worst_dir, worst_phase = 0.0, 0.0
    for _ in range(100):
        xp = rng.normal(size=3)
        xp /= np.linalg.norm(xp)
        t = rng.normal(size=3)
        t -= (t @ xp) * xp
        t /= np.linalg.norm(t)
        r = rng.uniform(0.15, 1.4)
        d = r * rng.uniform(0.1, 0.85)
        x = math.cos(d) * xp + math.sin(d) * t
        cp = critical_points(x, xp, r)
        u1, u2 = tangent_basis(xp)
        omegas = np.outer(np.cos(w), u1) + np.outer(np.sin(w), u2)
        dist = np.arccos(np.clip((math.cos(r) * xp + math.sin(r) * omegas) @ x,
                                 -1.0, 1.0))
        # the far intersection is the w-grid argmax, the near one the argmin
        worst_dir = max(worst_dir,
                        np.linalg.norm(omegas[np.argmax(dist)] - cp.omega_star),
                        np.linalg.norm(omegas[np.argmin(dist)] + cp.omega_star))
        worst_phase = max(worst_phase, abs(cp.phase_star + d),
                          abs(cp.phase_antipode - d))
    ok = worst_dir < 1e-4 and worst_phase < 1e-10
    _report(7, "critical points vs brute grid", ok,
            f"100 configs, worst direction gap {worst_dir:.1e} (<1e-4), "
            f"worst phase gap {worst_phase:.1e} (<1e-10)",
            time.monotonic() - t0, 120.0)


def test_a08_airy_operator_decay():
    t0 = time.monotonic()
    lams = (200.0, 400.0, 800.0)
    x = np.log(lams)
    design = np.column_stack([np.ones_like(x), x])
    slopes = {}
    for label, kwargs in osc.AIRY_CASES.items():
        norms = [osc.airy_operator_norm(osc.AirySpec(lam, **kwargs))
                 for lam in lams]
        coef, *_ = np.linalg.lstsq(design, np.log(norms), rcond=None)
        slopes[label] = float(coef[1])
    ok = all(abs(s + 2.0 / 3.0) <= 0.05 for s in slopes.values())
    _report(8, "airy operator norm slope", ok,
            f"model={slopes['model']:.4f}, variable={slopes['variable']:.4f}, "
            "target -0.6667+/-0.05",
            time.monotonic() - t0, 600.0)


def test_a09_gradient_identity():
    t0 = time.monotonic()
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        xp = rng.normal(size=3)
        xp /= np.linalg.norm(xp)
        omega = rng.normal(size=3)
        omega -= (omega @ xp) * xp
        omega /= np.linalg.norm(omega)
        r = rng.uniform(0.02, 1.5)
        worst = max(worst, distance_gradient_check(xp, r, omega))
    _report(9, "distance gradient identity", worst < 1e-6,
            f"100 configs, worst deviation {worst:.1e} (<1e-6)",
            time.monotonic() - t0, 60.0)


def test_a10_torus_circles():
    t0 = time.monotonic()
    table = torus.r2_table(10**5)
    mismatches = sum(1 for N in range(10**5 + 1)
                     if len(torus.representations(N)) != int(table[N]))
    # 1000 random eigenfunctions across small circles: Cauchy-Schwarz ceiling
    worst_margin = -math.inf
    checked = 0
    for N in (25, 65, 169, 325, 625, 1105):
        ceiling = math.sqrt(len(torus.representations(N)))
        for seed in range(167):
            if checked >= 1000:
                break
            sup = torus.grid_sup_norm(torus.random_eigenfunction(N, seed))
            worst_margin = max(worst_margin, sup.hi - ceiling)
            checked += 1
    ladder = torus.verify_linfty_bound([25, 169, 625, 4225, 34225], range(12))
    ok = (mismatches == 0 and checked == 1000 and worst_margin <= 1e-12
          and ladder.bound_ok and ladder.slope <= 0.15)
    _report(10, "torus circles and sup norms", ok,
            f"r2 scan==sieve to 1e5 ({mismatches} mismatches), "
            f"{checked} eigenfunctions worst sup margin {worst_margin:.2f}, "
            f"ladder slope {ladder.slope:.4f} (<=0.15)",
            time.monotonic() - t0, 300.0)


def test_a11_oracle_table_branches():
    t0 = time.monotonic()
    # (d, k, p) -> (exponent, log_endpoint); hand-computed branch values
    expected = {
        (2, 1, 2.0): (0.25, False),
        (2, 1, 4.0): (0.25, True),
        (2, 1, 6.0): (1 / 3, False),
        (2, 1, math.inf): (0.5, False),
        (3, 2, 2.0): (0.25, False),
        (3, 2, 3.0): (1 / 3, True),
        (3, 2, 4.0): (0.5, False),
        (3, 2, 6.0): (2 / 3, False),
        (3, 2, math.inf): (1.0, False),
        (3, 1, 2.0): (0.5, True),
        (3, 1, 3.0): (2 / 3, False),
        (3, 1, 4.0): (0.75, False),
        (3, 1, 6.0): (5 / 6, False),
        (3, 1, math.inf): (1.0, False),
        (4, 3, 2.0): (0.25, False),
        (4, 3, 8 / 3): (0.375, True),
        (4, 3, 4.0): (0.75, False),
        (4, 3, 6.0): (1.0, False),
        (4, 3, math.inf): (1.5, False),
        (4, 2, 2.0): (0.5, True),
        (4, 2, 4.0): (1.0, False),
        (4, 2, 6.0): (7 / 6, False),
        (4, 2, math.inf): (1.5, False),
        (4, 1, 2.0): (1.0, False),
        (4, 1, 4.0): (1.25, False),
        (4, 1, math.inf): (1.5, False),
    }
    bad = []
    for (d, k, p), (value, flag) in expected.items():
        oracle = re_.theoretical_exponent(d, k, p)
        if not (math.isclose(oracle.value, value, rel_tol=1e-12)
                and oracle.log_endpoint == flag):
            bad.append((d, k, p))
    for p, value in ((2.0, 1 / 6), (3.0, 2 / 9), (4.0, 0.25)):
        oracle = re_.theoretical_exponent(2, 1, p, curved=True)
        if not math.isclose(oracle.value, value, rel_tol=1e-12):
            bad.append((2, 1, p, "curved"))
    _report(11, "oracle table branches", not bad,
            f"{len(expected) + 3 - len(bad)}/{len(expected) + 3} branch values"
            + (f", wrong: {bad}" if bad else ""),
            time.monotonic() - t0, 10.0)


def test_a12_s3_hypersurface_sharpness():
    t0 = time.monotonic()
    samples = re_.sweep(lambda n: ha.Zonal(3, n, POLE4), SUB, 4.0,
                        re_.geometric_degrees(16, 256))
    oracle = re_.theoretical_exponent(3, 2, 4.0)
    fit = re_.fit_exponent(samples, oracle.value, TOL)
    _report(12, "S^3 great-subsphere sharpness p=4", fit.verdict == "pass",
            f"slope={fit.slope:.4f} target {oracle.value:.2f}+/-{TOL}",
            time.monotonic() - t0, 600.0)
