"""Oracles the tests check the package against; no experiment runs them.

The geometry lemmas behind the oscillatory kernel (geodesic distance, the
exponential map, a tangent frame, the distance-gradient identity and the
two stationary directions of psi_r), the full product grids on S^2 and
S^3 that the reduced one-dimensional rules are checked against, the
meridian through a pole, and a Gauss-Legendre rule along it for zonal
integrands.  Each grid is a pair (nodes, weights), one node per row.
"""

import math
from dataclasses import dataclass

import numpy as np

from eigenrestrict.geometry import as_unit_vector, gauss_legendre

TANGENT_TOL = 1e-10
# Central-difference step for derivative checks: truncation O(h^2) ~ 1e-10,
# rounding ~ 1e-16/h ~ 1e-11, so deviations land comfortably below 1e-6.
FD_STEP = 1e-5


def sphere_distance(x, y):
    """Geodesic distance on the unit sphere, arccos of the clamped inner product."""
    x = as_unit_vector(x)
    y = as_unit_vector(y)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    return float(np.arccos(np.clip(np.dot(x, y), -1.0, 1.0)))


def exp_map(x, v):
    """Exponential map exp_x(v) = cos|v| x + sin|v| v/|v| for tangent v at x."""
    x = as_unit_vector(x)
    v = np.asarray(v, dtype=float)
    if v.shape != x.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {v.shape}")
    r = float(np.linalg.norm(v))
    if abs(float(np.dot(v, x))) > TANGENT_TOL * max(1.0, r):
        raise ValueError("v is not tangent to the sphere at x")
    if r == 0.0:
        return x.copy()
    return math.cos(r) * x + math.sin(r) * (v / r)


def tangent_basis(x):
    """Deterministic orthonormal tangent basis (u1, u2) at a point of S^2."""
    x = as_unit_vector(x)
    if x.size != 3:
        raise ValueError("tangent_basis is for S^2 points only")
    k = int(np.argmin(np.abs(x)))
    e = np.zeros(3)
    e[k] = 1.0
    u1 = e - x[k] * x
    u1 /= np.linalg.norm(u1)
    u2 = np.cross(x, u1)
    return u1, u2


def distance_gradient_check(x, r, omega):
    """Deviation of the numerical gradient of psi_r from omega at the base point.

    psi_r(z) = -d(z, exp_x(r omega)) is differentiated at z = x by central
    differences in normal coordinates; the exact gradient is omega itself.
    Returns the Euclidean norm of (numerical gradient - omega) in the
    coordinate basis.
    """
    x = as_unit_vector(x)
    if not (1e-2 <= r < math.pi / 2):
        raise ValueError("r must lie in [0.01, pi/2) so the distance stays smooth")
    omega = np.asarray(omega, dtype=float)
    if abs(float(np.dot(omega, x))) > TANGENT_TOL:
        raise ValueError("omega is not tangent at x")
    nrm = float(np.linalg.norm(omega))
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError("omega must be a unit tangent direction")
    omega = omega / nrm
    y = exp_map(x, r * omega)
    u1, u2 = tangent_basis(x)
    grad = np.empty(2)
    for i, u in enumerate((u1, u2)):
        d_plus = sphere_distance(exp_map(x, FD_STEP * u), y)
        d_minus = sphere_distance(exp_map(x, -FD_STEP * u), y)
        grad[i] = -(d_plus - d_minus) / (2.0 * FD_STEP)
    target = np.array([float(np.dot(omega, u1)), float(np.dot(omega, u2))])
    return float(np.linalg.norm(grad - target))


@dataclass(frozen=True)
class CriticalPoints:
    omega_star: np.ndarray   # stationary direction carrying phase -d(x, x')
    phase_star: float        # psi_r(x, w*) - psi_r(x', w*) = -d(x, x')
    phase_antipode: float    # +d(x, x') at w* + pi
    separation: float        # d(x, x')


def critical_points(x, x_prime, r):
    """Stationary directions of w -> psi_r(x, w) with polar center x'.

    The direction circle meets the geodesic through x and x' twice.  Pointing
    away from x maximizes d(x, exp_{x'}(r w)) = r + d(x, x'), so psi_r is
    minimal there with phase difference -d(x, x'); the opposite direction
    gives +d(x, x').  Both values are recomputed from distances and must
    agree with the geodesic prediction to 1e-10.
    """
    x = as_unit_vector(x)
    xp = as_unit_vector(x_prime)
    if x.size != 3 or xp.size != 3:
        raise ValueError("critical-point geometry is implemented on S^2")
    d = sphere_distance(x, xp)
    if d == 0.0:
        raise ValueError("x and x' coincide; the stationary directions degenerate")
    if not (d < r < math.pi / 2):
        raise ValueError("need 0 < d(x, x') < r < pi/2")
    toward = x - float(np.dot(x, xp)) * xp
    toward /= np.linalg.norm(toward)
    omega_star = -toward
    y_star = exp_map(xp, r * omega_star)
    y_anti = exp_map(xp, -r * omega_star)
    phase_star = r - sphere_distance(x, y_star)
    phase_anti = r - sphere_distance(x, y_anti)
    if abs(phase_star + d) > 1e-10 or abs(phase_anti - d) > 1e-10:
        raise ArithmeticError("stationary phase values drifted beyond 1e-10")
    return CriticalPoints(omega_star, phase_star, phase_anti, d)


def sphere_grid(resolution):
    """Product quadrature grid on S^2 with weights summing to 4 pi.

    Gauss-Legendre in cos(theta) x uniform phi (resolution x 2*resolution
    nodes), exact for harmonic polynomials of degree < 2*resolution.  No
    sweep uses it: it is the oracle the reduced grids are checked against.
    """
    if resolution < 4:
        raise ValueError("grid resolution must be at least 4")
    t, wt = gauss_legendre(resolution)
    nphi = 2 * resolution
    phi = 2.0 * math.pi * np.arange(nphi) / nphi
    wphi = 2.0 * math.pi / nphi
    st = np.sqrt(1.0 - t**2)
    x = np.outer(st, np.cos(phi)).ravel()
    y = np.outer(st, np.sin(phi)).ravel()
    z = np.repeat(t, nphi)
    nodes = np.column_stack([x, y, z])
    weights = np.repeat(wt * wphi, nphi)
    return nodes, weights


def polar_pair_grid(n):
    """Reduced S^3 grid exact for integrands depending only on |x1 + i x2|.

    In the split x = (cos(a) e^{i b1}, sin(a) e^{i b2}) the measure is
    cos(a) sin(a) da db1 db2 and |x1+i x2| = cos(a), so with v = cos^2(a) the
    integral reduces to 2 pi^2 int_0^1 f(sqrt(v)) dv, handled by Gauss-Legendre
    in v.  Weight sum is exactly 2 pi^2.
    """
    if n < 4:
        raise ValueError("grid needs at least 4 nodes")
    t, w = gauss_legendre(n)
    v = 0.5 * (t + 1.0)
    c = np.sqrt(v)
    s = np.sqrt(1.0 - v)
    nodes = np.column_stack([c, np.zeros(n), s, np.zeros(n)])
    weights = math.pi**2 * w
    return nodes, weights


def meridian_normal(pole):
    """Unit normal to `pole`: its least aligned coordinate axis, orthogonalised."""
    k = int(np.argmin(np.abs(pole)))
    e = np.zeros(pole.size)
    e[k] = 1.0
    u = e - pole[k] * pole
    return u / np.linalg.norm(u)


def meridian(pole, c, s):
    """Points c pole + s u of the meridian through `pole` and its normal u,
    for arrays c = cos(arc), s = sin(arc) from the pole."""
    return np.outer(c, pole) + np.outer(s, meridian_normal(pole))


def zonal_gl_grid(pole, n):
    """n Gauss-Legendre nodes in t = <x, pole> along the meridian from `pole`.

    For f depending only on t, int_{S^2} f = 2 pi int f(t) dt, so the
    weights 2 pi w_GL (summing to 4 pi) make the rule exact when f is a
    polynomial of degree <= 2n - 1 in t.
    """
    t, w = gauss_legendre(n)
    return meridian(as_unit_vector(pole), t, np.sqrt(1.0 - t**2)), 2.0 * math.pi * w


def zonal_horner(f, points):
    """A `Zonal` f at points by Horner in z = e^{-2 i theta} over its
    Gegenbauer series, one vector step per term: the reference for the
    blocked sum of `Zonal.__call__`, within ~ n eps of the pole value."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    t = pts @ f.pole
    theta = np.arctan2(np.linalg.norm(pts - np.outer(t, f.pole), axis=1), t)
    step = np.exp(-2j * theta)
    series = f._series()
    acc = np.full(theta.shape, series[-1], dtype=complex)
    for c in series[-2::-1]:
        acc *= step
        acc += c
    vals = (acc * np.exp(1j * f.degree * theta)).real
    return vals[0] if np.ndim(points) == 1 else vals
