"""Closed-form geometry on round unit spheres.

Distances, the exponential map, the two restriction targets, one
Gauss-Legendre rule, and quadrature grids whose weights sum exactly to the
measure of the target.
The targets are latitude circles of S^2 in arc length (LatitudeCircle; the
equator is the one at colatitude pi/2) and the great 2-subsphere of S^3
(GreatSubsphere).  Each states the ambient dimension d, its own dimension k
and whether it is curved: the key of restriction.theoretical_exponent.
They sit in one standard position each, written in the coordinate basis
e1, e2, e3 (there are no frames to rotate them).  Everything here is pure
and immutable; downstream modules rely on these functions being
deterministic.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-12
TANGENT_TOL = 1e-10
# Central-difference step for derivative checks: truncation O(h^2) ~ 1e-10,
# rounding ~ 1e-16/h ~ 1e-11, so deviations land comfortably below 1e-6.
FD_STEP = 1e-5
# Gauss-Legendre Newton: Tricomi's guesses are within 2e-3 relative in 1 - x,
# so three steps reach 1e-12; past GL_NEWTON_TOL the next iterate is exact
# to rounding and the weight correction's error is below 1e-20
GL_NEWTON_TOL = 1e-10
GL_MAX_STEPS = 8


def as_unit_vector(coords):
    """Validate and return a unit vector in R^(d+1) as a float array."""
    x = np.asarray(coords, dtype=float)
    if x.ndim != 1 or x.size < 3:
        raise ValueError(f"expected a vector in R^(d+1) with d >= 2, got shape {x.shape}")
    norm = float(np.linalg.norm(x))
    if abs(norm - 1.0) > UNIT_TOL:
        raise ValueError(f"not a unit vector (|x| = {norm!r}, tolerance {UNIT_TOL})")
    return x


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


@dataclass(frozen=True, eq=False)
class LatitudeCircle:
    """The circle at colatitude theta0 from the axis e3 on S^2, in arc length.

    theta0 lies in (0, pi/2] and is stored as given.  A theta0 math.isclose
    to pi/2 is the equator through e1, e2, a geodesic: its height and
    geodesic curvature are exactly 0.0.  Off it the geodesic curvature
    cot(theta0) never vanishes (`curved`), which selects the improved
    restriction exponent.
    """

    ambient_dim = 2  # d of the ambient S^d
    dim = 1          # k, the target's own dimension
    colatitude: float

    def __post_init__(self):
        if not (0.0 < self.colatitude <= math.pi / 2):  # NaN fails too
            raise ValueError("latitude circle needs colatitude in (0, pi/2]")

    @property
    def curved(self):
        return not math.isclose(self.colatitude, math.pi / 2)

    @property
    def curvature(self):
        """Geodesic curvature cot(theta0)."""
        return 1.0 / math.tan(self.colatitude) if self.curved else 0.0

    @property
    def length(self):
        return 2.0 * math.pi * math.sin(self.colatitude)

    def points(self, s):
        """Points gamma(s) for an array of arc-length parameters (wraps mod length)."""
        s = np.asarray(s, dtype=float).ravel()
        st = math.sin(self.colatitude)
        height = math.cos(self.colatitude) if self.curved else 0.0
        a = s / st
        return np.column_stack([st * np.cos(a), st * np.sin(a), np.full(s.size, height)])


class GreatSubsphere:
    """The great 2-sphere {x4 = 0} of S^3, the unit sphere of span(e1, e2, e3).

    A surface, not a curve: restriction integrates over it along one
    meridian (zonal_grid), so it carries no parametrization.
    """

    ambient_dim = 3
    dim = 2
    curved = False


def equator():
    """Great circle through e1, e2 of R^3: the latitude circle at pi/2."""
    return LatitudeCircle(math.pi / 2)


def latitude_circle(colatitude):
    return LatitudeCircle(colatitude)


def great_subsphere():
    return GreatSubsphere()


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


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Nodes on the target (rows of `nodes`) with positive weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 1 or nodes.shape[0] != weights.shape[0]:
            raise ValueError("nodes and weights must have matching leading dimension")
        if np.any(weights <= 0.0):
            raise ValueError("quadrature weights must be strictly positive")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def total(self):
        return float(np.sum(self.weights))


@functools.lru_cache(maxsize=64)  # 64 rules hold at most 17 MB at n = 16404 (degree 8192)
def gauss_legendre(n):
    """Nodes (ascending) and weights on [-1, 1], exact for polynomials of degree 2n-1.

    Newton's method on the three-term recurrence, from Tricomi's initial
    guesses, for the nodes x = 1 - u >= 0 (the rest by symmetry); weights
    2 / ((1 - x^2) P_n'(x)^2).  The iteration runs in u, with the recurrence
    carried as P_k and D_k = P_k - P_{k-1}, so the endpoint nodes keep full
    relative accuracy in 1 - x; there a weight moves by a relative
    2 du / u, so a node rounded in x, not u, would shift it by ~ n^2 eps.
    numpy's own Gauss-Legendre (a dense companion eigensolve) is off there
    by 1e-9 at n = 530 and 3e-8 at n = 2064, and needs O(n^2) memory; this
    rule uses O(n) memory and O(n^2) elementwise work.  Sweeps ask for the
    same n again and again, so rules are memoised; the arrays are read-only,
    because every caller shares them.
    """
    if n < 1:
        raise ValueError("Gauss-Legendre needs at least one node")
    theta = math.pi * (4.0 * np.arange(1, (n + 3) // 2) - 1.0) / (4.0 * n + 2.0)
    u = 2.0 * np.sin(0.5 * theta) ** 2 + np.cos(theta) * (
        (n - 1.0) / (8.0 * n**3) + (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4))
    for _ in range(GL_MAX_STEPS):
        p, d = 1.0 - u, -u  # P_1 and D_1
        for k in range(2, n + 1):
            d = (k - 1.0) / k * d - (2.0 * k - 1.0) / k * (u * p)
            p += d
        one_minus_x2 = u * (2.0 - u)
        dp = n * (u * p - d) / one_minus_x2  # n (P_{n-1} - x P_n) / (1 - x^2)
        du = p / dp
        # the weight at the updated node, to second order in du / u
        w = 2.0 / (one_minus_x2 * dp**2) * (1.0 + 2.0 * (1.0 - u) * du / one_minus_x2)
        u = u + du
        if np.max(np.abs(du) / u) < GL_NEWTON_TOL:
            break
    else:
        raise RuntimeError(f"Gauss-Legendre Newton iteration did not converge at n = {n}")
    x = 1.0 - u
    half = n // 2  # an odd n's middle node is listed once
    nodes, weights = np.concatenate([-x, x[:half][::-1]]), np.concatenate([w, w[:half][::-1]])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_chebyshev2(n):
    """Nodes/weights for int_{-1}^{1} f(u) sqrt(1-u^2) du, exact to degree 2n-1.

    u_k = cos(k pi/(n+1)), w_k = pi/(n+1) sin^2(k pi/(n+1)).  This is the
    natural rule for the sin^2(chi) d(chi) factor of the S^3 volume element.
    """
    k = np.arange(1, n + 1)
    theta = k * math.pi / (n + 1)
    return np.cos(theta), math.pi / (n + 1) * np.sin(theta) ** 2


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
    return QuadratureGrid(nodes, weights)


def curve_grid(curve, n):
    """Uniform arc-length grid on a latitude circle (a GreatSubsphere has no length)."""
    if n < 4:
        raise ValueError("curve grid needs at least 4 nodes")
    length = curve.length
    s = length * np.arange(n) / n
    return QuadratureGrid(curve.points(s), np.full(n, length / n))


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
    return QuadratureGrid(nodes, weights)


def zonal_grid(dim, pole, n):
    """Reduced grid along a meridian from `pole`, exact for zonal integrands.

    For f depending only on t = <x, pole>, the transverse integrals are
    constant, so int f = |S^(dim-1)| * int f(t) (1-t^2)^((dim-2)/2) dt.  The
    returned nodes lie on one meridian and the weights absorb the transverse
    measure; weight sums are still the full 4*pi (S^2) or 2*pi^2 (S^3).
    """
    pole = as_unit_vector(pole)
    if pole.size != dim + 1:
        raise ValueError(f"a pole of S^{dim} has {dim + 1} coordinates, got {pole.size}")
    if n < 4:
        raise ValueError("zonal grid needs at least 4 nodes")
    if dim == 2:
        t, w = gauss_legendre(n)
        w = 2.0 * math.pi * w
    elif dim == 3:
        t, w = gauss_chebyshev2(n)
        w = 4.0 * math.pi * w
    else:
        raise ValueError("only S^2 and S^3 are supported")
    nodes = np.outer(t, pole) + np.outer(np.sqrt(1.0 - t**2), _normal(pole))
    return QuadratureGrid(nodes, np.asarray(w))


def _normal(pole):
    """Unit normal to `pole`: its least aligned coordinate axis, orthogonalised."""
    k = int(np.argmin(np.abs(pole)))
    e = np.zeros(pole.size)
    e[k] = 1.0
    u = e - pole[k] * pole
    return u / np.linalg.norm(u)


def meridian_grid(pole, n):
    """n uniform arc-length nodes cos(s) pole + sin(s) u of the great circle
    through `pole` and the normal u of zonal_grid's meridian; s = 0 is the pole."""
    pole = as_unit_vector(pole)
    if n < 4:
        raise ValueError("meridian grid needs at least 4 nodes")
    s = 2.0 * math.pi * np.arange(n) / n
    nodes = np.outer(np.cos(s), pole) + np.outer(np.sin(s), _normal(pole))
    return QuadratureGrid(nodes, np.full(n, 2.0 * math.pi / n))
