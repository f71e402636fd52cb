"""Closed-form geometry on round unit spheres.

The two restriction targets and one Gauss-Legendre rule.  The targets are
latitude circles of S^2 in arc length (LatitudeCircle; the equator is the
one at colatitude pi/2) and the great 2-subsphere of S^3 (GreatSubsphere).
Each states the ambient dimension d, its own dimension k and whether it is
curved: the key of restriction.theoretical_exponent.  They sit in one
standard position each, written in the coordinate basis e1, e2, e3 (there
are no frames to rotate them).  Neither target needs a grid of its own: a
latitude circle's samples are its own points at uniform arc length, and the
subsphere is read in closed form.
Everything here is pure and immutable; downstream modules rely on these
functions being deterministic.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-12
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

    A surface, not a curve: restriction reads its norms in closed form, or
    along a meridian through a zonal pole, so it carries no parametrization.
    """

    ambient_dim = 3
    dim = 2
    curved = False


def equator():
    """Great circle through e1, e2 of R^3: the latitude circle at pi/2."""
    return LatitudeCircle(math.pi / 2)


@functools.lru_cache(maxsize=64)  # tilt rules hold 32 + 4 n^(1/3) nodes: a few KB each
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

