"""Lattice circles, divisor growth, and flat-torus eigenfunction experiments.

Eigenfunctions of the flat Laplacian on T^2 = (R/2piZ)^2 with eigenvalue N are
exactly the sums f = sum_j c_j e^{i<k_j, x>} over the lattice circle
|k_j|^2 = N, so everything here reduces to arithmetic of r_2(N), the number of
ways to write N as an ordered sum of two integer squares.  Cauchy-Schwarz
gives sup |f| <= sqrt(r_2(N)) ||f||_2, and r_2 grows slower than any power of
N, which is what the sup-norm and curve-restriction experiments probe.
"""

import math
from dataclasses import dataclass

import numpy as np

from .harmonics import TorusSum
from .restriction import loglog_fit, lp_norm_weighted

DESK_N_MAX = 10**7
POINTS_PER_AXIS_WAVELENGTH = 20
CIRCLE_RADIUS = 1.0


@dataclass(frozen=True, eq=False)
class CircleRepresentations:
    """All integer points on the circle m^2 + n^2 = N.

    For N = 0 the list is the single point (0, 0) and `degenerate` is set;
    every positive N with a representation has a count divisible by 4 (the
    four sign/swap symmetries act freely off the axes and in pairs on them).
    """

    N: int
    points: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("points must be an (r, 2) integer array")
        object.__setattr__(self, "points", pts)

    @property
    def r2(self):
        return int(self.points.shape[0])


def representations(N):
    """Exhaustive scan for integer solutions of m^2 + n^2 = N.

    Walks m over [-isqrt(N), isqrt(N)] and tests N - m^2 for squareness with
    exact integer arithmetic, so the list is complete by construction.
    """
    N = int(N)
    if N < 0:
        raise ValueError("N must be a nonnegative integer")
    if N == 0:
        return CircleRepresentations(0, np.zeros((1, 2), dtype=np.int64),
                                     degenerate=True)
    pts = []
    for m in range(-math.isqrt(N), math.isqrt(N) + 1):
        rem = N - m * m
        n = math.isqrt(rem)
        if n * n == rem:
            pts.append((m, n))
            if n > 0:
                pts.append((m, -n))
    if not pts:
        return CircleRepresentations(N, np.zeros((0, 2), dtype=np.int64))
    return CircleRepresentations(N, np.array(pts, dtype=np.int64))


def r2_table(n_max):
    """r_2(N) for all 0 <= N <= n_max via one vectorized lattice sieve.

    Bins m^2 + n^2 over the full square [-s, s]^2, which shares no logic with
    the per-N scan in `representations` and so serves as an independent
    cross-check of it.
    """
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > DESK_N_MAX:
        raise ValueError(f"n_max={n_max} beyond desk scale {DESK_N_MAX}")
    s = math.isqrt(n_max)
    m = np.arange(-s, s + 1, dtype=np.int64)
    sq = (m[:, None] ** 2 + m[None, :] ** 2).ravel()
    sq = sq[sq <= n_max]
    return np.bincount(sq, minlength=n_max + 1)


@dataclass(frozen=True, eq=False)
class DivisorGrowthTable:
    """Rows (N, r_2(N), log r_2 / log sqrt(N)) for represented N >= 2."""

    N: np.ndarray
    r2: np.ndarray
    exponent: np.ndarray

    def max_exponent(self, lo, hi):
        mask = (self.N >= lo) & (self.N <= hi)
        if not np.any(mask):
            raise ValueError(f"no represented N in [{lo}, {hi}]")
        return float(np.max(self.exponent[mask]))


def divisor_growth(n_max):
    """Normalized divisor-growth exponents log r_2(N) / log sqrt(N) up to n_max.

    The exponent quantifies r_2(N) = N^(eps/2) pointwise; the content of the
    divisor bound is that the max exponent over [cutoff, n_max] decays as the
    cutoff rises.  N in {0, 1} and unrepresented N are dropped (log sqrt(N)
    vanishes or r_2 = 0).
    """
    table = r2_table(n_max)
    N = np.arange(2, len(table), dtype=np.int64)
    r2 = table[2:]
    keep = r2 > 0
    N, r2 = N[keep], r2[keep]
    exponent = np.log(r2.astype(float)) / np.log(np.sqrt(N.astype(float)))
    return DivisorGrowthTable(N, r2, exponent)


def exponent_trend(n_max, cutoffs=(10**3, 10**4, 10**5)):
    """Max divisor-growth exponent over [cutoff, n_max] for each rising cutoff.

    Returns (maxima, strictly_decreasing).  Strict decrease is the desk-scale
    expression of the eps-smallness trend; inclusion alone would only give
    the non-strict version.
    """
    cutoffs = tuple(int(c) for c in cutoffs)
    if any(c2 <= c1 for c1, c2 in zip(cutoffs, cutoffs[1:])):
        raise ValueError("cutoffs must be strictly increasing")
    if cutoffs[-1] >= n_max:
        raise ValueError("largest cutoff must sit below n_max")
    growth = divisor_growth(n_max)
    maxima = [growth.max_exponent(c, n_max) for c in cutoffs]
    decreasing = all(a > b for a, b in zip(maxima, maxima[1:]))
    return maxima, decreasing


def random_eigenfunction(N, seed):
    """Eigenfunction with seeded unimodular coefficients on the circle |k|^2 = N.

    Every coefficient has modulus 1/sqrt(r_2(N)), so the L^2 norm is exactly 1
    and sup |f| <= sqrt(r_2(N)) with equality iff all phases align somewhere.
    """
    reps = representations(N)
    if reps.degenerate or reps.r2 == 0:
        raise ValueError(f"N={N} has no lattice circle to draw from")
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=reps.r2)
    coeffs = np.exp(1j * phases) / math.sqrt(reps.r2)
    return TorusSum(reps.points, coeffs)


def _grid_abs(f, m):
    # exact evaluation on the uniform m x m grid: place the coefficients in
    # an m x m spectral array and inverse-FFT (numpy ifft normalizes by 1/m^2)
    spec = np.zeros((m, m), dtype=complex)
    spec[f.freqs[:, 0] % m, f.freqs[:, 1] % m] = f.coeffs
    return np.abs(np.fft.ifft2(spec) * m * m)


def grid_sup_norm(f, grid_m=None):
    """Max of |f| over a uniform grid with one Richardson doubling.

    Trig polynomials have bounded second derivatives at scale sqrt(N), so a
    grid of 20 points per wavelength pins the sup to a fraction of a percent
    and doubling certifies it.  Returns (doubled-grid sup, base-grid sup);
    the base grid is every other node of the doubled one, so one FFT serves
    both.
    """
    lam = f.eigenvalue
    floor = max(8, math.ceil(POINTS_PER_AXIS_WAVELENGTH * lam))
    if grid_m is None:
        grid_m = floor
    elif grid_m < floor:
        raise ValueError(
            f"grid M={grid_m} underresolves sqrt(N)={lam:g}; need M >= {floor}")
    mags = _grid_abs(f, 2 * grid_m)
    return float(np.max(mags)), float(np.max(mags[::2, ::2]))


def standard_curves():
    """Sampling rules for the standard restriction curves on T^2.

    Closed geodesics of slope 0, 1, sampled by arc length, plus one round
    circle (not a geodesic; curvature probes the restriction claim off the
    flat directions).  Each entry is (label, sampler) with sampler(M) giving
    M points on the curve.
    """

    def geodesic(p, q):
        speed = math.hypot(p, q)

        def sample(m):
            s = np.linspace(0.0, 2.0 * math.pi * speed, m, endpoint=False)
            return np.column_stack([s * q / speed, s * p / speed])

        return sample

    def circle(m):
        s = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
        return np.column_stack([math.pi + CIRCLE_RADIUS * np.cos(s),
                                math.pi + CIRCLE_RADIUS * np.sin(s)])

    return (("slope0", geodesic(0, 1)),
            ("slope1", geodesic(1, 1)),
            ("slope1/2", geodesic(1, 2)),
            ("circle", circle))


def curve_l2_norms(f, num_points=None):
    """Restricted L^2 norms of f along the standard curves.

    Normalized arc measure, so a constant of modulus 1 has norm 1 on every
    curve and the values compare directly with ||f||_{L^2} = 1.
    """
    if num_points is None:
        num_points = max(4096, math.ceil(40 * f.eigenvalue))
    out = {}
    for label, sample in standard_curves():
        vals = f(sample(num_points))
        w = np.full(num_points, 1.0 / num_points)
        out[label] = lp_norm_weighted(vals, w, 2.0)
    return out


@dataclass(frozen=True, eq=False)
class TorusRow:
    N: int
    r2: int
    sup: float
    curve_l2: float
    seed: int


@dataclass(frozen=True, eq=False)
class LinftyReport:
    """Sup-norm experiment outcome across (N, seed) pairs.

    `bound_ok` asserts sup <= sqrt(r_2(N)) for every row (no tolerance: the
    grid max is a lower bound for the true sup, which Cauchy-Schwarz caps).
    `slope` fits log(max_seed sup) against log sqrt(N) and is None when fewer
    than two distinct N are present.
    """

    rows: tuple
    bound_ok: bool
    worst_margin: float
    slope: object


def verify_linfty_bound(Ns, seeds, grid_m=None):
    """Sup norms and curve restrictions for random eigenfunctions on each circle.

    For every N in Ns and seed in seeds, draws a unimodular random
    eigenfunction, measures its grid sup (Richardson-doubled) and the largest
    restricted L^2 norm over the standard curves, and checks the
    Cauchy-Schwarz ceiling sqrt(r_2).  The returned slope is the growth rate
    of the per-N worst sup in log sqrt(N).  Empty Ns or seeds raise
    ValueError: a bound checked over no rows proves nothing.
    """
    Ns, seeds = list(Ns), list(seeds)
    if not Ns or not seeds:
        raise ValueError("verify_linfty_bound needs at least one N and one seed")
    rows = []
    worst = -np.inf
    per_n_sup = {}
    for N in Ns:
        reps = representations(N)
        if reps.r2 == 0:
            raise ValueError(f"N={N} is not a sum of two squares")
        ceiling = math.sqrt(reps.r2)
        for seed in seeds:
            f = random_eigenfunction(N, seed)
            sup, _ = grid_sup_norm(f, grid_m)
            curve = max(curve_l2_norms(f).values())
            rows.append(TorusRow(int(N), reps.r2, sup, curve, int(seed)))
            worst = max(worst, sup - ceiling)
            per_n_sup[int(N)] = max(per_n_sup.get(int(N), 0.0), sup)
    slope = None
    if len(per_n_sup) >= 2:
        ns = np.array(sorted(per_n_sup), dtype=float)
        tops = np.array([per_n_sup[int(n)] for n in ns])
        slope = loglog_fit(np.sqrt(ns), tops)[0]
    return LinftyReport(tuple(rows), bool(worst <= 1e-12), float(worst), slope)
