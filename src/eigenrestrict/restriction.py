"""Restricted L^p norms of eigenfunctions and growth-exponent fits.

The measurement pipeline is: take a family member's values on a curve grid
on which its norm is exact or resolved, form the restricted L^p norm, divide
by the family's closed-form ambient L^2 norm (`l2_norm`), and regress the
log of that ratio against log(lambda) across a geometric ladder of degrees.
Along a latitude circle, and along a great circle of the subsphere, a
degree-n member is a trigonometric polynomial of degree n, so at an even p
|f|^p is one of degree pn, and a grid of more than pn nodes is exact for
it; where that grid is not the smaller, and at every other p, the grid
holds at least 20 points per wavelength.  One function
sizes every grid from p, the degree and the eigenvalue (`_curve_nodes`); no
caller picks it.  The grid values come from the 2n + 1 Fourier coefficients
(`_circle_coefficients`: closed form for a zonal harmonic read along a
great circle through its pole, one FFT of samples otherwise) and one
zero-padded inverse FFT (`_fourier_values`), not from evaluating it at
every node.  On the great 2-subsphere of S^3 only such zonal harmonics are
read: every norm reads uniform values along a meridian through the pole,
and the surface integral is one |sin s|-weighted rule (`_meridian_weights`).
Two reads need no values: the sup of a zonal harmonic read from its pole is
its pole value, and the highest-weight beam's modulus is constant on a
latitude circle and a power of 1 - x3^2 on the subsphere, so its norms are
closed form (`_highest_weight_norm`).  The turning-point scan
needs no grid either: every order's restricted L^2 norm on a latitude
circle comes from one zonal harmonic's coefficients on it per degree
(`circle_spectrum`), and the scan takes the argmax over all m.  The
theoretical_exponent oracle carries the sharp growth rates of the fits.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import geometry, harmonics

CURVE_FLOOR = 4096
POINTS_PER_WAVELENGTH = 20
SWEEP_RATIO = math.sqrt(2.0)  # degree ladder spacing
ENVELOPE_SLACK = 0.02  # exponent slack of the envelope check


def _smooth_size(n):
    """Smallest 5-smooth integer >= n: a size pocketfft transforms
    without its Bluestein path."""
    best = 1 << max(0, n - 1).bit_length()  # the power of two
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def required_curve_points(lam):
    """Oscillation-resolving floor max(4096, 20 lambda) for 1-d curve grids,
    rounded up to a 5-smooth size (at most 5.5% more nodes): the grid of
    every norm that no exact rule covers (`_curve_nodes`)."""
    return _smooth_size(max(CURVE_FLOOR, int(math.ceil(POINTS_PER_WAVELENGTH * lam))))


def lp_norm_weighted(values, weights, p):
    """(sum w |v|^p)^(1/p), or the grid max for p = inf (shared norm kernel):
    top (sum w (|v| / top)^p)^(1/p) with top = max |v|, so the sum neither
    underflows to 0 nor overflows; a top of 0, inf or NaN is returned as is."""
    if not p > 0:  # NaN too
        raise ValueError(f"p must be positive or inf, got {p!r}")
    mags = np.abs(np.asarray(values))
    top = float(np.max(mags))
    if math.isinf(p) or not 0.0 < top < math.inf:
        return top
    return top * float(np.sum(np.asarray(weights) * (mags / top) ** p)) ** (1.0 / p)


def lp_norm_on_curve(f, curve, p):
    """Restricted L^p norm of f over a latitude circle of S^2 or the great
    subsphere {x4 = 0} of S^3.

    A `harmonics.HighestWeight` takes its closed form (`_highest_weight_norm`),
    and so does the sup of a zonal harmonic read from its pole: its
    coefficients along the circle are all positive, so its sup is their sum,
    its pole value.  Any other read takes `_curve_nodes(f, curve, p)`
    values of f, interpolated from f's coefficients along that circle
    (`_circle_coefficients`).  A circle takes the trapezoid rule in arc
    length, and p = inf the max of the values.  The subsphere reads only a
    `harmonics.Zonal` of S^3 whose pole lies on it (pole[-1] == 0.0), and
    any other f raises ValueError.  Its |f| is zonal about the pole, so
    every p reads f at uniform points of a meridian through it, both poles
    included, and a finite p weighs |f|^p there by `_meridian_weights`.
    An f with a `dim` must live on the target's sphere: ValueError otherwise.
    """
    if getattr(f, "dim", curve.ambient_dim) != curve.ambient_dim:
        raise ValueError(f"the target lies in S^{curve.ambient_dim}, not S^{f.dim}")
    n = _curve_nodes(f, curve, p)
    if isinstance(f, harmonics.HighestWeight):
        return _highest_weight_norm(f, curve, p)
    if n == 0:
        return float(np.sum(f.circle_coefficients()))
    values = _fourier_values(_circle_coefficients(f, curve), f.degree, n)
    if curve.dim == 1:
        return lp_norm_weighted(values, curve.length / n, p)
    return lp_norm_weighted(values, None if math.isinf(p) else _meridian_weights(n), p)


def _curve_nodes(f, curve, p):
    """How many values of f `lp_norm_on_curve` reads for its L^p norm on
    `curve`; 0 for a closed form (a `harmonics.HighestWeight`, or the sup of
    a zonal harmonic read from its pole, `_reads_from_pole`).

    Along the circle a degree-n f is a trigonometric polynomial of degree
    n, so at an even integer p |f|^p is one of degree pn: the trapezoid rule
    on N = _smooth_size(pn + 1) nodes, and the subsphere's
    `_meridian_weights(2N)`, are exact for it.  That N is taken wherever it
    is below the lambda grid N = `required_curve_points(f.eigenvalue)`, and
    every other read takes the lambda grid.  p = inf reads 2N values, whose
    even-index subset is the N-node grid bit for bit, and the subsphere
    reads 2N values along a full meridian.  ValueError when p is not
    positive or f has no eigenvalue or no degree.
    """
    if not p > 0:  # NaN too
        raise ValueError(f"p must be positive or inf, got {p!r}")
    if isinstance(f, harmonics.HighestWeight) or (math.isinf(p) and _reads_from_pole(f, curve)):
        return 0
    if getattr(f, "eigenvalue", None) is None:
        raise ValueError("f has no eigenvalue attribute, so no grid can be "
                         "sized to resolve its oscillation")
    if getattr(f, "degree", None) is None:
        raise ValueError("f has no degree attribute, so its restriction "
                         "cannot be sampled as a trigonometric polynomial")
    n = required_curve_points(float(f.eigenvalue))
    if p % 2 == 0 and p * f.degree < n:
        n = _smooth_size(int(p) * f.degree + 1)
    if math.isinf(p) or curve.dim == 2:
        n *= 2
    return n


def _highest_weight_norm(f, curve, p):
    """||c (x1 + i x2)^n||_{L^p}, in logs.  On the latitude circle at theta0
    |f| = c sin(theta0)^n; on {x4 = 0} |f| = c (1 - x3^2)^{n/2}, so there
    int |f|^p = 2 pi c^p B(1/2, pn/2 + 1)."""
    log_norm = harmonics.highest_weight_log_const(f.dim, f.degree)
    if curve.dim == 1:  # x / inf is 0.0: p = inf drops the measure term
        return math.exp(log_norm + f.degree * math.log(math.sin(curve.colatitude))
                        + math.log(curve.length) / p)
    if math.isinf(p):
        return math.exp(log_norm)
    # log B(1/2, a + 1) = log Gamma(1/2) - log(Gamma(a + 3/2) / Gamma(a + 1))
    log_beta = 0.5 * math.log(math.pi) - harmonics.log_gamma_half_ratio(0.5 * p * f.degree + 1.0)
    return math.exp(log_norm + (math.log(2.0 * math.pi) + log_beta) / p)


def _meridian_weights(m):
    """Weights at the m uniform angles s_j = 2 pi j / m (m even) of a meridian
    of S^2 for a zonal integrand: int_{S^2} G(<x, pole>) = pi int_0^{2 pi}
    G(cos s) |sin s| ds.

    |sin s| = sum over even k of (2 / pi) e^{iks} / (1 - k^2), so the rule
    w_j = (pi / m) sum over even k in (-m/2, m/2] of 4 e^{2 pi ijk / m} / (1 - k^2),
    one real FFT, is exact when G(cos s) is a trigonometric polynomial of
    degree < m / 2: Clenshaw-Curtis in t = cos s (Waldvogel, BIT 46, 2006).
    The weights are positive, symmetric in j -> m - j and sum to 4 pi, to
    rounding.
    """
    k = np.arange(0.0, m // 2 + 1, 2.0)
    coeffs = np.zeros(m // 2 + 1)
    coeffs[::2] = 4.0 / (1.0 - k**2)
    return math.pi * np.fft.irfft(coeffs, m)


def _reads_from_pole(f, curve):
    """True when f is a `harmonics.Zonal` read along a great circle through
    its pole: the equator or the subsphere, with pole[-1] == 0.0."""
    return (isinstance(f, harmonics.Zonal) and f.dim == curve.ambient_dim
            and not curve.curved and f.pole[-1] == 0.0)


def _circle_coefficients(f, curve):
    """f's Fourier coefficients c_j, in FFT order, along the circle its norm
    reads: closed form (`Zonal.circle_coefficients`) for a zonal harmonic
    read from its pole (`_reads_from_pole`), the only f the subsphere reads
    (ValueError otherwise).  On a latitude circle of length L a zonal
    harmonic with pole[1] == 0.0 is even about s = 0: its values at
    s = L j / M, j = 0..M/2, M = 2 _smooth_size(n + 1), are mirrored to all
    M and take one real FFT.  Any other f of degree n takes M =
    _smooth_size(2n + 1) samples (at least 4) and one FFT.
    """
    if _reads_from_pole(f, curve):
        return f.circle_coefficients()
    if curve.dim != 1:
        raise ValueError("the great subsphere reads only a zonal harmonic of S^3 "
                         "whose pole lies on it, {x4 = 0}")
    if isinstance(f, harmonics.Zonal) and f.pole[1] == 0.0:
        m = 2 * _smooth_size(f.degree + 1)
        half = f(curve.points(curve.length * np.arange(m // 2 + 1) / m))
        c = np.fft.rfft(np.concatenate([half, half[-2:0:-1]])).real / m
        return np.concatenate([c, c[-2:0:-1]])
    m = _smooth_size(max(4, 2 * f.degree + 1))
    return np.fft.fft(f(curve.points(curve.length * np.arange(m) / m))) / m


def _fourier_values(coeffs, deg, n):
    """sum_{|j| <= deg} c_j e^{2 pi i j l / n} at l = 0..n-1, for n >= 2 deg + 1.

    coeffs holds the c_j in FFT order (c_j at index j mod its length, which
    is >= 2 deg + 1).  The 2 deg + 1 of them, zero-padded to n and scaled
    by n, take one inverse FFT.
    """
    if n < 2 * deg + 1:
        raise ValueError(f"{n} curve nodes cannot resolve degree {deg}")
    buf = np.zeros(n, dtype=complex)
    buf[:deg + 1] = coeffs[:deg + 1]
    buf[n - deg:] = coeffs[coeffs.size - deg:]  # empty at deg = 0
    buf *= n
    return np.fft.ifft(buf, out=buf)


@dataclass(frozen=True)
class NormSample:
    degree: int
    lam: float
    p: float
    restricted_norm: float
    ambient_norm: float

    def __post_init__(self):
        if self.restricted_norm < 0 or self.ambient_norm <= 0:
            raise ValueError("norms must be positive")

    @property
    def ratio(self):
        return self.restricted_norm / self.ambient_norm


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    residual: float
    theoretical: float | None
    tolerance: float | None
    n_samples: int

    @property
    def verdict(self):
        if self.theoretical is None or self.tolerance is None:
            return "no_contract"
        return "pass" if abs(self.slope - self.theoretical) <= self.tolerance else "fail"


def loglog_fit(xs, ys):
    """Least-squares line log(y) = intercept + slope log(x).

    Returns (slope, intercept, rms residual); the shared log-log regression of
    the exponent, Airy and torus fits.  Fewer than two distinct x raise
    ValueError: the slope would be lstsq's minimum-norm guess, not a fit.
    """
    x = np.log(xs)
    if x.size < 2 or x.min() == x.max():
        raise ValueError("a log-log fit needs at least two distinct x values")
    y = np.log(ys)
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return float(coef[1]), float(coef[0]), float(np.sqrt(np.mean(resid**2)))


def fit_exponent(samples, theoretical=None, tolerance=None):
    """Least-squares slope of log(ratio) against log(lambda) over >= 4 samples."""
    if len(samples) < 4:
        raise ValueError("exponent fit needs at least 4 samples")
    lams = np.array([s.lam for s in samples])
    ratios = np.array([s.ratio for s in samples])
    if np.any(ratios <= 0.0) or np.any(lams <= 0.0):
        raise ValueError("ratios and eigenvalues must be positive for a log-log fit")
    slope, intercept, rms = loglog_fit(lams, ratios)
    return ExponentFit(slope, intercept, rms, theoretical, tolerance, len(samples))


@dataclass(frozen=True)
class ExponentOracle:
    value: float
    log_endpoint: bool


def theoretical_exponent(dim, k, p, curved=False):
    """Sharp restriction growth exponent for k-submanifolds of S^dim at L^p.

    Hypersurfaces (k = d-1): (d-1)/2 - (d-1)/p above the critical index
    p0 = 2d/(d-1) and (d-1)/4 - (d-2)/(2p) = 1/4 + (d-2)(p-2)/(4p) below
    it; both branches meet at p0, which carries the log-loss flag.
    Codimension 2 (k = d-2): (d-1)/2 - (d-2)/p for p > 2, log-flagged at
    p = 2.  Lower k: (d-1)/2 - k/p.  For curves on S^2, `curved=True`
    selects the improved exponent 1/3 - 1/(3p) available below p = 4 when
    the geodesic curvature never vanishes.  p may be an int, a float or a
    fractions.Fraction, and its side of p0 is decided exactly in integers;
    a float also stands for p0 when it is p0 rounded (8/3 for d = 4).
    """
    d = dim
    if not (isinstance(d, int) and d >= 2):
        raise ValueError("dimension must be an integer >= 2")
    if not (isinstance(k, int) and 1 <= k <= d - 1):
        raise ValueError(f"submanifold dimension k must satisfy 1 <= k <= {d - 1}")
    if not (p >= 2.0):
        raise ValueError("exponent p must lie in [2, inf]")
    if curved and (d, k) != (2, 1):
        raise ValueError("curved refinement only applies to curves on S^2")
    inv_p = 0.0 if math.isinf(p) else 1.0 / p
    if k == d - 1:
        a, b = (1, 0) if math.isinf(p) else p.as_integer_ratio()
        side = a * (d - 1) - 2 * d * b  # the sign of p - p0
        # past d = 2^53 the float nearest p0 is 2 itself, which keeps its branch
        if side == 0 or (p != 2 and p == 2 * d / (d - 1)):
            return ExponentOracle((d - 1.0) / (2.0 * d), True)
        if side > 0:
            return ExponentOracle((d - 1.0) / 2.0 - (d - 1.0) * inv_p, False)
        if curved:
            return ExponentOracle(1.0 / 3.0 - inv_p / 3.0, False)
        # written so that nothing cancels at large d: exactly 1/4 at p = 2
        return ExponentOracle(0.25 + (d - 2.0) * (p - 2.0) / (4.0 * p), False)
    if k == d - 2:
        if p == 2:
            return ExponentOracle(0.5, True)
        return ExponentOracle((d - 1.0) / 2.0 - (d - 2.0) * inv_p, False)
    return ExponentOracle((d - 1.0) / 2.0 - k * inv_p, False)


def geometric_degrees(lo, hi):
    """Geometric degree ladder lo..hi with the standard sqrt(2) spacing."""
    if lo < 4 or hi < lo:
        raise ValueError("need 4 <= lo <= hi")
    if hi > sys.float_info.max:  # the ladder steps in floats
        raise ValueError(f"hi exceeds the largest float, {sys.float_info.max:g}")
    out = []
    x = float(lo)
    while x < hi - 0.5:
        n = int(round(x))
        if not out or n > out[-1]:
            out.append(n)
        x *= SWEEP_RATIO
    if not out or out[-1] != hi:
        out.append(hi)
    return out


def _validate_degrees(degrees):
    if len(degrees) == 0:
        raise ValueError("empty degree list")
    if any(n < 4 for n in degrees):
        raise ValueError("degrees must be >= 4")
    if any(b <= a for a, b in zip(degrees, degrees[1:])):
        raise ValueError("degrees must be strictly increasing")


def sweep(family_factory, curve, p, degrees):
    """One NormSample per degree: restricted L^p over ambient L^2, sorted by n.

    family_factory(n) must return a callable family carrying .eigenvalue and
    .l2_norm.  Deterministic: no randomness anywhere in the path.
    """
    _validate_degrees(degrees)
    out = []
    for n in degrees:
        fam = family_factory(n)
        restricted = lp_norm_on_curve(fam, curve, p)
        out.append(NormSample(n, fam.eigenvalue, float(p), restricted, fam.l2_norm))
    return out


@dataclass(frozen=True)
class TurningPointResult:
    samples: list
    orders: list  # maximizing order m per degree


def circle_spectrum(colatitude, n):
    """|P-hat_n^m(cos theta0)|^2 for m = 0..n on the latitude circle at
    theta0, clipped at 0: no Legendre recurrence.

    On the circle the zonal f = Zonal(2, n, pole) with its pole on the circle
    at phi = 0 is, by the addition theorem, sum_m |P-hat_n^m|^2 e^{i m phi} /
    (2 pi f(pole)), with f(pole) = sqrt((2n + 1) / 4 pi).  So |P-hat_n^m|^2 =
    2 pi f(pole) c_m, c_m its Fourier coefficients in phi
    (`_circle_coefficients`: closed form on the equator, one real FFT off
    it).  Those are accurate to ~ n eps of the pole value, so entries in the
    forbidden zone m > n sin(theta0), exponentially small, come out as noise
    of either sign; the clip keeps them >= 0.
    """
    curve = geometry.LatitudeCircle(colatitude)
    coeffs = _circle_coefficients(harmonics.Zonal(2, n, curve.points(0.0)[0]), curve)
    pole_value = math.sqrt((2 * n + 1) / (4.0 * math.pi))
    return np.maximum(2.0 * math.pi * pole_value * coeffs[:n + 1], 0.0)


def turning_point_sweep(colatitude, degrees):
    """Max restricted L^2 norm over all orders m in [0, n] on one latitude
    circle: one zonal harmonic's coefficients per degree, argmax over all m.

    For each degree the scan finds the order whose oscillation turns exactly
    at the circle's colatitude (the restricted norm peaks there, at the Airy
    scale lambda^{1/6}), m* ~ n sin(theta0).  On a latitude circle |Y_n^m|
    is constant, equal to |P-hat_n^m(cos theta0)| / sqrt(2 pi), and the
    circle has length 2 pi sin(theta0); so `circle_spectrum` gives every
    order's restricted norm |P-hat_n^m(cos theta0)| sqrt(sin theta0) at
    once, with no curve quadrature.  The winner Y_n^m* has ambient norm 1.
    """
    _validate_degrees(degrees)
    scale = math.sqrt(geometry.LatitudeCircle(colatitude).length / (2.0 * math.pi))
    samples, orders = [], []
    for n in degrees:
        spectrum = circle_spectrum(colatitude, n)
        m_star = int(np.argmax(spectrum))
        samples.append(NormSample(n, harmonics.eigenvalue(2, n), 2.0,
                                  math.sqrt(spectrum[m_star]) * scale, 1.0))
        orders.append(m_star)
    return TurningPointResult(samples, orders)


@dataclass(frozen=True)
class EnvelopeReport:
    constant: float
    worst_excess: float  # max over samples of E_n / C; <= 1 when the bound holds
    ok: bool


def envelope_check(samples, exponent):
    """Check ratio(n) <= C lambda^(exponent + ENVELOPE_SLACK), C set by the first sample.

    The slack absorbs prefactor wobble: a true power law of the claimed
    exponent makes E_n = ratio / lambda^(exponent + slack) decreasing, so
    calibrating C at the smallest degree is the strictest sensible anchoring.
    """
    if not samples:
        raise ValueError("empty sample list")
    env = [s.ratio / s.lam ** (exponent + ENVELOPE_SLACK) for s in samples]
    c = env[0]
    worst = max(e / c for e in env)
    return EnvelopeReport(c, worst, worst <= 1.0 + 1e-9)
