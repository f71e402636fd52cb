"""Explicit Laplace eigenfunction families on S^2, S^3 and the flat torus.

All sphere families are L^2-normalized: zonal and associated harmonics by
closed-form constants, highest-weight vectors by a cancellation-free log
Gamma ratio (`log_gamma_half_ratio`), and window-averaged combinations by
the closed-form Gram matrix of their tilted beams.
Evaluation is vectorized over point arrays and stays finite up to degree
several thousand.  The polynomials come from one place each: a zonal
harmonic on S^2 or S^3 from its Gegenbauer series in the angle from its
pole, which also gives its Fourier coefficients on every great circle
through that pole (`Zonal.circle_coefficients`), and every normalized
associated Legendre P-hat_n^m from one rescaled degree recurrence, with no
raw factorials.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import geometry
from .profiles import unit_bump


def eigenvalue(dim, degree):
    """lambda = sqrt(n (n + d - 1)), so -Delta f = lambda^2 f for degree n."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return math.sqrt(degree * (degree + dim - 1))


# rescaled-recurrence bookkeeping: renormalize whenever a value passes BIG and
# fold the collected offsets back in log space at the end
_BIG = 1e150
_LOG_BIG = math.log(_BIG)


def _diag_rescaled(m_max):
    """(-1)^m prod_{k<=m} sqrt((2k+1)/(2k)) / sqrt(2): the diagonal with s^m removed.

    Grows like m^(1/4), so it stays comfortably in range; the s^m factor that
    would underflow for large m at interior points is reattached in log space
    by assoc_legendre_norm.
    """
    out = np.empty(m_max + 1)
    out[0] = 1.0 / math.sqrt(2.0)
    for k in range(1, m_max + 1):
        out[k] = out[k - 1] * (-math.sqrt((2.0 * k + 1.0) / (2.0 * k)))
    return out


def assoc_legendre_norm(n, m, t):
    """Order-m normalized associated Legendre P-hat_n^m(t), int_{-1}^{1} P-hat^2 = 1.

    The order m is a scalar that broadcasts against t (one order on a grid),
    or a 1-d ascending integer array at one scalar t (a row of orders at a
    point); any other pairing raises ValueError.
    Fully normalized recurrence in the degree k, started at k = m:
      P-hat_m^m = prod_{k<=m} -sqrt((2k+1)/(2k)) sqrt(1-t^2) * 1/sqrt(2)
      P-hat_k^m = a(k,m) t P-hat_{k-1}^m - b(k,m) P-hat_{k-2}^m,  k > m,
    with a = sqrt((4k^2-1)/(k^2-m^2)), b = sqrt((2k+1)(k-1-m)(k-1+m) /
    ((2k-3)(k-m)(k+m))) and the Condon-Shortley sign; b = 0 at k = m+1, so the
    first step gives P-hat_{m+1}^m = sqrt(2m+3) t P-hat_m^m.  The s^m seed
    factor is carried in log space: for large m it underflows double range
    while the recurrence regrows it through the forbidden zone, so the naive
    form amplifies pure roundoff there.  A row steps, in place, only its
    prefix of orders m < k that have started.
    """
    m_arr = np.asarray(m)
    t = np.asarray(t, dtype=float)
    row = m_arr.ndim > 0
    if row and (m_arr.ndim != 1 or m_arr.size == 0 or t.ndim != 0
                or np.any(np.diff(m_arr) < 0)):
        raise ValueError("an order array must be 1-d, nonempty and ascending, "
                         "at one scalar t")
    if np.any((m_arr < 0) | (m_arr > n)):
        raise ValueError("need 0 <= m <= n")
    # a scalar order keeps the coefficients in Python numbers
    m = m_arr if row else int(m_arr)
    shape = np.broadcast_shapes(m_arr.shape, t.shape)
    p = np.full(shape, _diag_rescaled(int(m_arr.max()))[m])
    p_prev = np.zeros(shape)
    offset = np.zeros(shape)
    # |P-hat_k^0(t)| <= sqrt((2k+1)/2) on |t| <= 1, far below _BIG, so a
    # scalar m = 0 there never rescales and skips the test
    rescale = row or m > 0 or np.any(np.abs(t) > 1.0)
    # the factors of a^2 and b^2 are integers, formed exactly; below 2^53
    # their float products were exact too, so the quotients are unchanged
    msq = m * m
    live = ...  # a scalar order has started at every t
    for k in range(int(m_arr.min()) + 1, n + 1):
        if row:  # the orders m < k have started: the row's prefix
            live = slice(0, int(np.searchsorted(m_arr, k)))
        ms = msq[live] if row else msq
        d2 = k * k - ms
        a = np.sqrt((4.0 * k * k - 1.0) / d2)
        b = np.sqrt((2 * k + 1) * ((k - 1) ** 2 - ms) / ((2 * k - 3) * d2))
        new = a * t * p[live] - b * p_prev[live]
        if row:  # the orders not yet started keep their seeds
            p_prev[live] = p[live]
            p[live] = new
        else:  # a 0-d t gives a NumPy scalar: the rescale writes into arrays
            p, p_prev = np.asarray(new), p
        if rescale and np.any(hot := np.abs(cur := p[live]) > _BIG):
            cur[hot] /= _BIG
            p_prev[live][hot] /= _BIG
            offset[live][hot] += _LOG_BIG
    s = np.sqrt(np.maximum(0.0, 1.0 - t**2))
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) at the poles
        logs = offset + np.where(m_arr > 0, m * np.log(s), 0.0)
    return np.where((s > 0.0) | (m_arr == 0), p * np.exp(logs), 0.0)


def _points2d(points):
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    return pts, single


# (2^-k - 2) B_{k+1} / (k (k + 1)) for odd k = 1, 3, ..., 15, from B_2, ..., B_16
_HALF_RATIO_SERIES = tuple((2.0**-k - 2.0) * b / (k * (k + 1)) for k, b in zip(
    range(1, 17, 2), (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)))


def log_gamma_half_ratio(x):
    """log Gamma(x + 1/2) - log Gamma(x) for x > 0, to a few ulps of the result.

    Two lgamma calls near x log x cancel to about (1/2) log x and lose
    log10(x) digits.  For x >= 8 the difference of the Bernoulli-polynomial
    expansions of log Gamma(x + a) at a = 1/2 and a = 0, with
    B_{k+1}(1/2) = (2^-k - 1) B_{k+1}, is
    (1/2) log x + sum over odd k of (2^-k - 2) B_{k+1} / (k (k + 1) x^k);
    its first omitted term is below 2e-16 at x = 8.  Below 8 both lgamma
    values are small and their difference is taken directly.
    """
    if x < 8.0:
        return math.lgamma(x + 0.5) - math.lgamma(x)
    y, acc = 1.0 / (x * x), 0.0
    for c in reversed(_HALF_RATIO_SERIES):
        acc = acc * y + c
    return 0.5 * math.log(x) + acc / x


def highest_weight_log_const(dim, degree):
    """log of c_{n,d} with ||c (x1+i x2)^n||_{L^2(S^d)} = 1, via log-Gamma.

    int_{S^d} |x1+i x2|^{2n} dsigma = 2 pi^{(d+1)/2} n! / Gamma(n + (d+1)/2):
    2 pi^{3/2} / exp(log_gamma_half_ratio(n + 1)) for d=2, 2 pi^2 / (n + 1)
    for d=3.
    """
    n = degree
    if dim == 2:
        log_integral = math.log(2.0 * math.pi**1.5) - log_gamma_half_ratio(n + 1.0)
    elif dim == 3:
        log_integral = math.log(2.0 * math.pi**2) - math.log(n + 1.0)
    else:
        raise ValueError("highest-weight families are implemented on S^2 and S^3")
    return -0.5 * log_integral


def averaged_window(degree, delta):
    """Half-width delta * n^{-1/3} of the tilt-angle window; delta finite and > 0."""
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"averaging width delta must be finite and positive, got {delta!r}")
    w = delta * degree ** (-1.0 / 3.0)
    if w > math.pi:
        raise ValueError("averaging window exceeds [-pi, pi]; shrink delta")
    return w


def averaged_node_count(degree):
    """Gauss-Legendre node count 32 + 4 n^{1/3} for the tilt average."""
    return 32 + int(math.ceil(4.0 * degree ** (1.0 / 3.0)))


def _averaged_tilts(degree, delta, profile=unit_bump):
    """Tilt angles phi_j and weights W_j = w wt_j Psi(phi_j/w) of the average."""
    w = averaged_window(degree, delta)
    nodes, wts = geometry.gauss_legendre(averaged_node_count(degree))
    phis = w * nodes
    return phis, w * wts * profile(phis / w)


def eval_averaged_raw(degree, delta, points, profile=unit_bump):
    """Window average  int Psi(phi/w) (x1 + i(cos phi x2 + sin phi x3))^n dphi.

    Each tilted beam is a rotation of the highest-weight vector about the
    x1-axis, so the quadrature sum_j W_j e_n(R_j x) is still an exact degree-n
    harmonic; Gauss-Legendre node placement only sets how closely it tracks
    the continuum average.  Unnormalized.
    """
    pts, single = _points2d(points)
    out = np.zeros(pts.shape[0], dtype=complex)
    beam = HighestWeight(2, degree)
    for phi, weight in zip(*_averaged_tilts(degree, delta, profile)):
        c, s = math.cos(phi), math.sin(phi)
        # the beam reads only x1 and x2 of the rotated point
        rotated = np.column_stack([pts[:, 0], c * pts[:, 1] + s * pts[:, 2]])
        out += weight * beam(rotated)
    return out[0] if single else out


class _SphereFamily:
    """Shared surface for the sphere families: callable, graded, normalized."""

    @property
    def eigenvalue(self):
        return eigenvalue(self.dim, self.degree)

    @property
    def l2_norm(self):
        """||f||_{L^2(S^d)}: 1, fixed by each family's closed-form constant."""
        return 1.0


@dataclass(frozen=True, eq=False)
class Zonal(_SphereFamily):
    dim: int
    degree: int
    pole: np.ndarray

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError("zonal families are implemented on S^2 and S^3")
        object.__setattr__(self, "pole", geometry.as_unit_vector(self.pole))
        if self.pole.size != self.dim + 1:
            raise ValueError("pole dimension does not match the sphere")

    def _series(self):
        """c_{n-2k} = (family constant) a_k a_{n-k}, k = 0..n: f at angle theta
        from its pole is sum_k c_{n-2k} e^{i (n - 2k) theta}.

        The Gegenbauer series C_n^{(a)}(cos theta) = sum_k a_k a_{n-k}
        e^{i (n - 2k) theta}, a = (d - 1)/2 and a_k = (a)_k / k! (DLMF
        18.5.11): P_n on S^2, U_n on S^3.  The terms are positive and
        symmetric in k -> n - k, and sum to f's pole value to rounding.
        """
        n = self.degree
        k = np.arange(1, n + 1)
        a = np.cumprod(np.concatenate([[1.0], (0.5 * (self.dim - 3) + k) / k]))
        const = (math.sqrt((2 * n + 1) / (4.0 * math.pi)) if self.dim == 2
                 else 1.0 / math.sqrt(2.0 * math.pi**2))
        return const * a * a[::-1]

    def __call__(self, points):
        """S^2: sqrt((2n+1)/4pi) P_n(<x, pole>); S^3: U_n(<x, pole>) / sqrt(2 pi^2).

        The series at the angle theta from the pole, by Horner in
        e^{-2 i theta}: its positive terms keep the error within ~ n eps of
        the pole value.  theta = atan2(|x - t pole|, t), t = <x, pole>, is
        accurate to eps; arccos(t) would lose eps / sin(theta) near the
        poles, an n^2 eps error in f there.
        """
        pts, single = _points2d(points)
        t = pts @ self.pole
        theta = np.arctan2(np.linalg.norm(pts - np.outer(t, self.pole), axis=1), t)
        step = np.exp(-2j * theta)
        series = self._series()
        acc = np.full(theta.shape, series[-1], dtype=complex)
        for c in series[-2::-1]:
            acc *= step
            acc += c
        vals = (acc * np.exp(1j * self.degree * theta)).real
        return vals[0] if single else vals

    def circle_coefficients(self):
        """Real Fourier coefficients c_j, |j| <= n, in FFT order (c_j at
        index j mod 2n + 1), of f along any great circle through its pole:
        f = sum_j c_j e^{i j s}, with s = 0 at the pole.  No recurrence, no
        samples."""
        n = self.degree
        coeffs = np.zeros(2 * n + 1)  # frequencies -n..n
        coeffs[::2] = self._series()
        return np.fft.ifftshift(coeffs)


@dataclass(frozen=True, eq=False)
class AssocHarmonic(_SphereFamily):
    degree: int
    order: int
    dim: ClassVar[int] = 2

    def __post_init__(self):
        if abs(self.order) > self.degree:
            raise ValueError("order exceeds degree")

    def __call__(self, points):
        """Y_n^m = P-hat_n^m(cos theta) e^{i m phi} / sqrt(2 pi) about the z-axis;
        negative orders via Y_n^{-m} = (-1)^m conj(Y_n^m)."""
        pts, single = _points2d(points)
        t = np.clip(pts[:, 2], -1.0, 1.0)
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        am = abs(self.order)
        radial = assoc_legendre_norm(self.degree, am, t) / math.sqrt(2.0 * math.pi)
        vals = radial * np.exp(1j * am * phi)
        if self.order < 0:
            vals = (-1) ** am * np.conj(vals)
        return vals[0] if single else vals


@dataclass(frozen=True, eq=False)
class HighestWeight(_SphereFamily):
    dim: int
    degree: int

    def __call__(self, points):
        """c_{n,d} (x1 + i x2)^n, the equator-concentrating Gaussian beam."""
        n, logc = self.degree, highest_weight_log_const(self.dim, self.degree)
        pts, single = _points2d(points)
        z = pts[:, 0] + 1j * pts[:, 1]
        vals = np.full(z.shape, math.exp(logc) if n == 0 else 0.0, dtype=complex)
        if n > 0:
            pos = z != 0.0
            vals[pos] = (np.exp(logc + n * np.log(np.abs(z[pos])))
                         * np.exp(1j * n * np.angle(z[pos])))
        return vals[0] if single else vals


@dataclass(frozen=True, eq=False)
class Averaged(_SphereFamily):
    """Tilt-averaged beam, normalized by the Gram matrix of its tilted beams."""

    degree: int
    delta: float
    dim: ClassVar[int] = 2

    def __post_init__(self):
        averaged_window(self.degree, self.delta)  # validates the window

    @cached_property
    def _scale(self):
        # the tilted beams are c (a_j . x)^n with isotropic a_j = (1, i cos phi_j,
        # i sin phi_j), so <b_j, b_k> = (a_j . conj(a_k) / 2)^n
        # = cos^{2n}((phi_j - phi_k)/2) and ||sum_j W_j b_j||^2 = W^T G W.
        # Unit diagonal and positive weights keep the norm >= |W| > 0.
        phis, weights = _averaged_tilts(self.degree, self.delta)
        gram = np.cos(0.5 * (phis[:, None] - phis[None, :])) ** (2 * self.degree)
        return 1.0 / math.sqrt(float(weights @ gram @ weights))

    def __call__(self, points):
        return self._scale * eval_averaged_raw(self.degree, self.delta, points)


@dataclass(frozen=True, eq=False)
class TorusSum:
    """Trigonometric eigenfunction sum_j c_j e^{i <k_j, x>} on one lattice circle.

    All frequencies must satisfy |k_j|^2 = N for a single N; the eigenvalue is
    sqrt(N).  Plancherel: ||f||_{L^2(T^2, dx/(2pi)^2)} = sqrt(sum |c_j|^2).
    """

    freqs: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=np.int64)
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if freqs.ndim != 2 or freqs.shape[1] != 2 or freqs.shape[0] != coeffs.shape[0]:
            raise ValueError("freqs must be (k, 2) integers matching coeffs")
        if freqs.shape[0] == 0:
            raise ValueError("empty frequency set")
        norms = np.sum(freqs.astype(np.int64) ** 2, axis=1)
        if np.any(norms != norms[0]):
            raise ValueError("frequencies lie on different circles |k|^2 = N")
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def circle_number(self):
        return int(np.sum(self.freqs[0] ** 2))

    @property
    def eigenvalue(self):
        return math.sqrt(self.circle_number)

    @property
    def l2_norm(self):
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    def __call__(self, xy):
        pts = np.atleast_2d(np.asarray(xy, dtype=float))
        phase = pts @ self.freqs.T.astype(float)
        vals = np.exp(1j * phase) @ self.coeffs
        return vals[0] if np.asarray(xy).ndim == 1 else vals
