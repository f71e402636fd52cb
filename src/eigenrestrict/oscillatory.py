"""Oscillatory-integral checks behind the restriction bounds.

Three numerical experiments live here:

* kernel_matrix: the curve-pair kernel K(t, tau) on the equator, obtained
  by integrating e^{i lambda [psi_r(x(t), w) - psi_r(x(tau), w)]} over the
  circle of directions w at the patch center e1, with a smooth amplitude.
  Its modulus should decay like (1 + lambda |t - tau|)^{-1/2}.  The frame
  is the coordinate basis e1, e2, e3 (center, tangent, normal); the radius,
  amplitude support, sample window and ratio band are the calibrated
  constants KERNEL_*.
* phase_expansion_fit: the cubic coefficient of the arc-length expansion of
  the geodesic distance along a curve, which equals curvature^2 / 24.
* airy_operator_norm: the L^2 operator norm of the caustic-regime model
  kernel on [-AIRY_DOMAIN, AIRY_DOMAIN], which decays like lambda^{-2/3}.
  Its amplitude is always the product bump of AirySpec.amplitude_support;
  only c and d vary between cases.  The kernel is built from its offset
  factors (on the 2n-1 offsets i - j) and column factors (on the n nodes).
  With c and d at their defaults it is a Toeplitz matrix times a column
  scale, applied by FFT on a circulant embedding and never formed; otherwise
  its offset part is assembled densely, in row panels on a thread pool, from
  one half-angle tangent per entry, and the column scale enters the products.
  Its top singular value comes from Hermitian Lanczos on A^H A from a
  closed-form start, with full reorthogonalization against one basis,
  stopped by the Ritz residual bound.

psi_r(x, w) = -d(x, exp_center(r w)) throughout, with r the polar radius.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import geometry
from .profiles import bump, cutoff_chi
from .restriction import _smooth_size

KERNEL_RADIUS = 0.4  # polar radius r, well inside the injectivity scale
KERNEL_SUPPORT = 0.25  # half-width of the arc-length amplitude bump
KERNEL_WINDOW = 0.15  # half-width of the kernel decay sample window
KERNEL_GRID_POINTS = 25
KERNEL_RATIO_BAND = (0.5, 1.5)  # successive scaled sups must stay in it


def _check_positive(name, value):
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


# the kernel's frame on the equator: center gamma(0), tangent gamma'(0), normal
E1, E2, E3 = np.eye(3)


def direction_circle(m):
    """m equispaced direction points y(w) = exp_{e1}(r w) on the polar circle.

    Directions are w -> cos(w) e2 + sin(w) e3, about the patch center e1 of
    the equator.
    """
    w = 2.0 * math.pi * np.arange(m) / m
    omega = np.outer(np.cos(w), E2) + np.outer(np.sin(w), E3)
    return math.cos(KERNEL_RADIUS) * E1 + math.sin(KERNEL_RADIUS) * omega


def kernel_node_floor(lam, separation):
    """Trapezoid node floor 64 + 20 oscillations^-1 coverage of the phase range.

    The integrand phase spans 2 lambda d(x, x'), i.e. lambda d / pi full
    turns; 20 nodes per turn keeps the periodic trapezoid rule in its
    spectral-convergence regime.
    """
    turns = lam * separation / math.pi
    return 64 + int(math.ceil(20.0 * turns))


def kernel_matrix(lam, ts):
    """Hermitian matrix K(t_i, t_j) over equator arc positions ts, by exact factorization.

    K = dw * G G^H where G[i, w] = a(t_i) e^{i lambda psi_r(x(t_i), w)}, so
    Hermitian symmetry and positive semidefiniteness hold by construction.
    The amplitude is a smooth bump in arc length, a(s) = bump(s /
    KERNEL_SUPPORT), constant in w.  The direction count is the floor for
    the widest pair (kernel_node_floor).  lambda must be finite and positive.
    """
    _check_positive("lambda", lam)
    ts = np.asarray(ts, dtype=float)
    pts = geometry.equator().points(ts)
    m = kernel_node_floor(lam, float(np.max(np.abs(ts[:, None] - ts[None, :]))))
    dist = np.arccos(np.clip(pts @ direction_circle(m).T, -1.0, 1.0))
    g = bump(ts / KERNEL_SUPPORT)[:, None] * np.exp(-1j * lam * dist)
    return (2.0 * math.pi / m) * (g @ g.conj().T)


@dataclass(frozen=True)
class KernelDecayReport:
    lams: tuple
    sups: tuple        # sup over admissible pairs of |K| (1 + lambda |t-tau|)^(1/2)
    ratios: tuple      # successive sup ratios
    ok: bool


def _kernel_pair_masks(lams):
    """The sample grid on [-KERNEL_WINDOW, KERNEL_WINDOW] and, per lambda, its admissible pairs.

    Returns (ts, gaps, masks): a pair (t, tau) is admissible when
    2/lambda <= |t - tau| <= 0.9 r.  A lambda without any raises ValueError
    naming it, before any kernel is computed, and so does one whose kernel
    needs more than AIRY_MAX_BYTES: `kernel_matrix` holds a float angle and
    two complex temporaries, 40 bytes, per node and direction at its peak.
    """
    ts = np.linspace(-KERNEL_WINDOW, KERNEL_WINDOW, KERNEL_GRID_POINTS)
    gaps = np.abs(ts[:, None] - ts[None, :])
    masks = [(gaps >= 2.0 / lam) & (gaps <= 0.9 * KERNEL_RADIUS) for lam in lams]
    for lam, admissible in zip(lams, masks):
        if not admissible.any():
            raise ValueError(
                f"lambda={lam:g} leaves no admissible pair: need 2/lambda <= |t - tau| "
                f"<= 0.9 r on the window [-{KERNEL_WINDOW:g}, {KERNEL_WINDOW:g}]")
        m = kernel_node_floor(lam, float(gaps.max()))  # kernel_matrix's direction count
        nbytes = 40 * ts.size * m
        if nbytes > AIRY_MAX_BYTES:
            raise ValueError(f"lambda={lam:g} needs {m} directions: a working set of "
                             f"{nbytes} bytes, which exceeds the cap {AIRY_MAX_BYTES}")
    return ts, gaps, masks


def verify_kernel_bound(lams):
    """Scaled kernel sup across frequencies on the equator; flat within KERNEL_RATIO_BAND.

    Pairs with |t - tau| < 2/lambda (no oscillation to average) or
    |t - tau| > 0.9 r (outside the polar patch) are excluded from the sup.
    Every lambda is checked for an admissible pair before any kernel is
    computed (`_kernel_pair_masks`); one without raises ValueError naming it.
    Fewer than two lambdas raise ValueError too: there is no ratio to hold
    in the band, as does a lambda that is not finite and positive, also
    before any kernel.
    """
    if len(lams) < 2:
        raise ValueError("kernel decay compares successive lambdas; need at least two")
    for lam in lams:
        _check_positive("lambda", lam)
    ts, gaps, masks = _kernel_pair_masks(lams)
    sups = []
    for lam, admissible in zip(lams, masks):
        scaled = np.abs(kernel_matrix(lam, ts)) * np.sqrt(1.0 + lam * gaps)
        sups.append(float(np.max(scaled[admissible])))
    ratios = tuple(b / a for a, b in zip(sups, sups[1:]))
    ok = all(KERNEL_RATIO_BAND[0] <= q <= KERNEL_RATIO_BAND[1] for q in ratios)
    return KernelDecayReport(tuple(float(l) for l in lams), tuple(sups), ratios, ok)


PHASE_STEPS = tuple(5e-3 * (10 ** (j / 7.0)) for j in range(8))  # 5e-3 .. 5e-2, rising


@dataclass(frozen=True)
class PhaseExpansionFit:
    c_hat: float       # fitted cubic coefficient
    c_theory: float    # curvature^2 / 24 for the curve
    residual: float

    @property
    def deviation(self):
        return abs(self.c_hat - self.c_theory)


def phase_expansion_fit(curve):
    """Cubic coefficient of d(gamma(h), gamma(0)) = |h|(1 - c h^2 + ...).

    Regresses (|h| - d) / |h|^3 on [1, h, h^2] over h in PHASE_STEPS so the
    cubic and quartic remainder terms are absorbed; the intercept estimates
    c.  Distances use the chordal form 2 arcsin(|x - y| / 2), which keeps the
    h^3-scale cancellation fully accurate at step sizes down to 1e-3.  The
    distance grows with h only up to half the curve's length, so a curve
    no longer than twice the largest step (a latitude circle with
    pi sin(theta0) <= 0.05, theta0 below about 0.01592) raises ValueError.
    """
    h = np.array(PHASE_STEPS)
    if not h[-1] < curve.length / 2.0:
        raise ValueError(f"the largest step {h[-1]:g} is not below half the curve's "
                         f"length {curve.length / 2.0:.6g}, past which the distance "
                         f"falls as the step grows")
    base = curve.points(0.0)[0]
    pts = curve.points(h)
    chord = np.linalg.norm(pts - base[None, :], axis=1)
    dist = 2.0 * np.arcsin(np.clip(chord / 2.0, -1.0, 1.0))
    y = (h - dist) / h**3
    hs = h / h[-1]
    design = np.column_stack([np.ones_like(hs), hs, hs**2])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = float(np.sqrt(np.mean((y - design @ coef) ** 2)))
    return PhaseExpansionFit(float(coef[0]), curve.curvature**2 / 24.0, resid)


@dataclass(frozen=True, eq=False)
class AirySpec:
    """Model kernel e^{i lambda gamma(tau, D)} a(tau, D) (1-chi)(lambda^{1/3} D) / (lambda |D|)^{1/2}.

    gamma(tau, D) = -|D| (1 - c(tau) D^2 + d(tau, D) D^3) with c bounded below
    by a positive constant; chi is 1 on [-1/2, 1/2] and 0 outside [-1, 1], so
    the kernel vanishes identically near the diagonal.  The amplitude is the
    product bump a = bump(tau/s) bump(D/s) with s = amplitude_support, on
    tau, D in [-AIRY_DOMAIN, AIRY_DOMAIN]; s must be finite and positive.
    c is evaluated once on the grid nodes tau.  d is evaluated one row panel
    at a time, as d(tau, D) with tau the n grid nodes and D a block of rows
    of the offset grid, possibly on several threads at once: it must act
    elementwise, broadcasting in (tau, D), and be finite on the whole grid,
    the vanishing diagonal band included.  With c and d both None (the model
    case, `toeplitz`) the phase depends on D alone, so for any s the kernel
    is a Toeplitz matrix times a column scale and is applied without being
    formed.
    """

    lam: float
    c: object = None           # callable tau -> c(tau); default constant 1
    d: object = None           # callable (tau, D) -> correction; default 0
    # support comparable to the domain: narrow windows push the sup of the
    # kernel symbol onto an interior stationary family that decays like
    # lambda^{-1/2} until lambda ~ 1e4, masking the 2/3 rate at desk scale
    amplitude_support: float = 1.0

    def __post_init__(self):
        _check_positive("lambda", self.lam)
        _check_positive("amplitude_support", self.amplitude_support)

    @property
    def toeplitz(self):
        """c and d at their defaults: the kernel is Toeplitz times a column scale."""
        return self.c is None and self.d is None

    def c_values(self, tau):
        if self.c is None:
            return np.ones_like(tau)
        vals = np.asarray(self.c(tau), dtype=float) * np.ones_like(tau)
        if np.any(vals <= 0.0):
            raise ValueError("c(tau) must stay strictly positive")
        return vals


# the `case` values of the airy experiment: AirySpec's c and d for each
AIRY_CASES = {"model": {}, "variable": {"c": lambda tau: 1.0 + 0.2 * np.sin(tau),
                                        "d": lambda tau, delta: 0.1 * np.cos(tau)}}
AIRY_DOMAIN = 0.5          # half-width of the kernel's tau and D range
AIRY_MAX_BYTES = 16 * 8192**2  # cap on the Airy and kernel working sets: 1 GiB
LANCZOS_MAX_STEPS = 200    # Lanczos step limit
LANCZOS_RTOL = 1e-12       # Ritz residual bound, relative to sigma_1
# Weyl steps of the Lanczos start: 1/phi and 1/rho, rho the plastic number
_LANCZOS_WEYL = (0.6180339887498949, 0.7548776662466927)
_FFT_BUFFERS = 5           # length-m complex arrays beside the basis that scale with m
_PANEL_ROWS = 64           # dense-kernel rows built per thread-pool task


def airy_step_floor(lam):
    """Grid step (2 pi / lambda) / 20: twenty nodes per wavelength."""
    return (2.0 * math.pi / lam) / 20.0


def airy_matrix_dim(spec):
    """Kernel dimension n = ceil(2 AIRY_DOMAIN / step) + 1 at step airy_step_floor(lambda).

    The complex working set must fit in AIRY_MAX_BYTES: the
    (LANCZOS_MAX_STEPS + 1) x n Lanczos basis plus the operator, which is
    the n x n kernel when c or d is set (n <= 8090, lambda <= 2541) and, for
    the Toeplitz model kernel, which is never formed, _FFT_BUFFERS circulant
    arrays of length m = _smooth_size(2n - 1), the least 5-smooth size
    (n <= 317952, lambda <= 99887): its eigenvalues, one product buffer
    each for A and A^H, and the length-n vectors around them.  It counts
    the buffers that scale with m; about 0.32 MB more, mostly the
    tridiagonal, is fixed, so a warm call's traced peak beyond the basis is
    4.47 length-m buffers at lambda = 20000 but 8.88 at lambda = 800.  The
    cap binds only near lambda = 99887, where that part is negligible.  A
    larger one raises ValueError.  The cap bounds this working set, not the
    process RSS: the interpreter with numpy and the package (about 30 MiB)
    and the kernel's row-panel temporaries come on top, so the variable
    case at lambda = 2541 peaks near 1053 MiB.  ValueError also if every
    offset weight (1 - chi) bump is 0 on the grid (lambda below about 0.63 at s = 1): the
    kernel is then zero, and its norm 0 says nothing about decay.
    """
    step = airy_step_floor(spec.lam)
    n = int(math.ceil(2.0 * AIRY_DOMAIN / step)) + 1
    if spec.toeplitz:
        m = _smooth_size(2 * n - 1)
        held, operator = f"{_FFT_BUFFERS} x {m} FFT buffers", _FFT_BUFFERS * m
    else:
        held, operator = f"a {n} x {n} kernel", n * n
    held = f"a {LANCZOS_MAX_STEPS + 1} x {n} Lanczos basis and {held}"
    nbytes = 16 * ((LANCZOS_MAX_STEPS + 1) * n + operator)
    if nbytes > AIRY_MAX_BYTES:
        raise ValueError(f"lambda={spec.lam:g} needs matrix dimension {n}: {held}, a complex "
                         f"working set of {nbytes} bytes, which exceeds the cap "
                         f"{AIRY_MAX_BYTES}")
    # the weight is even in D and 0 at D = 0: the positive offsets decide
    if not np.any(_offset_weight(spec, step * np.arange(1, n))):
        raise ValueError(f"lambda={spec.lam:g} leaves every offset weight "
                         f"(1 - chi) bump of its {n}-node grid at 0: the kernel "
                         f"is zero and has no decay to measure")
    return n


def _toeplitz(offsets):
    """n x n view T[i, j] = offsets[i - j + n - 1] of a length 2n-1 vector."""
    n = (offsets.size + 1) // 2
    return np.lib.stride_tricks.sliding_window_view(offsets[::-1], n)[::-1]


def _toeplitz_products(offsets, column):
    """v -> T (column v) and u -> column T^H u for T[i, j] = offsets[i - j + n - 1].

    T is the leading n x n block of the circulant of side
    m = _smooth_size(2n - 1) whose first column holds the offsets
    i - j = 0..n-1, zeros, then i - j = 1-n..-1; a circulant is diagonal in
    the Fourier basis, so both products cost O(m log m) (Chan & Ng, SIAM
    Rev. 38, 1996).  Its eigenvalues are one FFT, taken here; each product
    then runs in place in one length-m buffer, the adjoint conjugating
    around the multiply instead of holding the eigenvalues' conjugate.
    """
    n = column.size
    m = _smooth_size(2 * n - 1)
    first = np.zeros(m, dtype=complex)
    first[:n] = offsets[n - 1:]
    first[m - n + 1:] = offsets[:n - 1]
    eig = np.fft.fft(first, out=first)

    def apply(v):
        buf = np.fft.fft(column * v, m)
        np.multiply(eig, buf, out=buf)  # eig first: its FMA rounding is order-sensitive
        return np.fft.ifft(buf, out=buf)[:n]

    def apply_adjoint(u):  # conj(eig) b = conj(eig conj(b))
        buf = np.fft.fft(u, m)
        np.conjugate(buf, out=buf)
        np.multiply(eig, buf, out=buf)
        np.conjugate(buf, out=buf)
        values = np.fft.ifft(buf, out=buf)[:n]
        values *= column
        return values

    return apply, apply_adjoint


def _offset_weight(spec, offsets):
    """(1 - chi)(lambda^{1/3} D) bump(D/s) / (lambda |D|)^{1/2} on the offsets D."""
    cut = 1.0 - cutoff_chi(spec.lam ** (1.0 / 3.0) * offsets)
    weight = np.zeros_like(offsets)
    live = cut > 0.0
    weight[live] = cut[live] / np.sqrt(spec.lam * np.abs(offsets[live]))
    weight *= bump(offsets / spec.amplitude_support)
    return weight


def _airy_kernel(spec, step, n):
    """step * K(t_i, t_j) on the nodes t = -AIRY_DOMAIN + step * arange(n), as (A v, A^H u).

    Returns the two products the Lanczos loop composes.  Each factor is
    evaluated at the shape it depends on: the cutoff 1 - chi(lambda^{1/3} D),
    (lambda |D|)^{-1/2} and bump(D/s) on the 2n-1 offsets D = (i - j) step,
    read through the Toeplitz index i - j + n - 1; c(tau) and step bump(tau/s)
    on the n column nodes, scaling the products K (column v) and column K^H u;
    only d(tau, D) and the exponential on the n^2 entries of K, one row panel
    at a time (_dense_kernel).  With c and d at their defaults the phase
    depends on D alone, so the kernel is one Toeplitz vector times a column
    scale, applied by circulant FFT (_toeplitz_products) with no n^2 array.
    """
    tau = -AIRY_DOMAIN + step * np.arange(n)
    offsets = step * np.arange(1 - n, n)
    weight = _offset_weight(spec, offsets)
    column = step * bump(tau / spec.amplitude_support)
    if spec.toeplitz:
        phase = -np.abs(offsets) * (1.0 - offsets**2)
        return _toeplitz_products(np.exp(1j * spec.lam * phase) * weight, column)
    kernel = _dense_kernel(spec, tau, offsets, weight)
    return (lambda v: kernel @ (column * v)), (lambda u: column * (u.conj() @ kernel).conj())


def _usable_cores():
    """Cores this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _dense_kernel(spec, tau, offsets, weight):
    """The n x n kernel for c or d set, without its column factor, in _PANEL_ROWS-row panels.

    Each panel evaluates the half phase -lambda |D| (1 - c D^2 + d D^3) / 2
    in place on one panel-sized array and writes its tangent t into the
    imaginary part: w cos = w 2/(1 + t^2) - w, w sin = t w 2/(1 + t^2), with w
    the offset weight, take one tan per entry and no n^2 float array.  Panels
    write disjoint rows elementwise, so the kernel has the same bits for any
    panel height and thread count.  They run on a thread pool of
    _usable_cores() workers (numpy's ufuncs release the GIL); c(tau) is
    evaluated once, here, and the workers call only numpy and spec.d.
    """
    from concurrent.futures import ThreadPoolExecutor  # on first use, like numpy.fft

    n = tau.size
    delta = _toeplitz(offsets)
    scale = _toeplitz(-0.5 * spec.lam * np.abs(offsets))
    spread = _toeplitz(weight)
    c = spec.c_values(tau)
    kernel = np.empty((n, n), dtype=complex)

    def fill(start):
        rows = slice(start, start + _PANEL_ROWS)
        gamma = 0.0 if spec.d is None else np.asarray(spec.d(tau, delta[rows]), dtype=float)
        gamma = gamma * delta[rows]
        gamma -= c
        gamma *= delta[rows]
        gamma *= delta[rows]
        gamma += 1.0
        gamma *= scale[rows]
        panel = kernel[rows]
        t = np.tan(gamma, out=panel.imag)
        np.multiply(t, t, out=gamma)
        gamma += 1.0
        np.divide(2.0, gamma, out=gamma)
        gamma *= spread[rows]
        np.subtract(gamma, spread[rows], out=panel.real)
        t *= gamma

    starts = range(0, n, _PANEL_ROWS)
    with ThreadPoolExecutor(min(_usable_cores(), len(starts))) as pool:
        list(pool.map(fill, starts))  # re-raises a panel's exception here
    return kernel


def _lanczos_sigma1(normal, n):
    """Top singular value of an n-column operator A by Hermitian Lanczos on A^H A.

    A enters only through normal(v) = A^H (A v).  It starts from the complex
    unit vector q_1 proportional to (frac(j a) - 1/2) + i (frac(j b) - 1/2),
    j < n, with (a, b) = _LANCZOS_WEYL: a closed form of products and % 1.0,
    so no random generator and no platform exp or sincos sets its bits.
    The recurrence builds one orthonormal basis Q_k (each new vector fully
    reorthogonalized against it, twice) with
    A^H A Q_k = Q_k T_k + beta_k q_{k+1} e_k^T, T_k real symmetric
    tridiagonal (Lanczos, J. Res. Nat. Bur. Standards 45, 1950).  If
    (theta, s) is the top eigenpair of T_k, sigma = sqrt(theta) and the Ritz
    vector Q_k s has residual beta_k |e_k^T s| in A^H A.  Divided by sigma
    this is the Ritz residual of Golub-Kahan bidiagonalization from the same
    start (Golub & Kahan, SIAM J. Numer. Anal. B 2, 1965), which spans the
    same Krylov space with two bases: its beta_k alpha_k is this beta_k, and
    alpha_k y_k = sigma x_k for the top singular triplet of its bidiagonal.
    The iteration stops once that residual is <= LANCZOS_RTOL sigma, or a
    zero beta leaves an invariant subspace on which sigma is exact.  Returns
    (sigma, steps, residual); the residual exceeds the bound only after
    LANCZOS_MAX_STEPS steps, and both are NaN if A has a NaN or infinite
    entry.
    """
    limit = LANCZOS_MAX_STEPS
    j = np.arange(n, dtype=float)
    a, b = _LANCZOS_WEYL
    q = (j * a % 1.0 - 0.5) + 1j * (j * b % 1.0 - 0.5)
    basis = np.empty((limit + 1, n), dtype=complex)
    basis[0] = q / np.linalg.norm(q)
    tridiag = np.zeros((limit + 1, limit + 1))
    for k in range(limit):
        w = normal(basis[k])
        alpha = float(np.vdot(basis[k], w).real)
        if not math.isfinite(alpha):  # a NaN or inf entry reaches w at once
            return math.nan, k + 1, math.nan
        tridiag[k, k] = alpha
        w = _reorthogonalize(w, basis[:k + 1])
        beta = float(np.linalg.norm(w))
        thetas, vecs = np.linalg.eigh(tridiag[:k + 1, :k + 1])
        sigma = math.sqrt(max(float(thetas[-1]), 0.0))
        if beta == 0.0:
            return sigma, k + 1, 0.0
        residual = beta * float(abs(vecs[-1, -1])) / sigma if sigma > 0.0 else math.inf
        if residual <= LANCZOS_RTOL * sigma:
            return sigma, k + 1, residual
        tridiag[k, k + 1] = tridiag[k + 1, k] = beta
        basis[k + 1] = w / beta
    return sigma, limit, residual


def _reorthogonalize(w, basis):
    """w minus its projection on the orthonormal rows of basis, applied twice."""
    for _ in range(2):
        w = w - (basis @ w.conj()).conj() @ basis
    return w


class AiryNorm(float):
    """sigma_1 of the Airy kernel: a float that also carries its Lanczos diagnostics.

    `steps` is the number of Lanczos steps taken and `residual` the final
    Ritz residual bound, <= LANCZOS_RTOL * sigma_1.
    """

    def __new__(cls, sigma, steps, residual):
        norm = super().__new__(cls, sigma)
        norm.steps = steps
        norm.residual = residual
        return norm


def airy_operator_norm(spec):
    """Largest singular value of the discretized model kernel on [-AIRY_DOMAIN, AIRY_DOMAIN].

    The matrix is K(t_i, t_j) * step (midpoint discretization of the integral
    operator at step airy_step_floor(lambda)), built factor by factor
    (_airy_kernel): offset factors on the 2n-1 offsets, column factors on
    the n nodes.  For the default c and d it is one offset vector times a
    column scale, applied by circulant FFT in O(n log n) per product and
    never formed; otherwise it is assembled as an n x n array in row panels.
    Its spectral norm comes from Lanczos on A^H A with full
    reorthogonalization (_lanczos_sigma1), stopped when the Ritz residual
    bound is <= LANCZOS_RTOL sigma_1; ArithmeticError if LANCZOS_MAX_STEPS
    steps do not reach it or the kernel has a non-finite entry.  ValueError
    for a working set above AIRY_MAX_BYTES (airy_matrix_dim).  Returns an
    AiryNorm: sigma_1 with the step count and residual that back it.
    """
    n = airy_matrix_dim(spec)
    apply, apply_adjoint = _airy_kernel(spec, airy_step_floor(spec.lam), n)
    sigma, steps, residual = _lanczos_sigma1(lambda v: apply_adjoint(apply(v)), n)
    if not residual <= LANCZOS_RTOL * sigma:  # NaN too: a non-finite kernel entry
        raise ArithmeticError(
            f"Lanczos for lambda={spec.lam:g} stopped after {steps} steps "
            f"with Ritz residual {residual:.3g} > {LANCZOS_RTOL:g} sigma_1 = {sigma:.6g}")
    return AiryNorm(sigma, steps, residual)
