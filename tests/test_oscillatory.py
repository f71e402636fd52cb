"""Kernel decay, stationary directions, phase expansion, Airy model operator."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from eigenrestrict import geometry as geo
from eigenrestrict import oscillatory as osc
from eigenrestrict.profiles import BUMP_MASS, bump, cutoff_chi, unit_bump
from oracles import critical_points


# ----------------------------------------------------------------- profiles

def test_bump_profile():
    assert bump(0.0) == 1.0
    assert bump(1.0) == 0.0 and bump(-2.0) == 0.0
    ts = np.linspace(-0.99, 0.99, 101)
    vals = bump(ts)
    assert np.all(vals > 0.0) and np.all(vals <= 1.0)
    assert np.allclose(vals, bump(-ts))


def test_unit_bump_mass():
    # the constant against a fresh 200-node Gauss-Legendre quadrature, to a
    # few ulp (a leggauss(200) sum is 4.6e-15 high)
    t, w = geo.gauss_legendre(200)
    assert math.isclose(float(np.sum(w * bump(t))), BUMP_MASS, rel_tol=2e-15)
    assert math.isclose(float(np.sum(w * unit_bump(t))), 1.0, rel_tol=1e-14)


def test_cutoff_chi_plateaus():
    assert cutoff_chi(0.0) == 1.0 and cutoff_chi(0.5) == 1.0
    assert cutoff_chi(1.0) == 0.0 and cutoff_chi(-3.0) == 0.0
    xs = np.linspace(0.5, 1.0, 50)
    vals = cutoff_chi(xs)
    assert np.all(np.diff(vals) <= 1e-15)


# ----------------------------------------------------------------- kernel

def test_kernel_spec_validation():
    ts = np.linspace(-0.1, 0.1, 5)
    with pytest.raises(ValueError, match="lambda must be finite and positive"):
        osc.kernel_matrix(-5.0, ts)
    # every lambda is checked before the first kernel
    with pytest.raises(ValueError, match="lambda must be finite and positive, got -5"):
        osc.verify_kernel_bound((100.0, -5.0))


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_non_finite_lambda_is_rejected_by_name(lam):
    with pytest.raises(ValueError, match="lambda must be finite and positive"):
        osc.kernel_matrix(lam, np.linspace(-0.1, 0.1, 5))
    with pytest.raises(ValueError, match="lambda must be finite and positive"):
        osc.AirySpec(lam)


def test_kernel_matrix_hermitian_psd():
    ts = np.linspace(-0.12, 0.12, 9)
    kmat = osc.kernel_matrix(80.0, ts)
    assert np.max(np.abs(kmat - kmat.conj().T)) < 1e-12
    evals = np.linalg.eigvalsh(kmat)
    assert evals.min() > -1e-12 * evals.max()


def test_kernel_direction_count_converged():
    # doubling the direction count leaves the value unchanged at quadrature scale
    lam = 120.0
    ts = np.array([0.1, -0.1])
    base = osc.kernel_matrix(lam, ts)[0, 1]
    # the same factorized sum on twice the floor's direction count
    m = 2 * osc.kernel_node_floor(lam, 0.2)
    pts = geo.equator().points(ts)
    dist = np.arccos(np.clip(pts @ osc.direction_circle(m).T, -1.0, 1.0))
    g = bump(ts / osc.KERNEL_SUPPORT)[:, None] * np.exp(-1j * lam * dist)
    fine = (2.0 * math.pi / m) * (g[0] @ g[1].conj())
    assert abs(base - fine) < 1e-8


def test_kernel_bound_short_ladder(monkeypatch):
    monkeypatch.setattr(osc, "KERNEL_GRID_POINTS", 15)
    report = osc.verify_kernel_bound((40.0, 80.0))
    assert report.ok
    assert len(report.ratios) == 1
    assert all(s > 0 for s in report.sups)


def test_kernel_bound_rejects_lambda_without_admissible_pair(monkeypatch):
    # 2/lambda = 2 exceeds every gap of the [-0.15, 0.15] window; the check
    # runs for every lambda before the first kernel is computed
    calls = []
    monkeypatch.setattr(osc, "kernel_matrix", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=r"lambda=1 leaves no admissible pair"):
        osc.verify_kernel_bound(lams=(100.0, 1.0))
    assert calls == []


def test_kernel_bound_refuses_a_working_set_past_the_cap(monkeypatch):
    # every lambda is checked before the first kernel; 10^6 needs 1.9 GB
    lam = _first_refused_lambda(lambda lam: osc._kernel_pair_masks([lam]))
    osc._kernel_pair_masks([float(lam - 1)])
    calls = []
    monkeypatch.setattr(osc, "kernel_matrix", lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match=rf"lambda={lam} needs \d+ directions: .* exceeds the cap"):
        osc.verify_kernel_bound(lams=(100.0, float(lam)))
    assert calls == []
    assert lam - 1 == 562175  # the bound the README states


def test_kernel_working_set_bounds_the_traced_peak():
    # 40 bytes per node and direction: the angle matrix and two complex temporaries
    lam = 1e4
    ts, gaps, _ = osc._kernel_pair_masks([lam])
    count = 40 * ts.size * osc.kernel_node_floor(lam, float(gaps.max()))
    tracemalloc.start()
    try:
        osc.kernel_matrix(lam, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.9 * count <= peak <= 1.05 * count


# ----------------------------------------------------------- critical points

def _psi(x, center, r, w_angles, u1, u2):
    omega = np.outer(np.cos(w_angles), u1) + np.outer(np.sin(w_angles), u2)
    y = math.cos(r) * center + math.sin(r) * omega
    return -np.arccos(np.clip(y @ x, -1.0, 1.0))


def test_critical_points_minmax_structure():
    rng = np.random.default_rng(7)
    for _ in range(10):
        xp = rng.normal(size=3)
        xp /= np.linalg.norm(xp)
        tang = rng.normal(size=3)
        tang -= (tang @ xp) * xp
        tang /= np.linalg.norm(tang)
        r = 0.4
        d = rng.uniform(0.05, 0.9 * r)
        x = math.cos(d) * xp + math.sin(d) * tang
        cp = critical_points(x, xp, r)
        assert math.isclose(np.linalg.norm(cp.omega_star), 1.0, rel_tol=1e-12)
        assert abs(cp.omega_star @ xp) < 1e-12
        assert abs(cp.phase_star + d) < 1e-10
        assert abs(cp.phase_antipode - d) < 1e-10
        # w* minimizes psi_r(x, .), its antipode maximizes it
        u1 = cp.omega_star
        u2 = np.cross(xp, u1)
        psi = _psi(x, xp, r, np.linspace(0, 2 * math.pi, 4096, endpoint=False),
                   u1, u2)
        assert psi.min() >= -(r + d) - 1e-9
        assert abs(psi[0] - psi.min()) < 1e-7
        assert abs(psi.max() - (d - r)) < 1e-7


def test_critical_points_rejects_bad_geometry():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="coincide"):
        critical_points(e1, e1, 0.4)
    with pytest.raises(ValueError):
        critical_points(e2, e1, 0.4)  # d = pi/2 > r


# ----------------------------------------------------------- phase expansion

def test_phase_expansion_great_circle_vanishes():
    fit = osc.phase_expansion_fit(geo.equator())
    assert fit.c_theory == 0.0
    assert fit.deviation < 1e-8


@pytest.mark.parametrize("theta0", [math.pi / 4, math.pi / 3, 1.1])
def test_phase_expansion_matches_curvature(theta0):
    fit = osc.phase_expansion_fit(geo.LatitudeCircle(theta0))
    kappa = 1.0 / math.tan(theta0)
    assert math.isclose(fit.c_theory, kappa**2 / 24.0, rel_tol=1e-12)
    assert fit.deviation < 1e-6


@pytest.mark.parametrize("theta0", [1e-160, 0.0159])
def test_phase_expansion_refuses_steps_past_half_the_circle(theta0):
    # pi sin(theta0) <= 0.05: the largest step passes half the circle, where
    # the distance turns back (at 1e-160, cot^2 / 24 would overflow)
    with pytest.raises(ValueError, match="half the curve's length"):
        osc.phase_expansion_fit(geo.LatitudeCircle(theta0))


def test_phase_expansion_runs_just_inside_half_the_circle():
    fit = osc.phase_expansion_fit(geo.LatitudeCircle(0.016))
    assert math.isfinite(fit.c_hat) and math.isfinite(fit.residual)


# ----------------------------------------------------------------- Airy model

def test_airy_spec_validation():
    with pytest.raises(ValueError):
        osc.AirySpec(lam=-1.0)
    bad_c = osc.AirySpec(lam=100.0, c=lambda tau: -1.0)
    with pytest.raises(ValueError, match="strictly positive"):
        osc.airy_operator_norm(bad_c)


@pytest.mark.parametrize("support", [0.0, math.nan, math.inf, -0.5])
def test_airy_amplitude_support_must_be_finite_and_positive(support):
    with pytest.raises(ValueError, match="amplitude_support must be finite and positive"):
        osc.AirySpec(200.0, amplitude_support=support)


def test_airy_zero_amplitude_kills_operator():
    # a zero kernel leaves an invariant subspace at once: sigma = 0 is exact
    zero = np.zeros((64, 64), dtype=complex)
    assert osc._lanczos_sigma1(lambda v: zero.conj().T @ (zero @ v), 64) == (0.0, 1, 0.0)


def _first_refused_lambda(preflight):
    """Least integer lambda whose working set preflight(lambda) refuses: the
    working set grows with lambda, so double from an admissible 100, then bisect."""
    def refused(lam):
        try:
            preflight(float(lam))
        except ValueError as err:
            assert "exceeds the cap" in str(err)
            return True
        return False

    lo, hi = 100, 200
    assert not refused(lo)
    while not refused(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if refused(mid) else (mid, hi)
    return hi


def test_airy_step_and_dim_guards():
    # the cap's first refused lambda is derived, not written down, so a
    # change to the working-set count cannot turn this into a cap-sized norm
    for case, last_admitted in (("variable", 2541), ("model", 99887)):
        lam = _first_refused_lambda(
            lambda lam: osc.airy_matrix_dim(osc.AirySpec(lam, **_AIRY_CASES[case])))
        osc.airy_matrix_dim(osc.AirySpec(float(lam - 1), **_AIRY_CASES[case]))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the cap"):
                osc.airy_operator_norm(osc.AirySpec(float(lam), **_AIRY_CASES[case]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, case  # refused before any kernel or basis exists
        # the bounds the airy_matrix_dim docstring and README state
        assert lam - 1 == last_admitted, case


def test_model_fft_buffers_bound_the_traced_peak():
    # _FFT_BUFFERS counts the length-m buffers beside the Lanczos basis; the
    # fixed part on top (the tridiagonal) is small against them at m = 128000
    osc.airy_operator_norm(osc.AirySpec(200.0))  # first-call costs stay out
    spec = osc.AirySpec(20000.0)
    n = osc.airy_matrix_dim(spec)
    m = osc._smooth_size(2 * n - 1)
    tracemalloc.start()
    try:
        osc.airy_operator_norm(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    beyond_basis = peak - 16 * (osc.LANCZOS_MAX_STEPS + 1) * n
    assert beyond_basis <= 16 * osc._FFT_BUFFERS * m


@pytest.mark.parametrize("case", ["model", "variable"])
@pytest.mark.parametrize("lam", [1e-300, 0.1, 0.2, 0.5, 0.628])
def test_airy_all_zero_kernel_is_refused(case, lam):
    # so coarse a grid that no offset is both past the cutoff chi and inside
    # the bump: the kernel is zero and sigma_1 = 0 would read as a norm
    spec = osc.AirySpec(lam, **_AIRY_CASES[case])
    with pytest.raises(ValueError, match=f"lambda={lam:g} leaves every offset weight"):
        osc.airy_matrix_dim(spec)
    with pytest.raises(ValueError, match=f"lambda={lam:g} leaves every offset weight"):
        osc.airy_operator_norm(spec)


def test_airy_first_nonzero_kernels_are_admitted():
    for lam in (0.63, 1.0):
        spec = osc.AirySpec(lam)
        n = osc.airy_matrix_dim(spec)
        assert np.any(osc._offset_weight(spec, osc.airy_step_floor(lam) * np.arange(1, n)))
        assert osc.airy_operator_norm(spec) > 0.0


def test_airy_norm_decays_at_caustic_rate():
    lo = osc.airy_operator_norm(osc.AirySpec(lam=200.0))
    hi = osc.airy_operator_norm(osc.AirySpec(lam=400.0))
    assert 0.0 < hi < lo
    rate = math.log(hi / lo) / math.log(2.0)
    assert -0.75 < rate < -0.55


def _dense_airy_kernel(spec):
    """Oracle: step times every kernel entry from the model formula."""
    step = osc.airy_step_floor(spec.lam)
    n = osc.airy_matrix_dim(spec)
    assert n <= 2000
    tt = -osc.AIRY_DOMAIN + step * np.arange(n)
    delta = tt[:, None] - tt[None, :]
    tau = np.broadcast_to(tt[None, :], delta.shape)
    c = 1.0 if spec.c is None else spec.c(tau)
    d = 0.0 if spec.d is None else spec.d(tau, delta)
    amp = bump(tau / spec.amplitude_support) * bump(delta / spec.amplitude_support)
    cut = 1.0 - cutoff_chi(spec.lam ** (1.0 / 3.0) * delta)
    gap = np.where(cut > 0.0, np.abs(delta), 1.0)
    phase = -gap * (1.0 - c * delta**2 + d * delta**3)
    kernel = np.exp(1j * spec.lam * phase) * amp * cut / np.sqrt(spec.lam * gap)
    return kernel * step


def _dense_airy_norm(spec):
    return float(np.linalg.svd(_dense_airy_kernel(spec), compute_uv=False)[0])


_AIRY_CASES = {**osc.AIRY_CASES, "narrow": {"amplitude_support": 0.25}}


def _relative_gap(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@pytest.mark.parametrize("support", [1.0, 0.25])
@pytest.mark.parametrize("lam", [100.0, 400.0, 628.0])  # n = 320, 1275, 2000
def test_airy_model_products_match_dense_kernel(lam, support):
    spec = osc.AirySpec(lam, amplitude_support=support)
    n = osc.airy_matrix_dim(spec)
    kernel = _dense_airy_kernel(spec)
    apply, apply_adjoint = osc._airy_kernel(spec, osc.airy_step_floor(lam), n)
    rng = np.random.default_rng(n)
    v, u = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    assert _relative_gap(apply(v), kernel @ v) <= 1e-12
    assert _relative_gap(apply_adjoint(u), kernel.conj().T @ u) <= 1e-12


@pytest.mark.parametrize("lam", [100.0, 400.0, 628.0])  # n = 320, 1275, 2000
def test_airy_variable_products_match_dense_kernel(lam):
    spec = osc.AirySpec(lam, **_AIRY_CASES["variable"])
    n = osc.airy_matrix_dim(spec)
    kernel = _dense_airy_kernel(spec)
    apply, apply_adjoint = osc._airy_kernel(spec, osc.airy_step_floor(lam), n)
    rng = np.random.default_rng(n)
    v, u = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    assert _relative_gap(apply(v), kernel @ v) <= 1e-12
    assert _relative_gap(apply_adjoint(u), kernel.conj().T @ u) <= 1e-12


def _variable_kernel(lam, case=_AIRY_CASES["variable"]):
    """The dense variable kernel, read back exactly: K e_j = K[:, j] with no roundoff."""
    spec = osc.AirySpec(lam, **case)
    n = osc.airy_matrix_dim(spec)
    apply, _ = osc._airy_kernel(spec, osc.airy_step_floor(lam), n)
    return apply(np.eye(n, dtype=complex))


_EPS = np.finfo(float).eps


def _half_phase(lam, c, d, delta):
    """-lambda |D| (1 - c D^2 + d D^3) / 2 in the kernel panels' arithmetic and order."""
    half = d * delta
    half -= c
    half *= delta
    half *= delta
    half += 1.0
    half *= -0.5 * lam * np.abs(delta)
    return half


@pytest.mark.parametrize("lam", [200.0, 628.0])  # n = 638, 2000
def test_airy_half_angle_entries_match_cos_and_sin(lam):
    spec = osc.AirySpec(lam, **_AIRY_CASES["variable"])
    kernel = _variable_kernel(lam)
    n = kernel.shape[0]
    step = osc.airy_step_floor(lam)
    tau = -osc.AIRY_DOMAIN + step * np.arange(n)
    delta = osc._toeplitz(step * np.arange(1 - n, n))  # the panels' offsets, bit for bit
    phase = 2.0 * _half_phase(lam, spec.c(tau), spec.d(tau, delta), delta)
    cut = 1.0 - cutoff_chi(lam ** (1.0 / 3.0) * delta)
    gap = np.where(cut > 0.0, np.abs(delta), 1.0)
    amplitude = step * bump(tau) * bump(delta) * cut / np.sqrt(lam * gap)
    want = amplitude * (np.cos(phase) + 1j * np.sin(phase))
    assert np.max(np.abs(kernel - want)) <= 8 * _EPS * np.max(amplitude)


def test_airy_half_angle_holds_at_odd_multiples_of_pi():
    # d on the diagonals D = +-step m sets the phase to -2 fl(pi/2), so
    # t = tan(-fl(pi/2)) is about 1.6e16 and 1 + t^2 about 2.7e32.  At this
    # lambda 1 - c D^2 + d D^3 is near 0.83, whose ulp moves the half phase
    # by less than its own ulp, so some d lands on fl(pi/2) exactly
    lam, m = 14.0, 12  # n = 46, D near 0.27: cut 0.13, bump(D) 0.92
    n = osc.airy_matrix_dim(osc.AirySpec(lam))
    target = osc.airy_step_floor(lam) * m
    guess = (math.pi / (lam * target) - 1.0 + target**2) / target**3
    tries = guess + np.spacing(guess) * np.arange(-2000, 2001)
    hits = tries[_half_phase(lam, 1.0, tries, target) == -math.pi / 2]
    assert hits.size > 0
    case = {"c": lambda tau: 1.0,
            "d": lambda tau, delta: np.where(np.abs(delta) == target, hits[0], 0.0) * np.sign(delta)}
    kernel = _variable_kernel(lam, case)
    for diagonal in (np.diagonal(kernel, m), np.diagonal(kernel, -m)):
        assert diagonal.size == n - m
        unit = diagonal / np.abs(diagonal)
        assert np.all(np.abs(unit.real + 1.0) <= _EPS)
        assert np.all(np.abs(unit.imag) <= _EPS)


def test_airy_panel_build_is_independent_of_panels_and_threads(monkeypatch):
    reference = _variable_kernel(200.0)  # n = 638: ten panels of 64 rows
    n = reference.shape[0]
    # the last pair runs more workers than cores, switching threads often
    switch = sys.getswitchinterval()
    try:
        for rows, cores in ((1, 2), (7, 2), (n, 2), (osc._PANEL_ROWS, 1), (7, 8)):
            monkeypatch.setattr(osc, "_PANEL_ROWS", rows)
            monkeypatch.setattr(osc, "_usable_cores", lambda: cores)
            sys.setswitchinterval(1e-6 if cores > 2 else switch)
            kernel = _variable_kernel(200.0)
            assert kernel.view(np.uint64).tobytes() == reference.view(np.uint64).tobytes()
    finally:
        sys.setswitchinterval(switch)


def test_airy_panel_build_reraises_a_failing_d():
    def d(tau, delta):
        if np.any(delta > 0.4):
            raise RuntimeError("d failed on a late panel")
        return 0.0 * delta
    with pytest.raises(RuntimeError, match="late panel"):
        osc.airy_operator_norm(osc.AirySpec(200.0, d=d))


def test_lanczos_sigma1_matches_dense_svd():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((200, 150)) + 1j * rng.standard_normal((200, 150))
    sigma, steps, residual = osc._lanczos_sigma1(lambda v: a.conj().T @ (a @ v), 150)
    reference = float(np.linalg.svd(a, compute_uv=False)[0])
    assert abs(sigma - reference) <= 1e-13 * reference
    assert 1 <= steps <= osc.LANCZOS_MAX_STEPS
    assert residual <= osc.LANCZOS_RTOL * sigma


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9])
def test_circulant_embedding_at_small_sizes(n):
    rng = np.random.default_rng(n)
    offsets = rng.standard_normal(2 * n - 1) + 1j * rng.standard_normal(2 * n - 1)
    column = rng.uniform(0.5, 1.5, n)
    dense = np.array([[offsets[i - j + n - 1] * column[j] for j in range(n)]
                      for i in range(n)])
    apply, apply_adjoint = osc._toeplitz_products(offsets, column)
    v, u = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    assert _relative_gap(apply(v), dense @ v) <= 1e-12
    assert _relative_gap(apply_adjoint(u), dense.conj().T @ u) <= 1e-12


@pytest.mark.parametrize("lam", [100.0, 200.0, 400.0])
@pytest.mark.parametrize("case", sorted(_AIRY_CASES))
def test_airy_norm_matches_dense_svd(case, lam):
    spec = osc.AirySpec(lam, **_AIRY_CASES[case])
    reference = _dense_airy_norm(spec)
    assert abs(osc.airy_operator_norm(spec) - reference) <= 1e-10 * reference


def test_airy_norm_is_deterministic():
    for case in ("model", "variable"):
        spec = osc.AirySpec(300.0, **_AIRY_CASES[case])
        first = osc.airy_operator_norm(spec)
        assert osc.airy_operator_norm(spec) == first


def test_airy_norm_raises_when_lanczos_stalls(monkeypatch):
    monkeypatch.setattr(osc, "LANCZOS_MAX_STEPS", 2)
    with pytest.raises(ArithmeticError, match=r"lambda=200 stopped after 2 steps"):
        osc.airy_operator_norm(osc.AirySpec(lam=200.0))


def test_airy_norm_raises_on_non_finite_kernel():
    # d is evaluated on the whole grid, the vanishing diagonal band included
    spec = osc.AirySpec(100.0, d=lambda tau, delta: np.where(delta == 0.0, np.nan, 0.0))
    with pytest.raises(ArithmeticError, match=r"lambda=100 stopped after 1 steps"):
        osc.airy_operator_norm(spec)


def test_airy_matrix_dim_cap():
    # the Lanczos basis counts in both cases: beside it a dense kernel may
    # hold n^2 + 201 n <= 8192^2 complex entries, the model's FFT buffers as many
    variable = _AIRY_CASES["variable"]
    assert osc.airy_matrix_dim(osc.AirySpec(2541.0, **variable)) == 8090
    with pytest.raises(ValueError, match="lambda=2542 needs matrix dimension 8093: "
                       "a 201 x 8093 Lanczos basis and a 8093 x 8093 kernel"):
        osc.airy_matrix_dim(osc.AirySpec(2542.0, **variable))
    # the model's circulant has the least 5-smooth side >= 2n - 1: 640000 here
    assert osc.airy_matrix_dim(osc.AirySpec(99887.0)) == 317952
    with pytest.raises(ValueError, match="lambda=99888 needs matrix dimension 317955: "
                       "a 201 x 317955 Lanczos basis and 5 x 640000 FFT buffers"):
        osc.airy_matrix_dim(osc.AirySpec(99888.0))


def test_kernel_bound_needs_two_lambdas():
    with pytest.raises(ValueError, match="at least two"):
        osc.verify_kernel_bound(lams=(100.0,))
