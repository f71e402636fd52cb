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
        assert len(torus.representations(N)) == expected


def test_representations_structure():
    points = torus.representations(65)
    assert points.shape == (16, 2) and points.dtype == np.int64
    assert np.all(np.sum(points**2, axis=1) == 65)
    assert len({tuple(p) for p in points}) == 16


def test_representations_edge_cases():
    # the scan keeps the single row (0, 0); drawing on it is refused by value
    assert np.array_equal(torus.representations(0), [[0, 0]])
    with pytest.raises(ValueError, match="N=0 has no lattice circle"):
        torus.random_eigenfunction(0, seed=0)
    with pytest.raises(ValueError):
        torus.representations(-4)


def _loop_representations(N):
    pts = []
    for m in range(-math.isqrt(N), math.isqrt(N) + 1):
        n = math.isqrt(N - m * m)
        if n * n == N - m * m:
            pts += [(m, n), (m, -n)] if n else [(m, 0)]
    return pts


@pytest.mark.parametrize("N", [1, 3, 25, 65, 4225, 99999, 10**7, 10**7 - 3, 5**16])
def test_vectorized_scan_rows_follow_the_integer_loop(N):
    # m ascending, (m, n) before (m, -n), one row (m, 0) on the axes
    assert torus.representations(N).tolist() == [list(p) for p in _loop_representations(N)]


def test_representations_reject_n_past_exact_square_test():
    with pytest.raises(ValueError, match="below 2"):
        torus.representations(2**53)


def test_scan_matches_sieve():
    table = torus.r2_table(2000)
    for N in range(2000 + 1):
        assert table[N] == len(torus.representations(N))


def test_blocked_sieve_matches_scan_past_one_block():
    # n_max = 600000 spans nine full windows of 2^16 values of N and a tail
    n_max = 600000
    s = math.isqrt(n_max)
    assert n_max > 9 * torus.R2_WINDOW
    table = torus.r2_table(n_max)
    assert table.dtype == np.int64 and table.shape == (n_max + 1,)
    for N in [*range(2000), *range(n_max - 2000, n_max + 1)]:
        assert table[N] == len(torus.representations(N))
    # every lattice point of the disk is binned once
    assert table.sum() == sum(2 * math.isqrt(n_max - m * m) + 1 for m in range(-s, s + 1))
    # windows of one value, a few values or R2_WINDOW values bin the same pairs
    for window in (1, 7, 1000, torus.R2_WINDOW):
        # windows of fewer than 1000 values only near the ends, for fewer calls
        for lo in range(0, n_max + 1, window):
            if window < 1000 and 3000 < lo < n_max - 3000:
                continue
            hi = min(lo + window - 1, n_max)
            np.testing.assert_array_equal(torus.r2_table(hi, lo), table[lo:hi + 1])


def _full_square_r2(n_max):
    # m^2 + n^2 binned over the whole square [-s, s]^2: the reference the
    # octant and its corrections on the axes, the diagonals and 0 must match
    sq_m = np.arange(-math.isqrt(n_max), math.isqrt(n_max) + 1, dtype=np.int64) ** 2
    sq = (sq_m[:, None] + sq_m[None, :]).ravel()
    return np.bincount(sq[sq <= n_max], minlength=n_max + 1)


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4, 5, 8, 10, 99, 10**4])
def test_octant_sieve_matches_full_square(n_max):
    table = torus.r2_table(n_max)
    assert table.dtype == np.int64
    np.testing.assert_array_equal(table, _full_square_r2(n_max))


# windows whose ends fall on 0 or 1, on a square n^2 (axis points), on a
# diagonal value 2 m^2, or one off them: 841 = 29^2, 842 = 29^2 + 1,
# 1681 = 41^2, 1682 = 2 * 29^2 = 41^2 + 1, 9800 = 2 * 70^2, 10^4 = 100^2
@pytest.mark.parametrize("start, n_max", [
    (0, 0), (0, 1), (1, 1), (1, 2), (0, 841), (1, 841), (841, 841), (841, 842),
    (842, 842), (840, 1681), (841, 1682), (1682, 1682), (1681, 9800), (9799, 9801),
    (9800, 10**4), (10**4, 10**4), (2, 10**4)])
def test_windowed_sieve_matches_full_square(start, n_max):
    table = torus.r2_table(n_max, start)
    assert table.dtype == np.int64 and table.shape == (n_max - start + 1,)
    np.testing.assert_array_equal(table, _full_square_r2(n_max)[start:])


def test_windowed_sieve_rejects_a_start_outside_the_range():
    with pytest.raises(ValueError, match="start"):
        torus.r2_table(100, 101)
    with pytest.raises(ValueError, match="start"):
        torus.r2_table(100, -1)


def _direct_trend(n_max, cutoffs):
    # the maxima and their smallest N read off the whole full-square table
    table = _full_square_r2(n_max)
    N = np.flatnonzero(table[2:]) + 2
    exponent = np.log(table[N].astype(float)) / np.log(np.sqrt(N.astype(float)))
    first = [int(np.argmax(np.where(N >= c, exponent, -np.inf))) for c in cutoffs]
    return [float(exponent[k]) for k in first], [int(N[k]) for k in first]


@pytest.mark.parametrize("window, n_max", [(1, 3000), (7, 20001), (1000, 123457)])
def test_streamed_trend_matches_the_full_table(monkeypatch, window, n_max):
    # a window of one value, a few values, and a size that does not divide
    # the n_max - 1 values of [2, n_max]
    assert (n_max - 1) % window != 0 or window == 1
    cutoffs = (10, 100, 1000)
    expected = _direct_trend(n_max, cutoffs)
    monkeypatch.setattr(torus, "R2_WINDOW", window)
    maxima, argmax_N, decreasing = torus.exponent_trend(n_max, cutoffs)
    assert (maxima, argmax_N) == expected
    assert decreasing == all(a > b for a, b in zip(maxima, maxima[1:]))


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 10**6))
def test_r2_multiple_of_four(N):
    # the four rotations/reflections of any representation are distinct
    r2 = len(torus.representations(N))
    assert r2 % 4 == 0 or r2 == 0


def test_divisor_growth_trend():
    # r_2(2) = 4 gives the global max exponent 2 log 2 / log sqrt 2 = 4
    maxima, argmax_N, decreasing = torus.exponent_trend(3000, cutoffs=(2,))
    assert math.isclose(maxima[0], 4.0) and argmax_N == [2] and decreasing is None
    maxima, argmax_N, decreasing = torus.exponent_trend(10**5, cutoffs=(10**2, 10**3, 10**4))
    assert decreasing
    assert all(b < a for a, b in zip(maxima, maxima[1:]))
    assert all(n >= c for n, c in zip(argmax_N, (10**2, 10**3, 10**4)))
    with pytest.raises(ValueError):
        torus.exponent_trend(10**4, cutoffs=(100, 100, 200))
    with pytest.raises(ValueError):
        torus.exponent_trend(10**3, cutoffs=(10, 10**4))
    with pytest.raises(ValueError, match=r"no represented N in \[6, 7\]"):
        torus.exponent_trend(7, cutoffs=(6,))


def test_exponent_trend_needs_two_cutoffs_for_a_trend():
    with pytest.raises(ValueError, match="cutoffs"):
        torus.exponent_trend(10**4, cutoffs=())
    # one maximum is kept, but it decreases vacuously: no verdict either way
    maxima, argmax_N, decreasing = torus.exponent_trend(5000, cutoffs=(10**3,))
    assert argmax_N == [1105] and decreasing is None
    assert maxima == [pytest.approx(math.log(32) / math.log(math.sqrt(1105)), rel=1e-14)]


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


def _fine_grid_max(f, m):
    # max of |f| over the uniform m x m grid by one inverse FFT: the oracle
    # the enclosure must contain
    spec = np.zeros((m, m), dtype=complex)
    spec[f.freqs[:, 0] % m, f.freqs[:, 1] % m] = f.coeffs
    return float(np.max(np.abs(np.fft.ifft2(spec)))) * m * m


def test_grid_sup_respects_cauchy_schwarz():
    for seed in range(6):
        f = torus.random_eigenfunction(325, seed)  # r_2(325) = 24
        sup = torus.grid_sup_norm(f)
        assert 0.0 < sup.lo <= sup.hi <= math.sqrt(24)
        assert sup.width <= torus.SUP_RTOL


# (lo.hex(), hi.hex(), m, depth, cells) of grid_sup_norm, by (N, seed) of
# random_eigenfunction and for the witness on 4225
PINNED_ENCLOSURES = {
    (25, 0): ("0x1.29619da0c8d0ap+1", "0x1.29619da1b2a0ep+1", 71, 7, 4),
    (25, 1): ("0x1.12fe9ff23d6ddp+1", "0x1.12fe9ff315b5dp+1", 71, 7, 3),
    (4225, 0): ("0x1.8976fa0c3cb1fp+1", "0x1.8976fa0d8640ep+1", 920, 7, 4),
    (4225, 1): ("0x1.cb4fec381a994p+1", "0x1.cb4fec3998100p+1", 920, 7, 4),
    (34225, 0): ("0x1.9b7c975de03f0p+1", "0x1.9b7c975f5bb74p+1", 2617, 7, 4),
    (34225, 1): ("0x1.f01cef0a49a9ap+1", "0x1.f01cef0c07ea5p+1", 2617, 7, 4),
    (30013, 0): ("0x1.2044c0a131476p+1", "0x1.2044c0a22ccddp+1", 2451, 7, 4),
    (30013, 1): ("0x1.05392c74bdd35p+1", "0x1.05392c75a4037p+1", 2451, 7, 4),
    "witness-4225": ("0x1.7ffffffffb262p+2", "0x1.800000009c334p+2", 920, 7, 8),
}


@pytest.mark.parametrize("key", list(PINNED_ENCLOSURES), ids=str)
def test_enclosure_bits_are_pinned(key):
    # the enclosure's every bit, so a restructured refinement that reorders
    # or skips any float64 step shows here before it moves a written output
    if key == "witness-4225":
        f = torus.equal_coefficient_witness(4225)
    else:
        f = torus.random_eigenfunction(*key)
    sup = torus.grid_sup_norm(f)
    assert (sup.lo.hex(), sup.hi.hex(), sup.m, sup.depth, sup.cells) == PINNED_ENCLOSURES[key]


@pytest.mark.parametrize("N", [25, 169, 625, 4225, 34225])
def test_slack32_counts_the_distinct_k1(N):
    # (4 K + 8) eps32 sum |c_j| bit for bit, with K = len(np.unique(k1)),
    # on the seeded draws and the witness of each circle
    eps32 = float(np.finfo(np.float32).eps)
    draws = [torus.random_eigenfunction(N, seed) for seed in range(3)]
    for f in draws + [torus.equal_coefficient_witness(N)]:
        K = len(np.unique(f.freqs[:, 0]))
        assert torus._slack32(f) == (4.0 * K + 8.0) * eps32 * float(np.sum(np.abs(f.coeffs)))


@pytest.mark.parametrize("N", [25, 65, 169])
def test_enclosure_contains_fine_grid_max(N):
    # an m = 3000 grid is 16 to 42 times finer than the starting grid.  Its
    # max is a lower bound of the sup, and the looser two-sided Bernstein
    # factor turns it into the independent enclosure
    # [fine, fine / sqrt(1 - N h^2)], which must hold [lo, hi] up to its
    # width; lo may exceed the grid max, which misses the peak by up to 1e-4
    ceiling = 1.0 / math.sqrt(1.0 - N * (2.0 * math.pi / 3000) ** 2)
    for seed in range(3):
        f = torus.random_eigenfunction(N, seed)
        sup = torus.grid_sup_norm(f)
        fine = _fine_grid_max(f, 3000)
        assert fine <= sup.hi <= fine * ceiling * (1.0 + 2.0 * torus.SUP_RTOL)
    witness = torus.equal_coefficient_witness(N)
    sup = torus.grid_sup_norm(witness)
    assert sup.lo <= math.sqrt(len(witness.coeffs)) <= sup.hi


def test_grid_sup_exact_for_aligned_phases():
    # all-ones coefficients align at the origin: sup = sqrt(r_2) exactly
    f = torus.equal_coefficient_witness(25)
    np.testing.assert_array_equal(f.coeffs, np.full(12, 1.0 / math.sqrt(12)))
    sup = torus.grid_sup_norm(f)
    assert sup.lo <= math.sqrt(12) <= sup.hi
    assert math.isclose(sup.lo, math.sqrt(12), rel_tol=1e-12)
    assert sup.width <= torus.SUP_RTOL
    # the same phases aligned at a point off every grid node: the grid max
    # misses the peak by about 1e-3, the last split by about 1e-10, so only
    # the Bernstein factor keeps sqrt(r_2) inside the enclosure
    shift = np.array([0.1234567, 2.3456789])
    for N in (25, 65, 169, 4225):
        points = torus.representations(N)
        f = TorusSum(points, np.exp(-1j * points @ shift) / math.sqrt(len(points)))
        sup = torus.grid_sup_norm(f)
        assert sup.lo <= math.sqrt(len(points)) <= sup.hi, N
        assert sup.width <= torus.SUP_RTOL


@pytest.mark.parametrize("N", [25, 50, 65, 130, 4225])
def test_shift_by_pi_pi_flips_f_by_the_parity_of_n(N):
    # k1 + k2 = k1^2 + k2^2 = N (mod 2) on the circle, so
    # f(x + (pi, pi)) = (-1)^N f(x), and |f| repeats on the second half of
    # the grid.  N = 50 and 130 are even, the rest odd.  It holds after the
    # gcd is divided out, as grid_sup_norm does, and on a scaled circle too
    raw = torus.random_eigenfunction(N, 1)
    g = int(np.gcd.reduce(np.abs(raw.freqs).ravel()))
    x = np.random.default_rng(N).uniform(0.0, 2.0 * math.pi, size=(200, 2))
    for f in (TorusSum(raw.freqs // g, raw.coeffs), TorusSum(3 * raw.freqs, raw.coeffs)):
        sign = (-1) ** (f.circle_number % 2)
        # within the roundoff bound, which then bounds | |f(x + pi)| - |f(x)| | too
        assert np.max(np.abs(f(x + math.pi) - sign * f(x))) <= torus._roundoff(f), N


@pytest.mark.parametrize("shift1", [math.pi + 0.01, 4.0, 2.0 * math.pi - 0.3,
                                    2.0 * math.pi - 1e-3])
def test_peak_in_the_skipped_half_is_enclosed(shift1):
    # phases aligned at a point with x1 in (pi, 2 pi), which the grid rows
    # x_a = a h, a <= m // 2, do not reach: its shift by (pi, pi) peaks as
    # high and lies in the evaluated half, so sqrt(r_2) stays enclosed.
    # At 2 pi - 0.3 the shift lies 0.3 below pi, where only the last rows
    # of the half reach it
    shift = np.array([shift1, 2.3456789])
    for N in (25, 50, 65, 169, 4225):
        points = torus.representations(N)
        f = TorusSum(points, np.exp(-1j * points @ shift) / math.sqrt(len(points)))
        sup = torus.grid_sup_norm(f)
        assert sup.lo <= math.sqrt(len(points)) <= sup.hi, N
        assert sup.width <= torus.SUP_RTOL
        h = 2.0 * math.pi / sup.m
        kept = torus._grid_stage(f, sup.m, torus._roundoff(f))
        assert np.all(kept[:, 0] <= h * (sup.m // 2)), N


def _float64_level(f, kept, m, rho):
    # level 0 of grid_sup_norm written out: the float32 survivors evaluated
    # again in float64, their max, and those at or above the float64 floor
    h = 2.0 * math.pi / m
    sq = torus._abs2(f, kept, h, torus._CENTRE)
    best = math.sqrt(float(sq.max()))
    return best, kept[sq >= torus._bounds(best, best, h, f.circle_number, rho, math.inf)[2]]


def test_grid_sup_base_is_the_coarse_grid():
    # the starting grid is ceil(20 sqrt(N / 2)) a side, of which the rows
    # a = 0..m // 2 are evaluated; the blocked GEMM over them matches a direct
    # evaluation, and lo is at least its max
    f = torus.random_eigenfunction(325, 3)
    m = math.ceil(torus.POINTS_PER_AXIS_WAVELENGTH * f.eigenvalue)
    sup = torus.grid_sup_norm(f)
    assert (sup.m, sup.depth) == (m, 7) and sup.cells >= 1
    x = 2.0 * math.pi * np.arange(m) / m
    rows = m // 2 + 1
    xy = np.column_stack([np.repeat(x[:rows], m), np.tile(x, rows)])
    base = float(np.max(np.abs(f(xy))))
    rho = torus._roundoff(f)
    best, kept = _float64_level(f, torus._grid_stage(f, m, rho), m, rho)
    assert math.isclose(best, base, rel_tol=1e-12)
    assert sup.lo >= base - 1e-12
    # the kept nodes include the grid argmax, and the starting factor bounds hi
    assert np.any(np.all(np.isclose(kept, xy[np.argmax(np.abs(f(xy)))]), axis=1))
    assert sup.hi <= base / math.sqrt(1.0 - 0.5 * (2.0 * math.pi * f.eigenvalue / m) ** 2)
    # each split tiles its cell: 16 sub-cells of a quarter side, centred
    # at -3/8, -1/8, 1/8, 3/8 of the parent side on both axes
    centres = {tuple(c) for c in torus._SPLIT}
    assert centres == {(a, b) for a in (-1.5, -0.5, 0.5, 1.5) for b in (-1.5, -0.5, 0.5, 1.5)}


@pytest.mark.parametrize("f", [
    torus.random_eigenfunction(325, 3),
    torus.random_eigenfunction(4225, 0),
    TorusSum(np.array([[3, 4]]), np.array([1.0 + 0j])),  # |f| = 1: every node is kept
], ids=["325", "4225", "one-frequency"])
def test_grid_stage_is_independent_of_block_size(f, monkeypatch):
    # the running max and floor only rise block by block, so float32 blocks
    # of one row or a few rows give the default blocks' kept set, bit for bit
    m = math.ceil(torus.POINTS_PER_AXIS_WAVELENGTH * f.eigenvalue)
    rho = torus._roundoff(f)
    kept = torus._grid_stage(f, m, rho)
    assert torus.BLOCK_BYTES // torus._row_bytes(m) > 3
    for rows in (1, 3):
        monkeypatch.setattr(torus, "BLOCK_BYTES", rows * torus._row_bytes(m))
        _, sq = next(torus._half_grid32(f, m))
        assert sq.shape == (rows, m) and sq.dtype == np.float32
        np.testing.assert_array_equal(torus._grid_stage(f, m, rho), kept)
    if len(f.coeffs) == 1:
        assert len(kept) == (m // 2 + 1) * m


def _running_counts(f, m, rho):
    # nodes at or above the running float32 floor after each row block, with
    # the kept values filtered again on every block, and how many nodes
    # reached the floor of the block they arrived in
    h = 2.0 * math.pi / m
    rho32 = rho + torus._slack32(f)
    best, vals, counts, arrived = 0.0, np.zeros(0, dtype=np.float32), [], 0
    for _, sq in torus._half_grid32(f, m):
        best = max(best, math.sqrt(float(sq.max())))
        floor = torus._bounds(best, best, h, f.circle_number, rho32, math.inf)[2]
        arrived += int(np.count_nonzero(sq >= floor))
        vals = np.concatenate([vals, sq.ravel()])
        vals = vals[vals >= floor]
        counts.append(len(vals))
    return counts, arrived


@pytest.mark.parametrize("rows", [1, 7])
def test_grid_stage_refuses_at_the_first_block_over_the_cap(rows, monkeypatch):
    # nodes the floor has risen past are dropped only once more than
    # MAX_CELLS are held, yet the refusal comes at the first block where
    # more than MAX_CELLS nodes reach the running floor, with that count,
    # and a cap no block exceeds leaves the result unchanged
    f = torus.random_eigenfunction(4225, 0)
    m = math.ceil(torus.POINTS_PER_AXIS_WAVELENGTH * f.eigenvalue)
    rho = torus._roundoff(f)
    kept = torus._grid_stage(f, m, rho)
    monkeypatch.setattr(torus, "BLOCK_BYTES", rows * torus._row_bytes(m))
    counts, arrived = _running_counts(f, m, rho)
    # more nodes arrive than the largest cap below holds, so it drops some
    assert arrived > max(counts) >= counts[-1] >= len(kept)
    for cap in sorted({1, len(kept), max(counts) - 1, max(counts)}):
        monkeypatch.setattr(torus, "MAX_CELLS", cap)
        over = [c for c in counts if c > cap]
        if over:
            with pytest.raises(ArithmeticError, match=f"N=4225: {over[0]} cells"):
                torus._grid_stage(f, m, rho)
        else:
            np.testing.assert_array_equal(torus._grid_stage(f, m, rho), kept)


@pytest.mark.parametrize("f", [
    torus.random_eigenfunction(25, 0),
    torus.random_eigenfunction(325, 0),
    torus.random_eigenfunction(1105, 0),
    torus.random_eigenfunction(5525, 1),
    torus.random_eigenfunction(30013, 0),  # a prime, r_2 = 8: flat, many nodes near the max
    torus.equal_coefficient_witness(4225),  # phases aligned at the origin, a grid node
], ids=["25", "325", "1105", "5525", "30013", "witness-4225"])
def test_float32_prune_is_a_certificate(f):
    # _grid_stage prunes on float32 values, and the enclosure's level 0
    # evaluates its survivors again in float64; against the float64 floor of
    # a direct evaluation of every half-grid node, the two keep every node
    # clear of that floor by twice the float32 slack and none that the
    # float64 roundoff puts below it, and the float32 values the prune reads
    # stay within the slack (1-6% of it on these circles)
    N = f.circle_number
    m = math.ceil(torus.POINTS_PER_AXIS_WAVELENGTH * f.eigenvalue)
    h = 2.0 * math.pi / m
    rho, slack = torus._roundoff(f), torus._slack32(f)
    x = h * np.arange(m)
    direct = np.array([np.abs(f(np.column_stack([np.full(m, xa), x])))
                       for xa in x[:m // 2 + 1]])
    gap = 0.0
    for a0, sq in torus._half_grid32(f, m):
        assert sq.dtype == np.float32
        gap = max(gap, float(np.max(np.abs(np.sqrt(sq) - direct[a0:a0 + len(sq)]))))
    assert 0.0 < gap <= slack, f"gap / slack = {gap / slack:.3g}"
    top = float(direct.max())
    floor = math.sqrt(torus._bounds(top, top, h, N, rho, math.inf)[2])
    best, kept = _float64_level(f, torus._grid_stage(f, m, rho), m, rho)
    assert abs(best - top) <= 2.0 * rho
    a, b = np.rint(kept / h).astype(np.int64).T
    np.testing.assert_array_equal(kept, h * np.column_stack([a, b]))
    assert {tuple(p) for p in np.argwhere(direct >= floor + 2.0 * slack)} <= set(zip(a, b))
    assert np.all(direct[a, b] >= floor - 2.0 * rho)


@pytest.mark.parametrize("N", [25, 4225])
def test_refined_children_match_direct_evaluation(N, monkeypatch):
    # _abs2 splits each child's phase into its parent's and its offset's;
    # direct evaluation at the children agrees within the roundoff bound,
    # at every depth, and with parents spread over many chunks
    f = torus.random_eigenfunction(N, 2)
    rho = torus._roundoff(f)
    pts = np.random.default_rng(0).uniform(0.0, 2.0 * math.pi, size=(300, 2))
    h0 = 2.0 * math.pi / math.ceil(torus.POINTS_PER_AXIS_WAVELENGTH * f.eigenvalue)
    for depth in (1, 4, 7):
        h = h0 / 4.0 ** depth
        children = (pts[:, None, :] + h * torus._SPLIT).reshape(-1, 2)
        direct = np.abs(f(children))
        for block_bytes in (torus.BLOCK_BYTES, 16 * 50 * (len(f.coeffs) + 16)):
            monkeypatch.setattr(torus, "BLOCK_BYTES", block_bytes)
            split = np.sqrt(torus._abs2(f, pts, h))
            assert split.shape == direct.shape
            assert np.max(np.abs(split - direct)) <= rho, (N, depth, block_bytes)


@pytest.mark.parametrize("seed", range(3))
def test_flat_prime_circle_certifies(seed):
    # the prime 30013 has r_2 = 8: |f| is flat over wide regions, so many
    # cells reach the refinement, and the enclosure still closes
    sup = torus.grid_sup_norm(torus.random_eigenfunction(30013, seed))
    assert sup.depth == 7 and sup.width <= torus.SUP_RTOL
    assert 0.0 < sup.lo <= sup.hi <= math.sqrt(8)


@pytest.mark.parametrize("N, seed", [(60013, 0), (60013, 1), (100049, 0), (300017, 0)])
def test_flatter_prime_circles_certify(N, seed):
    # three more primes with r_2 = 8, flatter still than 30013: only the
    # one-sided bound's floor keeps their cells under MAX_CELLS.  300017 at
    # seed 0 needs the half grid too: the full one keeps 1.77M cells
    sup = torus.grid_sup_norm(torus.random_eigenfunction(N, seed))
    assert sup.width <= torus.SUP_RTOL
    assert 0.0 < sup.lo <= sup.hi <= math.sqrt(8)


def test_one_sided_bound_is_sharp():
    # f = cos <k, x> peaks at 0 with M = 1, and |f(v)|^2 = cos^2 <k, v> meets
    # the bound 1 - N |v|^2 to second order along k, so it cannot be halved
    k = np.array([5, 5])  # along the cell diagonal, N = 50
    f = TorusSum(np.array([k, -k]), np.array([0.5, 0.5], dtype=complex))
    N = f.circle_number
    for t in (0.1, 0.01, 0.001):
        sq = abs(f(t * k / np.linalg.norm(k))) ** 2
        assert 1.0 - N * t * t <= sq < 1.0 - 0.5 * N * t * t
    # a cell of side h with the peak at its corner: from its centre's value
    # alone, hi still reaches M = 1 and the cell is kept
    for m in (64, 640, 6400):
        h = 2.0 * math.pi / m
        val = abs(f(np.array([h / 2.0, h / 2.0])))
        lo, hi, floor = torus._bounds(val, val, h, N, 0.0, math.inf)
        assert lo == val and hi >= 1.0, m
        assert val * val >= floor


def test_refinement_refuses_after_max_depth_splits(monkeypatch):
    # 325 at seed 3 needs 7 splits; with 3 allowed the width error names
    # them, and it comes before the cell check of the level that would
    # follow: the spy drops the cell cap to 0 once the last allowed level is
    # evaluated, so a cell check first would refuse as too flat instead
    f = torus.random_eigenfunction(325, 3)
    monkeypatch.setattr(torus, "MAX_DEPTH", 3)
    levels, abs2 = [], torus._abs2

    def spy(f, pts, h, split=torus._SPLIT):
        levels.append(len(pts))
        if len(levels) == torus.MAX_DEPTH + 1:  # the grid's level and 3 splits
            monkeypatch.setattr(torus, "MAX_CELLS", 0)
        return abs2(f, pts, h, split)

    monkeypatch.setattr(torus, "_abs2", spy)
    with pytest.raises(ArithmeticError, match=r"N=325: width \S+ after 3 splits, above 1e-09$"):
        torus.grid_sup_norm(f)
    assert len(levels) == 4 and torus.MAX_CELLS == 0


def test_grid_sup_underresolved_error():
    # one frequency: |f| is constant, every cell could hold the max, and
    # the enclosure refuses instead of refining the whole torus
    f = TorusSum(np.array([[3, 4]]), np.array([1.0 + 0j]))
    with pytest.raises(ArithmeticError, match="too flat to certify"):
        torus.grid_sup_norm(f)


def test_grid_sup_divides_out_shared_factor():
    # f(8x) has the sup of f: its enclosure is that of f, on f's grid
    f = torus.random_eigenfunction(25, 4)
    scaled = TorusSum(8 * f.freqs, f.coeffs)  # N = 1600
    assert torus.grid_sup_norm(scaled) == torus.grid_sup_norm(f)
    # every point of |k|^2 = 8192 = 2 * 64^2 is a multiple of 64; without the
    # reduction 4096 copies of each peak exceed the cell cap
    sup = torus.grid_sup_norm(torus.random_eigenfunction(8192, 0))
    assert sup.m == 20 and sup.width <= torus.SUP_RTOL  # ceil(20 sqrt(2 / 2))
    assert sup.hi <= 2.0


def test_curve_l2_of_constant_is_one():
    f = TorusSum(np.array([[0, 1]]), np.array([1.0 + 0j]))
    norms, _ = torus.curve_l2_norms(f)
    assert set(norms) == {"slope0", "slope1", "slope1/2", "circle"}
    # slope-0 geodesic holds e^{iy} constant in modulus; all curves see |f| = 1
    for val in norms.values():
        assert math.isclose(val, 1.0, rel_tol=1e-12)


def _trapezoid_circle_l2(f, num_points):
    # the circle of radius 1 about (pi, pi) on num_points uniform nodes
    s = np.linspace(0.0, 2.0 * math.pi, num_points, endpoint=False)
    vals = f(np.column_stack([math.pi + np.cos(s), math.pi + np.sin(s)]))
    return float(np.sqrt(np.mean(np.abs(vals) ** 2)))


def _tail_bound(N, terms, M):
    # 2 terms a / (1 - a), a = z^M / M!, z = sqrt(N): the aliasing bound
    a = math.exp(min(0.0, M * math.log(math.sqrt(N)) - math.lgamma(M + 1)))
    return 2.0 * terms * a / (1.0 - a) if a < 1.0 else math.inf


CIRCLE_NS = (25, 169, 625, 4225, 34225, 1000001)


def test_circle_node_count_is_the_least_certified():
    counts = {}
    for N in CIRCLE_NS:
        r2 = len(torus.representations(N))
        M, bound = torus.circle_nodes(N, r2)
        counts[N] = M
        assert bound <= torus._EPS
        assert math.isclose(bound, _tail_bound(N, r2, M), rel_tol=1e-12)
        # one node fewer, still past e sqrt(N), does not certify
        assert M - 1 >= math.e * math.sqrt(N)
        assert _tail_bound(N, r2, M - 1) > torus._EPS, N
    assert counts == {25: 37, 169: 63, 625: 99, 4225: 211, 34225: 538, 1000001: 2753}
    # a constant (N = 0) takes z = 1, which only loosens the bound
    M, bound = torus.circle_nodes(0, 1)
    assert bound <= torus._EPS and _tail_bound(1, 1, M - 1) > torus._EPS


@pytest.mark.parametrize("N", CIRCLE_NS)
def test_circle_norm_at_certified_count_matches_finer_rules(N):
    # the rule at M agrees with 8M nodes and with the old max(4096, 40 sqrt N)
    # count within its bound plus roundoff
    fs = (torus.random_eigenfunction(N, 0), torus.random_eigenfunction(N, 1),
          torus.equal_coefficient_witness(N))
    for f in fs:
        M, bound = torus.circle_nodes(N, len(f.coeffs))
        norms, rule = torus.curve_l2_norms(f)
        assert rule == (M, bound)
        norm = norms["circle"]
        for ref_points in (8 * M, max(4096, math.ceil(40 * f.eigenvalue))):
            ref = _trapezoid_circle_l2(f, ref_points)
            assert abs(norm - ref) <= (bound + 1e-13) * ref, (N, ref_points)


def test_circle_bound_is_not_vacuous():
    # sqrt(N) nodes, too few by the bound, miss the norm by far more than it
    errors = []
    for N in CIRCLE_NS[:5]:
        f = torus.random_eigenfunction(N, 0)
        ref = _trapezoid_circle_l2(f, 8 * torus.circle_nodes(N, len(f.coeffs))[0])
        errors.append(abs(_trapezoid_circle_l2(f, math.ceil(math.sqrt(N))) - ref) / ref)
    assert min(errors) > 1e-3, errors


def _trapezoid_geodesic_l2(f, p, q, num_points):
    # the sampled closed geodesic of slope p/q at arc length, trapezoid rule
    speed = math.hypot(p, q)
    s = np.linspace(0.0, 2.0 * math.pi * speed, num_points, endpoint=False)
    vals = f(np.column_stack([s * q / speed, s * p / speed]))
    return float(np.sqrt(np.mean(np.abs(vals) ** 2)))


def test_geodesic_closed_form_matches_trapezoid():
    # the trapezoid rule with more than 2 max|<k, w>| nodes is exact for
    # |f|^2, so both must agree to roundoff
    directions = {"slope0": (0, 1), "slope1": (1, 1), "slope1/2": (1, 2)}
    for N in (25, 65, 625, 4225):
        for f in (torus.random_eigenfunction(N, 1), torus.equal_coefficient_witness(N)):
            num_points = max(4096, math.ceil(40 * f.eigenvalue))
            norms, _ = torus.curve_l2_norms(f)
            for label, (p, q) in directions.items():
                ref = _trapezoid_geodesic_l2(f, p, q, num_points)
                assert abs(norms[label] - ref) <= 1e-12, (N, label)


def test_witness_geodesic_norms():
    # slope 1 at odd N: no circle point is parallel to (1, 1), and the
    # mirror of (a, b) is (b, a), so every level holds a pair: sqrt(2)
    for N in (25, 65, 169, 625):
        w = torus.witness(N)
        assert math.isclose(w.geodesics["slope1"], math.sqrt(2.0), rel_tol=1e-15)
        assert w.geodesic_gap <= torus.GEODESIC_RTOL
    # slope 0 at N = 25: (+-5, 0) are alone, so sqrt(2 - 2/12)
    assert torus.alone_on_level(torus.representations(25), (1, 0)) == 2
    assert math.isclose(torus.witness(25).geodesics["slope0"], math.sqrt(2.0 - 2.0 / 12.0))
    # slope 1/2 at N = 25: (4, 3) mirrors to (24/5, 7/5), not a lattice point
    assert torus.alone_on_level(np.array([[4, 3], [3, 4], [5, 0]]), (2, 1)) == 1


def test_only_the_random_rows_are_enclosed(monkeypatch):
    # the witness's sup is sqrt(r_2) by construction: one enclosure per
    # (N, seed) row and none for the witness itself
    calls = []
    enclose = torus.grid_sup_norm
    monkeypatch.setattr(torus, "grid_sup_norm", lambda f: calls.append(f) or enclose(f))
    torus.verify_linfty_bound([25, 169], range(3))
    assert len(calls) == 6
    calls.clear()
    torus.witness(25)
    assert calls == []


def test_verify_linfty_bound_report():
    report = torus.verify_linfty_bound([25, 169], seeds=range(3))
    assert len(report.rows) == 6 and len(report.witnesses) == 2
    assert report.bound_ok and report.worst_margin <= 0.0
    assert report.geodesic_ok and report.geodesic_ratio <= 1.0 + torus.GEODESIC_RTOL
    assert report.max_width <= torus.SUP_RTOL
    assert report.slope is not None
    assert list(report.max_lo) == [25, 169]
    for n, lo in report.max_lo.items():
        assert lo == max(r.sup.lo for r in report.rows if r.N == n)
    # the plot series runs in ascending N whatever the order of the list
    assert list(torus.verify_linfty_bound([169, 25], seeds=[0]).max_lo) == [25, 169]
    for row in report.rows:
        assert row.sup.hi <= math.sqrt(row.r2)
        assert row.sup.width <= torus.SUP_RTOL
        assert set(row.curves) == {"slope0", "slope1", "slope1/2", "circle"}
        # the row carries the rule its circle norm was taken with
        assert row.circle_rule == torus.circle_nodes(row.N, row.r2)
        assert 0.0 < row.curve_l2 <= row.sup.lo + 1e-12
    with pytest.raises(ValueError, match="not a sum of two squares"):
        torus.verify_linfty_bound([21], seeds=[0])
    # a ceiling checked over no rows would pass vacuously
    for ns, seeds in (([25], range(0)), ([], [0])):
        with pytest.raises(ValueError, match="at least one N and one seed"):
            torus.verify_linfty_bound(ns, seeds)
