"""Lattice circles, divisor growth, and flat-torus eigenfunction experiments.

Eigenfunctions of the flat Laplacian on T^2 = (R/2piZ)^2 with eigenvalue N are
exactly the sums f = sum_j c_j e^{i<k_j, x>} over the lattice circle
|k_j|^2 = N, so everything here reduces to arithmetic of r_2(N), the number of
ways to write N as an ordered sum of two integer squares.  Cauchy-Schwarz
gives sup |f| <= sqrt(r_2(N)) ||f||_2, and r_2 grows slower than any power of
N, which is what the sup-norm and curve-restriction experiments probe.
`exponent_trend` measures that growth directly: it reads r_2 from the
lattice sieve `r2_table` in fixed windows of N and keeps only a running
maximum of log r_2 / log sqrt(N) per cutoff.

Sup norms are certified: `grid_sup_norm` returns an interval [lo, hi] that
provably contains sup |f| (a one-sided Bernstein bound on the second
derivative of |f|^2 along lines turns grid values into an upper bound), so
the ceiling check hi <= sqrt(r_2) can fail.  The starting grid is a float32
prune with a proved error margin; level 0 of the refinement is the float64
evaluation of its survivors, and only float64 values reach the enclosure.
Norms along closed geodesics are exact finite sums; round circles take a
certified trapezoid rule.
"""

import math
from dataclasses import dataclass

import numpy as np

from .harmonics import TorusSum
from .restriction import loglog_fit, lp_norm_weighted

DESK_N_MAX = 10**7
# side of the starting sup grid, per sqrt(N): 20 / sqrt(2), so N h^2 / 2 = (2 pi / 20)^2
POINTS_PER_AXIS_WAVELENGTH = 20 / math.sqrt(2)
SUP_RTOL = 1e-9                  # sup enclosures are refined to hi / lo - 1 <= this
MAX_DEPTH = 12                   # 4 x 4 splits allowed after the grid (7 are needed)
MAX_CELLS = 1 << 20              # cells one sup enclosure level may keep or split into
BLOCK_BYTES = 1 << 22            # working set of one float32 grid row block or point chunk
R2_WINDOW = 1 << 16              # values of N that exponent_trend sieves at once
TREND_CUTOFFS = (10**3, 10**4, 10**5)  # lower ends of exponent_trend's ranges [cutoff, n_max]
CIRCLE_RADIUS = 1.0
GEODESIC_RTOL = 1e-12
# closed geodesics t -> t w, t in [0, 2 pi), by label and integer direction w
GEODESICS = (("slope0", (1, 0)), ("slope1", (1, 1)), ("slope1/2", (2, 1)))
_EPS = float(np.finfo(float).eps)
_EPS32 = float(np.finfo(np.float32).eps)


def representations(N):
    """The integer points (m, n) of the circle m^2 + n^2 = N: an (r_2, 2) int64 array.

    For N = 0 it is the single point (0, 0); every positive N with a
    representation has a count divisible by 4 (the four sign/swap
    symmetries act freely off the axes and in pairs on them).  The scan
    takes every m in [-isqrt(N), isqrt(N)] at once and tests N - m^2 for
    squareness with exact integer arithmetic on its truncated float root; a
    perfect square below 2^53 has an exactly computed float root, so the
    list is complete by construction (N >= 2^53 raises ValueError).  Rows
    run m ascending, (m, n) before (m, -n).
    """
    N = int(N)
    if N < 0:
        raise ValueError("N must be a nonnegative integer")
    if N >= 1 << 53:
        raise ValueError("N must be below 2^53 for the exact square test")
    s = math.isqrt(N)
    m = np.arange(-s, s + 1, dtype=np.int64)
    rem = N - m * m
    n = np.sqrt(rem).astype(np.int64)
    hit = n * n == rem
    m, n = m[hit], n[hit]
    pts = np.column_stack([m, n, m, -n]).reshape(-1, 2)
    keep = np.repeat(n > 0, 2)  # one row (m, 0) where n = 0
    keep[::2] = True
    return pts[keep]


def _isqrt(x):
    # exact floor(sqrt(x)) of an int64 array with 0 <= x < 2^52: the float
    # root of an exact float is off by at most one either way
    r = np.sqrt(x.astype(float)).astype(np.int64)
    r -= r * r > x
    r += (r + 1) * (r + 1) <= x
    return r


def _check_n_max(n_max):
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > DESK_N_MAX:
        raise ValueError(f"n_max={n_max} beyond desk scale {DESK_N_MAX}")
    return n_max


def r2_table(n_max, start=0):
    """r_2(N) for start <= N <= n_max (entry N - start) via one vectorized lattice sieve.

    Bins m^2 + n^2 over the octant 0 <= m < n with weight 8 (sign changes
    and swap), then corrects the rest: (0, n) has 4 images (-4 at n^2),
    (m, m) has 4 (+4 at 2 m^2) and the origin 1.  For each m <= isqrt(n_max
    // 2) only the n > m with start <= m^2 + n^2 <= n_max are taken, their
    ends from an exact integer square root, so a window of N costs its own
    lattice points plus one entry per m.  It shares no logic with the
    per-N scan in `representations`, so it cross-checks it.
    `exponent_trend` calls it on windows of R2_WINDOW values of N: the
    last window below 10^7 holds about 26k octant pairs, where the whole
    table up to 10^7 held 3.9M.
    """
    n_max = _check_n_max(n_max)
    start = int(start)
    if not 0 <= start <= n_max:
        raise ValueError(f"start={start} outside [0, n_max={n_max}]")
    m = np.arange(math.isqrt(n_max // 2) + 1, dtype=np.int64)
    m2 = m * m
    # the first n > m with m^2 + n^2 >= start: isqrt(x - 1) + 1 is the least
    # r with r^2 >= x > 0, and where x = start - m^2 <= 0 it is n = m + 1
    lo = np.maximum(m + 1, _isqrt(np.maximum(start - m2 - 1, 0)) + 1)
    count = np.maximum(_isqrt(n_max - m2) - lo + 1, 0)
    first = np.cumsum(count) - count  # where each m's run of n begins
    n = np.arange(first[-1] + count[-1]) + np.repeat(lo - first, count)
    table = np.bincount(np.repeat(m2, count) + n * n - start, minlength=n_max - start + 1)
    table *= 8
    # the least n >= 1 with n^2 >= start, and the least m >= 1 with 2 m^2 >= start
    axis = np.arange(math.isqrt(max(start - 1, 0)) + 1, math.isqrt(n_max) + 1) ** 2
    table[axis - start] -= 4
    table[2 * m2[math.isqrt(max((start - 1) // 2, 0)) + 1:] - start] += 4
    if start == 0:
        table[0] += 1
    return table


def exponent_trend(n_max, cutoffs=TREND_CUTOFFS):
    """Max divisor-growth exponent log r_2(N) / log sqrt(N) over [cutoff, n_max], per cutoff.

    The exponent quantifies r_2(N) = N^(eps/2) pointwise; the content of the
    divisor bound is that its max over [cutoff, n_max] decays as the cutoff
    rises.  Returns (maxima, argmax_N, strictly_decreasing): argmax_N is
    the smallest N attaining each maximum.  Strict decrease is the
    desk-scale expression of the eps-smallness trend; inclusion alone would
    only give the non-strict version.  With one cutoff there is no trend to
    hold, and strictly_decreasing is None.  N in {0, 1} and unrepresented N
    are skipped (log sqrt(N) vanishes or r_2 = 0).  [2, n_max] is read
    from `r2_table` in windows of R2_WINDOW values of N, each reduced at
    once to its first argmax per cutoff, so only a running maximum per
    cutoff is held: n_max = 10^7 takes 0.12-0.15 s in process on 2 cores,
    and `run torus --n-max 10000000` peaks near 32 MB.
    """
    n_max = _check_n_max(n_max)
    cutoffs = tuple(int(c) for c in cutoffs)
    if not cutoffs:
        raise ValueError("cutoffs must hold at least one cutoff")
    if any(c2 <= c1 for c1, c2 in zip(cutoffs, cutoffs[1:])):
        raise ValueError("cutoffs must be strictly increasing")
    if cutoffs[-1] >= n_max:
        raise ValueError("largest cutoff must sit below n_max")
    best = [(-math.inf, None)] * len(cutoffs)
    for lo in range(2, n_max + 1, R2_WINDOW):
        table = r2_table(min(lo + R2_WINDOW - 1, n_max), lo)
        hit = np.flatnonzero(table)
        N = hit + lo
        exponent = np.log(table[hit].astype(float)) / np.log(np.sqrt(N.astype(float)))
        for i, c in enumerate(cutoffs):
            j = int(np.searchsorted(N, c))
            if j < len(N):
                k = j + int(np.argmax(exponent[j:]))  # first of the ties
                if exponent[k] > best[i][0]:  # a tie keeps the earlier, smaller N
                    best[i] = (float(exponent[k]), int(N[k]))
    if best[-1][1] is None:  # a represented N above the last cutoff serves them all
        raise ValueError(f"no represented N in [{cutoffs[-1]}, {n_max}]")
    maxima, argmax_N = (list(v) for v in zip(*best))
    decreasing = all(a > b for a, b in zip(maxima, maxima[1:])) if len(maxima) > 1 else None
    return maxima, argmax_N, decreasing


def _lattice_circle(N):
    points = representations(N)
    if N == 0 or len(points) == 0:
        raise ValueError(f"N={N} has no lattice circle to draw from")
    return points


def random_eigenfunction(N, seed):
    """Eigenfunction with seeded unimodular coefficients on the circle |k|^2 = N.

    Every coefficient has modulus 1/sqrt(r_2(N)), so the L^2 norm is exactly 1
    and sup |f| <= sqrt(r_2(N)) with equality iff all phases align somewhere.
    """
    points = _lattice_circle(N)
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * math.pi, size=len(points))
    coeffs = np.exp(1j * phases) / math.sqrt(len(points))
    return TorusSum(points, coeffs)


def equal_coefficient_witness(N):
    """The eigenfunction with every coefficient 1/sqrt(r_2(N)) on |k|^2 = N.

    Its phases align at the origin, so sup |f| = f(0) = sqrt(r_2): it attains
    the Cauchy-Schwarz ceiling, and a certified enclosure of its sup must
    contain sqrt(r_2).  Along a closed geodesic of direction w its restricted
    L^2 norm is sqrt(2 - s/r_2), s the circle points alone on their level of
    <k, w> (`alone_on_level`).
    """
    points = _lattice_circle(N)
    return TorusSum(points, np.full(len(points), 1.0 / math.sqrt(len(points))))


@dataclass(frozen=True)
class SupEnclosure:
    """Certified interval lo <= sup |f| <= hi, and how it was reached.

    `m` is the side of the starting grid, of which the (m // 2 + 1) x m
    rows with x1 <= pi are evaluated (f(x + (pi, pi)) = +-f(x) on a lattice
    circle), `depth` the number of 4 x 4 refinements after it and `cells`
    the cells of that half still able to hold the max at the end.
    """

    lo: float
    hi: float
    m: int
    depth: int
    cells: int

    @property
    def width(self):
        """Relative width hi / lo - 1."""
        return self.hi / self.lo - 1.0


# sub-cell centres of a 4 x 4 split, in units of the sub-cell side
_SPLIT = np.stack(np.meshgrid(np.arange(4) - 1.5, np.arange(4) - 1.5,
                              indexing="ij"), axis=-1).reshape(16, 2)
_CENTRE = np.zeros((1, 2))  # the one offset that evaluates f at the centre itself


def _roundoff(f):
    # bound on |computed f(g) - f(g)| at every node g whose float64 value
    # the enclosure uses (the float32 grid pass adds _slack32 on top):
    # each phase, at most 2 pi sqrt(2 N) in size, carries the rounding of its
    # node's coordinates (a few eps per refinement) and of its products.  A
    # refined node g + h s splits its phase into the parent's <k_j, g> and
    # the offset's h <k_j, s> (a phase under 3 h sqrt(N), rounded once), and
    # multiplies the two exponentials and c_j: a few eps more per term.  The
    # cosines and sines cost a few eps each and the sums r_2 eps; all scale
    # with sum |c_j|.  The constants are generous on purpose.
    return (_EPS * float(np.sum(np.abs(f.coeffs)))
            * (64.0 * math.pi * f.eigenvalue + 4.0 * len(f.coeffs) + 32.0))


def _slack32(f):
    # bound on | |f| from _half_grid32 - |f| from the same float64 operands |,
    # with eps32 = 2u and S = sum |c_j|.  A row of [Re f; Im f] sums 2K
    # products a b of float64 operands, K the distinct k1, and
    # sum |a| |b| <= sum_u |G[u, b]| <= S.  Rounding a and b to float32
    # moves each product by (2u + u^2) |a b|, the float32 sum by
    # gamma_2K sum |a| |b| (Higham, Accuracy and Stability, 3.5), so Re f
    # and Im f move by (K + 1) eps32 S each and |f| by sqrt(2) times that.
    # The squares and their sum cost eps32 relative in |f|^2, the floor
    # rounded to float32 by the comparison u more: eps32 S / 2 and
    # eps32 S / 4 in |f|.  (4 K + 8) eps32 S covers all of it with room.
    K = len(set(f.freqs[:, 0].tolist()))  # flagless np.unique would import numpy.ma
    return (4.0 * K + 8.0) * _EPS32 * float(np.sum(np.abs(f.coeffs)))


def _bounds(best, level_max, h, N, rho, hi):
    """(lo, hi, floor) once the nodes of side-h cells have been evaluated.

    best is the largest computed |f| so far and level_max the largest over
    the cells of side h that may hold the maximiser; a cell whose computed
    |f(g)|^2 is below floor cannot hold it.  A cell centre g lies within
    delta = h / sqrt(2) of any point of its cell, and N delta^2 = N h^2 / 2
    is the loss of the one-sided bound in `grid_sup_norm`.
    """
    loss = 0.5 * N * h * h
    lo = best - rho
    hi = min(hi, (level_max + rho) / math.sqrt(1.0 - loss) * (1.0 + 8.0 * _EPS))
    reach = lo * lo * (1.0 - 8.0 * _EPS) - loss * hi * hi * (1.0 + 8.0 * _EPS)
    if reach <= rho * rho:
        return lo, hi, 0.0
    return lo, hi, (math.sqrt(reach) - rho) ** 2 * (1.0 - 4.0 * _EPS)


def _too_flat(N, cells):
    return ArithmeticError(
        f"sup enclosure of N={N}: {cells} cells can still hold the max "
        f"(cap {MAX_CELLS}); |f| is too flat to certify")


def _row_bytes(m):
    # a grid row's share of BLOCK_BYTES: twice its float32 [Re f; Im f], so
    # a block's GEMM output fills half the budget; blocks that fill all of
    # it ran 10-20% slower on a 2-core machine with 2 MiB of L2 per core
    return 4 * m * np.dtype(np.float32).itemsize


def _half_grid32(f, m):
    """float32 |f|^2 on the rows x1 = a h, a = 0..m // 2, of the m x m grid.

    Yields (a0, sq), sq the float32 |f(x_a, y_b)|^2 of rows a0, a0 + 1, ...
    by columns b, in blocks of BLOCK_BYTES // _row_bytes(m) rows.
    f is separable: f(x_a, y_b) = sum_u e^{i u x_a} G[u, b], where G[u, :]
    sums c_j e^{i k2_j y} over the frequencies with k1_j = u.  G is one
    complex GEMM of the (distinct k1) x r_2 weights with e^{i k2 y}, read
    off the m-th roots of unity since k2 y_b = 2 pi k2 b / m, and grouping
    by k1 about halves the inner dimension 2K of the real GEMM
    [cos, -sin; sin, cos] [Re G; Im G] = [Re f; Im f].  Both operands are
    built in float64 and rounded once to float32; the GEMM, the squares and
    the sum of the Re and Im halves run in float32, within _slack32 of the
    float64 values of the same operands.
    """
    h, b = 2.0 * math.pi / m, np.arange(m)
    k1, group = np.unique(f.freqs[:, 0], return_inverse=True)
    weights = np.zeros((len(k1), len(f.coeffs)), dtype=complex)
    weights[group, np.arange(len(group))] = f.coeffs
    roots = np.exp(1j * h * b)  # e^{i k2 y_b} = roots[k2 b mod m]
    g = weights @ roots[np.outer(f.freqs[:, 1], b) % m]
    g = np.concatenate([g.real, g.imag]).astype(np.float32)
    rows = max(1, BLOCK_BYTES // _row_bytes(m))
    half = h * b[:m // 2 + 1]
    for a0 in range(0, len(half), rows):
        phase = np.outer(half[a0:a0 + rows], k1)
        cos, sin = np.cos(phase), np.sin(phase)
        reim = np.block([[cos, -sin], [sin, cos]]).astype(np.float32) @ g  # [Re f; Im f]
        n = len(phase)
        np.square(reim, out=reim)
        sq = reim[:n]
        sq += reim[n:]  # |f|^2 on the block
        yield a0, sq


def _grid_stage(f, m, rho):
    """Centres h (a, b) of the nodes of half the m x m grid that may hold the sup.

    Every frequency on |k|^2 = N has k1 + k2 = k1^2 + k2^2 = N (mod 2), so
    f(x + (pi, pi)) = (-1)^N f(x): some maximiser, or its shift, has
    x1 in [0, pi).  The rows x_a = a h, a = 0..m // 2, carry the cells of
    side h that cover x1 in [-h/2, (m // 2 + 1/2) h), which contains
    [0, pi), so the (m // 2 + 1) x m grid certifies what the full one did.

    A float32 prune only.  The half grid comes in float32 row blocks
    (`_half_grid32`) within BLOCK_BYTES (4 MiB: small enough to stay near
    the cache and off the peak RSS), whose values are within
    rho32 = rho + _slack32(f) of |f|.  Their row maxima give the running
    max and, through `_bounds` with rho32, a floor below which no node can
    hold the sup; only rows whose maximum reaches it are searched for nodes
    to keep.  The floor only rises with the running max, so no node that
    the final floor keeps is lost, and the nodes it has risen past are
    dropped only when more than MAX_CELLS are held: the kept set is not
    copied on every block.  The nodes at or above the last floor are
    returned; level 0 of `grid_sup_norm` evaluates them again in float64,
    as if the whole half grid had been evaluated in float64.
    """
    N = f.circle_number
    h = 2.0 * math.pi / m
    rho32 = rho + _slack32(f)
    best, count, nodes, vals = 0.0, 0, [], []
    for a0, sq in _half_grid32(f, m):
        row_max = sq.max(axis=1)
        best = max(best, math.sqrt(float(row_max.max())))
        floor = _bounds(best, best, h, N, rho32, math.inf)[2]
        hit = np.flatnonzero(row_max >= floor)
        a, b = np.nonzero(sq[hit] >= floor)
        a = hit[a]
        nodes.append(np.column_stack([a0 + a, b]))
        vals.append(sq[a, b])
        count += len(a)
        if count > MAX_CELLS:  # drop the nodes the floor has risen past
            nodes, vals = np.concatenate(nodes), np.concatenate(vals)
            keep = vals >= floor
            nodes, vals, count = [nodes[keep]], [vals[keep]], int(np.count_nonzero(keep))
            if count > MAX_CELLS:
                raise _too_flat(N, count)
    return h * np.concatenate(nodes)[np.concatenate(vals) >= floor]


def _abs2(f, pts, h, split=_SPLIT):
    """Computed |f|^2 at the sub-cell centres g + h s, s in split, of each centre g in pts.

    With the default split these are the 16 children of a 4 x 4 split, and
    f(g + h s) = sum_j (c_j e^{i <k_j, g>}) e^{i h <k_j, s>}: one
    exponential per parent and term, then one product with the
    r_2 x len(split) offset matrix, taken once per level (with _CENTRE it
    is f(g) itself).  Parents go in chunks whose phase factors and children
    fit in BLOCK_BYTES; the result is parent-major, children in split order.
    """
    freqs = f.freqs.T.astype(float)
    offsets = (np.exp(1j * h * (split @ freqs)) * f.coeffs).T  # r_2 x len(split)
    chunk = max(1, BLOCK_BYTES // (16 * (len(f.coeffs) + len(split))))
    out = np.empty((len(pts), len(split)))
    for i in range(0, len(pts), chunk):
        vals = np.exp(1j * (pts[i:i + chunk] @ freqs)) @ offsets
        out[i:i + chunk] = vals.real ** 2 + vals.imag ** 2
    return out.ravel()


def grid_sup_norm(f):
    """Certified enclosure of sup |f| over T^2, as a SupEnclosure [lo, hi].

    Let R = sqrt(N) and M = sup |f|.  Along any line f is a sum of
    exponentials of frequency at most R, so Bernstein's inequality gives
    |d_u^2 f| <= R^2 M.  On a line x* + t v through the maximiser, unit v,
    phi = |f|^2 has phi'' = 2 |f'|^2 + 2 Re(conj(f) f'') >= -2 R^2 M^2,
    phi(0) = M^2 and phi'(0) = 0, so the centre g of a cell of
    half-diagonal delta holding x* has |f(g)|^2 >= M^2 (1 - R^2 delta^2).
    The bound is sharp: cos^2 <k, x> = 1 - <k, x>^2 + O(|x|^4).  Two
    consequences, with R^2 delta^2 = N h^2 / 2 for cells of side h:

    - M <= max |f(g)| / sqrt(1 - N h^2 / 2) over the cells that may hold
      the maximiser; on the starting grid, m = ceil(20 R / sqrt(2)) points
      a side, the factor is 1 / sqrt(1 - (2 pi / 20)^2) = 1.053;
    - a cell with |f(g)|^2 + hi^2 N h^2 / 2 < lo^2 cannot hold it.

    The grid comes from a blocked separable GEMM (`_grid_stage`), after the
    frequencies are divided by their gcd g (which leaves the sup unchanged
    and makes m = ceil(20 sqrt(N / 2) / g)), squared in place block by block.
    Its float32 values only prune, with a floor that carries their proved
    error bound (`_slack32`).  Only the grid's (m // 2 + 1) x m rows with
    x1 <= pi are evaluated: each k has k1 + k2 = N (mod 2), so
    f(x + (pi, pi)) = (-1)^N f(x), and the cells on those rows hold a
    maximiser or its shift.
    Every level then takes the same float64 step: `_abs2` evaluates |f|^2
    at the level's nodes, `_bounds` turns them into lo, hi and a floor, and
    the cells below the floor are dropped.  Level 0 evaluates the float32
    survivors themselves, cells of side h = 2 pi / m; each later level
    splits the cells left 4 x 4, side h / 4, whose 16 children cost one
    exponential per term and one product with the level's offset phases.
    The loop stops once hi / lo - 1 <= SUP_RTOL, which takes 7 splits.  lo
    is the best node value; both ends carry an explicit bound on the
    roundoff of the computed values.  ArithmeticError if a level would
    evaluate more than MAX_CELLS cells (|f| nearly flat) or MAX_DEPTH splits
    do not reach the tolerance.
    """
    # with g the gcd of every frequency component, f(x) = f~(g x): the same
    # sup on a circle g^2 times smaller, without g^2 copies of every peak
    g = int(np.gcd.reduce(np.abs(f.freqs).ravel()))
    f = TorusSum(f.freqs // g, f.coeffs)
    N = f.circle_number
    m = math.ceil(POINTS_PER_AXIS_WAVELENGTH * f.eigenvalue)
    rho = _roundoff(f)
    pts = _grid_stage(f, m, rho)
    h, split, best, hi = 2.0 * math.pi / m, _CENTRE, 0.0, math.inf
    for depth in range(MAX_DEPTH + 1):
        if len(split) * len(pts) > MAX_CELLS:
            raise _too_flat(N, len(split) * len(pts))
        sq = _abs2(f, pts, h, split)
        level_max = math.sqrt(float(sq.max()))
        best = max(best, level_max)
        lo, hi, floor = _bounds(best, level_max, h, N, rho, hi)
        pts = (pts[:, None, :] + h * split).reshape(-1, 2)[sq >= floor]
        if not hi > lo * (1.0 + SUP_RTOL):  # a NaN stops here too
            return SupEnclosure(lo, hi, m, depth, len(pts))
        h, split = h / 4.0, _SPLIT
    raise ArithmeticError(f"sup enclosure of N={N}: width {hi / lo - 1.0:.3g} after "
                          f"{MAX_DEPTH} splits, above {SUP_RTOL:g}")


def geodesic_l2_norm(f, w):
    """Restricted L^2 norm of f along the closed geodesic t -> t w, t in [0, 2 pi).

    On it f(t w) = sum_j (sum over <k, w> = j of c_k) e^{ijt}, so under the
    normalized arc measure the norm is sqrt(sum_j |sum_{<k,w>=j} c_k|^2).  A
    level set of <k, w> meets the circle |k| = sqrt(N) at most twice, so the
    norm is at most sqrt(2) ||f||_2.
    """
    level = f.freqs @ np.asarray(w, dtype=np.int64)
    _, group = np.unique(level, return_inverse=True)
    sums = np.zeros(group.max() + 1, dtype=complex)
    np.add.at(sums, group, f.coeffs)
    return float(np.sqrt(np.sum(sums.real ** 2 + sums.imag ** 2)))


def circle_nodes(N, terms):
    """Least trapezoid node count M >= e z on the CIRCLE_RADIUS circle, and its bound.

    For f of `terms` terms on |k|^2 = N and z = CIRCLE_RADIUS sqrt(N), Jacobi-Anger
    bounds the coefficient of |f|^2 at frequency q on the circle by (sum |c_j|)^2
    max_{w <= 2z} |J_q(w)| <= terms ||f||^2 z^q / q!.  The M-node rule aliases only
    q = pM, p != 0, and (pM)! >= (M!)^p, so it moves mean |f|^2 by at most
    bound ||f||^2, bound = 2 terms a / (1 - a) <= _EPS, a = z^M / M! < 1.
    """
    z = max(1.0, CIRCLE_RADIUS * math.sqrt(N))  # a larger z only loosens the bound
    M = math.ceil(math.e * z)  # M! > (M / e)^M >= z^M from here on, so a < 1
    while True:
        a = math.exp(M * math.log(z) - math.lgamma(M + 1.0))
        if (bound := 2.0 * terms * a / (1.0 - a)) <= _EPS:
            return M, bound
        M += 1


def curve_l2_norms(f):
    """Restricted L^2 norms of f along the standard curves, and the circle's rule.

    The closed geodesics of slope 0, 1 and 1/2 through the origin, in closed
    form (`geodesic_l2_norm`), and one round circle of radius CIRCLE_RADIUS
    about (pi, pi), not a geodesic, by the trapezoid rule on the M nodes of
    `circle_nodes`, certified to _EPS.  Normalized arc measure, so a constant
    of modulus 1 has norm 1 on every curve and the values compare directly
    with ||f||_{L^2} = 1.  Returns (curve label -> norm, (M, bound)).
    """
    out = {label: geodesic_l2_norm(f, w) for label, w in GEODESICS}
    M, bound = circle_nodes(f.circle_number, len(f.coeffs))
    s = np.linspace(0.0, 2.0 * math.pi, M, endpoint=False)
    vals = f(np.column_stack([math.pi + CIRCLE_RADIUS * np.cos(s),
                              math.pi + CIRCLE_RADIUS * np.sin(s)]))
    out["circle"] = lp_norm_weighted(vals, 1.0 / M, 2.0)
    return out, (M, bound)


@dataclass(frozen=True, eq=False)
class TorusRow:
    """One random eigenfunction: its sup enclosure and its curve norms."""

    N: int
    r2: int
    seed: int
    sup: SupEnclosure
    curves: dict  # curve label -> restricted L^2 norm
    circle_rule: tuple  # (M, bound) of the circle's trapezoid rule (`circle_nodes`)

    @property
    def curve_l2(self):
        return max(self.curves.values())


@dataclass(frozen=True, eq=False)
class Witness:
    """The equal-coefficient witness on one circle, with its exact values.

    `geodesics` holds the closed-form norms and `expected` sqrt(2 - s/r_2),
    s the circle points alone on their level of <k, w> (`alone_on_level`).
    Its sup, sqrt(r_2) = f(0), is exact, so it holds no enclosure.
    """

    N: int
    r2: int
    geodesics: dict
    expected: dict

    @property
    def geodesic_gap(self):
        return max(abs(self.geodesics[k] - self.expected[k]) for k in self.expected)


def alone_on_level(points, w):
    """How many of the lattice points are alone on their level set of <k, w>.

    The level set through k meets the circle at k and at its mirror image
    across the line R w, so k is alone when it is parallel to w or when that
    image is not a lattice point of the circle.  The reflections of slope 0
    and slope 1 are lattice symmetries, so there only parallel points count.
    """
    w = np.asarray(w, dtype=np.int64)
    ww = int(w @ w)
    scaled = {tuple(k) for k in ww * points}
    images = 2 * (points @ w)[:, None] * w[None, :] - ww * points  # ww * mirror
    return sum(1 for k, img in zip(ww * points, images)
               if tuple(img) == tuple(k) or tuple(img) not in scaled)


def witness(N):
    """The equal-coefficient witness on |k|^2 = N with its geodesic norms;
    its sup is f(0) = sum |c_j| = sqrt(r_2) in closed form, not enclosed."""
    f = equal_coefficient_witness(N)
    r2 = len(f.coeffs)
    geodesics = {label: geodesic_l2_norm(f, w) for label, w in GEODESICS}
    expected = {label: math.sqrt(2.0 - alone_on_level(f.freqs, w) / r2)
                for label, w in GEODESICS}
    return Witness(int(N), r2, geodesics, expected)


@dataclass(frozen=True, eq=False)
class LinftyReport:
    """Sup-norm and geodesic experiment outcome across (N, seed) pairs.

    `bound_ok`: every row has hi <= sqrt(r_2(N)), a ceiling the witnesses
    attain in closed form.  `worst_margin` is the largest hi - sqrt(r_2)
    and `max_width` the largest hi / lo - 1 over the rows.
    `geodesic_ok`: every geodesic norm is at most sqrt(2) ||f||_2 (their
    largest ratio is `geodesic_ratio`) up to GEODESIC_RTOL, and every witness
    norm is within GEODESIC_RTOL of sqrt(2 - s/r_2).  `max_lo` maps each N,
    ascending, to its largest lo over the seeds; `slope` fits log(max_lo)
    against log sqrt(N) and is None when fewer than two distinct N are
    present.
    """

    rows: tuple
    witnesses: tuple
    bound_ok: bool
    worst_margin: float
    max_width: float
    geodesic_ok: bool
    geodesic_ratio: float
    max_lo: dict
    slope: object


def verify_linfty_bound(Ns, seeds):
    """Certified sups and curve norms for random eigenfunctions on each circle.

    For every N in Ns and seed in seeds, draws a unimodular random
    eigenfunction, encloses its sup (`grid_sup_norm`) and takes its
    restricted L^2 norms on the standard curves; each N also gets its
    equal-coefficient witness, with exact geodesic norms and sup (`witness`).
    The returned slope is the growth rate of the per-N worst lo in
    log sqrt(N).  Empty Ns or seeds raise ValueError: a bound checked over
    no rows proves nothing.
    """
    Ns, seeds = list(Ns), list(seeds)
    if not Ns or not seeds:
        raise ValueError("verify_linfty_bound needs at least one N and one seed")
    rows, witnesses, ratio = [], [], 0.0
    for N in Ns:
        r2 = len(representations(N))
        if r2 == 0:
            raise ValueError(f"N={N} is not a sum of two squares")
        witnesses.append(witness(N))
        for seed in seeds:
            f = random_eigenfunction(N, seed)
            row = TorusRow(int(N), r2, int(seed), grid_sup_norm(f), *curve_l2_norms(f))
            cap = math.sqrt(2.0) * f.l2_norm
            ratio = max(ratio, *(row.curves[label] / cap for label, _ in GEODESICS))
            rows.append(row)
    max_lo = {}
    for r in sorted(rows, key=lambda r: r.N):
        max_lo[r.N] = max(max_lo.get(r.N, 0.0), r.sup.lo)
    slope = None
    if len(max_lo) >= 2:
        slope = loglog_fit(np.sqrt(np.array(list(max_lo), dtype=float)),
                           list(max_lo.values()))[0]
    worst = max(r.sup.hi - math.sqrt(r.r2) for r in rows)
    geodesic_ok = (ratio <= 1.0 + GEODESIC_RTOL
                   and all(w.geodesic_gap <= GEODESIC_RTOL for w in witnesses))
    return LinftyReport(tuple(rows), tuple(witnesses), worst <= 0.0, float(worst),
                        float(max(r.sup.width for r in rows)), bool(geodesic_ok),
                        float(ratio), max_lo, slope)
