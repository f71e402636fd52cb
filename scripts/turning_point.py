#!/usr/bin/env python3
"""Turning-point experiment: caustic mass of associated harmonics on a latitude.

For each degree n, reads the restricted L^2 norm of every order m in [0, n]
on the latitude circle at the given colatitude from one zonal FFT per degree
(`circle_spectrum`), takes the argmax over all m, then fits the growth of
that maximum against lambda.  The winning orders track m ~ n sin(theta0)
(the circle sits at the turning latitude of the winner) and the mass grows
at the Airy scale lambda^(1/6).  A colatitude outside (0, pi/2] or a
--degrees that is not a ladder lo:hi with 4 <= lo <= hi exits 2.
"""

import argparse
import math
import sys

from eigenrestrict.geometry import LatitudeCircle
from eigenrestrict.restriction import (fit_exponent, geometric_degrees,
                                       turning_point_sweep)


def _colatitude(text):
    try:
        return LatitudeCircle(float(text)).colatitude
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None


def _degrees(text):
    lo, _, hi = text.partition(":")
    try:
        return geometric_degrees(int(lo), int(hi))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a degree ladder lo:hi: {exc}") from None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--colatitude", type=_colatitude, default=math.pi / 4)
    parser.add_argument("--degrees", type=_degrees, default="32:512",
                        help="geometric degree ladder lo:hi")
    args = parser.parse_args()

    result = turning_point_sweep(args.colatitude, args.degrees)

    print(f"colatitude theta0 = {args.colatitude:.6f}  (sin theta0 = "
          f"{math.sin(args.colatitude):.4f})")
    print(f"{'n':>6} {'m*':>6} {'m*/n':>8} {'lambda':>10} {'ratio':>12}")
    for s, m in zip(result.samples, result.orders):
        print(f"{s.degree:>6} {m:>6} {m / s.degree:>8.4f} {s.lam:>10.2f} "
              f"{s.ratio:>12.6f}")
    fit = fit_exponent(result.samples, theoretical=1.0 / 6.0, tolerance=0.03)
    print(f"\nfitted slope {fit.slope:.4f}  (Airy scale 1/6 = {1/6:.4f}, "
          f"verdict {fit.verdict})")
    return 0 if fit.verdict in ("pass", "no_contract") else 1


if __name__ == "__main__":
    sys.exit(main())
