"""Smooth compactly supported profiles shared by the harmonic and kernel code."""

import numpy as np

# int_{-1}^{1} bump(t) dt, correctly rounded (40-digit quadrature)
BUMP_MASS = 1.2069003224378763


def bump(t):
    """C-infinity bump exp(1 - 1/(1-t^2)) on (-1, 1), zero outside.

    Scaled so bump(0) = 1.  Vectorized; returns 0.0 where |t| >= 1.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1.0
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti**2))
    return out if out.ndim else float(out)


def unit_bump(t):
    """Bump profile rescaled to unit mass on (-1, 1)."""
    return bump(t) / BUMP_MASS


def _glue(u):
    """Smooth monotone 0 -> 1 transition on [0, 1] built from exp(-1/u)."""
    u = np.asarray(u, dtype=float)
    a = np.where(u > 0.0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
    b = np.where(u < 1.0, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return a / (a + b)


def cutoff_chi(x):
    """C-infinity cutoff: 1 for |x| <= 1/2, 0 for |x| >= 1, monotone between."""
    x = np.abs(np.asarray(x, dtype=float))
    out = _glue(2.0 * (1.0 - x))
    return out if out.ndim else float(out)
