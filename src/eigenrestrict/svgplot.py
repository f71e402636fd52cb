"""Minimal deterministic SVG log-log plots.

Plots here are documentation artifacts for experiment output directories, not
analysis tools, so the emitter stays tiny: fixed canvas, decade ticks, one
polyline per series, no text measurement.  Output is plain text with all
coordinates rounded to two decimals, so identical data gives identical bytes.
"""

import math

WIDTH = 640.0
HEIGHT = 440.0
MARGIN_L = 70.0
MARGIN_R = 20.0
MARGIN_T = 36.0
MARGIN_B = 50.0

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x):
    return f"{x:.2f}"


def _decades(lo, hi):
    # decade tick positions covering [lo, hi]
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    return [10.0**e for e in range(first, last + 1)]


def _scale(lo, hi, out_lo, out_hi):
    la, lb = math.log10(lo), math.log10(hi)
    if lb <= la:
        lb = la + 1.0

    def to_px(v):
        t = (math.log10(v) - la) / (lb - la)
        return out_lo + t * (out_hi - out_lo)

    return to_px


def loglog_svg(series, title=""):
    """Render series of positive (x, y) data as an SVG log-log plot.

    `series` is a sequence of (label, xs, ys) with strictly positive values;
    returns the SVG document as a string.
    """
    cleaned = []
    for label, xs, ys in series:
        xs = [float(v) for v in xs]
        ys = [float(v) for v in ys]
        if len(xs) != len(ys) or not xs:
            raise ValueError(f"series {label!r} needs matching nonempty x/y")
        if min(xs) <= 0.0 or min(ys) <= 0.0:
            raise ValueError(f"series {label!r} has nonpositive values")
        cleaned.append((str(label), xs, ys))
    if not cleaned:
        raise ValueError("no series to plot")

    x_lo = min(min(xs) for _, xs, _ in cleaned)
    x_hi = max(max(xs) for _, xs, _ in cleaned)
    y_lo = min(min(ys) for _, _, ys in cleaned)
    y_hi = max(max(ys) for _, _, ys in cleaned)
    sx = _scale(x_lo, x_hi, MARGIN_L, WIDTH - MARGIN_R)
    sy = _scale(y_lo, y_hi, HEIGHT - MARGIN_B, MARGIN_T)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:g}" '
        f'height="{HEIGHT:g}" viewBox="0 0 {WIDTH:g} {HEIGHT:g}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<rect x="{_fmt(MARGIN_L)}" y="{_fmt(MARGIN_T)}" '
        f'width="{_fmt(WIDTH - MARGIN_L - MARGIN_R)}" '
        f'height="{_fmt(HEIGHT - MARGIN_T - MARGIN_B)}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    if title:
        out.append(f'<text x="{_fmt(WIDTH / 2)}" y="22" text-anchor="middle" '
                   f'font-size="14">{title}</text>')

    for tick in _decades(x_lo, x_hi):
        if tick < x_lo * 0.999 or tick > x_hi * 1.001:
            continue
        px = sx(min(max(tick, x_lo), x_hi))
        out.append(f'<line x1="{_fmt(px)}" y1="{_fmt(HEIGHT - MARGIN_B)}" '
                   f'x2="{_fmt(px)}" y2="{_fmt(HEIGHT - MARGIN_B + 5)}" '
                   'stroke="black"/>')
        out.append(f'<text x="{_fmt(px)}" y="{_fmt(HEIGHT - MARGIN_B + 18)}" '
                   f'text-anchor="middle" font-size="11">1e{int(math.log10(tick))}</text>')
    for tick in _decades(y_lo, y_hi):
        if tick < y_lo * 0.999 or tick > y_hi * 1.001:
            continue
        py = sy(min(max(tick, y_lo), y_hi))
        out.append(f'<line x1="{_fmt(MARGIN_L - 5)}" y1="{_fmt(py)}" '
                   f'x2="{_fmt(MARGIN_L)}" y2="{_fmt(py)}" stroke="black"/>')
        out.append(f'<text x="{_fmt(MARGIN_L - 8)}" y="{_fmt(py + 4)}" '
                   f'text-anchor="end" font-size="11">1e{int(math.log10(tick))}</text>')

    for idx, (label, xs, ys) in enumerate(cleaned):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   'stroke-width="1.5"/>')
        ly = MARGIN_T + 16.0 + 16.0 * idx
        lx = WIDTH - MARGIN_R - 150.0
        out.append(f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 22)}" '
                   f'y2="{_fmt(ly - 4)}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{_fmt(lx + 28)}" y="{_fmt(ly)}" '
                   f'font-size="11">{label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
