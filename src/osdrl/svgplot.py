"""Minimal hand-rolled SVG charts (no plotting dependency). CSV files are the
canonical experiment output; these are viewing convenience only."""

from __future__ import annotations

import math

_PALETTE = ("#1f6fb2", "#d1495b", "#2e8b57", "#b8860b", "#6a5acd", "#444444")
_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 34, 44


def _ranges(series):
    xs = [x for _, sx, _ in series for x in sx]
    ys = [y for _, _, sy in series for y in sy if math.isfinite(y)]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    return x_lo, x_hi, y_lo - pad, y_hi + pad


def _open_svg(parts, title):
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">'
    )
    parts.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    if title:
        parts.append(f'<text x="{_W / 2}" y="20" text-anchor="middle">{title}</text>')


def _axes(parts, x_lo, x_hi, y_lo, y_hi, x_label, y_label):
    x0, y0 = _ML, _H - _MB
    x1, y1 = _W - _MR, _MT
    parts.append(
        f'<path d="M {x0} {y1} L {x0} {y0} L {x1} {y0}" stroke="black" fill="none"/>'
    )
    parts.append(f'<text x="{x0}" y="{y0 + 16}" text-anchor="middle">{x_lo:.6g}</text>')
    parts.append(f'<text x="{x1}" y="{y0 + 16}" text-anchor="middle">{x_hi:.6g}</text>')
    parts.append(f'<text x="{x0 - 6}" y="{y0 + 4}" text-anchor="end">{y_lo:.6g}</text>')
    parts.append(f'<text x="{x0 - 6}" y="{y1 + 4}" text-anchor="end">{y_hi:.6g}</text>')
    if x_label:
        parts.append(
            f'<text x="{(x0 + x1) / 2}" y="{_H - 10}" text-anchor="middle">{x_label}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="16" y="{(y0 + y1) / 2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {(y0 + y1) / 2})">{y_label}</text>'
        )


def _legend(parts, i, color, label):
    parts.append(
        f'<text x="{_W - _MR - 4}" y="{_MT + 14 + 14 * i}" text-anchor="end" '
        f'fill="{color}">{label}</text>'
    )


def _write_svg(parts, path):
    """Close the document and write it, one element a line."""
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def line_chart(series, path, title="", x_label="", y_label="") -> None:
    """series: iterable of (label, xs, ys) triples drawn as polylines."""
    series = [(label, list(xs), list(ys)) for label, xs, ys in series]
    x_lo, x_hi, y_lo, y_hi = _ranges(series)

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = []
    _open_svg(parts, title)
    _axes(parts, x_lo, x_hi, y_lo, y_hi, x_label, y_label)
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{px(x):.6g},{py(y):.6g}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        _legend(parts, i, color, label)
    _write_svg(parts, path)


def histogram_chart(series, path, title="", x_label="", y_label="mass") -> None:
    """series: iterable of (label, bin_edges, masses); bars drawn
    semi-transparent so overlapping histograms stay readable."""
    series = [(label, list(edges), list(masses)) for label, edges, masses in series]
    x_lo = min(edges[0] for _, edges, _ in series)
    x_hi = max(edges[-1] for _, edges, _ in series)
    y_hi = max(max(masses) for _, _, masses in series) or 1.0
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_hi *= 1.05

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - y / y_hi * (_H - _MT - _MB)

    parts = []
    _open_svg(parts, title)
    _axes(parts, x_lo, x_hi, 0.0, y_hi, x_label, y_label)
    for i, (label, edges, masses) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        for left, right, mass in zip(edges[:-1], edges[1:], masses):
            if mass <= 0:
                continue
            parts.append(
                f'<rect x="{px(left):.6g}" y="{py(mass):.6g}" '
                f'width="{px(right) - px(left):.6g}" '
                f'height="{py(0.0) - py(mass):.6g}" fill="{color}" fill-opacity="0.45"/>'
            )
        _legend(parts, i, color, label)
    _write_svg(parts, path)
