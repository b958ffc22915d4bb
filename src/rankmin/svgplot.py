"""Minimal deterministic SVG line plots.

Constraints the harness relies on: byte-stable output (no timestamps,
no ids, fixed float formatting), exactly one <polyline> per data series,
optional min/max envelope drawn as a <polygon>. Matplotlib can't promise
any of that across versions, hence this ~150-line renderer.
"""

from __future__ import annotations

import math

import numpy as np

WIDTH, HEIGHT = 640.0, 420.0
ML, MR, MT, MB = 64.0, 16.0, 34.0, 46.0   # margins: left/right/top/bottom

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#e377c2",
)


def _f(v: float) -> str:
    # fixed decimals keep files byte-stable across platforms
    return f"{v:.2f}"


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float):
    """Tick values inside [lo, hi], a range that _widening left wide enough."""
    raw = (hi - lo) / 8     # at most 8 tick steps per axis
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mag * mult >= raw:
            step = mag * mult
            break
    out = []
    t = math.ceil(lo / step) * step
    for _ in range(11):     # at most 9 ticks in range, plus a rounding neighbour each side
        v = 0.0 if abs(t) < step * 1e-6 else t
        if lo <= v <= hi:
            out.append(v)
        t += step
    return out


def _widening(lo: float, hi: float) -> float:
    """How far render_panel widens [lo, hi]: not at all while it spans 2^-40 of
    its larger endpoint magnitude v (at least 2^-1000, so subnormal widths count
    too); else by 1, or by v / 2^40 once larger, so that every tick step spans
    many ulps of v (v + 1 rounds back to v from 2^53 on)."""
    v = max(abs(lo), abs(hi), 2.0 ** -1000)
    return 0.0 if hi - lo >= v * 2.0 ** -40 else max(1.0, v * 2.0 ** -40)


def _tick_label(v: float) -> str:
    if v == int(v):
        return str(int(v))
    return f"{v:g}"


def render_panel(title: str, xlabel: str, ylabel: str, series) -> str:
    """series: list of {label, x, y, band?: (lo, hi)}, each a list or a float
    array; coordinates are taken as-is (callers do their own log10). Returns
    the SVG text."""
    if len(series) == 0:
        raise ValueError("no series to plot")
    for s in series:
        if len(s["x"]) != len(s["y"]) or len(s["x"]) == 0:
            raise ValueError(f"series {s.get('label')!r}: x/y length mismatch or empty")
    xs = [np.asarray(s["x"], dtype=float) for s in series]
    ys = [np.asarray(s["y"], dtype=float) for s in series]
    bands = [None if s.get("band") is None else np.asarray(s["band"], dtype=float)
             for s in series]
    for s, x, band in zip(series, xs, bands):
        if band is not None and band.shape != (2, x.size):
            raise ValueError(f"series {s.get('label')!r}: band is not two rows of len(x) values")
    every_x = np.concatenate(xs)
    every_y = np.concatenate(ys + [b.ravel() for b in bands if b is not None])
    x0, x1 = float(every_x.min()), float(every_x.max())
    y0, y1 = float(every_y.min()), float(every_y.max())
    w = _widening(x0, x1)   # above on x, or below where x1 + w overflows; both sides on y
    x0, x1 = (x0, x1 + w) if math.isfinite(x1 + w) else (x0 - w, x1)
    w = _widening(y0, y1)
    y0, y1 = y0 - w, y1 + w
    pad = 0.04 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    # with both widths finite, every pixel computed below is finite: no RuntimeWarning
    for axis, data, width in (("x", every_x, x1 - x0), ("y", every_y, y1 - y0)):
        if not math.isfinite(width):
            raise ValueError(f"{axis} range [{float(data.min())!r}, {float(data.max())!r}] "
                             "has no finite width to draw")

    pw, ph = WIDTH - ML - MR, HEIGHT - MT - MB

    def px(x):
        return ML + (x - x0) / (x1 - x0) * pw

    def py(y):
        return MT + (y1 - y) / (y1 - y0) * ph

    def points(x, y):
        return " ".join(map("{:.2f},{:.2f}".format, px(x).tolist(), py(y).tolist()))

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(WIDTH)}" '
               f'height="{int(HEIGHT)}" viewBox="0 0 {int(WIDTH)} {int(HEIGHT)}">')
    out.append(f'<rect x="0" y="0" width="{int(WIDTH)}" height="{int(HEIGHT)}" fill="#ffffff"/>')
    out.append(f'<text x="{_f(WIDTH / 2)}" y="20" font-family="monospace" font-size="14" '
               f'text-anchor="middle">{_esc(title)}</text>')

    # frame + ticks
    out.append(f'<rect x="{_f(ML)}" y="{_f(MT)}" width="{_f(pw)}" height="{_f(ph)}" '
               'fill="none" stroke="#000000" stroke-width="1"/>')
    for t in _ticks(x0, x1):
        xp = px(t)
        out.append(f'<line x1="{_f(xp)}" y1="{_f(MT + ph)}" x2="{_f(xp)}" '
                   f'y2="{_f(MT + ph + 4)}" stroke="#000000" stroke-width="1"/>')
        out.append(f'<text x="{_f(xp)}" y="{_f(MT + ph + 16)}" font-family="monospace" '
                   f'font-size="10" text-anchor="middle">{_tick_label(t)}</text>')
    for t in _ticks(y0, y1):
        yp = py(t)
        out.append(f'<line x1="{_f(ML - 4)}" y1="{_f(yp)}" x2="{_f(ML)}" '
                   f'y2="{_f(yp)}" stroke="#000000" stroke-width="1"/>')
        out.append(f'<text x="{_f(ML - 7)}" y="{_f(yp + 3)}" font-family="monospace" '
                   f'font-size="10" text-anchor="end">{_tick_label(t)}</text>')
    out.append(f'<text x="{_f(ML + pw / 2)}" y="{_f(HEIGHT - 12)}" font-family="monospace" '
               f'font-size="12" text-anchor="middle">{_esc(xlabel)}</text>')
    out.append(f'<text x="16" y="{_f(MT + ph / 2)}" font-family="monospace" font-size="12" '
               f'text-anchor="middle" transform="rotate(-90 16 {_f(MT + ph / 2)})">'
               f'{_esc(ylabel)}</text>')

    # bands first so every polyline draws on top
    for i, (x, band) in enumerate(zip(xs, bands)):
        if band is not None:
            lo, hi = band
            out.append(f'<polygon points="{points(x, hi)} {points(x[::-1], lo[::-1])}" '
                       f'fill="{PALETTE[i % len(PALETTE)]}" fill-opacity="0.15" stroke="none"/>')
    for i, (x, y) in enumerate(zip(xs, ys)):
        out.append(f'<polyline points="{points(x, y)}" fill="none" '
                   f'stroke="{PALETTE[i % len(PALETTE)]}" stroke-width="1.5"/>')

    # legend, top-right inside the frame
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        yp = MT + 14 + 13 * i
        xr = ML + pw - 10
        out.append(f'<line x1="{_f(xr - 18)}" y1="{_f(yp - 3)}" x2="{_f(xr - 4)}" '
                   f'y2="{_f(yp - 3)}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_f(xr - 22)}" y="{_f(yp)}" font-family="monospace" '
                   f'font-size="10" text-anchor="end">{_esc(str(s["label"]))}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
