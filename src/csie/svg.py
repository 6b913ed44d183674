"""Static SVG charts with no plotting dependency.

Three shapes cover the reporting surface: a dated line chart with optional
moving-average overlay and bubble sizing, stacked small multiples for
several volatility series, and a dendrogram.  Output is plain XML text.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .analytics import DatedSeries
    from .clustering import Dendrogram, Label

_FONT = 'font-family="sans-serif" font-size="11"'


def _escape(s: str) -> str:
    """Text content with ``&``, ``<`` and ``>`` as XML entities, and each
    character XML 1.0 forbids (a C0 control other than tab, line feed and
    carriage return, a lone surrogate, U+FFFE or U+FFFF) as U+FFFD.

    The same as ``xml.sax.saxutils.escape`` without extra entities, whose
    import pulls in ``urllib.request``.
    """
    if not s.isprintable():  # Python prints no character that XML forbids
        s = "".join(c if c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd"
                    or c >= "\U00010000" else "\ufffd" for c in s)
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Canvas:
    def __init__(self, width: int, height: int) -> None:
        self.width = width
        self.height = height
        self.parts: list[str] = []

    def line(self, x1: float, y1: float, x2: float, y2: float, color: str = "#888",
             width: float = 1.0) -> None:
        self.parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{color}" stroke-width="{width}" />'
        )

    def polyline(self, points: list[tuple[float, float]], color: str,
                 width: float = 1.2) -> None:
        if not points:
            return
        if len(points) == 1:
            x, y = points[0]
            self.circle(x, y, 2.0, color)
            return
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        self.parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="{width}" '
            f'points="{coords}" />'
        )

    def circle(self, cx: float, cy: float, r: float, color: str,
               opacity: float = 1.0) -> None:
        self.parts.append(
            f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.2f}" fill="{color}" '
            f'fill-opacity="{opacity:.2f}" />'
        )

    def text(self, x: float, y: float, s: str, anchor: str = "start",
             color: str = "#222") -> None:
        self.parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" text-anchor="{anchor}" '
            f'fill="{color}" {_FONT}>{_escape(s)}</text>'
        )

    def to_xml(self) -> str:
        body = "\n".join(self.parts)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="{self.width}" height="{self.height}" fill="white" />\n'
            f"{body}\n</svg>\n"
        )


class _Frame:
    """Maps data coordinates into a pixel rectangle (y grows upward)."""

    def __init__(self, x0: float, y0: float, x1: float, y1: float,
                 dx0: float, dx1: float, dy0: float, dy1: float) -> None:
        if dx1 <= dx0:
            dx1 = dx0 + 1.0
        if dy1 <= dy0:
            pad = abs(dy0) if dy0 != 0.0 else 1.0
            dy0, dy1 = dy0 - pad, dy0 + pad
        self.x0, self.y0, self.x1, self.y1 = x0, y0, x1, y1
        self.dx0, self.dx1, self.dy0, self.dy1 = dx0, dx1, dy0, dy1

    def x(self, v: float) -> float:
        return self.x0 + (v - self.dx0) / (self.dx1 - self.dx0) * (self.x1 - self.x0)

    def y(self, v: float) -> float:
        return self.y1 - (v - self.dy0) / (self.dy1 - self.dy0) * (self.y1 - self.y0)


def _date_ticks(f: _Frame, dates: np.ndarray) -> list[tuple[float, str]]:
    """Pixel x and label of up to six evenly spaced dates, ends included."""
    xs = dates.astype(float)
    n_ticks = min(6, len(dates))
    picks = (round(i * (len(dates) - 1) / max(n_ticks - 1, 1)) for i in range(n_ticks))
    return [(f.x(float(xs[j])), str(dates[j])) for j in picks]


def _axes(c: _Canvas, f: _Frame, dates: np.ndarray) -> None:
    c.line(f.x0, f.y1, f.x1, f.y1)
    c.line(f.x0, f.y0, f.x0, f.y1)
    for x, label in _date_ticks(f, dates):
        c.line(x, f.y1, x, f.y1 + 4)
        c.text(x, f.y1 + 16, label, anchor="middle", color="#555")
    for i in range(5):
        v = f.dy0 + i * (f.dy1 - f.dy0) / 4
        y = f.y(v)
        c.line(f.x0 - 4, y, f.x0, y)
        c.text(f.x0 - 7, y + 4, f"{v:.6g}", anchor="end", color="#555")


def line_chart(
    series: DatedSeries,
    *,
    title: str = "",
    ma: DatedSeries | None = None,
    ma_label: str = "",
    bubble_sizes: np.ndarray | None = None,
    bubble_label: str = "",
) -> str:
    """A dated line chart; bubbles (sized by ``bubble_sizes``, aligned with
    the main series) sit on the line, and ``ma`` draws a second series."""
    width, height = 960, 380
    c = _Canvas(width, height)
    drawn = [series.values] + ([ma.values] if ma is not None and len(ma) else [])
    lo = min(float(v.min()) for v in drawn)
    hi = max(float(v.max()) for v in drawn)
    span = hi - lo
    pad = span * 0.05 if span > 0 else 1.0
    xs = series.dates.astype(float)
    f = _Frame(70, 40, width - 20, height - 40, float(xs[0]), float(xs[-1]), lo - pad, hi + pad)
    _axes(c, f, series.dates)
    if title:
        c.text(width / 2, 22, title, anchor="middle")
    if bubble_sizes is not None:
        sizes = np.asarray(bubble_sizes, dtype=float)
        top = float(sizes.max()) if len(sizes) and sizes.max() > 0 else 1.0
        for xv, yv, s in zip(xs, series.values, sizes):
            c.circle(f.x(float(xv)), f.y(float(yv)), 1.0 + 9.0 * float(s) / top,
                     "#4878b0", opacity=0.25)
        if bubble_label:
            c.text(width - 20, 22, f"bubble: {bubble_label}", anchor="end", color="#4878b0")
    c.polyline([(f.x(float(xv)), f.y(float(yv))) for xv, yv in zip(xs, series.values)],
               "#1f3d7a")
    if ma is not None and len(ma):
        mxs = ma.dates.astype(float)
        c.polyline([(f.x(float(xv)), f.y(float(yv))) for xv, yv in zip(mxs, ma.values)],
                   "#d77f2a")
        if ma_label:
            c.text(width - 20, 36, ma_label, anchor="end", color="#d77f2a")
    return c.to_xml()


def small_multiples(panels: list[tuple[str, DatedSeries]], *, title: str = "") -> str:
    """Vertically stacked line panels sharing the x axis, one per series.

    A value that is not finite is a gap in its panel's line, and the
    panel's value labels span its finite values; a panel with none has no
    line and no value labels."""
    if not panels:
        raise ValueError("no panels")
    width, panel_height = 960, 110
    height = 40 + panel_height * len(panels) + 30
    c = _Canvas(width, height)
    if title:
        c.text(width / 2, 22, title, anchor="middle")
    x_lo = min(float(s.dates[0].astype(float)) for _, s in panels)
    x_hi = max(float(s.dates[-1].astype(float)) for _, s in panels)
    for i, (label, s) in enumerate(panels):
        top = 40 + i * panel_height
        finite = s.values[np.isfinite(s.values)]
        lo, hi = (float(finite.min()), float(finite.max())) if len(finite) else (0.0, 0.0)
        pad = (hi - lo) * 0.08 if hi > lo else 1.0
        f = _Frame(70, top + 8, width - 20, top + panel_height - 8,
                   x_lo, x_hi, lo - pad, hi + pad)
        c.line(f.x0, f.y1, f.x1, f.y1)
        xs = s.dates.astype(float)
        for drawn, run in itertools.groupby(zip(xs, s.values), lambda p: math.isfinite(p[1])):
            if drawn:
                c.polyline([(f.x(float(xv)), f.y(float(yv))) for xv, yv in run],
                           "#1f3d7a", width=1.0)
        c.text(f.x0 + 4, top + 18, label)
        if len(finite):
            c.text(f.x0 - 7, f.y(lo) + 4, f"{lo:.4g}", anchor="end", color="#555")
            c.text(f.x0 - 7, f.y(hi) + 4, f"{hi:.4g}", anchor="end", color="#555")
    bottom = 40 + len(panels) * panel_height
    for x, label in _date_ticks(f, panels[-1][1].dates):  # the last panel's frame
        c.text(x, bottom + 16, label, anchor="middle", color="#555")
    return c.to_xml()


def dendrogram_svg(dendro: Dendrogram) -> str:
    """Classic bottom-up dendrogram of the four price columns: the leaves in
    the order one walk over the merge steps gives the root (left child first),
    and each node at the mean position of the leaves in its label."""
    width, height = 520, 360
    leaves: dict[Label, list[str]] = {}
    for s in dendro.steps:
        leaves[s.node] = leaves.get(s.left, [*s.left]) + leaves.get(s.right, [*s.right])
    order = leaves[dendro.steps[-1].node]
    c = _Canvas(width, height)
    c.text(width / 2, 22, f"OHLC clustering {dendro.day.isoformat()}", anchor="middle")
    max_h = max(s.height for s in dendro.steps)
    f = _Frame(60, 40, width - 20, height - 50, -0.5, len(order) - 0.5, 0.0, max_h * 1.05 if max_h > 0 else 1.0)

    for i in range(5):
        v = i * f.dy1 / 4
        c.text(f.x0 - 7, f.y(v) + 4, f"{v:.4g}", anchor="end", color="#555")
        c.line(f.x0 - 4, f.y(v), f.x0, f.y(v))
    c.line(f.x0, f.y0, f.x0, f.y1)
    for leaf in order:
        c.text(f.x(order.index(leaf)), height - 30, leaf, anchor="middle")

    place: dict[Label, tuple[float, float]] = {(leaf,): (i, 0.0) for i, leaf in enumerate(order)}
    for s in dendro.steps:
        (xl, hl), (xr, hr), y = place[s.left], place[s.right], f.y(s.height)
        c.line(f.x(xl), f.y(hl), f.x(xl), y, color="#1f3d7a", width=1.4)
        c.line(f.x(xr), f.y(hr), f.x(xr), y, color="#1f3d7a", width=1.4)
        c.line(f.x(xl), y, f.x(xr), y, color="#1f3d7a", width=1.4)
        place[s.node] = (sum(order.index(leaf) for leaf in s.node) / len(s.node), s.height)
    return c.to_xml()
