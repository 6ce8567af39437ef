"""Dependency-free SVG rendering of overlap curves with CI bands."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)

WIDTH, HEIGHT = 840, 560
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 64, 16, 40, 48


def _escape(text: str) -> str:
    """`text` with &, < and > as XML entities, as xml.sax.saxutils.escape
    does; that module imports urllib.request, http.client and email."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@dataclass(frozen=True)
class CurveSeries:
    label: str
    n: np.ndarray
    mean: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray


class _Axes:
    """Maps data coordinates into one rectangular SVG viewport."""

    def __init__(self, x0, y0, width, height, xlim, ylim):
        self.x0, self.y0, self.width, self.height = x0, y0, width, height
        self.xlim, self.ylim = xlim, ylim

    def x(self, v: float) -> float:
        lo, hi = self.xlim
        return self.x0 + (v - lo) / (hi - lo) * self.width

    def y(self, v: float) -> float:
        lo, hi = self.ylim
        return self.y0 + self.height - (v - lo) / (hi - lo) * self.height

    def points(self, xs, ys) -> str:
        return " ".join(f"{self.x(x):.2f},{self.y(y):.2f}" for x, y in zip(xs, ys))


def _clip(series: CurveSeries, x_max: float) -> CurveSeries:
    keep = series.n <= x_max + 1e-12
    return CurveSeries(
        series.label, series.n[keep], series.mean[keep],
        series.ci_low[keep], series.ci_high[keep],
    )


def _draw_series(parts: list[str], axes: _Axes, series: CurveSeries, color: str, width: float) -> None:
    if len(series.n) == 0:
        return
    band_x = np.concatenate([series.n, series.n[::-1]])
    band_y = np.concatenate([series.ci_high, series.ci_low[::-1]])
    parts.append(
        f'<polygon class="ci-band" points="{axes.points(band_x, band_y)}" '
        f'fill="{color}" fill-opacity="0.15" stroke="none"/>'
    )
    parts.append(
        f'<polyline points="{axes.points(series.n, series.mean)}" '
        f'fill="none" stroke="{color}" stroke-width="{width}"/>'
    )


def _draw_frame(parts: list[str], axes: _Axes, xticks, yticks, tick_font: int) -> None:
    parts.append(
        f'<rect x="{axes.x0}" y="{axes.y0}" width="{axes.width}" height="{axes.height}" '
        f'fill="white" stroke="#333" stroke-width="1"/>'
    )
    for t in xticks:
        x = axes.x(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{axes.y0 + axes.height}" x2="{x:.2f}" '
            f'y2="{axes.y0 + axes.height + 4}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{axes.y0 + axes.height + 4 + tick_font}" '
            f'text-anchor="middle" font-size="{tick_font}">{t:g}</text>'
        )
    for t in yticks:
        y = axes.y(t)
        parts.append(
            f'<line x1="{axes.x0 - 4}" y1="{y:.2f}" x2="{axes.x0}" y2="{y:.2f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{axes.x0 - 6}" y="{y + tick_font / 3:.2f}" '
            f'text-anchor="end" font-size="{tick_font}">{t:g}</text>'
        )


def render_overlap_svg(
    series: Sequence[CurveSeries],
    path: str | Path,
    title: str = "",
    inset_max: float = 0.2,
) -> None:
    """Overlap-vs-N plot: full range plus a zoomed inset for small N.

    One line and shaded confidence band per series; the inset repeats the
    region N <= inset_max where curves actually separate.
    """
    if not series:
        raise ValueError("nothing to plot")
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    main = _Axes(MARGIN_LEFT, MARGIN_TOP, plot_w, plot_h, (0.0, 1.0), (0.0, 1.0))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2}" y="{MARGIN_TOP - 14}" text-anchor="middle" '
            f'font-size="16">{_escape(title)}</text>'
        )
    _draw_frame(parts, main, xticks=[0, 0.2, 0.4, 0.6, 0.8, 1.0],
                yticks=[0, 0.2, 0.4, 0.6, 0.8, 1.0], tick_font=12)
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-size="13">N (fraction of vocabulary intersection)</text>'
    )
    parts.append(
        f'<text x="16" y="{MARGIN_TOP + plot_h / 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {MARGIN_TOP + plot_h / 2})">mean neighbor overlap</text>'
    )

    for i, s in enumerate(series):
        _draw_series(parts, main, s, PALETTE[i % len(PALETTE)], 1.8)

    # legend, lower-right corner of the main axes
    legend_x = MARGIN_LEFT + plot_w - 230
    legend_y = MARGIN_TOP + plot_h - 18 * len(series) - 12
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        y = legend_y + 18 * i
        parts.append(f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 26}" y2="{y}" '
                     f'stroke="{color}" stroke-width="2.5"/>')
        parts.append(f'<text x="{legend_x + 32}" y="{y + 4}" font-size="12">{_escape(s.label)}</text>')

    # zoomed inset for the small-N region
    inset = _Axes(
        MARGIN_LEFT + int(plot_w * 0.08),
        MARGIN_TOP + int(plot_h * 0.06),
        int(plot_w * 0.40),
        int(plot_h * 0.38),
        (0.0, inset_max),
        (0.0, 1.0),
    )
    parts.append('<g id="inset">')
    _draw_frame(parts, inset, xticks=[0, inset_max / 2, inset_max], yticks=[0, 0.5, 1.0], tick_font=10)
    for i, s in enumerate(series):
        _draw_series(parts, inset, _clip(s, inset_max), PALETTE[i % len(PALETTE)], 1.4)
    parts.append(
        f'<text x="{inset.x0 + inset.width / 2}" y="{inset.y0 - 5}" text-anchor="middle" '
        f'font-size="11">N &#8804; {inset_max:g}</text>'
    )
    parts.append("</g>")

    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
