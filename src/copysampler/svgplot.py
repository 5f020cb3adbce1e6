"""Deterministic SVG scatter plots of 2-D synthetic datasets.

No plotting framework: the file is assembled from string templates so the
same dataset always produces byte-identical output.
"""

from __future__ import annotations

from pathlib import Path

from .core import CopySamplerError, SyntheticDataset
from .oracles import AnalyticOracle, Oracle

PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]

_SIZE = 640
_MARGIN = 48
_SPAN = _SIZE - 2 * _MARGIN


class PlotUnsupportedError(CopySamplerError):
    """Scatter plots are only defined for 2-D datasets."""


def _px(value: float) -> float:
    return _MARGIN + value * _SPAN


def _py(value: float) -> float:
    return _SIZE - _MARGIN - value * _SPAN


def plot_2d(ds: SyntheticDataset, oracle: Oracle | None, path) -> Path:
    """Scatter `ds` colored by label, over the true boundary if `oracle` is analytic."""
    if ds.d != 2:
        raise PlotUnsupportedError(f"plot_2d needs d == 2, got d = {ds.d}")
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect x="0" y="0" width="{_SIZE}" height="{_SIZE}" fill="#ffffff"/>',
        '<defs><clipPath id="data-region">'
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_SPAN}" height="{_SPAN}"/>'
        "</clipPath></defs>",
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_SPAN}" height="{_SPAN}" '
        'fill="none" stroke="#222222" stroke-width="1"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = _px(tick)
        y = _py(tick)
        lines.append(
            f'<line x1="{x:.2f}" y1="{_SIZE - _MARGIN}" x2="{x:.2f}" '
            f'y2="{_SIZE - _MARGIN + 6}" stroke="#222222" stroke-width="1"/>'
        )
        lines.append(
            f'<line x1="{_MARGIN - 6}" y1="{y:.2f}" x2="{_MARGIN}" y2="{y:.2f}" '
            'stroke="#222222" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{x:.2f}" y="{_SIZE - _MARGIN + 20}" font-size="12" '
            f'font-family="monospace" text-anchor="middle">{tick:g}</text>'
        )
        lines.append(
            f'<text x="{_MARGIN - 10}" y="{y + 4:.2f}" font-size="12" '
            f'font-family="monospace" text-anchor="end">{tick:g}</text>'
        )
    lines.append('<g clip-path="url(#data-region)">')
    if isinstance(oracle, AnalyticOracle):
        for curve in oracle.boundary_curves(512):
            points = " ".join(f"{_px(x):.3f},{_py(y):.3f}" for x, y in curve)
            lines.append(
                f'<polyline points="{points}" fill="none" stroke="#333333" '
                'stroke-width="1.5"/>'
            )
    for point, label in zip(ds.X, ds.y):
        color = PALETTE[int(label) % len(PALETTE)]
        lines.append(
            f'<circle cx="{_px(point[0]):.3f}" cy="{_py(point[1]):.3f}" r="3" '
            f'fill="{color}" fill-opacity="0.8"/>'
        )
    lines.append("</g>")
    lines.append(
        f'<text x="{_SIZE / 2:.0f}" y="{_MARGIN - 16}" font-size="13" '
        f'font-family="monospace" text-anchor="middle">'
        f"{ds.generator_id} n={len(ds)} seed={ds.seed}</text>"
    )
    lines.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path
