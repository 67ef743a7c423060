"""Standalone SVG rendering of topic sentiment TFNs. No dependencies."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#17becf",
    "#e377c2",
]

WIDTH = 880
HEIGHT = 460
MARGIN_LEFT = 60
MARGIN_RIGHT = 240
MARGIN_TOP = 40
MARGIN_BOTTOM = 60
_AXIS_STYLE = 'stroke="#000000" stroke-width="1.5"'
_REFERENCE_STYLE = 'stroke="#999999" stroke-width="1" stroke-dasharray="4 3"'


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _line(x1: float, y1: float, x2: float, y2: float, style: str) -> str:
    return f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" {style}/>'


def _label(x: float, y: float, anchor: str, value: float) -> str:
    return (
        f'<text x="{x:.2f}" y="{y:.2f}" text-anchor="{anchor}" '
        f'font-size="11" font-family="sans-serif">{value:g}</text>'
    )


def emit_tfn_svg(
    reports: Sequence,
    path: str | Path,
    selection: Sequence[int] | None = None,
    ramp: float = 0.2,
) -> Path:
    """Write one SVG with a labeled membership triangle per selected topic.

    ``selection`` lists topic ids (default: every report), a repeated id
    drawn once. The x axis spans at least [-1, 1], widened to cover every
    drawn support; dashed vertical reference lines mark -ramp, 0 and +ramp.
    Returns the output path.
    """
    by_id = {r.topic_id: r for r in reports}
    for topic_id in selection or ():
        if topic_id not in by_id:
            raise ValueError(f"unknown topic id {topic_id}")
    selected = list(reports) if selection is None else [by_id[t] for t in dict.fromkeys(selection)]
    if not selected:
        raise ValueError("no topics selected for the SVG")

    x_lo = min(-1.0, min(r.tfn.a for r in selected))
    x_hi = max(1.0, max(r.tfn.b for r in selected))
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_TOP + (1.0 - y) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>',
    ]

    # Axes, with y labels.
    parts.append(_line(px(x_lo), py(0), px(x_hi), py(0), _AXIS_STYLE))
    parts.append(_line(px(x_lo), py(0), px(x_lo), py(1), _AXIS_STYLE))
    parts += [_label(px(x_lo) - 8, py(y) + 4, "end", y) for y in (0.5, 1.0)]

    # Reference lines at -ramp, 0, +ramp, then the x ticks (-1 and 1 are always on the axis).
    for x_ref in (-ramp, 0.0, ramp):
        parts.append(_line(px(x_ref), py(0), px(x_ref), py(1), _REFERENCE_STYLE))
        parts.append(_label(px(x_ref), py(0) + 16, "middle", x_ref))
    parts += [_label(px(x_tick), py(0) + 16, "middle", x_tick) for x_tick in (-1.0, 1.0)]

    # One triangle polyline per topic plus a legend entry.
    legend_x = WIDTH - MARGIN_RIGHT + 20
    for i, report in enumerate(selected):
        color = PALETTE[i % len(PALETTE)]
        t = report.tfn
        points = f"{px(t.a):.2f},{py(0):.2f} {px(t.m):.2f},{py(1):.2f} {px(t.b):.2f},{py(0):.2f}"
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>'
        )
        terms = ", ".join(term for term, _ in report.top_terms[:3]) or f"topic {report.topic_id}"
        ly = MARGIN_TOP + 14 + i * 20
        parts.append(
            f'<line x1="{legend_x}" y1="{ly - 4}" x2="{legend_x + 18}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="3"/>'
        )
        parts.append(
            f'<text x="{legend_x + 24}" y="{ly}" font-size="12" font-family="sans-serif">'
            f"{report.topic_id}: {_escape(terms)}</text>"
        )

    parts.append("</svg>")
    path = Path(path)
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return path
