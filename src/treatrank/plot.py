"""Static SVG rendering of a fitted ability ranking."""

from __future__ import annotations

import math

from .davidson import AbilityFit, normalized_abilities

__all__ = ["build_ability_svg", "emit_plot"]

_WIDTH = 640
_LABEL_GUTTER = 150
_RIGHT_MARGIN = 24
_TOP_MARGIN = 40
_BOTTOM_MARGIN = 46
_ROW_HEIGHT = 24

_TEXT = "#222222"
_GRID = "#d8d8d8"
_MARK = "#1f4e8c"


def _nice_step(span: float) -> float:
    raw = span / 5.0
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mult * magnitude >= raw:
            return mult * magnitude
    return 10.0 * magnitude


def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG text, ``&`` first."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def build_ability_svg(fit: AbilityFit, ci_level: float = 0.95) -> str:
    """Dot-and-interval chart: one row per treatment, sorted by ability."""
    abilities = normalized_abilities(fit, ci_level=ci_level)
    rows = sorted(fit.treatments, key=lambda x: (-fit.psi[x], x))
    height = _TOP_MARGIN + _ROW_HEIGHT * len(rows) + _BOTTOM_MARGIN
    x_max = max(abilities[x].ci_upper for x in rows) * 1.05
    step = _nice_step(x_max)
    ticks = [k * step for k in range(int(math.floor(x_max / step)) + 1)]
    plot_width = _WIDTH - _LABEL_GUTTER - _RIGHT_MARGIN

    def to_x(value: float) -> float:
        return _LABEL_GUTTER + plot_width * value / x_max

    axis_y = _TOP_MARGIN + _ROW_HEIGHT * len(rows) + 8
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}">',
        f'<rect width="{_WIDTH}" height="{height}" fill="#ffffff"/>',
        f'<text x="{_LABEL_GUTTER}" y="22" font-family="sans-serif" font-size="13" '
        f'fill="{_TEXT}">Normalized abilities with {ci_level * 100:g}% intervals</text>',
    ]
    for tick in ticks:
        x = _fmt(to_x(tick))
        parts.append(
            f'<line x1="{x}" y1="{_TOP_MARGIN}" x2="{x}" y2="{axis_y}" '
            f'stroke="{_GRID}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x}" y="{axis_y + 16}" font-family="sans-serif" font-size="11" '
            f'fill="{_TEXT}" text-anchor="middle">{tick:.4g}</text>'
        )
    parts.append(
        f'<line x1="{_LABEL_GUTTER}" y1="{axis_y}" x2="{_WIDTH - _RIGHT_MARGIN}" '
        f'y2="{axis_y}" stroke="{_TEXT}" stroke-width="1"/>'
    )
    for row, label in enumerate(rows):
        a = abilities[label]
        y = _TOP_MARGIN + _ROW_HEIGHT * row + _ROW_HEIGHT // 2
        parts.append(
            f'<text x="{_LABEL_GUTTER - 10}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="12" fill="{_TEXT}" text-anchor="end">{_escape(label)}</text>'
        )
        parts.append(
            f'<line x1="{_fmt(to_x(a.ci_lower))}" y1="{y}" x2="{_fmt(to_x(a.ci_upper))}" '
            f'y2="{y}" stroke="{_MARK}" stroke-width="2"/>'
        )
        parts.append(
            f'<circle cx="{_fmt(to_x(a.estimate))}" cy="{y}" r="4" fill="{_MARK}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_plot(fit: AbilityFit, path, ci_level: float = 0.95) -> None:
    """Write the ability chart to ``path``; byte-identical for identical fits."""
    svg = build_ability_svg(fit, ci_level=ci_level)
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        stream.write(svg)
