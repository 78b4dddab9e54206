"""Minimal SVG emission for the rate-distortion figure.

One point-cloud group, one envelope polyline, labelled axes; everything is
deterministic so figures can be diffed and structurally asserted.
"""

from __future__ import annotations

import math

_WIDTH, _HEIGHT = 640, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 16, 48


def _fmt(v: float) -> str:
    return format(v, ".6g")


def write_rd_svg(path, cloud, envelope) -> None:
    """Write a scatter cloud plus envelope curve to ``path`` as an SVG document.

    ``cloud`` and ``envelope`` are sequences of finite (distortion, rate)
    pairs; the envelope is drawn as a single polyline in grid order.
    """
    xs = [p[0] for p in cloud] + [p[0] for p in envelope]
    ys = [p[1] for p in cloud] + [p[1] for p in envelope]
    x_max = max((x for x in xs if math.isfinite(x)), default=1.0) or 1.0
    y_max = max((y for y in ys if math.isfinite(y)), default=1.0) or 1.0

    span_x = _WIDTH - _MARGIN_L - _MARGIN_R
    span_y = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(x: float) -> float:
        return _MARGIN_L + span_x * x / x_max

    def sy(y: float) -> float:
        return _HEIGHT - _MARGIN_B - span_y * y / y_max

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<line x1="{_MARGIN_L}" y1="{_HEIGHT - _MARGIN_B}" x2="{_WIDTH - _MARGIN_R}" '
        f'y2="{_HEIGHT - _MARGIN_B}" stroke="black"/>',
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" '
        f'y2="{_HEIGHT - _MARGIN_B}" stroke="black"/>',
        f'<text x="{_MARGIN_L + span_x / 2:.0f}" y="{_HEIGHT - 12}" '
        'text-anchor="middle" font-family="sans-serif" font-size="14">D</text>',
        f'<text x="16" y="{_MARGIN_T + span_y / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 16 {_MARGIN_T + span_y / 2:.0f})">R (bits)</text>',
        f'<text x="{_MARGIN_L}" y="{_HEIGHT - _MARGIN_B + 18}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">0</text>',
        f'<text x="{_WIDTH - _MARGIN_R}" y="{_HEIGHT - _MARGIN_B + 18}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="11">{_fmt(x_max)}</text>',
        f'<text x="{_MARGIN_L - 6}" y="{_MARGIN_T + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="11">{_fmt(y_max)}</text>',
        '<g class="points" fill="#4682b4" fill-opacity="0.35" stroke="none">',
    ]
    for x, y in cloud:
        if math.isfinite(x) and math.isfinite(y):
            lines.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="1.4"/>')
    lines.append("</g>")
    pts = " ".join(
        f"{sx(x):.2f},{sy(y):.2f}" for x, y in envelope if math.isfinite(x) and math.isfinite(y)
    )
    lines.append(
        f'<polyline class="envelope" points="{pts}" fill="none" stroke="#c23b22" stroke-width="2"/>'
    )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
