"""Standalone SVG cone diagram for gap and demo reports.

Draws the Kähler cone on the left and the balanced cone on the right, with
the image of the balanced map shaded inside the latter.  Ray angles come
from the exact integer ray data in the report; floats appear only in the
fixed 6-decimal coordinate formatting, so identical reports give identical
bytes.
"""

from __future__ import annotations

from math import atan2, cos, pi, sin

from .cones import Cone2D, Ray
from .errors import ValidationError
from .report import format_class_label

_WIDTH = 800
_HEIGHT = 420
_RADIUS = 150.0
_LEFT = (170.0, 290.0)
_RIGHT = (590.0, 290.0)
_LABEL_DIST = 1.22
# html.escape(text, quote=False) without importing html and its entity table.
_ESCAPE = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _fmt(value: float) -> str:
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


def _angle(ray) -> float:
    # Shift huge integer coordinates down together, so that float() cannot overflow.
    shift = max(0, abs(ray[0]).bit_length() - 1000, abs(ray[1]).bit_length() - 1000)
    return atan2(float(ray[1] >> shift), float(ray[0] >> shift))


def _angles(rays):
    t1, t2 = map(_angle, rays)
    if t2 <= t1:
        t2 += 2 * pi
    return t1, t2


def _wedge_path(t1: float, t2: float, radius: float) -> str:
    steps = max(2, int((t2 - t1) / (pi / 24)) + 1)
    points = []
    for i in range(steps + 1):
        t = t1 + (t2 - t1) * i / steps
        points.append(f"{_fmt(radius * cos(t))} {_fmt(-radius * sin(t))}")
    return "M 0 0 L " + " L ".join(points) + " Z"


def _ray_line(theta: float, radius: float) -> str:
    return (
        f'<line class="ray" x1="0" y1="0" '
        f'x2="{_fmt(radius * cos(theta))}" y2="{_fmt(-radius * sin(theta))}" '
        'stroke="#333333" stroke-width="1.5"/>'
    )


def _ray_label(theta: float, text: str, dist: float = _LABEL_DIST) -> str:
    x = _RADIUS * dist * cos(theta)
    y = -_RADIUS * dist * sin(theta)
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y + 5.0)}" font-size="16" '
        f'font-family="sans-serif" text-anchor="middle">{text.translate(_ESCAPE)}</text>'
    )


def _caption(x: float, y: float, text: str) -> str:
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="17" '
        f'font-family="sans-serif" text-anchor="middle">{text.translate(_ESCAPE)}</text>'
    )


def _cone(pairs) -> Cone2D:
    return Cone2D(*(Ray(*p) for p in pairs))


def render_cone_diagram(report) -> str:
    """SVG text for a report carrying scenario, image and balanced cone data."""
    try:
        scenario = report["scenario"]
        kahler = _cone(scenario["kahler_cone"])
        h11_names, codim_names = (tuple(scenario[k]) for k in ("h11_basis", "codim_basis"))
        image = _cone(report["image_closure"]["rays"])
        balanced = _cone(report["balanced_cone"]["rays"])
    except (KeyError, TypeError) as e:
        raise ValidationError(
            "report lacks cone data (need scenario, image_closure and "
            "balanced_cone sections, each cone as two rays)"
        ) from e
    if any(len(ns) != 2 or not all(isinstance(n, str) for n in ns)
           for ns in (h11_names, codim_names)):
        raise ValidationError("report needs two string names in h11_basis and in codim_basis")

    (kt1, kt2), (it1, it2), (bt1, bt2) = map(_angles, (kahler, image, balanced))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        "<title>cone diagram</title>",
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]

    parts.append(f'<g transform="translate({_fmt(_LEFT[0])} {_fmt(_LEFT[1])})">')
    parts.append(
        f'<path class="wedge" d="{_wedge_path(kt1, kt2, _RADIUS)}" '
        'fill="#c9d7ee" stroke="none"/>'
    )
    parts.append(_ray_line(kt1, _RADIUS))
    parts.append(_ray_line(kt2, _RADIUS))
    parts.append(_ray_label(kt1, format_class_label(kahler[0], h11_names)))
    parts.append(_ray_label(kt2, format_class_label(kahler[1], h11_names)))
    parts.append(_caption(60.0, 105.0, "Kähler cone"))
    parts.append("</g>")

    arrow_y = _LEFT[1] - 0.45 * _RADIUS
    x1 = _LEFT[0] + _RADIUS + 30.0
    x2 = _RIGHT[0] - _RADIUS - 40.0
    parts.append(
        f'<line x1="{_fmt(x1)}" y1="{_fmt(arrow_y)}" x2="{_fmt(x2)}" '
        f'y2="{_fmt(arrow_y)}" stroke="#555555" stroke-width="1.5"/>'
    )
    parts.append(
        f'<path d="M {_fmt(x2)} {_fmt(arrow_y - 5.0)} L {_fmt(x2 + 10.0)} '
        f'{_fmt(arrow_y)} L {_fmt(x2)} {_fmt(arrow_y + 5.0)} Z" fill="#555555"/>'
    )
    parts.append(
        f'<text x="{_fmt((x1 + x2) / 2)}" y="{_fmt(arrow_y - 10.0)}" '
        'font-size="16" font-family="sans-serif" font-style="italic" '
        'text-anchor="middle">b</text>'
    )

    parts.append(f'<g transform="translate({_fmt(_RIGHT[0])} {_fmt(_RIGHT[1])})">')
    parts.append(
        f'<path class="wedge" d="{_wedge_path(bt1, bt2, _RADIUS)}" '
        'fill="#d9ecd4" stroke="none"/>'
    )
    parts.append(
        f'<path class="wedge" d="{_wedge_path(it1, it2, 0.82 * _RADIUS)}" '
        'fill="#8fb7e3" stroke="none"/>'
    )
    parts.append(_ray_line(bt1, _RADIUS))
    parts.append(_ray_line(bt2, _RADIUS))
    parts.append(_ray_line(it1, 0.82 * _RADIUS))
    parts.append(_ray_line(it2, 0.82 * _RADIUS))
    parts.append(_ray_label(bt1, format_class_label(balanced[0], codim_names)))
    parts.append(_ray_label(bt2, format_class_label(balanced[1], codim_names)))
    for theta, ray in ((it1, image[0]), (it2, image[1])):
        if ray not in balanced:
            parts.append(
                _ray_label(theta, format_class_label(ray, codim_names), dist=0.58)
            )
    parts.append(_caption(80.0, 105.0, "balanced cone"))
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
