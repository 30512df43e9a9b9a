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
from .errors import ValidationError, _entries
from .report import format_class_label

_WIDTH = 800
_HEIGHT = 420
_RADIUS = 150.0
_LEFT = (170.0, 290.0)
_RIGHT = (590.0, 290.0)
# html.escape(text, quote=False) without importing html and its entity table.
_ESCAPE = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_NO_CONES = ("report lacks cone data (need scenario, image_closure and balanced_cone sections, "
             "each cone as two rays)")


def _fmt(value: float) -> str:
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


def _angles(rays):
    # Shift huge integer coordinates down together, so that float() cannot overflow.
    t1, t2 = [atan2(float(y >> s), float(x >> s)) for x, y in rays
              for s in [max(0, abs(x).bit_length() - 1000, abs(y).bit_length() - 1000)]]
    return t1, t2 if t2 > t1 else t2 + 2 * pi


def _wedge_path(t1: float, t2: float, radius: float) -> str:
    steps = max(2, int((t2 - t1) / (pi / 24)) + 1)
    points = []
    for i in range(steps + 1):
        t = t1 + (t2 - t1) * i / steps
        points.append(f"{_fmt(radius * cos(t))} {_fmt(-radius * sin(t))}")
    return "M 0 0 L " + " L ".join(points) + " Z"


def _text(x: float, y: float, size: int, text: str, style: str = "") -> str:
    """A centred ``<text>`` element; ``style`` holds any further attributes."""
    return (
        f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" font-family="sans-serif"'
        f'{style} text-anchor="middle">{text.translate(_ESCAPE)}</text>'
    )


def _panel(origin, wedges, labels, caption) -> list:
    """A cone's group at ``origin``: each ``(t1, t2, radius, fill)`` wedge, then their ray
    lines, the ``(theta, text, dist)`` labels at dist radii and the ``(x, text)`` caption."""
    parts = [f'<g transform="translate({_fmt(origin[0])} {_fmt(origin[1])})">']
    for t1, t2, radius, fill in wedges:
        parts.append(
            f'<path class="wedge" d="{_wedge_path(t1, t2, radius)}" '
            f'fill="{fill}" stroke="none"/>'
        )
    for t1, t2, radius, _ in wedges:
        for theta in (t1, t2):
            parts.append(
                f'<line class="ray" x1="0" y1="0" '
                f'x2="{_fmt(radius * cos(theta))}" y2="{_fmt(-radius * sin(theta))}" '
                'stroke="#333333" stroke-width="1.5"/>'
            )
    for theta, text, dist in labels:
        x = _RADIUS * dist * cos(theta)
        y = -_RADIUS * dist * sin(theta)
        parts.append(_text(x, y + 5.0, 16, text))
    parts.append(_text(caption[0], 105.0, 17, caption[1]))
    parts.append("</g>")
    return parts


def _cone(pairs) -> Cone2D:
    return Cone2D(*[Ray(*_entries(p, _NO_CONES, 2)) for p in _entries(pairs, _NO_CONES, 2)])


def render_cone_diagram(report) -> str:
    """SVG text for a report carrying scenario, image and balanced cone data."""
    try:
        scenario = report["scenario"]
        kahler = _cone(scenario["kahler_cone"])
        names = [scenario[k] for k in ("h11_basis", "codim_basis")]
        image = _cone(report["image_closure"]["rays"])
        balanced = _cone(report["balanced_cone"]["rays"])
    except (KeyError, TypeError) as e:
        raise ValidationError(_NO_CONES) from e
    h11_names, codim_names = [_entries(ns, "report needs two string names in h11_basis and in "
                                       "codim_basis", 2, {str}) for ns in names]

    (kt1, kt2), (it1, it2), (bt1, bt2) = map(_angles, (kahler, image, balanced))
    kahler_labels = [(t, format_class_label(r, h11_names), 1.22)
                     for t, r in zip((kt1, kt2), kahler)]
    labels = [(t, format_class_label(r, codim_names), 1.22)
              for t, r in zip((bt1, bt2), balanced)]
    labels += [(t, format_class_label(r, codim_names), 0.58)
               for t, r in zip((it1, it2), image) if r not in balanced]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        "<title>cone diagram</title>",
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    parts += _panel(_LEFT, [(kt1, kt2, _RADIUS, "#c9d7ee")], kahler_labels, (60.0, "Kähler cone"))

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
    parts.append(_text((x1 + x2) / 2, arrow_y - 10.0, 16, "b", ' font-style="italic"'))

    wedges = [(bt1, bt2, _RADIUS, "#d9ecd4"), (it1, it2, 0.82 * _RADIUS, "#8fb7e3")]
    parts += _panel(_RIGHT, wedges, labels, (80.0, "balanced cone"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
