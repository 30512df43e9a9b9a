"""Report payloads for the command surface, in machine and human form.

The machine form is a JSON object with deterministic key order; rationals
are serialized as reduced ``"p/q"`` strings with positive denominator and
rays as integer pairs, so re-parsing loses nothing.  The human form is
aligned text derived from the same payload.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .cones import Cone2D, Ray, dual_cone
from .errors import ComputationError
from .pipeline import (
    GapReport,
    Scenario,
    balanced_cone,
    balanced_image_closure,
    divisor_bound_functional,
    integrate_forms,
)

_MINUS = "−"
_VULGAR = {
    Fraction(1, 2): "½",
    Fraction(1, 3): "⅓",
    Fraction(2, 3): "⅔",
    Fraction(1, 4): "¼",
    Fraction(3, 4): "¾",
    Fraction(1, 5): "⅕",
    Fraction(2, 5): "⅖",
    Fraction(3, 5): "⅗",
    Fraction(4, 5): "⅘",
    Fraction(1, 6): "⅙",
    Fraction(5, 6): "⅚",
    Fraction(1, 8): "⅛",
    Fraction(3, 8): "⅜",
    Fraction(5, 8): "⅝",
    Fraction(7, 8): "⅞",
}


def fmt_rational(value) -> str:
    """Reduced ``p/q`` string with positive denominator; plain ``p`` for integers."""
    try:
        return str(Fraction(value))
    except ValueError:  # more digits than int's string conversion allows
        raise ComputationError(
            f"result has more than {sys.get_int_max_str_digits()} digits, "
            "the limit for printing an integer"
        ) from None


def _coeff_text(c: Fraction) -> str:
    sign = "+" if c > 0 else _MINUS
    mag = abs(c)
    if mag == 1:
        return sign
    text = _VULGAR.get(mag)
    if text is None:
        text = fmt_rational(mag) + ("" if mag.denominator == 1 else "·")
    return sign + text


def format_class_label(ray: Ray, names) -> str:
    """Human label of a ray as a combination of the two basis names.

    Normalized monic in the second name when possible, so ``(-1, 4)`` over
    ``("α∧β", "β∧β")`` reads ``β∧β−¼α∧β``.
    """
    a, b = ray.coords
    n1, n2 = names
    if b == 0:
        return n1 if a > 0 else f"{_MINUS}{n1}"
    if a == 0:
        return n2 if b > 0 else f"{_MINUS}{n2}"
    if b > 0:
        return f"{n2}{_coeff_text(Fraction(a, b))}{n1}"
    if a > 0:
        return f"{n1}{_coeff_text(Fraction(b, a))}{n2}"
    return f"{_MINUS}({format_class_label(Ray(-a, -b), names)})"


def _ray_json(ray: Ray):
    return [ray.x, ray.y]


def _cone_json(cone: Cone2D):
    return [_ray_json(cone.r1), _ray_json(cone.r2)]


def _cone_section(cone: Cone2D, names) -> dict:
    return {
        "rays": _cone_json(cone),
        "labels": [format_class_label(r, names) for r in cone.generators()],
    }


def scenario_summary(sc: Scenario) -> dict:
    return {
        "ambient": list(sc.ci.space.dims),
        "divisors": [list(d) for d in sc.ci.divisors],
        "dim": sc.ci.dim,
        "h11_basis": list(sc.h11_names),
        "codim_basis": list(sc.codim_names),
        "kahler_cone": _cone_json(sc.kahler_cone),
        "effective_cone": _cone_json(sc.effective_cone),
        "prime_divisors": [
            {"name": n, "coords": list(c)} for n, c in sc.prime_divisors
        ],
    }


def _gap_sections(sc: Scenario, gr: GapReport) -> dict:
    gap = {
        "strict": gr.strict,
        "generators": [_ray_json(r) for r in gr.gap_generators],
        "witness": _ray_json(gr.witness) if gr.witness else None,
    }
    if gr.witness:
        gap["witness_in_balanced_open"] = gr.balanced_cone.contains(gr.witness, "open")
        gap["witness_in_image_closure"] = gr.image_closure.contains(gr.witness)
    return {
        "image_closure": _cone_section(gr.image_closure, sc.codim_names),
        "balanced_cone": _cone_section(gr.balanced_cone, sc.codim_names),
        "gap": gap,
    }


def intersect_payload(sc: Scenario, names, forms) -> dict:
    return {
        "command": "intersect",
        "scenario": scenario_summary(sc),
        "factors": list(names),
        "value": fmt_rational(integrate_forms(sc, forms)),
    }


def pairing_payload(sc: Scenario) -> dict:
    pm = sc.pairing_matrix
    return {
        "command": "pairing",
        "scenario": scenario_summary(sc),
        "rows": list(sc.h11_names),
        "cols": list(sc.codim_names),
        "matrix": [[fmt_rational(v) for v in row] for row in pm.entries],
        "determinant": fmt_rational(pm.det),
        "nondegenerate": pm.det != 0,
    }


def dual_payload(sc: Scenario, cone: Cone2D) -> dict:
    dual = dual_cone(cone, sc.pairing_matrix)
    return {
        "command": "dual",
        "scenario": scenario_summary(sc),
        "input_cone": _cone_section(cone, sc.h11_names),
        "dual_cone": _cone_section(dual, sc.codim_names),
    }


def image_payload(sc: Scenario) -> dict:
    return {
        "command": "image",
        "scenario": scenario_summary(sc),
        "image_closure": _cone_section(balanced_image_closure(sc), sc.codim_names),
    }


def balanced_payload(sc: Scenario) -> dict:
    return {
        "command": "balanced",
        "scenario": scenario_summary(sc),
        "balanced_cone": _cone_section(balanced_cone(sc), sc.codim_names),
    }


def gap_payload(sc: Scenario) -> dict:
    return {
        "command": "gap",
        "scenario": scenario_summary(sc),
        **_gap_sections(sc, sc.gap),
    }


def bound_payload(sc: Scenario, prime, ample) -> dict:
    """``prime`` is a declared (name, coords) entry of ``sc.prime_divisors``."""
    name, coords = prime
    coeffs = divisor_bound_functional(sc, coords, ample)
    return {
        "command": "bound",
        "scenario": scenario_summary(sc),
        "prime": name,
        "prime_coords": list(coords),
        "ample": [fmt_rational(x) for x in ample],
        "coefficients": [fmt_rational(v) for v in coeffs],
    }


def demo_payload(sc: Scenario) -> dict:
    pm = sc.pairing_matrix
    n1, n2 = sc.h11_names
    numbers = [
        {"factors": [n1] * j + [n2] * (sc.ci.dim - j), "value": fmt_rational(sc.kappa[j])}
        for j in range(sc.ci.dim, -1, -1)
    ]
    gr = sc.gap
    boundary = [
        {
            "effective_ray": _ray_json(e),
            "balanced_ray": _ray_json(b),
            "value": fmt_rational(pm.pair(e, b)),
        }
        for e in sc.effective_cone.generators()
        for b in gr.balanced_cone.generators()
    ]
    bounds = [
        {
            "prime": name,
            "ample": ["1", "1"],
            "coefficients": [
                fmt_rational(v) for v in divisor_bound_functional(sc, coords, (1, 1))
            ],
        }
        for name, coords in sc.prime_divisors
    ]
    return {
        "command": "demo",
        "scenario": scenario_summary(sc),
        "intersection_numbers": numbers,
        "pairing_matrix": [[fmt_rational(v) for v in row] for row in pm.entries],
        "pairing_determinant": fmt_rational(pm.det),
        **_gap_sections(sc, gr),
        "boundary_pairings": boundary,
        "bound_functionals": bounds,
    }


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def _is_matrix(value) -> bool:
    return (
        isinstance(value, list)
        and bool(value)
        and all(
            isinstance(row, list) and row and all(isinstance(x, str) for x in row)
            for row in value
        )
    )


def _inline(value) -> str:
    """One-line text of a scalar, a list of scalars or a list of integer rows."""
    if isinstance(value, list):
        return ", ".join(f"({_inline(v)})" if isinstance(v, list) else _inline(v)
                         for v in value)
    if value is None or isinstance(value, bool):  # before the lookup: True == 1
        return {None: "none", True: "true", False: "false"}[value]
    return str(value)


def _emit(lines, key, value, indent, color):
    pad = "  " * indent
    label = f"\x1b[1m{key}\x1b[0m" if color else key
    if isinstance(value, dict):
        lines.append(f"{pad}{label}:")
        for k, v in value.items():
            _emit(lines, k, v, indent + 1, False)
    elif _is_matrix(value):
        lines.append(f"{pad}{label}:")
        width = max(len(x) for row in value for x in row)
        for row in value:
            lines.append(f"{pad}  [ " + "  ".join(x.rjust(width) for x in row) + " ]")
    elif value and isinstance(value, list) and all(isinstance(v, dict) for v in value):
        lines.append(f"{pad}{label}:")
        for item in value:
            sub: list = []
            for k, v in item.items():
                _emit(sub, k, v, 0, False)
            for i, text in enumerate(sub):
                lines.append(f"{pad}  {'- ' if i == 0 else '  '}{text}")
    else:
        lines.append(f"{pad}{label}: {_inline(value)}")


def render_text(payload: dict, color: bool = False) -> str:
    lines: list = []
    for key, value in payload.items():
        _emit(lines, key, value, 0, color)
    return "\n".join(lines) + "\n"
