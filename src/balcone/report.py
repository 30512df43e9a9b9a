"""Report payloads for the command surface, in machine and human form.

The machine form is a JSON object with deterministic key order; rationals
are serialized as reduced ``"p/q"`` strings with positive denominator and
rays as integer pairs, so re-parsing loses nothing.  :func:`render_json`
writes it byte for byte as the standard library's JSON encoder does with an
indent of 2 and non-ASCII text kept, for the value types payloads hold.  The
human form is aligned text derived from the same payload.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from json.encoder import encode_basestring
from math import gcd

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
_VULGAR = {  # (p, q) of p/q in lowest terms
    (1, 2): "½", (1, 3): "⅓", (2, 3): "⅔", (1, 4): "¼", (3, 4): "¾", (1, 5): "⅕",
    (2, 5): "⅖", (3, 5): "⅗", (4, 5): "⅘", (1, 6): "⅙", (5, 6): "⅚", (1, 8): "⅛",
    (3, 8): "⅜", (5, 8): "⅝", (7, 8): "⅞",
}
_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def fmt_rational(value) -> str:
    """Reduced ``p/q`` string, positive denominator; ``p`` for an ``int``; else ``TypeError``."""
    if type(value) not in (int, Fraction):
        raise TypeError(f"{type(value).__name__} is not an integer or a fraction")
    try:
        return str(value)
    except ValueError:  # more digits than int's string conversion allows
        raise ComputationError(
            f"result has more than {sys.get_int_max_str_digits()} digits, "
            "the limit for printing an integer"
        ) from None


def _coeff_text(p: int, q: int) -> str:
    """Signed coefficient p/q, in lowest terms with q > 0, as it stands before a name."""
    sign, p = ("+", p) if p > 0 else (_MINUS, -p)
    if p == q:
        return sign
    text = _VULGAR.get((p, q))
    if text is None:
        text = fmt_rational(p) if q == 1 else f"{fmt_rational(p)}/{fmt_rational(q)}·"
    return sign + text


def format_class_label(ray: Ray, names) -> str:
    """Human label of a ray as a combination of the two basis names.

    Normalized monic in the second name when possible, so ``(-1, 4)`` over
    ``("α∧β", "β∧β")`` reads ``β∧β−¼α∧β``.
    """
    a, b = ray
    n1, n2 = names
    if b == 0:
        return n1 if a > 0 else f"{_MINUS}{n1}"
    if a == 0:
        return n2 if b > 0 else f"{_MINUS}{n2}"
    g = gcd(a, b)
    if b > 0:
        return f"{n2}{_coeff_text(a // g, b // g)}{n1}"
    if a > 0:
        return f"{n1}{_coeff_text(b // g, a // g)}{n2}"
    return f"{_MINUS}({format_class_label((-a, -b), names)})"


def _cone_json(cone: Cone2D):
    return [list(r) for r in cone]


def _cone_section(cone: Cone2D, names) -> dict:
    return {
        "rays": _cone_json(cone),
        "labels": [format_class_label(r, names) for r in cone],
    }


def scenario_summary(sc: Scenario) -> dict:
    return {
        "ambient": list(sc.space),
        "divisors": [list(d) for d in sc.divisors],
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
        "generators": [list(r) for r in gr.gap_generators],
        "witness": list(gr.witness) if gr.witness else None,
    }
    if gr.witness:
        gap["witness_in_balanced_open"] = gr.balanced_cone.contains(gr.witness, "open")
        gap["witness_in_image_closure"] = gr.image_closure.contains(gr.witness)
    return {
        "image_closure": _cone_section(gr.image_closure, sc.codim_names),
        "balanced_cone": _cone_section(gr.balanced_cone, sc.codim_names),
        "gap": gap,
    }


def _payload(command: str, sc: Scenario, **sections) -> dict:
    """A command's report: its name, the scenario summary, then ``sections`` in order."""
    return {"command": command, "scenario": scenario_summary(sc), **sections}


def _pairing_strings(pm) -> tuple:
    """The pairing's entries and its determinant, as reduced rational strings."""
    return [[fmt_rational(v) for v in row] for row in pm], fmt_rational(pm.det)


def _bound_coefficients(sc: Scenario, coords, ample) -> list:
    return [fmt_rational(v) for v in divisor_bound_functional(sc, coords, ample)]


def intersect_payload(sc: Scenario, names, forms) -> dict:
    return _payload("intersect", sc,
                    factors=list(names),
                    value=fmt_rational(integrate_forms(sc, forms)))


def pairing_payload(sc: Scenario) -> dict:
    matrix, determinant = _pairing_strings(sc.pairing_matrix)
    return _payload("pairing", sc,
                    rows=list(sc.h11_names),
                    cols=list(sc.codim_names),
                    matrix=matrix,
                    determinant=determinant,
                    nondegenerate=sc.pairing_matrix.det != 0)


def dual_payload(sc: Scenario, cone: Cone2D) -> dict:
    dual = dual_cone(cone, sc.pairing_matrix)
    return _payload("dual", sc,
                    input_cone=_cone_section(cone, sc.h11_names),
                    dual_cone=_cone_section(dual, sc.codim_names))


def image_payload(sc: Scenario) -> dict:
    return _payload("image", sc,
                    image_closure=_cone_section(balanced_image_closure(sc), sc.codim_names))


def balanced_payload(sc: Scenario) -> dict:
    return _payload("balanced", sc,
                    balanced_cone=_cone_section(balanced_cone(sc), sc.codim_names))


def gap_payload(sc: Scenario) -> dict:
    return _payload("gap", sc, **_gap_sections(sc, sc.gap))


def bound_payload(sc: Scenario, prime, ample) -> dict:
    """``prime`` is a declared (name, coords) entry of ``sc.prime_divisors``."""
    name, coords = prime
    coefficients = _bound_coefficients(sc, coords, ample)
    return _payload("bound", sc,
                    prime=name,
                    prime_coords=list(coords),
                    ample=[fmt_rational(x) for x in ample],
                    coefficients=coefficients)


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
            "effective_ray": list(e),
            "balanced_ray": list(b),
            "value": fmt_rational(f[0] * b[0] + f[1] * b[1]),  # pm.pair(e, b)
        }
        for e, f in zip(sc.effective_cone, map(pm.functional, sc.effective_cone))
        for b in gr.balanced_cone
    ]
    bounds = [
        {
            "prime": name,
            "ample": ["1", "1"],
            "coefficients": _bound_coefficients(sc, coords, (1, 1)),
        }
        for name, coords in sc.prime_divisors
    ]
    matrix, determinant = _pairing_strings(pm)
    return _payload("demo", sc,
                    intersection_numbers=numbers,
                    pairing_matrix=matrix,
                    pairing_determinant=determinant,
                    **_gap_sections(sc, gr),
                    boundary_pairings=boundary,
                    bound_functionals=bounds)


def _write_json(value, newline: str, out: list) -> None:
    """Append the JSON text of ``value`` to ``out``; ``newline`` is "\\n" and the indent."""
    if isinstance(value, str):
        out.append(encode_basestring(value))
    elif value is None or value is True or value is False:
        out.append(_JSON_CONSTANTS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif not isinstance(value, (list, dict)):
        raise TypeError(f"{type(value).__name__} is not a JSON payload value")
    elif not value:
        out.append("[]" if isinstance(value, list) else "{}")
    elif isinstance(value, list):
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            sep = "," + inner
            _write_json(item, inner, out)
        out.append(newline + "]")
    else:
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            # encode_basestring raises TypeError on a key that is not a str
            out.append(sep + encode_basestring(key) + ": ")
            sep = "," + inner
            _write_json(item, inner, out)
        out.append(newline + "}")


def render_json(payload: dict) -> str:
    """Indented JSON text of a payload of dicts with str keys, lists, str, int,
    bool and None; any other value raises ``TypeError``."""
    out: list = []
    _write_json(payload, "\n", out)
    out.append("\n")
    return "".join(out)


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
