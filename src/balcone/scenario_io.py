"""Read and write scenario documents (JSON, UTF-8).

Document layout::

    {
      "ambient": [4, 1],
      "divisors": [[1, 1], [4, 1]],
      "h11_basis": [{"name": "α", "multidegree": [0, 1]}, ...],
      "codim_basis": [{"name": "α∧β", "expr": "α*β"}, ...],
      "kahler_cone": [[1, 0], [0, 1]],
      "effective_cone": [[1, 0], [-1, 1]],
      "prime_divisors": [{"name": "E1", "coords": [-1, 1]}, ...]
    }

``expr`` is a linear combination of products of h11 names with rational
coefficients, all of one degree, e.g. ``"β*β - 1/4*α*β"``.  Class names, and
prime divisor names, stay distinct under the CLI's case and ASCII folding.
Syntax errors report line and column; semantic errors report the path of
the offending node.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .cones import Cone2D
from .errors import ScenarioError, ValidationError, _located
from .pipeline import Scenario, _refuse_repeat
from .report import render_json, scenario_summary
from .ring import AmbientSpace, check_multidegree
from .variety import CompleteIntersection

_NUMBER = re.compile(r"\d+(?:/\d+)?")
# An h11 name is one expr factor: no whitespace or arithmetic sign, no leading digit.
_H11_NAME = re.compile(r"[^\s\d+\-*/][^\s+\-*/]*")
# A JSON string, or a JSON number: its integer digits, then its fraction and exponent.
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?(\d+)((?:\.\d+)?(?:[eE][-+]?\d+)?)')

DEMO_SCENARIO_DOCUMENT = {
    "ambient": [4, 1],
    "divisors": [[1, 1], [4, 1]],
    "h11_basis": [
        {"name": "α", "multidegree": [0, 1]},
        {"name": "β", "multidegree": [1, 0]},
    ],
    "codim_basis": [
        {"name": "α∧β", "expr": "α*β"},
        {"name": "β∧β", "expr": "β*β"},
    ],
    "kahler_cone": [[1, 0], [0, 1]],
    "effective_cone": [[1, 0], [-1, 1]],
    "prime_divisors": [
        {"name": "E1", "coords": [-1, 1]},
        {"name": "E2", "coords": [-1, 4]},
    ],
}

DEMO_SCENARIO_JSON = render_json(DEMO_SCENARIO_DOCUMENT)


def _too_long() -> str:
    limit = sys.get_int_max_str_digits()
    return f"number has more than {limit} digits, the limit for reading an integer"


def _require(doc, key, path):
    if key not in doc:
        raise ScenarioError("missing required key", path=f"{path}/{key}")
    return doc[key]


def _int_list(value, path):
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise ScenarioError("expected a list of integers", path=path)
    return value


def _int_pair(value, path):
    pair = _int_list(value, path)
    if len(pair) != 2:
        raise ScenarioError("expected a pair of integers", path=path)
    return tuple(pair)


def _cone(value, path):
    if not isinstance(value, list) or len(value) != 2:
        raise ScenarioError("expected two integer pairs", path=path)
    return _located(path, Cone2D, *[_int_pair(v, f"{path}/{i}") for i, v in enumerate(value)])


def _named_entries(doc, key, value_key):
    """(name, value, path) per entry of the list ``doc[key]``."""
    value, path = _require(doc, key, ""), f"/{key}"
    if not isinstance(value, list):
        raise ScenarioError("expected a list of objects", path=path)
    out = []
    for i, item in enumerate(value):
        here = f"{path}/{i}"
        if not isinstance(item, dict):
            raise ScenarioError("expected an object", path=here)
        name = _require(item, "name", here)
        if not isinstance(name, str) or not name:
            raise ScenarioError("name must be a non-empty string", path=f"{here}/name")
        if any("\ud800" <= c <= "\udfff" for c in name):  # JSON's "\ud800" decodes to one
            raise ScenarioError("name has a lone surrogate, not UTF-8 text", path=f"{here}/name")
        out.append((name, _require(item, value_key, here), here))
    return out


def parse_class_expr(expr, names, path="expr"):
    """Binary form of a combination like ``"β*β - 1/4*α*β"`` of h11 names.

    Entry j is the coefficient of h1^j h2^(d−j), d the degree shared by all
    terms; ``names[0]`` is h1 and any other name h2.  No name or number holds
    a sign, so the signs split the terms and ``*`` splits each term's factors.
    """
    if not isinstance(expr, str) or not expr.strip():
        raise ScenarioError("expected a non-empty expression string", path=path)
    parts = re.split(r"([+-])", expr if expr.lstrip()[0] in "+-" else "+" + expr)
    terms = []  # (degree, power of h1, coefficient)
    for sign, term in zip(parts[1::2], parts[2::2]):
        coeff, degree, j = Fraction(1 if sign == "+" else -1), 0, 0
        for factor in map(str.strip, term.split("*")):
            if factor in names:
                degree += 1
                j += factor == names[0]
            elif _NUMBER.fullmatch(factor):
                try:
                    coeff *= Fraction(factor)
                except ZeroDivisionError:
                    raise ScenarioError(f"zero denominator in {factor!r}", path=path) from None
                except ValueError:  # more digits than int's string conversion allows
                    raise ScenarioError(_too_long(), path=path) from None
            elif not factor:
                raise ScenarioError("expected a name or number", path=path)
            elif _H11_NAME.fullmatch(factor):
                raise ScenarioError(f"unknown class name {factor!r}", path=path)
            else:
                raise ScenarioError(f"cannot tokenize {factor!r}", path=path)
        terms.append((degree, j, coeff))
    degrees = sorted({t[0] for t in terms})
    if len(degrees) > 1:
        raise ScenarioError(f"terms must share one degree, got degrees {degrees}", path=path)
    form = [Fraction(0)] * (degrees[0] + 1)
    for _, j, coeff in terms:
        form[j] += coeff
    return tuple(form)


def document_to_scenario(doc) -> Scenario:
    """Validated scenario from a decoded JSON document; ``Scenario`` checks the two bases."""
    if not isinstance(doc, dict):
        raise ScenarioError("document must be a JSON object", path="/")

    space = _located("/ambient", AmbientSpace, _int_list(_require(doc, "ambient", ""), "/ambient"))

    raw_divisors = _require(doc, "divisors", "")
    if not isinstance(raw_divisors, list):
        raise ScenarioError("expected a list of multidegrees", path="/divisors")
    divisors = [
        _located(f"/divisors/{i}", check_multidegree, space, _int_list(d, f"/divisors/{i}"))
        for i, d in enumerate(raw_divisors)
    ]

    h11_names, h11_multidegrees, seen = [], [], {}
    for name, raw, here in _named_entries(doc, "h11_basis", "multidegree"):
        if not _H11_NAME.fullmatch(name):
            raise ScenarioError(
                "h11 names may not start with a digit or contain whitespace or + - * /",
                path=f"{here}/name",
            )
        # ``Scenario`` refuses repeated names too, but only after the exprs are read; with the
        # same h11 name twice no expr could name h2, and that would be the error reported.
        _refuse_repeat(seen, name, here)
        h11_multidegrees.append(tuple(_int_list(raw, f"{here}/multidegree")))
        h11_names.append(name)

    # Count both bases before parsing any expr: it would read a third h11 name as h2.
    codim = _named_entries(doc, "codim_basis", "expr")
    for key, entries in (("h11_basis", h11_names), ("codim_basis", codim)):
        if len(entries) != 2:
            raise ScenarioError("expected exactly two basis classes", path=f"/{key}")
    codim_forms = [parse_class_expr(raw, h11_names, path=f"{here}/expr") for _, raw, here in codim]

    kahler = _cone(_require(doc, "kahler_cone", ""), "/kahler_cone")
    effective = _cone(_require(doc, "effective_cone", ""), "/effective_cone")

    primes = []
    if "prime_divisors" in doc:
        for name, raw, here in _named_entries(doc, "prime_divisors", "coords"):
            primes.append((name, _int_pair(raw, f"{here}/coords")))

    # Built last, so that no refusal of a later key waits for the intersection or its κ.
    return Scenario(
        ci=_located("/divisors", CompleteIntersection, space, divisors),
        h11_names=tuple(h11_names),
        h11_multidegrees=tuple(h11_multidegrees),
        codim_names=tuple([name for name, _, _ in codim]),
        codim_forms=tuple(codim_forms),
        kahler_cone=kahler,
        effective_cone=effective,
        prime_divisors=tuple(primes),
        codim_exprs=tuple([raw for _, raw, _ in codim]),
    )


def quintic_conifold_scenario() -> Scenario:
    """Built-in scenario: the small resolution of the quintic conifold.

    The threefold sits in P^4 x P^1, cut out by equations of multidegree
    (1,1) and (4,1).  The degree-1 basis is (α, β) with α pulled back from
    P^1 and β from P^4; the degree-2 basis is (α∧β, β∧β).  The Kähler cone
    is the coordinate quadrant and the effective cone is spanned by α and
    β−α, with the prime divisors E1 = β−α and E2 = 4β−α recorded.  Built
    from ``DEMO_SCENARIO_DOCUMENT``, the one copy of this data.
    """
    return document_to_scenario(DEMO_SCENARIO_DOCUMENT)


def parse_scenario(text: str) -> Scenario:
    """Scenario from JSON text; locates syntax and semantic errors."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(e.msg, line=e.lineno, column=e.colno) from e
    except RecursionError:
        raise ScenarioError("JSON nesting is too deep") from None
    except ValueError:  # an integer literal longer than int's string conversion allows
        start = next(m.start(1) for m in _JSON_TOKEN.finditer(text)
                     if m[1] and not m[2] and len(m[1]) > sys.get_int_max_str_digits())
        line = text.count("\n", 0, start) + 1
        raise ScenarioError(
            _too_long(), line=line, column=start - text.rfind("\n", 0, start)
        ) from None
    return document_to_scenario(doc)


def scenario_to_document(s: Scenario) -> dict:
    """Document form of a scenario; inverse of :func:`document_to_scenario`."""
    if s.codim_exprs is None:
        raise ValidationError("scenario carries no codim basis expressions to serialize")
    # The document keeps only the exprs: they must read back as the forms the scenario uses.
    if [parse_class_expr(e, s.h11_names, path=f"/codim_basis/{j}/expr")
            for j, e in enumerate(s.codim_exprs)] != [tuple(c) for c in s.codim_forms]:
        raise ValidationError("codim basis expressions do not parse to the codim forms")
    # A report's scenario summary holds the document's keys in order; these four differ.
    doc = scenario_summary(s)
    del doc["dim"]
    doc["h11_basis"] = [
        {"name": n, "multidegree": list(d)}
        for n, d in zip(s.h11_names, s.h11_multidegrees)
    ]
    doc["codim_basis"] = [
        {"name": n, "expr": e} for n, e in zip(s.codim_names, s.codim_exprs)
    ]
    if not s.prime_divisors:
        del doc["prime_divisors"]
    return doc


def serialize_scenario(s: Scenario) -> str:
    return render_json(scenario_to_document(s))
