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
import os
import re
import sys

from .cones import Cone2D
from .errors import ScenarioError, _located
from .pipeline import Scenario, _too_long
from .report import render_json, scenario_summary
from .ring import AmbientSpace, check_multidegree

# A JSON string, or a JSON number: its integer digits, then its fraction and exponent.
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?(\d+)((?:\.\d+)?(?:[eE][-+]?\d+)?)')

# The built-in scenario is the document shipped beside this module, its one copy.
with open(os.path.join(os.path.dirname(__file__), "quintic_conifold.json"), encoding="utf-8") as _f:
    DEMO_SCENARIO_JSON = _f.read()


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


def document_to_scenario(doc) -> Scenario:
    """Validated scenario from a decoded JSON document: the reader checks each key's JSON
    types, and ``Scenario`` every other rule."""
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

    h11 = [(name, _int_list(raw, f"{here}/multidegree"))
           for name, raw, here in _named_entries(doc, "h11_basis", "multidegree")]
    codim = _named_entries(doc, "codim_basis", "expr")

    kahler = _cone(_require(doc, "kahler_cone", ""), "/kahler_cone")
    effective = _cone(_require(doc, "effective_cone", ""), "/effective_cone")

    primes = []
    if "prime_divisors" in doc:
        for name, raw, here in _named_entries(doc, "prime_divisors", "coords"):
            primes.append((name, _int_pair(raw, f"{here}/coords")))

    return Scenario(
        space=space,
        divisors=divisors,
        h11_names=[name for name, _ in h11],
        h11_multidegrees=[d for _, d in h11],
        codim_names=[name for name, _, _ in codim],
        codim_exprs=[raw for _, raw, _ in codim],
        kahler_cone=kahler,
        effective_cone=effective,
        prime_divisors=primes,
    )


def quintic_conifold_scenario() -> Scenario:
    """Built-in scenario: the small resolution of the quintic conifold.

    The threefold sits in P^4 x P^1, cut out by equations of multidegree
    (1,1) and (4,1).  The degree-1 basis is (α, β) with α pulled back from
    P^1 and β from P^4; the degree-2 basis is (α∧β, β∧β).  The Kähler cone
    is the coordinate quadrant and the effective cone is spanned by α and
    β−α, with the prime divisors E1 = β−α and E2 = 4β−α recorded.  Read
    from the shipped ``quintic_conifold.json`` as any ``--scenario`` file is.
    """
    return parse_scenario(DEMO_SCENARIO_JSON)


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
