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
the offending node.  The reader only finds each key and list entry;
``Scenario`` checks every value, each rule once.
"""

from __future__ import annotations

import json
import os
import re
import sys

from .errors import ScenarioError, _entries
from .pipeline import Scenario, _too_long
from .report import render_json, scenario_summary

# A JSON string, or a JSON number: its integer digits, then its fraction and exponent.
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?(\d+)((?:\.\d+)?(?:[eE][-+]?\d+)?)')

# The built-in scenario is the document shipped beside this module, its one copy.
with open(os.path.join(os.path.dirname(__file__), "quintic_conifold.json"), encoding="utf-8") as _f:
    DEMO_SCENARIO_JSON = _f.read()


def _require(doc, key, path):
    if key not in doc:
        raise ScenarioError("missing required key", path=f"{path}/{key}")
    return doc[key]


def _named_entries(doc, key, value_key):
    """(name, value) per entry of the list ``doc[key]``, both as the document holds them."""
    out = []
    for i, item in enumerate(_entries(_require(doc, key, ""), "expected a list of objects",
                                      path=f"/{key}")):
        here = f"/{key}/{i}"
        if not isinstance(item, dict):
            raise ScenarioError("expected an object", path=here)
        out.append((_require(item, "name", here), _require(item, value_key, here)))
    return out


def document_to_scenario(doc) -> Scenario:
    """Validated scenario from a decoded JSON document: the reader finds each key and entry,
    and passes their values as they are to ``Scenario``, which checks every rule."""
    if not isinstance(doc, dict):
        raise ScenarioError("document must be a JSON object", path="/")
    space, divisors = _require(doc, "ambient", ""), _require(doc, "divisors", "")
    h11 = _named_entries(doc, "h11_basis", "multidegree")
    codim = _named_entries(doc, "codim_basis", "expr")
    kahler, effective = _require(doc, "kahler_cone", ""), _require(doc, "effective_cone", "")
    primes = _named_entries(doc, "prime_divisors", "coords") if "prime_divisors" in doc else ()
    return Scenario(
        space=space,
        divisors=divisors,
        h11_names=[name for name, _ in h11],
        h11_multidegrees=[d for _, d in h11],
        codim_names=[name for name, _ in codim],
        codim_exprs=[expr for _, expr in codim],
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
    """Scenario from JSON text, a ``str`` or UTF-8 ``bytes`` or ``bytearray``; locates syntax
    and semantic errors, and refuses any other value naming its type."""
    if not isinstance(text, (str, bytes, bytearray)):
        raise ScenarioError(f"expected JSON text, got {type(text).__name__}")
    try:
        # UTF-8, as the CLI reads a file, so that each handler below reads a str.
        text = text if isinstance(text, str) else text.decode()
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ScenarioError(e.msg, line=e.lineno, column=e.colno) from e
    except UnicodeDecodeError as e:
        raise ScenarioError(f"cannot decode JSON text: {e}") from None
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
