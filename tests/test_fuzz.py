"""Every command ends in a result or a documented exit on a mutated scenario document.

Each draw changes one or two values of the shipped document: it drops a key or a
list entry, or puts a value of another type, a bool, a negative or a 10^30-sized
integer, an empty list or string, an odd Unicode name or an odd ``expr`` in its
place, or n nested lists, n ∈ {2, 50, 900, 5000, 10^5}, written into the JSON
text.  No draw adds a factor or a divisor, so no draw asks for a large κ.

The library layer gets the same treatment: each draw replaces one ``Scenario`` field
with a value of the shape the reader passes for it, and ``_replace`` must refuse it
with a ``ScenarioError`` or return a scenario that hashes and round-trips.  The records
that hold integers, ``Scenario``, the value functions that take a coordinate pair,
``integrate_forms`` and ``dual_cone`` must refuse what is not a list of integers with a
``ValidationError``.
"""

import contextlib
import io
import json

from hypothesis import event, given, settings, strategies as st

from balcone.cli import main
from balcone.cones import Cone2D, Pairing, dual_cone, ray_normalize
from balcone.errors import ScenarioError, ValidationError
from balcone.pipeline import divisor_bound_functional, integrate_forms, kappa_in_basis
from balcone.ring import AmbientSpace, check_multidegree
from balcone.scenario_io import parse_scenario, quintic_conifold_scenario, serialize_scenario
from balcone.variety import CompleteIntersection

from _helpers import DEMO_SCENARIO_DOCUMENT

# All nine commands; demo and gap also in their other format.
_ARGVS = (
    ["demo"], ["demo", "--format", "json"], ["intersect", "α", "β", "β"], ["pairing"],
    ["dual"], ["dual", "--rays", "1,0", "-1,4"], ["image"], ["balanced"],
    ["gap", "--format", "json"], ["bound", "E1", "1,1"], ["render"],
)


def _paths(node, prefix=()):
    """(path, value) of every value below ``node``; a path is a tuple of keys and indices."""
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield prefix + (key,), value
            yield from _paths(value, prefix + (key,))


_PATHS = [path for path, _ in _paths(DEMO_SCENARIO_DOCUMENT)]
# Every name, expr and integer but the factor dimensions, each of which changes dim.
_LEAVES = [path for path, value in _paths(DEMO_SCENARIO_DOCUMENT)
           if not isinstance(value, (list, dict)) and path[0] != "ambient"]
_DROP = object()
# Stands for n nested lists in the document; the test writes them into the JSON text,
# where json.dumps would recurse n deep.
_DEEP = "<nested lists>"
_DEPTHS = st.sampled_from((2, 50, 900, 5000, 10**5))
# The first entries are accepted where a name or an expr is due, the rest mostly not.
_NAMES = st.sampled_from((
    "γ", "Ⅻ", "ß", "ǅ", "٣", "\U0001f600", "α", "β", "ALPHA", "Alpha", "α∧β", "e1", "E2",
    "", " ", "a b", "2", "α ", "\u0301", "\u200b", "\ud800", "a\x00", "-", "1/4",
))
_EXPRS = st.sampled_from((
    "β*β - 1/4*α*β", "2/4*β*β", "1" * 40 + "*β*β", "ALPHA*beta", "", " ", "α*", "*β",
    "α**β", "α β", "α*β*β", "β", "1/0*α*β", "0*α*β", "α*β - α*β", "α+-β", "--α*β",
    "(α*β)", "α·β", "α∧β", "1e3*α*β", "0.5*α*β", "α*β+", "α*γ",
))
_SMALL = st.integers(-3, 6)
_VALUES = st.one_of(
    st.booleans(), st.none(), _SMALL, st.sampled_from((10**30, -(10**30))),
    st.integers(-(10**30), 10**30), st.just([]), st.just(""), st.just({}),
    st.floats(allow_nan=False), st.lists(st.integers(-1, 5), max_size=2),
    st.lists(st.lists(st.integers(-2, 5), min_size=2, max_size=2), min_size=1, max_size=2),
    _NAMES, _EXPRS,
)


@st.composite
def _mutated_texts(draw):
    """JSON text of the shipped document with one or two values changed."""
    doc = json.loads(json.dumps(DEMO_SCENARIO_DOCUMENT))
    depth = 0
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(("slot", "any", "deep")))
        if kind == "slot":
            # A value of the slot's own kind, so that many draws reach the computation.
            *head, last = draw(st.sampled_from(_LEAVES))
            value = draw({"name": _NAMES, "expr": _EXPRS}.get(last, _SMALL))
        else:
            *head, last = draw(st.sampled_from(_PATHS))
            if kind == "deep":
                value, depth = _DEEP, draw(_DEPTHS)  # a second deep value takes this depth too
            else:
                value = draw(st.one_of(_VALUES, st.just(_DROP)))
        node = doc
        try:
            for key in head:
                node = node[key]
            if value is _DROP:
                del node[last]
            else:
                node[last] = value
        except (KeyError, IndexError, TypeError):  # an earlier change removed the path
            pass
    text = json.dumps(doc)
    if _DEEP in text:
        event(f"nesting {depth}")
    return text.replace(json.dumps(_DEEP), "[" * depth + "]" * depth)


@settings(max_examples=80)
@given(_mutated_texts())
def test_no_command_crashes_on_a_mutated_document(tmp_path_factory, text):
    scenario = tmp_path_factory.getbasetemp() / "fuzz-scenario.json"
    scenario.write_text(text, encoding="utf-8")
    for argv in _ARGVS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--scenario", str(scenario)])
        event(f"exit {code}")
        assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
        assert code == 0 or out.getvalue() == "", (argv, code)


_PAIR = st.lists(st.integers(-3, 5), min_size=2, max_size=2)
_TWO = st.lists(_PAIR, min_size=2, max_size=2)
_NAME_PAIRS = st.lists(_NAMES, min_size=2, max_size=2)
# Per field: a value of the slot's own kind, so that some draws are accepted, and any value
# of the shape the reader passes, a key's JSON value or a list of its entries' values.
_SLOTS = {
    "space": (st.lists(st.integers(1, 5), min_size=1, max_size=3), _VALUES),
    "divisors": (_TWO, _VALUES),
    "h11_names": (_NAME_PAIRS, st.lists(_VALUES, max_size=3)),
    "h11_multidegrees": (_TWO, st.lists(_VALUES, max_size=3)),
    "codim_names": (_NAME_PAIRS, st.lists(_VALUES, max_size=3)),
    "codim_exprs": (st.lists(_EXPRS, min_size=2, max_size=2), st.lists(_VALUES, max_size=3)),
    "kahler_cone": (_TWO, _VALUES),
    "effective_cone": (_TWO, _VALUES),
    "prime_divisors": (st.lists(st.tuples(_NAMES, _PAIR), max_size=3),
                       st.lists(st.tuples(_VALUES, _VALUES), max_size=3)),
}


@st.composite
def _changes(draw):
    """(field, value) for one field of the built-in scenario."""
    field = draw(st.sampled_from(sorted(_SLOTS)))
    return field, draw(_SLOTS[field][draw(st.integers(0, 1))])


@settings(max_examples=400)
@given(_changes())
def test_scenario_refuses_or_round_trips(change):
    """A library caller's ``Scenario`` is refused at a document path, or it is one that a
    document can hold: it hashes, and its document parses back to it."""
    field, value = change
    try:
        sc = quintic_conifold_scenario()._replace(**{field: value})
    except ScenarioError:
        event(f"{field} refused")
        return
    event(f"{field} accepted")
    hash(sc)
    assert parse_scenario(serialize_scenario(sc)) == sc


_STRINGS = st.sampled_from(("", "1", "x", "αβ", "[1, 2]"))
_NOT_INT = st.one_of(st.booleans(), st.none(), st.floats(allow_nan=False), _STRINGS,
                     st.just({}), st.just([1]))
# A non-list, or a list of small integers with one value that is not an integer among them.
_NOT_INT_LIST = st.one_of(
    _SMALL, st.none(), _STRINGS, st.dictionaries(_SMALL, _SMALL, max_size=2),
    st.tuples(st.lists(_SMALL, max_size=2), st.integers(0, 2), _NOT_INT).map(
        lambda t: [*t[0][:t[1]], t[2], *t[0][t[1]:]]),
)
_QUINTIC = quintic_conifold_scenario()
# Per record: a call with the drawn value in one place that holds integers or their lists.
_TARGETS = {
    **{f"Scenario.{field}": lambda v, field=field: _QUINTIC._replace(**{field: v})
       for field in _QUINTIC._fields},
    "AmbientSpace": AmbientSpace,
    "check_multidegree": lambda v: check_multidegree(_QUINTIC.space, v),
    "CompleteIntersection.space": lambda v: CompleteIntersection(v, _QUINTIC.divisors),
    "CompleteIntersection.divisors": lambda v: CompleteIntersection(_QUINTIC.space, v),
    "kappa.a": lambda v: _QUINTIC.ci.kappa(v, (1, 0)),
    "kappa.b": lambda v: _QUINTIC.ci.kappa((0, 1), v),
    # a form of any degree, times a power of h2 that brings the product to dim = 3
    "integrate_forms": lambda v: integrate_forms(
        _QUINTIC, [v, *[(1, 0)] * (4 - len(v) if isinstance(v, (list, tuple)) else 0)]),
    "dual_cone": lambda v: dual_cone(v, _QUINTIC.pairing_matrix),
}
# The value functions that take a coordinate pair; their lists are kept as tuples.
_PAIR_TARGETS = {
    "ray_normalize": ray_normalize,
    "Cone2D.r1": lambda v: Cone2D(v, (0, 1)),
    "Cone2D.r2": lambda v: Cone2D((1, 0), v),
    "kappa_in_basis.u": lambda v: tuple(kappa_in_basis(_QUINTIC, v, (1, 0))),
    "kappa_in_basis.v": lambda v: tuple(kappa_in_basis(_QUINTIC, (0, 1), v)),
    "divisor_bound_functional.prime": lambda v: divisor_bound_functional(_QUINTIC, v, (1, 1)),
    "divisor_bound_functional.ample": lambda v: divisor_bound_functional(_QUINTIC, (-1, 1), v),
    "Pairing.row0": lambda v: Pairing([v, (0, 1)]),
    "Pairing.row1": lambda v: Pairing([(1, 0), v]),
    "Pairing.functional": _QUINTIC.pairing_matrix.functional,
    "Pairing.pair.x": lambda v: _QUINTIC.pairing_matrix.pair(v, (0, 1)),
    "Pairing.pair.y": lambda v: _QUINTIC.pairing_matrix.pair((1, 0), v),
    "Cone2D.contains": _QUINTIC.kahler_cone.contains,
    "Cone2D.barycentric": _QUINTIC.kahler_cone.barycentric,
}
_TARGETS.update(_PAIR_TARGETS)
# Nine malformed values for the pair-taking functions: an int, None, a str, a 3-tuple, a
# pair with a str or a bool, an empty list or dict, and a pair with a 5001-digit entry.
_MALFORMED = st.sampled_from((5, None, "ab", (1, 2, 3), (1, "x"), (True, 1), [], {},
                              (10**5000, 1)))


@settings(max_examples=800)
@given(st.sampled_from(sorted(_TARGETS)), st.one_of(_NOT_INT_LIST, _MALFORMED))
def test_records_refuse_what_is_not_a_list_of_integers(target, value):
    """Only a ``ValidationError`` escapes a record or value function given a value that is
    not a list of integers; what it accepts hashes, and a value function that takes a
    coordinate pair accepts nothing but a list or tuple."""
    try:
        result = _TARGETS[target](value)
    except ValidationError:
        event(f"{target} refused")
        return
    event(f"{target} accepted")
    hash(result)
    assert target not in _PAIR_TARGETS or isinstance(value, (list, tuple))
