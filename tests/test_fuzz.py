"""Every command ends in a result or a documented exit on a mutated scenario document.

Each draw changes one or two values of the shipped document: it drops a key or a
list entry, or puts a value of another type, a bool, a negative or a 10^30-sized
integer, an empty list or string, an odd Unicode name or an odd ``expr`` in its
place, or n nested lists, n ∈ {2, 50, 900, 5000, 10^5}, written into the JSON
text.  No draw adds a factor or a divisor, so no draw asks for a large κ.
"""

import contextlib
import io
import json

from hypothesis import event, given, settings, strategies as st

from balcone.cli import main
from balcone.scenario_io import DEMO_SCENARIO_DOCUMENT

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
