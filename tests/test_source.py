"""Rules on the library's source text, checked with ``ast``."""

import ast
from pathlib import Path

import balcone

SOURCES = sorted(Path(balcone.__file__).parent.glob("*.py"))


def _calls(node, name):
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


def _iterator(node):
    return isinstance(node, ast.GeneratorExp) or _calls(node, "map")


def _tuple_over_iterator(node):
    """``tuple(it)``, or ``f(*it)``, whose arguments the call also collects into a tuple."""
    if isinstance(node, ast.Starred):
        return _iterator(node.value)
    return _calls(node, "tuple") and len(node.args) == 1 and _iterator(node.args[0])


def test_no_tuple_built_from_a_generator_or_map():
    """``tuple([...])`` and ``f(*[...])``, not ``tuple(<genexpr>)``, ``tuple(map(...))``
    or ``f(*(<genexpr>))``.

    CPython 3.11 builds a tuple of unknown length in 10 slots and then shrinks it,
    and the allocator keeps the pieces: a loop of 8,000 parse, demo, gap and SVG
    ops on the many-factor products grew the peak RSS by about 1 MB with ten
    such builds in the library, and by 0.12 MB without.
    """
    hits = [f"{path.name}:{node.lineno}" for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if _tuple_over_iterator(node)]
    assert SOURCES
    assert hits == []


def test_reader_holds_no_value_rule():
    """The document reader only finds keys and entries; ``Scenario`` checks every value, so
    ``scenario_io`` imports nothing that builds a cone, a space or an intersection."""
    source = Path(balcone.__file__).parent / "scenario_io.py"
    imported = set()  # the last part of each module name, with or without its package
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        imported |= {name.rpartition(".")[2] for name in names}
    assert "pipeline" in imported
    assert imported.isdisjoint({"cones", "ring", "variety"})


def test_pipeline_leaves_the_integer_rule_to_the_records():
    """``Scenario`` only names the path: the integer-list rule lives in ``ring``, so
    ``pipeline`` holds no ``isinstance(…, bool)`` test of its own."""
    source = Path(balcone.__file__).parent / "pipeline.py"
    hits = [node.lineno for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
            if _calls(node, "isinstance") and len(node.args) == 2
            and "bool" in {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}]
    assert hits == []


def _is_list_or_tuple_test(node):
    """``isinstance(…, (list, tuple))``, in either order."""
    return (_calls(node, "isinstance") and len(node.args) == 2
            and isinstance(node.args[1], ast.Tuple)
            and {n.id for n in node.args[1].elts if isinstance(n, ast.Name)} == {"list", "tuple"})


def test_one_reader_for_every_list():
    """``errors._entries`` is the one rule for a list the library is handed: no other module
    holds a list test or type-set test of its own, and the helpers it replaced, and
    ``integrate_forms``' unread twin ``_integrate``, are defined nowhere."""
    readers = [path for path in SOURCES if path.name != "errors.py"]
    hits = [f"{path.name}:{node.lineno}" for path in readers
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if _is_list_or_tuple_test(node)
            or isinstance(node, ast.Attribute) and node.attr == "issuperset"]
    assert len(readers) == len(SOURCES) - 1
    assert hits == []
    defined = {node.name for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert "_entries" in defined
    assert defined.isdisjoint({"_sized", "_int_list", "_int_pair", "is_subcone", "_integrate"})
