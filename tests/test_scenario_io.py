import json
from fractions import Fraction
from pathlib import Path

import pytest

from balcone.cli import main
from balcone.errors import ScenarioError, ValidationError
from balcone.scenario_io import (
    DEMO_SCENARIO_DOCUMENT,
    DEMO_SCENARIO_JSON,
    document_to_scenario,
    parse_class_expr,
    parse_scenario,
    quintic_conifold_scenario,
    scenario_to_document,
    serialize_scenario,
)

from _ring_oracle import h11_classes, intersection_number


def mutated(**overrides):
    doc = json.loads(DEMO_SCENARIO_JSON)
    doc.update(overrides)
    return doc


class TestParse:
    def test_demo_document_matches_builtin(self):
        assert parse_scenario(DEMO_SCENARIO_JSON) == quintic_conifold_scenario()

    def test_syntax_error_located(self):
        with pytest.raises(ScenarioError) as info:
            parse_scenario("{\n  \"ambient\": [4, 1")
        assert info.value.line == 2

    def test_missing_ambient(self):
        doc = mutated()
        del doc["ambient"]
        with pytest.raises(ScenarioError, match="/ambient"):
            document_to_scenario(doc)

    def test_zero_ray_rejected(self):
        doc = mutated(kahler_cone=[[0, 0], [0, 1]])
        with pytest.raises(ScenarioError, match="/kahler_cone"):
            document_to_scenario(doc)

    def test_bad_ambient_type(self):
        with pytest.raises(ScenarioError, match="/ambient"):
            document_to_scenario(mutated(ambient="x"))

    def test_unknown_name_in_expr(self):
        doc = mutated(
            codim_basis=[
                {"name": "a", "expr": "γ*β"},
                {"name": "b", "expr": "β*β"},
            ]
        )
        with pytest.raises(ScenarioError, match="/codim_basis/0/expr"):
            document_to_scenario(doc)

    def test_h11_name_with_operator_rejected(self):
        doc = mutated(
            h11_basis=[
                {"name": "a*b", "multidegree": [0, 1]},
                {"name": "β", "multidegree": [1, 0]},
            ]
        )
        with pytest.raises(ScenarioError, match="/h11_basis/0/name"):
            document_to_scenario(doc)

    def test_prime_divisors_optional(self):
        doc = mutated()
        del doc["prime_divisors"]
        assert document_to_scenario(doc).prime_divisors == ()

    def test_degenerate_bases_rejected(self):
        doc = mutated(
            codim_basis=[
                {"name": "a", "expr": "α*β"},
                {"name": "b", "expr": "2*α*β"},
            ]
        )
        with pytest.raises(ScenarioError, match="degenerate"):
            document_to_scenario(doc)


def _codim(expr):
    return [{"name": "a", "expr": expr}, {"name": "b", "expr": "β*β"}]


_BETA = DEMO_SCENARIO_DOCUMENT["h11_basis"][1]

_DOCUMENT_ERRORS = [
    pytest.param([], "/", id="not-an-object"),
    pytest.param(mutated(ambient=[0, 1]), "/ambient", id="ambient-zero"),
    pytest.param(mutated(divisors=5), "/divisors", id="divisors-not-a-list"),
    pytest.param(mutated(divisors=[[1, -1]]), "/divisors/0", id="divisor-negative"),
    pytest.param(mutated(divisors=[[1, 1]] * 5), "/divisors", id="dimension-0"),
    pytest.param(mutated(h11_basis={"α": [0, 1]}), "/h11_basis", id="h11-object"),
    pytest.param(mutated(h11_basis=["α", _BETA]), "/h11_basis/0", id="h11-item-not-object"),
    pytest.param(
        mutated(h11_basis=[{"name": "", "multidegree": [0, 1]}, _BETA]),
        "/h11_basis/0/name", id="h11-empty-name",
    ),
    # Names the expr tokenizer would split or read as a number.
    *(
        pytest.param(
            mutated(h11_basis=[{"name": name, "multidegree": [0, 1]}, _BETA]),
            "/h11_basis/0/name", id=f"h11-name-{case}",
        )
        for name, case in (("2", "digit"), ("1a", "leading-digit"),
                           ("α\u00a0", "no-break-space"), ("α\n", "newline"))
    ),
    pytest.param(
        mutated(h11_basis=[{"name": "α", "multidegree": [0, 0]}, _BETA]),
        "/h11_basis/0/multidegree", id="h11-zero-multidegree",
    ),
    pytest.param(
        mutated(h11_basis=[{"name": "α", "multidegree": [0, 0, 1]}, _BETA]),
        "/h11_basis/0/multidegree", id="h11-multidegree-length",
    ),
    pytest.param(mutated(codim_basis=_codim("")), "/codim_basis/0/expr", id="expr-empty"),
    pytest.param(mutated(codim_basis=_codim("α / β")), "/codim_basis/0/expr", id="expr-slash"),
    pytest.param(
        mutated(codim_basis=_codim("α β")), "/codim_basis/0/expr", id="expr-no-operator"
    ),
    # α³ = 0 on the quintic, but a sum of terms of different degrees is no class.
    pytest.param(
        mutated(codim_basis=_codim("α*α*α + β*β")), "/codim_basis/0/expr",
        id="expr-mixed-degrees",
    ),
    pytest.param(
        mutated(codim_basis=_codim("1/0*α*β")), "/codim_basis/0/expr", id="expr-zero-denominator"
    ),
    pytest.param(
        mutated(codim_basis=_codim("1" * 5000 + "*α*β")), "/codim_basis/0/expr",
        id="expr-number-too-long",
    ),
    pytest.param(mutated(codim_basis=_codim("α")), "/codim_basis/0/expr", id="expr-wrong-degree"),
    pytest.param(
        mutated(h11_basis=[*DEMO_SCENARIO_DOCUMENT["h11_basis"], dict(_BETA, name="γ")]),
        "/h11_basis", id="h11-three-entries",
    ),
    pytest.param(mutated(codim_basis=_codim("α*β")[:1]), "/codim_basis", id="codim-one-entry"),
    pytest.param(mutated(kahler_cone=[[1, 0]]), "/kahler_cone", id="kahler-one-ray"),
    pytest.param(
        mutated(prime_divisors=[{"name": "E1", "coords": [1, 2, 3]}]),
        "/prime_divisors/0/coords", id="prime-coords-triple",
    ),
    # The CLI folds case and Greek letters, so folded names must be distinct.
    pytest.param(
        mutated(prime_divisors=[{"name": "E1", "coords": [-1, 1]},
                                {"name": "e1", "coords": [-1, 4]}]),
        "/prime_divisors/1/name", id="prime-names-fold-together",
    ),
    pytest.param(
        mutated(codim_basis=[{"name": "β", "expr": "α*β"}, {"name": "b", "expr": "β*β"}]),
        "/codim_basis/0/name", id="codim-name-is-h11-name",
    ),
    pytest.param(
        mutated(prime_divisors=[{"name": "E1", "coords": [-1, 1]},
                                {"name": "E1", "coords": [-1, 4]}]),
        "/prime_divisors/1/name", id="prime-names-repeat",
    ),
]


@pytest.mark.parametrize("doc, path", _DOCUMENT_ERRORS)
def test_document_error_located(doc, path, tmp_path, capsys):
    with pytest.raises(ScenarioError) as info:
        document_to_scenario(doc)
    assert info.value.path == path
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["demo", "--scenario", str(scenario_file)]) == 3
    assert f"at {path}:" in capsys.readouterr().err


def test_json_integer_too_long_located(tmp_path, capsys):
    """json.loads refuses an integer literal longer than int's string conversion limit."""
    text = DEMO_SCENARIO_JSON.replace("[\n    4,", "[\n    " + "4" * 5000 + ",", 1)
    with pytest.raises(ScenarioError, match="digits, the limit") as info:
        parse_scenario(text)
    assert (info.value.line, info.value.column) == (3, 5)
    scenario_file = tmp_path / "scenario.json"
    scenario_file.write_text(text, encoding="utf-8")
    assert main(["demo", "--scenario", str(scenario_file)]) == 3
    assert "line 3, column 5:" in capsys.readouterr().err


class TestClassExpr:
    def test_rational_combination(self):
        names = ("α", "β")
        got = parse_class_expr("β*β - 1/4*α*β", names)
        quarter = parse_class_expr("1/4*α*β", names)
        assert tuple(a + b for a, b in zip(got, quarter)) == parse_class_expr("β*β", names)
        assert got == (1, Fraction(-1, 4), 0)

    def test_leading_sign(self):
        assert parse_class_expr("-β", ("α", "β")) == (-1, 0)

    def test_dangling_operator(self):
        with pytest.raises(ScenarioError):
            parse_class_expr("β*", ("α", "β"))

    def test_sum_in_document(self):
        sc = document_to_scenario(mutated(codim_basis=_codim("α*β + β*β")))
        alpha, beta = h11_classes(sc)
        assert sc.codim_forms[0] == (1, 1, 0)
        assert sc.pairing_matrix[0][0] == \
            intersection_number(sc.ci, [alpha, alpha * beta + beta * beta])


class TestRoundTrip:
    def test_scenario_level(self):
        sc = quintic_conifold_scenario()
        assert parse_scenario(serialize_scenario(sc)) == sc

    def test_document_level(self):
        assert scenario_to_document(parse_scenario(DEMO_SCENARIO_JSON)) == \
            DEMO_SCENARIO_DOCUMENT

    def test_shipped_file_is_demo_json(self):
        shipped = Path(__file__).parent.parent / "scenarios" / "quintic_conifold.json"
        assert shipped.read_bytes() == DEMO_SCENARIO_JSON.encode("utf-8")

    def test_builtin_document_is_canonical(self):
        assert scenario_to_document(quintic_conifold_scenario()) == \
            DEMO_SCENARIO_DOCUMENT

    def test_rational_h11_multidegree_rejected(self):
        sc = quintic_conifold_scenario()
        with pytest.raises(ValidationError, match="multidegree"):
            sc._replace(h11_multidegrees=((0, 1), (Fraction(1, 2), 0)))

    def test_missing_codim_exprs_not_serializable(self):
        sc = quintic_conifold_scenario()._replace(codim_exprs=None)
        with pytest.raises(ValidationError, match="codim basis expressions"):
            scenario_to_document(sc)
