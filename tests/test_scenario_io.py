import json
from pathlib import Path

import pytest

from balcone.errors import ScenarioError
from balcone.pipeline import quintic_conifold_scenario
from balcone.scenario_io import (
    DEMO_SCENARIO_DOCUMENT,
    DEMO_SCENARIO_JSON,
    document_to_scenario,
    parse_class_expr,
    parse_scenario,
    scenario_to_document,
    serialize_scenario,
)
from balcone.ring import AmbientSpace, divisor_class


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


class TestClassExpr:
    def test_rational_combination(self):
        space = AmbientSpace([4, 1])
        alpha = divisor_class(space, (0, 1))
        beta = divisor_class(space, (1, 0))
        named = {"α": alpha, "β": beta}
        got = parse_class_expr("β*β - 1/4*α*β", named, space)
        quarter = parse_class_expr("1/4*α*β", named, space)
        assert got + quarter == beta * beta

    def test_leading_sign(self):
        space = AmbientSpace([4, 1])
        named = {"β": divisor_class(space, (1, 0))}
        assert parse_class_expr("-β", named, space) == -named["β"]

    def test_dangling_operator(self):
        space = AmbientSpace([4, 1])
        named = {"β": divisor_class(space, (1, 0))}
        with pytest.raises(ScenarioError):
            parse_class_expr("β*", named, space)


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
