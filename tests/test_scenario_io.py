import json
from fractions import Fraction

import pytest
from hypothesis import Phase, event, given, settings, strategies as st

from balcone.cli import main
from balcone import scenario_io
from balcone.errors import ScenarioError, ValidationError
from balcone.report import render_json
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

from _helpers import reference_class_expr
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
    pytest.param(mutated(divisors=[[1, 1], [4, 1, 0]]), "/divisors/1", id="divisor-length"),
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
        mutated(codim_basis=[{"name": "a", "expr": "β*β"}, {"name": "b", "expr": "2*β*β"}]),
        "/", id="pairing-degenerate",
    ),
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
    # ``Scenario`` checks the h11 multidegrees and the prime names, after the reader's
    # checks of every key: a later key's error is reported first.
    pytest.param(
        mutated(h11_basis=[{"name": "α", "multidegree": [0, 0, 1]}, _BETA],
                kahler_cone=[[1, 0]]),
        "/kahler_cone", id="h11-multidegree-length-after-cones",
    ),
    pytest.param(
        mutated(prime_divisors=[{"name": "E1", "coords": [-1, 1]},
                                {"name": "E1", "coords": [-1, 4]},
                                {"name": "E3", "coords": [1, 2, 3]}]),
        "/prime_divisors/2/coords", id="prime-names-repeat-after-coords",
    ),
    # The complete intersection is built after every key is read, so a dimension-0
    # intersection is refused after a malformed later key.
    pytest.param(
        mutated(divisors=[[1, 1]] * 5, kahler_cone=[[1, 0]]),
        "/kahler_cone", id="dimension-0-after-cones",
    ),
    # JSON's "\ud800" decodes to a lone surrogate, which no output encoding can write.
    pytest.param(
        mutated(h11_basis=[{"name": "α\ud800", "multidegree": [0, 1]}, _BETA]),
        "/h11_basis/0/name", id="h11-name-lone-surrogate",
    ),
    pytest.param(
        mutated(codim_basis=[{"name": "a", "expr": "α*β"}, {"name": "\udfff", "expr": "β*β"}]),
        "/codim_basis/1/name", id="codim-name-lone-surrogate",
    ),
    pytest.param(
        mutated(prime_divisors=[{"name": "E\ud800", "coords": [-1, 1]}]),
        "/prime_divisors/0/name", id="prime-name-lone-surrogate",
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


def _without(key):
    doc = mutated()
    del doc[key]
    return doc


@pytest.mark.parametrize("doc, path", [
    pytest.param(_without("h11_basis"), "/h11_basis", id="h11-missing"),
    pytest.param(mutated(h11_basis=[{"name": "α", "multidegree": "x"}, _BETA]),
                 "/h11_basis/0/multidegree", id="h11-multidegree-not-a-list"),
    pytest.param(mutated(codim_basis=_codim("α β")), "/codim_basis/0/expr", id="expr"),
    pytest.param(mutated(kahler_cone=[[1, 0]]), "/kahler_cone", id="kahler-one-ray"),
    pytest.param(_without("effective_cone"), "/effective_cone", id="effective-missing"),
    pytest.param(mutated(prime_divisors=[{"name": "E1", "coords": [1, 2, 3]}]),
                 "/prime_divisors/0/coords", id="prime-coords-triple"),
])
def test_document_error_found_before_the_intersection_is_built(doc, path, monkeypatch):
    def refuse(*args):
        raise AssertionError("the complete intersection was built before every key was read")

    monkeypatch.setattr(scenario_io, "CompleteIntersection", refuse)
    with pytest.raises(ScenarioError) as info:
        document_to_scenario(doc)
    assert info.value.path == path


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


@pytest.mark.parametrize("before", [
    pytest.param(('"name": "α"', '"name": "E' + "7" * 5000 + '"'), id="long-string"),
    pytest.param(("[\n    4,", "[\n    4." + "7" * 5000 + ","), id="long-fraction"),
])
def test_json_integer_too_long_located_past_other_digit_runs(before):
    """Digits in a string or after a decimal point belong to no integer literal."""
    text = DEMO_SCENARIO_JSON.replace(*before, 1).replace(
        '"kahler_cone": [\n    [\n      1,', '"kahler_cone": [\n    [\n      ' + "1" * 5000 + ",")
    with pytest.raises(ScenarioError, match="digits, the limit") as info:
        parse_scenario(text)
    assert (info.value.line, info.value.column) == (44, 7)


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


_NAMES = ("α", "b1")
# Declared names and numbers, thrice as likely as the undeclared names and the characters
# the grammar refuses, so that about a quarter of the draws are accepted.
_FACTOR = st.sampled_from((*_NAMES * 3, "1", "7", "1/4") * 3 + (
    "3/0", "β", "b12", "/", "−", "·", "", "1α", "α/b1", "b1−α", "α·α"))
_BLANK = st.sampled_from(("", "", " ", "\t"))
_OPERATOR = st.sampled_from(("*",) * 6 + ("+", "-") * 2 + ("/", " "))


@st.composite
def _expressions(draw):
    """Factors joined by operators, blanks around each, an optional leading sign."""
    text = draw(st.sampled_from(("", "", "+", "-")))
    for i in range(draw(st.integers(1, 5))):
        text += (draw(_OPERATOR) if i else "") + draw(_BLANK) + draw(_FACTOR) + draw(_BLANK)
    return text


@settings(max_examples=500, phases=[p for p in Phase if p is not Phase.shrink])
@given(_expressions())
def test_class_expr_matches_the_token_reference(expr):
    """The sign-and-star splitter reads what a tokenizer reads, and refuses what it refuses."""
    outcomes = []
    for parse in (parse_class_expr, reference_class_expr):
        try:
            outcomes.append(parse(expr, _NAMES))
        except ScenarioError:
            outcomes.append(ScenarioError)
    event("refused" if outcomes[0] is ScenarioError else f"degree {len(outcomes[0]) - 1}")
    assert outcomes[0] == outcomes[1]


class TestRoundTrip:
    def test_scenario_level(self):
        sc = quintic_conifold_scenario()
        assert parse_scenario(serialize_scenario(sc)) == sc

    def test_document_level(self):
        assert scenario_to_document(parse_scenario(DEMO_SCENARIO_JSON)) == \
            DEMO_SCENARIO_DOCUMENT

    def test_shipped_text_is_the_writers(self):
        # The shipped file is the built-in's one copy; the writer must print it unchanged.
        assert render_json(DEMO_SCENARIO_DOCUMENT) == DEMO_SCENARIO_JSON == \
            serialize_scenario(quintic_conifold_scenario())

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

    @pytest.mark.parametrize("exprs", [
        pytest.param(("β*β", "α*β"), id="swapped"),
        pytest.param(("α*β", "β*β*β"), id="wrong-degree"),
    ])
    def test_codim_exprs_that_are_not_the_forms_not_serializable(self, exprs):
        """Swapped exprs would round-trip to a scenario with swapped codim forms, and an
        expr of the wrong degree to a document that does not parse."""
        sc = quintic_conifold_scenario()._replace(codim_exprs=exprs)
        with pytest.raises(ValidationError, match="do not parse to the codim forms"):
            scenario_to_document(sc)
