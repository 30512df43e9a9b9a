import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import balcone
import balcone.pipeline
from balcone.cli import build_parser, run_command
from balcone.cones import Ray
from balcone.errors import ComputationError
from balcone.pipeline import balanced_cone
from balcone.report import (
    demo_payload,
    format_class_label,
    fmt_rational,
    gap_payload,
    render_json,
    render_text,
)
from balcone.scenario_io import document_to_scenario, parse_scenario, quintic_conifold_scenario
from balcone.svg import render_cone_diagram
from balcone.variety import CompleteIntersection

from _helpers import REFERENCE_VULGAR, pn_document, reference_class_label

CODIM = ("α∧β", "β∧β")


class TestRationalSerialization:
    def test_reduced_positive_denominator(self):
        assert fmt_rational(Fraction(-1, 4)) == "-1/4"
        assert fmt_rational(Fraction(2, -8)) == "-1/4"
        assert fmt_rational(Fraction(4, 1)) == "4"
        assert fmt_rational(0) == "0"

    def test_integers_printed_by_str_within_the_digit_limit(self):
        assert fmt_rational(-10**30) == "-1" + "0" * 30
        with pytest.raises(ComputationError, match="digits"):
            fmt_rational(10**5000)

    @pytest.mark.parametrize("value", [True, 0.1, "1", None], ids=["bool", "float", "str", "None"])
    def test_other_types_refused(self, value):
        """Only exact ``int`` and ``Fraction`` are printed: a bool is not read as 1, and 0.1
        is not read as the binary fraction it stores."""
        with pytest.raises(TypeError, match="is not an integer or a fraction"):
            fmt_rational(value)


class TestClassLabels:
    def test_axis_rays(self):
        assert format_class_label(Ray(1, 0), CODIM) == "α∧β"
        assert format_class_label(Ray(0, 1), CODIM) == "β∧β"
        assert format_class_label(Ray(-1, 0), CODIM) == "−α∧β"

    def test_monic_vulgar_fraction(self):
        assert format_class_label(Ray(-1, 4), CODIM) == "β∧β−¼α∧β"

    def test_monic_plain_fraction(self):
        assert format_class_label(Ray(-5, 4), CODIM) == "β∧β−5/4·α∧β"

    def test_unit_coefficient_omitted(self):
        assert format_class_label(Ray(1, 1), CODIM) == "β∧β+α∧β"

    def test_negative_second_coordinate(self):
        assert format_class_label(Ray(2, -1), CODIM) == "α∧β−½β∧β"

    def test_both_negative(self):
        assert format_class_label(Ray(-1, -1), CODIM) == "−(β∧β+α∧β)"


_RAY_ENTRY = st.integers(-9, 9) | st.integers(10**30 - 9, 10**30 + 9) \
    | st.integers(-10**30 - 9, -10**30 + 9)


class TestLabelsMatchFractionReference:
    """The gcd path of ``format_class_label`` writes what its ``Fraction`` form wrote."""

    @pytest.mark.parametrize("value", sorted(REFERENCE_VULGAR))
    def test_every_vulgar_coefficient_in_every_branch(self, value):
        p, q = value.numerator, value.denominator
        for ray in [(p, q), (-p, q), (q, -p), (-q, p), (-p, -q), (2 * p, 2 * q), (3 * q, -3 * p)]:
            assert format_class_label(ray, CODIM) == reference_class_label(ray, CODIM), ray
        assert REFERENCE_VULGAR[value] in format_class_label((-p, q), CODIM)

    @settings(max_examples=300)
    @given(_RAY_ENTRY, _RAY_ENTRY)
    def test_random_rays_in_all_quadrants(self, a, b):
        if (a, b) != (0, 0):
            assert format_class_label((a, b), CODIM) == reference_class_label((a, b), CODIM)


_JSON_TEXT = st.text(st.characters(exclude_categories=())  # with lone surrogates
                     | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\ud800\udfff😀'))
_JSON_TREE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**4000, 10**4000) | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=20,
)


class TestJsonWriter:
    @settings(max_examples=100)
    @given(_JSON_TREE)
    def test_bytes_of_the_standard_encoder(self, tree):
        assert render_json(tree) == json.dumps(tree, indent=2, ensure_ascii=False) + "\n"

    @pytest.mark.parametrize("value", [
        1.5, 0.0, (1, 2), Fraction(1, 2), {1: "a"}, {None: "a"}, {("a",): 1},
        {"rays": [[1, 0], (0, 1)]}, [{"x": [float("nan")]}], b"bytes",
    ])
    def test_other_values_refused(self, value):
        with pytest.raises(TypeError):
            render_json(value)


class TestPayloads:
    def test_machine_form_round_trips(self):
        payload = demo_payload(quintic_conifold_scenario())
        assert json.loads(render_json(payload)) == payload

    def test_boundary_pairings_certificate(self):
        sc = quintic_conifold_scenario()
        pairing = sc.pairing_matrix
        bal = balanced_cone(sc)
        values = {
            (e, b): pairing.pair(e, b)
            for e in sc.effective_cone
            for b in bal
        }
        assert all(v >= 0 for v in values.values())
        assert values[((1, 0), (1, 0))] == 0
        assert values[((-1, 1), (-1, 4))] == 0

    def test_text_rendering_deterministic(self):
        payload = gap_payload(quintic_conifold_scenario())
        assert render_text(payload) == render_text(payload)
        assert "\x1b[" not in render_text(payload)
        assert "\x1b[1m" in render_text(payload, color=True)


def test_text_form_by_value_type():
    payload = {
        "section": {"inner": {"x": "1/2"}, "flag": True},
        "matrix": [["0", "-16"], ["4", "5"]],
        "entries": [{"name": "E1", "coords": [-1, 1]}, {"name": "E2", "coords": [-1, 4]}],
        "empty": [],
        "none": None,
        "yes": True,
        "no": False,
        "zero": 0,
        "one": 1,
        "pairs": [[1, 0], [-1, 4]],
        "rows": [[1, 1, 1, 1], [2, 0, 1, 3]],
        "names": ["α", "β"],
        "mixed": [0, 1, True, None],
    }
    # An empty list keeps the trailing space after its colon, as the goldens hold.
    assert render_text(payload) == """\
section:
  inner:
    x: 1/2
  flag: true
matrix:
  [   0  -16 ]
  [   4    5 ]
entries:
  - name: E1
    coords: -1, 1
  - name: E2
    coords: -1, 4
empty: 
none: none
yes: true
no: false
zero: 0
one: 1
pairs: (1, 0), (-1, 4)
rows: (1, 1, 1, 1), (2, 0, 1, 3)
names: α, β
mixed: 0, 1, true, none
"""


@pytest.mark.parametrize("n", [4, 7])
def test_payloads_run_no_ring_products(n, monkeypatch):
    """Building the scenario runs the κ DP, the program's one pass of products in
    the cohomology ring, once; no payload runs it again."""
    commands = [
        ["demo"], ["gap"], ["image"], ["balanced"], ["pairing"],
        ["dual", "--rays", "-1,4", "1,0"], ["bound", "E1", "1,1"],
        ["intersect", "α"] + ["β"] * (n - 2), ["intersect", "α", "c1"],
    ]
    calls = []
    kappa = CompleteIntersection.kappa
    monkeypatch.setattr(CompleteIntersection, "kappa", lambda *a: calls.append(1) or kappa(*a))
    parser = build_parser()
    sc = document_to_scenario(pn_document(n))
    for argv in commands:
        run_command(sc, parser.parse_args(argv))
    assert calls == [1]


def test_gap_report_computed_once_per_scenario(monkeypatch):
    """demo, gap and the SVG of one scenario share one image closure; a second
    parse of the same text is a new object and computes its own."""
    calls = []
    closure = balcone.pipeline.balanced_image_closure
    monkeypatch.setattr(balcone.pipeline, "balanced_image_closure",
                        lambda sc: calls.append(1) or closure(sc))
    sc = parse_scenario(balcone.DEMO_SCENARIO_JSON)
    demo_payload(sc)
    gap_payload(sc)
    render_cone_diagram(gap_payload(sc))
    assert len(calls) == 1
    gap_payload(parse_scenario(balcone.DEMO_SCENARIO_JSON))
    assert len(calls) == 2


def test_public_api():
    """Cones, scenarios, results read from κ, and errors; no cohomology ring classes."""
    assert balcone.__all__ == """
        AmbientSpace CompleteIntersection Cone2D ComputationError DEMO_SCENARIO_JSON
        DegeneratePairingError DegreeMismatchError GapReport GeometryError Pairing Ray
        Scenario ScenarioError UnknownNameError ValidationError balanced_cone
        balanced_image_closure divisor_bound_functional dual_cone gap_report
        integrate_forms parse_scenario quintic_conifold_scenario scenario_to_document
        serialize_scenario
    """.split()
    assert all(hasattr(balcone, name) for name in balcone.__all__)
