import json
from fractions import Fraction

import pytest

from balcone.cli import build_parser, run_command
from balcone.cones import Ray
from balcone.pipeline import balanced_cone, quintic_conifold_scenario
from balcone.report import (
    demo_payload,
    format_class_label,
    fmt_rational,
    gap_payload,
    render_json,
    render_text,
)
from balcone.ring import CohomClass
from balcone.scenario_io import document_to_scenario

from _helpers import pn_document

CODIM = ("α∧β", "β∧β")


class TestRationalSerialization:
    def test_reduced_positive_denominator(self):
        assert fmt_rational(Fraction(-1, 4)) == "-1/4"
        assert fmt_rational(Fraction(2, -8)) == "-1/4"
        assert fmt_rational(Fraction(4, 1)) == "4"
        assert fmt_rational(0) == "0"


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


class TestPayloads:
    def test_machine_form_round_trips(self):
        payload = demo_payload(quintic_conifold_scenario())
        assert json.loads(render_json(payload)) == payload

    def test_boundary_pairings_certificate(self):
        sc = quintic_conifold_scenario()
        pairing = sc.pairing_matrix
        bal = balanced_cone(sc)
        values = {
            (e.coords, b.coords): pairing.pair(e, b)
            for e in sc.effective_cone.generators()
            for b in bal.generators()
        }
        assert all(v >= 0 for v in values.values())
        assert values[((1, 0), (1, 0))] == 0
        assert values[((-1, 1), (-1, 4))] == 0

    def test_text_rendering_deterministic(self):
        payload = gap_payload(quintic_conifold_scenario())
        assert render_text(payload) == render_text(payload)
        assert "\x1b[" not in render_text(payload)
        assert "\x1b[1m" in render_text(payload, color=True)


@pytest.mark.parametrize("n", [4, 7])
def test_payloads_run_no_ring_products(n, monkeypatch):
    """The ring runs once per scenario, at construction; every payload reads κ."""
    sc = document_to_scenario(pn_document(n))
    commands = [
        ["demo"], ["gap"], ["image"], ["balanced"], ["pairing"],
        ["dual", "--rays", "-1,4", "1,0"], ["bound", "E1", "1,1"],
        ["intersect", "α"] + ["β"] * (n - 2), ["intersect", "α", "c1"],
    ]
    calls = []
    mul = CohomClass.__mul__
    monkeypatch.setattr(CohomClass, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    parser = build_parser()
    for argv in commands:
        run_command(sc, parser.parse_args(argv))
    assert calls == []
