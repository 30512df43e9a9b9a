import json
import re

import pytest

from balcone.cli import main
from balcone.cones import det2
from balcone.errors import ValidationError
from balcone.scenario_io import DEMO_SCENARIO_JSON, quintic_conifold_scenario
from balcone.report import demo_payload, gap_payload, pairing_payload
from balcone.svg import render_cone_diagram


@pytest.fixture(scope="module")
def gap_doc():
    return gap_payload(quintic_conifold_scenario())


class TestRender:
    def test_starts_with_svg(self, gap_doc):
        assert render_cone_diagram(gap_doc).startswith("<svg")

    def test_three_wedges(self, gap_doc):
        assert render_cone_diagram(gap_doc).count('class="wedge"') == 3

    def test_labels_present(self, gap_doc):
        svg = render_cone_diagram(gap_doc)
        assert "α∧β" in svg
        assert "β∧β−¼α∧β" in svg

    def test_label_markup_escaped(self, gap_doc):
        # &, < and > are escaped as html.escape(text, quote=False) does; quotes stay
        doc = dict(gap_doc, scenario=dict(gap_doc["scenario"], h11_basis=['a<&>"', "β"]))
        assert '>a&lt;&amp;&gt;"</text>' in render_cone_diagram(doc)

    def test_deterministic(self, gap_doc):
        assert render_cone_diagram(gap_doc) == render_cone_diagram(gap_doc)

    def test_demo_report_accepted(self):
        svg = render_cone_diagram(demo_payload(quintic_conifold_scenario()))
        assert svg.startswith("<svg")

    @pytest.mark.parametrize(
        "change, match",
        [
            (None, "cone data"),
            ({"scenario": {"kahler_cone": [[1, 0]]}}, "cone data"),
            ({"scenario": {"kahler_cone": [[1, 0], [0, 1, 0]]}}, "cone data"),
            ({"scenario": {"h11_basis": ["α"]}}, "two string names"),
            ({"scenario": {"codim_basis": ["α∧β", "β∧β", "α∧α"]}}, "two string names"),
            ({"scenario": {"h11_basis": [1, None]}}, "two string names"),
            ({"scenario": {"h11_basis": "αβ"}}, "two string names"),
            ({"scenario": {"codim_basis": "αβ"}}, "two string names"),
            ({"balanced_cone": {"rays": [[1, 0]] * 3}}, "cone data"),
            ({"image_closure": {"rays": [{1: 0, 0: 0}, [0, 1]]}}, "cone data"),
            ({"image_closure": {"rays": {(1, 0): 0, (0, 1): 0}}}, "cone data"),
            ({"image_closure": {"rays": [[1, 0], [1, 0]]}}, "parallel or antipodal"),
            ({"image_closure": {"rays": [[0, 1], [0, -1]]}}, "parallel or antipodal"),
        ],
        ids=["pairing-report", "one-ray", "three-entry-ray", "one-name-basis",
             "three-name-basis", "non-string-names", "h11-string", "codim-string",
             "three-ray-cone", "dict-ray", "dict-of-rays", "parallel-image", "antipodal-image"],
    )
    def test_report_without_cone_data_rejected(self, gap_doc, change, match):
        if change is None:
            doc = pairing_payload(quintic_conifold_scenario())
        else:
            doc = dict(gap_doc, **{k: dict(gap_doc[k], **v) for k, v in change.items()})
        with pytest.raises(ValidationError, match=match):
            render_cone_diagram(doc)

    def test_boolean_ray_entry_rejected(self, gap_doc):
        doc = dict(gap_doc, image_closure=dict(gap_doc["image_closure"], rays=[[True, 0], [0, 1]]))
        with pytest.raises(ValidationError, match="ray entries must be integers"):
            render_cone_diagram(doc)


class TestRenderCommand:
    def test_bytes_identical_across_runs(self, tmp_path, capsys):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        assert main(["render", "--out", str(a)]) == 0
        assert main(["render", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_render(self, capsys):
        assert main(["render"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("<svg")

    def test_unwritable_path(self, capsys, tmp_path):
        code = main(["render", "--out", str(tmp_path / "missing-dir" / "x.svg")])
        capsys.readouterr()
        assert code == 4


def test_wedge_across_the_negative_x_axis(tmp_path, capsys):
    # The quintic with codim basis (−β∧β, α∧β): a quarter turn of the shipped
    # coordinates, so the balanced cone runs from (0, 1) past (−1, 0) to (−4, −1).
    doc = json.loads(DEMO_SCENARIO_JSON)
    doc["codim_basis"] = [{"name": "c1", "expr": "-β*β"}, {"name": "c2", "expr": "α*β"}]
    scenario, out = tmp_path / "turned.json", tmp_path / "turned.svg"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["gap", "--scenario", str(scenario), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["balanced_cone"]["rays"] == [[0, 1], [-4, -1]]
    assert main(["render", "--scenario", str(scenario), "--out", str(out)]) == 0
    balanced_wedge = re.findall(r'class="wedge" d="M 0 0 L ([^"]*) Z"', out.read_text())[1]
    # SVG's y axis points down, so the arc point (x, y) is the vector (x, −y).
    arc = [(x, -y) for x, y in (map(float, p.split()) for p in balanced_wedge.split(" L "))]
    assert all(det2((0, 1), v) > -1e-6 and det2(v, (-4, -1)) > -1e-6 for v in arc)
    assert min(x for x, _ in arc) < -149  # the arc passes (−150, 0)
