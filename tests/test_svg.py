import pytest

from balcone.cli import main
from balcone.errors import ValidationError
from balcone.scenario_io import quintic_conifold_scenario
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
            ({"balanced_cone": {"rays": [[1, 0]] * 3}}, "cone data"),
            ({"image_closure": {"rays": [[1, 0], [1, 0]]}}, "parallel or antipodal"),
            ({"image_closure": {"rays": [[0, 1], [0, -1]]}}, "parallel or antipodal"),
        ],
        ids=["pairing-report", "one-ray", "three-entry-ray", "one-name-basis",
             "three-name-basis", "non-string-names",
             "three-ray-cone", "parallel-image", "antipodal-image"],
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
