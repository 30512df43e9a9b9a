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

    def test_report_without_cone_data_rejected(self):
        with pytest.raises(ValidationError, match="cone data"):
            render_cone_diagram(pairing_payload(quintic_conifold_scenario()))


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
