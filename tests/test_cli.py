import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import balcone
from balcone.cli import main
from balcone.scenario_io import DEMO_SCENARIO_JSON

from _helpers import pn_document


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDemo:
    def test_json_reparses_with_expected_fields(self, capsys):
        code, out, _ = run(capsys, "demo", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        values = {
            tuple(entry["factors"]): entry["value"]
            for entry in doc["intersection_numbers"]
        }
        assert values[("α", "β", "β")] == "4"
        assert values[("β", "β", "β")] == "5"
        assert doc["pairing_matrix"] == [["0", "4"], ["4", "5"]]
        assert doc["pairing_determinant"] == "-16"
        assert doc["image_closure"]["rays"] == [[1, 0], [0, 1]]
        assert doc["balanced_cone"]["rays"] == [[1, 0], [-1, 4]]
        assert doc["balanced_cone"]["labels"] == ["α∧β", "β∧β−¼α∧β"]
        assert doc["gap"]["strict"] is True
        assert doc["gap"]["witness"] == [-1, 8]

    def test_text_contains_rays(self, capsys):
        code, out, _ = run(capsys, "demo")
        assert code == 0
        assert "(1, 0), (-1, 4)" in out
        assert "determinant" in out


class TestIntersect:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "intersect", "α", "β", "β")
        assert code == 0
        assert "value: 4" in out

    def test_ascii_aliases(self, capsys):
        code, out, _ = run(capsys, "intersect", "alpha", "beta", "beta")
        assert code == 0
        assert "value: 4" in out
        assert "α, β, β" in out

    def test_codim_names_usable(self, capsys):
        code, out, _ = run(capsys, "intersect", "β", "alpha*beta")
        assert code == 0
        assert "value: 4" in out

    def test_degree_mismatch_exit_code(self, capsys):
        code, _, err = run(capsys, "intersect", "α", "β")
        assert code == 4
        assert "degree" in err

    def test_unknown_name_exit_code(self, capsys):
        code, _, err = run(capsys, "intersect", "γ", "β", "β")
        assert code == 2
        assert "unknown class name" in err


class TestScenarioLoading:
    def test_file_scenario(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(DEMO_SCENARIO_JSON, encoding="utf-8")
        code, out, _ = run(capsys, "pairing", "--scenario", str(path))
        assert code == 0
        assert "determinant: -16" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "pairing", "--scenario", str(tmp_path / "no.json"))
        assert code == 3
        assert "scenario error" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        code, _, err = run(capsys, "pairing", "--scenario", str(path))
        assert code == 3
        assert "line 1" in err

    def test_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(DEMO_SCENARIO_JSON.encode("utf-8").replace("α".encode("utf-8"), b"\xe1"))
        code, _, err = run(capsys, "demo", "--scenario", str(path))
        assert code == 3
        assert "cannot read scenario file" in err

    def test_json_nested_too_deep(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
        code, _, err = run(capsys, "demo", "--scenario", str(path))
        assert code == 3
        assert "nesting" in err

    @pytest.mark.parametrize("alpha, beta, failing", [
        pytest.param([0, 1], [10 ** 1500, 0], {"demo", "pairing", "bound"},
                     id="pairing-entries"),
        # cone rays, and so their labels, past the limit as well
        pytest.param([3, 10 ** 4000], [10 ** 4000, 0],
                     {"demo", "pairing", "bound", "intersect", "dual", "balanced", "gap", "render"},
                     id="cone-rays"),
    ])
    def test_results_too_long_to_print(self, capsys, tmp_path, alpha, beta, failing):
        """Numbers longer than int's string conversion limit: every command
        either answers or reports that limit with exit 4."""
        doc = json.loads(DEMO_SCENARIO_JSON)
        doc["h11_basis"][0]["multidegree"], doc["h11_basis"][1]["multidegree"] = alpha, beta
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        commands = [["demo"], ["intersect", "α", "β", "β"], ["pairing"], ["dual"], ["image"],
                    ["balanced"], ["gap"], ["bound", "E1", "1,1"], ["render"]]
        for argv in commands:
            formats = [()] if argv == ["render"] else [("--format", "text"), ("--format", "json")]
            for fmt in formats:
                code, _, err = run(capsys, *argv, "--scenario", str(path), *fmt,
                                   "--out", str(tmp_path / "out"))
                assert code == (4 if argv[0] in failing else 0), (argv, err)
                assert code == 0 or f"more than {sys.get_int_max_str_digits()} digits" in err

    def test_semantic_error_path(self, capsys, tmp_path):
        doc = json.loads(DEMO_SCENARIO_JSON)
        doc["kahler_cone"] = [[0, 0], [0, 1]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, _, err = run(capsys, "gap", "--scenario", str(path))
        assert code == 3
        assert "/kahler_cone" in err


class TestCommands:
    def test_balanced(self, capsys):
        code, out, _ = run(capsys, "balanced", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["balanced_cone"]["rays"] == [[1, 0], [-1, 4]]

    def test_image(self, capsys):
        code, out, _ = run(capsys, "image", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["image_closure"]["rays"] == [[1, 0], [0, 1]]

    def test_dual_defaults_to_effective(self, capsys):
        code, out, _ = run(capsys, "dual", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["dual_cone"]["rays"] == [[1, 0], [-1, 4]]

    def test_dual_explicit_rays(self, capsys):
        code, out, _ = run(capsys, "dual", "--rays", "1,0", "0,1", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["dual_cone"]["rays"] == [[1, 0], [-5, 4]]

    def test_dual_negative_ray(self, capsys):
        code, out, _ = run(capsys, "dual", "--rays", "-1,4", "1,0", "--format", "json")
        assert code == 0
        assert json.loads(out)["dual_cone"]["rays"] == [[1, 0], [-1, 1]]

    def test_bound_negative_ample_read_as_value(self, capsys):
        code, _, err = run(capsys, "bound", "E1", "-1,2")
        assert code == 3
        assert "ample coordinates must be strictly positive" in err

    def test_pair_in_exponent_notation_rejected(self, capsys):
        # Fraction("1e999999999") would expand a billion digits; 1e5000 keeps a regression quick.
        for argv in (["bound", "E1", "1e5000,1"], ["dual", "--rays", "1e5000,1", "0,1"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            assert "exponent notation" in capsys.readouterr().err
        code, out, _ = run(capsys, "bound", "E1", "3/2,0.5", "--format", "json")
        assert code == 0
        assert json.loads(out)["ample"] == ["3/2", "1/2"]

    @pytest.mark.parametrize("pair, message", [("1,2,3", "expected 'X,Y'"),
                                               ("1/0,1", "bad rational pair")])
    def test_malformed_rays_are_usage_errors(self, capsys, pair, message):
        with pytest.raises(SystemExit) as info:
            main(["dual", "--rays", pair, "0,1"])
        assert info.value.code == 2
        assert message in capsys.readouterr().err

    def test_bound(self, capsys):
        code, out, _ = run(capsys, "bound", "E1", "3,4", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["coefficients"] == ["16", "16"]

    def test_bound_on_fourfold(self, capsys, tmp_path):
        # P^5 x P^1 cut by (1,1), (5,1): the bound is ∫ D∧P∧A^2 here
        path = tmp_path / "p5.json"
        path.write_text(json.dumps(pn_document(5)), encoding="utf-8")
        code, out, _ = run(
            capsys, "bound", "E1", "1,1", "--scenario", str(path), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["coefficients"] == ["5", "11"]
        code, _, _ = run(capsys, "demo", "--scenario", str(path))
        assert code == 0

    def test_bound_unknown_prime(self, capsys):
        code, _, err = run(capsys, "bound", "E7", "3,4")
        assert code == 2
        assert "unknown prime divisor" in err

    def test_gap_json_rationals_reduced(self, capsys):
        code, out, _ = run(capsys, "gap", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["gap"]["generators"] == [[0, 1], [-1, 4]]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "demo", "--format", "json", "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["command"] == "demo"

    def test_render_takes_no_format(self, capsys):
        # render always writes SVG, so a requested format is a usage error, not ignored
        with pytest.raises(SystemExit) as info:
            main(["render", "--format", "json"])
        assert info.value.code == 2
        assert capsys.readouterr().out == ""

    def test_text_divisors_of_many_factors(self, capsys, tmp_path):
        # (P^1)^4 cut by (1,1,1,1): a divisor row of any length prints on one line
        path = tmp_path / "p1x4.json"
        path.write_text(json.dumps({
            "ambient": [1, 1, 1, 1],
            "divisors": [[1, 1, 1, 1]],
            "h11_basis": [{"name": "α", "multidegree": [1, 1, 0, 0]},
                          {"name": "β", "multidegree": [0, 0, 1, 1]}],
            "codim_basis": [{"name": "a", "expr": "α*α"}, {"name": "b", "expr": "α*β"}],
            "kahler_cone": [[1, 0], [0, 1]],
            "effective_cone": [[1, 0], [0, 1]],
        }), encoding="utf-8")
        code, out, _ = run(capsys, "gap", "--scenario", str(path))
        assert code == 0
        assert "\n  divisors: (1, 1, 1, 1)\n" in out

    def test_usage_error_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_no_color_env(self, capsys, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        code, out, _ = run(capsys, "pairing")
        assert code == 0
        assert "\x1b[" not in out


def test_cli_import_leaves_rendering_modules_unloaded():
    # balcone.svg, html and xml cost start-up time and memory on every command
    # that draws no figure, so only `render` may load them.  typing, pathlib,
    # dataclasses and inspect are loaded by nothing in balcone; -S keeps
    # site-packages' .pth files from loading them.
    src = str(Path(balcone.__file__).resolve().parent.parent)
    code = (
        "import sys; import balcone.cli; print(sorted(m for m in "
        "('balcone.svg', 'html', 'xml', 'typing', 'pathlib', 'dataclasses', 'inspect') "
        "if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.strip() == "[]"
