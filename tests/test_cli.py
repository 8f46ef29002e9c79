"""Command-line behavior: outputs, exit codes, pipeline composition."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reebound import graph_dumps, graph_loads
from reebound.cli import main

from _fixtures import (
    TETRA_OFF,
    field_text,
    monkey_bipyramid,
    off_text,
    saddle_parity_violation,
    single_edge_graph,
    theta_graph,
    vertical_torus,
)


@pytest.fixture
def single_edge_file(tmp_path):
    path = tmp_path / "single.json"
    path.write_text(graph_dumps(single_edge_graph()))
    return str(path)


@pytest.fixture
def torus_files(tmp_path):
    surface, field = vertical_torus()
    off = tmp_path / "torus.off"
    fld = tmp_path / "torus.field"
    off.write_text(off_text(surface))
    fld.write_text(field_text(field))
    return str(off), str(fld)


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAssign:
    def test_single_edge_exact_output(self, capsys, single_edge_file):
        code, out, err = run_main(capsys, "assign", single_edge_file)
        assert code == 0
        assert out == '{"edges":{"e0":1},"n_min":1,"bound":2}\n'

    def test_trace_flag_adds_trace(self, capsys, single_edge_file):
        code, out, _ = run_main(capsys, "assign", single_edge_file, "--trace")
        data = json.loads(out)
        assert list(data) == ["edges", "trace", "n_min", "bound"]
        assert data["trace"][0]["step"] == "step0"

    def test_theta_with_checks(self, capsys, tmp_path):
        path = tmp_path / "theta.json"
        path.write_text(graph_dumps(theta_graph()))
        code, out, _ = run_main(capsys, "assign", str(path),
                                "--check-invariants")
        assert code == 0
        data = json.loads(out)
        assert data["edges"] == {"e_a": 1, "e_b": 1, "e_c": 2,
                                 "e_d": 2, "e_e": 2}
        assert data["bound"] == 2

    def test_invalid_graph_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(graph_dumps(saddle_parity_violation()))
        code, out, err = run_main(capsys, "assign", str(path))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "InvalidGraph"

    def test_empty_window_exits_2(self, capsys, single_edge_file):
        code, _, err = run_main(capsys, "assign", single_edge_file,
                                "--window", "2.0", "3.0")
        assert code == 2
        assert json.loads(err)["error"] == "EmptyWindow"

    @pytest.mark.parametrize("window", [("nan", "nan"), ("0.2", "inf"),
                                        ("nan", "0.8")])
    def test_non_finite_window_exits_2(self, capsys, single_edge_file,
                                       window):
        code, out, err = run_main(capsys, "assign", single_edge_file,
                                  "--window", *window)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "BadWindow"

    def test_non_finite_graph_window_exits_3(self, capsys, tmp_path):
        # the graph's own window is the input's fault, not an argument's
        path = tmp_path / "nan.json"
        data = json.loads(graph_dumps(single_edge_graph()))
        data["lo"] = float("nan")
        path.write_text(json.dumps(data))
        code, out, err = run_main(capsys, "assign", str(path))
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == "MalformedGraph"

    def test_missing_file_exits_3(self, capsys):
        code, _, err = run_main(capsys, "assign", "/nonexistent.json")
        assert code == 3

    def test_malformed_json_exits_3(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{oops")
        code, _, err = run_main(capsys, "assign", str(path))
        assert code == 3
        assert json.loads(err)["error"] == "MalformedGraph"


class TestValidate:
    def test_ok_graph_exits_0(self, capsys, single_edge_file):
        code, out, _ = run_main(capsys, "validate", single_edge_file)
        assert code == 0
        assert json.loads(out) == {"ok": True, "violations": []}

    def test_violating_graph_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(graph_dumps(saddle_parity_violation()))
        code, out, _ = run_main(capsys, "validate", str(path))
        assert code == 1
        data = json.loads(out)
        assert data["ok"] is False
        assert {v["rule"] for v in data["violations"]} == {"SaddleParity"}


class TestBound:
    def test_bound_report(self, capsys, tmp_path):
        path = tmp_path / "theta.json"
        path.write_text(graph_dumps(theta_graph()))
        code, out, _ = run_main(capsys, "bound", str(path))
        assert code == 0
        data = json.loads(out)
        assert data == {"per_boundary_edge": {"e_a": 1, "e_e": 2},
                        "n_min": 1, "bound": 2}


class TestFromMesh:
    def test_window_pipeline(self, capsys, tmp_path, torus_files):
        off, fld = torus_files
        graph_path = tmp_path / "windowed.json"
        code, _, _ = run_main(capsys, "from-mesh", off, fld,
                              "--window", "0.45", "0.55",
                              "-o", str(graph_path))
        assert code == 0
        code, out, _ = run_main(capsys, "assign", str(graph_path))
        assert code == 0
        data = json.loads(out)
        assert sorted(data["edges"].values()) == [1, 1]
        assert data["bound"] == 2

    def test_output_is_valid_assign_input(self, capsys, tmp_path, torus_files):
        off, fld = torus_files
        code, out, _ = run_main(capsys, "from-mesh", off, fld)
        assert code == 0
        g = graph_loads(out)
        assert len(g.edges) == 4

    def test_bad_mesh_exits_1(self, capsys, tmp_path, torus_files):
        _, fld = torus_files
        bad = tmp_path / "bad.off"
        bad.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        code, _, err = run_main(capsys, "from-mesh", str(bad), fld)
        assert code == 1
        assert json.loads(err)["error"] == "NotAManifold"

    def test_degenerate_triangle_exits_1(self, capsys, tmp_path, torus_files):
        _, fld = torus_files
        bad = tmp_path / "degenerate.off"
        bad.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 1\n")
        code, out, err = run_main(capsys, "from-mesh", str(bad), fld)
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "MalformedMesh"

    def test_field_length_mismatch_exits_1(self, capsys, tmp_path):
        tetra = tmp_path / "tetra.off"
        tetra.write_text(TETRA_OFF)
        fld = tmp_path / "short.field"
        fld.write_text("0.0\n1.0\n2.0\n")
        code, out, err = run_main(capsys, "from-mesh", str(tetra), str(fld))
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "MalformedMesh"

    def test_monkey_saddle_exits_1(self, capsys, tmp_path):
        surface, field = monkey_bipyramid()
        off = tmp_path / "monkey.off"
        fld = tmp_path / "monkey.field"
        off.write_text(off_text(surface))
        fld.write_text(field_text(field))
        code, out, err = run_main(capsys, "from-mesh", str(off), str(fld))
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "DegenerateField"

    @pytest.mark.parametrize("values, code", [
        ("-1e308 0 1 1e308", 0), ("-1.7976931348623157e308 0 1 2", 1)])
    def test_extreme_field_values(self, capsys, tmp_path, values, code):
        tetra = tmp_path / "tetra.off"
        tetra.write_text(TETRA_OFF)
        fld = tmp_path / "extreme.field"
        fld.write_text(values)
        got, out, err = run_main(capsys, "from-mesh", str(tetra), str(fld))
        assert got == code
        if code == 0:
            assert graph_loads(out).lo == -sys.float_info.max
            assert err == ""
        else:
            assert out == ""
            assert json.loads(err)["error"] == "DegenerateField"

    def test_non_finite_window_exits_2(self, capsys, torus_files):
        off, fld = torus_files
        code, out, err = run_main(capsys, "from-mesh", off, fld,
                                  "--window", "nan", "2")
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "BadWindow"

    @pytest.mark.parametrize("fraction", ["1.5", "nan"])
    def test_bad_witness_fraction_exits_2(self, capsys, torus_files, fraction):
        off, fld = torus_files
        code, out, err = run_main(capsys, "from-mesh", off, fld,
                                  "--witness-fraction", fraction)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "BadWitnessFraction"


class TestGenRender:
    def test_gen_then_assign(self, capsys, tmp_path):
        gpath = tmp_path / "g.json"
        code, _, _ = run_main(capsys, "gen", "--seed", "5", "--saddles", "8",
                              "-o", str(gpath))
        assert code == 0
        code, out, _ = run_main(capsys, "assign", str(gpath),
                                "--check-invariants")
        assert code == 0
        assert json.loads(out)["bound"] >= 2

    def test_gen_deterministic(self, capsys):
        code, out1, _ = run_main(capsys, "gen", "--seed", "3", "--saddles", "6")
        code, out2, _ = run_main(capsys, "gen", "--seed", "3", "--saddles", "6")
        assert out1 == out2

    def test_gen_rejects_oversize(self, capsys):
        code, _, err = run_main(capsys, "gen", "--seed", "1",
                                "--saddles", "100000")
        assert code == 2
        assert json.loads(err)["error"] == "GenerationFailed"

    def test_render_dot_and_svg(self, capsys, tmp_path):
        gpath = tmp_path / "g.json"
        apath = tmp_path / "a.json"
        run_main(capsys, "gen", "--seed", "2", "--saddles", "5",
                 "-o", str(gpath))
        run_main(capsys, "assign", str(gpath), "-o", str(apath))
        dot = tmp_path / "g.dot"
        svg = tmp_path / "g.svg"
        code, _, _ = run_main(capsys, "render", str(gpath),
                              "--assignment", str(apath),
                              "--dot", str(dot), "--svg", str(svg))
        assert code == 0
        assert dot.read_text().startswith("digraph")
        assert svg.read_text().startswith("<svg")

    def test_render_svg_with_self_loop(self, capsys, tmp_path):
        # valid JSON that validate rejects (EdgeMonotone): the loop at b
        # is not open yet when b's incoming edges are closed
        gpath = tmp_path / "loop.json"
        gpath.write_text(json.dumps({
            "lo": 0.0, "hi": 1.0,
            "vertices": [{"id": "a", "level": 0.25, "kind": "center"},
                         {"id": "b", "level": 0.5, "kind": "center"}],
            "edges": [{"id": "e0", "lower": "a", "upper": "b",
                       "label": "inessential"},
                      {"id": "e1", "lower": "b", "upper": "b",
                       "label": "inessential"}]}))
        code, _, _ = run_main(capsys, "validate", str(gpath))
        assert code == 1
        svg = tmp_path / "loop.svg"
        code, out, err = run_main(capsys, "render", str(gpath),
                                  "--svg", str(svg))
        assert (code, out, err) == (0, "", "")
        assert svg.read_text().count("<line ") == 2

    def test_render_defaults_to_stdout_dot(self, capsys, single_edge_file):
        code, out, _ = run_main(capsys, "render", single_edge_file)
        assert code == 0
        assert out.startswith("digraph")

    @pytest.mark.parametrize("payload", ['{"n_min": 1}', '[1, 2]',
                                         '{"edges": [1]}',
                                         '{"edges": {"e0": "x"}}',
                                         '{"edges": {"e": 1e400}}',
                                         pytest.param("[" * 100_000,
                                                      id="deep-nesting")])
    def test_render_bad_assignment_exits_3(self, capsys, single_edge_file,
                                           tmp_path, payload):
        apath = tmp_path / "a.json"
        apath.write_text(payload)
        code, out, err = run_main(capsys, "render", single_edge_file,
                                  "--assignment", str(apath))
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ParseError"


def test_module_entry_point(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text(graph_dumps(single_edge_graph()))
    # run this checkout's package, not whichever copy is installed
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "reebound.cli", "assign", str(gpath)],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["bound"] == 2
