"""Command-line behavior: outputs, exit codes, pipeline composition."""
from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reebound import GenParams, graph_dumps, graph_loads, random_reeb
from reebound.cli import main

from _fixtures import (
    TETRA_OFF,
    chained_tori,
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
                                        ("nan", "0.8"), ("-inf", "0.8"),
                                        ("0.2", "-inf"), ("-nan", "0.8")])
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

    @pytest.mark.parametrize("vertex", [
        '{"id": "a", "level": %s, "kind": "saddle"}' % ("1" * 5000),
        '{"id": null, "level": 0.5, "kind": "saddle"}',
    ], ids=["level-of-5000-digits", "null-id"])
    def test_unreadable_vertex_exits_3(self, capsys, tmp_path, vertex):
        path = tmp_path / "g.json"
        path.write_text('{"lo": 0, "hi": 1, "vertices": [%s], "edges": []}' % vertex)
        code, out, err = run_main(capsys, "validate", str(path))
        assert (code, out) == (3, "")
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "MalformedGraph"


class TestGraphErrorPaths:
    """Messages of the graph loader and of restrict, through the CLI."""

    @pytest.mark.parametrize("edit, window, code, error, message", [
        (lambda d: d.update(lo=1.0, hi=0.0), (), 3, "MalformedGraph",
         "window lo must be below hi"),
        (lambda d: d["edges"].append(d["edges"][0]), (), 3, "MalformedGraph",
         "duplicate edge id 'e0'"),
        # inside the graph's window, but above its only edge, which the
        # edit ends at 0.5
        (lambda d: d["vertices"][1].update(level=0.5), ("0.6", "0.9"), 2,
         "EmptyWindow", "no edge meets (0.6, 0.9)"),
    ], ids=["window-order", "duplicate-edge", "window-between-edges"])
    def test_message_and_exit_code(self, capsys, tmp_path, edit, window,
                                   code, error, message):
        data = json.loads(graph_dumps(single_edge_graph()))
        edit(data)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        argv = ["assign", str(path)] + (["--window", *window] if window else [])
        got, out, err = run_main(capsys, *argv)
        assert got == code
        assert out == ""
        assert json.loads(err) == {"error": error, "message": message}

    @pytest.mark.parametrize("vertices, edges, message", [
        # the first fault met in (level, id) order is named: a's repeat
        # below b at +inf, b's level at -inf below a's repeat
        ((("a", 0.2), ("a", 0.3), ("b", float("inf"))), (),
         "duplicate vertex id 'a'"),
        ((("a", 0.2), ("a", 0.3), ("b", -float("inf"))), (),
         "level of vertex b must be a finite number, got -inf"),
        ((("a", 0.5),), (("e1", "a", "a"), ("e1", "a", "zz")),
         "duplicate edge id 'e1'"),
    ], ids=["duplicate-before-level", "level-before-duplicate",
            "duplicate-edge-before-missing-end"])
    def test_first_of_two_faults_named(self, capsys, tmp_path, vertices,
                                       edges, message):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({
            "lo": 0.0, "hi": 1.0,
            "vertices": [{"id": vid, "level": level, "kind": "saddle"}
                         for vid, level in vertices],
            "edges": [{"id": eid, "lower": lower, "upper": upper,
                       "label": "essential"} for eid, lower, upper in edges]}))
        code, out, err = run_main(capsys, "validate", str(path))
        assert (code, out) == (3, "")
        assert err == '{"error": "MalformedGraph", "message": %s}\n' % json.dumps(message)

    def test_stdin_matches_file(self, capsys, monkeypatch, tmp_path):
        text = graph_dumps(theta_graph())
        path = tmp_path / "g.json"
        path.write_text(text)
        from_file = run_main(capsys, "assign", str(path), "--trace")
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert run_main(capsys, "assign", "-", "--trace") == from_file
        assert from_file[0] == 0


class TestCommandLine:
    """Every usage error is one JSON line, and a window end written as any
    float literal with a leading minus is a number, not an option."""

    @pytest.mark.parametrize("lo", ["-1e-3", "-1E+2", "-.5"])
    def test_negative_literal_reads_as_padded(self, capsys, tmp_path, lo):
        # a leading space keeps argparse from reading the value as an option
        path = tmp_path / "g.json"
        path.write_text(graph_dumps(random_reeb(GenParams(seed=7, saddle_count=12))))
        padded = run_main(capsys, "bound", str(path), "--window", " " + lo, "0.9")
        assert padded[0] == 0
        assert run_main(capsys, "bound", str(path), "--window", lo, "0.9") == padded

    @pytest.mark.parametrize("argv, message", [
        (["bound", "--bogus", "{g}"], "reebound: unrecognized arguments: --bogus"),
        (["assign"], "reebound assign: the following arguments are required: graph"),
        (["gen", "--seed", "x", "--saddles", "1"],
         "reebound gen: argument --seed: invalid int value: 'x'"),
        ([], "reebound: the following arguments are required: command"),
    ], ids=["unknown-option", "missing-graph", "bad-int", "no-subcommand"])
    def test_usage_error_is_one_json_line(self, capsys, single_edge_file, argv,
                                          message):
        code, out, err = run_main(capsys, *(a.format(g=single_edge_file) for a in argv))
        assert (code, out) == (3, "")
        assert err == '{"error": "ParseError", "message": %s}\n' % json.dumps(message)

    @pytest.mark.parametrize("argv", [["--help"], ["bound", "-h"]])
    def test_help_prints_usage_and_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        captured = capsys.readouterr()
        assert info.value.code == 0
        assert captured.out.startswith("usage: reebound")
        assert captured.err == ""


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

    def test_vertex_named_like_a_cut_point(self, capsys, tmp_path):
        # saddle v1 renamed to the id restrict gives e0's lower cut point
        text = graph_dumps(random_reeb(GenParams(seed=3, saddle_count=4)))
        outs = []
        for name, graph in (("orig", text),
                            ("renamed", text.replace('"v1"', '"cut:e0:lo"'))):
            path = tmp_path / ("%s.json" % name)
            path.write_text(graph)
            for window in ((), ("--window", "0.1", "1.0")):
                code, out, err = run_main(capsys, "bound", str(path), *window)
                assert (code, err) == (0, "")
                outs.append(out)
        assert len(set(outs)) == 1
        assert json.loads(outs[0])["bound"] == 3


#: SHA-256 of what ``assign --trace`` and ``bound`` print per generator
#: graph (seed, saddles, parallel bias, inessential bias, window), recorded
#: while vertices, edges and trace entries were frozen dataclasses: building
#: them as tuples must keep every output byte.
PIPELINE_SHA256 = {
    (0, 0, 0.25, 0.35, None): (
        "37929f1c5f49ba6504f3225e0eaf1abc84e83a62f121abb88faeac214e6f7ddf",
        "061e12feaf50dd214277a2b4058462a7b801668a877cacf0c93fbfea15df3d26"),
    (1, 3, 0.0, 0.0, None): (
        "55e46c2f79392b7fd43fd8e38e6e23bbb55c4c06f1cc032021b1e0345b85218d",
        "f13a5c71879477982b9ccb6f4f9f8f88d7e3e75a3876975499f2ee219f92a6ee"),
    (2, 12, 1.0, 0.5, None): (
        "8d9aeb401a2551de0f19d533b8897d1b63b10f12f69debe543372e932293ed03",
        "84d663a632e952b13eb8807d3156ab58266503677e2131e9455269c7f554d062"),
    (3, 12, 0.5, 1.0, None): (
        "9d52d7d30898cca4af3b7d13843954b847ec88d80d210c062e627a878573123f",
        "6fa35e587b0d51f2a7e0173581552bb6e8ce859f4d6f642af92bcc6d1751c7bd"),
    (4, 40, 0.25, 0.35, None): (
        "54fc3527ef10816920c8cb394724e4f4b574b57e144ed958ece1ce6a62e1e353",
        "19c47873eae050a9164e5159239ddb1043bb15298c37713dd3e92f47d0aa0680"),
    (5, 40, 0.0, 0.9, None): (
        "278e73e4a4e3e449122dae8883282e657b6853ee6decadc82eb2039bb4d7b5ee",
        "ff4df69c17be25c22964afc25cea5595bd8ed71bf6a1f22c2d6d477abd34c003"),
    (6, 100, 0.25, 0.35, None): (
        "1494e7d8eb06575bb9ab528861ee129b9112ee4e274dec0a68abece85eaceae4",
        "b1a14d00ef13ee490529be26a4b1f66994c1ece94d234f1c2b05039f8c8b35a7"),
    (7, 100, 1.0, 0.0, None): (
        "9e92b761697caba431bd9437167ccfa6e8ee52648491a21e9e4854a03bb0ca3f",
        "e8d735b607e85de581c31e948184c2692ba1d64fb693d985ea889d899b78a01f"),
    (8, 200, 0.5, 0.5, None): (
        "758217b5d5ac9181767c2d25b4b07e1c420adc3826525232b3c28493e3185306",
        "08b719f617f08d2eef539458e0ac4236fb4526c88555c766f2332ec5937a24df"),
    (9, 400, 0.25, 0.35, None): (
        "1985b8680adf1d51231b9125ba82ea98e791854f00556765ee9d12e66a9ea9f4",
        "72580451714c1f3739ef2c12a605fa5b2c0ef4d9c8f4bb0c67a9ff31d09d18b6"),
    (10, 400, 0.0, 0.0, None): (
        "7c0acb291ce4dfa8e69e25fd2ebfa7b05e84b5ab829310b08ae239e032263fa1",
        "110d84cd688a454e84fb0a4d2bcafd5f1c17bf46b9a526854cfa63d67e447988"),
    (11, 400, 1.0, 1.0, None): (
        "7d2a6bce60b6f262c781952d853f0940b140a5476050a356f395af87afd337aa",
        "859d7d77b20b3ff75029a61934aebaa74d48d24764c100cf73112bff2f3eb6f5"),
    (4, 40, 0.25, 0.35, (0.3, 0.7)): (
        "6375a2ad4b35517261fa973d8487a42fc40e754d867ede547d4b479776a506ae",
        "52872cfce4efdd2757eab3ee5a5f9e34d635fe0991b8c7109a05792ab91f6547"),
    (9, 400, 0.25, 0.35, (0.25, 0.6)): (
        "cd8a192f34c740680f48f3edfbff47a6dde6d489c596c9423efda5d4472a5345",
        "76e0e7c1032f24bf291aa27659ab8a8646e0f4cff25fc1b506184f399f99402b"),
}


class TestPipelinePinned:
    def test_assign_and_bound_bytes_pinned(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        got = {}
        for seed, saddles, pbias, ibias, window in PIPELINE_SHA256:
            path.write_text(graph_dumps(random_reeb(GenParams(
                seed=seed, saddle_count=saddles, parallel_edge_bias=pbias,
                inessential_bias=ibias))))
            argv = [str(path)]
            if window:
                argv += ["--window", repr(window[0]), repr(window[1])]
            digests = []
            for command, *flags in (("assign", "--trace"), ("bound",)):
                code, out, err = run_main(capsys, command, *argv, *flags)
                assert (code, err) == (0, "")
                digests.append(hashlib.sha256(out.encode()).hexdigest())
            got[seed, saddles, pbias, ibias, window] = tuple(digests)
        assert got == PIPELINE_SHA256


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

    @pytest.mark.parametrize("which", [0, 1], ids=["mesh", "field"])
    def test_stdin_matches_file(self, capsys, monkeypatch, torus_files, which):
        # either input, but only one, may be read from stdin as "-"
        from_file = run_main(capsys, "from-mesh", *torus_files)
        argv = list(torus_files)
        argv[which] = "-"
        monkeypatch.setattr(sys, "stdin", io.StringIO(Path(torus_files[which]).read_text()))
        assert run_main(capsys, "from-mesh", *argv) == from_file
        assert from_file[0] == 0

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

    def test_render_svg_and_output_writes_both(self, capsys, single_edge_file,
                                               tmp_path):
        # with --svg given, the DOT still goes to --output when no --dot is
        _, dot, _ = run_main(capsys, "render", single_edge_file)
        svg, out = tmp_path / "s.svg", tmp_path / "d.dot"
        code, stdout, err = run_main(capsys, "render", single_edge_file,
                                     "--svg", str(svg), "-o", str(out))
        assert (code, stdout, err) == (0, "", "")
        assert out.read_text() == dot
        assert svg.read_text().startswith("<svg")

    def test_render_defaults_to_stdout_dot(self, capsys, single_edge_file):
        code, out, _ = run_main(capsys, "render", single_edge_file)
        assert code == 0
        assert out.startswith("digraph")

    @pytest.mark.parametrize("payload", ['{"n_min": 1}', '[1, 2]',
                                         '{"edges": [1]}',
                                         '{"edges": {"e0": "x"}}',
                                         '{"edges": {"e": 1e400}}',
                                         '{"edges": {"e0": 1.9}}',
                                         '{"edges": {"e0": "7"}}',
                                         '{"edges": {"e0": true}}',
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


def test_mesh_window_piped_into_bound(tmp_path):
    # from-mesh cuts chained_tori(4)'s Reeb graph to a window, and bound
    # reads it from stdin, checked or not
    surface, field = chained_tori(4)
    off, fld = tmp_path / "c4.off", tmp_path / "c4.field"
    off.write_text(off_text(surface))
    fld.write_text(field_text(field))
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    cli = [sys.executable, "-m", "reebound.cli"]
    mesh = subprocess.run(cli + ["from-mesh", str(off), str(fld), "--window", "0.0", "3.5"],
                          capture_output=True, text=True, env=env)
    assert (mesh.returncode, mesh.stderr) == (0, "")
    for flags in ((), ("--check-invariants",)):
        proc = subprocess.run(cli + ["bound", "-", *flags], input=mesh.stdout,
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, '{"per_boundary_edge":{"e3":2},"n_min":2,"bound":3}\n', "")
