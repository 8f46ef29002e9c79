"""The command line's error contract.

Every error type carries its exit code, and no input, however broken,
makes a subcommand escape with a traceback: it exits 0, 1, 2 or 3, and
on failure prints exactly one JSON object on stderr.
"""
from __future__ import annotations

import copy
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reebound import (
    assign_all,
    assignment_to_dict,
    build_reeb,
    cli,
    distance_bound,
    errors,
    essential_subgraph,
    graph_dumps,
    graph_to_dict,
)
from reebound.errors import ReeboundError
from reebound.gen import MAX_SADDLES
from reebound.graph import ValidationReport, Violation

from _fixtures import (
    TETRA_OFF,
    field_text,
    monkey_bipyramid,
    octa_sphere,
    off_text,
    single_edge_graph,
    theta_graph,
    torus_reeb_by_hand,
    vertical_torus,
    y_graph,
)

#: The code each error type exited with when cli.py mapped types to codes,
#: and for types added since, the code of their family: a bad window
#: argument is a parameter error, a failed mesh sweep or a broken witness
#: cycle an algorithm error.
EXPECTED_EXIT = {
    "InvalidGraph": 1, "MalformedMesh": 1, "NotAManifold": 1,
    "NotOrientable": 1, "DegenerateField": 1,
    "MalformedGraph": 3, "ParseError": 3,
    "NonGenericCut": 2, "EmptyWindow": 2, "NoLowerBoundary": 2,
    "NoUpperBoundary": 2, "ConflictingPropagation": 2,
    "NonConsecutiveFrontier": 2,
    "NothingToAssign": 2, "BrokenUniqueness": 2, "IncompleteAssignment": 2,
    "InvariantViolation": 2, "BadWitnessFraction": 2, "OpenCycle": 2,
    "MissingWitness": 2, "ReebTopologyMismatch": 2, "GenerationFailed": 2,
    "BadWindow": 2, "ContourSweepFailed": 2, "BadWitness": 2,
}
REPORTING = {"InvalidGraph", "InvariantViolation"}
#: The only errors that may exit 3: a graph or a mesh that does not parse,
#: or an input file that is not UTF-8.
PARSE_ERRORS = {"MalformedGraph", "ParseError", "UnicodeDecodeError"}

ERROR_TYPES = sorted(
    (cls for name, cls in vars(errors).items()
     if isinstance(cls, type) and issubclass(cls, ReeboundError)
     and cls is not ReeboundError and not name.startswith("_")),
    key=lambda cls: cls.__name__)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def one_json_object(err: str) -> dict:
    lines = err.splitlines()
    assert len(lines) == 1 and err.endswith("\n"), err
    payload = json.loads(lines[0])
    assert isinstance(payload, dict)
    return payload


def test_every_error_type_is_mapped():
    assert [cls.__name__ for cls in ERROR_TYPES] == sorted(EXPECTED_EXIT)


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_error_type_exit_code(cls, monkeypatch):
    name = cls.__name__
    assert cls.exit_code == EXPECTED_EXIT[name]
    if name in REPORTING:
        exc = cls(ValidationReport((Violation("SomeRule", ("v",), "note"),)))
    else:
        exc = cls("boom")

    def raiser(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_gen", raiser)
    code, out, err = run(["gen", "--seed", "0", "--saddles", "1"])
    assert code == EXPECTED_EXIT[name]
    assert out == ""
    payload = one_json_object(err)
    assert payload["error"] == name
    assert payload["message"] == str(exc)
    assert ("violations" in payload) == (name in REPORTING)


@pytest.mark.parametrize("argv", [
    ["from-mesh", "{bad}", "{good}"],
    ["from-mesh", "{good_off}", "{bad}"],
    ["assign", "{bad}"],
], ids=["mesh", "field", "graph"])
def test_non_utf8_file_exits_3(tmp_path, argv):
    paths = {"bad": tmp_path / "bad", "good": tmp_path / "t.fld",
             "good_off": tmp_path / "t.off"}
    paths["bad"].write_bytes(b"OFF\n\xff\xfe\n")
    paths["good"].write_text("0 1 2 3\n", encoding="utf-8")
    paths["good_off"].write_text(TETRA_OFF, encoding="utf-8")
    code, out, err = run([a.format(**paths) for a in argv])
    assert (code, out) == (3, "")
    assert one_json_object(err)["error"] == "UnicodeDecodeError"


def test_value_error_inside_a_command_propagates(monkeypatch):
    # a ValueError that is not a ReeboundError is a defect, not bad input
    def raiser(args):
        raise ValueError("defect")

    monkeypatch.setattr(cli, "_cmd_gen", raiser)
    with pytest.raises(ValueError, match="defect"):
        run(["gen", "--seed", "0", "--saddles", "1"])


# -- fuzzing ------------------------------------------------------------------

FUZZ = settings(derandomize=True, deadline=None, database=None,
                max_examples=150,
                suppress_health_check=[HealthCheck.too_slow])


def check_contract(argv):
    """Run one command and check the exit code and stderr contract."""
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == ""
    elif argv[0] == "validate" and code == 1:
        # a failing report is validate's output, not an error
        assert err == ""
        assert json.loads(out)["ok"] is False
    else:
        payload = one_json_object(err)
        if code == 3:
            # exit 3 means the input did not parse; a fault inside the
            # package must not read as one
            assert payload["error"] in PARSE_ERRORS, payload


def _assignment_payload(g, trace):
    sub = essential_subgraph(g)
    p = assign_all(sub)
    return assignment_to_dict(p, distance_bound(sub, p), include_trace=trace)


_octa_surface, _octa_field = octa_sphere()
GRAPHS = [graph_to_dict(g) for g in (
    single_edge_graph(), y_graph(), theta_graph(), torus_reeb_by_hand(),
    build_reeb(_octa_surface, _octa_field))]
ASSIGNMENTS = [_assignment_payload(g, trace)
               for g in (single_edge_graph(), theta_graph())
               for trace in (False, True)]
RENDER_GRAPH = graph_dumps(theta_graph())

#: JSON text swapped in for one value of a valid payload.
SCALARS = st.one_of(
    st.sampled_from(["1e400", "-1e400", "NaN", "Infinity", "-Infinity",
                     "1" + "0" * 400, "null", "true", "false", "0", "-1",
                     "0.5", '""', '"x"', '"essential"', '"regular"', "[]",
                     "[1]", '["a", "b"]', "{}", '{"a": 1}']),
    st.integers().map(str),
    st.floats().map(json.dumps),
    st.text(max_size=6).map(json.dumps),
)
ARBITRARY = st.one_of(st.text(max_size=200), st.binary(max_size=200))
LEVEL_ARG = st.one_of(
    st.sampled_from(["0", "0.25", "0.4", "0.5", "0.6", "1", "2", "-0.5",
                     "1e400", "inf", "nan"]),
    st.floats(-2.0, 2.0).map(lambda x: "%.6f" % x))
WINDOW = st.one_of(st.just([]), st.tuples(LEVEL_ARG, LEVEL_ARG).map(
    lambda w: ["--window", w[0], w[1]]))
GRAPH_COMMANDS = st.sampled_from([
    ["validate"], ["validate", "--allow-regular", "--no-coverage"],
    ["assign"], ["assign", "--allow-regular", "--check-invariants", "--trace"],
    ["bound"], ["bound", "--check-invariants"], ["render"]])


def _paths(node, prefix=()):
    """Paths to every value below the root of a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def swapped(draw, payloads):
    """A valid payload as JSON text with one value replaced by a scalar."""
    payload = draw(st.sampled_from(payloads))
    path = draw(st.sampled_from(list(_paths(payload))))
    mark = "\x01swap\x01"
    data = copy.deepcopy(payload)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = mark
    return json.dumps(data).replace(json.dumps(mark), draw(SCALARS))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _write(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    return str(path)


@FUZZ
@given(command=GRAPH_COMMANDS, window=WINDOW,
       text=st.one_of(ARBITRARY, swapped(GRAPHS)))
def test_graph_commands_never_crash(fuzz_dir, command, window, text):
    graph = _write(fuzz_dir / "graph.json", text)
    check_contract(command + [graph] + window)


@FUZZ
@given(text=st.one_of(ARBITRARY, swapped(ASSIGNMENTS)))
def test_render_assignment_never_crashes(fuzz_dir, text):
    graph = _write(fuzz_dir / "render.json", RENDER_GRAPH)
    assignment = _write(fuzz_dir / "assignment.json", text)
    check_contract(["render", graph, "--assignment", assignment])


def _mesh_texts():
    out = [(TETRA_OFF, "0\n1\n2\n3\n")]
    for surface, field in (octa_sphere(), monkey_bipyramid(),
                           vertical_torus(6, 4)):
        out.append((off_text(surface), field_text(field)))
    return out


MESHES = _mesh_texts()
MESH_TOKENS = st.one_of(
    st.sampled_from(["0", "1", "-1", "3", "4", "99", "1e400", "-1e400",
                     "nan", "1.5", "x", "", "1.7976931348623157e308",
                     "-1e308", "1e308"]),
    st.integers(-2, 40).map(str),
    st.floats().map(repr))


@st.composite
def mutated_lines(draw, text):
    """The lines of ``text`` with one token replaced, or one line dropped,
    duplicated or swapped with another, or left as they are."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["token", "drop", "dup", "swap", "keep"]))
    if how == "token":
        tokens = lines[i].split() or [""]
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(MESH_TOKENS)
        lines[i] = " ".join(tokens)
    elif how == "drop":
        del lines[i]
    elif how == "dup":
        lines.insert(i, lines[i])
    elif how == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines) + "\n"


@st.composite
def mesh_inputs(draw):
    off, field = draw(st.sampled_from(MESHES))
    if draw(st.booleans()):
        off = draw(st.one_of(mutated_lines(off), ARBITRARY))
    else:
        field = draw(st.one_of(mutated_lines(field), ARBITRARY))
    return off, field


@FUZZ
@given(mesh=mesh_inputs(), window=WINDOW,
       fraction=st.one_of(st.just([]), LEVEL_ARG.map(
           lambda f: ["--witness-fraction", f])))
def test_from_mesh_never_crashes(fuzz_dir, mesh, window, fraction):
    off = _write(fuzz_dir / "mesh.off", mesh[0])
    field = _write(fuzz_dir / "mesh.field", mesh[1])
    check_contract(["from-mesh", off, field] + window + fraction)


#: Saddle counts and biases inside, at and just past the documented
#: ranges [0, MAX_SADDLES] and [0, 1].  No count asks for more than
#: MAX_SADDLES saddles, so no run takes long.
SADDLE_COUNTS = st.one_of(
    st.integers(-3, 40),
    st.sampled_from([MAX_SADDLES, MAX_SADDLES + 1, 10**30, -10**30]))
BIASES = st.one_of(
    st.floats(-0.5, 1.5),
    st.sampled_from([0.0, -0.0, 1.0, math.nextafter(0.0, -1.0),
                     math.nextafter(1.0, 2.0), math.inf, -math.inf,
                     math.nan]))


@FUZZ
@given(seed=st.integers(), saddles=SADDLE_COUNTS, pbias=BIASES,
       ibias=BIASES)
def test_gen_never_crashes(seed, saddles, pbias, ibias):
    # the "=" form, so that values such as -inf are not read as options
    code, out, err = run(["gen", "--seed=%d" % seed, "--saddles=%d" % saddles,
                          "--parallel-bias=%r" % pbias,
                          "--inessential-bias=%r" % ibias])
    if 0 <= saddles <= MAX_SADDLES and 0 <= pbias <= 1 and 0 <= ibias <= 1:
        assert (code, err) == (0, "")
        assert json.loads(out)["meta"]["generator"]["seed"] == seed
    else:
        assert (code, out) == (EXPECTED_EXIT["GenerationFailed"], "")
        assert one_json_object(err)["error"] == "GenerationFailed"
