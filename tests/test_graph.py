"""Core model: validation rules, restriction, essential subgraph, JSON."""
from __future__ import annotations

import json
import random
from math import copysign, nextafter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reebound import (
    EdgeLabel,
    GenParams,
    ReebEdge,
    ReebGraph,
    ReebVertex,
    VertexKind,
    essential_subgraph,
    graph_dumps,
    graph_loads,
    random_reeb,
    restrict,
    validate,
)
from reebound.graph import ValidationReport, Violation, graph_to_dict
from reebound.mesh import LevelCycle, build_reeb, label_reeb
from reebound.render import to_dot, to_svg
from reebound.errors import (
    BadWindow,
    EmptyWindow,
    InvalidGraph,
    MalformedGraph,
    NonGenericCut,
    ReeboundError,
)

from _fixtures import (
    center_violation,
    chained_tori,
    coverage_violation,
    genericity_violation,
    mixed_saddle_graph,
    octa_sphere,
    pillow,
    saddle_parity_violation,
    single_edge_graph,
    theta_graph,
    torus_reeb_by_hand,
    vertical_torus,
    y_graph,
)
from _oracles import NaiveIndex, naive_index, naive_validate
from test_assign import _any_subgraph


class TestValidate:
    def test_minimal_valid_graph(self):
        g = ReebGraph(
            (ReebVertex("b", 0.1, VertexKind.BOUNDARY_MINUS),
             ReebVertex("t", 0.9, VertexKind.BOUNDARY_PLUS)),
            (ReebEdge("e0", "b", "t", EdgeLabel.ESSENTIAL),),
            0.1, 0.9)
        assert validate(g).ok

    @pytest.mark.parametrize("fixture", [single_edge_graph, y_graph,
                                         theta_graph, mixed_saddle_graph])
    def test_worked_graphs_are_valid(self, fixture):
        report = validate(fixture())
        assert report.ok, report.violations

    def test_saddle_parity_rejected(self):
        report = validate(saddle_parity_violation())
        assert not report.ok
        assert report.rules() == {"SaddleParity"}

    def test_coverage_rejected(self):
        report = validate(coverage_violation())
        assert not report.ok
        assert report.rules() == {"LevelCoverage"}

    def test_center_rule_rejected(self):
        report = validate(center_violation())
        assert not report.ok
        assert report.rules() == {"CenterRule"}

    def test_genericity_rejected(self):
        report = validate(genericity_violation())
        assert not report.ok
        assert report.rules() == {"Genericity"}

    def test_regular_vertex_flagged_unless_allowed(self):
        g = ReebGraph(
            (ReebVertex("b", 0.0, VertexKind.BOUNDARY_MINUS),
             ReebVertex("r", 0.5, VertexKind.REGULAR),
             ReebVertex("t", 1.0, VertexKind.BOUNDARY_PLUS)),
            (ReebEdge("e0", "b", "r", EdgeLabel.ESSENTIAL),
             ReebEdge("e1", "r", "t", EdgeLabel.ESSENTIAL)),
            0.0, 1.0)
        assert validate(g).rules() == {"RegularVertex"}
        assert validate(g, allow_regular=True).ok

    def test_horizontal_edge_rejected(self):
        g = ReebGraph(
            (ReebVertex("b0", 0.0, VertexKind.BOUNDARY_MINUS),
             ReebVertex("b1", 0.0, VertexKind.BOUNDARY_MINUS),
             ReebVertex("t", 1.0, VertexKind.BOUNDARY_PLUS),
             ReebVertex("t2", 1.0, VertexKind.BOUNDARY_PLUS)),
            (ReebEdge("e0", "b0", "b1", EdgeLabel.ESSENTIAL),
             ReebEdge("e1", "t", "t2", EdgeLabel.ESSENTIAL),
             ReebEdge("e2", "b0", "t", EdgeLabel.ESSENTIAL)),
            0.0, 1.0)
        report = validate(g)
        assert "EdgeMonotone" in report.rules()

    def test_valency_mismatch_flagged(self):
        g = ReebGraph(
            (ReebVertex("b", 0.0, VertexKind.BOUNDARY_MINUS),
             ReebVertex("s", 0.5, VertexKind.SADDLE),
             ReebVertex("t", 1.0, VertexKind.BOUNDARY_PLUS)),
            (ReebEdge("e0", "b", "s", EdgeLabel.ESSENTIAL),
             ReebEdge("e1", "s", "t", EdgeLabel.ESSENTIAL)),
            0.0, 1.0)
        assert "VertexValency" in validate(g).rules()

    def test_dangling_edge_raises_malformed(self):
        with pytest.raises(MalformedGraph):
            ReebGraph(
                (ReebVertex("b", 0.0, VertexKind.BOUNDARY_MINUS),),
                (ReebEdge("e0", "b", "missing", EdgeLabel.ESSENTIAL),),
                0.0, 1.0)

    def test_duplicate_ids_raise_malformed(self):
        with pytest.raises(MalformedGraph):
            ReebGraph(
                (ReebVertex("b", 0.0, VertexKind.BOUNDARY_MINUS),
                 ReebVertex("b", 1.0, VertexKind.BOUNDARY_PLUS)),
                (), 0.0, 1.0)

    def test_nonfinite_level_raises_malformed(self):
        with pytest.raises(MalformedGraph):
            ReebGraph(
                (ReebVertex("b", float("nan"), VertexKind.BOUNDARY_MINUS),),
                (), 0.0, 1.0)

    def test_coverage_sampling_property(self):
        # every inter-event midpoint of a valid graph is spanned by at
        # least one essential edge
        g = random_reeb(GenParams(seed=7, saddle_count=20))
        assert validate(g).ok
        events = g.events
        spans = [g.span(e.id) for e in g.edges
                 if e.label is EdgeLabel.ESSENTIAL]
        for a, b in zip(events, events[1:]):
            mid = (a + b) / 2
            assert any(lo < mid < hi for lo, hi in spans)


class TestValidationReport:
    def test_ok_follows_violations(self):
        v = Violation("SomeRule", ("v",), "note")
        assert ValidationReport(()).ok
        assert not ValidationReport((v,)).ok
        assert ValidationReport((v,)).to_dict() == {
            "ok": False, "violations": [{"rule": "SomeRule", "subjects": ["v"],
                                         "note": "note"}]}

    def test_ok_is_not_stored(self):
        # a report could call itself ok while it held a violation
        v = Violation("SomeRule", ("v",), "note")
        with pytest.raises(TypeError):
            ValidationReport(ok=True, violations=(v,))


class TestRestrict:
    def test_truncates_single_edge(self):
        g = single_edge_graph()
        r = restrict(g, 0.2, 0.8)
        assert (r.lo, r.hi) == (0.2, 0.8)
        assert [v.kind for v in r.vertices] == [VertexKind.BOUNDARY_MINUS,
                                                VertexKind.BOUNDARY_PLUS]
        assert [v.level for v in r.vertices] == [0.2, 0.8]
        (e,) = r.edges
        assert e.id == "e0" and e.label is EdgeLabel.ESSENTIAL

    def test_composition_law(self):
        g = theta_graph()
        once = restrict(g, 0.3, 0.7)
        twice = restrict(restrict(g, 0.1, 0.9), 0.3, 0.7)
        assert once == twice

    def test_idempotent(self):
        g = theta_graph()
        r = restrict(g, 0.3, 0.7)
        assert restrict(r, 0.3, 0.7) == r

    def test_torus_window_gives_parallel_edges(self):
        # hand contour enumeration: between the saddles the level set is
        # two parallel loops
        r = restrict(torus_reeb_by_hand(), 0.45, 0.55)
        assert sorted(e.id for e in r.edges) == ["e2", "e3"]
        assert all(e.label is EdgeLabel.ESSENTIAL for e in r.edges)
        kinds = sorted(v.kind.value for v in r.vertices)
        assert kinds == ["boundary-minus", "boundary-minus",
                         "boundary-plus", "boundary-plus"]
        assert validate(r).ok

    def test_cut_through_vertex_rejected(self):
        with pytest.raises(NonGenericCut):
            restrict(torus_reeb_by_hand(), 0.4, 0.9)

    def test_window_between_edges_message_pinned(self):
        # inside the graph's window, but above its only edge
        g = ReebGraph(
            (ReebVertex("b0", 0.0, VertexKind.BOUNDARY_MINUS),
             ReebVertex("t0", 0.5, VertexKind.BOUNDARY_PLUS)),
            (ReebEdge("e0", "b0", "t0", EdgeLabel.ESSENTIAL),), 0.0, 1.0)
        with pytest.raises(EmptyWindow) as info:
            restrict(g, 0.6, 0.9)
        assert str(info.value) == "no edge meets (0.6, 0.9)"

    def test_empty_window_rejected(self):
        with pytest.raises(EmptyWindow):
            restrict(torus_reeb_by_hand(), 2.0, 3.0)
        with pytest.raises(EmptyWindow):
            restrict(single_edge_graph(), 0.7, 0.2)

    @pytest.mark.parametrize("lo, hi", [
        (float("nan"), float("nan")), (0.2, float("inf")),
        (float("-inf"), 0.8), ("0.2", 0.8)])
    def test_non_finite_window_is_a_bad_window(self, lo, hi):
        with pytest.raises(BadWindow):
            restrict(single_edge_graph(), lo, hi)

    @pytest.mark.parametrize("lo, hi, message", [
        (10 ** 5000, 0.8, "window lo must be a finite number, got an int of 16610 bits"),
        (0.2, -10 ** 5000, "window hi must be a finite number, got an int of 16610 bits"),
    ], ids=["huge-lo", "huge-hi"])
    def test_unprintable_int_window_is_a_bad_window(self, lo, hi, message):
        with pytest.raises(BadWindow) as info:
            restrict(single_edge_graph(), lo, hi)
        assert str(info.value) == message

    @pytest.mark.parametrize("lo, hi, message", [
        (-2 ** 60 - 1, 0.8,
         "window lo must be an int that a float holds exactly, got -1152921504606846977"),
        (0.2, 2 ** 53 + 1,
         "window hi must be an int that a float holds exactly, got 9007199254740993"),
    ], ids=["inexact-lo", "inexact-hi"])
    def test_inexact_int_window_is_a_bad_window(self, lo, hi, message):
        with pytest.raises(BadWindow) as info:
            restrict(single_edge_graph(), lo, hi)
        assert str(info.value) == message

    def test_cut_point_ids_are_primed_past_kept_vertices(self):
        # two kept vertices carry e0's lower cut id and its first prime;
        # the vertex carrying its upper cut id lies outside the window
        g = single_edge_graph()
        g = ReebGraph(g.vertices + (
            ReebVertex("cut:e0:lo", 0.5, VertexKind.SADDLE),
            ReebVertex("cut:e0:lo'", 0.6, VertexKind.SADDLE),
            ReebVertex("cut:e0:hi", 0.9, VertexKind.CENTER)), g.edges + (
            ReebEdge("f", "cut:e0:lo", "cut:e0:lo'", EdgeLabel.ESSENTIAL),
            ReebEdge("h", "cut:e0:hi", "t0", EdgeLabel.INESSENTIAL)),
            g.lo, g.hi)
        r = restrict(g, 0.2, 0.8)
        assert {(v.id, v.level) for v in r.vertices} == {
            ("cut:e0:lo''", 0.2), ("cut:e0:hi", 0.8),
            ("cut:e0:lo", 0.5), ("cut:e0:lo'", 0.6)}
        assert r.edge_by_id["e0"][1:3] == ("cut:e0:lo''", "cut:e0:hi")

    def test_boundary_vertex_reuse_at_same_level(self):
        g = single_edge_graph()
        r = restrict(g, 0.0, 0.5)
        assert {v.id for v in r.vertices} == {"b0", "cut:e0:hi"}

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), saddles=st.integers(0, 25),
           frac=st.tuples(st.floats(0.05, 0.45), st.floats(0.55, 0.95)))
    def test_composition_property(self, seed, saddles, frac):
        g = random_reeb(GenParams(seed=seed, saddle_count=saddles))
        a, b = frac
        inner_a, inner_b = a + 0.02, b - 0.02
        levels = {v.level for v in g.vertices}
        if levels & {a, b, inner_a, inner_b}:
            return
        direct = restrict(g, inner_a, inner_b)
        nested = restrict(restrict(g, a, b), inner_a, inner_b)
        assert direct == nested


class TestEssentialSubgraph:
    def test_all_essential_identity(self):
        g = theta_graph()
        sub = essential_subgraph(g)
        assert {e.id for e in sub.edges} == {e.id for e in g.edges}
        assert {v.id for v in sub.vertices} == {v.id for v in g.vertices}
        assert len(sub.edges) == 5

    def test_mixed_saddle_becomes_valency_two(self):
        sub = essential_subgraph(mixed_saddle_graph())
        assert len(sub.incident["s"]) == 2
        assert {e.id for e in sub.edges} == {"e0", "e1"}
        # the inessential branch endpoint dropped
        assert "t1" not in {v.id for v in sub.vertices}

    def test_boundary_sets_and_order(self):
        sub = essential_subgraph(theta_graph())
        assert sub.boundary_minus == {"b0", "b1"}
        assert sub.boundary_plus == {"t0", "t1"}
        assert sub.interior == ("v1", "v2")

    def test_no_inessential_edges_survive(self):
        g = torus_reeb_by_hand()
        r = restrict(g, 0.45, 0.55)
        sub = essential_subgraph(r)
        assert all(e.label is EdgeLabel.ESSENTIAL for e in sub.edges)
        ends = {e.lower for e in sub.edges} | {e.upper for e in sub.edges}
        assert ends == {v.id for v in sub.vertices}

    def test_invalid_input_rejected(self):
        with pytest.raises(InvalidGraph):
            essential_subgraph(saddle_parity_violation())


class TestJson:
    def test_round_trip_equality(self):
        g = theta_graph()
        assert graph_loads(graph_dumps(g)) == g

    def test_round_trip_bytes_idempotent(self):
        text = graph_dumps(theta_graph())
        assert graph_dumps(graph_loads(text)) == text

    def test_full_precision_levels(self):
        lvl = 0.1234567890123456789
        g = ReebGraph(
            (ReebVertex("b", 0.0, VertexKind.BOUNDARY_MINUS),
             ReebVertex("t", lvl, VertexKind.BOUNDARY_PLUS)),
            (ReebEdge("e0", "b", "t", EdgeLabel.ESSENTIAL),),
            0.0, lvl)
        g2 = graph_loads(graph_dumps(g))
        assert g2.vertex_by_id["t"].level == g.vertex_by_id["t"].level

    def test_meta_preserved(self):
        g = random_reeb(GenParams(seed=3, saddle_count=4))
        g2 = graph_loads(graph_dumps(g))
        assert g2.meta == g.meta

    def test_bad_payloads_raise(self):
        with pytest.raises(MalformedGraph):
            graph_loads("not json")
        with pytest.raises(MalformedGraph):
            graph_loads("[1, 2]")
        with pytest.raises(MalformedGraph):
            graph_loads('{"lo": 0, "hi": 1, "vertices": [], "edges": 3}')
        with pytest.raises(MalformedGraph):     # too large for a float
            graph_loads('{"lo": 0, "hi": 1%s, "vertices": [], "edges": []}'
                        % ("0" * 400))
        with pytest.raises(MalformedGraph):     # too deep for the decoder
            graph_loads("[" * 100_000)
        with pytest.raises(MalformedGraph):     # too many digits for an int
            graph_loads('{"lo": 0, "hi": 1, "vertices": [{"id": "a", "level": %s, '
                        '"kind": "saddle"}], "edges": []}' % ("1" * 5000))

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["vertices"][0].update(id=None),
         "vertex id must be a string, got None"),
        (lambda d: d["vertices"][0].update(id=7),
         "vertex id must be a string, got 7"),
        (lambda d: d["edges"][0].update(id=None),
         "edge id must be a string, got None"),
        (lambda d: d["edges"][0].update(id=["e0"]),
         "edge id must be a string, got ['e0']"),
        # a vertex "7" is there, but the end is the JSON number 7
        (lambda d: (d["vertices"].append({"id": "7", "level": 0.5, "kind": "saddle"}),
                    d["edges"][0].update(upper=7)),
         "edge 'e0' references missing vertex 7"),
        (lambda d: d["edges"][0].update(lower={"a": 1}),
         "edge 'e0' references missing vertex {'a': 1}"),
    ], ids=["vertex-null", "vertex-int", "edge-null", "edge-list",
            "end-int", "end-object"])
    def test_ids_and_ends_are_read_as_given(self, edit, message):
        # no id or end is turned into a string: one that is not a string
        # is named as the JSON value it was
        data = json.loads(graph_dumps(single_edge_graph()))
        edit(data)
        with pytest.raises(MalformedGraph) as info:
            graph_loads(json.dumps(data))
        assert str(info.value) == message

    @pytest.mark.parametrize("value, shown", [
        ("foo", "'foo'"), ([], "[]"), (None, "None"), (3, "3")])
    @pytest.mark.parametrize("where, key, enum", [
        ("vertices", "kind", "VertexKind"), ("edges", "label", "EdgeLabel")])
    def test_bad_member_message_pinned(self, where, key, enum, value, shown):
        data = graph_to_dict(theta_graph())
        data[where][0][key] = value
        with pytest.raises(MalformedGraph) as info:
            graph_loads(json.dumps(data))
        assert str(info.value) == ("bad graph payload: %s is not a valid %s"
                                   % (shown, enum))

    @pytest.mark.parametrize("faults, shown", [
        ([("vertices", 0, "kind", "foo"), ("vertices", 1, "level", "x")],
         "'foo' is not a valid VertexKind"),
        # levels are read as given and checked by the index walk, as ids
        # are, so a kind decoded with the records is named first
        ([("vertices", 0, "level", "x"), ("vertices", 1, "kind", "foo")],
         "'foo' is not a valid VertexKind"),
        ([("vertices", 0, "kind", []), ("vertices", 1, "id", None)],
         "[] is not a valid VertexKind"),
        ([("vertices", 0, "id", None), ("vertices", 1, "kind", "foo")], "'id'"),
        ([("vertices", 1, "kind", "foo"), ("edges", 0, "label", "bar")],
         "'foo' is not a valid VertexKind"),
        ([("edges", 0, "label", "bar"), ("edges", 1, "lower", None)],
         "'bar' is not a valid EdgeLabel"),
        ([("edges", 0, "lower", None), ("edges", 1, "label", "bar")], "'lower'"),
    ])
    def test_first_fault_named(self, faults, shown):
        # None deletes the key
        data = graph_to_dict(theta_graph())
        for where, i, key, value in faults:
            if value is None:
                del data[where][i][key]
            else:
                data[where][i][key] = value
        with pytest.raises(MalformedGraph) as info:
            graph_loads(json.dumps(data))
        assert str(info.value) == "bad graph payload: %s" % shown

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["vertices"][0].update(level="0.5"),
         "level of vertex b0 must be a finite number, got '0.5'"),
        (lambda d: d.update(lo="0"), "lo must be a finite number, got '0'"),
        (lambda d: d.update(hi="1"), "hi must be a finite number, got '1'"),
        (lambda d: d["vertices"][1].update(level=True),
         "level of vertex b1 must be a finite number, got True"),
        (lambda d: d.update(lo=False), "lo must be a finite number, got False"),
    ], ids=["string-level", "string-lo", "string-hi", "true-level", "false-lo"])
    def test_level_read_as_given(self, edit, message):
        # no level, lo or hi is converted: a JSON string or bool is refused
        # by the level rule, named as the JSON value it was
        data = graph_to_dict(theta_graph())
        edit(data)
        with pytest.raises(MalformedGraph) as info:
            graph_loads(json.dumps(data))
        assert str(info.value) == message

    @pytest.mark.parametrize("level, shown", [
        (float("inf"), "inf"), (float("-inf"), "-inf"), (float("nan"), "nan")])
    def test_nonfinite_level_message_pinned(self, level, shown):
        data = graph_to_dict(theta_graph())
        data["vertices"][0]["level"] = level
        with pytest.raises(MalformedGraph) as info:
            graph_loads(json.dumps(data))
        assert str(info.value) == ("level of vertex b0 must be a finite "
                                   "number, got %s" % shown)

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (1.0, 0.0)])
    def test_window_order_message_pinned(self, lo, hi):
        data = graph_to_dict(single_edge_graph())
        data["lo"], data["hi"] = lo, hi
        with pytest.raises(MalformedGraph) as info:
            graph_loads(json.dumps(data))
        assert str(info.value) == "window lo must be below hi"

    def test_duplicate_edge_message_pinned(self):
        data = graph_to_dict(theta_graph())
        data["edges"][1]["id"] = data["edges"][0]["id"]
        with pytest.raises(MalformedGraph) as info:
            graph_loads(json.dumps(data))
        assert str(info.value) == "duplicate edge id 'e_a'"

    @pytest.mark.parametrize("witness", [[1, 2], "x", 3, {"level": 0.5}],
                             ids=["list", "string", "number", "object"])
    def test_json_witness_round_trips(self, witness):
        data = graph_to_dict(theta_graph())
        data["edges"][2]["witness"] = witness
        text = json.dumps(data, separators=(",", ":"))
        g = graph_loads(text)
        assert g.edges[2].witness == witness
        assert graph_dumps(g) == text

    def test_null_witness_is_no_witness(self):
        # ReebEdge cannot tell a JSON null from no witness, so the key is
        # not written back
        plain = graph_to_dict(theta_graph())
        data = graph_to_dict(theta_graph())
        data["edges"][2]["witness"] = None
        g = graph_loads(json.dumps(data))
        assert g.edges[2].witness is None
        assert g == graph_loads(json.dumps(plain))
        assert graph_dumps(g) == json.dumps(plain, separators=(",", ":"))
        assert "witness" not in json.loads(graph_dumps(g))["edges"][2]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), saddles=st.integers(0, 30))
    def test_round_trip_property(self, seed, saddles):
        g = random_reeb(GenParams(seed=seed, saddle_count=saddles))
        text = graph_dumps(g)
        assert graph_loads(text) == g
        assert graph_dumps(graph_loads(text)) == text


class TestRecords:
    """Vertices and edges are immutable records; an edge's witness is
    provenance and takes no part in equality or hashing."""

    WITNESSES = [
        None,
        {"level": 0.5, "crossings": [[0, [0, 1], [1, 2]]]},
        LevelCycle(0.5, ((0, (0, 1), (1, 2)),)),
    ]

    @pytest.mark.parametrize("witness", WITNESSES, ids=["none", "dict", "cycle"])
    def test_edge_equality_and_hash_ignore_witness(self, witness):
        bare = ReebEdge("e1", "a", "b", EdgeLabel.ESSENTIAL)
        dressed = ReebEdge("e1", "a", "b", EdgeLabel.ESSENTIAL, witness)
        assert dressed == bare and bare == dressed
        assert not dressed != bare
        assert hash(dressed) == hash(bare)
        assert len({bare, dressed}) == 1
        for other in (ReebEdge("e2", "a", "b", EdgeLabel.ESSENTIAL, witness),
                      ReebEdge("e1", "x", "b", EdgeLabel.ESSENTIAL, witness),
                      ReebEdge("e1", "a", "x", EdgeLabel.ESSENTIAL, witness),
                      ReebEdge("e1", "a", "b", EdgeLabel.INESSENTIAL, witness)):
            assert dressed != other and not dressed == other

    def test_edge_is_unequal_to_other_types(self):
        e = ReebEdge("e1", "a", "b", EdgeLabel.ESSENTIAL)
        assert e != "e1"
        assert e != ReebVertex("e1", 0.5, VertexKind.SADDLE)
        assert ReebEdge.__eq__(e, object()) is NotImplemented

    @pytest.mark.parametrize("record, field, value", [
        (ReebVertex("v1", 0.5, VertexKind.SADDLE), "level", 0.25),
        (ReebVertex("v1", 0.5, VertexKind.SADDLE), "extra", 1),
        (ReebEdge("e1", "a", "b", EdgeLabel.ESSENTIAL), "witness", {}),
        (ReebEdge("e1", "a", "b", EdgeLabel.ESSENTIAL), "label",
         EdgeLabel.INESSENTIAL),
    ])
    def test_records_are_immutable(self, record, field, value):
        with pytest.raises(AttributeError):
            setattr(record, field, value)

    def test_repr_pinned(self):
        assert repr(ReebVertex("v1", 0.5, VertexKind.SADDLE)) == (
            "ReebVertex(id='v1', level=0.5, kind=<VertexKind.SADDLE: 'saddle'>)")
        assert repr(ReebEdge("e1", "a", "b", EdgeLabel.ESSENTIAL)) == (
            "ReebEdge(id='e1', lower='a', upper='b', "
            "label=<EdgeLabel.ESSENTIAL: 'essential'>, witness=None)")
        assert repr(ReebEdge("e1", "a", "b", EdgeLabel.INESSENTIAL,
                             witness={"level": 0.5})) == (
            "ReebEdge(id='e1', lower='a', upper='b', "
            "label=<EdgeLabel.INESSENTIAL: 'inessential'>, "
            "witness={'level': 0.5})")

    def test_graph_equality_ignores_meta_and_witnesses(self):
        g = theta_graph()
        dressed = ReebGraph(
            g.vertices,
            tuple(ReebEdge(e.id, e.lower, e.upper, e.label, witness)
                  for e, witness in zip(g.edges, self.WITNESSES * len(g.edges))),
            g.lo, g.hi, meta={"seed": 1})
        assert dressed == g
        assert dressed != ReebGraph(g.vertices, g.edges[1:], g.lo, g.hi)


# ids, levels, kinds and labels of the right type and of wrong ones; a
# list id or kind does not hash, and a plain string equals its member
_IDS = st.one_of(st.sampled_from("abc"), st.integers(-1, 1), st.none(),
                 st.lists(st.sampled_from("ab"), max_size=2))
# ints near +-2**53, where floats stop holding every int
_NEAR_2_53 = st.builds(lambda sign, d: sign * (2 ** 53 + d),
                       st.sampled_from((1, -1)), st.integers(-3, 3))
_LEVELS = st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(),
                    st.integers(), _NEAR_2_53, st.none(), st.text(max_size=2))
_NON_MEMBERS = st.one_of(st.none(), st.sampled_from(("saddle", "essential", 0)))
_KINDS = st.one_of(st.sampled_from(list(VertexKind)), _NON_MEMBERS,
                   st.lists(st.sampled_from(list(VertexKind)), max_size=1))
_LABELS = st.one_of(st.sampled_from(list(EdgeLabel)), _NON_MEMBERS)


def _records(record, *fields):
    """Records of ``record``'s type built from ``fields``, and plain tuples
    and lists of the same fields beside them."""
    return st.one_of(*(st.builds(lambda *f, make=make: make(f), *fields)
                       for make in (record._make, tuple, list)))


class TestDirectConstruction:
    """A graph built from records directly is a graph or a MalformedGraph,
    whatever types its fields hold, and a graph that is built gets through
    every later call with nothing but a ReeboundError."""

    @settings(max_examples=400, deadline=None)
    # plain records with good fields, which later calls read by name
    @example([("a", 0.5, VertexKind.SADDLE)], [], 0.0, 1.0)
    @example([ReebVertex("a", 0.0, VertexKind.BOUNDARY_MINUS),
              ReebVertex("b", 1.0, VertexKind.BOUNDARY_PLUS)],
             [["e1", "a", "b", EdgeLabel.ESSENTIAL, None]], 0.0, 1.0)
    @given(st.lists(_records(ReebVertex, _IDS, _LEVELS, _KINDS), max_size=6),
           st.lists(_records(ReebEdge, _IDS, _IDS, _IDS, _LABELS, st.none()),
                    max_size=6),
           _LEVELS, _LEVELS)
    def test_graph_or_malformed(self, vertices, edges, lo, hi):
        try:
            g = ReebGraph(tuple(vertices), tuple(edges), lo, hi)
        except MalformedGraph:
            return
        assert sorted(g.vertices, key=lambda v: (v.level, v.id)) == list(g.vertices)
        for call in (validate, essential_subgraph, to_dot, to_svg,
                     lambda g: restrict(g, g.lo, g.hi)):
            try:
                call(g)
            except ReeboundError:
                pass
        assert graph_loads(graph_dumps(g)) == g

    @pytest.mark.parametrize("vertices, edges, message", [
        ((("a", None), ("b", 0.5)), (),
         "level of vertex a must be a finite number, got None"),
        # the first bad record in input order, not in sorted order
        ((("b", 0.5), ("a", "0.2"), ("c", None)), (),
         "level of vertex a must be a finite number, got '0.2'"),
        ((("a", 0.5), (1, 0.5)), (), "vertex id must be a string, got 1"),
        ((("a", 0.5),), ("e1", None), "edge id must be a string, got None"),
        ((("a", 10 ** 400),), (),
         "level of vertex a must be a finite number, got %d" % 10 ** 400),
        # too many digits to print, so the message gives its size
        ((("a", 10 ** 5000),), (),
         "level of vertex a must be a finite number, got an int of 16610 bits"),
        # a single record sorts, but a list does not hash
        (((["a"], 0.5),), (), "vertex id must be a string, got ['a']"),
        ((("a", 0.5),), (["e1"],), "edge id must be a string, got ['e1']"),
        ((("b", 0.5), (["a"], 0.2)), (), "vertex id must be a string, got ['a']"),
        # an id that hashes and, alone at its level, is never compared
        ((("a", 0.5), (1, 0.2)), (), "vertex id must be a string, got 1"),
        # ids too long to print are named by their size
        (((10 ** 5000, 0.5),), (),
         "vertex id must be a string, got an int of 16610 bits"),
        ((("a", 0.5),), (10 ** 5000,),
         "edge id must be a string, got an int of 16610 bits"),
        # the vertices sort, the edges do not: both are walked as given
        (((["b"], 0.5), (1, 0.2)), ("e1", 1),
         "vertex id must be a string, got ['b']"),
    ], ids=["none-level", "input-order", "int-vertex-id", "none-edge-id",
            "huge-int-level", "unprintable-int-level", "list-vertex-id",
            "list-edge-id", "list-id-among-levels", "int-vertex-id-own-level",
            "unprintable-int-vertex-id", "unprintable-int-edge-id",
            "given-order-when-edges-do-not-sort"])
    def test_message_names_first_bad_record(self, vertices, edges, message):
        vs = tuple(ReebVertex(vid, level, VertexKind.SADDLE)
                   for vid, level in vertices)
        es = tuple(ReebEdge(eid, "a", "a", EdgeLabel.ESSENTIAL) for eid in edges)
        with pytest.raises(MalformedGraph) as info:
            ReebGraph(vs, es, 0.0, 1.0)
        assert str(info.value) == message

    @pytest.mark.parametrize("lower, upper, message", [
        (["a"], "a", "edge 'e1' references missing vertex ['a']"),
        ("a", ["b"], "edge 'e1' references missing vertex ['b']"),
        ("a", 10 ** 5000, "edge 'e1' references missing vertex an int of 16610 bits"),
    ], ids=["list-lower", "list-upper", "unprintable-int-upper"])
    def test_unhashable_edge_end_named(self, lower, upper, message):
        vs = (ReebVertex("a", 0.2, VertexKind.SADDLE),
              ReebVertex("b", 0.5, VertexKind.SADDLE))
        with pytest.raises(MalformedGraph) as info:
            ReebGraph(vs, (ReebEdge("e1", lower, upper, EdgeLabel.ESSENTIAL),),
                      0.0, 1.0)
        assert str(info.value) == message

    @pytest.mark.parametrize("vertices, edges, message", [
        (((1, 2),), (), "vertex record must be a ReebVertex, got (1, 2)"),
        ((("a",),), (), "vertex record must be a ReebVertex, got ('a',)"),
        ((5,), (), "vertex record must be a ReebVertex, got 5"),
        ((ReebVertex("a", 0.5, VertexKind.SADDLE),), (("e1", "a", "a"),),
         "edge record must be a ReebEdge, got ('e1', 'a', 'a')"),
        ((), ((),), "edge record must be a ReebEdge, got ()"),
        # a plain tuple or list with a ReebVertex's fields is no ReebVertex
        ((("a", 0.5, VertexKind.SADDLE),), (),
         "vertex record must be a ReebVertex, got ('a', 0.5, <VertexKind.SADDLE: 'saddle'>)"),
        ((ReebVertex("a", 0.5, VertexKind.SADDLE),),
         (["e1", "a", "a", EdgeLabel.ESSENTIAL, None],),
         "edge record must be a ReebEdge, got "
         "['e1', 'a', 'a', <EdgeLabel.ESSENTIAL: 'essential'>, None]"),
        # the first bad record in the order given, when a record stops the sort
        ((ReebVertex("a", 0.5, VertexKind.SADDLE), (10 ** 5000,)), (),
         "vertex record must be a ReebVertex, got (an int of 16610 bits)"),
    ], ids=["short-vertex", "one-field-vertex", "int-vertex", "short-edge",
            "empty-edge", "plain-tuple-vertex", "plain-list-edge",
            "unsortable-record"])
    def test_misshapen_record_named(self, vertices, edges, message):
        with pytest.raises(MalformedGraph) as info:
            ReebGraph(vertices, edges, 0.0, 1.0)
        assert str(info.value) == message

    @pytest.mark.parametrize("vertices, edges, message", [
        ((("a", 0.5, ["x"]),), (), "kind of vertex a must be a vertex kind, got ['x']"),
        # a tuple type hashes, but not this tuple
        ((("b", 0.2, VertexKind.SADDLE), ("a", 0.5, ([],))), (),
         "kind of vertex a must be a vertex kind, got ([],)"),
        # the first bad field of the first bad record met: in the order
        # given when a record stops the sort, else in (level, id) order,
        # and every vertex before any edge
        ((("a", 0.5, ["x"]), ("b", None, VertexKind.SADDLE)), (),
         "kind of vertex a must be a vertex kind, got ['x']"),
        ((("a", 0.5, ["x"]), (["b"], 0.2, VertexKind.SADDLE)), (),
         "vertex id must be a string, got ['b']"),
        ((("a", 0.5, ["x"]),), (("e1", "a", ["a"]),),
         "kind of vertex a must be a vertex kind, got ['x']"),
    ], ids=["list-kind", "unhashable-tuple-kind", "level-first", "id-first",
            "end-first"])
    def test_unhashable_kind_named_last(self, vertices, edges, message):
        vs = tuple(ReebVertex(*v) for v in vertices)
        es = tuple(ReebEdge(eid, lower, upper, EdgeLabel.ESSENTIAL)
                   for eid, lower, upper in edges)
        with pytest.raises(MalformedGraph) as info:
            ReebGraph(vs, es, 0.0, 1.0)
        assert str(info.value) == message

    @pytest.mark.parametrize("vertices, edges, message", [
        ((("a", 0.5),), (), "vertex record must have 3 fields, got 2"),
        ((("a", 0.5, VertexKind.SADDLE, None),), (),
         "vertex record must have 3 fields, got 4"),
        ((("a", 0.5, VertexKind.SADDLE),), (("e1", "a"),),
         "edge record must have 5 fields, got 2"),
    ], ids=["two-field-vertex", "four-field-vertex", "two-field-edge"])
    def test_wrong_field_count_named(self, vertices, edges, message):
        # made without the named tuple's __new__, such a record is of the
        # right type, and its repr raises, so its field count names it
        vs = tuple(tuple.__new__(ReebVertex, v) for v in vertices)
        es = tuple(tuple.__new__(ReebEdge, e) for e in edges)
        with pytest.raises(TypeError):
            repr(vs[0] if not es else es[0])
        with pytest.raises(MalformedGraph) as info:
            ReebGraph(vs, es, 0.0, 1.0)
        assert str(info.value) == message

    class Unordered(int):
        """An int that keeps the level rule but refuses to be ordered."""

        def __lt__(self, other):
            raise TypeError("no order")

    def test_unordered_levels_refused(self):
        # ints that keep the level rule but refuse to compare stop the sort,
        # and the walk in the order given finds no bad field: the vertices
        # at lo and at hi come first and last, so the records would be
        # kept out of level order
        vs = tuple(ReebVertex(vid, self.Unordered(level), VertexKind.SADDLE)
                   for vid, level in zip("acbd", (0, 2, 1, 3)))
        with pytest.raises(MalformedGraph) as info:
            ReebGraph(vs, (), 0.0, 3.0)
        assert str(info.value) == "records do not sort: no order"

    def test_unordered_levels_off_the_window_ends_refused(self):
        # with no vertex at lo or at hi the walk falls back to sorting the
        # event levels with lo and hi, which these levels refuse too
        vs = tuple(ReebVertex(vid, self.Unordered(level), VertexKind.SADDLE)
                   for vid, level in zip("ab", (1, 2)))
        with pytest.raises(MalformedGraph) as info:
            ReebGraph(vs, (), 0.0, 3.0)
        assert str(info.value) == "records do not sort: no order"

    def test_hashable_non_member_kind_is_interior(self):
        # a kind that hashes but is no VertexKind is refused, not indexed
        with pytest.raises(MalformedGraph) as info:
            ReebGraph((ReebVertex("a", 0.5, None),), (), 0.0, 1.0)
        assert str(info.value) == "kind of vertex a must be a vertex kind, got None"

    @pytest.mark.parametrize("call", [validate, essential_subgraph, graph_dumps],
                             ids=["validate", "essential_subgraph", "graph_dumps"])
    @pytest.mark.parametrize("kinds, message", [
        ((None,), "kind of vertex a must be a vertex kind, got None"),
        # the first in (level, id) order: b sits below a
        (("x", EdgeLabel.ESSENTIAL), "kind of vertex b must be a vertex kind, "
         "got <EdgeLabel.ESSENTIAL: 'essential'>"),
        ((VertexKind.SADDLE, 10 ** 5000),
         "kind of vertex b must be a vertex kind, got an int of 16610 bits"),
    ], ids=["none", "label-below-str", "unprintable-int"])
    def test_non_member_kind_named_after_construction(self, call, kinds, message):
        # the constructor names it, in (level, id) order, so no later call
        # meets such a kind
        vs = tuple(ReebVertex(vid, level, kind)
                   for vid, level, kind in zip("ab", (0.5, 0.2), kinds))
        with pytest.raises(MalformedGraph) as info:
            call(ReebGraph(vs, (), 0.0, 1.0))
        assert str(info.value) == message

    @pytest.mark.parametrize("labels, message", [
        ((None,), "label of edge e1 must be an edge label, got None"),
        # a plain string equals its member, but is not one
        ((EdgeLabel.ESSENTIAL, "essential"),
         "label of edge e2 must be an edge label, got 'essential'"),
    ], ids=["none", "plain-string"])
    def test_non_member_label_named(self, labels, message):
        vs = (ReebVertex("a", 0.2, VertexKind.CENTER),
              ReebVertex("b", 0.5, VertexKind.CENTER))
        es = tuple(ReebEdge("e%d" % i, "a", "b", label)
                   for i, label in enumerate(labels, 1))
        with pytest.raises(MalformedGraph) as info:
            ReebGraph(vs, es, 0.0, 1.0)
        assert str(info.value) == message

    @pytest.mark.parametrize("vertices, edges, message", [
        (5, (), "vertices must be iterable, got 5"),
        ((ReebVertex("a", 0.5, VertexKind.SADDLE),), None,
         "edges must be iterable, got None"),
    ], ids=["vertices", "edges"])
    def test_records_not_iterable(self, vertices, edges, message):
        with pytest.raises(MalformedGraph) as info:
            ReebGraph(vertices, edges, 0.0, 1.0)
        assert str(info.value) == message

    @pytest.mark.parametrize("level, lo, hi, message", [
        (2 ** 60 + 1, 0.0, 2.0 ** 61,
         "level of vertex a must be an int that a float holds exactly, "
         "got 1152921504606846977"),
        (-2 ** 53 - 1, -2.0 ** 54, 0.0,
         "level of vertex a must be an int that a float holds exactly, "
         "got -9007199254740993"),
        (0.5, 0, 2 ** 60 + 1,
         "hi must be an int that a float holds exactly, got 1152921504606846977"),
        (0.5, -2 ** 53 - 1, 1,
         "lo must be an int that a float holds exactly, got -9007199254740993"),
    ], ids=["level", "negative-level", "hi", "lo"])
    def test_inexact_int_level_refused(self, level, lo, hi, message):
        # JSON reads levels back as floats, so such an int could not round-trip
        with pytest.raises(MalformedGraph) as info:
            ReebGraph((ReebVertex("a", level, VertexKind.SADDLE),), (), lo, hi)
        assert str(info.value) == message

    @pytest.mark.parametrize("level, lo, hi", [
        (2 ** 53, 0, 2 ** 60), (-2 ** 53 - 2, -2 ** 54, 1)],
        ids=["2**53", "even-past-2**53"])
    def test_exact_int_levels_round_trip(self, level, lo, hi):
        # JSON ints are read as given: equal ints come back, not floats
        g = ReebGraph((ReebVertex("a", level, VertexKind.SADDLE),), (), lo, hi)
        back = graph_loads(graph_dumps(g))
        assert back == g
        assert [type(x) for x in (back.lo, back.hi, back.vertices[0].level)] == [int] * 3

    @pytest.mark.parametrize("level, lo, hi, message", [
        (True, 0, 2, "level of vertex a must be a finite number, got True"),
        (0.5, False, 2, "lo must be a finite number, got False"),
        (0.5, 0, True, "hi must be a finite number, got True"),
    ], ids=["level", "lo", "hi"])
    def test_bool_level_refused(self, level, lo, hi, message):
        # a bool is an int to Python, but no level: JSON would write it as
        # true or false
        with pytest.raises(MalformedGraph) as info:
            ReebGraph((ReebVertex("a", level, VertexKind.SADDLE),), (), lo, hi)
        assert str(info.value) == message

    @pytest.mark.parametrize("lo, hi, message", [
        (10 ** 5000, 1.0, "lo must be a finite number, got an int of 16610 bits"),
        (0.0, -10 ** 5000, "hi must be a finite number, got an int of 16610 bits"),
    ], ids=["huge-lo", "huge-negative-hi"])
    def test_unprintable_int_window_named_by_size(self, lo, hi, message):
        with pytest.raises(MalformedGraph) as info:
            ReebGraph((), (), lo, hi)
        assert str(info.value) == message


# -- validate against the reference validator ---------------------------------

MUTATIONS = ("drop", "retarget", "kind", "label", "level", "horizontal")


def mutate(g: ReebGraph, choose, count: int) -> ReebGraph:
    """``g`` with ``count`` structural faults planted, each picked by
    ``choose(options)``: a dropped or retargeted edge, a swapped kind or
    label, a level moved onto lo, hi or another vertex's level, or a new
    horizontal edge (a loop when both ends are one vertex)."""
    vertices = {v.id: v for v in g.vertices}
    edges = {e.id: e for e in g.edges}
    for n in range(count):
        move, vid = choose(MUTATIONS), choose(sorted(vertices))
        eid = choose(sorted(edges)) if edges else None
        if move == "drop" and eid:
            del edges[eid]
        elif move == "retarget" and eid:
            end = choose(("lower", "upper"))
            edges[eid] = edges[eid]._replace(**{end: vid})
        elif move == "kind":
            vertices[vid] = vertices[vid]._replace(kind=choose(list(VertexKind)))
        elif move == "label" and eid:
            flipped = (EdgeLabel.INESSENTIAL if edges[eid].label is EdgeLabel.ESSENTIAL
                       else EdgeLabel.ESSENTIAL)
            edges[eid] = edges[eid]._replace(label=flipped)
        elif move == "level":
            levels = sorted({g.lo, g.hi} | {v.level for v in vertices.values()})
            vertices[vid] = vertices[vid]._replace(level=choose(levels))
        elif move == "horizontal":
            other = vertices[choose(sorted(vertices))]
            vertices[vid] = vertices[vid]._replace(level=other.level)
            edges["h%d" % n] = ReebEdge("h%d" % n, vid, other.id,
                                        choose(list(EdgeLabel)))
    return ReebGraph(tuple(vertices.values()), tuple(edges.values()),
                     g.lo, g.hi)


SETTINGS = [dict(allow_regular=a, check_coverage=c)
            for a in (False, True) for c in (True, False)]


def generated(seed: int, saddles: int, parallel: float,
              inessential: float) -> ReebGraph:
    return random_reeb(GenParams(seed=seed, saddle_count=saddles,
                                 parallel_edge_bias=parallel,
                                 inessential_bias=inessential))


@st.composite
def mutated_graphs(draw):
    """A random_reeb output with zero to four faults planted in it."""
    g = generated(draw(st.integers(0, 10_000)), draw(st.integers(0, 12)),
                  draw(st.sampled_from((0.0, 0.5, 1.0))),
                  draw(st.sampled_from((0.0, 0.35, 1.0))))

    def choose(options):
        return draw(st.sampled_from(options))

    return mutate(g, choose, draw(st.integers(0, 4)))


class TestValidateOracle:
    """validate decides every rule on the graph's index in two passes;
    naive_validate, the per-rule-group reference, must report the same
    violations in the same order with the same notes."""

    @settings(max_examples=300, deadline=None)
    @given(g=mutated_graphs())
    def test_matches_naive_validate(self, g):
        for kw in SETTINGS:
            assert validate(g, **kw).to_dict() == naive_validate(g, **kw).to_dict()

    def test_mutations_reach_every_rule(self):
        rng = random.Random(0)
        seen = set()
        for seed in range(300):
            g = mutate(generated(seed, seed % 9, 0.5, 0.35), rng.choice,
                       rng.randrange(1, 4))
            for kw in SETTINGS:
                report = validate(g, **kw)
                assert report.to_dict() == naive_validate(g, **kw).to_dict()
                seen |= report.rules()
        assert seen == {"EdgeMonotone", "VertexValency", "BoundaryLevel",
                        "Genericity", "SaddleParity", "CenterRule",
                        "LevelCoverage", "RegularVertex"}


# -- the index against a recomputation from the tuples ------------------------

def _typed(x):
    """x with the type of every part and the order of every container; a
    range as its start and stop, as empty ranges compare equal whatever
    their start, and the sweep's checker reads it."""
    if isinstance(x, dict):
        return dict, [(_typed(k), _typed(v)) for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return type(x), [_typed(y) for y in x]
    if isinstance(x, range):
        return range, x.start, x.stop
    return type(x), x


def _signed(levels):
    """Each level with its type and sign, so -0.0 and 0.0, 1 and 1.0 differ."""
    return [(type(x), x, copysign(1.0, x)) for x in levels]


def assert_index_naive(g: ReebGraph) -> None:
    """Every public table of g equals ``naive_index``'s derivation from
    g.vertices and g.edges, in order and in type, down to the object kept
    for event levels that compare equal, and ``spanning`` reads the gaps
    the definition gives."""
    ix = naive_index(g)
    for name in NaiveIndex._fields:
        assert _typed(getattr(g, name)) == _typed(getattr(ix, name)), name
    assert _signed(g.events) == _signed(ix.events)
    assert type(g.boundary_minus) is type(g.boundary_plus) is frozenset
    for k in range(len(g.events) - 1):
        assert g.spanning(k) == ix.spanning(k)


def assert_built_alike(sub: ReebGraph, meta=None) -> None:
    """The subgraph essential_subgraph indexes from its parent's records
    equals the one the checked constructor builds from the same records
    and the given meta, field by field, in order and in type."""
    built = ReebGraph(sub.vertices, sub.edges, sub.lo, sub.hi, meta=meta)
    assert sub == built
    for name in ("vertices", "edges", "lo", "hi", "meta", *NaiveIndex._fields):
        assert _typed(getattr(sub, name)) == _typed(getattr(built, name)), name


def test_index_matches_tuples(corpus):
    rng = random.Random(1)
    for g, sub in corpus:
        mids = [(x + y) / 2 for x, y in zip(g.events, g.events[1:])]
        i = rng.randrange(len(mids))
        j = rng.randrange(i, len(mids))
        window = restrict(g, mids[i], mids[j] if j > i else g.hi)
        window_sub = essential_subgraph(window, prevalidated=True)
        for h in (g, sub, window, window_sub):
            assert_index_naive(h)
        assert_built_alike(sub)
        assert_built_alike(window_sub)


@settings(max_examples=300, deadline=None)
@given(drawn=_any_subgraph(), data=st.data())
def test_subgraph_of_invalid_parent_matches_constructor(drawn, data):
    # loops, backward edges and shared levels pass prevalidated=True
    dropped = data.draw(st.sets(st.sampled_from([e.id for e in drawn.edges]))
                        if drawn.edges else st.just(set()))
    parent = ReebGraph(drawn.vertices, tuple(
        e._replace(label=EdgeLabel.INESSENTIAL) if e.id in dropped else e
        for e in drawn.edges), drawn.lo, drawn.hi)
    sub = essential_subgraph(parent, prevalidated=True)
    assert [e.id for e in sub.edges] == [e.id for e in drawn.edges
                                         if e.id not in dropped]
    assert_index_naive(sub)
    assert_built_alike(sub)


# -- the event index against the sorted-set derivation ------------------------

def _graph_at(levels, lo, hi, ids=None) -> ReebGraph:
    """Regular vertices at the levels (ids a, b, ... unless given), with an
    edge from each vertex to every later one, whatever their order."""
    ids = ids or "abcdefgh"[:len(levels)]
    vs = tuple(ReebVertex(vid, level, VertexKind.REGULAR)
               for vid, level in zip(ids, levels))
    es = tuple(ReebEdge("e%s%s" % (a.id, b.id), a.id, b.id, EdgeLabel.ESSENTIAL)
               for i, a in enumerate(vs) for b in vs[i + 1:])
    return ReebGraph(vs, es, lo, hi)


_UP = nextafter(0.5, 1.0)
_POOL = (-0.0, 0.0, 0, 1, 1.0, -1.0, 0.5, _UP, nextafter(_UP, 1.0), 2.0,
         2 ** 53, float(2 ** 53))


class TestEventIndex:
    """ReebGraph reads its event levels off its (level, id) sorted vertex
    loop, and derives them from a sorted set only when a vertex lies
    outside [lo, hi] or none sits at lo or at hi; both paths, and the
    records essential_subgraph and label_reeb index without sorting them,
    must give every table ``naive_index`` derives by the definitions, down
    to the object kept for levels that compare equal."""

    @pytest.mark.parametrize("levels, lo, hi, ids", [
        ((-0.0, 0.0, 1.0), 0.0, 1.0, None),
        ((-0.0, 0.0, 1.0), 0.0, 1.0, "bac"),
        ((0.0, 0.5), -0.0, 0.5, None),
        ((-1.0, 0.0), -1.0, -0.0, None),
        ((1, 1.0, 0.0), 0.0, 1.0, None),
        ((1, 1.0, 0.0), 0, 1, "bac"),
        ((0, 1), 0.0, 1.0, None),
        ((-1.0, 0.5, 2.0), 0.0, 1.0, None),
        ((-1.0, 0.5), 0.0, 1.0, None),
        ((0.5, 2.0), 0.0, 1.0, None),
        ((0.5, 1.0), 0.0, 1.0, None),
        ((0.0, 0.5), 0.0, 1.0, None),
        ((0.5,), 0.0, 1.0, None),
        ((0.5, _UP, nextafter(_UP, 1.0)), 0.5, nextafter(_UP, 1.0), None),
        ((_UP, 0.5), 0.5, nextafter(_UP, 1.0), None),
        ((), 0.0, 1.0, None),
    ], ids=["signed-zeros", "signed-zeros-by-id", "negative-zero-lo",
            "negative-zero-hi", "int-and-float", "int-and-float-by-id",
            "int-levels", "outside-both", "outside-below", "outside-above",
            "no-vertex-at-lo", "no-vertex-at-hi", "neither-bound",
            "adjacent-floats", "adjacent-floats-no-hi", "no-vertices"])
    def test_matches_sorted_set(self, levels, lo, hi, ids):
        g = _graph_at(levels, lo, hi, ids)
        assert_index_naive(g)
        assert_index_naive(essential_subgraph(g, prevalidated=True))

    def test_first_level_object_is_kept(self):
        # the vertex at -0.0 comes first by id, so its zero is the event
        # level, and lo's 0.0 is not
        g = _graph_at((-0.0, 0.0, 1.0), 0.0, 1.0)
        assert copysign(1.0, g.events[0]) == -1.0
        assert type(_graph_at((1, 1.0, 0.0), 0.0, 1.0).events[-1]) is int

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(_POOL), max_size=7),
           st.sampled_from(_POOL), st.sampled_from(_POOL))
    def test_drawn_levels_match_sorted_set(self, levels, lo, hi):
        if not lo < hi:
            lo, hi = hi, lo
        if not lo < hi:
            return
        g = _graph_at(levels, lo, hi)
        assert_index_naive(g)
        assert_index_naive(essential_subgraph(g, prevalidated=True))

    @pytest.mark.parametrize("make", [octa_sphere, vertical_torus, pillow,
                                      lambda: chained_tori(2)],
                             ids=["sphere", "torus", "pillow", "genus2"])
    def test_label_reeb_matches_naive_index(self, make):
        # label_reeb indexes its relabelled records without the constructor
        s, f = make()
        built = build_reeb(s, f)
        g = label_reeb(s, f, built)
        assert g.meta == built.meta
        assert_index_naive(g)
        assert_built_alike(g, meta=built.meta)


class TestGenericityRuns:
    """validate reads genericity off runs of equal levels among the
    critical vertices; naive_validate groups them in a dict by level."""

    def test_runs_with_other_vertices_between(self):
        s, c, r = VertexKind.SADDLE, VertexKind.CENTER, VertexKind.REGULAR
        vs = tuple(ReebVertex(vid, level, kind) for vid, level, kind in (
            ("a", 0.5, s), ("b", 0.5, r), ("c", 0.5, c), ("d", 0.5, s),
            ("e", 0.7, r), ("f", 0.7, s), ("g", 0.7, VertexKind.BOUNDARY_PLUS),
            ("h", 0.7, c), ("i", 0.9, s), ("j", -0.0, s), ("k", 0.0, c)))
        g = ReebGraph(vs, (), -1.0, 1.0)
        for kw in SETTINGS:
            assert validate(g, **kw).to_dict() == naive_validate(g, **kw).to_dict()
        shared = [(v.subjects, v.note) for v in validate(g).violations
                  if v.rule == "Genericity"]
        assert shared == [(("j", "k"), "interior vertices share level -0.0"),
                          (("a", "c", "d"), "interior vertices share level 0.5"),
                          (("f", "h"), "interior vertices share level 0.7")]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_POOL), st.sampled_from(list(VertexKind))),
                    max_size=8),
           st.data())
    def test_drawn_ties_match_naive_validate(self, records, data):
        vs = tuple(ReebVertex("v%d" % i, level, kind)
                   for i, (level, kind) in enumerate(records))
        ids = [v.id for v in vs]
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                                   max_size=6)) if ids else []
        es = tuple(ReebEdge("e%d" % i, a, b, data.draw(st.sampled_from(list(EdgeLabel))))
                   for i, (a, b) in enumerate(pairs))
        g = ReebGraph(vs, es, -1.0, 2.0)
        for kw in SETTINGS:
            assert validate(g, **kw).to_dict() == naive_validate(g, **kw).to_dict()
