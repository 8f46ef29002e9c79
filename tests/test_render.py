"""DOT and SVG emission."""
from __future__ import annotations

import hashlib
from xml.dom import minidom

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebound import (
    EdgeLabel,
    ReebEdge,
    ReebGraph,
    GenParams,
    ReebVertex,
    VertexKind,
    assign_all,
    essential_subgraph,
    graph_from_dict,
    random_reeb,
)
from reebound.render import _strand_layout, to_dot, to_svg

from _fixtures import theta_graph, torus_reeb_by_hand
from _oracles import naive_strand_layout


def test_dot_structure():
    g = theta_graph()
    text = to_dot(g)
    assert text.startswith("digraph reeb {")
    assert text.rstrip().endswith("}")
    assert '"b0" -> "t0"' in text
    assert "rank=same" in text
    # every edge id appears as a label
    for e in g.edges:
        assert e.id in text


def test_dot_annotates_assignment():
    g = theta_graph()
    sub = essential_subgraph(g)
    p = assign_all(sub)
    text = to_dot(g, p.assigned)
    assert '"e_e: 2"' in text
    assert '"e_a: 1"' in text


def test_dot_styles_by_label():
    text = to_dot(torus_reeb_by_hand())
    assert "dashed" in text        # inessential cap edges
    assert "#1f6fb4" in text       # essential side branches


def test_dot_deterministic():
    g = theta_graph()
    assert to_dot(g) == to_dot(g)


def test_svg_well_formed():
    g = theta_graph()
    sub = essential_subgraph(g)
    p = assign_all(sub)
    text = to_svg(g, p.assigned)
    assert text.startswith("<svg ")
    assert text.rstrip().endswith("</svg>")
    assert text.count("<line ") == len(g.edges)
    assert text.count("<circle ") == len(g.vertices)
    assert "e_e: 2" in text


def test_svg_handles_unassigned_graph():
    text = to_svg(torus_reeb_by_hand())
    assert "<line " in text


@pytest.mark.parametrize("lo, hi", [(-1.7e308, 1.7e308), (0.0, 5e-324)],
                         ids=["overflowing", "subnormal"])
def test_svg_spans_any_finite_window(lo, hi):
    # hi - lo overflows to inf on the first window; halving the second
    # would leave a span of zero
    g = graph_from_dict({
        "lo": lo, "hi": hi,
        "vertices": [{"id": "a", "level": lo, "kind": "boundary-minus"},
                     {"id": "b", "level": hi, "kind": "boundary-plus"}],
        "edges": [{"id": "e0", "lower": "a", "upper": "b", "label": "essential"}]})
    text = to_svg(g)
    assert "nan" not in text and "inf" not in text
    doc = minidom.parseString(text)
    line, = doc.getElementsByTagName("line")
    assert (line.getAttribute("x1"), line.getAttribute("x2")) == ("50.0", "850.0")
    assert [c.getAttribute("cx") for c in doc.getElementsByTagName("circle")] == [
        "50.0", "850.0"]


@st.composite
def tangled_graphs(draw):
    """Graphs the constructor takes and validate refuses: loops, edges
    between vertices of one level, and edges that run downwards."""
    levels = draw(st.lists(st.sampled_from((0.2, 0.4, 0.6, 0.8)),
                           min_size=1, max_size=8))
    ends = st.integers(0, len(levels) - 1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=14))
    return ReebGraph(
        [ReebVertex("v%d" % k, x, VertexKind.SADDLE) for k, x in enumerate(levels)],
        [ReebEdge("e%d" % k, "v%d" % a, "v%d" % b, EdgeLabel.ESSENTIAL)
         for k, (a, b) in enumerate(pairs)],
        0.0, 1.0)


class TestStrandLayout:
    """The layout inserts a vertex's out-edges in one slice where the
    oracle inserts them one by one."""

    @settings(max_examples=300, deadline=None)
    @given(g=tangled_graphs())
    def test_tangled_graphs(self, g):
        assert _strand_layout(g) == naive_strand_layout(g)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**9), saddles=st.integers(0, 60),
           pbias=st.floats(0, 1), ibias=st.floats(0, 1))
    def test_generated_graphs(self, seed, saddles, pbias, ibias):
        g = random_reeb(GenParams(seed=seed, saddle_count=saddles,
                                  parallel_edge_bias=pbias,
                                  inessential_bias=ibias))
        assert _strand_layout(g) == naive_strand_layout(g)


def _markup_graph():
    return ReebGraph(
        (ReebVertex('a<&"', 0.0, VertexKind.CENTER),
         ReebVertex('b\\', 1.0, VertexKind.CENTER)),
        (ReebEdge('e<"&', 'a<&"', 'b\\', EdgeLabel.ESSENTIAL),),
        -0.5, 1.5)


def test_svg_escapes_markup_in_ids():
    text = to_svg(_markup_graph(), {'e<"&': 3})
    doc = minidom.parseString(text)
    labels = [t.firstChild.data for t in doc.getElementsByTagName("text")]
    assert sorted(labels) == sorted(['e<"&: 3', 'a<&"', 'b\\'])


def test_dot_escapes_backslash_then_quote():
    text = to_dot(_markup_graph())
    assert '"a<&\\"" [label="a<&\\"\\n0", shape=circle];' in text
    assert '"b\\\\" [label="b\\\\\\n1", shape=circle];' in text
    assert '"a<&\\"" -> "b\\\\"' in text


#: SHA-256 of to_svg and to_dot, bare and then annotated with the graph's
#: assignment, per generator graph (seed, saddles, parallel bias,
#: inessential bias), recorded while the strand layout still searched its
#: list of open strands per edge.
RENDER_SHA256 = {
    (0, 0, 0.25, 0.35): (
        "520d9a35e4953365ff4b264d2128c3952fbdd15f8c5c4562be2f0842f98be360",
        "a5a080b58eba8a3e760551e3a1202ffdfce70b86bfdb9706c5180906bdcb17c1",
        "27d13c1a951cfaf18d988d5b75a7dc25092479adcb6d09e142fa3b1bb4fc7307",
        "bf26e544d0a8f562892d4a1f1cafc8038838e36fb664f7c97fd6da6c91ad9c1b"),
    (1, 12, 1.0, 0.5): (
        "eb6de249ee420cca9fbf27e8c7d8bace635a044f9b908b5132092ce855716390",
        "6a00f0f2348e39ffadde721bac0cb3231225d4b0bc0e1bb85b45b78239e3e30b",
        "c68ddbcc7277cfd73fb35489152977639931c5b3d266563f34bfd3ac152958e2",
        "21a06ca88758663a9ccaf21dd5e42a8093eaf3004b454c1b279cc5ec50f664a0"),
    (2, 40, 0.25, 0.35): (
        "a24da1a932a63fb588163c7fd894515e8f9d351eb53e69f50e9d3bc806e98b06",
        "7f04f476baabe3a53dd2cfd92ad9b540dc12946a94fc7b281bdc6fe977326d42",
        "c62848201d33519c9d6b96d6ec47ad65b5bf6af133a90d56dffa2aea579b7a3a",
        "28c2a3753e37e3eafed4a9977795ddcb050890b9d517507b4af2ef1b2c329395"),
    (3, 100, 0.0, 0.9): (
        "cf09de9838c0614ee7fd7319739feb66874b66ffed90dac7caa4a4de614b579c",
        "653daaf54313a5a36e4cc5a4f00e36d44516d324d3389010a592fca2799ee5ee",
        "80f73588778029c4bc53540411a76a91a76ddcd8b6aee727319fac8bc57e6ffd",
        "c0055d9ac96a1186798ed0feed456dc15e52b4f4f22e9fdccb826f47ce5cf831"),
    (4, 400, 0.5, 0.2): (
        "37fc590fb88bfea5660d76b2492d12f77b3c80e1697b42361e28948a8a64cdb4",
        "be1475be09d2b11f814ced6452b219ea9abbccc8592318887188f356b2842bc0",
        "eca6c3bf92522dcafd8b6faa14455120112a1e7f683aab2a05efa13adc4e9f38",
        "4aa93d0a8792d90684c1aef0b42018e9bc7704a9466bb94e56443f5c086b1a75"),
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_render_bytes_pinned():
    got = {}
    for seed, saddles, pbias, ibias in RENDER_SHA256:
        g = random_reeb(GenParams(seed=seed, saddle_count=saddles,
                                  parallel_edge_bias=pbias,
                                  inessential_bias=ibias))
        a = assign_all(essential_subgraph(g)).assigned
        got[seed, saddles, pbias, ibias] = (
            _sha(to_svg(g)), _sha(to_dot(g)), _sha(to_svg(g, a)), _sha(to_dot(g, a)))
    assert got == RENDER_SHA256


@pytest.mark.parametrize("render, digest", [
    (to_svg, "3dca47a76db0fe9e680e06f61e3ba4f83341b695aadb33a75b5d7ed342715df4"),
    (to_dot, "f25f46c016afb2f8cb34ba1c3909fab765d5f3aa72e3bf4715fb7a0963d73be4")])
def test_self_loop_bytes_pinned(render, digest):
    # the loop at b is not open yet when b's incoming edges are closed
    g = graph_from_dict({
        "lo": 0.0, "hi": 1.0,
        "vertices": [{"id": "a", "level": 0.25, "kind": "center"},
                     {"id": "b", "level": 0.5, "kind": "center"}],
        "edges": [{"id": "e0", "lower": "a", "upper": "b", "label": "inessential"},
                  {"id": "e1", "lower": "b", "upper": "b", "label": "inessential"}]})
    assert _sha(render(g)) == digest
