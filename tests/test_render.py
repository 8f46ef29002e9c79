"""DOT and SVG emission."""
from __future__ import annotations

from xml.dom import minidom

from reebound import (
    EdgeLabel,
    ReebEdge,
    ReebGraph,
    ReebVertex,
    VertexKind,
    assign_all,
    essential_subgraph,
)
from reebound.render import to_dot, to_svg

from _fixtures import theta_graph, torus_reeb_by_hand


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
