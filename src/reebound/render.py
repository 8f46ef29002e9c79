"""DOT and SVG renderings of a (possibly assigned) graph.

Both layouts put the level on the x axis, reproducing the usual
left-to-right pictures: essential edges are solid blue, inessential ones
dashed gray, and assigned integers annotate the edges.  The SVG uses a
simple strand tracker for the y coordinates: strands occupy slots in a
list, splits insert the sibling next to the parent, merges free a slot,
which keeps crossings low without any real optimization.
"""
from __future__ import annotations

from html import escape
from math import inf

from .graph import EdgeLabel, ReebGraph, VertexKind

SVG_WIDTH, SVG_HEIGHT = 900, 480     # canvas size in pixels

_NODE_SHAPE = {
    VertexKind.BOUNDARY_MINUS: "square",
    VertexKind.BOUNDARY_PLUS: "square",
    VertexKind.CENTER: "circle",
    VertexKind.SADDLE: "diamond",
    VertexKind.REGULAR: "point",
}


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _quote(s: str) -> str:
    return '"%s"' % _dot_escape(s)


def to_dot(g: ReebGraph, assignment: dict[str, int] | None = None) -> str:
    """Graphviz text; vertices at the same level share a rank."""
    lines = ["digraph reeb {", "  rankdir=LR;", "  node [fontsize=10];"]
    by_level: dict[float, list[str]] = {}
    for v in g.vertices:
        by_level.setdefault(v.level, []).append(v.id)
        lines.append("  %s [label=%s, shape=%s];"
                     % (_quote(v.id),
                        '"%s\\n%g"' % (_dot_escape(v.id), v.level),
                        _NODE_SHAPE[v.kind]))
    for level in sorted(by_level):
        lines.append("  { rank=same; %s }"
                     % " ".join("%s;" % _quote(i) for i in sorted(by_level[level])))
    for e in g.edges:
        attrs = []
        if e.label is EdgeLabel.ESSENTIAL:
            attrs.append('color="#1f6fb4"')
            attrs.append("penwidth=2")
        else:
            attrs.append('color="#999999"')
            attrs.append('style="dashed"')
        label = e.id
        if assignment and e.id in assignment:
            label = "%s: %d" % (e.id, assignment[e.id])
        attrs.append("label=%s" % _quote(label))
        lines.append("  %s -> %s [%s];"
                     % (_quote(e.lower), _quote(e.upper), ", ".join(attrs)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _strand_layout(g: ReebGraph) -> dict[str, float]:
    """y coordinate per vertex from a left-to-right strand sweep."""
    slots: list[str] = []          # open edge ids, bottom to top
    is_open: set[str] = set()      # the ids in ``slots``
    y: dict[str, float] = {}
    for v in g.vertices:
        # a self-loop is not open yet when it reaches its own end
        positions = sorted(slots.index(eid) for eid in g.incident[v.id]
                           if eid in is_open and g.edge_by_id[eid].upper == v.id)
        # the out-edges in id order, a loop's two entries side by side
        outs = [eid for eid in g.incident[v.id] if g.edge_by_id[eid].lower == v.id]
        if positions:
            y[v.id] = sum(positions) / len(positions)
            for k in reversed(positions):
                is_open.discard(slots.pop(k))
            slots[positions[0]:positions[0]] = outs
        else:
            y[v.id] = float(len(slots))
            slots += outs
        is_open.update(outs)
    return y


def to_svg(g: ReebGraph, assignment: dict[str, int] | None = None) -> str:
    """Standalone SVG with straight edges: x is the level."""
    y = _strand_layout(g)
    pad = 50.0
    lo, span, scale = g.lo, g.hi - g.lo, 1
    if span == inf:         # hi - lo overflows: scale the levels by halves
        lo, span, scale = g.lo / 2, g.hi / 2 - g.lo / 2, 0.5
    ymax = max(y.values()) if y else 1.0

    def sx(level: float) -> float:
        return pad + (level * scale - lo) / span * (SVG_WIDTH - 2 * pad)

    def sy(value: float) -> float:
        if ymax == 0:
            return SVG_HEIGHT / 2.0
        return SVG_HEIGHT - pad - value / ymax * (SVG_HEIGHT - 2 * pad)

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
             'viewBox="0 0 %d %d">' % ((SVG_WIDTH, SVG_HEIGHT) * 2),
             '<rect width="100%" height="100%" fill="white"/>']
    for e in g.edges:
        x1, y1 = sx(g.vertex_by_id[e.lower].level), sy(y[e.lower])
        x2, y2 = sx(g.vertex_by_id[e.upper].level), sy(y[e.upper])
        if e.label is EdgeLabel.ESSENTIAL:
            style = 'stroke="#1f6fb4" stroke-width="2.5"'
        else:
            style = 'stroke="#999999" stroke-width="1.5" stroke-dasharray="6 4"'
        parts.append('<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" %s/>'
                     % (x1, y1, x2, y2, style))
        label = e.id
        if assignment and e.id in assignment:
            label = "%s: %d" % (e.id, assignment[e.id])
        parts.append('<text x="%.1f" y="%.1f" font-size="11" fill="#333" '
                     'text-anchor="middle">%s</text>'
                     % ((x1 + x2) / 2, (y1 + y2) / 2 - 5,
                        escape(label, quote=False)))
    for v in g.vertices:
        cx, cy = sx(v.level), sy(y[v.id])
        fill = "#d08436" if v.kind is VertexKind.SADDLE else "#444444"
        parts.append('<circle cx="%.1f" cy="%.1f" r="4" fill="%s"/>'
                     % (cx, cy, fill))
        parts.append('<text x="%.1f" y="%.1f" font-size="10" fill="#000" '
                     'text-anchor="middle">%s</text>'
                     % (cx, cy - 8, escape(v.id, quote=False)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
