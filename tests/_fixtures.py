"""Shared fixtures: hand-built graphs and programmatic meshes."""
from __future__ import annotations

import math
import random

from reebound import (
    EdgeLabel,
    ReebEdge,
    ReebGraph,
    ReebVertex,
    ScalarField,
    TriangulatedSurface,
    VertexKind,
)

E = EdgeLabel.ESSENTIAL
I = EdgeLabel.INESSENTIAL
BM = VertexKind.BOUNDARY_MINUS
BP = VertexKind.BOUNDARY_PLUS
SAD = VertexKind.SADDLE
CEN = VertexKind.CENTER


def _graph(vertices, edges, lo, hi):
    vs = tuple(ReebVertex(i, lvl, k) for i, lvl, k in vertices)
    es = tuple(ReebEdge(i, lo_, up, lb) for i, lo_, up, lb in edges)
    return ReebGraph(vs, es, lo, hi)


def single_edge_graph() -> ReebGraph:
    return _graph(
        [("b0", 0.0, BM), ("t0", 1.0, BP)],
        [("e0", "b0", "t0", E)],
        0.0, 1.0)


def y_graph() -> ReebGraph:
    """One edge from the lower boundary splitting into two."""
    return _graph(
        [("b0", 0.0, BM), ("v", 0.5, SAD), ("t0", 1.0, BP), ("t1", 1.0, BP)],
        [("e0", "b0", "v", E), ("e1", "v", "t0", E), ("e2", "v", "t1", E)],
        0.0, 1.0)


def theta_graph() -> ReebGraph:
    """A full-span strand next to a split-then-merge loop."""
    return _graph(
        [("b0", 0.0, BM), ("b1", 0.0, BM), ("v1", 0.4, SAD),
         ("v2", 0.6, SAD), ("t0", 1.0, BP), ("t1", 1.0, BP)],
        [("e_a", "b0", "t0", E), ("e_b", "b1", "v1", E),
         ("e_c", "v1", "v2", E), ("e_d", "v1", "v2", E),
         ("e_e", "v2", "t1", E)],
        0.0, 1.0)


def saddle_parity_violation() -> ReebGraph:
    """A saddle meeting exactly one essential edge-end."""
    return _graph(
        [("b0", 0.0, BM), ("b1", 0.0, BM), ("s", 0.5, SAD),
         ("t0", 1.0, BP), ("t1", 1.0, BP), ("t2", 1.0, BP)],
        [("e0", "b0", "s", E), ("e1", "s", "t0", I), ("e2", "s", "t1", I),
         ("e3", "b1", "t2", E)],
        0.0, 1.0)


def coverage_violation() -> ReebGraph:
    """Essential content stops at 0.4 but the window runs to 0.9."""
    return _graph(
        [("b0", 0.1, BM), ("b1", 0.1, BM), ("x", 0.4, SAD), ("t0", 0.9, BP)],
        [("e0", "b0", "x", E), ("e1", "b1", "x", E), ("e2", "x", "t0", I)],
        0.1, 0.9)


def center_violation() -> ReebGraph:
    """A center whose single edge is essential."""
    return _graph(
        [("b0", 0.0, BM), ("b1", 0.0, BM), ("c", 0.5, CEN), ("t0", 1.0, BP)],
        [("e0", "b0", "c", E), ("e1", "b1", "t0", E)],
        0.0, 1.0)


def genericity_violation() -> ReebGraph:
    """Two saddles at the same interior level."""
    return _graph(
        [("b0", 0.0, BM), ("b1", 0.0, BM), ("s1", 0.5, SAD), ("s2", 0.5, SAD),
         ("t0", 1.0, BP), ("t1", 1.0, BP), ("t2", 1.0, BP), ("t3", 1.0, BP)],
        [("e0", "b0", "s1", E), ("e1", "s1", "t0", E), ("e2", "s1", "t1", E),
         ("e3", "b1", "s2", E), ("e4", "s2", "t2", E), ("e5", "s2", "t3", E)],
        0.0, 1.0)


def mixed_saddle_graph() -> ReebGraph:
    """An essential edge branching into one essential and one inessential."""
    return _graph(
        [("b0", 0.0, BM), ("s", 0.5, SAD), ("t0", 1.0, BP), ("t1", 1.0, BP)],
        [("e0", "b0", "s", E), ("e1", "s", "t0", E), ("e2", "s", "t1", I)],
        0.0, 1.0)


def torus_reeb_by_hand() -> ReebGraph:
    """Height-function shape: min, two saddles, two parallel branches, max."""
    return _graph(
        [("m", 0.0, CEN), ("s1", 0.4, SAD), ("s2", 0.6, SAD), ("M", 1.0, CEN)],
        [("e1", "m", "s1", I), ("e2", "s1", "s2", E), ("e3", "s1", "s2", E),
         ("e4", "s2", "M", I)],
        -0.125, 1.125)


def adjacent_saddles_graph(s: float) -> ReebGraph:
    """Two splitting saddles at adjacent floats: u just below w = s."""
    return _graph(
        [("b0", 0.0, BM), ("u", math.nextafter(s, 0.0), SAD), ("w", s, SAD),
         ("t0", 1.0, BP), ("t1", 1.0, BP), ("t2", 1.0, BP)],
        [("e0", "b0", "u", E), ("a", "u", "w", E), ("b", "u", "t0", E),
         ("c", "w", "t1", E), ("d", "w", "t2", E)],
        0.0, 1.0)


def center_below_saddle_graph(s: float) -> ReebGraph:
    """A center one float below the saddle at s that its strand enters."""
    return _graph(
        [("b0", 0.0, BM), ("c", math.nextafter(s, 0.0), CEN), ("s", s, SAD),
         ("t0", 1.0, BP)],
        [("e0", "b0", "s", E), ("i1", "c", "s", I), ("e1", "s", "t0", E)],
        0.0, 1.0)


def _float_chain(center: float, n: int) -> list[float]:
    """n consecutive floats, the middle one at center."""
    level = center
    for _ in range(n // 2):
        level = math.nextafter(level, 0.0)
    out = [level]
    while len(out) < n:
        out.append(math.nextafter(out[-1], 1.0))
    return out


def squeezed(g: ReebGraph, center: float) -> ReebGraph:
    """The same graph with its interior levels moved, in order, onto
    consecutive floats around center."""
    inner = sorted({v.level for v in g.vertices if g.lo < v.level < g.hi})
    moved = dict(zip(inner, _float_chain(center, len(inner))))
    vertices = tuple(ReebVertex(v.id, moved.get(v.level, v.level), v.kind)
                     for v in g.vertices)
    return ReebGraph(vertices, g.edges, g.lo, g.hi)


def chain_subgraph(n_middle: int = 3, lo=0.0, hi=1.0) -> ReebGraph:
    """A path through n_middle valency-two interior vertices."""
    levels = [lo + (hi - lo) * (k + 1) / (n_middle + 1) for k in range(n_middle)]
    vertices = [ReebVertex("b", lo, BM)]
    vertices += [ReebVertex("m%d" % k, levels[k], SAD) for k in range(n_middle)]
    vertices.append(ReebVertex("t", hi, BP))
    ids = [v.id for v in vertices]
    edges = tuple(ReebEdge("e%d" % k, ids[k], ids[k + 1], E)
                  for k in range(len(ids) - 1))
    return ReebGraph(tuple(vertices), edges, lo, hi)


def frontier_subgraph(values: list[int]):
    """A subgraph whose frontier at vertex "v" carries the given integers.

    Returns (subgraph, assignment dict): len(values) strands run from the
    lower boundary past level 0.5; vertex "v" sits at 0.5 on an extra
    unassigned strand pair.
    """
    vertices = [ReebVertex("v", 0.5, SAD)]
    edges = []
    assigned = {}
    for k, n in enumerate(values):
        vertices.append(ReebVertex("b%d" % k, 0.0, BM))
        vertices.append(ReebVertex("t%d" % k, 1.0, BP))
        edges.append(ReebEdge("f%d" % k, "b%d" % k, "t%d" % k, E))
        assigned["f%d" % k] = n
    vertices.append(ReebVertex("b.in", 0.0, BM))
    vertices.append(ReebVertex("t.out1", 1.0, BP))
    vertices.append(ReebVertex("t.out2", 1.0, BP))
    edges.append(ReebEdge("g.in", "b.in", "v", E))
    edges.append(ReebEdge("g.out1", "v", "t.out1", E))
    edges.append(ReebEdge("g.out2", "v", "t.out2", E))
    assigned["g.in"] = values[0]
    return ReebGraph(tuple(vertices), tuple(edges), 0.0, 1.0), assigned


# -- meshes -------------------------------------------------------------------

def octa_sphere():
    pos = [(0, 0, 1), (0, 0, -1), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
    tris = [(0, 2, 4), (0, 4, 3), (0, 3, 5), (0, 5, 2),
            (1, 4, 2), (1, 3, 4), (1, 5, 3), (1, 2, 5)]
    surface = TriangulatedSurface(len(pos), tris)
    field = ScalarField(tuple(p[2] for p in pos))
    return surface, field


def _torus_grid(nu: int, nv: int, R: float = 2.0, r: float = 1.0):
    """Heights (one per vertex) and triangles of an upright torus grid."""
    zs, tris = [], []
    for i in range(nu):
        th = 2 * math.pi * i / nu
        for j in range(nv):
            ph = 2 * math.pi * j / nv
            zs.append((R + r * math.cos(ph)) * math.sin(th))

    def vid(i, j):
        return (i % nu) * nv + (j % nv)

    for i in range(nu):
        for j in range(nv):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    return zs, tris


def vertical_torus(nu: int = 24, nv: int = 12):
    """Upright torus; field is the height normalized to [0, 1].

    Criticals: minimum at 0, saddles at 1/3 and 2/3, maximum at 1.
    """
    zs, tris = _torus_grid(nu, nv)
    top = 3.0
    field = ScalarField(tuple((z + top) / (2 * top) for z in zs))
    return TriangulatedSurface(len(zs), tris), field


def chained_tori(n: int):
    """Genus-n surface: n upright tori glued cap to cap, field = height.

    Each junction removes one triangle from the top cap below and one from
    the bottom cap above, identifies the corners, and puts the junction
    vertices' values between the caps.  Values stay raw (torus k spans
    7k-3 .. 7k+3).
    """
    nu, nv = 24, 12
    vals, tris = [], []
    offsets = []
    for k in range(n):
        zs, ts = _torus_grid(nu, nv)
        off = len(vals)
        offsets.append(off)
        vals += [z + 7.0 * k for z in zs]
        tris += [(a + off, b + off, c + off) for (a, b, c) in ts]

    def vid(i, j):
        return (i % nu) * nv + (j % nv)

    for k in range(n - 1):
        top_tri = tuple(offsets[k] + vid(i, j) for i, j in ((7, 1), (8, 1), (8, 2)))
        bot_tri = tuple(offsets[k + 1] + vid(i, j)
                        for i, j in ((17, 1), (18, 1), (18, 2)))
        tris = [t for t in tris if set(t) not in (set(top_tri), set(bot_tri))]
        mapping = dict(zip(bot_tri, top_tri))
        tris = [tuple(mapping.get(x, x) for x in t) for t in tris]
        for vv, val in zip(top_tri, (7.0 * k + 3.2, 7.0 * k + 3.4, 7.0 * k + 3.6)):
            vals[vv] = val

    used = sorted({x for t in tris for x in t})
    remap = {old: new for new, old in enumerate(used)}
    vals = [vals[u] for u in used]
    tris = [tuple(remap[x] for x in t) for t in tris]
    return TriangulatedSurface(len(vals), tris), ScalarField(tuple(vals))


def noisy_torus(seed: int = 3, amplitude: float = 0.05):
    """48 x 24 upright torus, field = height plus seeded uniform noise.

    At the defaults the sweep finds 86 Reeb edges; most other seeds at
    this amplitude make a monkey saddle, which the sweep rejects.
    """
    surface, field = vertical_torus(48, 24)
    rng = random.Random(seed)
    return surface, ScalarField(tuple(v + amplitude * rng.random()
                                      for v in field.values))


def smooth_torus(seed: int, nu: int = 24, nv: int = 12):
    """Upright torus, field = height plus a seeded smooth wave of up to
    three periods around the axis and two around the tube."""
    surface, field = vertical_torus(nu, nv)
    rng = random.Random(seed)
    k, l = rng.randint(1, 3), rng.randint(1, 2)
    amplitude = rng.uniform(0.05, 0.25)
    p, q = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
    return surface, ScalarField(tuple(
        x + amplitude * math.sin(2 * math.pi * k * (v // nv) / nu + p)
        * math.cos(2 * math.pi * l * (v % nv) / nv + q)
        for v, x in enumerate(field.values)))


def quantized_field(field: ScalarField, levels: int) -> ScalarField:
    """``field`` rounded onto ``levels`` evenly spaced values 0, 1, ...:
    flat regions and many ties."""
    lo, hi = min(field.values), max(field.values)
    step = (hi - lo) / (levels - 1)
    return ScalarField(tuple(float(round((v - lo) / step)) for v in field.values))


def random_level_field(n_vertices: int, levels: int, seed: int) -> ScalarField:
    """A seeded field whose values are drawn from 0, 1, ..., ``levels - 1``."""
    rng = random.Random(seed)
    return ScalarField(tuple(float(rng.randrange(levels)) for _ in range(n_vertices)))


def pillow():
    """Two triangles on the same three vertices: a sphere whose vertex
    links have length two."""
    surface = TriangulatedSurface(3, [(0, 1, 2), (0, 2, 1)])
    return surface, ScalarField((0.0, 1.0, 2.0))


def pinched_torus():
    """A 24 x 12 torus grid with vertex (12, 6) glued onto vertex (0, 0).

    Every edge still borders two consistently oriented triangles, but
    the glued vertex's link is two disjoint cycles.
    """
    nu, nv = 24, 12
    _, tris = _torus_grid(nu, nv)
    gone, keep = 12 * nv + 6, 0

    def renumber(x):
        x = keep if x == gone else x
        return x - 1 if x > gone else x

    return nu * nv - 1, [tuple(renumber(x) for x in t) for t in tris]


def monkey_bipyramid():
    """Hexagonal bipyramid whose apex has three descending sectors."""
    tris = []
    for k in range(6):
        a, b = 2 + k, 2 + (k + 1) % 6
        tris.append((0, a, b))
        tris.append((1, b, a))
    surface = TriangulatedSurface(8, tris)
    vals = [0.5, -2.0] + [1.0 + 0.01 * k if k % 2 == 0 else -1.0 - 0.01 * k
                          for k in range(6)]
    return surface, ScalarField(tuple(vals))


def klein_grid(nu: int = 8, nv: int = 8):
    """Klein-bottle identification of a grid: closed but non-orientable."""
    tris = []

    def vid(i, j):
        if i < nu:
            return i * nv + (j % nv)
        return ((-j) % nv)  # wrap with a flip onto column 0

    for i in range(nu):
        for j in range(nv):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    return nu * nv, tris


TETRA_OFF = ("OFF\n4 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
             "3 0 2 1\n3 0 1 3\n3 1 2 3\n3 0 3 2\n")

NON_MANIFOLD_OFF = """OFF
5 3 0
0 0 0
1 0 0
0 1 0
0 0 1
0 -1 0
3 0 1 2
3 0 1 3
3 0 1 4
"""

#: the tetrahedron plus a fifth vertex no triangle uses
ISOLATED_VERTEX_OFF = ("OFF\n5 4 0\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n"
                       "3 0 2 1\n3 0 1 3\n3 1 2 3\n3 0 3 2\n")

OPEN_SURFACE_OFF = """OFF
3 1 0
0 0 0
1 0 0
0 1 0
3 0 1 2
"""


def disconnected_off() -> str:
    s, _ = octa_sphere()
    lines = ["OFF", "12 16 0"] + ["0 0 0"] * 12
    for k in (0, 6):
        lines += ["3 %d %d %d" % (a + k, b + k, c + k) for a, b, c in s.triangles]
    return "\n".join(lines) + "\n"


def off_text(surface: TriangulatedSurface) -> str:
    """OFF text of a surface, every vertex at the origin: no computation
    reads coordinates."""
    lines = ["OFF", "%d %d 0" % (surface.n_vertices, surface.n_triangles)]
    lines += ["0 0 0"] * surface.n_vertices
    lines += ["3 %d %d %d" % t for t in surface.triangles]
    return "\n".join(lines) + "\n"


def field_text(field: ScalarField) -> str:
    """One scalar per line, exactly as stored."""
    return "\n".join(repr(v) for v in field.values) + "\n"
