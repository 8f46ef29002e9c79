"""Independent test oracles, deliberately written with different machinery
than the production code: explicit named cells and BFS for cutting a
surface, direct level-set component counting, the lower-link rule and
contour tracing that lists each triangle's crossed edges, the witness
level picked from the full list of gaps, an assignment sweep that
rescans everything every round, disk edges found by deleting each edge in
turn and searching both sides, the surface tables built with the
orientation walk always run, the witness check crossing by crossing,
the consistency checker that rescans every edge at every gap, the sweep
as separate steps over frozen assignments, which rescans the graph in
each of them, the validator as one pass per rule group, and the SVG
strand layout inserting each out-edge on its own.  The graph
oracles read the tables ``naive_index`` derives from a graph's records by
their definitions, never the graph's own index, and the mesh oracles the
edge pairs and triangles ``surface_edges`` and ``surface_edge_tris``
decode from its edge table."""
from __future__ import annotations

import random
import sys
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice, pairwise
from math import nextafter
from typing import Iterable, NamedTuple

from reebound.assign import (
    RULE_BAND,
    RULE_FRONTIER,
    RULE_PLATEAU_PATH,
    RULE_PLATEAU_VALUE,
    RULE_SINGLE,
    STEP0,
    STEP1,
    STEP2,
    PartialAssignment,
    TraceEntry,
)
from reebound.errors import (
    BadWitness,
    BrokenUniqueness,
    ConflictingPropagation,
    DegenerateField,
    InvariantViolation,
    MalformedMesh,
    NonConsecutiveFrontier,
    NoLowerBoundary,
    NotAManifold,
    NothingToAssign,
    NotOrientable,
    OpenCycle,
    ParseError,
    ReebTopologyMismatch,
    ReeboundError,
)
from reebound.graph import (
    BOUNDARY_KINDS,
    EXPECTED_VALENCY,
    RULE_BOUNDARY_LEVEL,
    RULE_CENTER,
    RULE_COVERAGE,
    RULE_EDGE_MONOTONE,
    RULE_GENERICITY,
    RULE_REGULAR,
    RULE_SADDLE_PARITY,
    RULE_VERTEX_VALENCY,
    EdgeLabel,
    ReebEdge,
    ReebGraph,
    ReebVertex,
    ValidationReport,
    VertexKind,
    Violation,
)
from reebound.mesh import (
    Edge,
    LevelCycle,
    ScalarField,
    TriangulatedSurface,
    _check_pair,
    _cycle_from_crossings,
)


class UnassignedFrontier(ReeboundError):
    """An edge spanning the gap just left of the active vertex has no
    integer yet.  assign_all never meets one: such an edge starts below
    the step-2 vertex, so BrokenUniqueness fires first.  Only the sweeps
    here, run one step at a time, raise it."""


# -- the graph index, from the records ----------------------------------------

class NaiveIndex(NamedTuple):
    """The tables ``ReebGraph`` indexes at construction, by the same names."""

    vertex_by_id: dict[str, ReebVertex]
    edge_by_id: dict[str, ReebEdge]
    incident: dict[str, tuple[str, ...]]
    events: tuple[float, ...]
    event_index: dict[str, int]
    gaps: dict[str, range]
    boundary_minus: frozenset[str]
    boundary_plus: frozenset[str]
    interior: tuple[str, ...]

    def span(self, eid: str) -> tuple[float, float]:
        e = self.edge_by_id[eid]
        return (self.vertex_by_id[e.lower].level, self.vertex_by_id[e.upper].level)

    def spanning(self, gap: int) -> list[str]:
        """Ids of the edges spanning the gap, in id order."""
        return [eid for eid, gaps in self.gaps.items() if gap in gaps]


#: the last graph asked for and its tables: the step-at-a-time sweep asks
#: for the same graph's tables once per step
_last_index: list = [None, None]


def naive_index(g: ReebGraph) -> NaiveIndex:
    """The graph's tables derived from ``g.vertices`` and ``g.edges`` by
    their definitions: a vertex's incident edges by scanning every edge
    (a loop twice), the event levels as the sorted set of the vertex
    levels with lo and hi, and an edge [a, b]'s gaps as every (x, y) of
    consecutive event levels with a <= x and y <= b.  An edge spanning no
    gap gets the empty range from the event index of its lower end to
    that of its upper end, where the sweep's checker reads its lowest gap.
    """
    if _last_index[0] is not g:
        _last_index[:] = g, _derive_index(g)
    return _last_index[1]


def _derive_index(g: ReebGraph) -> NaiveIndex:
    level = {v.id: v.level for v in g.vertices}
    events = tuple(sorted({*level.values(), g.lo, g.hi}))
    index = {x: k for k, x in enumerate(events)}
    event_index = {vid: index[x] for vid, x in level.items()}
    gaps = {}
    for e in g.edges:
        a, b = level[e.lower], level[e.upper]
        spanned = [k for k, (x, y) in enumerate(pairwise(events)) if a <= x and y <= b]
        gaps[e.id] = (range(spanned[0], spanned[-1] + 1) if spanned
                      else range(event_index[e.lower], event_index[e.upper]))
    boundary = (VertexKind.BOUNDARY_MINUS, VertexKind.BOUNDARY_PLUS)
    return NaiveIndex(
        {v.id: v for v in g.vertices}, {e.id: e for e in g.edges},
        {vid: tuple(e.id for e in g.edges for end in (e.lower, e.upper) if end == vid)
         for vid in level},
        events, event_index, gaps,
        *(frozenset(v.id for v in g.vertices if v.kind is kind) for kind in boundary),
        tuple(sorted((v.id for v in g.vertices if v.kind not in boundary),
                     key=lambda vid: (level[vid], vid))))


# -- the graph validator, one rule group at a time ----------------------------

def naive_validate(g: ReebGraph, *, allow_regular: bool = False,
                   check_coverage: bool = True) -> ValidationReport:
    """Reference validator: one pass per rule group through
    ``naive_index``, with the violations in the order validate reports.

    Rules: monotone edges, valency matching the vertex kind, boundary
    vertices sitting exactly on lo/hi with everything else strictly
    inside, pairwise-distinct interior critical levels, the saddle parity
    rule (a saddle meets 0, 2 or 3 essential edge-ends, never exactly 1),
    the center rule (all edges at a center are inessential), and level
    coverage (every inter-event gap is spanned by at least one essential
    edge).

    ``allow_regular`` tolerates valency-two subdivision vertices, which
    never come from critical points.  ``check_coverage=False`` skips the
    coverage rule; unrestricted whole-surface graphs fail it trivially
    because level loops near their extrema bound disks.
    """
    ix = naive_index(g)
    out: list[Violation] = []
    monotone_ok = True
    for e in g.edges:
        a, b = ix.span(e.id)
        if not a < b:
            monotone_ok = False
            out.append(Violation(RULE_EDGE_MONOTONE, (e.id,),
                                 "edge levels %r -> %r are not increasing" % (a, b)))

    for v in g.vertices:
        deg = len(ix.incident[v.id])
        if v.kind is VertexKind.REGULAR and not allow_regular:
            out.append(Violation(RULE_REGULAR, (v.id,),
                                 "valency-two subdivision vertex present"))
        want = EXPECTED_VALENCY[v.kind]
        if deg != want:
            out.append(Violation(RULE_VERTEX_VALENCY, (v.id,),
                                 "%s vertex has valency %d, expected %d"
                                 % (v.kind.value, deg, want)))
        if v.kind is VertexKind.BOUNDARY_MINUS and v.level != g.lo:
            out.append(Violation(RULE_BOUNDARY_LEVEL, (v.id,),
                                 "lower-boundary vertex not at lo"))
        elif v.kind is VertexKind.BOUNDARY_PLUS and v.level != g.hi:
            out.append(Violation(RULE_BOUNDARY_LEVEL, (v.id,),
                                 "upper-boundary vertex not at hi"))
        elif v.kind not in BOUNDARY_KINDS and not g.lo < v.level < g.hi:
            out.append(Violation(RULE_BOUNDARY_LEVEL, (v.id,),
                                 "interior vertex not strictly inside the window"))

    crit_levels: dict[float, list[str]] = {}
    for v in g.vertices:
        if v.kind in (VertexKind.CENTER, VertexKind.SADDLE):
            crit_levels.setdefault(v.level, []).append(v.id)
    for level, vids in sorted(crit_levels.items()):
        if len(vids) > 1:
            out.append(Violation(RULE_GENERICITY, tuple(sorted(vids)),
                                 "interior vertices share level %r" % level))

    for v in g.vertices:
        labels = [ix.edge_by_id[eid].label for eid in ix.incident[v.id]]
        ess = sum(1 for lb in labels if lb is EdgeLabel.ESSENTIAL)
        if v.kind is VertexKind.SADDLE and ess == 1:
            out.append(Violation(RULE_SADDLE_PARITY, (v.id,),
                                 "saddle meets exactly one essential edge-end"))
        if v.kind is VertexKind.CENTER and ess > 0:
            out.append(Violation(RULE_CENTER, (v.id,),
                                 "center meets an essential edge"))

    if check_coverage and monotone_ok:
        # difference array over event indices: +1 where an essential
        # edge's gaps start, -1 where they stop
        events = ix.events
        delta = [0] * len(events)
        for e in g.edges:
            if e.label is EdgeLabel.ESSENTIAL:
                gaps = ix.gaps[e.id]
                delta[gaps.start] += 1
                delta[gaps.stop] -= 1
        spanning = 0
        for k, (a, b) in enumerate(pairwise(events)):
            spanning += delta[k]
            if not spanning:
                out.append(Violation(RULE_COVERAGE, (),
                                     "no essential edge spans (%r, %r)" % (a, b)))

    return ValidationReport(tuple(out))


# -- the mesh front-end's rules, applied on their own -------------------------

def naive_from_off_text(text: str) -> TriangulatedSurface:
    """OFF parsed token by token: each line cut at ``#`` and split, every
    token converted as it is read, so the first fault met is the one
    named."""
    it = chain.from_iterable(
        line.partition("#")[0].split() for line in text.splitlines())

    def take(what, convert=str, count=1):
        # tokens convert as read: a bad one wins over an early end
        got = tuple(map(convert, islice(it, min(max(count, 0), sys.maxsize))))
        if len(got) < count:
            raise ParseError("OFF data ends early, expected %s" % what)
        return got

    (header,) = take("header")
    if header != "OFF":
        raise ParseError("not an OFF file (header %r)" % header)
    try:
        (nv,), (nf,) = take("vertex count", int), take("face count", int)
        take("edge count", int)
        take("coordinate", float, 3 * nv)
        faces = []
        for _ in range(nf):
            # a short read leaves ``it`` spent, so ``take`` then raises
            k = int(next(it, None) or take("face size")[0])
            if k != 3:
                raise ParseError("face with %d sides; only triangles supported" % k)
            face = tuple(map(int, islice(it, 3)))
            faces.append(face if len(face) == 3 else take("vertex index", int, 3))
    except ValueError as exc:
        raise ParseError("bad OFF token: %s" % exc) from None
    return TriangulatedSurface(nv, faces)


def surface_edges(surface: TriangulatedSurface) -> dict[int, Edge]:
    """Each edge's vertex pair by its id, in id order, decoded from the
    surface's edge table: the id of edge lo-hi is ``lo * n + hi``."""
    return {k: divmod(k, surface.n_vertices) for k in sorted(surface._table)}


def surface_edge_tris(surface: TriangulatedSurface) -> dict[int, tuple[int, int]]:
    """Each edge's two triangles, first listed first, by its id in id
    order, decoded from the surface's edge table: a code holds one base-m
    digit ``2 * triangle + 1`` (plus a direction bit) per triangle."""
    m = 2 * surface.n_triangles + 1
    return {k: ((c // m - 1) >> 1, (c % m - 1) >> 1)
            for k, c in sorted(surface._table.items())}


def naive_surface(n_vertices: int, triangles) -> TriangulatedSurface:
    """A surface built without the constructor's shortcuts: every input
    is walked triangle by triangle, connectivity is decided by that walk
    alone, before any vertex is looked at, the edge table is encoded from
    per-edge owner lists and the links and stars come from fans of
    (next neighbour, edge key) tuples."""
    self = object.__new__(TriangulatedSurface)
    self.n_vertices = n = n_vertices
    ids = list(range(n))
    tris: list[tuple[int, int, int]] = []
    for t in triangles:
        a, b, c = t
        if a == b or b == c or c == a:
            raise MalformedMesh("degenerate triangle %r" % (t,))
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
            raise MalformedMesh("triangle %r references missing vertex" % (t,))
        tris.append((ids[a], ids[b], ids[c]))
    if not tris:
        raise NotAManifold("no triangles")

    owners: dict[int, list] = {}
    for ti, (a, b, c) in enumerate(tris):
        for u, v in ((a, b), (b, c), (c, a)):
            key = u * n + v if u < v else v * n + u
            owners.setdefault(key, []).extend((ti, u < v))
    for key, owned in owners.items():
        if len(owned) != 4:
            raise NotAManifold("edge %r borders %d triangles, expected 2"
                               % (divmod(key, n), len(owned) // 2))

    nbrs: list[list[tuple[int, bool]]] = [[] for _ in range(len(tris))]
    for t1, up1, t2, up2 in owners.values():
        nbrs[t1].append((t2, up1 == up2))
        nbrs[t2].append((t1, up1 == up2))
    flips: list[int | None] = [None] * len(tris)
    flips[0] = 0
    stack = [0]
    while stack:
        ti = stack.pop()
        for tj, same in nbrs[ti]:
            want = flips[ti] ^ same
            if flips[tj] is None:
                flips[tj] = want
                stack.append(tj)
            elif flips[tj] != want:
                raise NotOrientable("triangles %d and %d disagree" % (ti, tj))
    if None in flips:
        raise NotAManifold("surface is not connected")

    self.triangles = tuple((t[0], t[2], t[1]) if f else t
                           for t, f in zip(tris, flips))
    # an edge's id is its key; its code holds one digit per triangle in
    # first-seen order, 2 * triangle + 1, plus 1 where the triangle as
    # given runs the edge from its lower end
    m = 2 * len(tris) + 1
    self._table = {key: (2 * t1 + 1 + up1) * m + 2 * t2 + 1 + up2
                   for key, (t1, up1, t2, up2) in owners.items()}

    def key(u, v):
        return min(u, v) * n + max(u, v)

    self._tri_edges = [(key(a, b), key(b, c), key(c, a))
                       for a, b, c in self.triangles]

    fan: list[dict[int, tuple[int, int]]] = [{} for _ in range(n)]
    for (a, b, c), (ab, bc, ca) in zip(self.triangles, self._tri_edges):
        fan[a][b] = (c, ab)
        fan[b][c] = (a, bc)
        fan[c][a] = (b, ca)
    if not all(fan):
        raise NotAManifold("isolated vertex present")
    self.links, self.stars = [], []
    for v, out in enumerate(fan):
        x = start = min(out)
        ring, star = [], []
        while x != start or not ring:
            ring.append(x)
            x, e = out[x]
            star.append(e)
        if len(ring) != len(out):
            raise NotAManifold("link of vertex %d is not a single cycle" % v)
        self.links.append(tuple(ring))
        self.stars.append(tuple(star))
    return self


def pl_criticality(surface: TriangulatedSurface,
                   field: ScalarField) -> tuple[list[int], list[int], list[int]]:
    """(minima, saddles, maxima) vertex indices by the lower-link rule.

    Raises DegenerateField on a monkey saddle (three or more lower-link
    arcs); subdividing the star resolves those.
    """
    _check_pair(surface, field)
    mins: list[int] = []
    saddles: list[int] = []
    maxes: list[int] = []
    values = field.values
    for v in range(surface.n_vertices):
        ring = surface.links[v]
        low = [(values[u], u) < (values[v], v) for u in ring]
        arcs = sum(1 for i in range(len(ring)) if low[i] and not low[i - 1])
        if arcs == 0:
            (maxes if all(low) else mins).append(v)
        elif arcs == 2:
            saddles.append(v)
        elif arcs > 2:
            raise DegenerateField(
                "monkey saddle at vertex %d (%d descending sectors); "
                "subdivide the mesh around it" % (v, arcs))
    return mins, saddles, maxes


def _lower_arcs(ring, low) -> list[list[int]]:
    """Maximal runs of ring positions whose ``low`` flag is set."""
    n = len(ring)
    if all(low):
        return [list(range(n))]
    start = next(i for i in range(n) if not low[i])
    arcs: list[list[int]] = []
    cur: list[int] = []
    for off in range(1, n + 1):
        i = (start + off) % n
        if low[i]:
            cur.append(i)
        elif cur:
            arcs.append(cur)
            cur = []
    return arcs


def naive_pick_witness_level(a: float, b: float, fraction: float,
                             sorted_values: list[float]) -> float:
    """A level strictly inside (a, b) avoiding every vertex value.

    Copies the values inside (a, b) into the full list of gap bounds, then
    lists every gap in spiral order from the one holding the requested
    fraction, and returns the first gap's midpoint (or the float just above
    its lower end) that lies strictly inside it.
    """
    inside = sorted_values[bisect_right(sorted_values, a):
                           bisect_left(sorted_values, b)]
    bounds = [a] + inside + [b]
    t0 = a + (b - a) * fraction
    if not a < t0 < b:
        t0 = (a + b) / 2.0
    k = min(max(bisect_right(bounds, t0) - 1, 0), len(bounds) - 2)
    order = [k]
    for d in range(1, len(bounds) - 1):
        if k + d <= len(bounds) - 2:
            order.append(k + d)
        if k - d >= 0:
            order.append(k - d)
    for idx in order:
        lo, hi = bounds[idx], bounds[idx + 1]
        mid = (lo + hi) / 2.0
        if lo < mid < hi:
            return mid
        step = nextafter(lo, hi)
        if lo < step < hi:
            return step
    raise DegenerateField("no representable level strictly inside (%r, %r)"
                          % (a, b))


def naive_trace(surface: TriangulatedSurface, crossed, start_edge: int,
                edge_tris=None):
    """Walk one contour; ``crossed(eid)`` decides which edges it meets.

    Each step lists the other crossed edges of the triangle and demands
    exactly one, where ``reebound.mesh._trace`` makes one comparison.
    Returns the crossings as (triangle, entry eid, exit eid), starting at
    ``start_edge`` through its lower-numbered triangle.  ``edge_tris`` is
    ``surface_edge_tris(surface)``, which a caller that walks many times
    derives once.
    """
    def other_crossed(tri: int, eid: int) -> int:
        hits = [x for x in surface._tri_edges[tri] if x != eid and crossed(x)]
        if len(hits) != 1:
            raise OpenCycle("triangle %d has %d other crossed edges"
                            % (tri, len(hits)))
        return hits[0]

    if edge_tris is None:
        edge_tris = surface_edge_tris(surface)
    t0 = min(edge_tris[start_edge])
    out = []
    e, t = start_edge, t0
    while True:
        x = other_crossed(t, e)
        out.append((t, e, x))
        ta, tb = edge_tris[x]
        e, t = x, (tb if ta == t else ta)
        if (e, t) == (start_edge, t0):
            return out


def naive_check_cycle(surface: TriangulatedSurface, field: ScalarField,
                      cycle: LevelCycle) -> None:
    """Raise unless the cycle is a closed loop of crossings at its level,
    checking each crossing in turn: its two edges differ, its exit is the
    next entry, both edges exist and are crossed at the level, and its
    triangle exists and holds both; then no triangle is visited twice."""
    if not cycle.crossings:
        raise OpenCycle("empty cycle")
    level, n = cycle.level, len(cycle.crossings)
    edge_index = {pair: k for k, pair in surface_edges(surface).items()}
    for i, (t, entry, exit_) in enumerate(cycle.crossings):
        nxt = cycle.crossings[(i + 1) % n]
        if entry == exit_:
            raise BadWitness("crossing %d enters and exits edge %r" % (i, entry))
        if exit_ != nxt[1]:
            raise OpenCycle("crossing %d exits %r but the next enters %r"
                            % (i, exit_, nxt[1]))
        for pair in (entry, exit_):
            # an edge's ends are vertex indices: (0.0, 1) equals (0, 1) but
            # names no edge, and a list of ends does not hash
            try:
                known = (pair in edge_index
                         and all(isinstance(end, int) for end in pair))
            except TypeError:
                known = False
            if not known:
                raise BadWitness("cycle references missing edge %r" % (pair,))
            va, vb = field.values[pair[0]], field.values[pair[1]]
            if not min(va, vb) < level < max(va, vb):
                raise BadWitness("edge %r is not crossed at level %r" % (pair, level))
        if not 0 <= t < surface.n_triangles:
            raise BadWitness("cycle references missing triangle %r" % t)
        te = set(surface._tri_edges[t])
        if not {edge_index[entry], edge_index[exit_]} <= te:
            raise BadWitness("triangle %d does not contain both crossing edges" % t)
    if len({t for t, _, _ in cycle.crossings}) != n:
        raise BadWitness("cycle visits a triangle twice")


def value_crossed(surface: TriangulatedSurface, values, level: float):
    """The witness predicate: ``level`` strictly inside the edge's span."""
    edges = surface_edges(surface)

    def crossed(eid: int) -> bool:
        va, vb = (values[x] for x in edges[eid])
        return min(va, vb) < level < max(va, vb)
    return crossed


def rank_crossed(surface: TriangulatedSurface, rank, rv: int):
    """The split predicate: exactly one end of the edge ranked ``<= rv``."""
    edges = surface_edges(surface)

    def crossed(eid: int) -> bool:
        ra, rb = (rank[x] for x in edges[eid])
        return ra <= rv < rb if ra < rb else rb <= rv < ra
    return crossed


def level_cycles(surface: TriangulatedSurface, field: ScalarField,
                 level: float) -> list[LevelCycle]:
    """All contours of the level set at a non-vertex level."""
    _check_pair(surface, field)
    if level in set(field.values):
        raise ValueError("level %r hits a vertex value; pick another" % level)

    crossed = value_crossed(surface, field.values, level)
    todo = [eid for eid in surface_edges(surface) if crossed(eid)]    # in id order
    edge_tris = surface_edge_tris(surface)
    seen: set[int] = set()
    out: list[LevelCycle] = []
    for eid in todo:
        if eid in seen:
            continue
        crossings = naive_trace(surface, crossed, eid, edge_tris)
        for _, e1, e2 in crossings:
            seen.add(e1)
            seen.add(e2)
        out.append(_cycle_from_crossings(surface, level, crossings))
    return out


def edge_pairs(cycle: LevelCycle) -> set[Edge]:
    """The mesh edges the cycle crosses."""
    out: set[Edge] = set()
    for _, entry, exit_ in cycle.crossings:
        out.add(entry)
        out.add(exit_)
    return out


def naive_cut_euler(surface, field, cycle):
    """Per-component (Euler characteristic, boundary circles) after cutting
    along the cycle, recomputed from an explicitly named cell complex."""
    level = cycle.level
    vals = field.values
    crossed_edges = {tuple(sorted(p)) for p in edge_pairs(cycle)}
    crossed_tris = {t for t, _, _ in cycle.crossings}

    def side(value):
        return "lo" if value < level else "hi"

    # faces and their boundary edge cells
    face_edges: dict[tuple, list[tuple]] = {}
    for t, (a, b, c) in enumerate(surface.triangles):
        pairs = [tuple(sorted(p)) for p in ((a, b), (b, c), (c, a))]
        if t not in crossed_tris:
            cells = []
            for p in pairs:
                cells.append(("E", p, "all"))
            face_edges[("F", t, "all")] = cells
        else:
            for s in ("lo", "hi"):
                cells = [("C", t, s)]
                for p in pairs:
                    if p in crossed_edges:
                        cells.append(("E", p, s))
                    elif side(vals[p[0]]) == s and side(vals[p[1]]) == s:
                        cells.append(("E", p, "all"))
                face_edges[("F", t, s)] = cells

    # edge cells and their vertex cells
    edge_verts: dict[tuple, list[tuple]] = {}
    for cell_list in face_edges.values():
        for cell in cell_list:
            if cell in edge_verts:
                continue
            kind = cell[0]
            if kind == "E" and cell[2] == "all":
                _, (a, b), _ = cell
                edge_verts[cell] = [("V", a), ("V", b)]
            elif kind == "E":
                _, (a, b), s = cell
                base = a if side(vals[a]) == s else b
                edge_verts[cell] = [("V", base), ("X", (a, b), s)]
            else:
                _, t, s = cell
                xs = [p for p in
                      (tuple(sorted(q)) for q in _tri_pairs(surface, t))
                      if p in crossed_edges]
                edge_verts[cell] = [("X", p, s) for p in xs]

    adjacency: dict[tuple, set[tuple]] = {}

    def link(x, y):
        adjacency.setdefault(x, set()).add(y)
        adjacency.setdefault(y, set()).add(x)

    for face, cells in face_edges.items():
        for cell in cells:
            link(face, cell)
    for edge, cells in edge_verts.items():
        for cell in cells:
            link(edge, cell)

    seen: set[tuple] = set()
    out = []
    for start in sorted(adjacency):
        if start in seen:
            continue
        counts = {"F": 0, "E": 0, "C": 0, "V": 0, "X": 0}
        sides = set()
        queue = deque([start])
        seen.add(start)
        while queue:
            cell = queue.popleft()
            counts[cell[0]] += 1
            if cell[0] == "C":
                sides.add(cell[2])
            for nxt in adjacency[cell]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        chi = (counts["V"] + counts["X"]) - (counts["E"] + counts["C"]) \
            + counts["F"]
        out.append((chi, len(sides)))
    return tuple(sorted(out))


def _tri_pairs(surface, t):
    a, b, c = surface.triangles[t]
    return ((a, b), (b, c), (c, a))


def naive_is_inessential(surface, field, cycle) -> bool:
    return any(chi == 1 for chi, _ in naive_cut_euler(surface, field, cycle))


def _reached(edges, start: str) -> set[str]:
    """Vertices reached from ``start`` over ``edges``, (lower, upper) pairs."""
    seen, queue = {start}, deque([start])
    while queue:
        v = queue.popleft()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == v and y not in seen:
                    seen.add(y)
                    queue.append(y)
    return seen


def naive_disk_edges(g: ReebGraph) -> set[str]:
    """Ids of the edges of ``g`` with a tree on one side, edge by edge.

    Each edge is deleted in turn and its lower end searched from; the
    edge is a bridge when its upper end is not reached, and a disk edge
    when one of the two sides has one edge fewer than vertices (cycle
    rank 0).  Raises ReebTopologyMismatch with the package's texts when
    ``g`` has no vertices or is not connected from its first vertex.
    """
    if not g.vertices:
        raise ReebTopologyMismatch("Reeb graph has no vertices")
    pairs = {e.id: (e.lower, e.upper) for e in g.edges}
    reach = _reached(pairs.values(), g.vertices[0].id)
    if len(reach) != len(g.vertices):
        raise ReebTopologyMismatch(
            "Reeb graph is not connected: %d of %d vertices reachable"
            % (len(reach), len(g.vertices)))
    out = set()
    for eid, (a, b) in pairs.items():
        rest = [p for k, p in pairs.items() if k != eid]
        side = _reached(rest, a)
        if b in side:
            continue
        for vs in (side, reach - side):
            n_edges = sum(x in vs and y in vs for x, y in rest)
            if n_edges == len(vs) - 1:
                out.add(eid)
    return out


def naive_strand_layout(g: ReebGraph) -> dict[str, float]:
    """y coordinate per vertex from the left-to-right strand sweep, with
    a vertex's out-edges inserted one by one at its lowest closing slot
    and the slot clamped to the list's end."""
    ix = naive_index(g)
    slots: list[str] = []          # open edge ids, bottom to top
    is_open: set[str] = set()      # the ids in ``slots``
    y: dict[str, float] = {}
    for v in g.vertices:
        # a self-loop is not open yet when it reaches its own end
        positions = sorted(slots.index(eid) for eid in ix.incident[v.id]
                           if eid in is_open and ix.edge_by_id[eid].upper == v.id)
        # the out-edges in id order, a loop's two entries side by side
        outs = [eid for eid in ix.incident[v.id] if ix.edge_by_id[eid].lower == v.id]
        if positions:
            y[v.id] = sum(positions) / len(positions)
            anchor = positions[0]
            for k in reversed(positions):
                is_open.discard(slots.pop(k))
            for k, eid in enumerate(outs):
                slots.insert(min(anchor + k, len(slots)), eid)
        else:
            y[v.id] = float(len(slots))
            slots.extend(outs)
        is_open.update(outs)
    return y


def count_level_components(surface, field, level) -> int:
    """Components of the level set, from scratch via edge adjacency."""
    vals = field.values
    crossed = set()
    for eid, (a, b) in surface_edges(surface).items():
        if min(vals[a], vals[b]) < level < max(vals[a], vals[b]):
            crossed.add(eid)
    adjacency: dict[int, set[int]] = {e: set() for e in crossed}
    for t in range(surface.n_triangles):
        hits = [e for e in surface._tri_edges[t] if e in crossed]
        if len(hits) == 2:
            adjacency[hits[0]].add(hits[1])
            adjacency[hits[1]].add(hits[0])
    comps = 0
    seen: set[int] = set()
    for e in sorted(crossed):
        if e in seen:
            continue
        comps += 1
        queue = deque([e])
        seen.add(e)
        while queue:
            cur = queue.popleft()
            for nxt in adjacency[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return comps


def naive_assign(g: ReebGraph,
                 rng: random.Random | None = None) -> PartialAssignment:
    """Reference assignment by brute rescanning.

    Re-derives the assignment with none of the sweep's bookkeeping: every
    round it rescans all vertices (in a randomized order) for valency-two
    copies, recomputes eligibility and the frontier from scratch, and
    asserts that exactly one vertex is eligible.  Its output map must
    coincide with assign_all's.  ``rng`` only shuffles scan orders; the
    resulting map must not depend on it.
    """
    rng = rng if rng is not None else random.Random(0)
    ix = naive_index(g)
    if not ix.boundary_minus:
        raise NoLowerBoundary("no lower-boundary vertex in the subgraph")
    assigned: dict[str, int] = {}
    trace: list[TraceEntry] = []

    seeded = sorted({eid for vid in ix.boundary_minus for eid in ix.incident[vid]})
    for eid in seeded:
        assigned[eid] = 1
    trace.append(TraceEntry(STEP0, None, tuple(seeded), 1))

    all_edges = [e.id for e in g.edges]
    all_levels = sorted({v.level for v in g.vertices} | {g.lo})

    while True:
        changed = True
        while changed:
            changed = False
            order = [v.id for v in g.vertices if len(ix.incident[v.id]) == 2]
            rng.shuffle(order)
            for vid in order:
                e1, e2 = ix.incident[vid]
                have1, have2 = e1 in assigned, e2 in assigned
                if have1 == have2:
                    continue
                src, dst = (e1, e2) if have1 else (e2, e1)
                assigned[dst] = assigned[src]
                trace.append(TraceEntry(STEP1, vid, (dst,), assigned[src]))
                changed = True

        if all(eid in assigned for eid in all_edges):
            break

        eligible = []
        for vid in ix.interior:
            if all(eid in assigned for eid in ix.incident[vid]):
                continue
            left_done = all(
                eid in assigned for eid in all_edges
                if ix.span(eid)[0] < ix.vertex_by_id[vid].level)
            if left_done:
                eligible.append(vid)
        if len(eligible) != 1:
            raise BrokenUniqueness(
                "eligible vertices: %s" % (", ".join(sorted(eligible)) or "none"))
        vid = eligible[0]
        level = ix.vertex_by_id[vid].level
        prev = max(lv for lv in all_levels if lv < level)
        # the frontier spans the whole gap (prev, level)
        frontier = [eid for eid in all_edges
                    if ix.span(eid)[0] <= prev and level <= ix.span(eid)[1]]
        if any(eid not in assigned for eid in frontier):
            raise UnassignedFrontier("unassigned frontier at %s" % vid)
        values = sorted({assigned[eid] for eid in frontier})
        if len(values) == 1:
            value = values[0] + 1
        elif len(values) == 2 and values[1] - values[0] == 1:
            value = values[1]
        else:
            raise NonConsecutiveFrontier("frontier of %s carries %r" % (vid, values))
        todo = sorted({eid for eid in ix.incident[vid] if eid not in assigned})
        rng.shuffle(todo)
        for eid in todo:
            assigned[eid] = value
        trace.append(TraceEntry(STEP2, vid, tuple(sorted(todo)), value))

    return PartialAssignment(assigned, tuple(trace))


# -- the consistency checker, one gap at a time -------------------------------

def _connected_min_levels(g: ReebGraph,
                          eids: Iterable[str]) -> dict[str, float]:
    """For each edge in the set, the lowest level reached by its connected
    component within the set (edges connect through shared vertices)."""
    eids, ix = list(eids), naive_index(g)
    parent: dict[str, str] = {eid: eid for eid in eids}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    anchor: dict[str, str] = {}
    for eid in eids:
        e = ix.edge_by_id[eid]
        for end in (e.lower, e.upper):
            if end in anchor:
                ra, rb = find(anchor[end]), find(eid)
                if ra != rb:
                    parent[ra] = rb
            else:
                anchor[end] = eid
    low: dict[str, float] = {}
    for eid in eids:
        root = find(eid)
        a, _ = ix.span(eid)
        low[root] = min(low.get(root, a), a)
    return {eid: low[find(eid)] for eid in eids}


def naive_check_invariants(g: ReebGraph, p: PartialAssignment,
                           vid: str | None) -> ValidationReport:
    """Re-verify the sweep's consistency conditions by direct recomputation.

    ``vid`` is the next sweep target, or at the end of a checked run the
    top vertex if it sits at hi, else None (then only single-assignment
    is checkable).  Checks:

    * single-assignment: the trace never writes an edge twice;
    * frontier-class: the frontier at ``vid`` is one value or a
      consecutive pair, with every spanning edge assigned;
    * downstream-band: every assigned edge reaching strictly right of
      ``vid`` carries n-1 or n, where n is the top frontier value;
    * plateau-uniform / plateau-connected: for every inter-event gap
      (x, y) from the frontier gap rightwards where all assigned spanning
      edges share one value m, every assigned edge reaching right of x
      carries m and its component within the m-edges reaches back down to
      level x.
    """
    out: list[Violation] = []

    counts: dict[str, int] = {}
    for entry in p.trace:
        for eid in entry.edges:
            counts[eid] = counts.get(eid, 0) + 1
    for eid, n in sorted(counts.items()):
        if n > 1:
            out.append(Violation(RULE_SINGLE, (eid,),
                                 "edge written %d times" % n))

    if vid is not None:
        ix = naive_index(g)
        level = ix.vertex_by_id[vid].level
        gap0 = ix.event_index[vid] - 1
        frontier = ix.spanning(gap0)
        top = None
        missing = [e for e in frontier if e not in p.assigned]
        if missing:
            out.append(Violation(RULE_FRONTIER, tuple(sorted(missing)),
                                 "unassigned frontier edges at %s" % vid))
        values = sorted({p.assigned[e] for e in frontier if e in p.assigned})
        if values:
            top = values[-1]
        if not frontier:
            out.append(Violation(RULE_FRONTIER, (vid,), "empty frontier"))
        elif not missing:
            pair = len(values) == 2 and values[1] - values[0] == 1
            if not (len(values) == 1 or pair):
                out.append(Violation(RULE_FRONTIER, (vid,),
                                     "frontier carries %r" % values))

        if top is not None:
            band = {top - 1, top}
            for e in g.edges:
                val = p.assigned.get(e.id)
                if val is None or ix.span(e.id)[1] <= level:
                    continue
                if val not in band:
                    out.append(Violation(
                        RULE_BAND, (e.id,),
                        "edge right of %s carries %d outside {%d, %d}"
                        % (vid, val, top - 1, top)))

        events = ix.events
        flagged_value: set[str] = set()
        flagged_path: set[str] = set()
        min_level_cache: dict[int, dict[str, float]] = {}
        for gap in range(gap0, len(events) - 1):
            spanning = ix.spanning(gap)
            vals = {p.assigned[e] for e in spanning if e in p.assigned}
            if len(vals) != 1:
                continue
            m = vals.pop()
            x = events[gap]
            if m not in min_level_cache:
                m_edges = [e.id for e in g.edges if p.assigned.get(e.id) == m]
                min_level_cache[m] = _connected_min_levels(g, m_edges)
            reach = min_level_cache[m]
            for e in g.edges:
                val = p.assigned.get(e.id)
                if val is None or ix.span(e.id)[1] <= x:
                    continue
                if val != m:
                    if e.id not in flagged_value:
                        flagged_value.add(e.id)
                        out.append(Violation(
                            RULE_PLATEAU_VALUE, (e.id,),
                            "edge above plateau level %r carries %d, not %d"
                            % (x, val, m)))
                elif reach[e.id] > x:
                    if e.id not in flagged_path:
                        flagged_path.add(e.id)
                        out.append(Violation(
                            RULE_PLATEAU_PATH, (e.id,),
                            "no path through %d-edges from %s down to level %r"
                            % (m, e.id, x)))

    return ValidationReport(tuple(out))


# -- the sweep one step at a time ---------------------------------------------

@dataclass(frozen=True)
class AllEqual:
    """Every frontier edge carries the same integer n."""
    n: int


@dataclass(frozen=True)
class Consecutive:
    """The frontier carries exactly the two integers n-1 and n."""
    n: int


FrontierClass = AllEqual | Consecutive


def _extend(p: PartialAssignment, entry: TraceEntry) -> PartialAssignment:
    assigned = dict(p.assigned)
    for eid in entry.edges:
        assigned[eid] = entry.integer
    return PartialAssignment(assigned, p.trace + (entry,))


def empty_assignment() -> PartialAssignment:
    return PartialAssignment({}, ())


def step0(g: ReebGraph) -> PartialAssignment:
    """Seed: every edge touching the lower boundary gets 1."""
    ix = naive_index(g)
    if not ix.boundary_minus:
        raise NoLowerBoundary("no lower-boundary vertex in the subgraph")
    seeded = sorted({eid for vid in ix.boundary_minus for eid in ix.incident[vid]})
    return _extend(empty_assignment(), TraceEntry(STEP0, None, tuple(seeded), 1))


def classify_frontier(g: ReebGraph, p: PartialAssignment,
                      vid: str) -> FrontierClass:
    """Classify the integers on the edges spanning just left of a vertex.

    Raises UnassignedFrontier if a spanning edge has no integer yet, and
    NonConsecutiveFrontier if the value set is neither a singleton nor a
    consecutive pair (or is empty); valid inputs never do either.
    """
    ix = naive_index(g)
    frontier = ix.spanning(ix.event_index[vid] - 1)
    if not frontier:
        raise NonConsecutiveFrontier(
            "no essential edge spans the gap just left of %s" % vid)
    missing = [eid for eid in frontier if eid not in p.assigned]
    if missing:
        raise UnassignedFrontier(
            "frontier of %s has unassigned edges: %s" % (vid, ", ".join(missing)))
    values = sorted({p.assigned[eid] for eid in frontier})
    if len(values) == 1:
        return AllEqual(values[0])
    if len(values) == 2 and values[1] - values[0] == 1:
        return Consecutive(values[1])
    raise NonConsecutiveFrontier(
        "frontier of %s carries %r" % (vid, values))


def _valency2_vertices(ix: NaiveIndex) -> list[str]:
    return [vid for vid, eids in ix.incident.items() if len(eids) == 2]


def step1_saturate(g: ReebGraph, p: PartialAssignment) -> PartialAssignment:
    """Copy integers across valency-two vertices until a fixpoint.

    The copy applies whenever a vertex has valency two in the subgraph and
    exactly one of its edges carries an integer, regardless of whether the
    edges leave on opposite sides or the same side of the vertex.  If both
    edges end up assigned with different integers the input was not in the
    supported class: ConflictingPropagation.
    """
    out, ix = p, naive_index(g)
    queue = deque(_valency2_vertices(ix))
    while queue:
        vid = queue.popleft()
        e1, e2 = ix.incident[vid]
        v1, v2 = out.assigned.get(e1), out.assigned.get(e2)
        if (v1 is None) == (v2 is None):
            continue
        src, dst = (e1, e2) if v2 is None else (e2, e1)
        entry = TraceEntry(STEP1, vid, (dst,), out.assigned[src])
        out = _extend(out, entry)
        edge = ix.edge_by_id[dst]
        for end in (edge.lower, edge.upper):
            if end != vid and len(ix.incident[end]) == 2:
                queue.append(end)
    for vid in _valency2_vertices(ix):
        e1, e2 = ix.incident[vid]
        v1, v2 = out.assigned.get(e1), out.assigned.get(e2)
        if v1 is not None and v2 is not None and v1 != v2:
            raise ConflictingPropagation(
                "vertex %s joins edges assigned %d and %d" % (vid, v1, v2))
    return out


def _next_target(g: ReebGraph, p: PartialAssignment) -> str | None:
    """Lowest-level interior vertex with an unassigned incident edge."""
    ix = naive_index(g)
    for vid in ix.interior:
        if any(eid not in p.assigned for eid in ix.incident[vid]):
            return vid
    return None


def step2(g: ReebGraph, p: PartialAssignment) -> PartialAssignment:
    """One sweep round: classify the frontier at the unique lowest vertex
    with unassigned edges and write the dictated integer onto them.

    Verifies the uniqueness guarantee first: every edge reaching strictly
    left of the target must already be assigned (BrokenUniqueness
    otherwise -- valid inputs cannot trip this).
    """
    target = _next_target(g, p)
    if target is None:
        missing = sorted(e.id for e in g.edges if e.id not in p.assigned)
        raise NothingToAssign("no interior vertex meets the unassigned edges: %s"
                              % (", ".join(missing) or "none"))
    ix = naive_index(g)
    level = ix.vertex_by_id[target].level
    stragglers = [e.id for e in g.edges
                  if e.id not in p.assigned and ix.span(e.id)[0] < level]
    if stragglers:
        raise BrokenUniqueness(
            "unassigned edges strictly left of %s: %s"
            % (target, ", ".join(sorted(stragglers))))
    cls = classify_frontier(g, p, target)
    value = cls.n + 1 if isinstance(cls, AllEqual) else cls.n
    todo = tuple(sorted({eid for eid in ix.incident[target]
                         if eid not in p.assigned}))
    return _extend(p, TraceEntry(STEP2, target, todo, value))


def _final_target(g: ReebGraph) -> str | None:
    """Where a complete assignment is checked: the last vertex, if it
    sits at hi (the gap below it is the last one), else nowhere."""
    top = g.vertices[-1]
    return top.id if top.level == g.hi else None


def _checked(g: ReebGraph, p: PartialAssignment) -> None:
    vid = _final_target(g) if p.is_complete(g) else _next_target(g, p)
    report = naive_check_invariants(g, p, vid)
    if not report.ok:
        raise InvariantViolation(report)


def stepwise_assign(g: ReebGraph,
                    check: bool = False) -> PartialAssignment:
    """The sweep one step at a time, each step returning a new frozen
    assignment: the reference for assign_all's map, trace and errors.

    With ``check=True`` the consistency conditions are re-verified from
    scratch after every saturation; a failure aborts the run with
    InvariantViolation carrying the report.
    """
    p = step1_saturate(g, step0(g))
    if check:
        _checked(g, p)
    while not p.is_complete(g):
        p = step1_saturate(g, step2(g, p))
        if check:
            _checked(g, p)
    return p
