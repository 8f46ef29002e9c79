"""Scalar fields on triangulated closed orientable surfaces.

The front-end turns an OFF mesh plus a per-vertex scalar file into a
labeled Reeb graph: a level sweep in increasing field order tracks the
connected components of the level sets, emitting a center vertex at every
local extremum and a saddle vertex wherever two components merge or one
splits.  Each graph edge gets a witness level cycle sampled inside its
span.  Labels come from the graph's topology: on a closed orientable
surface the Reeb graph's cycle rank is the genus, so an edge's level
curve bounds a disk iff the edge is a bridge with a tree on one side.
The surface builds its edge, link and star tables once on loading; the
sweep, the contour walks and the witness check only read them, and the
labelling walks the Reeb graph's own incidence index.  An edge's id is
its packed key ``lo * n + hi``, which sorts like its vertex pair, so the
pair is ``divmod(id, n)`` and no pair -> id table is built.  A witness
decides its types when built, and its check keys each int pair.  A
contour walk separates the vertices with ``key[v] <= level`` from the
rest: entering oriented triangle abc across its edge i, from ``tri[i]``
to ``tri[i+1]``, it leaves by edge i - 1 if the opposite vertex
``tri[i-1]`` lies on the other side from ``tri[i]``, and by edge i + 1
if not.

Ties between field values are broken symbolically by vertex index, so
every comparison the sweep makes is decided.  Criticality is the
lower-link rule, decided once per vertex inside the sweep by counting the
turns around its link where "below" flips to "above" or back: none at an
extremum, two at a regular vertex, four at a saddle, and more at a monkey
saddle, rejected as degenerate.  No geometric tolerances anywhere.
"""
from __future__ import annotations

import re
import sys
from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import compress, count
from math import inf, isfinite, nextafter
from operator import index, ne

from .errors import (
    BadWitness,
    BadWitnessFraction,
    ContourSweepFailed,
    DegenerateField,
    MalformedMesh,
    MissingWitness,
    NotAManifold,
    NotOrientable,
    OpenCycle,
    ParseError,
    ReebTopologyMismatch,
)
from .graph import (EdgeLabel, ReebEdge, ReebGraph, ReebVertex, VertexKind,
                    _as_tuple, _check_finite, _shown)

Edge = tuple[int, int]
#: a comment: from ``#`` up to, not across, the next ``str.splitlines`` break
_COMMENT = re.compile(r"#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")


@dataclass(frozen=True)
class LevelCycle:
    """One contour of a level set, as triangle crossings.

    ``crossings`` lists (triangle id, entry edge, exit edge) around the
    loop; edges are sorted vertex-index pairs.  The exit of each crossing
    is the entry of the next, cyclically.  Construction decides the types:
    ``level`` keeps the graph's level rule, and ``crossings`` is a tuple of
    ``(t, (a, b), (x, y))`` tuples of ints, no bools, with ``0 <= a < b``
    and ``0 <= x < y``; else BadWitness names the level or the first bad
    crossing.  ``_check_cycle`` decides the rest against a surface.
    """

    level: float
    crossings: tuple[tuple[int, Edge, Edge], ...]

    def __post_init__(self):
        _check_finite(self.level, "witness level", error=BadWitness)
        if type(self.crossings) is not tuple:
            raise BadWitness("witness crossings must be a tuple, got %s"
                             % _shown(self.crossings))
        for i, c in enumerate(self.crossings):
            if (type(c) is tuple and len(c) == 3 and type(c[1]) is type(c[2]) is tuple
                    and len(c[1]) == len(c[2]) == 2):
                t, (a, b), (x, y) = c
                if (type(t) is type(a) is type(b) is type(x) is type(y) is int
                        and 0 <= a < b and 0 <= x < y):
                    continue
            raise BadWitness("crossing %d must be (t, (a, b), (x, y)) of ints with "
                             "0 <= a < b and 0 <= x < y, got %s" % (i, _shown(c)))

    def to_payload(self) -> dict:
        """The JSON form: json writes the stored crossings as nested arrays."""
        return {"level": self.level, "crossings": self.crossings}

    @classmethod
    def from_payload(cls, data: dict) -> "LevelCycle":
        try:
            crossings = tuple((t, tuple(a), tuple(b)) for t, a, b in data["crossings"])
            return cls(data["level"], crossings)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError("bad level-cycle payload: %s" % exc) from None


def _tokens(text: str) -> list[str]:
    """The whitespace-separated tokens of ``text``, each line cut at ``#``:
    one cut of every comment, then one split, as every break
    ``str.splitlines`` makes is whitespace to ``str.split``."""
    return _COMMENT.sub("", text).split()


def _read_off(tokens: list[str]):
    """(vertex count, faces) of OFF tokens, raising ParseError at the first
    fault in token order, as a read token by token would; the coordinates
    are checked and dropped."""
    at = 0

    def take(what, count=1, convert=int, into=tuple):
        # a run converts in one map, which stops at its first bad token, and
        # a bad token wins over an early end
        nonlocal at
        run = tokens[at:at + max(count, 0)]
        at += len(run)
        got = into(map(convert, run))
        if len(run) < count:
            raise ParseError("OFF data ends early, expected %s" % what)
        return got

    (header,) = take("header", convert=str)
    if header != "OFF":
        raise ParseError("not an OFF file (header %r)" % header)
    try:
        (nv,), (nf,), _ = take("vertex count"), take("face count"), take("edge count")
        take("coordinate", 3 * nv, float, partial(deque, maxlen=0))
        stop = at + 4 * max(nf, 0)
        if len(tokens) >= stop and tokens[at:stop:4].count("3") == max(nf, 0):
            try:    # column by column, when every face size reads 3
                return nv, zip(*[list(map(int, tokens[i:stop:4]))
                                 for i in range(at + 1, at + 4)])
            except ValueError:
                pass    # face by face below, to name the first bad token
        faces = []
        for _ in range(nf):
            (k,) = take("face size")
            if k != 3:
                raise ParseError("face with %d sides; only triangles supported" % k)
            faces.append(take("vertex index", 3))
    except ValueError as exc:
        raise ParseError("bad OFF token: %s" % exc) from None
    return nv, faces


class TriangulatedSurface:
    """A closed, connected, orientable triangulated surface.

    Construction validates everything, in this order: every edge borders
    exactly two triangles, the triangles admit a consistent orientation
    (re-orienting as needed) and are connected, every vertex is used, and
    every vertex link is a single cycle.  The topology is combinatorial:
    a vertex is an index below ``n_vertices``, and no coordinates are kept.

    An edge lo-hi has the id ``lo * n + hi``, its packed key, which sorts
    like the pair.  Construction builds, once, every table the sweep and
    the contour walks read, with one int per edge and no tuple per corner:
    ``_table`` (each id's two triangles and directions, see ``__init__``),
    ``_tri_edges`` (the ids of edges ab, bc, ca of each oriented triangle
    abc, to step a contour across it), ``links`` (each vertex's neighbours
    in rotation order, from the smallest) and ``stars`` (``stars[v][i]``
    is the id of the edge from v to ``links[v][i]``).
    ``from_off_text`` reads the OFF tokens, cut of comments and split
    once (see ``_tokens``), with one reader, ``_read_off``.

    ``_orient`` walks the triangles only when some edge's two triangles
    disagree; else the links show connectivity.  Oracles: ``naive_surface``
    and ``naive_check_cycle`` in ``tests/_oracles.py``.
    """

    def __init__(self, n_vertices: int, triangles):
        self.n_vertices = n = n_vertices
        try:
            index(n)
        except TypeError:
            raise MalformedMesh("vertex count must be an int, got %s"
                                % _shown(n)) from None
        try:
            triangles = iter(triangles)
        except TypeError:
            raise MalformedMesh("triangles must be iterable, got %s"
                                % _shown(triangles)) from None
        tris: list[tuple[int, int, int]] = []
        for t in triangles:
            try:
                a, b, c = t
                if a == b or b == c or c == a:
                    fault = "degenerate triangle %s"
                elif not (0 <= a < n and 0 <= b < n and 0 <= c < n):
                    fault = "triangle %s references missing vertex"
                else:
                    tris.append((index(a), index(b), index(c)))
                    continue
            except (TypeError, ValueError):     # not three comparable indices
                fault = "triangle %s is not three vertex indices"
            raise MalformedMesh(fault % _shown(t))
        if not tris:
            raise NotAManifold("no triangles")

        # table[key] = c1 * m + c2 for the edge lo-hi keyed lo * n + hi: each
        # c is 2 * triangle + 1, plus 1 where that triangle as given runs the
        # edge from lo: one nonzero base-m digit per triangle, first seen
        # first, and a code keeps its last three digits at most
        m = 2 * len(tris) + 1
        mm = m * m
        table: dict[int, int] = {}
        get, tri_edges = table.get, []
        for d, (a, b, c) in zip(count(1, 2), tris):
            ab = a * n + b if a < b else b * n + a
            bc = b * n + c if b < c else c * n + b
            ca = c * n + a if c < a else a * n + c
            table[ab] = get(ab, 0) % mm * m + d + (a < b)
            table[bc] = get(bc, 0) % mm * m + d + (b < c)
            table[ca] = get(ca, 0) % mm * m + d + (c < a)
            tri_edges.append((ab, bc, ca))
        codes = table.values()
        if not m <= min(codes) <= max(codes) < mm:     # not two digits each
            key = next(k for k, code in table.items() if not m <= code < mm)
            raise NotAManifold("edge %r borders %d triangles, expected 2" % (
                divmod(key, n), sum(te.count(key) for te in tri_edges)))
        if n > 3 * len(tris):
            # some vertex is in no triangle, and only the walk can name a
            # fault first; nothing per vertex is built for so large an n
            self._orient(codes, m)
            raise NotAManifold("isolated vertex present")
        ids = list(range(n))    # one int per vertex id, shared by every table

        # two triangles agree on an edge when they run it opposite ways, that
        # is when their digits differ in parity, and m is odd, so when the
        # code is odd; when every edge's two do, the walk is skipped
        agree = all(map((1).__and__, codes))
        if not agree:
            flips = self._orient(codes, m)
            tris = [(t[0], t[2], t[1]) if f else t for t, f in zip(tris, flips)]
            tri_edges = [te[::-1] if f else te for te, f in zip(tri_edges, flips)]
        self.triangles = tuple([(ids[a], ids[b], ids[c]) for a, b, c in tris])
        self._table, self._tri_edges = table, tri_edges
        del tris

        # fan[v][x] = key of edge vy for the oriented triangle v -> x -> y;
        # the orientation makes each fan[v] a permutation of v's neighbours
        fan: list[dict[int, int]] = [{} for _ in range(n)]
        for (a, b, c), (ab, bc, ca) in zip(self.triangles, tri_edges):
            fan[a][b] = ca
            fan[b][c] = ab
            fan[c][a] = bc
        self.links: list[tuple[int, ...]] = []
        self.stars: list[tuple[int, ...]] = []
        try:
            if not all(fan):
                raise NotAManifold("isolated vertex present")
            for v, out in enumerate(fan):
                x = start = min(out)
                k = v * n + x if v < x else x * n + v
                ring, star = [], []
                while x != start or not ring:
                    ring.append(x)
                    star.append(k)
                    k = out[x]
                    x = k // n + k % n - v
                if len(ring) != len(out):
                    raise NotAManifold("link of vertex %d is not a single cycle" % v)
                self.links.append(tuple(ring))
                self.stars.append(tuple(star))
        except NotAManifold:
            # the walk, skipped, must still name a split surface first
            if agree:
                self._orient(codes, m)
            raise
        if agree:
            # every link is one cycle, so every star is a disk, and the
            # triangles are connected iff the vertices are
            seen, reached = [True] + [False] * (n - 1), [0]
            for v in reached:
                for u in self.links[v]:
                    if not seen[u]:
                        seen[u] = True
                        reached.append(u)
            if len(reached) != n:
                raise NotAManifold("surface is not connected")

    @staticmethod
    def _orient(codes, m: int) -> list[int]:
        """One flip bit per triangle, from the edge table's ``codes`` (see
        ``__init__``); triangle 0 keeps its orientation."""
        # each triangle's neighbours, in first-seen order of the shared
        # edges, with 1 where the two run that edge the same way
        nbrs: list[list[tuple[int, int]]] = [[] for _ in range(m // 2)]
        for code in codes:
            c1, c2 = divmod(code, m)
            t1, t2, same = (c1 - 1) >> 1, (c2 - 1) >> 1, (c1 ^ c2 ^ 1) & 1
            nbrs[t1].append((t2, same))
            nbrs[t2].append((t1, same))
        flips: list[int | None] = [None] * (m // 2)
        flips[0] = 0
        stack = [0]
        while stack:
            ti = stack.pop()
            for tj, same in nbrs[ti]:
                # agreeing neighbours run their shared edge opposite ways
                want = flips[ti] ^ same
                if flips[tj] is None:
                    flips[tj] = want
                    stack.append(tj)
                elif flips[tj] != want:
                    raise NotOrientable("triangles %d and %d disagree" % (ti, tj))
        if None in flips:
            raise NotAManifold("surface is not connected")
        return flips

    @property
    def n_edges(self) -> int:
        return len(self._table)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_triangles

    @classmethod
    def from_off_text(cls, text: str) -> "TriangulatedSurface":
        """Parse OFF; every coordinate must be a float but none is kept."""
        tokens = _tokens(text)
        nv, faces = _read_off(tokens)
        del tokens      # not held while the tables are built
        return cls(nv, faces)

    @classmethod
    def load_off(cls, path) -> "TriangulatedSurface":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_off_text(fh.read())


@dataclass(frozen=True)
class ScalarField:
    """One value per surface vertex, under the graph's level rule (a finite
    float, or an int that a float holds exactly), each checked once and the
    first fault named; ties break by index.  ``from_text`` converts in one
    pass and names the first token that is not a float."""

    values: tuple[float, ...]

    def __post_init__(self):
        values = _as_tuple(self.values, "values", MalformedMesh)
        object.__setattr__(self, "values", values)
        for i, v in enumerate(values):
            if not (type(v) is float and isfinite(v)):
                if isinstance(v, float) and not isfinite(v):
                    raise DegenerateField("non-finite value %r at vertex %d" % (v, i))
                _check_finite(v, "value at vertex %d", i, error=DegenerateField)

    @classmethod
    def from_text(cls, text: str) -> "ScalarField":
        tokens, values = _tokens(text), []
        try:    # a failed += keeps the floats read before the bad token
            values += map(float, tokens)
        except ValueError:
            raise ParseError("bad scalar value %r" % tokens[len(values)]) from None
        return cls(values)

    @classmethod
    def load(cls, path) -> "ScalarField":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


def _check_pair(surface: TriangulatedSurface, field: ScalarField) -> None:
    if len(field.values) != surface.n_vertices:
        raise MalformedMesh("field has %d values for %d vertices"
                         % (len(field.values), surface.n_vertices))


def _run_starts(flags: list[bool]) -> list[int]:
    """First position of each maximal cyclic run of set flags, in ring
    order from the first unset flag ([0] when every flag is set)."""
    if all(flags):
        return [0]
    n, k = len(flags), flags.index(False)
    return [i % n for i in range(k + 1, k + n + 1)
            if flags[i % n] and not flags[i % n - 1]]


def _trace(surface: TriangulatedSurface, key, level, start_edge: int):
    """Walk one contour of ``key`` at ``level`` by the module's rule.

    Returns the crossings as (triangle, entry eid, exit eid), starting at
    ``start_edge`` through its lower-numbered triangle.  Raises OpenCycle
    if ``start_edge`` is not crossed, naming how many other edges of that
    triangle are.
    """
    triangles, tri_edges, table = surface.triangles, surface._tri_edges, surface._table
    m = 2 * len(triangles) + 1
    t0 = t = (min(divmod(table[start_edge], m)) - 1) >> 1
    tri, i = triangles[t0], tri_edges[t0].index(start_edge)
    below = key[tri[i]] <= level
    if below == (key[tri[i - 2]] <= level):
        raise OpenCycle("triangle %d has %d other crossed edges"
                        % (t0, 2 * (below != (key[tri[i - 1]] <= level))))
    e, out = start_edge, []
    while True:
        te, tri = tri_edges[t], triangles[t]
        i = te.index(e)     # edge i - 2 is edge i + 1
        x = te[i - 2] if ((key[tri[i - 1]] <= level)
                          == (key[tri[i]] <= level)) else te[i - 1]
        out.append((t, e, x))
        c1, c2 = divmod(table[x], m)    # x's two triangles, t one of them
        e, t = x, ((c1 - 1) >> 1) + ((c2 - 1) >> 1) - t
        if e == start_edge and t == t0:
            return out


def _cycle_from_crossings(surface: TriangulatedSurface, level: float,
                          crossings) -> LevelCycle:
    k = crossings.index(min(crossings))     # start at the least crossing
    n = surface.n_vertices
    pairs = tuple((t, divmod(a, n), divmod(b, n))
                  for t, a, b in crossings[k:] + crossings[:k])
    return LevelCycle(level, pairs)


def _pick_witness_level(a: float, b: float, fraction: float,
                        sorted_values: list[float]) -> float:
    """A level strictly inside (a, b) avoiding every vertex value.

    Works gap by gap between the vertex values inside (a, b), starting at
    the gap containing the requested fraction and spiralling outward;
    gaps too narrow to hold a representable float are skipped.  Only the
    gaps visited are read: gap ``p`` runs from ``sorted_values[p]`` (``a``
    for ``p == lo - 1``) to the next value (``b`` for ``p == hi - 1``).
    """
    lo = bisect_right(sorted_values, a)
    hi = bisect_left(sorted_values, b)
    t0 = a + (b - a) * fraction
    if not a < t0 < b:
        t0 = (a + b) / 2.0
    k = bisect_right(sorted_values, t0, lo, hi) - 1
    for d in range(hi - lo + 1):
        for p in (k + d, k - d) if d else (k,):
            if lo <= p + 1 <= hi:
                x = sorted_values[p] if p >= lo else a
                y = sorted_values[p + 1] if p + 1 < hi else b
                mid = (x + y) / 2.0
                if x < mid < y:
                    return mid
                step = nextafter(x, y)
                if x < step < y:
                    return step
    raise DegenerateField("no representable level strictly inside (%r, %r)"
                          % (a, b))


def build_reeb(surface: TriangulatedSurface, field: ScalarField,
               witness_fraction: float = 0.5) -> ReebGraph:
    """Reeb graph of the field by an increasing-order level sweep.

    Vertices are the PL-critical mesh vertices (ids ``v<mesh index>``,
    centers at extrema, saddles where components merge or split), at their
    field values; edges are the contour classes in between, created in
    sweep order (ids ``e0``, ``e1``, ...), each carrying a witness cycle
    sampled at ``witness_fraction`` of its span (nudged off vertex
    values).  The sweep records only the vertices each class passed; a
    witness level, and the edge its trace starts from, are picked only
    for the one vertex each witness reads.  Labels are left inessential;
    run :func:`label_reeb` to classify.  The window is padded slightly
    past the extreme values so every vertex is interior, and clamped to
    the finite floats.  Raises DegenerateField on a monkey saddle, when
    two critical vertices share a value, or when a value is the largest
    finite float in magnitude.
    """
    _check_pair(surface, field)
    if not (isinstance(witness_fraction, (int, float)) and 0.0 < witness_fraction < 1.0):
        raise BadWitnessFraction(
            "witness_fraction %r must be inside (0, 1)" % witness_fraction)

    values, links, stars = field.values, surface.links, surface.stars
    n = surface.n_vertices
    # a stable sort: ties break by index, so vertices run in (value, index) order
    order = sorted(range(n), key=values.__getitem__)
    rank = [0] * n      # position in the (value, index) order
    for i, v in enumerate(order):
        rank[v] = i

    # A live contour is [its crossed edges, the arc it grows].  An arc is
    # [segments, rep, upper]: the vertices its class passed, the lower end
    # first; the rep picked at that first one; the upper end, None while
    # the arc grows.
    owner: dict[int, list] = {}     # crossed edge -> its contour
    vertices: list[ReebVertex] = []
    arcs: list[list] = []

    def pick_rep(candidates, event_value: float) -> int:
        # A witness representative must still be crossed at value levels
        # above the event; edges whose upper endpoint only wins the
        # index tie-break die at the same value and cannot serve.  When
        # every candidate is flat, the segment is value-degenerate and a
        # later segment at the same value will be used instead.
        rising = [e for e in candidates
                  if max(values[e // n], values[e % n]) > event_value]
        return min(rising) if rising else min(candidates)

    def open_arc(contour: list, v: int) -> None:
        contour[1] = [[v], pick_rep(contour[0], values[v]), None]
        arcs.append(contour[1])

    def start(edges: set[int], v: int) -> None:
        contour = [edges, None]
        for e in edges:
            owner[e] = contour
        open_arc(contour, v)

    def splice(contour: list, dead: list[int], born: list[int]) -> None:
        contour[0].difference_update(dead)
        contour[0].update(born)
        for e in dead:
            del owner[e]
        for e in born:
            owner[e] = contour

    for v in order:
        rv, star = rank[v], stars[v]
        low = [rank[u] < rv for u in links[v]]
        # the turns around the link where "below" flips
        turns = sum(map(ne, low, low[1:])) + (low[0] != low[-1])
        if turns == 2:
            # the contour crossing the lower star moves to the upper star
            dead, born = [], []
            for e, x in zip(star, low):
                if x:
                    dead.append(e)
                else:
                    born.append(e)
            c = owner[dead[0]]
            for e in dead:
                if owner.pop(e) is not c:
                    raise ContourSweepFailed("torn contour at regular vertex %d" % v)
            c[0].difference_update(dead)
            c[0].update(born)
            for e in born:
                owner[e] = c
            c[1][0].append(v)
            continue

        vid = "v%d" % v
        if turns == 0:
            vertices.append(ReebVertex(vid, values[v], VertexKind.CENTER))
            if not low[0]:
                start(set(star), v)
                continue
            c = owner[star[0]]
            if c[0] != set(star):
                raise ContourSweepFailed("contour at maximum %d is not its star" % v)
            c[1][2] = v
            for e in star:
                del owner[e]
            continue
        if turns != 4:
            raise DegenerateField(
                "monkey saddle at vertex %d (%d descending sectors); "
                "subdivide the mesh around it" % (v, turns // 2))

        vertices.append(ReebVertex(vid, values[v], VertexKind.SADDLE))
        lower = _run_starts(low)
        upper = _run_starts([not x for x in low])
        dead = list(compress(star, low))
        born = [e for e, x in zip(star, low) if not x]
        c1 = owner[star[lower[0]]]
        c2 = owner[star[lower[1]]]
        c1[1][2] = c2[1][2] = v     # the arcs below end here
        if c1 is not c2:
            keep, gone = (c1, c2) if len(c1[0]) >= len(c2[0]) else (c2, c1)
            for e in gone[0]:
                owner[e] = keep
            keep[0] |= gone[0]
            splice(keep, dead, born)
            open_arc(keep, v)
        else:
            splice(c1, dead, born)
            # the crossings close up, so their exits are every edge crossed
            side_a = {x for _, _, x in _trace(surface, rank, rv, star[upper[0]])}
            if star[upper[1]] in side_a or not side_a <= c1[0]:
                raise ContourSweepFailed(
                    "level cycle failed to split at vertex %d" % v)
            c1[0] -= side_a
            start(side_a, v)
            open_arc(c1, v)

    # every live contour owns an edge, so none is left when none is owned
    if owner:
        raise ContourSweepFailed("sweep finished with live contours")
    crit_values = sorted(x.level for x in vertices)
    for x, y in zip(crit_values, crit_values[1:]):
        if x == y:
            raise DegenerateField(
                "two critical vertices share the value %r; perturb the field" % x)

    sorted_values = sorted(set(values))
    lo_val, hi_val = sorted_values[0], sorted_values[-1]
    big = sys.float_info.max
    if lo_val == -big or hi_val == big:
        raise DegenerateField("no finite window lies strictly outside the "
                              "field values [%r, %r]" % (lo_val, hi_val))
    # the padded window must stay finite and strictly outside every value,
    # even where the pad overflows or rounds away
    pad = (hi_val - lo_val) / 16.0
    lo = max(min(lo_val - pad, nextafter(lo_val, -inf)), -big)
    hi = min(max(hi_val + pad, nextafter(hi_val, inf)), big)
    edges: list[ReebEdge] = []
    for i, (segments, rep, top) in enumerate(arcs):
        t = _pick_witness_level(values[segments[0]], values[top],
                                witness_fraction, sorted_values)
        # the last segment below t; the first, at a < t, always qualifies
        # and is the only one whose rep the sweep picked
        k = bisect_left(segments, t, key=values.__getitem__) - 1
        if k:
            w = segments[k]
            rep = pick_rep([e for u, e in zip(links[w], stars[w])
                            if rank[u] > rank[w]], values[w])
        witness = _cycle_from_crossings(surface, t,
                                        _trace(surface, values, t, rep))
        edges.append(ReebEdge("e%d" % i, "v%d" % segments[0], "v%d" % top,
                              EdgeLabel.INESSENTIAL, witness=witness))

    meta = {"builder": {"witness_fraction": witness_fraction,
                        "triangles": surface.n_triangles}}
    return ReebGraph(vertices, edges, lo, hi, meta=meta)


def _check_cycle(surface: TriangulatedSurface, field: ScalarField,
                 cycle: LevelCycle) -> None:
    """Raise unless the cycle is a closed loop of crossings at its level,
    in one pass.  Only crossing 0's entry is looked up: each later entry
    equals the exit before it, which passed, and ``LevelCycle`` makes ends
    ints, so equal pairs are the same edge."""
    crossings = cycle.crossings
    if not crossings:
        raise OpenCycle("empty cycle")
    level, values, n = cycle.level, field.values, surface.n_vertices
    table, tri_edges, nt = surface._table, surface._tri_edges, surface.n_triangles
    m, out = len(crossings), None
    for i, (t, entry, exit_) in enumerate(crossings):
        nxt = crossings[(i + 1) % m][1]
        if entry == exit_:
            raise BadWitness("crossing %d enters and exits edge %r" % (i, entry))
        if exit_ != nxt:
            raise OpenCycle("crossing %d exits %r but the next enters %r"
                            % (i, exit_, nxt))
        for pair in (exit_,) if i else (entry, exit_):
            a, b = pair     # ints, 0 <= a < b, so a pair with b < n keys itself
            into, out = out, a * n + b
            if b >= n or out not in table:
                raise BadWitness("cycle references missing edge %r" % (pair,))
            va, vb = values[a], values[b]
            if not (va < level < vb or vb < level < va):
                raise BadWitness("edge %r is not crossed at level %r" % (pair, level))
        if not 0 <= t < nt:
            raise BadWitness("cycle references missing triangle %r" % t)
        if into not in tri_edges[t] or out not in tri_edges[t]:
            raise BadWitness("triangle %d does not contain both crossing edges" % t)
    if len({t for t, _, _ in crossings}) != m:
        raise BadWitness("cycle visits a triangle twice")


def _disk_edges(g: ReebGraph) -> set[str]:
    """Ids of the edges whose level curves bound a disk.

    Such an edge hangs off the rest of ``g`` in a tree: repeatedly
    removing a vertex of valency one, with its last edge, removes exactly
    those edges, in O(V + E).  A loop adds 2 to its vertex's valency, so
    every cycle survives, and a tree is removed whole.  Raises
    ReebTopologyMismatch if ``g`` has no vertices or is not connected.
    """
    if not g.vertices:
        raise ReebTopologyMismatch("Reeb graph has no vertices")
    seen, stack = {g.vertices[0].id}, [g.vertices[0].id]
    incident, edge_by_id = g.incident, g.edge_by_id
    while stack:
        for k in incident[stack.pop()]:
            e = edge_by_id[k]
            for u in (e.lower, e.upper):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    if len(seen) != len(g.vertices):
        raise ReebTopologyMismatch(
            "Reeb graph is not connected: %d of %d vertices reachable"
            % (len(seen), len(g.vertices)))
    valency = {v: len(incident[v]) for v in seen}
    leaves = [v for v, n in valency.items() if n == 1]
    out: set[str] = set()
    while leaves:
        v = leaves.pop()
        if valency[v] != 1:     # its last edge went from the other end
            continue
        k = next(k for k in incident[v] if k not in out)
        out.add(k)
        e = edge_by_id[k]
        u = e.upper if e.lower == v else e.lower
        valency[v] = 0
        valency[u] -= 1
        if valency[u] == 1:
            leaves.append(u)
    return out


def label_reeb(surface: TriangulatedSurface, field: ScalarField,
               g: ReebGraph) -> ReebGraph:
    """Label every edge from the topology of ``g``; no mesh is cut.

    Each edge's witness is first checked against the surface (present,
    parsed, a closed cycle at its level), then against its edge: BadWitness
    unless its level lies strictly between the edge's end levels.  Then,
    because the cycle rank of a connected Reeb graph on a closed orientable
    surface equals the genus, an edge is inessential iff it is a bridge and
    one of its two sides has cycle rank 0, that is, iff it hangs off the
    rest of ``g`` in a tree.  Raises ReebTopologyMismatch when ``g`` is
    disconnected or its cycle rank is not the surface's genus.
    """
    _check_pair(surface, field)
    witnesses = []
    for e in g.edges:
        w = e.witness
        if w is None:
            raise MissingWitness("edge %s has no witness cycle" % e.id)
        if not isinstance(w, LevelCycle):
            w = LevelCycle.from_payload(w)
        _check_cycle(surface, field, w)
        a, b = g.span(e.id)
        if not a < w.level < b:
            raise BadWitness("witness level %r of edge %s is not strictly between "
                             "its end levels %r and %r" % (w.level, e.id, a, b))
        witnesses.append(w)
    chi = surface.euler_characteristic()
    rank = len(g.edges) - len(g.vertices) + 1
    if 2 * rank != 2 - chi:
        raise ReebTopologyMismatch(
            "Reeb graph has cycle rank %d but the surface has genus %d"
            % (rank, (2 - chi) // 2))
    disk = _disk_edges(g)
    edges = tuple(
        e._replace(label=EdgeLabel.INESSENTIAL if e.id in disk else EdgeLabel.ESSENTIAL,
                   witness=w)
        for e, w in zip(g.edges, witnesses))
    # the records keep g's sorted order and ids, so nothing is sorted again
    return ReebGraph._trusted(g.vertices, edges, g.lo, g.hi, meta=g.meta)
