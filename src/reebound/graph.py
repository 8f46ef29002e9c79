"""Labeled Reeb graphs of level-set sweeps on surfaces.

A graph lives over a level window [lo, hi].  Vertices carry an exact real
level and a kind (boundary, center, saddle, or a valency-two subdivision
point); edges are monotone (lower level strictly below upper level) and
carry an essential/inessential label describing the level loops they stand
for.  All level comparisons are exact on the stored floats; no epsilon is
ever used.  The event levels are the distinct vertex levels plus lo and
hi; "just left of a level" is the open gap between that level and the
event level below it, and an edge [a, b] spans a gap (x, y) exactly when
a <= x and y <= b.

Everything here is a pure function over values that are immutable after
construction.  Vertices and edges are immutable named tuples; an edge's
``witness`` takes no part in its equality or hash.
"""
from __future__ import annotations

import json
from math import isfinite
from dataclasses import dataclass, field
from enum import Enum
from itertools import pairwise
from operator import itemgetter
from typing import Any, NamedTuple

from .errors import (BadWindow, EmptyWindow, InvalidGraph, MalformedGraph,
                     NonGenericCut)


class VertexKind(str, Enum):
    BOUNDARY_MINUS = "boundary-minus"
    BOUNDARY_PLUS = "boundary-plus"
    CENTER = "center"
    SADDLE = "saddle"
    REGULAR = "regular"


class EdgeLabel(str, Enum):
    ESSENTIAL = "essential"
    INESSENTIAL = "inessential"


# plain names and values for hot loops: Enum attribute reads are slow on CPython 3.11
_MINUS, _PLUS, _CENTER, _SADDLE, _REGULAR = VertexKind
_ESSENTIAL = EdgeLabel.ESSENTIAL
_KIND_VALUES = {m: m.value for m in VertexKind}
_LABEL_VALUES = {m: m.value for m in EdgeLabel}

#: Valency each vertex kind must have in the full graph.
EXPECTED_VALENCY = {_MINUS: 1, _PLUS: 1, _CENTER: 1, _SADDLE: 3, _REGULAR: 2}

BOUNDARY_KINDS = (_MINUS, _PLUS)


class ReebVertex(NamedTuple):
    id: str
    level: float
    kind: VertexKind


class ReebEdge(NamedTuple):
    """An immutable edge record, equal to and hashed like another edge
    with the same id, ends and label, whatever their witnesses."""

    id: str
    lower: str
    upper: str
    label: EdgeLabel
    #: Optional mesh provenance (a level cycle, or its JSON payload).
    #: Not part of equality or hashing.
    witness: Any = None

    def __eq__(self, other):
        return self[:4] == other[:4] if isinstance(other, ReebEdge) else NotImplemented

    def __ne__(self, other):
        return self[:4] != other[:4] if isinstance(other, ReebEdge) else NotImplemented

    def __hash__(self):
        return hash(self[:4])


# Validation rule identifiers, stable across releases.
RULE_EDGE_MONOTONE = "EdgeMonotone"
RULE_VERTEX_VALENCY = "VertexValency"
RULE_BOUNDARY_LEVEL = "BoundaryLevel"
RULE_GENERICITY = "Genericity"
RULE_SADDLE_PARITY = "SaddleParity"
RULE_CENTER = "CenterRule"
RULE_COVERAGE = "LevelCoverage"
RULE_REGULAR = "RegularVertex"


@dataclass(frozen=True)
class Violation:
    rule: str
    subjects: tuple[str, ...]
    note: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"rule": v.rule, "subjects": list(v.subjects), "note": v.note}
                for v in self.violations
            ],
        }


def _check_finite(value: float, what: str, *args,
                  error: type[Exception] = MalformedGraph) -> None:
    """Raise ``error`` unless value keeps the level rule: a finite float or
    an int that a float holds exactly (JSON reads every level back as a
    float); ``what % args`` names it, formatted only on failure."""
    rule = "a finite number"
    try:
        if isinstance(value, (int, float)) and isfinite(value):
            if float(value) == value:
                return
            rule = "an int that a float holds exactly"
    except OverflowError:   # an int too large for a float
        pass
    raise error("%s must be %s, got %s" % (what % args, rule, _shown(value)))


def _shown(value) -> str:
    """``repr(value)``; an int too long for ``str`` is shown by its size,
    also inside a tuple or a list."""
    try:
        return repr(value)
    except ValueError:  # an int with more digits than str() may print
        if isinstance(value, int):
            return "an int of %d bits" % value.bit_length()
        return "(%s)" % ", ".join(map(_shown, value))


def _as_tuple(given, what: str, error: type[Exception] = MalformedGraph) -> tuple:
    """``given`` as a tuple; ``error`` names it when it is not iterable."""
    try:
        return tuple(given)
    except TypeError:
        raise error("%s must be iterable, got %s" % (what, _shown(given))) from None


@dataclass(eq=True)
class ReebGraph:
    """A labeled Reeb graph over the window [lo, hi].

    Vertices and edges are canonicalized (sorted) at construction, so two
    graphs compare equal exactly when they have the same window and the
    same vertex/edge content.  ``meta`` carries provenance (generator
    seeds, mesh info) and is excluded from comparisons.

    Construction indexes the graph once, into tables that every reader
    reads in place and none changes: ``vertex_by_id`` and ``edge_by_id``
    (each record by its id), ``incident`` (each vertex id to the ids of
    its edges in id order, a loop listed twice), ``events`` (the sorted
    event levels, a tuple), ``event_index`` (each vertex id to the index
    of its level in ``events``) and ``gaps`` (each edge id to the range of
    gaps it spans).  Gap k is the open interval between event levels k
    and k + 1, and an edge [a, b] spans (x, y) iff a <= x and y <= b, so
    its range runs from the event index of its lower end to that of its
    upper end: decided on indices, the rule is exact however close the
    levels are, and a loop, flat or backward edge spans no gap.
    The event levels and each vertex's event index are read off the vertex
    loop, as the vertices come in (level, id) order; the first vertex at a
    level gives its event level, so of levels that compare equal (-0.0 and
    0.0, 1 and 1.0) the first is kept.  Only when a vertex lies outside
    [lo, hi], or none sits at lo or at hi, are they derived from the sorted
    set of the vertex levels with lo and hi, which keeps the same objects.
    The same pass reads the vertex kinds into ``boundary_minus`` and
    ``boundary_plus`` (frozensets of ids) and ``interior`` (every other id
    in (level, id) order: on a full graph, centers and regular vertices too).
    The constructor sorts the records, ``_trusted`` (for essential_subgraph
    and label_reeb) takes them sorted, and indexing decides the whole record
    contract: every vertex is a ``ReebVertex``, every edge a ``ReebEdge``,
    every id a ``str``, kind a ``VertexKind`` and label an ``EdgeLabel``, no
    id repeats, every edge end is a vertex id, and levels, lo and hi keep
    the level rule (see ``_check_finite``), so that a graph survives its
    JSON round trip.  The first bad field of the first bad record met raises
    ``MalformedGraph``, in sorted order, or in the order given when a bad
    record stops the sort, so no code past construction checks a record.
    A record with the wrong number of fields is named by that number, as
    its ``repr`` raises; levels that refuse ``<`` do not sort.
    """

    vertices: tuple[ReebVertex, ...]
    edges: tuple[ReebEdge, ...]
    lo: float
    hi: float
    meta: dict | None = field(default=None, compare=False, kw_only=True)

    def __post_init__(self):
        _check_finite(self.lo, "lo")
        _check_finite(self.hi, "hi")
        if not self.lo < self.hi:
            raise MalformedGraph("window lo must be below hi")
        vertices = _as_tuple(self.vertices, "vertices")
        edges = _as_tuple(self.edges, "edges")
        try:
            self.vertices = tuple(sorted(vertices, key=itemgetter(1, 0)))  # level, id
            self.edges = tuple(sorted(edges, key=itemgetter(0)))  # id
        except (TypeError, ValueError, IndexError) as exc:
            # a record that breaks the contract stops the sort, and the walk
            # over the records as given names it; only a level that keeps the
            # level rule but refuses to be ordered gets past the walk
            self.vertices, self.edges = vertices, edges
            self._index()
            raise MalformedGraph("records do not sort: %s" % exc) from None
        self._index()

    @classmethod
    def _trusted(cls, vertices, edges, lo, hi, meta=None) -> "ReebGraph":
        g = object.__new__(cls)
        g.vertices, g.edges, g.lo, g.hi, g.meta = vertices, edges, lo, hi, meta
        g._index()
        return g

    def _index(self) -> None:
        self.vertex_by_id = by_id = {}
        self.event_index = event_index = {}
        events = []
        bounds, interior, incident, last = {_MINUS: [], _PLUS: []}, [], {}, None
        for v in self.vertices:
            if type(v) is not ReebVertex:
                raise MalformedGraph("vertex record must be a ReebVertex, got %s" % _shown(v))
            try:
                vid, level, kind = v
            except ValueError:  # a record made with the wrong field count
                raise MalformedGraph("vertex record must have 3 fields, got %d"
                                     % len(v)) from None
            if type(vid) is not str:
                raise MalformedGraph("vertex id must be a string, got %s" % _shown(vid))
            if not (type(level) is float and isfinite(level)):
                _check_finite(level, "level of vertex %s", vid)
            if type(kind) is not VertexKind:
                raise MalformedGraph("kind of vertex %s must be a vertex kind, got %s"
                                     % (vid, _shown(kind)))
            if vid in by_id:
                raise MalformedGraph("duplicate vertex id %r" % vid)
            by_id[vid] = v
            incident[vid] = []
            if level != last:   # the first vertex at its level
                events.append(last := level)
            event_index[vid] = len(events) - 1
            bounds.get(kind, interior).append(vid)
        self.boundary_minus, self.boundary_plus = map(frozenset, bounds.values())
        self.interior = tuple(interior)
        if not (events and events[0] == self.lo and events[-1] == self.hi):
            # a vertex outside the window, or none at lo or at hi
            try:
                events = sorted({*events, self.lo, self.hi})
            except TypeError as exc:    # a level that keeps the rule but refuses <
                raise MalformedGraph("records do not sort: %s" % exc) from None
            index = {level: k for k, level in enumerate(events)}
            event_index.update((vid, index[level]) for vid, level, _ in self.vertices)
        self.events = tuple(events)
        self.edge_by_id = edge_by_id = {}
        self.gaps = gaps = {}
        for e in self.edges:
            if type(e) is not ReebEdge:
                raise MalformedGraph("edge record must be a ReebEdge, got %s" % _shown(e))
            try:
                eid, lower, upper, label, _ = e
            except ValueError:
                raise MalformedGraph("edge record must have 5 fields, got %d" % len(e)) from None
            if type(eid) is not str:
                raise MalformedGraph("edge id must be a string, got %s" % _shown(eid))
            if type(label) is not EdgeLabel:
                raise MalformedGraph("label of edge %s must be an edge label, got %s"
                                     % (eid, _shown(label)))
            if eid in edge_by_id:
                raise MalformedGraph("duplicate edge id %r" % eid)
            try:
                incident[lower].append(eid)
                incident[upper].append(eid)
            except (KeyError, TypeError):   # a missing or unhashable end
                end = upper if isinstance(lower, str) and lower in incident else lower
                raise MalformedGraph("edge %r references missing vertex %s"
                                     % (eid, _shown(end))) from None
            edge_by_id[eid] = e
            gaps[eid] = range(event_index[lower], event_index[upper])
        self.incident = {k: tuple(v) for k, v in incident.items()}

    def span(self, eid: str) -> tuple[float, float]:
        """(lower level, upper level) of the edge."""
        e = self.edge_by_id[eid]
        return (self.vertex_by_id[e.lower].level, self.vertex_by_id[e.upper].level)

    def spanning(self, gap: int) -> list[str]:
        """Ids of the edges spanning the gap, in id order."""
        return [eid for eid, gaps in self.gaps.items() if gap in gaps]


def validate(g: ReebGraph, *, allow_regular: bool = False,
             check_coverage: bool = True) -> ValidationReport:
    """Check every structural rule and report all violations.

    Rules: monotone edges, valency matching the vertex kind, boundary
    vertices sitting exactly on lo/hi with everything else strictly
    inside, pairwise-distinct interior critical levels, the saddle parity
    rule (a saddle meets 0, 2 or 3 essential edge-ends, never exactly 1),
    the center rule (all edges at a center are inessential), and level
    coverage (every inter-event gap is spanned by at least one essential
    edge).  Each rule is decided on the graph's index, in one pass over the
    edges and one over the vertices: an edge is monotone iff its gap range
    is non-empty, and a valency is an incidence count.

    ``allow_regular`` tolerates valency-two subdivision vertices, which
    never come from critical points.  ``check_coverage=False`` skips the
    coverage rule; unrestricted whole-surface graphs fail it trivially
    because level loops near their extrema bound disks.
    """
    out: list[Violation] = []
    # essential ends per vertex, and essential edges opening minus closing per event
    ess: dict[str, int] = {}
    delta = [0] * len(g.events)
    for eid, lower, upper, label, _ in g.edges:
        gaps = g.gaps[eid]
        if not gaps:
            out.append(Violation(RULE_EDGE_MONOTONE, (eid,),
                                 "edge levels %r -> %r are not increasing"
                                 % g.span(eid)))
        if label is _ESSENTIAL:
            ess[lower] = ess.get(lower, 0) + 1
            ess[upper] = ess.get(upper, 0) + 1
            delta[gaps.start] += 1
            delta[gaps.stop] -= 1
    monotone_ok = not out

    # runs of critical vertices at one level (the vertices come in level
    # order), and the parity and center rules, reported after genericity
    runs, ends, crit = [], [], None
    for vid, level, kind in g.vertices:
        want = EXPECTED_VALENCY[kind]
        deg = len(g.incident[vid])
        if kind is _REGULAR and not allow_regular:
            out.append(Violation(RULE_REGULAR, (vid,),
                                 "valency-two subdivision vertex present"))
        if deg != want:
            out.append(Violation(RULE_VERTEX_VALENCY, (vid,),
                                 "%s vertex has valency %d, expected %d"
                                 % (kind.value, deg, want)))
        if kind is _MINUS and level != g.lo:
            out.append(Violation(RULE_BOUNDARY_LEVEL, (vid,),
                                 "lower-boundary vertex not at lo"))
        elif kind is _PLUS and level != g.hi:
            out.append(Violation(RULE_BOUNDARY_LEVEL, (vid,),
                                 "upper-boundary vertex not at hi"))
        elif kind not in BOUNDARY_KINDS and not g.lo < level < g.hi:
            out.append(Violation(RULE_BOUNDARY_LEVEL, (vid,),
                                 "interior vertex not strictly inside the window"))
        if kind is _SADDLE or kind is _CENTER:
            if level != crit:
                crit, run = level, []
                runs.append((level, run))
            run.append(vid)
            if kind is _SADDLE and ess.get(vid) == 1:
                ends.append(Violation(RULE_SADDLE_PARITY, (vid,),
                                      "saddle meets exactly one essential edge-end"))
            elif kind is _CENTER and vid in ess:
                ends.append(Violation(RULE_CENTER, (vid,),
                                      "center meets an essential edge"))
    out += [Violation(RULE_GENERICITY, tuple(run), "interior vertices share level %r" % level)
            for level, run in runs if len(run) > 1]
    out += ends

    if check_coverage and monotone_ok:
        spanning = 0
        for k, (a, b) in enumerate(pairwise(g.events)):
            spanning += delta[k]
            if not spanning:
                out.append(Violation(RULE_COVERAGE, (),
                                     "no essential edge spans (%r, %r)" % (a, b)))

    return ValidationReport(tuple(out))


def restrict(g: ReebGraph, lo: float, hi: float) -> ReebGraph:
    """Cut the graph down to the level window [lo, hi].

    Every edge is clipped to the window; cut points become boundary
    vertices (ids ``cut:<edge id>:lo`` / ``:hi``, primed until no vertex
    inside the window has that id), original vertices inside the window
    are kept, and everything outside is discarded.
    Labels and witnesses are inherited.  Windows reaching past the graph's
    own window are clamped to it, so restriction always means
    intersection.

    Raises BadWindow unless lo and hi keep the level rule (see
    ``ReebGraph``), NonGenericCut if an interior vertex sits exactly on a
    window boundary, and EmptyWindow if nothing survives.
    """
    _check_finite(lo, "window lo", error=BadWindow)
    _check_finite(hi, "window hi", error=BadWindow)
    lo_eff = max(lo, g.lo)
    hi_eff = min(hi, g.hi)
    if not lo_eff < hi_eff:
        raise EmptyWindow("window (%r, %r) misses the graph window (%r, %r)"
                          % (lo, hi, g.lo, g.hi))
    for v in g.vertices:
        if v.kind not in BOUNDARY_KINDS and v.level in (lo_eff, hi_eff):
            raise NonGenericCut("interior vertex %s sits exactly at level %r"
                                % (v.id, v.level))

    kept = {v.id for v in g.vertices if lo_eff <= v.level <= hi_eff}

    def cut(eid: str, end: str, level: float, kind: VertexKind) -> ReebVertex:
        vid = "cut:%s:%s" % (eid, end)
        while vid in kept:
            vid += "'"
        return ReebVertex(vid, level, kind)

    new_vertices: dict[str, ReebVertex] = {}
    new_edges: list[ReebEdge] = []
    for e in g.edges:
        a, b = g.span(e.id)
        if not max(a, lo_eff) < min(b, hi_eff):
            continue
        lower_v, upper_v = g.vertex_by_id[e.lower], g.vertex_by_id[e.upper]
        if a < lo_eff:
            lower_v = cut(e.id, "lo", lo_eff, VertexKind.BOUNDARY_MINUS)
        if b > hi_eff:
            upper_v = cut(e.id, "hi", hi_eff, VertexKind.BOUNDARY_PLUS)
        new_vertices[lower_v.id] = lower_v
        new_vertices[upper_v.id] = upper_v
        new_edges.append(e._replace(lower=lower_v.id, upper=upper_v.id))
    if not new_edges:
        raise EmptyWindow("no edge meets (%r, %r)" % (lo_eff, hi_eff))
    return ReebGraph(new_vertices.values(), new_edges, lo_eff, hi_eff, meta=g.meta)


def essential_subgraph(g: ReebGraph, *,
                       prevalidated: bool = False) -> ReebGraph:
    """Keep only essential edges and their endpoints.

    The input must pass :func:`validate` (raises InvalidGraph otherwise);
    pass ``prevalidated=True`` to skip the re-check when the caller just
    validated.  Vertices that lose all their edges are dropped, and a
    saddle that loses an inessential branch has valency two in the result.
    The result is indexed from ``g``'s records without sorting them again.
    """
    if not prevalidated:
        report = validate(g)
        if not report.ok:
            raise InvalidGraph(report)
    # Subsets of g's records are sorted, unique and finite like them, and
    # keep holds every edge end, so the index's checks pass on any g.
    edges = tuple(e for e in g.edges if e[3] is _ESSENTIAL)
    keep = {*map(itemgetter(1), edges), *map(itemgetter(2), edges)}
    vertices = tuple(v for v in g.vertices if v[0] in keep)
    return ReebGraph._trusted(vertices, edges, g.lo, g.hi)


# -- JSON wire format ---------------------------------------------------------

def _witness_payload(witness: Any) -> Any:
    to_payload = getattr(witness, "to_payload", None)
    return witness if to_payload is None else to_payload()


def graph_to_dict(g: ReebGraph) -> dict:
    """The JSON form of ``g``.  A LevelCycle witness gives its crossings
    as the stored tuples; any other witness, such as one read from JSON,
    is kept as it is.  A JSON null reads as no witness, and no witness
    writes no ``witness`` key."""
    vertices = [{"id": v.id, "level": v.level, "kind": _KIND_VALUES[v.kind]}
                for v in g.vertices]
    out: dict[str, Any] = {"lo": g.lo, "hi": g.hi, "vertices": vertices,
                           "edges": []}
    for e in g.edges:
        entry: dict[str, Any] = {"id": e.id, "lower": e.lower,
                                 "upper": e.upper, "label": _LABEL_VALUES[e.label]}
        payload = _witness_payload(e.witness)
        if payload is not None:
            entry["witness"] = payload
        out["edges"].append(entry)
    if g.meta is not None:
        out["meta"] = g.meta
    return out


_KINDS = {m.value: m for m in VertexKind}.__getitem__
_LABELS = {m.value: m for m in EdgeLabel}.__getitem__
_new = tuple.__new__    # a record without the named tuple's Python-level __new__


def _records(data: dict, kind, label) -> tuple[list, list]:
    """The payload's vertices and edges, ``kind`` and ``label`` mapping
    each string to its member."""
    return ([_new(ReebVertex, (str(v["id"]), float(v["level"]), kind(v["kind"])))
             for v in data["vertices"]],
            [_new(ReebEdge, (str(e["id"]), str(e["lower"]), str(e["upper"]),
                             label(e["label"]), e.get("witness")))
             for e in data["edges"]])


def graph_from_dict(data: dict) -> ReebGraph:
    try:
        try:
            vertices, edges = _records(data, _KINDS, _LABELS)
        except (KeyError, TypeError):
            # a string off its table: the enum calls name the first fault
            vertices, edges = _records(data, VertexKind, EdgeLabel)
        lo, hi = float(data["lo"]), float(data["hi"])
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise MalformedGraph("bad graph payload: %s" % exc) from None
    return ReebGraph(vertices, edges, lo, hi, meta=data.get("meta"))


def graph_dumps(g: ReebGraph) -> str:
    """Serialize to compact JSON; levels keep full float precision, so the
    text round-trips bit-exactly."""
    return json.dumps(graph_to_dict(g), separators=(",", ":"))


def graph_loads(text: str) -> ReebGraph:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedGraph("not valid JSON: %s" % exc) from None
    if not isinstance(data, dict):
        raise MalformedGraph("graph payload must be a JSON object")
    return graph_from_dict(data)
