"""Integer assignment on the essential subgraph and the distance bound.

The sweep walks the window left to right and gives every essential edge a
positive integer whose meaning is: curves on that edge are at most that
many steps from a compressing curve at the lower boundary in the curve
complex of the sweep surface.  Three rules drive it:

* step0 seeds every edge adjacent to the lower boundary with 1;
* step1 copies the integer across any valency-two vertex of the subgraph
  until nothing changes (the two level loops there are isotopic, so they
  must agree);
* step2 finds the lowest vertex with an unassigned edge, classifies the
  integers on the frontier (the edges spanning the gap just left of it)
  as either one value n or two consecutive values {n-1, n}, and writes
  n+1 respectively n onto the unassigned edges there.

The final report takes the minimum m over edges adjacent to the upper
boundary; m+1 bounds the distance between the compressing systems of the
two sides.

check_invariants re-derives, from scratch, the consistency conditions the
sweep relies on (single assignment per edge, frontier dichotomy, the
downstream band {n-1, n}, and the plateau conditions: wherever all
assigned edges spanning an inter-event gap share one value, everything
assigned to the right shares it too and connects back through edges of
that value).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import (
    BrokenUniqueness,
    ConflictingPropagation,
    IncompleteAssignment,
    InvariantViolation,
    NoLowerBoundary,
    NonConsecutiveFrontier,
    NothingToAssign,
    NoUpperBoundary,
    UnassignedFrontier,
)
from .graph import EssentialSubgraph, ValidationReport, Violation

STEP0 = "step0"
STEP1 = "step1"
STEP2 = "step2"

# Rule ids used by check_invariants.
RULE_SINGLE = "single-assignment"
RULE_FRONTIER = "frontier-class"
RULE_BAND = "downstream-band"
RULE_PLATEAU_VALUE = "plateau-uniform"
RULE_PLATEAU_PATH = "plateau-connected"


@dataclass(frozen=True)
class AllEqual:
    """Every frontier edge carries the same integer n."""
    n: int


@dataclass(frozen=True)
class Consecutive:
    """The frontier carries exactly the two integers n-1 and n."""
    n: int


FrontierClass = AllEqual | Consecutive


@dataclass(frozen=True)
class TraceEntry:
    step: str
    vertex: str | None
    edges: tuple[str, ...]
    integer: int


@dataclass(frozen=True)
class PartialAssignment:
    """Edge id -> positive integer, plus the per-round trace.

    Instances are immutable; the step functions return new ones.
    """

    assigned: dict[str, int]
    trace: tuple[TraceEntry, ...]

    def value(self, eid: str) -> int | None:
        return self.assigned.get(eid)

    def is_complete(self, g: EssentialSubgraph) -> bool:
        return all(e.id in self.assigned for e in g.edges)

    def _extend(self, entry: TraceEntry) -> "PartialAssignment":
        assigned = dict(self.assigned)
        for eid in entry.edges:
            assigned[eid] = entry.integer
        return PartialAssignment(assigned, self.trace + (entry,))


@dataclass(frozen=True)
class DistanceBoundReport:
    per_boundary_edge: dict[str, int]
    n_min: int
    bound: int

    def to_dict(self) -> dict:
        return {
            "per_boundary_edge": dict(sorted(self.per_boundary_edge.items())),
            "n_min": self.n_min,
            "bound": self.bound,
        }


def empty_assignment() -> PartialAssignment:
    return PartialAssignment({}, ())


def step0(g: EssentialSubgraph) -> PartialAssignment:
    """Seed: every edge touching the lower boundary gets 1."""
    if not g.boundary_minus:
        raise NoLowerBoundary("no lower-boundary vertex in the subgraph")
    seeded = sorted({eid for vid in g.boundary_minus for eid in g.incident(vid)})
    return empty_assignment()._extend(TraceEntry(STEP0, None, tuple(seeded), 1))


def classify_frontier(g: EssentialSubgraph, p: PartialAssignment,
                      vid: str) -> FrontierClass:
    """Classify the integers on the edges spanning just left of a vertex.

    Raises UnassignedFrontier if a spanning edge has no integer yet, and
    NonConsecutiveFrontier if the value set is neither a singleton nor a
    consecutive pair (or is empty); valid inputs never do either.
    """
    frontier = g.spanning(g.gap_below(vid))
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


def _valency2_vertices(g: EssentialSubgraph) -> list[str]:
    return [v.id for v in g.vertices if g.degree(v.id) == 2]


def step1_saturate(g: EssentialSubgraph, p: PartialAssignment) -> PartialAssignment:
    """Copy integers across valency-two vertices until a fixpoint.

    The copy applies whenever a vertex has valency two in the subgraph and
    exactly one of its edges carries an integer, regardless of whether the
    edges leave on opposite sides or the same side of the vertex.  If both
    edges end up assigned with different integers the input was not in the
    supported class: ConflictingPropagation.
    """
    out = p
    queue = deque(_valency2_vertices(g))
    while queue:
        vid = queue.popleft()
        if g.degree(vid) != 2:
            continue
        e1, e2 = g.incident(vid)
        v1, v2 = out.value(e1), out.value(e2)
        if (v1 is None) == (v2 is None):
            continue
        src, dst = (e1, e2) if v2 is None else (e2, e1)
        entry = TraceEntry(STEP1, vid, (dst,), out.assigned[src])
        out = out._extend(entry)
        edge = g.edge(dst)
        for end in (edge.lower, edge.upper):
            if end != vid and g.degree(end) == 2:
                queue.append(end)
    for vid in _valency2_vertices(g):
        e1, e2 = g.incident(vid)
        v1, v2 = out.value(e1), out.value(e2)
        if v1 is not None and v2 is not None and v1 != v2:
            raise ConflictingPropagation(
                "vertex %s joins edges assigned %d and %d" % (vid, v1, v2))
    return out


def _next_target(g: EssentialSubgraph, p: PartialAssignment) -> str | None:
    """Lowest-level interior vertex with an unassigned incident edge."""
    for vid in g.interior:
        if any(eid not in p.assigned for eid in g.incident(vid)):
            return vid
    return None


def step2(g: EssentialSubgraph, p: PartialAssignment) -> PartialAssignment:
    """One sweep round: classify the frontier at the unique lowest vertex
    with unassigned edges and write the dictated integer onto them.

    Verifies the uniqueness guarantee first: every edge reaching strictly
    left of the target must already be assigned (BrokenUniqueness
    otherwise -- valid inputs cannot trip this).
    """
    target = _next_target(g, p)
    if target is None:
        raise NothingToAssign("all %d edges carry integers" % len(g.edges))
    level = g.level(target)
    stragglers = [e.id for e in g.edges
                  if e.id not in p.assigned and g.span(e.id)[0] < level]
    if stragglers:
        raise BrokenUniqueness(
            "unassigned edges strictly left of %s: %s"
            % (target, ", ".join(sorted(stragglers))))
    cls = classify_frontier(g, p, target)
    value = cls.n + 1 if isinstance(cls, AllEqual) else cls.n
    todo = tuple(sorted(eid for eid in g.incident(target)
                        if eid not in p.assigned))
    return p._extend(TraceEntry(STEP2, target, todo, value))


def _connected_min_levels(g: EssentialSubgraph,
                          eids: Iterable[str]) -> dict[str, float]:
    """For each edge in the set, the lowest level reached by its connected
    component within the set (edges connect through shared vertices)."""
    eids = list(eids)
    parent: dict[str, str] = {eid: eid for eid in eids}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    anchor: dict[str, str] = {}
    for eid in eids:
        e = g.edge(eid)
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
        a, _ = g.span(eid)
        low[root] = min(low.get(root, a), a)
    return {eid: low[find(eid)] for eid in eids}


def check_invariants(g: EssentialSubgraph, p: PartialAssignment,
                     vid: str | None) -> ValidationReport:
    """Re-verify the sweep's consistency conditions by direct recomputation.

    ``vid`` is the next sweep target, or None when the assignment is
    complete (then only single-assignment is checkable).  Checks:

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
        level = g.level(vid)
        gap0 = g.gap_below(vid)
        frontier = g.spanning(gap0)
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
                val = p.value(e.id)
                if val is None or g.span(e.id)[1] <= level:
                    continue
                if val not in band:
                    out.append(Violation(
                        RULE_BAND, (e.id,),
                        "edge right of %s carries %d outside {%d, %d}"
                        % (vid, val, top - 1, top)))

        events = g.event_levels()
        flagged_value: set[str] = set()
        flagged_path: set[str] = set()
        min_level_cache: dict[int, dict[str, float]] = {}
        for gap in range(gap0, len(events) - 1):
            spanning = g.spanning(gap)
            vals = {p.assigned[e] for e in spanning if e in p.assigned}
            if len(vals) != 1:
                continue
            m = vals.pop()
            x = events[gap]
            if m not in min_level_cache:
                m_edges = [e.id for e in g.edges if p.value(e.id) == m]
                min_level_cache[m] = _connected_min_levels(g, m_edges)
            reach = min_level_cache[m]
            for e in g.edges:
                val = p.value(e.id)
                if val is None or g.span(e.id)[1] <= x:
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

    return ValidationReport.from_violations(out)


def _checked(g: EssentialSubgraph, p: PartialAssignment) -> None:
    report = check_invariants(g, p, _next_target(g, p))
    if not report.ok:
        raise InvariantViolation(report)


def assign_all(g: EssentialSubgraph, check: bool = False) -> PartialAssignment:
    """Run the full sweep until every edge carries an integer.

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


def distance_bound(g: EssentialSubgraph,
                   p: PartialAssignment) -> DistanceBoundReport:
    """Minimum over upper-boundary edges, plus one."""
    if not g.boundary_plus:
        raise NoUpperBoundary("no upper-boundary vertex in the subgraph")
    if not p.is_complete(g):
        missing = sorted(e.id for e in g.edges if e.id not in p.assigned)
        raise IncompleteAssignment("unassigned edges: %s" % ", ".join(missing))
    per_edge = {eid: p.assigned[eid]
                for vid in g.boundary_plus for eid in g.incident(vid)}
    n_min = min(per_edge.values())
    return DistanceBoundReport(per_edge, n_min, n_min + 1)


def assignment_to_dict(p: PartialAssignment,
                       report: DistanceBoundReport | None = None,
                       include_trace: bool = False) -> dict:
    """Assignment JSON payload: edges, optional trace, and the bound."""
    out: dict = {"edges": dict(sorted(p.assigned.items()))}
    if include_trace:
        out["trace"] = [
            {"step": t.step, "vertex": t.vertex, "edges": list(t.edges),
             "integer": t.integer}
            for t in p.trace
        ]
    if report is not None:
        out["n_min"] = report.n_min
        out["bound"] = report.bound
    return out
