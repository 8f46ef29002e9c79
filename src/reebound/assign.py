"""Integer assignment on the essential subgraph and the distance bound.

The sweep walks the :class:`ReebGraph` from :func:`essential_subgraph`
left to right and gives every edge a positive integer whose meaning is:
curves on that edge are at most that many steps from a compressing curve
at the lower boundary in the curve complex of the sweep surface.  Three
rules drive it, each recorded in the trace under its name:

* step0 seeds every edge adjacent to the lower boundary with 1;
* step1 copies the integer across any valency-two vertex of the subgraph
  until nothing changes (the two level loops there are isotopic, so they
  must agree);
* step2 finds the lowest vertex with an unassigned edge, classifies the
  integers on the frontier (the edges spanning the gap just left of it)
  as either one value n or two consecutive values {n-1, n}, and writes
  n+1 respectively n onto the unassigned edges there.

assign_all runs them in one pass over the interior vertices in level
order, keeping its state between rounds: step1 is a worklist seeded by
the edges the round wrote, the next step2 vertex comes from a pointer
that only moves up, and the frontier is a ``_Frontier``, the module's
one walk over the gaps.  A run costs O((V + E) log V).

The final report takes the minimum m over edges adjacent to the upper
boundary; m+1 bounds the distance between the compressing systems of the
two sides.

check_invariants re-derives, from scratch, the consistency conditions the
sweep relies on (single assignment per edge, frontier dichotomy, the
downstream band {n-1, n}, and the plateau conditions: wherever all
assigned edges spanning an inter-event gap share one value, everything
assigned to the right shares it too and connects back through edges of
that value).  It counts the trace's writes and reads the rest off a
private checker, the module's one derivation of the conditions, fed the
whole assignment at once.  The checked run keeps one such checker for
the run, with its own frontier walk (never the sweep's), and decides
each round in one call: a write costs a few dict operations and an OR of
G bits for G gaps, a round its walk and O(1) compares and shifts of
G-bit ints.  Unless the graph has a loop, flat or backward edge, it
certifies exactly the rounds check_invariants passes, which thus runs
only to report a violation.
"""
from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import NamedTuple

from .errors import (
    BrokenUniqueness,
    ConflictingPropagation,
    IncompleteAssignment,
    InvariantViolation,
    NoLowerBoundary,
    NonConsecutiveFrontier,
    NothingToAssign,
    NoUpperBoundary,
)
from .graph import ReebGraph, ValidationReport, Violation, _new

STEP0 = "step0"
STEP1 = "step1"
STEP2 = "step2"

# Rule ids used by check_invariants.
RULE_SINGLE = "single-assignment"
RULE_FRONTIER = "frontier-class"
RULE_BAND = "downstream-band"
RULE_PLATEAU_VALUE = "plateau-uniform"
RULE_PLATEAU_PATH = "plateau-connected"

_ends = itemgetter(1, 2)     # (lower, upper) of an edge record


class TraceEntry(NamedTuple):
    step: str
    vertex: str | None
    edges: tuple[str, ...]
    integer: int


@dataclass(frozen=True)
class PartialAssignment:
    """Edge id -> positive integer, plus the per-round trace."""

    assigned: dict[str, int]
    trace: tuple[TraceEntry, ...]

    def is_complete(self, g: ReebGraph) -> bool:
        return all(e.id in self.assigned for e in g.edges)


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


class _Frontier:
    """The edges spanning gap ``gap``, walked up from below the lowest gap:
    ``open`` of them with no integer in ``values`` (edge id -> integer)
    and ``counts[n]`` carrying n.  Later integers go in through
    ``write`` (``_Checker.take`` inlines it), counted at once if their edge
    spans the gap.  A loop, flat or backward edge spans no gap and never
    enters.
    """

    def __init__(self, g: ReebGraph, values: dict[str, int]):
        self.values, self.gaps = values, g.gaps
        self.enter: list[list[str]] = [[] for _ in g.events]
        self.leave: list[list[str]] = [[] for _ in g.events]
        for eid, gaps in self.gaps.items():
            if gaps:
                self.enter[gaps.start].append(eid)
                self.leave[gaps.stop].append(eid)
        self.gap, self.open = -1, 0
        self.counts: dict[int, int] = {}

    def write(self, eid: str, value: int) -> None:
        self.values[eid] = value
        if self.gap in self.gaps[eid]:
            self.open -= 1
            self.counts[value] = self.counts.get(value, 0) + 1

    def advance(self, gap: int) -> None:
        """Move up to ``gap``; a lower one leaves the walk where it is."""
        values, counts = self.values, self.counts
        while self.gap < gap:
            self.gap += 1
            leave, enter = self.leave[self.gap], self.enter[self.gap]
            for eid in leave:
                value = values.get(eid)
                if value is None:
                    self.open -= 1
                elif counts[value] > 1:
                    counts[value] -= 1
                else:
                    del counts[value]
            for eid in enter:
                value = values.get(eid)
                if value is None:
                    self.open += 1
                else:
                    counts[value] = counts.get(value, 0) + 1


def check_invariants(g: ReebGraph, p: PartialAssignment,
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
      level x.  Each edge is reported at the first such gap only.

    All but the first rule are read off a fresh checker fed the whole
    assignment as one entry, not the trace, which may be at odds with
    it.  A call costs one checker write per assigned edge, one walk over
    the gaps and a sort of the trace's writes.
    """
    writes = Counter(eid for entry in p.trace for eid in entry.edges)
    out = [Violation(RULE_SINGLE, (eid,), "edge written %d times" % n)
           for eid, n in sorted(writes.items()) if n > 1]
    if vid is not None:
        checker = _Checker(g)
        checker.take(p.assigned, (TraceEntry(STEP0, None, tuple(p.assigned), 1),))
        out += checker.report(g, vid)
    return ValidationReport(tuple(out))


class _Checker:
    """The module's one derivation of the consistency conditions, from
    state that only adds to or moves up: ``take`` reads trace entries
    into it, ``report`` lists the violations at a target, and ``clean``
    decides a round of a checked run in one call, True exactly when
    check_invariants would find nothing (save the exceptions below).

    ``take`` reads the entries appended since its last call, their
    edges' integers in the assignment and the graph's index, never the
    sweep's state.  It keeps ``value`` per edge written and its own
    frontier, written in place; ``live``, the gaps each integer's edges
    span as the bits of one int; ``top``, the three integers reaching
    furthest, as (reach, integer) largest first; ``uf``, per integer, a
    union-find over vertex ids with each root's lowest gap (an edge's
    lowest gap is the event index of its lower end, so a loop, a flat or
    a backward edge counts too), in a max-heap pushed when that gap is new
    or lowered.  A write costs a few dict operations and one OR of G bits
    for G gaps; a round of ``clean``, its frontier walk and O(1) compares
    and shifts of G-bit ints.

    Once the frontier carries b, or b - 1 and b, and no other integer is
    live at a gap past the frontier's, a gap from the frontier's on is a
    plateau iff exactly one of the two is live there: a violation below
    the smaller reach.  Beyond it only the integer that reaches further
    is live, and its components must start at or below its first live
    gap.  The exceptions: a graph with an edge that spans no gap (a loop,
    a flat or a backward edge), or a trace at odds with the assignment,
    is never certified.
    """

    def __init__(self, g: ReebGraph):
        self.gaps, self.edges, self.index = g.gaps, g.edge_by_id, g.event_index
        self.sound, self.value = all(self.gaps.values()), {}
        self.front, self.seen, self.live = _Frontier(g, self.value), 0, {}
        self.uf = defaultdict(lambda: ({}, {}, []))
        self.top: list[tuple[int, int | None]] = [(0, None)] * 3
        self.none = len(g.events)   # above every gap: the lowest gap of a root with none

    def take(self, assigned: dict[str, int], trace) -> bool:
        """Read the trace entries appended since the last call: False if one
        writes an edge twice or unassigned, or an assigned edge stays unwritten.
        The frontier's gap stays put here, so its writes are inline."""
        value, gaps, edges, live, uf = self.value, self.gaps, self.edges, self.live, self.uf
        front, top, none = self.front, self.top, self.none
        gap, counts = front.gap, front.counts
        for entry in trace[self.seen:]:
            for eid in entry.edges:
                n = assigned.get(eid)
                if n is None or eid in value:
                    return False
                value[eid] = n
                span = gaps[eid]
                start, stop = span.start, span.stop
                if start <= gap < stop:
                    front.open -= 1
                    counts[n] = counts.get(n, 0) + 1
                if start < stop:
                    bits = live.get(n, 0)
                    live[n] = bits | ((1 << stop) - (1 << start))
                    if stop > top[2][0] and stop > bits.bit_length():
                        top.pop(0 if top[0][1] == n else 1 if top[1][1] == n else 2)
                        top.insert((top[0][0] >= stop) + (top[1][0] >= stop), (stop, n))
                parent, low, heap = uf[n]
                x, y = _ends(edges[eid])
                # path halving; a vertex seen first is its own root
                while (p := parent.setdefault(x, x)) != x:
                    parent[x] = x = parent[p]
                while (p := parent.setdefault(y, y)) != y:
                    parent[y] = y = parent[p]
                # the root with the lower gap stays one
                if low.get(x, none) > low.get(y, none):
                    x, y = y, x
                parent[y] = x
                if start < low.get(x, none):
                    low[x] = start
                    heappush(heap, (-start, x))
        self.seen = len(trace)
        return len(value) == len(assigned)

    def clean(self, assigned: dict[str, int], trace, vid: str | None) -> bool:
        if not (self.sound and self.take(assigned, trace)):
            self.sound = False
            return False
        if vid is None:
            return True
        gap0, front, live = self.index[vid] - 1, self.front, self.live
        front.advance(gap0)
        counts = front.counts
        if front.gap != gap0 or front.open or not counts:
            return False
        b = max(counts)
        a = b - 1
        if len(counts) > 2 or (len(counts) == 2 and a not in counts):
            return False
        (r0, n0), (r1, n1), (r2, _) = self.top
        if (r0 if n0 != a and n0 != b else r1 if n1 != a and n1 != b else r2) > gap0 + 1:
            return False    # the furthest-reaching integer but a and b is live past gap0
        # the gaps from gap0 on where a and b are live, as bits from 0
        la, lb = live.get(a, 0) >> gap0, live[b] >> gap0
        ra, rb = la.bit_length(), lb.bit_length()
        if ra == rb:
            return la == lb
        m, far, near, first = (a, la, lb, rb) if ra > rb else (b, lb, la, ra)
        if far & ((1 << first) - 1) != near:
            return False
        rest = far >> first     # m's first live gap from there on is a plateau
        plateau = gap0 + first + (rest & -rest).bit_length() - 1
        # the highest lowest gap over the components of m's edges
        parent, low, heap = self.uf[m]
        while parent[heap[0][1]] != heap[0][1] or low[heap[0][1]] != -heap[0][0]:
            heappop(heap)
        return -heap[0][0] <= plateau

    def report(self, g: ReebGraph, vid: str) -> list[Violation]:
        """The frontier-class, downstream-band and plateau violations at
        ``vid``, each rule's in edge order, the plateau hits by gap.  The
        frontier walks on to the top gap, so this is a checker's last call.

        Every level comparison is one on event indices: an edge's upper
        end lies right of the level of event k iff ``gaps.stop > k``.
        """
        out, hits = [], []      # hits: (gap, plateau violation)
        value, front, gap0 = self.value, self.front, self.index[vid] - 1
        front.advance(gap0)
        values = sorted(front.counts)
        if front.open:
            missing = [e for e in g.spanning(gap0) if e not in value]
            out.append(Violation(RULE_FRONTIER, tuple(missing),
                                 "unassigned frontier edges at %s" % vid))
        if not (front.open or values):
            out.append(Violation(RULE_FRONTIER, (vid,), "empty frontier"))
        elif not front.open and values[-1] - values[0] > 1:
            out.append(Violation(RULE_FRONTIER, (vid,),
                                 "frontier carries %r" % values))

        # the first plateau of each value, from gap0 on, read off the walk:
        # an edge of value v reaching right of the first plateau of
        # another value fails plateau-uniform there; it fails
        # plateau-connected at the first plateau of value v if its
        # component within the v-edges starts above that gap
        events, first_of = g.events, {}
        for gap in range(max(gap0, 0), len(events) - 1):
            front.advance(gap)
            if len(front.counts) == 1:
                first_of.setdefault(next(iter(front.counts)), gap)
        firsts = sorted((gap, m) for m, gap in first_of.items()) + [(self.none, None)]

        # the assigned edges in id order, each with its value and gap range;
        # the plateau hits follow every band violation, by gap and then, as
        # the sort is stable, in edge order
        band = (values[-1] - 1, values[-1]) if values else ()
        valued = [(e, value[e.id], self.gaps[e.id]) for e in g.edges if e.id in value]
        for e, val, gaps in valued:
            # upper level above level(vid), which is event gap0 + 1
            if band and gaps.stop > gap0 + 1 and val not in band:
                out.append(Violation(RULE_BAND, (e.id,),
                                     "edge right of %s carries %d outside {%d, %d}"
                                     % (vid, val, *band)))
            gap, m = firsts[firsts[0][1] == val]     # the first plateau not of val
            if gap < gaps.stop:
                hits.append((gap, Violation(
                    RULE_PLATEAU_VALUE, (e.id,),
                    "edge above plateau level %r carries %d, not %d"
                    % (events[gap], val, m))))
            (parent, low, _), x = self.uf[val], e.lower
            while parent[x] != x:
                x = parent[x]
            gap = first_of.get(val, self.none)
            if gap < gaps.stop and gap < low[x]:
                hits.append((gap, Violation(
                    RULE_PLATEAU_PATH, (e.id,),
                    "no path through %d-edges from %s down to level %r"
                    % (val, e.id, events[gap]))))
        return out + [v for _, v in sorted(hits, key=itemgetter(0))]


class _Sweep:
    """The state one run of the sweep carries from round to round.

    Rounds only ever add integers, so every structure moves one way:
    ``next`` indexes the lowest interior vertex that may still have an
    unassigned edge, and ``frontier``, which writes every integer, walks
    up to the gap left of each target.  ``stray`` lists, in id order, the
    edges whose lower end is an upper-boundary vertex, off its incidence list.
    """

    def __init__(self, g: ReebGraph):
        self.g = g
        self.assigned: dict[str, int] = {}
        self.trace: list[TraceEntry] = []
        # the graph's own index, read in place
        self.edges, self.incident, self.gaps = g.edge_by_id, g.incident, g.gaps
        self.valency2 = [v for v, eids in self.incident.items() if len(eids) == 2]
        self.rank = {vid: k for k, vid in enumerate(self.valency2)}
        self.next = 0
        # Step 0 writes every edge at a lower-boundary vertex, and next_target
        # moves past an interior vertex, in (level, id) order, only once all
        # its edges carry integers.  So an edge still unassigned whose lower
        # end is below the target, or left unassigned when no target is left,
        # hangs off the upper boundary, where a loop is listed twice.
        self.stray = sorted({eid for vid in g.boundary_plus for eid in self.incident[vid]
                             if self.edges[eid][1] == vid})
        self.frontier = _Frontier(g, self.assigned)

    def run_round(self, step: str, vid: str | None, eids: tuple[str, ...],
                  value: int) -> None:
        """Write ``value`` onto ``eids``, unassigned edges each listed
        once, then saturate step 1."""
        self.trace.append(_new(TraceEntry, (step, vid, eids, value)))
        for eid in eids:
            self.frontier.write(eid, value)
        self._saturate(eids)

    def _saturate(self, written: tuple[str, ...]) -> None:
        """Copy integers across valency-two vertices until a fixpoint.

        Replays the queue order of a full in-order pass over the
        valency-two vertices followed by a FIFO of the ones re-queued
        behind each copy.  Before the round every such vertex had both or
        neither edge assigned, so the pass can only copy at the ends of
        edges written since: the heap ``ahead``, seeded from ``written``,
        holds those still in front of the pass, by rank.  Every such end
        is popped at least once, an integer never changes once written,
        and a vertex popped with one edge assigned gets a copy, so the
        ends that join two integers are those popped with two that
        differ: ConflictingPropagation names the lowest-ranked of them.
        """
        rank, assigned, edges, incident = self.rank, self.assigned, self.edges, self.incident
        ahead = [rank[end] for eid in written for end in _ends(edges[eid])
                 if end in rank]
        if not ahead:   # nothing to copy, and no valency-two vertex to clash
            return
        heapify(ahead)
        behind: deque[str] = deque()
        cursor, clash = -1, len(self.valency2)
        while ahead or behind:
            if ahead:
                cursor = heappop(ahead)
                vid = self.valency2[cursor]
            else:
                cursor = len(self.valency2)
                vid = behind.popleft()
            e1, e2 = incident[vid]
            n1, n2 = assigned.get(e1), assigned.get(e2)
            if (n1 is None) is (n2 is None):    # neither or both assigned
                if n1 != n2:
                    clash = min(clash, rank[vid])
                continue
            dst, value = (e1, n2) if n1 is None else (e2, n1)
            self.trace.append(_new(TraceEntry, (STEP1, vid, (dst,), value)))
            self.frontier.write(dst, value)
            for end in _ends(edges[dst]):
                if end != vid and end in rank:
                    behind.append(end)
                    if rank[end] > cursor:
                        heappush(ahead, rank[end])
        if clash < len(self.valency2):
            vid = self.valency2[clash]
            e1, e2 = incident[vid]
            raise ConflictingPropagation(
                "vertex %s joins edges assigned %d and %d"
                % (vid, assigned[e1], assigned[e2]))

    def next_target(self) -> str | None:
        """Lowest-level interior vertex with an unassigned incident edge."""
        interior, assigned = self.g.interior, self.assigned
        while self.next < len(interior):
            vid = interior[self.next]
            if not all(map(assigned.__contains__, self.incident[vid])):
                return vid
            self.next += 1
        return None

    def check_left_of(self, target: str) -> None:
        """BrokenUniqueness unless every edge whose lower end is strictly
        below the target is assigned."""
        if not self.stray:
            return
        index, assigned = self.g.event_index[target], self.assigned
        stragglers = [eid for eid in self.stray
                      if eid not in assigned and self.gaps[eid].start < index]
        if stragglers:
            raise BrokenUniqueness("unassigned edges strictly left of %s: %s"
                                   % (target, ", ".join(stragglers)))

    def frontier_value(self, target: str) -> int:
        """The integer step 2 writes at the target: n+1 if the frontier
        carries one value n, n if it carries n-1 and n, read off the one or
        two keys of its counts with min and max.

        Raises NonConsecutiveFrontier, its values sorted, if the frontier is
        empty or its values are neither; valid inputs never do.  Every
        frontier edge is assigned, as check_left_of has just passed.
        """
        front = self.frontier
        front.advance(self.g.event_index[target] - 1)
        counts = front.counts
        if counts and max(counts) - (low := min(counts)) < 2:
            return low + 1
        if not (front.open or counts):
            raise NonConsecutiveFrontier(
                "no essential edge spans the gap just left of %s" % target)
        raise NonConsecutiveFrontier(
            "frontier of %s carries %r" % (target, sorted(counts)))


def assign_all(g: ReebGraph, check: bool = False) -> PartialAssignment:
    """Run the full sweep until every edge carries an integer.

    With ``check=True`` the consistency conditions are verified after
    every saturation, at the next target (at the end, at the top vertex
    if it sits at hi): the incremental checker certifies the round clean,
    or check_invariants derives the report from scratch, and a report
    with violations aborts the run with InvariantViolation carrying it.
    """
    if not g.boundary_minus:
        raise NoLowerBoundary("no lower-boundary vertex in the subgraph")
    sweep = _Sweep(g)
    checker = _Checker(g) if check else None
    seeded = sorted({eid for vid in g.boundary_minus for eid in g.incident[vid]})
    sweep.run_round(STEP0, None, tuple(seeded), 1)
    top = g.vertices[-1]    # the last round is checked at the gap below hi
    last = top.id if top.level == g.hi else None
    while True:
        done = len(sweep.assigned) == len(g.edges)
        target = last if done else sweep.next_target()
        if checker is not None and not checker.clean(
                sweep.assigned, sweep.trace, target):
            report = check_invariants(g, PartialAssignment(
                sweep.assigned, tuple(sweep.trace)), target)
            if not report.ok:
                raise InvariantViolation(report)
        if done:
            return PartialAssignment(sweep.assigned, tuple(sweep.trace))
        if target is None:
            missing = [eid for eid in sweep.stray if eid not in sweep.assigned]
            raise NothingToAssign("no interior vertex meets the unassigned edges: %s"
                                  % ", ".join(missing))
        sweep.check_left_of(target)
        value = sweep.frontier_value(target)
        # a loop's two entries in the incidence list are written once
        todo = tuple({e: None for e in g.incident[target] if e not in sweep.assigned})
        sweep.run_round(STEP2, target, todo, value)


def distance_bound(g: ReebGraph,
                   p: PartialAssignment) -> DistanceBoundReport:
    """Minimum over upper-boundary edges, plus one."""
    if not g.boundary_plus:
        raise NoUpperBoundary("no upper-boundary vertex in the subgraph")
    if not p.is_complete(g):
        missing = sorted(e.id for e in g.edges if e.id not in p.assigned)
        raise IncompleteAssignment("unassigned edges: %s" % ", ".join(missing))
    per_edge = {eid: p.assigned[eid]
                for vid in g.boundary_plus for eid in g.incident[vid]}
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
