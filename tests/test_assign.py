"""The integer sweep: steps, frontier, invariants, bound.

The single steps are driven through the step-at-a-time reference in
``_oracles``; assign_all runs them as one pass.  Expected maps for the
worked graphs were derived with the naive rescanning oracle and frozen
here; each test re-confirms the oracle agrees before asserting the
frozen value.
"""
from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import reebound.assign as assign_mod
from reebound import (
    GenParams,
    PartialAssignment,
    TraceEntry,
    assign_all,
    check_invariants,
    distance_bound,
    essential_subgraph,
    random_reeb,
    restrict,
    validate,
)
from reebound.errors import (
    BrokenUniqueness,
    ConflictingPropagation,
    EmptyWindow,
    IncompleteAssignment,
    InvariantViolation,
    NoLowerBoundary,
    NonConsecutiveFrontier,
    NonGenericCut,
    NothingToAssign,
    NoUpperBoundary,
    ReeboundError,
)
from reebound.graph import (EdgeLabel, ReebEdge, ReebGraph, ReebVertex,
                            VertexKind, Violation)

from _fixtures import (
    adjacent_saddles_graph,
    center_below_saddle_graph,
    chain_subgraph,
    frontier_subgraph,
    single_edge_graph,
    squeezed,
    theta_graph,
    y_graph,
)
from _oracles import (
    AllEqual,
    Consecutive,
    _final_target,
    classify_frontier,
    naive_assign,
    naive_check_invariants,
    step0,
    step1_saturate,
    step2,
    stepwise_assign,
    UnassignedFrontier,
)

SINGLE_EXPECTED = {"e0": 1}
Y_EXPECTED = {"e0": 1, "e1": 2, "e2": 2}
THETA_EXPECTED = {"e_a": 1, "e_b": 1, "e_c": 2, "e_d": 2, "e_e": 2}


def _sub(graph):
    return essential_subgraph(graph)


class TestStep0:
    def test_single_edge(self):
        p = step0(_sub(single_edge_graph()))
        assert p.assigned == {"e0": 1}
        assert len(p.trace) == 1 and p.trace[0].step == "step0"

    def test_theta_seeds(self):
        p = step0(_sub(theta_graph()))
        assert p.assigned == {"e_a": 1, "e_b": 1}

    def test_no_lower_boundary(self):
        sub = ReebGraph(
            (ReebVertex("t", 1.0, VertexKind.BOUNDARY_PLUS),
             ReebVertex("c", 0.5, VertexKind.SADDLE)),
            (ReebEdge("e0", "c", "t", EdgeLabel.ESSENTIAL),),
            0.0, 1.0)
        with pytest.raises(NoLowerBoundary):
            step0(sub)


class TestStep1:
    def test_copies_across_valency_two(self):
        sub = chain_subgraph(1)
        p = step1_saturate(sub, PartialAssignment({"e0": 1}, ()))
        assert p.assigned == {"e0": 1, "e1": 1}

    def test_fixpoint_of_saturated_input(self):
        sub = chain_subgraph(1)
        p0 = PartialAssignment({"e0": 1, "e1": 1}, ())
        assert step1_saturate(sub, p0).assigned == p0.assigned

    def test_chain_of_three_copies(self):
        # naive reference sweep: the seed value walks the whole chain
        sub = chain_subgraph(3)
        p = step1_saturate(sub, PartialAssignment({"e0": 2}, ()))
        assert p.assigned == {"e0": 2, "e1": 2, "e2": 2, "e3": 2}

    def test_conflict_detected(self):
        sub = chain_subgraph(1)
        with pytest.raises(ConflictingPropagation):
            step1_saturate(sub, PartialAssignment({"e0": 1, "e1": 3}, ()))

    # No full run reaches ConflictingPropagation (see TestOnePass), so these
    # drive one round of the sweep from a state that no run leaves behind.
    def test_sweep_round_names_lower_ranked_clash(self):
        # b -e0- m0 -e1- m1 -e2- t with e0 = 1 and e2 = 3: writing 2 onto
        # e1 makes both m0 and m1 join two integers
        sweep = assign_mod._Sweep(chain_subgraph(2))
        sweep.assigned.update(e0=1, e2=3)
        with pytest.raises(ConflictingPropagation) as info:
            sweep.run_round("step2", "m0", ("e1",), 2)
        assert str(info.value) == "vertex m0 joins edges assigned 1 and 2"

    def test_sweep_round_names_clash_found_behind_the_pass(self):
        # the round writes 2 onto n and x; the pass meets r (rank 1) joining
        # m = 1 and n = 2 first, then copies 2 from x across s (rank 2) onto
        # y, which queues q (rank 0) behind the pass: q joins y = 2 and
        # z = 1, and is named, as the lowest rank
        sub = _hand_built(
            [("b0", 0.0, "-"), ("b1", 0.0, "-"), ("q", 0.2, "o"),
             ("r", 0.3, "o"), ("s", 0.4, "o"), ("t0", 1.0, "+"),
             ("t1", 1.0, "+")],
            [("z", "b0", "q"), ("y", "q", "s"), ("x", "s", "t0"),
             ("m", "b1", "r"), ("n", "r", "t1")])
        sweep = assign_mod._Sweep(sub)
        assert sweep.valency2 == ["q", "r", "s"]
        sweep.assigned.update(z=1, m=1)
        with pytest.raises(ConflictingPropagation) as info:
            sweep.run_round("step2", "s", ("n", "x"), 2)
        assert str(info.value) == "vertex q joins edges assigned 2 and 1"
        assert sweep.trace[-1] == TraceEntry("step1", "s", ("y",), 2)


class TestClassifyFrontier:
    def test_all_equal(self):
        sub, assigned = frontier_subgraph([1, 1])
        cls = classify_frontier(sub, PartialAssignment(assigned, ()), "v")
        assert cls == AllEqual(1)

    def test_consecutive(self):
        sub, assigned = frontier_subgraph([1, 2, 2])
        cls = classify_frontier(sub, PartialAssignment(assigned, ()), "v")
        assert cls == Consecutive(2)

    def test_non_consecutive_rejected(self):
        sub, assigned = frontier_subgraph([1, 3])
        with pytest.raises(NonConsecutiveFrontier):
            classify_frontier(sub, PartialAssignment(assigned, ()), "v")

    def test_unassigned_frontier_rejected(self):
        sub, assigned = frontier_subgraph([1, 1])
        del assigned["f0"]
        with pytest.raises(UnassignedFrontier):
            classify_frontier(sub, PartialAssignment(assigned, ()), "v")


class TestStep2:
    def test_split_gets_n_plus_one(self):
        sub = _sub(y_graph())
        p = step2(sub, step0(sub))
        assert p.assigned == {"e0": 1, "e1": 2, "e2": 2}
        assert p.trace[-1].step == "step2"
        assert p.trace[-1].vertex == "v"

    def test_theta_merge_gets_n(self):
        sub = _sub(theta_graph())
        p = step0(sub)
        p = step2(sub, p)          # v1 splits: e_c, e_d get 2
        assert p.assigned["e_c"] == 2 and p.assigned["e_d"] == 2
        p = step2(sub, p)          # v2 merges {1, 2, 2}: e_e gets 2
        assert p.assigned["e_e"] == 2

    def test_nothing_to_assign(self):
        sub = _sub(single_edge_graph())
        with pytest.raises(NothingToAssign):
            step2(sub, step0(sub))

    def test_broken_uniqueness_on_skipped_seed(self):
        sub = _sub(theta_graph())
        # skipping step0 leaves unassigned edges strictly left of v1
        with pytest.raises(BrokenUniqueness):
            step2(sub, PartialAssignment({}, ()))


class TestAssignAll:
    @pytest.mark.parametrize("fixture,expected", [
        (single_edge_graph, SINGLE_EXPECTED),
        (y_graph, Y_EXPECTED),
        (theta_graph, THETA_EXPECTED),
    ])
    def test_worked_instances(self, fixture, expected):
        sub = _sub(fixture())
        confirmed = naive_assign(sub).assigned
        assert confirmed == expected
        assert assign_all(sub, check=True).assigned == expected

    def test_trace_records_full_run(self):
        sub = _sub(theta_graph())
        p = assign_all(sub)
        steps = [t.step for t in p.trace]
        assert steps[0] == "step0"
        assert steps.count("step2") == 2
        written = [e for t in p.trace for e in t.edges]
        assert sorted(written) == sorted(x.id for x in sub.edges)

    def test_check_mode_matches_uncheck(self):
        for seed in range(20):
            g = random_reeb(GenParams(seed=seed, saddle_count=12))
            sub = essential_subgraph(g, prevalidated=True)
            assert assign_all(sub).assigned == assign_all(sub, check=True).assigned


def _outcome(sweep, sub, check=False):
    """The map and trace of a run, or its error type and message."""
    try:
        p = sweep(sub, check=check)
    except ReeboundError as exc:
        return type(exc).__name__, str(exc)
    return p.assigned, p.trace


_KINDS = {"-": VertexKind.BOUNDARY_MINUS, "+": VertexKind.BOUNDARY_PLUS,
          "o": VertexKind.SADDLE}


def _hand_built(vertices, edges):
    """A subgraph over [0, 1] from (id, level, kind) triples, kind "-"
    for the lower boundary, "+" for the upper one and "o" for interior."""
    vs = tuple(ReebVertex(vid, level, _KINDS[kind])
               for vid, level, kind in vertices)
    es = tuple(ReebEdge(eid, a, b, EdgeLabel.ESSENTIAL)
               for eid, a, b in edges)
    return ReebGraph(vs, es, 0.0, 1.0)


# Each raises in step 2; messages are the ones the step-at-a-time sweep
# gives.
FAULTY_SUBGRAPHS = {
    # c is an upper-boundary vertex, not interior, so its edge is never
    # swept
    "straggler": (
        [("b0", 0.0, "-"), ("c", 0.3, "+"), ("v", 0.5, "o"),
         ("t0", 1.0, "+")],
        [("e0", "b0", "v"), ("e1", "c", "v"), ("e2", "v", "t0")],
        ("BrokenUniqueness", "unassigned edges strictly left of v: e1")),
    # nothing spans (0.3, 0.5)
    "empty-gap": (
        [("b0", 0.0, "-"), ("x", 0.3, "o"), ("s", 0.5, "o"),
         ("t0", 1.0, "+"), ("t1", 1.0, "+")],
        [("e0", "b0", "x"), ("e1", "s", "t0"), ("e2", "s", "t1")],
        ("NonConsecutiveFrontier",
         "no essential edge spans the gap just left of s")),
    # f reaches 3 by two splits, and m is seeded with 1 at level 0.5
    "gap-in-values": (
        [("b1", 0.0, "-"), ("s1", 0.2, "o"), ("s2", 0.4, "o"),
         ("bm", 0.5, "-"), ("s3", 0.6, "o"), ("t0", 1.0, "+"),
         ("t1", 1.0, "+"), ("t2", 1.0, "+")],
        [("b", "b1", "s1"), ("c1", "s1", "s2"), ("c2", "s1", "s2"),
         ("f", "s2", "s3"), ("m", "bm", "t1"), ("g", "s3", "t0"),
         ("h", "s3", "t2")],
        ("NonConsecutiveFrontier", "frontier of s3 carries [1, 3]")),
    # two upper-boundary vertices below v, their edge ids against their
    # levels: the message lists the edges in id order
    "stragglers-in-id-order": (
        [("b0", 0.0, "-"), ("c1", 0.2, "+"), ("c2", 0.3, "+"),
         ("v", 0.5, "o"), ("t0", 1.0, "+")],
        [("e0", "b0", "v"), ("ez", "c1", "v"), ("ea", "c2", "v"),
         ("e1", "v", "t0")],
        ("BrokenUniqueness", "unassigned edges strictly left of v: ea, ez")),
    # a loop at the upper-boundary vertex c is listed twice at c, and
    # named once
    "loop-straggler": (
        [("b0", 0.0, "-"), ("c", 0.3, "+"), ("v", 0.5, "o"),
         ("t0", 1.0, "+"), ("t1", 1.0, "+")],
        [("e0", "b0", "v"), ("e1", "c", "c"), ("e2", "v", "t0"),
         ("e3", "v", "t1")],
        ("BrokenUniqueness", "unassigned edges strictly left of v: e1")),
    # the stray edge touches no interior vertex
    "no-target": (
        [("b0", 0.0, "-"), ("t0", 1.0, "+"), ("t1", 1.0, "+"),
         ("t2", 1.0, "+")],
        [("e0", "b0", "t0"), ("x", "t1", "t2")],
        ("NothingToAssign",
         "no interior vertex meets the unassigned edges: x")),
    # two edges between upper-boundary vertices, created against their
    # id order
    "no-target-in-id-order": (
        [("b0", 0.0, "-"), ("t0", 1.0, "+"), ("t1", 1.0, "+"),
         ("t2", 1.0, "+"), ("t3", 1.0, "+")],
        [("e0", "b0", "t0"), ("z", "t1", "t2"), ("a", "t3", "t1")],
        ("NothingToAssign",
         "no interior vertex meets the unassigned edges: a, z")),
}


@st.composite
def _any_subgraph(draw):
    """Small subgraphs with no promise of validity: shared levels,
    backwards edges and loops, and each vertex's kind drawn freely, so
    boundary vertices may sit at any level."""
    drawn = draw(st.lists(
        st.tuples(st.sampled_from([0.0, 0.2, 0.4, 0.5, 0.6, 1.0]),
                  st.sampled_from(sorted(_KINDS))),
        min_size=1, max_size=7))
    vids = ["v%d" % k for k in range(len(drawn))]
    ends = st.sampled_from(vids)
    edges = [("e%d" % k, a, b) for k, (a, b) in enumerate(
        draw(st.lists(st.tuples(ends, ends), max_size=9)))]
    return _hand_built([(vid, level, kind)
                        for vid, (level, kind) in zip(vids, drawn)], edges)


class TestOnePass:
    """assign_all against the step-at-a-time reference in _oracles: the
    same map, the same trace, the same error type and message.

    ConflictingPropagation and UnassignedFrontier cannot come out of a
    full run.  Every round writes one integer (step 1 copies what the
    round wrote), onto unassigned edges only, after a saturation that
    left each valency-two vertex with both or neither edge assigned, so
    no valency-two vertex ends up joining two integers.  And every
    frontier edge starts strictly below the step-2 vertex, so an
    unassigned one fails the BrokenUniqueness check first.  The step
    tests above raise both through the reference steps.
    """

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000), saddles=st.integers(0, 400),
           pbias=st.floats(0, 1), ibias=st.floats(0, 1))
    def test_generator_graphs(self, seed, saddles, pbias, ibias):
        g = random_reeb(GenParams(seed=seed, saddle_count=saddles,
                                  parallel_edge_bias=pbias,
                                  inessential_bias=ibias))
        sub = essential_subgraph(g, prevalidated=True)
        assigned, trace = _outcome(assign_all, sub)
        assert (assigned, trace) == _outcome(stepwise_assign, sub)
        if saddles <= 100:
            assert naive_assign(sub, random.Random(seed)).assigned == assigned

    def test_generator_graph_at_400_saddles(self):
        g = random_reeb(GenParams(seed=6, saddle_count=400,
                                  parallel_edge_bias=0.5,
                                  inessential_bias=0.5))
        sub = essential_subgraph(g, prevalidated=True)
        p = assign_all(sub)
        q = stepwise_assign(sub)
        assert (p.assigned, p.trace) == (q.assigned, q.trace)
        assert naive_assign(sub).assigned == p.assigned

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 100_000), saddles=st.integers(0, 40),
           pbias=st.floats(0, 1), ibias=st.floats(0, 1))
    def test_checked_generator_graphs(self, seed, saddles, pbias, ibias):
        g = random_reeb(GenParams(seed=seed, saddle_count=saddles,
                                  parallel_edge_bias=pbias,
                                  inessential_bias=ibias))
        sub = essential_subgraph(g, prevalidated=True)
        assert (_outcome(assign_all, sub, check=True)
                == _outcome(stepwise_assign, sub, check=True))

    @pytest.mark.parametrize("s", [0.3, 0.5])
    @pytest.mark.parametrize("fixture", [adjacent_saddles_graph,
                                         center_below_saddle_graph])
    def test_adjacent_float_fixtures(self, fixture, s):
        sub = essential_subgraph(fixture(s))
        for check in (False, True):
            assert (_outcome(assign_all, sub, check)
                    == _outcome(stepwise_assign, sub, check))
        assert naive_assign(sub).assigned == assign_all(sub).assigned

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100_000), saddles=st.integers(1, 20),
           pbias=st.floats(0, 1), ibias=st.floats(0, 1),
           center=st.sampled_from([0.25, 0.3, 0.5, 0.75]))
    def test_adjacent_float_generator_graphs(self, seed, saddles, pbias,
                                             ibias, center):
        g = squeezed(random_reeb(GenParams(seed=seed, saddle_count=saddles,
                                           parallel_edge_bias=pbias,
                                           inessential_bias=ibias)), center)
        sub = essential_subgraph(g)
        for check in (False, True):
            assert (_outcome(assign_all, sub, check)
                    == _outcome(stepwise_assign, sub, check))
        assert naive_assign(sub).assigned == assign_all(sub).assigned

    def test_copies_behind_the_pass_keep_queue_order(self):
        # s writes c1 and c2; the caps w1 and w2 copy them down onto d1 and
        # d2 during the in-order pass, which has already passed u1 and u2,
        # so those two copy afterwards, first in, first out
        sub = _hand_built(
            [("b0", 0.0, "-"), ("s", 0.2, "o"), ("p1", 0.3, "o"),
             ("p2", 0.35, "o"), ("u1", 0.5, "o"), ("u2", 0.55, "o"),
             ("w1", 0.8, "o"), ("w2", 0.9, "o")],
            [("e0", "b0", "s"), ("c1", "s", "w1"), ("c2", "s", "w2"),
             ("d1", "u1", "w1"), ("d2", "u2", "w2"), ("a1", "p1", "u1"),
             ("a2", "p2", "u2")])
        p = assign_all(sub)
        assert [t.vertex for t in p.trace] == [None, "s", "w1", "w2",
                                               "u1", "u2"]
        assert _outcome(assign_all, sub) == _outcome(stepwise_assign, sub)

    def test_copy_off_the_upper_boundary_before_its_level(self):
        # step 1 copies 1 across w onto c's edge in the first round, before
        # any target passes level 0.3, so no straggler is left there
        sub = _hand_built(
            [("b0", 0.0, "-"), ("b1", 0.0, "-"), ("c", 0.3, "+"),
             ("w", 0.5, "o"), ("s", 0.6, "o"), ("t0", 1.0, "+"),
             ("t1", 1.0, "+")],
            [("e0", "b0", "w"), ("e1", "c", "w"), ("e2", "b1", "s"),
             ("e3", "s", "t0"), ("e4", "s", "t1")])
        p = assign_all(sub)
        assert p.trace[1] == TraceEntry("step1", "w", ("e1",), 1)
        assert p.is_complete(sub)
        assert _outcome(assign_all, sub) == _outcome(stepwise_assign, sub)

    def test_loop_at_a_step2_target_written_once(self):
        # the loop l is listed twice in v's incidence list; the round lists
        # it once, so the checked run passes single-assignment
        sub = _hand_built([("b0", 0.0, "-"), ("v", 0.5, "o"), ("t", 1.0, "+")],
                          [("e0", "b0", "v"), ("e1", "v", "t"), ("l", "v", "v")])
        p = assign_all(sub)
        assert p.trace[-1] == TraceEntry("step2", "v", ("e1", "l"), 2)
        assert _outcome(assign_all, sub, check=True) == (p.assigned, p.trace)
        assert _outcome(stepwise_assign, sub, check=True) == (p.assigned, p.trace)

    @pytest.mark.parametrize("name", sorted(FAULTY_SUBGRAPHS))
    def test_faulty_subgraphs(self, name):
        *parts, expected = FAULTY_SUBGRAPHS[name]
        sub = _hand_built(*parts)
        assert _outcome(stepwise_assign, sub) == expected
        assert _outcome(assign_all, sub) == expected
        assert (_outcome(assign_all, sub, check=True)
                == _outcome(stepwise_assign, sub, check=True))

    @settings(max_examples=400, deadline=None)
    @given(sub=_any_subgraph(), check=st.booleans())
    def test_arbitrary_subgraphs(self, sub, check):
        assert (_outcome(assign_all, sub, check)
                == _outcome(stepwise_assign, sub, check))


def _rounds(trace):
    """The trace cut into rounds: each its opening step-0 or step-2 entry
    and the (edges, integer) of its step-1 copies, sorted.  The naive
    rescans copy in a random order, and an edge between two valency-two
    vertices whose other edges the round wrote is copied through either."""
    rounds = []
    for t in trace:
        if t.step == "step1":
            rounds[-1][1].append((t.edges, t.integer))
        else:
            rounds.append((t, []))
    return [(head, sorted(copies)) for head, copies in rounds]


class TestWindows:
    """Generator graphs cut to windows inside (0, 1).  Wherever the cut
    passes validate, the checked sweep on its essential subgraph gives
    naive_assign's map, trace rounds and bound, and the step-at-a-time
    reference's trace entry for entry.  A window that raises
    NonGenericCut or EmptyWindow, or whose cut fails validate, is counted
    as a Hypothesis event and kept, never filtered out."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 100_000), saddles=st.integers(0, 40),
           pbias=st.floats(0, 1), ibias=st.floats(0, 1), data=st.data())
    def test_checked_sweep_matches_naive(self, seed, saddles, pbias, ibias,
                                         data):
        g = random_reeb(GenParams(seed=seed, saddle_count=saddles,
                                  parallel_edge_bias=pbias,
                                  inessential_bias=ibias))
        # ends anywhere inside (0, 1), or exactly at an interior level,
        # in order or in either order
        levels = [v.level for v in g.vertices if 0.0 < v.level < 1.0]
        end = st.one_of(st.floats(0, 1, exclude_min=True, exclude_max=True),
                        *([st.sampled_from(levels)] if levels else []))
        window = st.one_of(st.tuples(end, end).map(sorted), st.tuples(end, end))
        for lo, hi in data.draw(st.lists(window, min_size=1, max_size=6)):
            try:
                cut = restrict(g, lo, hi)
            except (NonGenericCut, EmptyWindow) as exc:
                event(type(exc).__name__)
                continue
            report = validate(cut)
            if not report.ok:
                event("invalid: %s" % sorted(report.rules()))
                continue
            event("checked")
            sub = essential_subgraph(cut, prevalidated=True)
            p = assign_all(sub, check=True)
            q = naive_assign(sub, random.Random(seed))
            assert p.assigned == q.assigned
            assert _rounds(p.trace) == _rounds(q.trace)
            assert distance_bound(sub, p) == distance_bound(sub, q)
            assert p.trace == stepwise_assign(sub, check=True).trace


class TestTrickyShapes:
    def test_same_side_copy_beats_later_split(self):
        # two essential edges bind into an inessential one at v; in the
        # subgraph v has valency two with both edges below it, and the
        # copy rule still applies: e2 inherits 1 from e1 even though its
        # own lower vertex u2 has not been processed yet
        from reebound.graph import EdgeLabel as L, ReebGraph
        g = ReebGraph(
            (ReebVertex("b1", 0.0, VertexKind.BOUNDARY_MINUS),
             ReebVertex("u1", 0.0, VertexKind.BOUNDARY_MINUS),
             ReebVertex("u2", 0.3, VertexKind.SADDLE),
             ReebVertex("v", 0.5, VertexKind.SADDLE),
             ReebVertex("t_p", 1.0, VertexKind.BOUNDARY_PLUS),
             ReebVertex("q", 1.0, VertexKind.BOUNDARY_PLUS)),
            (ReebEdge("a", "b1", "u2", L.ESSENTIAL),
             ReebEdge("e1", "u1", "v", L.ESSENTIAL),
             ReebEdge("e2", "u2", "v", L.ESSENTIAL),
             ReebEdge("e3", "u2", "t_p", L.ESSENTIAL),
             ReebEdge("i1", "v", "q", L.INESSENTIAL)),
            0.0, 1.0)
        sub = essential_subgraph(g)
        expected = {"a": 1, "e1": 1, "e2": 1, "e3": 2}
        assert naive_assign(sub).assigned == expected
        p = assign_all(sub, check=True)
        assert p.assigned == expected
        assert distance_bound(sub, p).bound == 3

    def test_component_born_mid_window_uses_global_frontier(self):
        # an inessential strand from a center splits into two essential
        # edges; their integers come from the frontier of the other strand
        from reebound.graph import EdgeLabel as L, ReebGraph
        g = ReebGraph(
            (ReebVertex("b0", 0.0, VertexKind.BOUNDARY_MINUS),
             ReebVertex("c", 0.2, VertexKind.CENTER),
             ReebVertex("s", 0.4, VertexKind.SADDLE),
             ReebVertex("t0", 1.0, VertexKind.BOUNDARY_PLUS),
             ReebVertex("t1", 1.0, VertexKind.BOUNDARY_PLUS),
             ReebVertex("t2", 1.0, VertexKind.BOUNDARY_PLUS)),
            (ReebEdge("a", "b0", "t0", L.ESSENTIAL),
             ReebEdge("i1", "c", "s", L.INESSENTIAL),
             ReebEdge("e1", "s", "t1", L.ESSENTIAL),
             ReebEdge("e2", "s", "t2", L.ESSENTIAL)),
            0.0, 1.0)
        sub = essential_subgraph(g)
        assert len(sub.incident["s"]) == 2 and sub.interior == ("s",)
        expected = {"a": 1, "e1": 2, "e2": 2}
        assert naive_assign(sub).assigned == expected
        p = assign_all(sub, check=True)
        assert p.assigned == expected
        assert distance_bound(sub, p).n_min == 1

    def test_regular_vertices_sharing_a_level(self):
        # two valency-two subdivision vertices at one level pass
        # validate --allow-regular, so the subgraph must accept them too
        from reebound.graph import EdgeLabel as L, ReebGraph, validate
        g = ReebGraph(
            (ReebVertex("b0", 0.0, VertexKind.BOUNDARY_MINUS),
             ReebVertex("s1", 0.25, VertexKind.SADDLE),
             ReebVertex("r1", 0.5, VertexKind.REGULAR),
             ReebVertex("r2", 0.5, VertexKind.REGULAR),
             ReebVertex("s2", 0.75, VertexKind.SADDLE),
             ReebVertex("t0", 1.0, VertexKind.BOUNDARY_PLUS)),
            (ReebEdge("e0", "b0", "s1", L.ESSENTIAL),
             ReebEdge("e1", "s1", "r1", L.ESSENTIAL),
             ReebEdge("e2", "s1", "r2", L.ESSENTIAL),
             ReebEdge("e3", "r1", "s2", L.ESSENTIAL),
             ReebEdge("e4", "r2", "s2", L.ESSENTIAL),
             ReebEdge("e5", "s2", "t0", L.ESSENTIAL)),
            0.0, 1.0)
        assert validate(g, allow_regular=True).ok
        sub = essential_subgraph(g, prevalidated=True)
        expected = {"e0": 1, "e1": 2, "e2": 2, "e3": 2, "e4": 2, "e5": 3}
        for seed in range(20):
            assert naive_assign(sub, random.Random(seed)).assigned == expected
        p = assign_all(sub, check=True)
        assert p.assigned == expected
        assert distance_bound(sub, p).bound == 4


def _assert_frontier(front, sub, k):
    """The walk at gap k against the edges ``spanning`` names there."""
    spanning = sub.spanning(k)
    valued = [front.values[e] for e in spanning if e in front.values]
    assert (front.gap, front.open) == (k, len(spanning) - len(valued))
    assert front.counts == Counter(valued)


class TestFrontier:
    """The one gap walk against a rescan of the spanning edges at every
    gap, with integers both there from the start and written on the way,
    each onto an edge off the gap the walk stands on: the walk only reads."""

    @pytest.mark.parametrize("seed", range(41))
    def test_generator_graphs(self, seed):
        sub = _round_graph(seed, seed * 3 % 61)
        assigned = assign_all(sub).assigned
        rng = random.Random(seed)
        later = sorted(rng.sample(sorted(assigned), len(assigned) // 2))
        values = {e: n for e, n in assigned.items() if e not in later}
        front = assign_mod._Frontier(sub, values)
        _assert_frontier(front, sub, -1)
        for k in range(len(sub.events) - 1):
            front.advance(k)
            _assert_frontier(front, sub, k)
            off = [eid for eid in later if k not in sub.gaps[eid]]
            for eid in off[:rng.randint(0, 3)]:
                values[eid] = assigned[eid]
                later.remove(eid)
            _assert_frontier(front, sub, k)

    def test_edges_spanning_no_gap_never_enter(self):
        sub = _hand_built(
            [("b0", 0.0, "-"), ("a", 0.3, "o"), ("c", 0.6, "o"),
             ("d", 0.6, "o"), ("t0", 1.0, "+")],
            [("e0", "b0", "a"), ("e1", "a", "c"), ("e2", "c", "t0"),
             ("loop", "a", "a"), ("flat", "c", "d"), ("back", "c", "a")])
        values = {"loop": 5}
        front = assign_mod._Frontier(sub, values)
        for k in range(3):
            values["e%d" % k] = 1      # before e_k enters, at gap k
            if k == 1:
                values.update(flat=7, back=7)
            front.advance(k)
            _assert_frontier(front, sub, k)
            assert sub.spanning(k) == ["e%d" % k]
            assert (front.open, front.counts) == (0, {1: 1})
        front.advance(0)    # a lower gap leaves the walk where it is
        _assert_frontier(front, sub, 2)


class TestCheckInvariants:
    def _theta_mid(self):
        sub = _sub(theta_graph())
        p = step2(sub, step0(sub))      # just before the merge vertex
        return sub, p

    def test_ok_before_merge(self):
        sub, p = self._theta_mid()
        assert check_invariants(sub, p, "v2").ok

    def test_ok_after_seeding(self):
        sub = _sub(theta_graph())
        p = step1_saturate(sub, step0(sub))
        assert check_invariants(sub, p, "v1").ok

    def test_corrupted_value_flags_downstream_band(self):
        sub, p = self._theta_mid()
        corrupted = dict(p.assigned)
        corrupted["e_c"] = 3
        report = check_invariants(sub, PartialAssignment(corrupted, p.trace), "v2")
        assert not report.ok
        assert "downstream-band" in report.rules()

    def test_double_write_flagged(self):
        sub, p = self._theta_mid()
        entry = p.trace[-1]
        doubled = p.trace + (entry,)
        report = check_invariants(sub, PartialAssignment(p.assigned, doubled), "v2")
        assert "single-assignment" in report.rules()

    def test_disconnected_plateau_flagged(self):
        # a floating strand carries the plateau value but never reaches
        # down to the probe level through same-value edges
        sub = ReebGraph(
            (ReebVertex("b0", 0.0, VertexKind.BOUNDARY_MINUS),
             ReebVertex("v_c", 0.3, VertexKind.SADDLE),
             ReebVertex("v_a", 0.6, VertexKind.SADDLE),
             ReebVertex("v_b", 0.8, VertexKind.SADDLE),
             ReebVertex("t0", 1.0, VertexKind.BOUNDARY_PLUS),
             ReebVertex("t1", 1.0, VertexKind.BOUNDARY_PLUS)),
            (ReebEdge("e_main", "b0", "t0", EdgeLabel.ESSENTIAL),
             ReebEdge("e_top", "v_a", "v_b", EdgeLabel.ESSENTIAL),
             ReebEdge("e_u", "v_c", "t1", EdgeLabel.ESSENTIAL)),
            0.0, 1.0)
        p = PartialAssignment({"e_main": 1, "e_top": 1}, ())
        report = check_invariants(sub, p, "v_c")
        assert not report.ok
        assert "plateau-connected" in report.rules()


def _checked_rounds(monkeypatch, sub):
    """The (assignment, target) of every round a checked run decides,
    rebuilt from its trace: a round ends before each step-2 entry, and a
    last one, at the final target, after the final entry."""
    targets = []
    clean = assign_mod._Checker.clean

    def spy(self, assigned, trace, vid):
        targets.append(vid)
        return clean(self, assigned, trace, vid)

    monkeypatch.setattr(assign_mod._Checker, "clean", spy)
    p = assign_all(sub, check=True)
    monkeypatch.undo()
    ends = [k for k, t in enumerate(p.trace) if t.step == "step2"]
    rounds, assigned = [], {}
    for start, end in zip([0] + ends, ends + [len(p.trace)]):
        assigned.update((eid, p.assigned[eid])
                        for t in p.trace[start:end] for eid in t.edges)
        vid = p.trace[end].vertex if end < len(p.trace) else _final_target(sub)
        rounds.append((PartialAssignment(dict(assigned), p.trace[:end]), vid))
    assert len(rounds) == 1 + len(ends)
    assert [vid for _, vid in rounds] == targets
    return rounds


# (seed, saddles) of the generator graphs whose every round is checked
ROUND_GRAPHS = [(seed, saddles) for saddles in (0, 1, 2, 5, 13, 40, 120)
                for seed in range(3)] + [(6, 400)]


def _round_graph(seed, saddles):
    g = random_reeb(GenParams(seed=seed, saddle_count=saddles,
                              parallel_edge_bias=(seed % 3) / 2,
                              inessential_bias=0.5))
    return essential_subgraph(g, prevalidated=True)


def _forward(sub):
    """``sub`` with each backward edge turned round and each loop or flat
    edge dropped, so that every edge spans a gap."""
    level = {v.id: v.level for v in sub.vertices}
    return ReebGraph(sub.vertices, tuple(
        e._replace(lower=min(e.lower, e.upper, key=level.get),
                   upper=max(e.lower, e.upper, key=level.get))
        for e in sub.edges if level[e.lower] != level[e.upper]), sub.lo, sub.hi)


@st.composite
def _any_assignment(draw, sub, top=4):
    """Values from 1 to ``top`` on any subset of the edges, and a trace
    that may write an edge twice or not at all."""
    if not sub.edges:
        return PartialAssignment({}, ())
    edge = st.sampled_from([e.id for e in sub.edges])
    assigned = draw(st.dictionaries(edge, st.integers(1, top)))
    writes = draw(st.lists(st.lists(edge, max_size=3), max_size=4))
    return PartialAssignment(assigned, tuple(
        TraceEntry("step2", None, tuple(w), 1) for w in writes))


class TestCheckAgainstNaive:
    """check_invariants against the checker that rescans every edge at
    every gap (``naive_check_invariants``): equal reports, violations in
    the same order."""

    @pytest.mark.parametrize("seed,saddles", ROUND_GRAPHS)
    def test_every_round_of_checked_runs(self, monkeypatch, seed, saddles):
        sub = _round_graph(seed, saddles)
        for p, vid in _checked_rounds(monkeypatch, sub):
            report = naive_check_invariants(sub, p, vid)
            assert report.ok
            assert check_invariants(sub, p, vid) == report

    def test_mutated_rounds(self, monkeypatch):
        # 1 to 3 edges moved by 1 to 3, and about one trace in five
        # writing one of its edges again
        rng = random.Random(7)
        rules = set()
        reports = 0
        for seed in range(100):
            g = random_reeb(GenParams(seed=seed, saddle_count=seed % 30,
                                      parallel_edge_bias=(seed % 5) / 4,
                                      inessential_bias=(seed % 7) / 6))
            sub = essential_subgraph(g, prevalidated=True)
            for p, vid in _checked_rounds(monkeypatch, sub):
                for _ in range(6):
                    assigned = dict(p.assigned)
                    for eid in rng.sample(sorted(assigned),
                                          min(len(assigned),
                                              rng.randint(1, 3))):
                        assigned[eid] += rng.choice((-3, -2, -1, 1, 2, 3))
                    trace = p.trace
                    if rng.random() < 0.2:
                        trace += (rng.choice(trace),)
                    q = PartialAssignment(assigned, trace)
                    report = naive_check_invariants(sub, q, vid)
                    assert check_invariants(sub, q, vid) == report
                    verdict = assign_mod._Checker(sub).clean(q.assigned,
                                                             q.trace, vid)
                    assert verdict == report.ok
                    rules |= report.rules()
                    reports += 1
        assert reports > 4000
        assert rules == {"single-assignment", "frontier-class",
                         "downstream-band", "plateau-uniform",
                         "plateau-connected"}

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), sub=_any_subgraph())
    def test_arbitrary_subgraphs(self, data, sub):
        # shared levels, loops, backward edges, and interior vertices at
        # lo, whose frontier gap is -1; then the same graph turned
        # forward, with values 1 and 2.  The second trace writes each
        # assigned edge once.  Where the sweep runs through, each of its
        # own rounds, with up to two integers moved by 1, is checked too,
        # at its target and at every other interior vertex
        for g, top in ((sub, 4), (_forward(sub), 2)):
            p = data.draw(_any_assignment(g, top))
            order = data.draw(st.permutations(sorted(p.assigned)))
            once = PartialAssignment(p.assigned, (
                TraceEntry("step0", None, tuple(order), 1),))
            for q in (p, once):
                for vid in g.interior + (None,):
                    _check_agrees(g, q, vid)
            try:
                run = assign_all(g)
            except ReeboundError:
                continue
            ends = [k for k, t in enumerate(run.trace) if t.step == "step2"]
            for end in ends + [len(run.trace)]:
                vid = run.trace[end].vertex if end in ends else _final_target(g)
                assigned = {e: run.assigned[e]
                            for t in run.trace[:end] for e in t.edges}
                moved = data.draw(st.permutations(sorted(assigned)))
                for eid in moved[:data.draw(st.integers(0, 2))]:
                    assigned[eid] += data.draw(st.sampled_from((-1, 1)))
                q = PartialAssignment(assigned, run.trace[:end])
                for other in dict.fromkeys((vid,) + g.interior):
                    _check_agrees(g, q, other)


def _check_agrees(g, q, vid):
    """check_invariants equals the naive report, and the incremental
    checker certifies only rounds it passes, and exactly those when every
    edge spans a gap and the trace writes each assigned edge once."""
    report = check_invariants(g, q, vid)
    assert report == naive_check_invariants(g, q, vid)
    verdict = assign_mod._Checker(g).clean(q.assigned, q.trace, vid)
    exact = (all(g.gaps.values())
             and Counter(e for t in q.trace for e in t.edges) == Counter(q.assigned))
    assert report.ok if verdict else not (exact and report.ok)


def _checked_outcome(sub):
    """The map and trace of a checked run, or its error type with the
    report (InvariantViolation) or the message."""
    try:
        p = assign_all(sub, check=True)
    except InvariantViolation as exc:
        return "InvariantViolation", exc.report
    except ReeboundError as exc:
        return type(exc).__name__, str(exc)
    return p.assigned, p.trace


def _corrupt_sweep(monkeypatch, at, picks, repeat):
    """Make the sweep's round ``at`` end by writing its integer moved by d
    onto the k-th unassigned edge (mod their number) for each (k, d) in
    ``picks``, and, unless ``repeat`` is None, by appending the trace
    entry at that index (mod the trace's length) again."""
    run_round = assign_mod._Sweep.run_round

    def bad_round(self, step, vid, eids, value):
        run_round(self, step, vid, eids, value)
        self.rounds = getattr(self, "rounds", 0) + 1
        if self.rounds != at:
            return
        if repeat is not None:
            self.trace.append(self.trace[repeat % len(self.trace)])
        for k, d in picks:
            free = [e.id for e in self.g.edges if e.id not in self.assigned]
            if free:
                eid = free[k % len(free)]
                self.trace.append(TraceEntry(step, vid, (eid,), value + d))
                self.assigned[eid] = value + d

    monkeypatch.setattr(assign_mod._Sweep, "run_round", bad_round)


def _corrupted_sweeps(monkeypatch):
    """200 generator subgraphs, each yielded while one round of its sweep
    also writes 1 to 3 stray edges with its integer moved by 1 to 3, or
    writes an earlier trace entry again; undone before the next."""
    rng = random.Random(12)
    for seed in range(200):
        g = random_reeb(GenParams(seed=seed, saddle_count=seed % 30,
                                  parallel_edge_bias=(seed % 5) / 4,
                                  inessential_bias=(seed % 7) / 6))
        sub = essential_subgraph(g, prevalidated=True)
        picks, repeat = [], None
        if seed % 4:
            picks = [(rng.randrange(99), rng.choice((-3, -2, -1, 1, 2, 3)))
                     for _ in range(rng.randint(1, 3))]
        else:
            repeat = rng.randrange(99)
        _corrupt_sweep(monkeypatch, rng.randint(1, 1 + seed % 30),
                       picks, repeat)
        yield sub
        monkeypatch.undo()


class TestIncrementalChecker:
    """The checked run's round-by-round verdicts against check_invariants,
    which the run falls back to whenever a round is not certified."""

    @pytest.mark.parametrize("seed,saddles", ROUND_GRAPHS)
    def test_every_round_verdict(self, monkeypatch, seed, saddles):
        sub = _round_graph(seed, saddles)
        checker = assign_mod._Checker(sub)
        for p, vid in _checked_rounds(monkeypatch, sub):
            assert checker.clean(p.assigned, p.trace, vid)
            assert check_invariants(sub, p, vid).ok

    def test_rounds_missing_a_write(self, monkeypatch):
        # one trace entry dropped with its edges' integers, so the
        # frontier may have edges with no integer
        rng = random.Random(5)
        rules = set()
        for seed in range(60):
            g = random_reeb(GenParams(seed=seed, saddle_count=seed % 30,
                                      parallel_edge_bias=(seed % 5) / 4,
                                      inessential_bias=(seed % 7) / 6))
            sub = essential_subgraph(g, prevalidated=True)
            for p, vid in _checked_rounds(monkeypatch, sub):
                k = rng.randrange(len(p.trace))
                trace = p.trace[:k] + p.trace[k + 1:]
                assigned = {eid: n for eid, n in p.assigned.items()
                            if eid not in p.trace[k].edges}
                q = PartialAssignment(assigned, trace)
                report = check_invariants(sub, q, vid)
                assert assign_mod._Checker(sub).clean(assigned, trace,
                                                      vid) == report.ok
                rules |= report.rules()
        assert "frontier-class" in rules

    def test_corrupted_sweeps(self, monkeypatch):
        # the run must end as it does when every round is derived in full
        rules = set()
        for sub in _corrupted_sweeps(monkeypatch):
            fast = _checked_outcome(sub)
            monkeypatch.setattr(assign_mod._Checker, "clean",
                                lambda self, assigned, trace, vid: False)
            assert fast == _checked_outcome(sub)
            if fast[0] == "InvariantViolation":
                rules |= fast[1].rules()
        assert rules == {"single-assignment", "frontier-class",
                         "downstream-band", "plateau-uniform",
                         "plateau-connected"}

    def test_corrupted_last_round(self, monkeypatch):
        # the last round, at v17, writes 1 instead of 3 onto two
        # upper-boundary edges: the check below hi sees the frontier
        # carry 1, 2 and 3, where an unchecked run would lower the bound
        # from 3 to 2
        g = random_reeb(GenParams(seed=4, saddle_count=12))
        sub = essential_subgraph(g, prevalidated=True)
        frontier_value = assign_mod._Sweep.frontier_value
        monkeypatch.setattr(
            assign_mod._Sweep, "frontier_value",
            lambda self, vid: 1 if vid == "v17" else frontier_value(self, vid))
        assert distance_bound(sub, assign_all(sub)).bound == 2
        with pytest.raises(InvariantViolation) as info:
            assign_all(sub, check=True)
        assert info.value.report.violations == (
            Violation("frontier-class", ("v27",), "frontier carries [1, 2, 3]"),)

    def test_no_fallback_on_generator_graph(self, monkeypatch):
        g = random_reeb(GenParams(seed=3, saddle_count=200,
                                  parallel_edge_bias=0.25,
                                  inessential_bias=0.35))
        sub = essential_subgraph(g, prevalidated=True)
        calls = []
        monkeypatch.setattr(assign_mod, "check_invariants",
                            lambda *args: calls.append(args))
        assert assign_all(sub, check=True).assigned == assign_all(sub).assigned
        assert calls == []

    def test_no_fallback_on_corpus(self, monkeypatch, corpus):
        # every round of a checked run over the acceptance corpus and the
        # round graphs is certified, so check_invariants never runs
        calls = []
        check = assign_mod.check_invariants

        def spy(g, p, vid):
            calls.append(vid)
            return check(g, p, vid)

        monkeypatch.setattr(assign_mod, "check_invariants", spy)
        subs = [sub for _, sub in corpus] + [_round_graph(*sg) for sg in ROUND_GRAPHS]
        assert len(subs) == 1022
        for sub in subs:
            assign_all(sub, check=True)
        assert calls == []

    def test_plateau_starts_where_the_longer_reach_resumes(self):
        # 1 and 2 cover gaps 0-1 alike; past 1's reach 2 is live from
        # gap 2 on, where ec's component of 2-edges starts one gap late
        sub = _hand_built(
            [("b0", 0.0, "-"), ("b1", 0.0, "-"), ("v", 0.1, "o"),
             ("x", 0.2, "o"), ("y", 0.3, "o"), ("p", 0.4, "o"),
             ("q", 0.5, "o"), ("t0", 1.0, "+"), ("t1", 1.0, "+")],
            [("ea", "b0", "x"), ("eb", "b1", "p"), ("ec", "y", "t0"),
             ("ev", "v", "t1")])
        p = PartialAssignment({"ea": 1, "eb": 2, "ec": 2},
                              (TraceEntry("step0", None, ("ea", "eb", "ec"), 1),))
        report = check_invariants(sub, p, "v")
        assert report == naive_check_invariants(sub, p, "v")
        assert report.violations == (Violation(
            "plateau-connected", ("ec",),
            "no path through 2-edges from ec down to level 0.2"),)
        assert not assign_mod._Checker(sub).clean(p.assigned, p.trace, "v")


def _rescan_every_advance(monkeypatch, sub):
    """Compare every frontier walk with a rescan of ``sub`` after each of
    its advances: the sweep's and the checkers', which only read."""
    advance = assign_mod._Frontier.advance

    def checked(self, gap):
        advance(self, gap)
        _assert_frontier(self, sub, self.gap)

    monkeypatch.setattr(assign_mod._Frontier, "advance", checked)


# hand-built subgraphs with a loop, a flat edge, a backward edge and an
# edge hanging off an upper-boundary vertex below hi, and the faulty ones
ODD_EDGE_SUBGRAPHS = {
    "loop": (
        [("b0", 0.0, "-"), ("v", 0.5, "o"), ("t", 1.0, "+")],
        [("e0", "b0", "v"), ("e1", "v", "t"), ("l", "v", "v")]),
    "flat-and-backward": (
        [("b0", 0.0, "-"), ("a", 0.3, "o"), ("c", 0.6, "o"), ("d", 0.6, "o"),
         ("t0", 1.0, "+"), ("t1", 1.0, "+")],
        [("e0", "b0", "a"), ("e1", "a", "c"), ("flat", "c", "d"),
         ("e2", "c", "t0"), ("e3", "d", "t1"), ("back", "d", "a")]),
    "copied-off-the-upper-boundary": (
        [("b0", 0.0, "-"), ("b1", 0.0, "-"), ("c", 0.3, "+"), ("w", 0.5, "o"),
         ("s", 0.6, "o"), ("t0", 1.0, "+"), ("t1", 1.0, "+")],
        [("e0", "b0", "w"), ("e1", "c", "w"), ("e2", "b1", "s"),
         ("e3", "s", "t0"), ("e4", "s", "t1")]),
    **{name: parts[:2] for name, parts in FAULTY_SUBGRAPHS.items()},
}


class TestFrontierInRuns:
    """Nothing writes into a frontier's counts, so each walk is exact only
    if no integer lands on an edge spanning the gap it stands on: every
    walk of checked and unchecked runs, rescanned after each advance."""

    @pytest.mark.parametrize("seed,saddles", ROUND_GRAPHS)
    def test_round_graphs(self, monkeypatch, seed, saddles):
        sub = _round_graph(seed, saddles)
        _rescan_every_advance(monkeypatch, sub)
        assert assign_all(sub, check=True) == assign_all(sub)

    @pytest.mark.parametrize("name", sorted(ODD_EDGE_SUBGRAPHS))
    def test_odd_edges(self, monkeypatch, name):
        sub = _hand_built(*ODD_EDGE_SUBGRAPHS[name])
        _rescan_every_advance(monkeypatch, sub)
        for check in (False, True):
            _outcome(assign_all, sub, check)

    @settings(max_examples=200, deadline=None)
    @given(sub=_any_subgraph())
    def test_arbitrary_subgraphs(self, sub):
        with pytest.MonkeyPatch.context() as monkeypatch:
            _rescan_every_advance(monkeypatch, sub)
            for check in (False, True):
                _outcome(assign_all, sub, check)

    def test_corrupted_sweeps(self, monkeypatch):
        for sub in _corrupted_sweeps(monkeypatch):
            _rescan_every_advance(monkeypatch, sub)
            for check in (False, True):
                _outcome(assign_all, sub, check)

    def test_corrupted_sweep_meets_a_clash(self, monkeypatch):
        # step 0 also writes 1 onto z, past step 1, so p's round writes 2
        # onto e2 only, and T's round writes 2 onto g: u joins g = 2 with
        # z = 1, which spans the walk's gap at T.  Copying onto z instead
        # of naming the clash would leave the walk counting z as 1 at q
        sub = _hand_built(
            [("b0", 0.0, "-"), ("b1", 0.0, "-"), ("p", 0.1, "o"),
             ("T", 0.3, "o"), ("u", 0.6, "o"), ("q", 0.8, "o"),
             ("t0", 1.0, "+"), ("t1", 1.0, "+"), ("t2", 1.0, "+")],
            [("e0", "b0", "T"), ("e1", "b1", "p"), ("e2", "p", "t1"),
             ("z", "p", "u"), ("g", "T", "u"), ("h", "T", "q"),
             ("k1", "q", "t0"), ("k2", "q", "t2")])
        _corrupt_sweep(monkeypatch, 1, [(5, 0)], None)
        _rescan_every_advance(monkeypatch, sub)
        for check in (False, True):
            assert _outcome(assign_all, sub, check) == (
                "ConflictingPropagation", "vertex u joins edges assigned 2 and 1")

class TestTraceEntry:
    def test_immutable(self):
        entry = TraceEntry("step1", "v1", ("e1",), 2)
        for field, value in (("integer", 3), ("edges", ()), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(entry, field, value)

    def test_repr_pinned(self):
        assert repr(TraceEntry("step1", "v1", ("e1",), 2)) == (
            "TraceEntry(step='step1', vertex='v1', edges=('e1',), integer=2)")
        assert repr(TraceEntry("step0", None, ("e1", "e2"), 1)) == (
            "TraceEntry(step='step0', vertex=None, edges=('e1', 'e2'), "
            "integer=1)")

    def test_fields_by_name(self):
        entry = assign_all(_sub(theta_graph())).trace[0]
        assert (entry.step, entry.vertex) == ("step0", None)
        assert entry == TraceEntry("step0", None, entry.edges, 1)


class TestDistanceBound:
    def test_single_edge(self):
        sub = _sub(single_edge_graph())
        rep = distance_bound(sub, assign_all(sub))
        assert rep.per_boundary_edge == {"e0": 1}
        assert rep.n_min == 1 and rep.bound == 2

    def test_y_graph(self):
        sub = _sub(y_graph())
        rep = distance_bound(sub, assign_all(sub))
        assert rep.n_min == 2 and rep.bound == 3

    def test_theta(self):
        sub = _sub(theta_graph())
        rep = distance_bound(sub, assign_all(sub))
        assert rep.per_boundary_edge == {"e_a": 1, "e_e": 2}
        assert rep.n_min == 1 and rep.bound == 2

    def test_incomplete_rejected(self):
        sub = _sub(y_graph())
        with pytest.raises(IncompleteAssignment):
            distance_bound(sub, step0(sub))

    def test_no_upper_boundary(self):
        sub = ReebGraph(
            (ReebVertex("b", 0.0, VertexKind.BOUNDARY_MINUS),
             ReebVertex("c", 0.5, VertexKind.SADDLE)),
            (ReebEdge("e0", "b", "c", EdgeLabel.ESSENTIAL),),
            0.0, 1.0)
        with pytest.raises(NoUpperBoundary):
            distance_bound(sub, PartialAssignment({"e0": 1}, ()))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), saddles=st.integers(0, 30),
           pbias=st.floats(0, 1), ibias=st.floats(0, 1))
    def test_sweep_properties(self, seed, saddles, pbias, ibias):
        g = random_reeb(GenParams(seed=seed, saddle_count=saddles,
                                  parallel_edge_bias=pbias,
                                  inessential_bias=ibias))
        sub = essential_subgraph(g, prevalidated=True)
        p = assign_all(sub, check=True)
        # termination: bounded number of step-2 rounds, each writing >= 1
        rounds = [t for t in p.trace if t.step == "step2"]
        assert len(rounds) <= len(sub.edges)
        assert all(t.edges for t in rounds)
        # uniqueness: no edge written twice
        written = [e for t in p.trace for e in t.edges]
        assert len(written) == len(set(written)) == len(sub.edges)
        # boundary anchor
        for vid in sub.boundary_minus:
            for eid in sub.incident[vid]:
                assert p.assigned[eid] == 1
        # monotone bound: 1 <= n(e) <= 1 + #interior vertices strictly
        # below the edge's upper level
        for e in sub.edges:
            hi_level = sub.span(e.id)[1]
            below = sum(1 for vid in sub.interior if sub.vertex_by_id[vid].level < hi_level)
            assert 1 <= p.assigned[e.id] <= 1 + below
        # local Lipschitz: integers across a shared vertex differ by <= 1
        for v in sub.vertices:
            vals = [p.assigned[eid] for eid in sub.incident[v.id]]
            assert max(vals) - min(vals) <= 1
        # order independence: the naive oracle agrees under two scan orders
        for salt in (1, 2):
            q = naive_assign(sub, random.Random(seed * 7 + salt))
            assert q.assigned == p.assigned
