"""Mesh front-end: loading, validation, the sweep, and classification."""
from __future__ import annotations

import hashlib
import itertools
import random
import sys
from math import nextafter

import pytest

from reebound import (
    EdgeLabel,
    ScalarField,
    TriangulatedSurface,
    VertexKind,
    build_reeb,
    graph_dumps,
    label_reeb,
    restrict,
    validate,
)
from reebound.errors import (
    BadWitness,
    DegenerateField,
    MalformedMesh,
    MissingWitness,
    NotAManifold,
    NotOrientable,
    OpenCycle,
    ParseError,
    ReebTopologyMismatch,
)
from reebound.graph import ReebEdge, ReebGraph, ReebVertex
from reebound.mesh import LevelCycle, _run_starts

from _fixtures import (
    ISOLATED_VERTEX_OFF,
    NON_MANIFOLD_OFF,
    OPEN_SURFACE_OFF,
    chained_tori,
    disconnected_off,
    klein_grid,
    monkey_bipyramid,
    noisy_torus,
    octa_sphere,
    off_text,
    pillow,
    pinched_torus,
    vertical_torus,
)
from _oracles import (_lower_arcs, count_level_components, level_cycles,
                      naive_is_inessential, pl_criticality)


def _random_gap_levels(field, rng, count):
    """Random value-gap midpoints, skipping gaps too thin for a float."""
    values = sorted(set(field.values))
    out = []
    while len(out) < count:
        k = rng.randrange(len(values) - 1)
        mid = (values[k] + values[k + 1]) / 2
        if values[k] < mid < values[k + 1]:
            out.append(mid)
    return out


class TestLoading:
    def test_off_round_trip(self):
        s, _ = octa_sphere()
        s2 = TriangulatedSurface.from_off_text(off_text(s))
        assert s2.n_vertices == s.n_vertices
        assert s2.triangles == s.triangles
        assert (s2.edges, s2.edge_tris, s2._tri_edges) == (
            s.edges, s.edge_tris, s._tri_edges)
        assert (s2.links, s2.stars) == (s.links, s.stars)

    def test_off_with_comments_and_blanks(self):
        text = "# a comment\nOFF\n# counts\n3 1 0\n\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
        with pytest.raises(NotAManifold):   # open surface, but parsing is fine
            TriangulatedSurface.from_off_text(text)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            TriangulatedSurface.from_off_text("PLY\n3 1 0\n")

    def test_truncated(self):
        with pytest.raises(ParseError):
            TriangulatedSurface.from_off_text("OFF\n3 1 0\n0 0 0\n")

    def test_non_triangle_face(self):
        with pytest.raises(ParseError):
            TriangulatedSurface.from_off_text(
                "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")

    def test_non_manifold_edge(self):
        with pytest.raises(NotAManifold):
            TriangulatedSurface.from_off_text(NON_MANIFOLD_OFF)

    def test_open_surface(self):
        with pytest.raises(NotAManifold):
            TriangulatedSurface.from_off_text(OPEN_SURFACE_OFF)

    def test_disconnected(self):
        with pytest.raises(NotAManifold):
            TriangulatedSurface.from_off_text(disconnected_off())

    def test_klein_bottle_not_orientable(self):
        with pytest.raises(NotOrientable):
            TriangulatedSurface(*klein_grid())

    def test_scalar_field_parsing(self):
        f = ScalarField.from_text("0.5\n# c\n1.25 2.5\n")
        assert f.values == (0.5, 1.25, 2.5)
        with pytest.raises(ParseError):
            ScalarField.from_text("0.5\nnot-a-number\n")
        with pytest.raises(DegenerateField):
            ScalarField((float("inf"),))

    def test_field_length_mismatch(self):
        s, _ = octa_sphere()
        with pytest.raises(ValueError):
            build_reeb(s, ScalarField((1.0, 2.0)))


ORIENTABLE = pytest.mark.parametrize("fixture", [
    octa_sphere, vertical_torus, lambda: chained_tori(2),
    lambda: chained_tori(3), noisy_torus, pillow, monkey_bipyramid],
    ids=["sphere", "torus", "genus2", "genus3", "noisy-torus", "pillow",
         "monkey"])


class TestSurfaceTables:
    def test_run_starts_match_arc_oracle(self):
        # every boolean ring of length 1..12, and its negation: the
        # starts are the first positions of the oracle's arcs, in order
        for n in range(1, 13):
            for bits in itertools.product((False, True), repeat=n):
                for flags in (list(bits), [not x for x in bits]):
                    assert _run_starts(flags) == [
                        arc[0] for arc in _lower_arcs(flags, flags)], flags

    @ORIENTABLE
    def test_star_edges_join_vertex_to_link(self, fixture):
        s, _ = fixture()
        assert len(s.stars) == len(s.links) == s.n_vertices
        for v, (ring, star) in enumerate(zip(s.links, s.stars)):
            assert len(star) == len(ring)
            for u, eid in zip(ring, star):
                assert s.edges[eid] == tuple(sorted((v, u)))

    @ORIENTABLE
    def test_flipped_triangles_oriented_back(self, fixture):
        # triangle 0 fixes the orientation, so reversing any others must
        # rebuild every table exactly
        s, _ = fixture()
        rng = random.Random(2)
        tris = [(a, c, b) if k and rng.random() < 0.5 else (a, b, c)
                for k, (a, b, c) in enumerate(s.triangles)]
        s2 = TriangulatedSurface(s.n_vertices, tris)
        for name in ("triangles", "edges", "edge_tris", "_tri_edges",
                     "links", "stars"):
            assert getattr(s2, name) == getattr(s, name), name

    def test_flipped_klein_bottle_not_orientable(self):
        n, tris = klein_grid()
        rng = random.Random(2)
        for _ in range(10):
            with pytest.raises(NotOrientable):
                TriangulatedSurface(n, [(a, c, b) if rng.random() < 0.5
                                        else (a, b, c) for a, b, c in tris])

    def test_pillow_links_have_length_two(self):
        s, _ = pillow()
        assert s.links == [(1, 2), (0, 2), (0, 1)]


class TestCriticality:
    def test_sphere(self):
        s, f = octa_sphere()
        mins, saddles, maxes = pl_criticality(s, f)
        assert (mins, saddles, maxes) == ([1], [], [0])

    def test_torus(self):
        s, f = vertical_torus()
        mins, saddles, maxes = pl_criticality(s, f)
        assert len(mins) == 1 and len(saddles) == 2 and len(maxes) == 1
        assert sorted(f.values[v] for v in saddles) == pytest.approx([1/3, 2/3])

    def test_monkey_saddle_rejected(self):
        s, f = monkey_bipyramid()
        with pytest.raises(DegenerateField):
            pl_criticality(s, f)
        with pytest.raises(DegenerateField):
            build_reeb(s, f)

    def test_euler_counting_all_fixtures(self):
        for surface, field in (octa_sphere(), vertical_torus(),
                               chained_tori(2), chained_tori(3)):
            mins, saddles, maxes = pl_criticality(surface, field)
            assert (len(mins) + len(maxes) - len(saddles)
                    == surface.euler_characteristic())

    def test_coinciding_critical_values_rejected(self):
        s, f = octa_sphere()
        # pull the max down to the min's value
        vals = list(f.values)
        vals[0] = vals[1]
        with pytest.raises(DegenerateField):
            build_reeb(s, ScalarField(tuple(vals)))
        # two minima at 0 (poles), saddles at 1 and 1.5, maxima at 2 and
        # 3: no Reeb edge joins the tied minima, so only the tie check
        # can reject the field
        with pytest.raises(DegenerateField, match="share the value"):
            build_reeb(s, ScalarField((0.0, 0.0, 2.0, 3.0, 1.0, 1.5)))


class TestBuildReeb:
    def test_sphere_path_graph(self):
        s, f = octa_sphere()
        g = label_reeb(s, f, build_reeb(s, f))
        assert [v.kind for v in g.vertices] == [VertexKind.CENTER,
                                                VertexKind.CENTER]
        assert len(g.edges) == 1
        assert all(e.label is EdgeLabel.INESSENTIAL for e in g.edges)

    def test_torus_shape_and_labels(self):
        s, f = vertical_torus()
        g = label_reeb(s, f, build_reeb(s, f))
        levels = sorted(round(v.level, 6) for v in g.vertices)
        assert levels == pytest.approx([0.0, 1/3, 2/3, 1.0])
        kinds = [v.kind for v in sorted(g.vertices, key=lambda v: v.level)]
        assert kinds == [VertexKind.CENTER, VertexKind.SADDLE,
                         VertexKind.SADDLE, VertexKind.CENTER]
        labels = {e.id: e.label for e in g.edges}
        assert labels == {"e0": EdgeLabel.INESSENTIAL,
                          "e1": EdgeLabel.ESSENTIAL,
                          "e2": EdgeLabel.ESSENTIAL,
                          "e3": EdgeLabel.INESSENTIAL}
        # e1, e2 are the parallel side branches between the saddles
        spans = {g.span(e.id) for e in g.edges if e.label is EdgeLabel.ESSENTIAL}
        assert spans == {(1/3, 2/3)}

    def test_genus2_cycles_and_validation(self):
        s, f = chained_tori(2)
        g = label_reeb(s, f, build_reeb(s, f))
        assert len(g.edges) - len(g.vertices) + 1 == 2
        assert validate(g, check_coverage=False).ok
        # every window between the first and last saddle passes in full
        r = restrict(g, 0.0, 7.0)
        assert validate(r).ok

    def test_genus3_cycles(self):
        s, f = chained_tori(3)
        g = label_reeb(s, f, build_reeb(s, f))
        assert len(g.edges) - len(g.vertices) + 1 == 3
        assert validate(g, check_coverage=False).ok

    def test_spanning_counts_match_level_sets(self):
        # independent oracle: at sampled levels, the number of edges whose
        # span contains the level, and the number of contours traced
        # there, equal the number of level-set components
        for surface, field in (octa_sphere(), vertical_torus(), chained_tori(2)):
            g = build_reeb(surface, field)
            rng = random.Random(1)
            for level in _random_gap_levels(field, rng, 12):
                spanning = sum(1 for e in g.edges
                               if g.span(e.id)[0] < level < g.span(e.id)[1])
                components = count_level_components(surface, field, level)
                assert spanning == components
                assert len(level_cycles(surface, field, level)) == components

    def test_huge_field_window_clamped(self):
        # (hi - lo) / 16 overflows, so the window ends clamp to the
        # largest finite floats
        s, _ = octa_sphere()
        g = build_reeb(s, ScalarField((1e308, -1e308, 0.0, 0.1, 0.2, 0.3)))
        assert (g.lo, g.hi) == (-sys.float_info.max, sys.float_info.max)
        assert validate(g, check_coverage=False).ok

    def test_narrow_field_window_strictly_outside(self):
        # a pad below half an ulp rounds away at both extremes
        s, _ = octa_sphere()
        mid = nextafter(nextafter(1.5, 2.0), 2.0)
        top = nextafter(nextafter(mid, 2.0), 2.0)
        g = build_reeb(s, ScalarField((top, 1.5, mid, mid, mid, mid)))
        assert g.lo < 1.5 and top < g.hi
        assert validate(g, check_coverage=False).ok

    @pytest.mark.parametrize("values", [
        (sys.float_info.max, 0.0, 0.1, 0.2, 0.3, 0.4),
        (1.0, -sys.float_info.max, 0.1, 0.2, 0.3, 0.4)],
        ids=["max", "-max"])
    def test_field_at_float_max_rejected(self, values):
        s, _ = octa_sphere()
        with pytest.raises(DegenerateField):
            build_reeb(s, ScalarField(values))

    def test_witness_level_independence(self):
        for surface, field in (vertical_torus(), chained_tori(2)):
            a = label_reeb(surface, field, build_reeb(surface, field, 0.3))
            b = label_reeb(surface, field, build_reeb(surface, field, 0.7))
            assert [e.label for e in a.edges] == [e.label for e in b.edges]

    def test_missing_witness_rejected(self):
        s, f = octa_sphere()
        g = build_reeb(s, f)
        from reebound.graph import ReebEdge, ReebGraph
        stripped = ReebGraph(
            g.vertices,
            tuple(ReebEdge(e.id, e.lower, e.upper, e.label) for e in g.edges),
            g.lo, g.hi)
        with pytest.raises(MissingWitness):
            label_reeb(s, f, stripped)

    def test_witness_payload_round_trip(self):
        s, f = vertical_torus()
        g = label_reeb(s, f, build_reeb(s, f))
        from reebound import graph_dumps, graph_loads
        g2 = graph_loads(graph_dumps(g))
        relabeled = label_reeb(s, f, g2)
        assert [e.label for e in relabeled.edges] == [e.label for e in g.edges]


class TestLabelsFromTopology:
    @pytest.mark.parametrize("frac", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("fixture", [
        octa_sphere, vertical_torus,
        lambda: chained_tori(2), lambda: chained_tori(3)],
        ids=["sphere", "torus", "genus2", "genus3"])
    def test_labels_match_naive_cut(self, fixture, frac):
        s, f = fixture()
        g = label_reeb(s, f, build_reeb(s, f, frac))
        for e in g.edges:
            assert (e.label is EdgeLabel.INESSENTIAL) \
                == naive_is_inessential(s, f, e.witness), e.id

    def test_rank_below_genus_rejected(self):
        s, f = vertical_torus()
        g = build_reeb(s, f)
        # drop e1, one of the two parallel side branches between the saddles
        dropped = ReebGraph(g.vertices,
                            tuple(e for e in g.edges if e.id != "e1"),
                            g.lo, g.hi)
        with pytest.raises(ReebTopologyMismatch):
            label_reeb(s, f, dropped)

    def test_disconnected_graph_rejected(self):
        # a two-edge loop beside a single edge: cycle rank 0, as on the
        # sphere, but in two components
        s, f = octa_sphere()
        (e,) = build_reeb(s, f).edges
        w = e.witness
        g = ReebGraph(
            (ReebVertex("a0", -1.0, VertexKind.CENTER),
             ReebVertex("a1", -0.5, VertexKind.CENTER),
             ReebVertex("b0", 0.0, VertexKind.CENTER),
             ReebVertex("b1", 0.5, VertexKind.CENTER)),
            (ReebEdge("x", "a0", "a1", e.label, witness=w),
             ReebEdge("y", "a0", "a1", e.label, witness=w),
             ReebEdge("z", "b0", "b1", e.label, witness=w)),
            -2.0, 2.0)
        with pytest.raises(ReebTopologyMismatch):
            label_reeb(s, f, g)


def torus_with_moved_witness(level):
    """The vertical torus, its field, and its Reeb graph with the witness
    of e1 moved to ``level`` (crossings unchanged)."""
    s, f = vertical_torus()
    g = build_reeb(s, f)
    edges = tuple(
        ReebEdge(e.id, e.lower, e.upper, e.label,
                 witness=LevelCycle(level, e.witness.crossings))
        if e.id == "e1" else e
        for e in g.edges)
    return s, f, ReebGraph(g.vertices, edges, g.lo, g.hi)


class TestCutAlong:
    """Level cycles: tracing one at a level, and checking a witness."""

    def test_open_cycle_rejected(self):
        s, f = vertical_torus()
        g = build_reeb(s, f)
        edges = tuple(
            ReebEdge(e.id, e.lower, e.upper, e.label,
                     witness=LevelCycle(e.witness.level,
                                        e.witness.crossings[:-1]))
            if e.id == "e1" else e
            for e in g.edges)
        with pytest.raises(OpenCycle):
            label_reeb(s, f, ReebGraph(g.vertices, edges, g.lo, g.hi))

    def test_uncrossed_witness_rejected(self):
        with pytest.raises(BadWitness) as info:
            label_reeb(*torus_with_moved_witness(0.99))
        assert isinstance(info.value, ValueError)

    def test_level_cycles_rejects_vertex_level(self):
        s, f = octa_sphere()
        with pytest.raises(ValueError):
            level_cycles(s, f, 1.0)


#: the meshes whose from-mesh output is pinned below
PINNED_MESHES = {
    "sphere": octa_sphere,
    "torus": vertical_torus,
    "genus1": lambda: chained_tori(1),
    "genus2": lambda: chained_tori(2),
    "genus3": lambda: chained_tori(3),
    "genus4": lambda: chained_tori(4),
    "noisy-torus": noisy_torus,
    "pillow": pillow,
}

#: SHA-256 of graph_dumps(label_reeb(build_reeb(...))) per (mesh, witness
#: fraction), recorded while build_reeb still keyed every vertex's star
#: edges itself and label_reeb indexed the graph again: reading the
#: surface's and the graph's own tables must keep every output byte.
MESH_SHA256 = {
    ("sphere", 0.1): "249a2f7b472a76a811f28184bc1f6f2430a01000e25ab2119cc7a0645da31008",
    ("sphere", 0.5): "0ffc22e027ccfd312f467da775544d123d8ba1831f2975445ac96ea3949e22db",
    ("sphere", 0.9): "7b1c8544ab0da14ea9b07d4bda74305c2564a88a583c32eea66bfa13c2c3c037",
    ("torus", 0.1): "a94922331154449695d596c6952c23bb3d6ba0e4dfc54c5bd97b74dbb407cb36",
    ("torus", 0.5): "3244d43026ad8060a5b174ceb588396998f3e91047c9445207a062a4c83da684",
    ("torus", 0.9): "346ec387427cff6614b1fd50b5de9ecafe0150cb1b62a14103ffa127c32a40dd",
    ("genus1", 0.1): "7fd01c2263d4cd23c330be03abbd3c8c30d3302f1d893911f49ef00103552c30",
    ("genus1", 0.5): "618068a1145b8ef3945001b27c9f7e680b861097dfbfc6a876140f4cb9fdef53",
    ("genus1", 0.9): "9e8f8277252f1a8aeab7ce049e6dc1f7fcb745f6409874aa5e59b4f13d57b314",
    ("genus2", 0.1): "edd1f3c650ec44c9ce1286a479417758be0cc8e55a82daed72f17a46ba7ebcc5",
    ("genus2", 0.5): "f0f0044c627599785a2d38298079216c101e096211913c92e616da9de2a439ed",
    ("genus2", 0.9): "520dab2d02081ce249de318e0c191cade95c49df0c93eadba2624023a5a2831d",
    ("genus3", 0.1): "c48dacd7d73ac485a98c7127f699ed41730eabc35345f0f6bdef6cecc79acca6",
    ("genus3", 0.5): "48c46fbf2b30e9845e4db41fd194e60d63ae3c70f4e1810b1159d46c45a7c35e",
    ("genus3", 0.9): "daa4ec8826e95e96105cb867f9a970198e2f31e920af1094dac4dfffbf23264d",
    ("genus4", 0.1): "1bf10ae32b448e9b5f2640939f900898e151b19d65f8670fa52426ffbeeee40b",
    ("genus4", 0.5): "1a7e035a2508bf6f8cc979dae9f3ebf46ca242a3d2dec46de9fa692b5ac78446",
    ("genus4", 0.9): "9a9a0f2d922f40625c9d5c19dfda2393131d7b2fcc9950cd3e1b8df83d50ac15",
    ("noisy-torus", 0.1): "2a5f7e84f1b5e3b62528dafd03d4e337fcc04fdb56e9b6384583a1ffd6f7c86b",
    ("noisy-torus", 0.5): "1c4e553d762c280b1fa72836fa0ae39042a8be3e954c92932b2c445dab6a5402",
    ("noisy-torus", 0.9): "f289672c12311eecaf03c1b35ef3a6fc0a2770bdbd4fbfcb2599fbdc24e48972",
    ("pillow", 0.1): "26e52fe50c02423a045c1f43f86f25bd258f47cd53baf508f7923b81c9b96001",
    ("pillow", 0.5): "643e752f68de0c668c8b668503d236f9a2ea561fe6269496d62c9738e4d5f010",
    ("pillow", 0.9): "b7a64c9c999c7c64f5eacfe114ea7fea4fdd9794bd2e6ef8654e29e12bee9c4a",
}


class TestPinnedOutput:
    def test_graph_bytes_pinned(self):
        got = {}
        for name, make in PINNED_MESHES.items():
            s, f = make()
            for frac in (0.1, 0.5, 0.9):
                text = graph_dumps(label_reeb(s, f, build_reeb(s, f, frac)))
                got[name, frac] = hashlib.sha256(text.encode()).hexdigest()
        assert got == MESH_SHA256

    @pytest.mark.parametrize("make, error, message", [
        (lambda: TriangulatedSurface.from_off_text(OPEN_SURFACE_OFF),
         NotAManifold, "edge (0, 1) borders 1 triangles, expected 2"),
        (lambda: TriangulatedSurface(*klein_grid()),
         NotOrientable, "triangles 101 and 100 disagree"),
        (lambda: TriangulatedSurface.from_off_text(disconnected_off()),
         NotAManifold, "surface is not connected"),
        (lambda: TriangulatedSurface.from_off_text(ISOLATED_VERTEX_OFF),
         NotAManifold, "isolated vertex present"),
        (lambda: TriangulatedSurface(*pinched_torus()),
         NotAManifold, "link of vertex 0 is not a single cycle"),
        (lambda: label_reeb(*torus_with_moved_witness(0.99)),
         BadWitness, "edge (0, 13) is not crossed at level 0.99"),
        (lambda: TriangulatedSurface.from_off_text(
            "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 0\n"),
         MalformedMesh, "degenerate triangle (0, 1, 0)"),
        (lambda: TriangulatedSurface.from_off_text(
            "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 3\n"),
         MalformedMesh, "triangle (0, 1, 3) references missing vertex"),
        (lambda: TriangulatedSurface.from_off_text(
            "OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n"),
         NotAManifold, "no triangles"),
        (lambda: TriangulatedSurface.from_off_text(NON_MANIFOLD_OFF),
         NotAManifold, "edge (0, 1) borders 3 triangles, expected 2"),
        (lambda: TriangulatedSurface.from_off_text("PLY\n3 1 0\n"),
         ParseError, "not an OFF file (header 'PLY')"),
        (lambda: TriangulatedSurface.from_off_text("OFF\n3 1 0\n0 0 0\n"),
         ParseError, "OFF data ends early, expected coordinate"),
        (lambda: TriangulatedSurface.from_off_text(
            "OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n"),
         ParseError, "face with 4 sides; only triangles supported"),
        (lambda: TriangulatedSurface.from_off_text(
            "OFF\n3 1 0\n0 0 0\n1 x 0\n0 1 0\n3 0 1 2\n"),
         ParseError, "bad OFF token: could not convert string to float: 'x'"),
        (lambda: ScalarField.from_text("0.5\nnot-a-number\n"),
         ParseError, "bad scalar value 'not-a-number'"),
    ], ids=["open", "klein", "disconnected", "isolated-vertex", "pinched",
            "witness-not-crossed", "degenerate", "missing-vertex",
            "no-triangles", "three-owners", "bad-header", "ends-early",
            "quad-face", "bad-token", "bad-scalar"])
    def test_surface_check_messages(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert type(info.value) is error
        assert str(info.value) == message
