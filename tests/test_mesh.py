"""Mesh front-end: loading, validation, the sweep, and classification."""
from __future__ import annotations

import functools
import hashlib
import itertools
import random
import sys
import time
from collections import Counter
from decimal import Decimal
from math import inf, isfinite, isinf, nan, nextafter

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from reebound import (
    EdgeLabel,
    ScalarField,
    TriangulatedSurface,
    VertexKind,
    assign_all,
    build_reeb,
    distance_bound,
    essential_subgraph,
    graph_dumps,
    graph_loads,
    label_reeb,
    restrict,
    validate,
)
from reebound.errors import (
    BadWitness,
    BadWitnessFraction,
    ContourSweepFailed,
    DegenerateField,
    MalformedGraph,
    MalformedMesh,
    MissingWitness,
    NotAManifold,
    NotOrientable,
    OpenCycle,
    ParseError,
    ReebTopologyMismatch,
    ReeboundError,
)
from reebound.graph import ReebEdge, ReebGraph, ReebVertex, _check_finite
from reebound.mesh import (LevelCycle, _check_cycle, _disk_edges,
                            _pick_witness_level, _run_starts, _tokens, _trace)

from _fixtures import (
    ISOLATED_VERTEX_OFF,
    NON_MANIFOLD_OFF,
    OPEN_SURFACE_OFF,
    TETRA_OFF,
    chained_tori,
    disconnected_off,
    klein_grid,
    monkey_bipyramid,
    noisy_torus,
    octa_sphere,
    off_text,
    pillow,
    pinched_torus,
    quantized_field,
    random_level_field,
    smooth_torus,
    vertical_torus,
)
from _oracles import (_lower_arcs, count_level_components, level_cycles,
                      naive_assign, naive_check_cycle, naive_disk_edges,
                      naive_from_off_text,
                      naive_is_inessential,
                      naive_pick_witness_level, naive_surface, naive_trace,
                      pl_criticality, rank_crossed, surface_edge_tris,
                      surface_edges, value_crossed)

#: deterministic Hypothesis runs, like the CLI contract fuzzers
FUZZ = settings(derandomize=True, deadline=None, database=None,
                max_examples=400,
                suppress_health_check=[HealthCheck.too_slow])


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
        for table in (surface_edges, surface_edge_tris):
            assert table(s2) == table(s)
        assert s2._tri_edges == s._tri_edges
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


#: every break ``str.splitlines`` makes, ``\r\n`` among them
_EVERY_BREAK = ["\r\n", *"\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"]
#: token characters, ``#``, and whitespace that breaks no line (tab, space,
#: no-break spaces, the unit separator)
_LINE_CHARS = "ab1.#\t \xa0\u3000\x1f"


class TestTextReaders:
    """The mesh text readers each read in one pass and name the first fault."""

    @FUZZ
    @given(st.lists(st.one_of(st.sampled_from(_EVERY_BREAK),
                              st.text(_LINE_CHARS, max_size=6)),
                    max_size=30).map("".join))
    def test_tokens_cut_each_line_at_hash(self, text):
        assert _tokens(text) == [t for line in text.splitlines()
                                 for t in line.partition("#")[0].split()]

    @pytest.mark.parametrize("gap", _EVERY_BREAK + list("\t \xa0\u3000\x1f"),
                             ids=ascii)
    def test_comment_ends_at_a_line_break_only(self, gap):
        tokens = _tokens("a # x%sb # y%sc" % (gap, gap))
        assert tokens == (["a", "b", "c"] if gap in _EVERY_BREAK else ["a"])

    @pytest.mark.parametrize("text", ["x 0.5 y", "0.5 x\n1 y", "0.5 1.5 x",
                                      "inf x y"],
                             ids=["first", "middle", "last", "after-inf"])
    def test_field_names_first_bad_token(self, text):
        with pytest.raises(ParseError) as info:
            ScalarField.from_text(text)
        assert str(info.value) == "bad scalar value 'x'"

    def test_field_keeps_exact_ints_and_bools(self):
        assert ScalarField((0.5, 3, True)).values == (0.5, 3, True)

    @pytest.mark.parametrize("value, message", [
        (nan, "non-finite value nan at vertex 1"),
        (Decimal("Infinity"), "value at vertex 1 must be a finite number, "
                              "got Decimal('Infinity')"),
        (2 ** 60 + 1, "value at vertex 1 must be an int that a float holds "
                      "exactly, got 1152921504606846977")],
        ids=["nan", "decimal-infinity", "inexact-int"])
    def test_field_names_bad_value(self, value, message):
        with pytest.raises(DegenerateField) as info:
            ScalarField((0.5, value, 1.5))
        assert str(info.value) == message


#: the tetrahedron's faces, as ``TETRA_OFF`` lists them
_TETRA_FACES = [(0, 2, 1), (0, 1, 3), (1, 2, 3), (0, 3, 2)]
#: anything a caller might pass for a corner or a field value
_ODD = st.one_of(st.integers(-1, 5), st.integers(), st.just(10 ** 5000),
                 st.floats(), st.booleans(), st.none(), st.text(max_size=2),
                 st.complex_numbers())


@st.composite
def direct_triangle_lists(draw):
    """The tetrahedron's faces with up to three of them, or of their
    corners, replaced by odd values or tuples of the wrong length."""
    faces = [list(t) for t in _TETRA_FACES]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, 3))
        if isinstance(faces[i], list) and faces[i] and draw(st.booleans()):
            faces[i][draw(st.integers(0, len(faces[i]) - 1))] = draw(_ODD)
        else:
            faces[i] = draw(st.one_of(_ODD, st.lists(_ODD, max_size=4)))
    return [tuple(t) if isinstance(t, list) else t for t in faces]


class TestDirectConstruction:
    """A surface or a field built directly is one or a ReeboundError,
    whatever its arguments hold."""

    # a count past three per triangle ends in a fault before any table
    # per vertex is built, so a huge one allocates nothing
    @FUZZ
    @given(st.one_of(st.integers(-1, 6), st.sampled_from((13, 10 ** 20)),
                     st.floats(), st.text(max_size=1), st.none()),
           direct_triangle_lists())
    def test_surface_or_error(self, n, triangles):
        try:
            s = TriangulatedSurface(n, triangles)
        except ReeboundError:
            return
        assert (s.n_vertices, s.n_triangles) == (4, 4)

    def test_triangles_not_iterable(self):
        with pytest.raises(MalformedMesh) as info:
            TriangulatedSurface(4, 5)
        assert str(info.value) == "triangles must be iterable, got 5"

    @pytest.mark.parametrize("fraction", ["x", None], ids=["string", "none"])
    def test_non_number_witness_fraction_refused(self, fraction):
        # comparing it with 0.0 raised a bare TypeError
        s, f = vertical_torus()
        with pytest.raises(BadWitnessFraction) as info:
            build_reeb(s, f, witness_fraction=fraction)
        assert str(info.value) == "witness_fraction %r must be inside (0, 1)" % (fraction,)

    @FUZZ
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              _ODD), max_size=6))
    def test_field_or_error(self, values):
        try:
            f = ScalarField(tuple(values))
        except ReeboundError:
            return
        assert all(map(isfinite, f.values))
        for v in f.values:
            _check_finite(v, "value")

    def test_inexact_int_value_is_a_field_error(self):
        # a value keeps the graph's level rule, so the field names it before
        # build_reeb makes it a vertex level
        s, f = chained_tori(2)
        top = max(range(s.n_vertices), key=f.values.__getitem__)
        values = list(f.values)
        values[top] = 2 ** 60 + 1
        with pytest.raises(DegenerateField) as info:
            ScalarField(tuple(values))
        assert str(info.value) == (
            "value at vertex %d must be an int that a float holds exactly, "
            "got 1152921504606846977" % top)
        values[top] = 2 ** 53
        g = build_reeb(s, ScalarField(tuple(values)))
        assert g.vertices[-1].level == 2 ** 53

    def test_generator_values_kept_as_a_tuple(self):
        # build_reeb took the length of the generator it was given
        s, f = chained_tori(2)
        lazy = ScalarField(v for v in f.values)
        assert lazy.values == f.values
        assert build_reeb(s, lazy) == build_reeb(s, f)


#: whitespace to ``str.split``; all but the first four and the last two
#: are line breaks to ``str.splitlines`` too
_SEPARATORS = (" ", "\t", "\xa0", "\x1f", "\n", "\r\n", "\r", "\x0b", "\x0c",
               "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "  \n\n",
               "\u3000", " \t ")
_LINE_BREAKS = ("\n", "\r", "\x0b", "\x1c", "\x85", "\u2028")
_BAD_TOKENS = ("x", "1.5", "3.0", "-", "nan", "1e999", "\u0663", "+2", "03",
               "0x1", "1_0", "OFF", "#")
_COUNTS = ("0", "-1", "-4", "1", "2", "3", "5", "99", str(10 ** 20))
_OFF_BASES = [TETRA_OFF.split(), off_text(octa_sphere()[0]).split(),
              NON_MANIFOLD_OFF.split(), OPEN_SURFACE_OFF.split()]


@st.composite
def mutated_off_texts(draw):
    """An OFF text with up to three faults or oddities planted: a bad
    token, a cut, a dropped token, a changed count or face size, or
    trailing tokens; joined by assorted whitespace, with ``#`` comments
    between tokens."""
    toks = list(draw(st.sampled_from(_OFF_BASES)))
    nv = int(toks[1])
    # vertex ids relabelled, so a faulty edge need not be the lowest pair
    perm = draw(st.permutations(range(nv)))
    for k in range(4 + 3 * nv, len(toks), 4):
        toks[k + 1:k + 4] = [str(perm[int(v)]) for v in toks[k + 1:k + 4]]
    for _ in range(draw(st.integers(0, 3))):
        move = draw(st.sampled_from(
            ("bad", "cut", "drop", "count", "face", "trail")))
        i = draw(st.integers(0, max(len(toks) - 1, 0)))
        if move == "bad" and toks:
            toks[i] = draw(st.sampled_from(_BAD_TOKENS))
        elif move == "cut":
            del toks[i:]
        elif move == "drop" and toks:
            del toks[i]
        elif move == "count" and len(toks) > 3:
            toks[draw(st.integers(1, 3))] = draw(st.sampled_from(_COUNTS
                                                                 + _BAD_TOKENS))
        elif move == "face":
            k = 4 + 3 * nv + 4 * draw(st.integers(0, 3))
            if k < len(toks):
                toks[k] = draw(st.sampled_from(("4", "2", "03", "+3", "3.0")))
        elif move == "trail":
            toks += draw(st.lists(st.sampled_from(_BAD_TOKENS + _COUNTS),
                                  min_size=1, max_size=4))
    seps = draw(st.lists(st.sampled_from(_SEPARATORS), min_size=1, max_size=6))
    comments = set(draw(st.lists(st.integers(0, len(toks)), max_size=3)))
    parts = [draw(st.sampled_from(("", "\n", " ", "# head\n")))]
    for i, tok in enumerate(toks):
        if i in comments:
            parts += ["#", draw(st.sampled_from(("", " x", " 3 0 1 2", "#"))),
                      draw(st.sampled_from(_LINE_BREAKS))]
        parts += [tok, seps[i % len(seps)]]
    if len(toks) in comments:
        parts.append("# tail")
    return "".join(parts)


def _load_outcome(parse, text):
    """The surface's tables, or the error's type and message."""
    try:
        s = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return (s.n_vertices, s.triangles, list(s._table.items()), s._tri_edges,
            s.links, s.stars)


class TestOffParse:
    """The bulk OFF parse against the token walk it replaced."""

    @FUZZ
    @given(mutated_off_texts())
    def test_matches_token_walk(self, text):
        assert (_load_outcome(TriangulatedSurface.from_off_text, text)
                == _load_outcome(naive_from_off_text, text))

    @pytest.mark.parametrize("text", [
        "OFF\n0 -2 0\n0 1 2 0 1 2 0 1 2 9\n",
        "OFF\n-2 1 0\n3 0 1 2\n",
        "OFF\n-1 0 0\n3 0 1 2\n",
        "OFF\n1 -3 0\n0 0 0\n3 0 1 2 3 0 1 2\n",
        TETRA_OFF.replace("4 4 0", "4 4 x"),
        TETRA_OFF.replace("4 4 0", "4 4 1e3"),
        TETRA_OFF.replace("4 4 0", "4 %d 0" % 10 ** 20),
        TETRA_OFF + "3",
        TETRA_OFF[:-2],
        # 'x' comes first in token order, 'y' first in its column
        "OFF\n4 2 0\n%s3 0 1 x\n3 y 2 3\n" % ("0 0 0\n" * 4),
    ], ids=["negative-faces-then-tokens", "negative-vertices",
            "negative-vertex-face", "negative-faces-after-coordinate",
            "bad-edge-count", "float-edge-count", "huge-face-count",
            "trailing-token", "short-last-face", "two-bad-corners"])
    def test_counts_match_token_walk(self, text):
        assert (_load_outcome(TriangulatedSurface.from_off_text, text)
                == _load_outcome(naive_from_off_text, text))

    @pytest.mark.parametrize("faces, message", [
        ("3 4 3 2\n3 3 4 1\n3 0 4 3\n",
         "edge (3, 4) borders 3 triangles, expected 2"),
        ("3 2 1 0\n", "edge (1, 2) borders 1 triangles, expected 2"),
    ], ids=["three-owners", "one-owner"])
    def test_bad_edge_named_as_sorted_pair(self, faces, message):
        # the first edge seen that has not two triangles, low end first
        nf = faces.count("\n")
        with pytest.raises(NotAManifold) as info:
            TriangulatedSurface.from_off_text(
                "OFF\n5 %d 0\n%s%s" % (nf, "0 0 0\n" * 5, faces))
        assert str(info.value) == message

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_edge_named_with_its_triangle_count(self, k):
        # the hub edge (k, k + 1) is seen first and borders k triangles; every
        # edge from a hub end to a third corner has a lower key and borders 1
        tris = [(k, k + 1, i) for i in range(k)]
        want = (NotAManifold,
                "edge (%d, %d) borders %d triangles, expected 2" % (k, k + 1, k))
        assert _surface_outcome(TriangulatedSurface, k + 2, tris) == want
        assert _surface_outcome(naive_surface, k + 2, tris) == want

    def test_book_edge_named_in_linear_time(self):
        # 50 000 triangles share the edge (0, 1); its code keeps three
        # digits, so neither the table nor the count grows with the book
        tris = [(0, 1, i) for i in range(2, 50_002)]
        t0 = time.process_time()
        with pytest.raises(NotAManifold) as info:
            TriangulatedSurface(50_002, tris)
        elapsed = time.process_time() - t0
        assert str(info.value) == "edge (0, 1) borders 50000 triangles, expected 2"
        assert elapsed < 2.0, "took %.2f s" % elapsed

    @pytest.mark.parametrize("sep", _SEPARATORS)
    def test_separator_splits_like_lines(self, sep):
        s, _ = octa_sphere()
        text = sep.join(off_text(s).split())
        assert (_load_outcome(TriangulatedSurface.from_off_text, text)
                == _load_outcome(naive_from_off_text, text)
                == _load_outcome(TriangulatedSurface.from_off_text, off_text(s)))


_GENERIC = [octa_sphere, vertical_torus, lambda: chained_tori(2),
            lambda: chained_tori(3), noisy_torus, pillow]
_GENERIC_IDS = ["sphere", "torus", "genus2", "genus3", "noisy-torus", "pillow"]
ORIENTABLE = pytest.mark.parametrize(
    "fixture", _GENERIC + [monkey_bipyramid], ids=_GENERIC_IDS + ["monkey"])
#: the orientable fixtures without a monkey saddle
GENERIC = pytest.mark.parametrize("fixture", _GENERIC, ids=_GENERIC_IDS)


class TestSurfaceTables:
    def test_run_starts_match_arc_oracle(self):
        # every boolean ring of length 1..12, and its negation: the
        # starts are the first positions of the oracle's arcs, in order
        for n in range(1, 13):
            for bits in itertools.product((False, True), repeat=n):
                for flags in (list(bits), [not x for x in bits]):
                    assert _run_starts(flags) == [
                        arc[0] for arc in _lower_arcs(flags, flags)], flags

    def test_turns_classify_like_arc_oracle(self):
        # the apex of an n-gon bipyramid, for every below/above pattern of
        # its link of length 3..10: the sweep makes it a center when one
        # side of the link is empty, skips it as regular with one arc of
        # each side, makes it a saddle with two, and refuses k >= 3 arcs
        # as a monkey saddle of k sectors
        for n in range(3, 11):
            ring = [2 + k for k in range(n)]
            s = TriangulatedSurface(n + 2, [
                tri for k in range(n)
                for tri in ((0, ring[k], ring[k - 1]), (1, ring[k - 1], ring[k]))])
            for bits in itertools.product((False, True), repeat=n):
                # the other apex lies below everything; values are distinct
                f = ScalarField((0.5, -2.0) + tuple(
                    -1.0 - 0.01 * k if low else 1.0 + 0.01 * k
                    for k, low in enumerate(bits)))
                flags = [bits[u - 2] for u in s.links[0]]
                lower = _lower_arcs(flags, flags)
                upper = _lower_arcs([not x for x in flags],
                                    [not x for x in flags])
                if lower and upper and len(lower) > 2:
                    with pytest.raises(DegenerateField) as info:
                        build_reeb(s, f)
                    assert str(info.value).startswith(
                        "monkey saddle at vertex 0 (%d descending sectors)"
                        % len(lower)), bits
                    continue
                kinds = {v.id: v.kind for v in build_reeb(s, f).vertices}
                want = (VertexKind.CENTER if not lower or not upper else
                        VertexKind.SADDLE if len(lower) == 2 else None)
                assert kinds.get("v0") is want, bits

    @ORIENTABLE
    def test_edge_ids_in_sorted_pair_order(self, fixture):
        # an edge's id is its packed key lo * n + hi, so ids sort like pairs
        s, _ = fixture()
        n = s.n_vertices
        sides = [tuple(sorted(p)) for a, b, c in s.triangles
                 for p in ((a, b), (b, c), (c, a))]
        edges = surface_edges(s)
        assert list(edges.values()) == sorted(set(sides))
        assert list(edges) == [a * n + b for a, b in sorted(set(sides))]
        assert [edges[e] for te in s._tri_edges for e in te] == sides
        assert s.n_edges == len(edges) == len(surface_edge_tris(s))

    @ORIENTABLE
    def test_star_edges_join_vertex_to_link(self, fixture):
        s, _ = fixture()
        assert len(s.stars) == len(s.links) == s.n_vertices
        edges = surface_edges(s)
        for v, (ring, star) in enumerate(zip(s.links, s.stars)):
            assert len(star) == len(ring)
            for u, eid in zip(ring, star):
                assert edges[eid] == tuple(sorted((v, u)))

    @ORIENTABLE
    def test_flipped_triangles_oriented_back(self, fixture):
        # triangle 0 fixes the orientation, so reversing any others must
        # rebuild every table exactly
        s, _ = fixture()
        rng = random.Random(2)
        tris = [(a, c, b) if k and rng.random() < 0.5 else (a, b, c)
                for k, (a, b, c) in enumerate(s.triangles)]
        s2 = TriangulatedSurface(s.n_vertices, tris)
        for name in ("triangles", "_tri_edges", "links", "stars"):
            assert getattr(s2, name) == getattr(s, name), name
        for table in (surface_edges, surface_edge_tris):
            assert table(s2) == table(s), table.__name__

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


@functools.cache
def _surface_base(name):
    """(vertex count, triangles) of a small closed surface, or of one
    that fails a check: the Klein bottle, the pinched torus."""
    if name == "klein":
        return klein_grid(4, 4)
    if name == "pinched":
        return pinched_torus()
    s = {"tetra": lambda: TriangulatedSurface.from_off_text(TETRA_OFF),
         "sphere": lambda: octa_sphere()[0], "pillow": lambda: pillow()[0],
         "torus": lambda: vertical_torus(8, 6)[0]}[name]()
    return s.n_vertices, s.triangles


_SURFACE_BASES = ("tetra", "sphere", "pillow", "torus", "klein", "pinched")


@st.composite
def mutated_triangle_lists(draw):
    """(vertex count, triangles) of a base surface with up to three
    changes: triangles flipped, dropped or duplicated, a disjoint copy of
    a base added, an isolated vertex put in, two vertices glued into a
    pinch, the vertices relabelled or the triangles shuffled."""
    n, tris = _surface_base(draw(st.sampled_from(_SURFACE_BASES)))
    tris = list(tris)
    rnd = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(0, 3))):
        move = draw(st.sampled_from(("flip", "flip-some", "drop", "duplicate",
                                     "union", "isolated", "pinch", "relabel",
                                     "shuffle")))
        i = draw(st.integers(0, max(len(tris) - 1, 0)))
        if move == "flip" and tris:
            a, b, c = tris[i]
            tris[i] = (a, c, b)
        elif move == "flip-some":
            tris = [(a, c, b) if rnd.random() < 0.5 else (a, b, c)
                    for a, b, c in tris]
        elif move == "drop" and tris:
            del tris[i]
        elif move == "duplicate" and tris:
            a, b, c = tris[i]
            tris.insert(draw(st.integers(0, len(tris))),
                        draw(st.sampled_from(((a, b, c), (a, c, b)))))
        elif move == "union":
            m, more = _surface_base(draw(st.sampled_from(_SURFACE_BASES)))
            more = [(a + n, b + n, c + n) for a, b, c in more]
            tris = tris + more if draw(st.booleans()) else more + tris
            n += m
        elif move == "isolated":
            x = draw(st.integers(0, n))
            tris = [tuple(v + (v >= x) for v in t) for t in tris]
            n += 1
        elif move == "pinch" and n > 1:
            x, y = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                 unique=True))
            tris = [tuple((y if v == x else v) - ((y if v == x else v) > x)
                          for v in t) for t in tris]
            n -= 1
        elif move == "relabel":
            perm = list(range(n))
            rnd.shuffle(perm)
            tris = [tuple(perm[v] for v in t) for t in tris]
        elif move == "shuffle":
            rnd.shuffle(tris)
    return n, tris


def _surface_outcome(build, n, tris):
    """The surface's tables, or the error's type and message."""
    try:
        s = build(n, tris)
    except Exception as exc:
        return type(exc), str(exc)
    return (s.n_vertices, s.triangles, list(s._table.items()), s._tri_edges,
            s.links, s.stars)


def _disjoint(*parts):
    """(vertex count, triangles) of the parts side by side."""
    n, tris = 0, []
    for m, more in parts:
        tris += [(a + n, b + n, c + n) for a, b, c in more]
        n += m
    return n, tris


class TestSurfaceOracle:
    """The constructor, which skips the orientation walk when every edge's
    two triangles already agree, against the one that always walks."""

    @FUZZ
    @given(mutated_triangle_lists())
    def test_matches_walking_constructor(self, case):
        n, tris = case
        assert (_surface_outcome(TriangulatedSurface, n, tris)
                == _surface_outcome(naive_surface, n, tris))

    @ORIENTABLE
    def test_fixtures_match_walking_constructor(self, fixture):
        s, _ = fixture()
        rng = random.Random(5)
        flipped = [(a, c, b) if rng.random() < 0.5 else (a, b, c)
                   for a, b, c in s.triangles]
        for tris in (s.triangles, flipped):
            assert (_surface_outcome(TriangulatedSurface, s.n_vertices, tris)
                    == _surface_outcome(naive_surface, s.n_vertices, tris))

    @pytest.mark.parametrize("n, tris", [
        # two spheres and a vertex no triangle uses
        (13, _disjoint(_surface_base("sphere"), _surface_base("sphere"))[1]),
        # a sphere beside a pinched torus
        _disjoint(_surface_base("sphere"), _surface_base("pinched")),
        # two spheres glued at a vertex: the vertices are connected, the
        # triangles are not
        (11, [tuple(0 if v == 6 else v - (v > 6) for v in t) for t in
              _disjoint(_surface_base("sphere"), _surface_base("sphere"))[1]]),
    ], ids=["isolated-vertex", "pinched", "spheres-glued-at-a-vertex"])
    def test_split_named_before_vertex_faults(self, n, tris):
        # every edge's two triangles agree, so the walk is skipped until
        # the vertex fault shows, and must still run before it is named
        sides = {(u, v) for a, b, c in tris for u, v in ((a, b), (b, c), (c, a))}
        assert len(sides) == 3 * len(tris)
        for build in (TriangulatedSurface, naive_surface):
            with pytest.raises(NotAManifold) as info:
                build(n, tris)
            assert str(info.value) == "surface is not connected"

    @pytest.mark.parametrize("tris", [
        *(_surface_base(name)[1] for name in _SURFACE_BASES),
        _disjoint(_surface_base("sphere"), _surface_base("sphere"))[1],
        [(0, 1, 2)],
    ], ids=[*_SURFACE_BASES, "two-spheres", "one-triangle"])
    def test_vertex_count_past_three_per_triangle(self, tris):
        # some vertex is isolated, and a fault named before that one still
        # wins; 10 ** 20 is named like the smallest such count
        n = 3 * len(tris) + 1
        want = _surface_outcome(naive_surface, n, tris)
        assert want[0] in (NotAManifold, NotOrientable)
        assert _surface_outcome(TriangulatedSurface, n, tris) == want
        assert _surface_outcome(TriangulatedSurface, 10 ** 20, tris) == want


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
        with pytest.raises(DegenerateField) as oracle:
            pl_criticality(s, f)
        with pytest.raises(DegenerateField) as sweep:
            build_reeb(s, f)
        assert str(sweep.value) == str(oracle.value)   # sector count too

    @GENERIC
    def test_sweep_criticality_matches_oracle(self, fixture):
        s, f = fixture()
        mins, saddles, maxes = pl_criticality(s, f)
        by_kind = {VertexKind.CENTER: set(), VertexKind.SADDLE: set()}
        for rv in build_reeb(s, f).vertices:
            by_kind[rv.kind].add(int(rv.id[1:]))
        assert by_kind[VertexKind.CENTER] == set(mins) | set(maxes)
        assert by_kind[VertexKind.SADDLE] == set(saddles)

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

    def test_torn_contour_detected(self):
        # tables that contradict each other: a regular vertex between the
        # torus's saddles, where its level has two contours, gets one
        # lower-star edge swapped for an edge of the other contour
        s, f = vertical_torus()
        order = sorted(range(s.n_vertices), key=lambda v: (f.values[v], v))
        rank = [0] * s.n_vertices
        for i, v in enumerate(order):
            rank[v] = i
        critical = {int(x.id[1:]) for x in build_reeb(s, f).vertices}
        for v in order:
            rv = rank[v]
            lower = [e for u, e in zip(s.links[v], s.stars[v]) if rank[u] < rv]
            if v in critical or len(lower) < 2:
                continue
            # the contour just below v, whole: the exits of its walk
            mine = {x for _, _, x in _trace(s, rank, rv - 1, lower[0])}
            others = [e for e, (a, b) in surface_edges(s).items() if e not in mine
                      and min(rank[a], rank[b]) < rv <= max(rank[a], rank[b])]
            if others:
                break
        else:
            pytest.fail("no regular vertex meets two contours at its level")
        s.stars[v] = tuple(others[0] if e == lower[-1] else e for e in s.stars[v])
        with pytest.raises(ContourSweepFailed) as info:
            build_reeb(s, f)
        assert str(info.value) == "torn contour at regular vertex %d" % v

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


def _float_run(x: float, n: int, toward: float) -> list[float]:
    """``x`` and up to ``n`` adjacent floats past it toward ``toward``."""
    out = [x]
    for _ in range(n):
        x = nextafter(x, toward)
        if isinf(x):
            break
        out.append(x)
    return out


_BIG = sys.float_info.max
_TINY = 5e-324   # the smallest subnormal
_WITNESS_SEEDS = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, _TINY, -_TINY, 1e-310, -1e-310,
     sys.float_info.min, -sys.float_info.min, _BIG, -_BIG, 1e308, -1e308]) \
    | st.floats(allow_nan=False, allow_infinity=False)
_FRACTIONS = st.sampled_from(
    [_TINY, 1e-300, 2.0 ** -53, 1e-9, 0.01, 0.5, 0.99, 1 - 1e-9,
     1 - 2.0 ** -53, nextafter(1.0, 0.0)]) \
    | st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                exclude_max=True)


@st.composite
def witness_cases(draw):
    """(a, b, fraction, sorted_values): a <= b are drawn from a pool of
    runs of adjacent floats and loose floats, and the values are a subset
    of that pool, so they may equal a or b, crowd them or miss (a, b)."""
    pool = []
    for _ in range(draw(st.integers(1, 3))):
        pool += _float_run(draw(_WITNESS_SEEDS), draw(st.integers(0, 12)),
                           draw(st.sampled_from([inf, -inf])))
    pool += draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          max_size=4))
    pool = sorted(set(pool))
    i = draw(st.integers(0, len(pool) - 1))
    j = draw(st.integers(i + 1, len(pool) - 1)) if i + 1 < len(pool) else i
    a, b = pool[i], pool[j]
    keep = draw(st.lists(st.booleans(), min_size=len(pool),
                         max_size=len(pool)))
    values = sorted({x for x, k in zip(pool, keep) if k})
    return a, b, draw(_FRACTIONS), values


def _witness_outcome(pick, a, b, fraction, values):
    try:
        return pick(a, b, fraction, values).hex()   # the bits, sign included
    except DegenerateField as exc:
        return "DegenerateField: %s" % exc


class TestWitnessLevel:
    @FUZZ
    @given(witness_cases())
    def test_lazy_pick_matches_oracle(self, case):
        assert _witness_outcome(_pick_witness_level, *case) \
            == _witness_outcome(naive_pick_witness_level, *case)

    @pytest.mark.parametrize("a, b, values", [
        (1.0, nextafter(1.0, 2.0), [1.0]),              # no float inside
        (1.0, 2.0, _float_run(1.5, 40, 2.0) + [2.0]),   # crowded gaps
        (-_BIG, _BIG, [-_BIG, 0.0, _BIG]),              # b - a overflows
        (_float_run(_BIG, 3, 0.0)[-1], _BIG, []),       # a + b overflows
        (-_TINY, _TINY, [-_TINY, 0.0, _TINY]),          # subnormal gaps
        (0.0, 1.0, []),                                 # nothing inside
        (2.0, 1.0, [1.0, 1.5, 2.0]),                    # reversed span
    ], ids=["adjacent", "crowded", "huge-span", "near-max", "subnormal",
            "empty-span", "reversed"])
    @pytest.mark.parametrize("fraction", [_TINY, 0.3, 1 - 2.0 ** -53])
    def test_edge_spans(self, a, b, values, fraction):
        assert _witness_outcome(_pick_witness_level, a, b, fraction, values) \
            == _witness_outcome(naive_pick_witness_level, a, b, fraction,
                                values)


@st.composite
def small_multigraphs(draw):
    """Up to 9 vertices on 5 levels, optionally joined by a random tree,
    plus up to 12 more edges between any two of them: loops, parallel and
    backward edges, isolated vertices and disconnected graphs all occur."""
    n = draw(st.integers(0, 9))
    levels = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    pairs = []
    if n and draw(st.booleans()):
        pairs += [(i, draw(st.integers(0, i - 1))) for i in range(1, n)]
    if n:
        pairs += draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1)), max_size=12))
    return ReebGraph(
        tuple(ReebVertex("v%d" % i, float(x), VertexKind.SADDLE)
              for i, x in enumerate(levels)),
        tuple(ReebEdge("e%d" % j, "v%d" % a, "v%d" % b, EdgeLabel.ESSENTIAL)
              for j, (a, b) in enumerate(pairs)),
        -1.0, 5.0)


def _disk_outcome(disk_edges, g):
    try:
        return disk_edges(g)
    except ReebTopologyMismatch as exc:
        return str(exc)


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

    @FUZZ
    @given(small_multigraphs())
    def test_disk_edges_match_naive(self, g):
        assert _disk_outcome(_disk_edges, g) \
            == _disk_outcome(naive_disk_edges, g)

    # float() read the level strings as numbers
    @pytest.mark.parametrize("witness", [
        [1, 2], "x", 3,
        {"level": 0.5, "crossings": [[float("inf"), [0, 13], [0, 12]]]},
        {"level": "0.7", "crossings": []}, {"level": "nan", "crossings": []}],
        ids=["list", "string", "number", "infinite-triangle", "string-level",
             "nan-string-level"])
    def test_foreign_witness_is_a_parse_error(self, witness):
        s, f, g = torus_with_edited_witness(lambda w: witness)
        for graph in (g, graph_loads(graph_dumps(g))):
            with pytest.raises(ParseError) as info:
                label_reeb(s, f, graph)
            assert type(info.value) is ParseError
            # the rest is the interpreter's own text
            assert str(info.value).startswith("bad level-cycle payload: ")

    @pytest.mark.parametrize("edit", [
        lambda c: [(336.5, *c[0][1:])] + c[1:],
        lambda c: [(*c[0][:2], ("168", 180)), (c[1][0], ("168", 180), c[1][2])]
        + c[2:],
    ], ids=["float-triangle", "string-end"])
    def test_payload_refuses_what_int_would_truncate(self, edit):
        # int() read triangle 336.5 as 336 and the end "168" as 168, so
        # both witnesses passed as e0's own; now no field is converted,
        # and the constructor names crossing 0
        s, f = chained_tori(1)
        g = build_reeb(s, f)
        w = g.edge_by_id["e0"].witness
        assert w.crossings[0][0] == 336 and w.crossings[0][2] == (168, 180)
        crossings = edit(list(w.crossings))
        payload = {"level": w.level, "crossings": crossings}
        edges = tuple(e._replace(witness=payload) if e.id == "e0" else e
                      for e in g.edges)
        for call in (lambda: LevelCycle.from_payload(payload),
                     lambda: label_reeb(s, f, ReebGraph(g.vertices, edges, g.lo, g.hi))):
            with pytest.raises(ParseError) as info:
                call()
            assert str(info.value) == (
                "bad level-cycle payload: crossing 0 must be (t, (a, b), (x, y)) "
                "of ints with 0 <= a < b and 0 <= x < y, got %r" % (crossings[0],))

    def test_witness_outside_its_span_rejected(self):
        # e0 spans -3.0 to -1.0, and e1's witness, a closed contour of the
        # surface, lies at 6.1e-17
        s, f = chained_tori(2)
        g = build_reeb(s, f)
        w = g.edge_by_id["e1"].witness
        bad = ReebGraph(g.vertices, tuple(e._replace(witness=w) if e.id == "e0" else e
                                          for e in g.edges), g.lo, g.hi)
        for graph in (bad, graph_loads(graph_dumps(bad))):
            with pytest.raises(BadWitness) as info:
                label_reeb(s, f, graph)
            assert str(info.value) == (
                "witness level 6.123233995736766e-17 of edge e0 is not strictly "
                "between its end levels -3.0 and -1.0")

    @pytest.mark.parametrize("end", ["lower", "upper"])
    def test_witness_at_an_end_level_rejected(self, end):
        # strictly between: e3 spans 1.0 to 6.0 with its witness at 3.5;
        # one end moved to 3.5 leaves every other witness inside its span
        s, f = chained_tori(2)
        g = build_reeb(s, f)
        e3 = g.edge_by_id["e3"]
        assert (g.span("e3"), e3.witness.level) == ((1.0, 6.0), 3.5)
        moved = getattr(e3, end)
        g = ReebGraph(tuple(v._replace(level=3.5) if v.id == moved else v
                            for v in g.vertices), g.edges, g.lo, g.hi)
        with pytest.raises(BadWitness) as info:
            label_reeb(s, f, g)
        assert str(info.value) == (
            "witness level 3.5 of edge e3 is not strictly between its end levels %r and %r"
            % g.span("e3"))

    def test_every_fixture_graph_keeps_the_span_rule(self):
        # each witness build_reeb writes lies strictly inside its edge's span
        for s, f in (octa_sphere(), vertical_torus(), chained_tori(2), chained_tori(3),
                     chained_tori(4), noisy_torus(), smooth_torus(1), pillow()):
            for frac in (0.05, 0.3, 0.5, 0.7, 0.95):
                g = build_reeb(s, f, frac)
                for e in g.edges:
                    a, b = g.span(e.id)
                    assert a < e.witness.level < b, e.id
                label_reeb(s, f, g)

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
        # sphere, but in two components; every edge spans the witness
        # level 0.5, so the witnesses pass
        s, f = octa_sphere()
        (e,) = build_reeb(s, f).edges
        w = e.witness
        assert w.level == 0.5
        g = ReebGraph(
            (ReebVertex("a0", 0.0, VertexKind.CENTER),
             ReebVertex("a1", 1.0, VertexKind.CENTER),
             ReebVertex("b0", 0.25, VertexKind.CENTER),
             ReebVertex("b1", 0.75, VertexKind.CENTER)),
            (ReebEdge("x", "a0", "a1", e.label, witness=w),
             ReebEdge("y", "a0", "a1", e.label, witness=w),
             ReebEdge("z", "b0", "b1", e.label, witness=w)),
            -2.0, 2.0)
        with pytest.raises(ReebTopologyMismatch):
            label_reeb(s, f, g)


def random_closed_surface(rng, genus):
    """``chained_tori(genus)`` with its vertex ids permuted, about half
    its triangles reversed and the triangle order shuffled; the height
    field either moved by up to 1e-3 per vertex or quantized to 8, 40 or
    200 levels.  Returns the surface, the field and the field's kind."""
    s, f = chained_tori(genus)
    n = s.n_vertices
    perm = list(range(n))
    rng.shuffle(perm)
    tris = [tuple(perm[x] for x in (t[::-1] if rng.random() < 0.5 else t))
            for t in s.triangles]
    rng.shuffle(tris)
    if rng.random() < 0.5:
        kind, values = "perturbed", [v + rng.uniform(-1e-3, 1e-3) for v in f.values]
    else:
        levels = rng.choice((8, 40, 200))
        kind, values = "quantized-%d" % levels, quantized_field(f, levels).values
    moved = [0.0] * n
    for v, value in zip(perm, values):
        moved[v] = value
    return TriangulatedSurface(n, tris), ScalarField(tuple(moved)), kind


class TestRandomSurfaces:
    def test_labels_match_naive_cut(self):
        # every outcome is counted: DegenerateField is an expected answer
        # on a tie-heavy field, never a reason to skip a case
        rng = random.Random(19)
        outcomes = Counter()
        for k in range(21):
            genus = 1 + k % 3
            s, f, kind = random_closed_surface(rng, genus)
            edges, edge_tris = surface_edges(s), surface_edge_tris(s)
            # the walks against their oracles, drawn apart so that the
            # surfaces and fractions stay those of the seed above
            side = random.Random(k)
            for t in _random_gap_levels(f, side, 2):
                crossed = value_crossed(s, f.values, t)
                hit = [e for e in edges if crossed(e)]
                for e in side.sample(hit, min(len(hit), 8)) + side.sample(
                        list(edges), 8):
                    assert (_walk_or_message(_trace, s, f.values, t, e)
                            == _walk_or_message(naive_trace, s, crossed, e,
                                                edge_tris)), (k, t, e)
            try:
                # label_reeb checks that the cycle rank is the genus
                g = label_reeb(s, f, build_reeb(s, f, rng.uniform(0.05, 0.95)))
            except DegenerateField:
                outcomes[genus, kind, "degenerate"] += 1
                continue
            assert len(g.edges) - len(g.vertices) + 1 == genus
            # one level inside each gap between consecutive Reeb-vertex
            # levels: the edges spanning it count the level set's contours
            sorted_values = sorted(set(f.values))
            levels = sorted(v.level for v in g.vertices)
            for x, y in itertools.pairwise(levels):
                t = naive_pick_witness_level(x, y, 0.5, sorted_values)
                spanning = sum(g.span(e.id)[0] < t < g.span(e.id)[1]
                               for e in g.edges)
                assert spanning == count_level_components(s, f, t), (k, t)
            for e in g.edges:
                assert naive_check_cycle(s, f, e.witness) is None
                assert _check_outcome(_check_cycle, s, f, e.witness) is None, (k, e.id)
                _mutated_outcome(s, f, *mutated_witness(s, f, e.witness, side.choice))
            for e in rng.sample(g.edges, min(6, len(g.edges))):
                assert (e.label is EdgeLabel.INESSENTIAL) \
                    == naive_is_inessential(s, f, e.witness), (k, e.id)
            outcomes[genus, kind, "labelled"] += 1
        assert sum(outcomes.values()) == 21
        for genus in (1, 2, 3):
            assert any(key[0] == genus and key[2] == "labelled"
                       for key in outcomes), outcomes
        assert all(kind.startswith("quantized")
                   for _, kind, end in outcomes if end == "degenerate"), outcomes


@functools.cache
def _mesh_graph(source, seed):
    """The labelled Reeb graph of a random closed surface of genus 1, 2 or
    3 (``source`` "random") or of a seeded smooth torus ("smooth"), or the
    DegenerateField its field raises."""
    if source == "random":
        s, f, _ = random_closed_surface(random.Random(seed), 1 + seed % 3)
    else:
        s, f = smooth_torus(seed)
    try:
        return label_reeb(s, f, build_reeb(s, f))
    except DegenerateField as exc:
        return exc


def _gap_points(g):
    """Levels strictly between consecutive Reeb-vertex levels of ``g``,
    at a third and two thirds of each gap where a float lies there."""
    levels = sorted(v.level for v in g.vertices)
    out = []
    for x, y in itertools.pairwise(levels):
        out += sorted({t for t in (x + (y - x) / 3, y - (y - x) / 3) if x < t < y})
    return out


class TestMeshWindows:
    """Mesh-built graphs cut to windows, through the bound."""

    @FUZZ
    @given(st.sampled_from(("random", "smooth")), st.integers(0, 11), st.data())
    def test_window_reaches_bound_or_package_error(self, source, seed, data):
        g = _mesh_graph(source, seed)
        if isinstance(g, DegenerateField):
            event("DegenerateField")
            return
        points = _gap_points(g)
        assert len(points) >= 2
        for _ in range(3):
            i = data.draw(st.integers(0, len(points) - 2))
            lo, hi = points[i], points[data.draw(st.integers(i + 1, len(points) - 1))]
            r = restrict(g, lo, hi)
            report = validate(r)
            if not report.ok:
                # the pipeline refuses it, as `bound` does, with a package error
                for rule in sorted({v.rule for v in report.violations}):
                    event("invalid: %s" % rule)
                with pytest.raises(ReeboundError):
                    essential_subgraph(r)
                continue
            sub = essential_subgraph(r, prevalidated=True)
            p = assign_all(sub, check=True)
            bound = distance_bound(sub, p)
            assert naive_assign(sub).assigned == p.assigned, (source, seed, lo, hi)
            event("bound %d" % bound.bound)


def torus_with_edited_witness(edit):
    """The vertical torus, its field, and its Reeb graph with the witness
    of e1 replaced by ``edit(witness)``."""
    s, f = vertical_torus()
    g = build_reeb(s, f)
    edges = tuple(e._replace(witness=edit(e.witness)) if e.id == "e1" else e
                  for e in g.edges)
    return s, f, ReebGraph(g.vertices, edges, g.lo, g.hi)


def torus_with_moved_witness(level):
    """The torus with the witness of e1 moved to ``level`` (crossings
    unchanged)."""
    return torus_with_edited_witness(lambda w: LevelCycle(level, w.crossings))


def torus_with_shifted_triangles(shift, first_only=False):
    """The torus with ``shift`` added to the triangle ids of e1's witness,
    at its first crossing only or at all of them."""
    def edit(w):
        return LevelCycle(w.level, tuple(
            (t + shift, a, b) if i == 0 or not first_only else (t, a, b)
            for i, (t, a, b) in enumerate(w.crossings)))
    return torus_with_edited_witness(edit)


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

    # shifted by -576 every id still indexes the torus's 576 triangles
    # from the end, and the witness must not pass for that
    @pytest.mark.parametrize("shift, first_only", [(-576, False), (10 ** 6, True)],
                             ids=["all-below-zero", "first-past-the-end"])
    def test_missing_triangle_rejected(self, shift, first_only):
        s, f, g = torus_with_shifted_triangles(shift, first_only)
        first = g.edge_by_id["e1"].witness.crossings[0][0]
        for graph in (g, graph_loads(graph_dumps(g))):
            with pytest.raises(BadWitness) as info:
                label_reeb(s, f, graph)
            assert str(info.value) == "cycle references missing triangle %d" % first

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

def mutated_witness(s, f, w, pick):
    """The (level, crossings) of ``w`` with one field of one crossing
    replaced (an edge by one of another triangle, by its reverse, or by a
    pair with an end off the mesh or of another type, among others), its
    level moved or replaced by a non-number, one crossing dropped,
    repeated or of another shape, the crossings given as a list, one edge
    between two crossings replaced at both ends, its triangles turned one
    step against its edges, or the cycle collapsed to one crossing that
    enters and exits by the same edge; ``pick`` chooses each part of the
    change from a sequence.  Some of these break ``LevelCycle``'s
    contract, so no cycle is built here."""
    crossings = list(w.crossings)
    i = pick(range(len(crossings)))
    t, entry, exit_ = crossings[i]
    other = crossings[pick(range(len(crossings)))]
    move = pick(("triangle", "entry", "exit", "edge", "level", "drop",
                 "repeat", "shape", "turn", "collapse"))
    if move == "triangle":
        crossings[i] = (pick((t + 1, t - 1, -1, -s.n_triangles + t,
                              s.n_triangles, other[0], float(t), True,
                              pick(range(s.n_triangles)))), entry, exit_)
    elif move in ("entry", "exit", "edge"):
        pair = entry if move == "entry" else exit_
        edges = surface_edges(s)
        third = [edges[e] for e in s._tri_edges[t]
                 if edges[e] not in (entry, exit_)]
        # an edge of the next triangle, or ends that are off the mesh, or
        # that compare equal to an edge's but are a float or a bool
        beside = [edges[e] for e in s._tri_edges[(t + 1) % s.n_triangles]]
        pair = pick((pair[::-1], [*pair], (pair[0], 999), (*pair, 0), entry,
                     exit_, other[1], other[2], *third, *beside,
                     (pair[0], s.n_vertices), (-1, pair[1]),
                     (float(pair[0]), pair[1]), (pair[0], float(pair[1])),
                     (True, pair[1]), (False, pair[1]),
                     pick(list(edges.values()))))
        if move == "entry":
            crossings[i] = (t, pair, exit_)
        else:
            crossings[i] = (t, entry, pair)
        if move == "edge":  # the next crossing enters where this one exits
            k = (i + 1) % len(crossings)
            crossings[k] = (crossings[k][0], pair, crossings[k][2])
    elif move == "level":
        return pick((f.values[entry[0]], f.values[exit_[1]], nextafter(w.level, inf),
                     -w.level, nan, inf, str(w.level), None)), w.crossings
    elif move == "drop":
        del crossings[i]
    elif move == "repeat":
        crossings.insert(pick(range(len(crossings) + 1)), crossings[i])
    elif move == "shape":
        shape = pick(("short", "long", "list", "cycle-list"))
        if shape == "cycle-list":
            return w.level, crossings
        crossings[i] = {"short": (t, entry), "long": (t, entry, exit_, t),
                        "list": [t, entry, exit_]}[shape]
    elif move == "turn":
        step = pick((1, -1))
        crossings = [(crossings[(k + step) % len(crossings)][0], a, b)
                     for k, (_, a, b) in enumerate(crossings)]
    else:
        pair = pick((entry, exit_))
        crossings = [(t, pair, pair)]
    return w.level, tuple(crossings)


def _keeps_level_rule(level) -> bool:
    try:
        _check_finite(level, "level")
    except MalformedGraph:
        return False
    return True


def _in_contract(level, crossings) -> bool:
    """``LevelCycle``'s contract, decided apart from it: a level under the
    graph's level rule, and a tuple of (triangle, entry, exit) tuples whose
    fields are ints, never bools, each pair's ends rising from 0."""
    def pair_ok(pair):
        return (type(pair) is tuple and len(pair) == 2
                and all(type(end) is int for end in pair) and 0 <= pair[0] < pair[1])
    return _keeps_level_rule(level) and type(crossings) is tuple and all(
        type(c) is tuple and len(c) == 3 and type(c[0]) is int
        and pair_ok(c[1]) and pair_ok(c[2]) for c in crossings)


def _mutated_outcome(s, f, level, crossings):
    """"refused" if ``LevelCycle`` refuses the fields, which it must do
    exactly when ``_in_contract`` does, else the one outcome of
    ``_check_cycle`` and ``naive_check_cycle`` on the cycle built."""
    try:
        w = LevelCycle(level, crossings)
    except BadWitness:
        assert not _in_contract(level, crossings), (level, crossings)
        return "refused"
    assert _in_contract(level, crossings), (level, crossings)
    want = _check_outcome(naive_check_cycle, s, f, w)
    assert _check_outcome(_check_cycle, s, f, w) == want
    return want


def _check_outcome(check, s, f, w):
    """None if the witness passes, else the package error's type and
    message; any other exception escapes, so two equal ones never agree."""
    try:
        check(s, f, w)
    except ReeboundError as exc:
        return type(exc), str(exc)
    return None


@functools.cache
def _witness_base(name):
    """A fixture's surface, field and the witnesses of its Reeb graph."""
    s, f = PINNED_MESHES[name]()
    return s, f, [e.witness for e in build_reeb(s, f).edges]


class TestWitnessCheck:
    """The witness contract at construction, and the one-pass check
    against the crossing-by-crossing walk."""

    @FUZZ
    @given(st.sampled_from(("sphere", "torus", "genus2", "noisy-torus",
                            "pillow")), st.data())
    def test_mutated_crossing_matches_walk(self, name, data):
        s, f, witnesses = _witness_base(name)
        w = data.draw(st.sampled_from(witnesses))
        outcome = _mutated_outcome(s, f, *mutated_witness(
            s, f, w, lambda seq: data.draw(st.sampled_from(seq))))
        event(outcome if outcome in ("refused", None) else outcome[0].__name__)

    @pytest.mark.parametrize("end, missing", [
        ((False, 13), False), ((0.0, 13), False), ([0, 13], False), ({}, False),
        ((1, -275), False),
        # 288 + 13 packs to the key of (1, 13)
        ((0, 301), True),
    ], ids=["bool", "float", "list", "dict", "negative-hi", "past-n"])
    def test_odd_end_verdicts(self, end, missing):
        # in place of (0, 13) at both its places in e1's witness on the
        # 288-vertex torus: an end that is not an int, or ends that do not
        # rise from 0, are refused when the cycle is built, naming the
        # crossing; ends past n that pack to another edge's key are built
        # and named as a missing edge by both walks
        s, f = vertical_torus()
        w = build_reeb(s, f).edge_by_id["e1"].witness
        assert s.n_vertices == 288
        first, *middle, last = w.crossings
        assert first[1] == last[2] == (0, 13)
        crossings = ((first[0], end, first[2]), *middle, (*last[:2], end))
        if not missing:
            with pytest.raises(BadWitness) as info:
                LevelCycle(w.level, crossings)
            assert str(info.value) == (
                "crossing 0 must be (t, (a, b), (x, y)) of ints with "
                "0 <= a < b and 0 <= x < y, got %r" % (crossings[0],))
            return
        bad = LevelCycle(w.level, crossings)
        for check in (_check_cycle, naive_check_cycle):
            assert _check_outcome(check, s, f, bad) == (
                BadWitness, "cycle references missing edge %r" % (end,))

    @pytest.mark.parametrize("name", sorted(PINNED_MESHES))
    def test_every_witness_passes_in_one_pass(self, name):
        s, f, witnesses = _witness_base(name)
        for w in witnesses:
            assert naive_check_cycle(s, f, w) is None
            assert _check_outcome(_check_cycle, s, f, w) is None


#: SHA-256 of graph_dumps(label_reeb(build_reeb(...))) per (mesh, witness
#: fraction), recorded while build_reeb still keyed every vertex's star
#: edges itself and label_reeb indexed the graph again: reading the
#: surface's and the graph's own tables must keep every output byte.  The
#: fractions 0.01, 0.3, 0.7 and 0.99 were recorded while the sweep still
#: classified vertices by their run lists and picked every representative
#: and witness level eagerly.
MESH_SHA256 = {
    ("sphere", 0.01): "dc9a1e27a2cb8f22bc15150443fce2797d9bd8e0ef004daba270dbe7b3ef4ddb",
    ("sphere", 0.1): "249a2f7b472a76a811f28184bc1f6f2430a01000e25ab2119cc7a0645da31008",
    ("sphere", 0.3): "a27f6304e3ddaaf8be536f3ea1fb0221b4df40bc88de88c3325c47e58f6f0aa6",
    ("sphere", 0.5): "0ffc22e027ccfd312f467da775544d123d8ba1831f2975445ac96ea3949e22db",
    ("sphere", 0.7): "6f319f037d74ce5101bcade04906b36f043dd60c146ba04c7c45488e8b5a8687",
    ("sphere", 0.9): "7b1c8544ab0da14ea9b07d4bda74305c2564a88a583c32eea66bfa13c2c3c037",
    ("sphere", 0.99): "079abeac23418d522ef640d96e052b20107bd2401949985d5588bd1fa3b0353e",
    ("torus", 0.01): "c8d552340edb5f5bf2bebd503759167e522471846cdf84fbcdcafb05962cbf03",
    ("torus", 0.1): "a94922331154449695d596c6952c23bb3d6ba0e4dfc54c5bd97b74dbb407cb36",
    ("torus", 0.3): "d76503cf8fe84dc787e4937e7c6dfb74f122bfd23f1596e27197a3d24c8d0270",
    ("torus", 0.5): "3244d43026ad8060a5b174ceb588396998f3e91047c9445207a062a4c83da684",
    ("torus", 0.7): "3254bf34745994fed84c73cdac79b47a0eca540e22abdb479471b8bf0c75fcaf",
    ("torus", 0.9): "346ec387427cff6614b1fd50b5de9ecafe0150cb1b62a14103ffa127c32a40dd",
    ("torus", 0.99): "0b3b7b5c5eeef43477ec70a7d74c158b942eaf487524bf71e8759f1f42110cc7",
    ("genus1", 0.01): "ed8d71b4409ec489c70a831fa563495bb52cbcf2447e02d24742cac3f34e74e7",
    ("genus1", 0.1): "7fd01c2263d4cd23c330be03abbd3c8c30d3302f1d893911f49ef00103552c30",
    ("genus1", 0.3): "ece37712848a0f56bc197381562752cf010db06c7d76ac9616cc28896597575c",
    ("genus1", 0.5): "618068a1145b8ef3945001b27c9f7e680b861097dfbfc6a876140f4cb9fdef53",
    ("genus1", 0.7): "04ca90db3ab0e8b4ebf4f99ca8bb032ece82765b44e409f64b68c3c388502343",
    ("genus1", 0.9): "9e8f8277252f1a8aeab7ce049e6dc1f7fcb745f6409874aa5e59b4f13d57b314",
    ("genus1", 0.99): "74868bf5bca5acee91ecc17ec7dbdd53088c3fe021a414e6cbbacde6943c6746",
    ("genus2", 0.01): "9394550a6771a789259b0a46581b6cc89ae9f99f47ac4e7badd2ed9e4c4776a6",
    ("genus2", 0.1): "edd1f3c650ec44c9ce1286a479417758be0cc8e55a82daed72f17a46ba7ebcc5",
    ("genus2", 0.3): "e7ef3923a32c8522090e16bacf77d994ed62580e67cd3b92cf7b6dbbbe0a7667",
    ("genus2", 0.5): "f0f0044c627599785a2d38298079216c101e096211913c92e616da9de2a439ed",
    ("genus2", 0.7): "2966ad05ec49e78663a60931dc9d6ab721e358474e73a0d5e4af15ce231be6e0",
    ("genus2", 0.9): "520dab2d02081ce249de318e0c191cade95c49df0c93eadba2624023a5a2831d",
    ("genus2", 0.99): "27418850cb8c809b321d725421f64990b899676c2e4c4a0d4eda54b420ba5e24",
    ("genus3", 0.01): "7a1d69ebc6b65bb142d5cca01bbf852885804319a5d115dff5b9b6abacc244f2",
    ("genus3", 0.1): "c48dacd7d73ac485a98c7127f699ed41730eabc35345f0f6bdef6cecc79acca6",
    ("genus3", 0.3): "4a91da5aaca1765c878839231a97f5c391c0570c24a5c3f57edf5e16a8fc2c93",
    ("genus3", 0.5): "48c46fbf2b30e9845e4db41fd194e60d63ae3c70f4e1810b1159d46c45a7c35e",
    ("genus3", 0.7): "74941a8118f1dfba9e31f60c57e5f6de9c446249e5252f1f88921c2aeaab8475",
    ("genus3", 0.9): "daa4ec8826e95e96105cb867f9a970198e2f31e920af1094dac4dfffbf23264d",
    ("genus3", 0.99): "7cc3164d9ffeb5e5ac4c356f2f48f1da387e2eaffb81390c008727fb4febeccf",
    ("genus4", 0.01): "d43259ccf8e7ff00237a96f151d554241f92747407a29ea6ce623aeee0b59478",
    ("genus4", 0.1): "1bf10ae32b448e9b5f2640939f900898e151b19d65f8670fa52426ffbeeee40b",
    ("genus4", 0.3): "1f6b8d8e7b4a3b1edbfd8605f8f7853d6f3fafacc86ba228b52ff7fb17442604",
    ("genus4", 0.5): "1a7e035a2508bf6f8cc979dae9f3ebf46ca242a3d2dec46de9fa692b5ac78446",
    ("genus4", 0.7): "bfd0dc6ec7faa327d7aeae3a0f0388b3ae3fbf4b64f847ba63ebd26790762d74",
    ("genus4", 0.9): "9a9a0f2d922f40625c9d5c19dfda2393131d7b2fcc9950cd3e1b8df83d50ac15",
    ("genus4", 0.99): "7052634add6c289d05f1d73b60ca6eabd52fb2a77983f225dd8b632e59d7fae2",
    ("noisy-torus", 0.01): "dde9bc783f42b8c6f87a15511559e329f4ef90c3c1685efaa1268a33550124e9",
    ("noisy-torus", 0.1): "2a5f7e84f1b5e3b62528dafd03d4e337fcc04fdb56e9b6384583a1ffd6f7c86b",
    ("noisy-torus", 0.3): "ec88f99eb13abe04ef56e01a0c2b2b89fbf05892add003d1ec59a1cb3724a875",
    ("noisy-torus", 0.5): "1c4e553d762c280b1fa72836fa0ae39042a8be3e954c92932b2c445dab6a5402",
    ("noisy-torus", 0.7): "efadde2b32a355d2721f202815e41eb88b8fe481e3ea50acdbef7d0abbcda51b",
    ("noisy-torus", 0.9): "f289672c12311eecaf03c1b35ef3a6fc0a2770bdbd4fbfcb2599fbdc24e48972",
    ("noisy-torus", 0.99): "a0f8795298299cff5618a768c4cb2313b6e18dbbcf6ba7239e0a72497f1f2f6c",
    ("pillow", 0.01): "cc0dbe43187d9b48d486ba2f1af161fbbc02a0aa01702db9537f5edfad358851",
    ("pillow", 0.1): "26e52fe50c02423a045c1f43f86f25bd258f47cd53baf508f7923b81c9b96001",
    ("pillow", 0.3): "312eef922b818bf4084ad31c77f6e2474282d5ba6b90c9a002d70445bdd5fad8",
    ("pillow", 0.5): "643e752f68de0c668c8b668503d236f9a2ea561fe6269496d62c9738e4d5f010",
    ("pillow", 0.7): "5f63a1a10bcae0b1072306bb6ba008ce7bc9cb3debf7ec64759781551ca6f768",
    ("pillow", 0.9): "b7a64c9c999c7c64f5eacfe114ea7fea4fdd9794bd2e6ef8654e29e12bee9c4a",
    ("pillow", 0.99): "e10c47d05225f4fcb75ad10124ba4b7eb26876a3957d4bfbbec1e542082b6c84",
}


class TestPinnedOutput:
    def test_graph_bytes_pinned(self):
        got = {}
        for name, make in PINNED_MESHES.items():
            s, f = make()
            for frac in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
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
        (lambda: label_reeb(*torus_with_shifted_triangles(10 ** 6, True)),
         BadWitness, "cycle references missing triangle 1000000"),
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
        (lambda: TriangulatedSurface.from_off_text("OFF\n3 1\n"),
         ParseError, "OFF data ends early, expected edge count"),
        (lambda: TriangulatedSurface.from_off_text(
            "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n"),
         ParseError, "OFF data ends early, expected face size"),
        (lambda: TriangulatedSurface.from_off_text(
            "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1\n"),
         ParseError, "OFF data ends early, expected vertex index"),
        (lambda: TriangulatedSurface.from_off_text(
            "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1\n"),
         ParseError, "OFF data ends early, expected coordinate"),
        (lambda: TriangulatedSurface.from_off_text(
            "OFF\n3 1 0\n0 0 0\n1 0 x\n"),
         ParseError, "bad OFF token: could not convert string to float: 'x'"),
        (lambda: TriangulatedSurface.from_off_text(
            "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3.0 0 1 2\n"),
         ParseError, "bad OFF token: invalid literal for int() with base 10: '3.0'"),
        (lambda: TriangulatedSurface.from_off_text(
            "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 2.0\n"),
         ParseError, "bad OFF token: invalid literal for int() with base 10: '2.0'"),
        (lambda: TriangulatedSurface.from_off_text(
            "OFF\n-1 1 0\n3 0 1 2\n"),
         MalformedMesh, "triangle (0, 1, 2) references missing vertex"),
        (lambda: TriangulatedSurface.from_off_text(
            "OFF\n%d 1 0\n0 0 0\n" % 10 ** 20),
         ParseError, "OFF data ends early, expected coordinate"),
        (lambda: ScalarField.from_text("0.5\ninf\n"),
         DegenerateField, "non-finite value inf at vertex 1"),
        (lambda: ScalarField.from_text("nan 0.5\n"),
         DegenerateField, "non-finite value nan at vertex 0"),
        (lambda: ScalarField.from_text("inf\n0.5 x\n"),
         ParseError, "bad scalar value 'x'"),
        (lambda: label_reeb(*torus_with_edited_witness(
            lambda w: LevelCycle(w.level, ()))),
         OpenCycle, "empty cycle"),
        (lambda: label_reeb(*torus_with_edited_witness(
            lambda w: LevelCycle(w.level, ((0, (0, 13), (0, 13)),)
                                 + w.crossings[1:]))),
         BadWitness, "crossing 0 enters and exits edge (0, 13)"),
        (lambda: label_reeb(*torus_with_edited_witness(
            lambda w: LevelCycle(w.level, ((0, (0, 999), (0, 12)),)
                                 + w.crossings[1:]))),
         BadWitness, "cycle references missing edge (0, 999)"),
        (lambda: label_reeb(*torus_with_shifted_triangles(1, True)),
         BadWitness, "triangle 1 does not contain both crossing edges"),
        # the loop walked twice closes up but reuses every triangle
        (lambda: label_reeb(*torus_with_edited_witness(
            lambda w: LevelCycle(w.level, w.crossings * 2))),
         BadWitness, "cycle visits a triangle twice"),
        (lambda: label_reeb(*torus_with_edited_witness(
            lambda w: {"level": w.level})),
         ParseError, "bad level-cycle payload: 'crossings'"),
        (lambda: label_reeb(*vertical_torus(), ReebGraph((), (), 0.0, 1.0)),
         ReebTopologyMismatch, "Reeb graph has no vertices"),
        (lambda: ScalarField((0.5, "a")), DegenerateField,
         "value at vertex 1 must be a finite number, got 'a'"),
        (lambda: ScalarField((10 ** 400,)), DegenerateField,
         "value at vertex 0 must be a finite number, got %d" % 10 ** 400),
        (lambda: ScalarField((10 ** 5000,)), DegenerateField,
         "value at vertex 0 must be a finite number, got an int of 16610 bits"),
        # the first fault wins, whichever kind it is
        (lambda: ScalarField((None, nan)), DegenerateField,
         "value at vertex 0 must be a finite number, got None"),
        (lambda: ScalarField((nan, None)), DegenerateField,
         "non-finite value nan at vertex 0"),
        (lambda: TriangulatedSurface(3, [(0, 1, "x")]), MalformedMesh,
         "triangle (0, 1, 'x') is not three vertex indices"),
        (lambda: TriangulatedSurface(3, [(0, 1, 2.5)]), MalformedMesh,
         "triangle (0, 1, 2.5) is not three vertex indices"),
        (lambda: TriangulatedSurface(3, [(0, 1)]), MalformedMesh,
         "triangle (0, 1) is not three vertex indices"),
        (lambda: TriangulatedSurface(3, [(0, 1, 2), 7]), MalformedMesh,
         "triangle 7 is not three vertex indices"),
        (lambda: TriangulatedSurface("3", [(0, 1, 2)]), MalformedMesh,
         "vertex count must be an int, got '3'"),
        (lambda: TriangulatedSurface(3, [(0, 1, 10 ** 5000)]), MalformedMesh,
         "triangle (0, 1, an int of 16610 bits) references missing vertex"),
        # a fault in an earlier triangle wins
        (lambda: TriangulatedSurface(3, [(0, 1, 1), (0, 1, "x")]), MalformedMesh,
         "degenerate triangle (0, 1, 1)"),
        (lambda: TriangulatedSurface(3, [(0, 1, "x"), (0, 1, 1)]), MalformedMesh,
         "triangle (0, 1, 'x') is not three vertex indices"),
        (lambda: ScalarField(5), MalformedMesh, "values must be iterable, got 5"),
        (lambda: ScalarField(None), MalformedMesh, "values must be iterable, got None"),
        # the walk compared "0.5" or None with the field values and raised
        # a bare TypeError
        (lambda: label_reeb(*torus_with_edited_witness(
            lambda w: LevelCycle("0.5", w.crossings))), BadWitness,
         "witness level must be a finite number, got '0.5'"),
        (lambda: label_reeb(*torus_with_edited_witness(
            lambda w: LevelCycle(None, w.crossings))), BadWitness,
         "witness level must be a finite number, got None"),
        (lambda: LevelCycle(nan, ()), BadWitness,
         "witness level must be a finite number, got nan"),
        (lambda: LevelCycle(0.5, [(0, (0, 1), (1, 2))]), BadWitness,
         "witness crossings must be a tuple, got [(0, (0, 1), (1, 2))]"),
        (lambda: LevelCycle(0.5, ((0, (0, 1), (1, 2)), (1, (1, 2)))), BadWitness,
         "crossing 1 must be (t, (a, b), (x, y)) of ints with 0 <= a < b and "
         "0 <= x < y, got (1, (1, 2))"),
    ], ids=["open", "klein", "disconnected", "isolated-vertex", "pinched",
            "witness-not-crossed", "witness-missing-triangle", "degenerate",
            "missing-vertex", "no-triangles", "three-owners", "bad-header",
            "ends-early", "quad-face", "bad-token", "bad-scalar", "ends-early-edge-count",
            "ends-early-face-size", "ends-early-vertex-index",
            "ends-early-mid-line", "bad-token-before-end", "float-face-size",
            "float-vertex-index", "negative-vertex-count",
            "huge-vertex-count", "infinite-scalar", "nan-scalar",
            "bad-scalar-after-infinite", "witness-empty",
            "witness-enters-and-exits", "witness-missing-edge",
            "witness-wrong-triangle", "witness-triangle-twice",
            "witness-bad-payload", "graph-without-vertices",
            "str-value", "huge-int-value", "unprintable-int-value",
            "none-before-nan", "nan-before-none", "str-corner", "float-corner",
            "two-corners", "int-triangle", "str-vertex-count",
            "unprintable-int-corner", "degenerate-first", "str-corner-first",
            "int-field-values", "none-field-values", "witness-str-level",
            "witness-none-level", "witness-nan-level",
            "witness-crossings-list", "witness-short-crossing"])
    def test_surface_check_messages(self, make, error, message):
        with pytest.raises(error) as info:
            make()
        assert type(info.value) is error
        assert str(info.value) == message

    def test_tokens_after_last_face_ignored(self):
        s, _ = chained_tori(2)
        s2 = TriangulatedSurface.from_off_text(off_text(s) + "3 x 1.5\nOFF\n")
        assert (s2.n_vertices, s2.triangles) == (s.n_vertices, s.triangles)


def _walk_or_message(walk, *args):
    try:
        return walk(*args)
    except OpenCycle as exc:
        return str(exc)


class TestContourWalk:
    def test_walk_matches_predicate_oracle(self):
        # every crossed start edge and a sample of uncrossed ones, at value
        # gap midpoints and rank thresholds, on each pinned mesh with its
        # own field, that field quantized to thirds, and random levels
        rng = random.Random(16)
        refused = Counter()
        for make in (*PINNED_MESHES.values(), monkey_bipyramid):
            s, own = make()
            edges, edge_tris = surface_edges(s), surface_edge_tris(s)
            for field in (own, quantized_field(own, 4),
                          random_level_field(s.n_vertices, 3, rng.random())):
                values = field.values
                order = sorted(range(s.n_vertices), key=lambda v: (values[v], v))
                rank = [0] * s.n_vertices
                for i, v in enumerate(order):
                    rank[v] = i
                # a gap between adjacent floats has no level strictly inside
                gaps = [(x + y) / 2 for x, y in itertools.pairwise(sorted(set(values)))
                        if x < (x + y) / 2 < y]
                cases = [(values, t, value_crossed(s, values, t))
                         for t in rng.sample(gaps, min(3, len(gaps)))]
                cases += [(rank, rv, rank_crossed(s, rank, rv))
                          for rv in rng.sample(range(s.n_vertices - 1),
                                               min(3, s.n_vertices - 1))]
                for key, level, crossed in cases:
                    hit = [e for e in edges if crossed(e)]
                    miss = [e for e in edges if not crossed(e)]
                    for e in hit + rng.sample(miss, min(len(miss), 40)):
                        want = _walk_or_message(naive_trace, s, crossed, e,
                                                edge_tris)
                        assert _walk_or_message(_trace, s, key, level, e) == want
                        if isinstance(want, str):
                            refused[want.split()[3]] += 1
        # an uncrossed start edge meets zero or two other crossed edges
        assert set(refused) == {"0", "2"}
