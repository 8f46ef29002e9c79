"""Acceptance suite: every exit criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
from __future__ import annotations

import random
import time

import pytest

from reebound import (
    EdgeLabel,
    VertexKind,
    assign_all,
    distance_bound,
    essential_subgraph,
    graph_dumps,
    graph_loads,
    build_reeb,
    label_reeb,
    random_reeb,
    restrict,
    validate,
    GenParams,
)

from _fixtures import (
    center_violation,
    chained_tori,
    coverage_violation,
    genericity_violation,
    octa_sphere,
    saddle_parity_violation,
    single_edge_graph,
    theta_graph,
    vertical_torus,
    y_graph,
)
from _oracles import naive_assign, naive_is_inessential, pl_criticality


def _report(criterion: int, ok: bool, detail: str) -> None:
    print("ACCEPTANCE %d %s: %s" % (criterion, "PASS" if ok else "FAIL", detail))


class _Criterion:
    """Prints the pass/fail line even when an assertion inside fails."""

    def __init__(self, number: int, detail: str):
        self.number = number
        self.detail = detail

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _report(self.number, exc_type is None, self.detail)
        return False


def test_criterion_1_worked_instances():
    cases = [
        (single_edge_graph(), {"e0": 1}, 2),
        (y_graph(), {"e0": 1, "e1": 2, "e2": 2}, 3),
        (theta_graph(),
         {"e_a": 1, "e_b": 1, "e_c": 2, "e_d": 2, "e_e": 2}, 2),
    ]
    with _Criterion(1, "worked instances exact, < 1 ms each"):
        timings = []
        for g, expected, bound in cases:
            sub = essential_subgraph(g)
            # derived values are confirmed by the naive oracle first
            assert naive_assign(sub).assigned == expected
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                p = assign_all(sub)
                rep = distance_bound(sub, p)
                best = min(best, time.perf_counter() - t0)
            assert p.assigned == expected
            assert rep.bound == bound
            assert best < 1e-3, "took %.4f ms" % (best * 1e3)
            timings.append(best)


def test_criterion_2_invariant_suite(corpus, corpus_assignments):
    ps, elapsed = corpus_assignments
    with _Criterion(2, "checked sweep over %d graphs, %.2f s" %
                    (len(corpus), elapsed)):
        for (_, sub), p in zip(corpus, ps):
            # completed with check=True: no InvariantViolation was raised
            # and every frontier classified (else the sweep would abort)
            written = [e for t in p.trace for e in t.edges]
            assert len(written) == len(set(written)) == len(sub.edges)
            for vid in sub.boundary_minus:
                for eid in sub.incident[vid]:
                    assert p.assigned[eid] == 1
        assert elapsed < 10.0, "checked sweep took %.2f s" % elapsed


def test_criterion_3_oracle_equivalence(corpus, corpus_assignments):
    ps, _ = corpus_assignments
    with _Criterion(3, "naive oracle equals sweep under two scan orders"):
        mismatches = 0
        for i, ((_, sub), p) in enumerate(zip(corpus, ps)):
            for salt in (1, 2):
                q = naive_assign(sub, random.Random(i * 9176 + salt))
                if q.assigned != p.assigned:
                    mismatches += 1
        assert mismatches == 0


def test_criterion_4_local_lipschitz(corpus, corpus_assignments):
    ps, _ = corpus_assignments
    with _Criterion(4, "adjacent essential edges differ by at most 1"):
        violations = 0
        for (_, sub), p in zip(corpus, ps):
            for v in sub.vertices:
                vals = [p.assigned[eid] for eid in sub.incident[v.id]]
                if max(vals) - min(vals) > 1:
                    violations += 1
        assert violations == 0


def test_criterion_5_validator_rejections():
    expected = {
        "SaddleParity": saddle_parity_violation,
        "LevelCoverage": coverage_violation,
        "CenterRule": center_violation,
        "Genericity": genericity_violation,
    }
    with _Criterion(5, "4/4 fixtures rejected with the named violation"):
        for rule, fixture in expected.items():
            report = validate(fixture())
            assert not report.ok
            assert report.rules() == {rule}, (rule, report.rules())


def test_criterion_6_mesh_pipeline():
    with _Criterion(6, "mesh pipeline: shapes, labels, oracle, timing"):
        fixtures = {
            "sphere": octa_sphere(),
            "torus": vertical_torus(),
            "genus2": chained_tori(2),
            "genus3": chained_tori(3),
        }
        graphs = {}
        for name, (surface, field) in fixtures.items():
            t0 = time.perf_counter()
            g = label_reeb(surface, field, build_reeb(surface, field))
            elapsed = time.perf_counter() - t0
            assert elapsed < 5.0, "%s took %.2f s" % (name, elapsed)
            graphs[name] = g
            mins, saddles, maxes = pl_criticality(surface, field)
            assert (len(mins) + len(maxes) - len(saddles)
                    == surface.euler_characteristic())

        sphere = graphs["sphere"]
        assert len(sphere.edges) == 1
        assert all(v.kind is VertexKind.CENTER for v in sphere.vertices)
        assert all(e.label is EdgeLabel.INESSENTIAL for e in sphere.edges)

        torus = graphs["torus"]
        assert len(torus.edges) == 4
        side = [e for e in torus.edges if e.label is EdgeLabel.ESSENTIAL]
        assert len(side) == 2
        assert {torus.span(e.id) for e in side} == {(1/3, 2/3)}

        genus2 = graphs["genus2"]
        assert validate(genus2, check_coverage=False).ok
        assert validate(restrict(genus2, 0.0, 7.0)).ok

        # 100 random edges, built at random witness fractions across genus
        # 1..3: production label equals the independent cut oracle on the
        # edge's witness
        rng = random.Random(2024)
        agree = 0
        for checked in range(100):
            name = ("torus", "genus2", "genus3")[checked % 3]
            surface, field = fixtures[name]
            g = label_reeb(surface, field,
                           build_reeb(surface, field, rng.uniform(0.05, 0.95)))
            e = g.edges[rng.randrange(len(g.edges))]
            naive = naive_is_inessential(surface, field, e.witness)
            if (e.label is EdgeLabel.INESSENTIAL) == naive:
                agree += 1
        assert agree == 100


def test_criterion_7_determinism_and_round_trip():
    with _Criterion(7, "byte-identical reruns and lossless JSON"):
        params = GenParams(seed=31337, saddle_count=33,
                           parallel_edge_bias=0.6, inessential_bias=0.4)
        text1 = graph_dumps(random_reeb(params))
        text2 = graph_dumps(random_reeb(params))
        assert text1 == text2
        assert graph_dumps(graph_loads(text1)) == text1
        assert graph_loads(text1) == random_reeb(params)

        surface, field = vertical_torus()
        m1 = graph_dumps(label_reeb(surface, field, build_reeb(surface, field)))
        m2 = graph_dumps(label_reeb(surface, field, build_reeb(surface, field)))
        assert m1 == m2
        assert graph_dumps(graph_loads(m1)) == m1
