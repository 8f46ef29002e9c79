"""Random graph generator and naive-oracle behavior."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reebound import (
    EdgeLabel,
    GenParams,
    VertexKind,
    assign_all,
    essential_subgraph,
    graph_dumps,
    random_reeb,
    validate,
)
from reebound.errors import GenerationFailed

from _oracles import naive_assign


class TestParams:
    def test_oversized_rejected(self):
        with pytest.raises(GenerationFailed):
            GenParams(seed=1, saddle_count=100_000)

    def test_bad_probability_rejected(self):
        with pytest.raises(GenerationFailed):
            GenParams(seed=1, saddle_count=1, parallel_edge_bias=1.5)
        with pytest.raises(GenerationFailed):
            GenParams(seed=1, saddle_count=1, inessential_bias=-0.1)


class TestGenerator:
    def test_zero_saddles_gives_single_essential_edge(self):
        g = random_reeb(GenParams(seed=9, saddle_count=0))
        assert len(g.edges) == 1
        (e,) = g.edges
        assert e.label is EdgeLabel.ESSENTIAL
        assert g.span(e.id) == (0.0, 1.0)
        assert validate(g).ok

    def test_seed_42_ten_saddles_valid(self):
        g = random_reeb(GenParams(seed=42, saddle_count=10))
        assert validate(g).ok

    def test_determinism_bit_exact(self):
        params = GenParams(seed=1234, saddle_count=25,
                           parallel_edge_bias=0.5, inessential_bias=0.5)
        assert graph_dumps(random_reeb(params)) == graph_dumps(random_reeb(params))

    def test_meta_records_seed(self):
        g = random_reeb(GenParams(seed=77, saddle_count=3))
        assert g.meta["generator"]["seed"] == 77
        assert g.meta["generator"]["saddle_count"] == 3

    def test_parallel_bias_produces_multi_edges(self):
        # verified once and frozen: with bias 1.0 some seed yields a
        # repeated (lower, upper) pair
        found = False
        for seed in range(30):
            g = random_reeb(GenParams(seed=seed, saddle_count=12,
                                      parallel_edge_bias=1.0))
            pairs = [(e.lower, e.upper) for e in g.edges]
            if len(pairs) != len(set(pairs)):
                found = True
                break
        assert found

    def test_center_events_appear(self):
        g = random_reeb(GenParams(seed=5, saddle_count=30,
                                  inessential_bias=0.9))
        kinds = {v.kind for v in g.vertices}
        assert VertexKind.CENTER in kinds

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**9), saddles=st.integers(0, 40),
           pbias=st.floats(0, 1), ibias=st.floats(0, 1))
    def test_generator_soundness(self, seed, saddles, pbias, ibias):
        g = random_reeb(GenParams(seed=seed, saddle_count=saddles,
                                  parallel_edge_bias=pbias,
                                  inessential_bias=ibias))
        report = validate(g)
        assert report.ok, report.violations


class TestNaiveOracle:
    def test_single_edge(self):
        g = random_reeb(GenParams(seed=0, saddle_count=0))
        sub = essential_subgraph(g, prevalidated=True)
        assert naive_assign(sub).assigned == {"e0": 1}

    def test_matches_fast_path_small_batch(self):
        for seed in range(50):
            g = random_reeb(GenParams(seed=seed, saddle_count=seed % 21))
            sub = essential_subgraph(g, prevalidated=True)
            p = assign_all(sub)
            q = naive_assign(sub, random.Random(seed))
            assert q.assigned == p.assigned
