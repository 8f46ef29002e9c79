"""Random graph generator and naive-oracle behavior."""
from __future__ import annotations

import hashlib
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

#: SHA-256 of graph_dumps(random_reeb(...)) per (seed, saddles, parallel
#: bias, inessential bias), recorded while the generator still rescanned
#: its list of live strands: indexing them must keep every RNG draw.
GEN_SHA256 = {
    (0, 0, 0.0, 0.0): "a7ec848af784f85eb771829972a8d538438d99f7cbfdcff87697168474dff52e",
    (0, 0, 0.25, 0.35): "ca1dbf6b9e1b88627880b9414d4cd805e1f399cd67fcf71e486d93048d20db38",
    (0, 0, 1.0, 0.5): "0ef2beb5f0c82cfe7338d24cc26c2239bf6c2734de3f8417863ccc8cc65b2263",
    (0, 0, 0.5, 1.0): "d5e44d2d079bbc89ded543db1edce169afe719858b78460ea513890a95545b2d",
    (0, 3, 0.0, 0.0): "428b487000bfe6ee2d5beb48a962130ef5c8f90f0b43f46df328290e479decfd",
    (0, 3, 0.25, 0.35): "810b5e97fa29b4550727150647b413d9458f3b3709e4ba3bad81ca77e68f9702",
    (0, 3, 1.0, 0.5): "618674b002507c90d865bd2429ba38829a13ab0cbf049f855078b227854b4d64",
    (0, 3, 0.5, 1.0): "e99917d3b7a9da294231dbe1a7d9604b9285f605a28e70ae9ee47752bcbaf343",
    (0, 40, 0.0, 0.0): "a06ec3b237d92ea0df31753706c71726be1369f2380fa7191a63fe1de4d03aa4",
    (0, 40, 0.25, 0.35): "ff8cb013afe815656070585e8177c43fb97943ce8ea24dec5c634c22890e3bc5",
    (0, 40, 1.0, 0.5): "f457f54ca53cb797b9fe3b349da8e9e659379668ecd51be9fc7f7208eb076ae1",
    (0, 40, 0.5, 1.0): "b933d9139db4660bf37890c474ff2ff71cffdac5f68acb0718fcfa8935cdff65",
    (0, 400, 0.0, 0.0): "6f9f3fe352a37ec73ac07aa26a7e01330a8ee77fcadd7b93078f7d6a23929fcb",
    (0, 400, 0.25, 0.35): "fe564df844a13cafd85f37087ac166b1561008351041a51e56312c8b8c4bba8d",
    (0, 400, 1.0, 0.5): "42a8d3ee52d18e5e9bfa378ef82727ebc9acc8f2e15c4506db103779f7f8c4b5",
    (0, 400, 0.5, 1.0): "f69f9c92205b979ce0c8e48b7de4287432d3e02fa1e36e9ef32995c41c37d49c",
    (7, 0, 0.0, 0.0): "6aca0ab127822ef9bf4a9d611b562c1b570cd26d91b89dfd2f4a0bb722fd315e",
    (7, 0, 0.25, 0.35): "0ae0d1dff73b58261c31b3575e3b648053e67cdd3362fbd812821e7f5520c46b",
    (7, 0, 1.0, 0.5): "253cbbc573e40964ad7aaf7e262549db8dd189c266c13536e4978c9772747274",
    (7, 0, 0.5, 1.0): "8ed9a670e6118cbedab0c3d24766572c4428be8902bba82129775d8a776c253d",
    (7, 3, 0.0, 0.0): "7d90d2eb9c8174effd522b614a05059daff58f9effad26986f1afe94b7abc20a",
    (7, 3, 0.25, 0.35): "8896ffec17e90b89b682fce02ecf08a562b4bcae3acd0b37e32bb3aa5cf99791",
    (7, 3, 1.0, 0.5): "31ad31040761f0309fbbb35016dc88cc21ab0f5932b1bf8210b1cc2067e36a4f",
    (7, 3, 0.5, 1.0): "59875554526e2da1ea9f9c1f18cb6f20093de2b83f470ffa69db4597fe48461a",
    (7, 40, 0.0, 0.0): "816d7824ec13cf1ab6767b2e88fdc76e56487d43dd7b9606afee40009c5ad117",
    (7, 40, 0.25, 0.35): "e4cd6af5c00c6751e5cae03e5c7220c741c74d2078ddfe1b8efe007867d7e474",
    (7, 40, 1.0, 0.5): "d5437ebb763e14cc35eba7178d9682aae87083140ea414bed1f639aa517ea28d",
    (7, 40, 0.5, 1.0): "dfad33d90c263a56628e5a4a23390c0363e7bf8a24b6661aa004b2d395d3da47",
    (7, 400, 0.0, 0.0): "60a9a6bd97ebf13ed01dc2bcaa62c46ba26bb52662d7bc3eccd3052c51f8a5fb",
    (7, 400, 0.25, 0.35): "02da1dbca18f368e8fcf86a1ba4a2ded79d5ea0662d2c264b8a25c477b6801f8",
    (7, 400, 1.0, 0.5): "3a4d580fb30b26f24a4b0b826d14e90ec8e697bba6c1a692806f673601ff7c08",
    (7, 400, 0.5, 1.0): "430f079b2d308a6dfa75a3f7b5f5e2a5f37b33e7e727f5aa88a1f491edbae56c",
    (12345, 0, 0.0, 0.0): "b5d93dae059956ade683c34a7ecd39e45a0125bd9331c5626750c0b8917892a7",
    (12345, 0, 0.25, 0.35): "1374e84c3063c5fd7836159aaec4d392856faa57d835119c9d4391fb09ca1187",
    (12345, 0, 1.0, 0.5): "63e362cf7730a69003533e645416b6bc2cd398dd1d7c1f24a5b1624dfd0b6499",
    (12345, 0, 0.5, 1.0): "5ef44c31e2063420f7203d5b86f5d3978069bcd72c8ef8a54f9decfba363e222",
    (12345, 3, 0.0, 0.0): "78348b924287240a0d2bb634005a6ba6bf7698faa9851b4d599695669c7611d2",
    (12345, 3, 0.25, 0.35): "f49d80d0f86bdf72161db249cece444b21515fcec8bc9910775b6a297ce7aa23",
    (12345, 3, 1.0, 0.5): "124bcbbac57f748d6515df03292809bdc1b3e8da145b8aaaf71453a92cb1591d",
    (12345, 3, 0.5, 1.0): "befe5a2cfa44aacf2700248f6b0980eaf1c56f13c3f3be7671c330b6ab082156",
    (12345, 40, 0.0, 0.0): "d6410db6133b3243f3d822897cb73c6543ac1d98db69e1038ac87fa7a11f84fe",
    (12345, 40, 0.25, 0.35): "76dbc2d95402638e1c1938ba5f1ee986e9ee078d5830835424bb59d2d1f4c164",
    (12345, 40, 1.0, 0.5): "4d09c39eddeaa8e7748525819efd362607cf24aa4e4cce2dc16a9733899e7836",
    (12345, 40, 0.5, 1.0): "6e2d07463289182521788726907a8fbb4b73becc43eba2fae3aee39bcbe86d01",
    (12345, 400, 0.0, 0.0): "fa4e353802f0c36657dd8ece753ddb0edb0e07583fc58fe621b6b0e6bc53dab6",
    (12345, 400, 0.25, 0.35): "417328c471dbe8c085373dc8d1b244e4a26bee4978055f05ac5f4d96c5f82a92",
    (12345, 400, 1.0, 0.5): "f193c54a413df7bf1c246a8a3e89d23fb1912ea753252b7c593037a4002cd932",
    (12345, 400, 0.5, 1.0): "4c633a4d7d7f4098c790c091fa70894b87c0ec00bdbe2a02b614425af1b13a77",
    # at MAX_SADDLES, recorded while each strand was an object with a
    # pointer to its twin; the first graph draws many twin pairs
    (1, 10000, 1.0, 0.5): "fc63dc2ada782b7055059f0a3b9f2b385ecba9cbf196f6d4cacf3bfc2fc3834e",
    (1, 10000, 0.25, 0.35): "9009907ca79e94c46c2d9ec971ce095f5e65143f8bf03d529a8b50f212ef6cf1",
}


class TestParams:
    def test_oversized_rejected(self):
        with pytest.raises(GenerationFailed):
            GenParams(seed=1, saddle_count=100_000)

    def test_bad_probability_rejected(self):
        with pytest.raises(GenerationFailed):
            GenParams(seed=1, saddle_count=1, parallel_edge_bias=1.5)
        with pytest.raises(GenerationFailed):
            GenParams(seed=1, saddle_count=1, inessential_bias=-0.1)

    @pytest.mark.parametrize("count", ["3", 3.5, None, True],
                             ids=["string", "float", "none", "bool"])
    def test_non_int_saddle_count_rejected(self, count):
        # "3" failed the range test with a bare TypeError, 3.5 passed it
        # and failed in random_reeb, and True was written into meta as true
        with pytest.raises(GenerationFailed) as info:
            GenParams(seed=1, saddle_count=count)
        assert str(info.value) == "saddle_count must be an int, got %r" % (count,)

    @pytest.mark.parametrize("seed", [[1], {}, None, 1.5, "7", True],
                             ids=["list", "dict", "none", "float", "string", "bool"])
    def test_non_int_seed_rejected(self, seed):
        # [1] and {} raised a bare TypeError from random.Random, None built
        # a graph that no seed reproduces, and True was written into meta
        with pytest.raises(GenerationFailed) as info:
            GenParams(seed=seed, saddle_count=2)
        assert str(info.value) == "seed must be an int, got %r" % (seed,)

    @pytest.mark.parametrize("name", ["parallel_edge_bias", "inessential_bias"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_bias_rejected(self, name, flag):
        # a bool passed the range test and was written into meta as true/false
        with pytest.raises(GenerationFailed) as info:
            GenParams(seed=1, saddle_count=1, **{name: flag})
        assert str(info.value) == "%s %r outside [0, 1]" % (name, flag)

    @pytest.mark.parametrize("name", ["parallel_edge_bias", "inessential_bias"])
    @pytest.mark.parametrize("bias", ["x", None], ids=["string", "none"])
    def test_non_number_bias_rejected(self, name, bias):
        with pytest.raises(GenerationFailed) as info:
            GenParams(seed=1, saddle_count=1, **{name: bias})
        assert str(info.value) == "%s %r outside [0, 1]" % (name, bias)


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

    def test_output_bytes_pinned(self):
        got = {}
        for seed, saddles, pbias, ibias in GEN_SHA256:
            g = random_reeb(GenParams(seed=seed, saddle_count=saddles,
                                      parallel_edge_bias=pbias,
                                      inessential_bias=ibias))
            text = graph_dumps(g).encode()
            got[seed, saddles, pbias, ibias] = hashlib.sha256(text).hexdigest()
        assert got == GEN_SHA256

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
