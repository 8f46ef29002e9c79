"""The benchmark's workloads: inputs made from the seed, the op each one
times, and the check each output must pass.

Every op starts from text, the way the `reebound` command does, and ends
with the bytes the command would print.  ``lib`` is a namespace holding
the package's graph, assign, mesh and gen modules; ops look functions up
on those modules at call time so that the span recorder can wrap them.
"""
from __future__ import annotations

import json
import random

import checks
import meshes

DEFAULT_SEED = 0

# (saddles, graphs): the middle rung holds the median op; the top rung has
# enough graphs that its total time does not hang on one random shape.
LADDER = ((100, 12), (200, 24), (400, 12))
BATCH_GRAPHS = 1000
BATCH_MAX_SADDLES = 50
# Waves of the six smooth 48 x 24 tori; each wave adds four Reeb edges.
MESH_WAVES = (3, 4, 5, 6, 7, 8)


def assignment_text(lib, p, report, include_trace: bool) -> str:
    """What `reebound assign` prints for an assignment and its bound."""
    payload = lib.assign.assignment_to_dict(p, report, include_trace=include_trace)
    return json.dumps(payload, separators=(",", ":")) + "\n"


def graph_op(lib, text: str, check: bool, trace: bool) -> str:
    """`reebound assign [--check-invariants] [--trace]` on a graph text."""
    g = lib.graph.graph_loads(text)
    report = lib.graph.validate(g)
    if not report.ok:
        raise checks.CheckFailed("input rejected: %s" % sorted(report.rules()))
    sub = lib.graph.essential_subgraph(g, prevalidated=True)
    p = lib.assign.assign_all(sub, check=check)
    bound = lib.assign.distance_bound(sub, p)
    return assignment_text(lib, p, bound, trace)


def mesh_op(lib, texts: tuple[str, str]) -> str:
    """`reebound from-mesh` on an OFF text and a scalar text."""
    surface = lib.mesh.TriangulatedSurface.from_off_text(texts[0])
    field = lib.mesh.ScalarField.from_text(texts[1])
    g = lib.mesh.build_reeb(surface, field)
    g = lib.mesh.label_reeb(surface, field, g)
    return lib.graph.graph_dumps(g) + "\n"


def _graph_text(lib, seed: int, saddles: int, parallel: float,
                inessential: float) -> str:
    params = lib.gen.GenParams(seed=seed, saddle_count=saddles,
                               parallel_edge_bias=parallel,
                               inessential_bias=inessential)
    return lib.graph.graph_dumps(lib.gen.random_reeb(params))


def ladder_inputs(lib, seed: int) -> list[str]:
    rng = random.Random(seed)
    return [_graph_text(lib, rng.randrange(2 ** 31), saddles, 0.25, 0.35)
            for saddles, count in LADDER for _ in range(count)]


def batch_inputs(lib, seed: int) -> list[str]:
    """Mixed sizes and biases, cycling like the acceptance corpus."""
    rng = random.Random(seed)
    return [_graph_text(lib, rng.randrange(2 ** 31), i % (BATCH_MAX_SADDLES + 1),
                        (i % 5) / 4.0, (i % 7) / 6.0)
            for i in range(BATCH_GRAPHS)]


def mesh_inputs(lib, seed: int) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    built = [meshes.smooth_torus(48, 24, waves, rng) for waves in MESH_WAVES]
    built += [meshes.chained_tori(4), meshes.chained_tori(8),
              meshes.height_torus(96, 48)]
    return [(m.off_text(), m.field_text()) for m in built]


class GraphWorkload:

    def __init__(self, name, make_inputs, check, trace):
        self.name = name
        self.make_inputs = make_inputs
        self.check = check
        self.trace = trace

    def op(self, lib, text: str) -> str:
        return graph_op(lib, text, self.check, self.trace)

    def facts(self, inputs):
        return [checks.GraphFacts(text) for text in inputs]

    def verify(self, lib, facts, out: str) -> dict:
        checks.check_assignment(facts, out, self.trace)
        return {}

    def sizes(self, facts) -> dict:
        return {
            "graphs": len(facts),
            "gen.saddles": sum(f.saddles for f in facts),
            "graph.vertices": sum(f.n_vertices for f in facts),
            "graph.edges": sum(f.n_edges for f in facts),
            "graph.essential_edges": sum(len(f.essential) for f in facts),
            "graph.input_bytes": sum(f.n_bytes for f in facts),
            "assign.valency2_vertices": sum(f.valency2 for f in facts),
        }


class MeshWorkload:
    name = "mesh-pipeline"

    def make_inputs(self, lib, seed):
        return mesh_inputs(lib, seed)

    def op(self, lib, texts) -> str:
        return mesh_op(lib, texts)

    def facts(self, inputs):
        return [checks.surface_euler(off) for off, _ in inputs]

    def verify(self, lib, facts, out: str) -> dict:
        return checks.check_reeb(lib, facts[1], out)

    def sizes(self, facts) -> dict:
        return {"meshes": len(facts),
                "mesh.triangles": sum(n for n, _ in facts)}


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    GraphWorkload("graph-ladder", ladder_inputs, check=False, trace=False),
    GraphWorkload("graph-batch", batch_inputs, check=False, trace=False),
    GraphWorkload("graph-checked", batch_inputs, check=True, trace=True),
    MeshWorkload(),
)}
