"""Random valid graphs.

random_reeb grows a graph left to right as a set of live strands.  Every
event is one of the legal local patterns at a saddle (split or merge,
with the essential/inessential labels of the three ends drawn from the
allowed combinations), or a center birth/death on an inessential strand.
At least one essential strand is kept alive at every level, which makes
the coverage rule hold by construction; saddle parity and the center
rule hold because only legal patterns are emitted.
"""
from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass

from .errors import GenerationFailed
from .graph import (
    EdgeLabel,
    ReebEdge,
    ReebGraph,
    ReebVertex,
    VertexKind,
    _CENTER,
    _MINUS,
    _PLUS,
    _SADDLE,
)

MAX_SADDLES = 10_000

# Saddle patterns as (consumed labels, produced labels); E essential,
# I inessential.  Splits consume one strand, merges consume two.
_PATTERNS = {
    "E>EE": (("E",), ("E", "E")),
    "I>EE": (("I",), ("E", "E")),
    "E>EI": (("E",), ("E", "I")),
    "I>II": (("I",), ("I", "I")),
    "EE>E": (("E", "E"), ("E",)),
    "EE>I": (("E", "E"), ("I",)),
    "EI>E": (("E", "I"), ("E",)),
    "II>I": (("I", "I"), ("I",)),
}
_LABELS = {"E": EdgeLabel.ESSENTIAL, "I": EdgeLabel.INESSENTIAL}


@dataclass(frozen=True)
class GenParams:
    seed: int
    saddle_count: int
    parallel_edge_bias: float = 0.25
    inessential_bias: float = 0.35

    def __post_init__(self):
        # plain ints and floats, no bools: each is written into the graph's
        # meta, and the seed must reproduce the graph
        for name in ("seed", "saddle_count"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise GenerationFailed("%s must be an int, got %r" % (name, value))
        if not 0 <= self.saddle_count <= MAX_SADDLES:
            raise GenerationFailed(
                "saddle_count %d outside [0, %d]" % (self.saddle_count, MAX_SADDLES))
        for name in ("parallel_edge_bias", "inessential_bias"):
            p = getattr(self, name)
            if isinstance(p, bool) or not (isinstance(p, (int, float))
                                           and 0.0 <= p <= 1.0):
                raise GenerationFailed("%s %r outside [0, 1]" % (name, p))


def _distinct_levels(rng: random.Random, count: int) -> list[float]:
    levels: set[float] = set()
    while len(levels) < count:
        levels.add(rng.uniform(0.02, 0.98))
    return sorted(levels)


def _pattern_weights(n_ess: int, n_ine: int, ines_bias: float) -> dict[str, float]:
    grow_i = 0.2 + 0.8 * ines_bias
    grow_e = 0.2 + 0.8 * (1.0 - ines_bias)
    w = {"E>EE": 1.0}
    if n_ine >= 1:
        w["I>EE"] = grow_e
        w["I>II"] = 0.5 * grow_i
        w["EI>E"] = 0.6
    w["E>EI"] = grow_i
    if n_ess >= 2:
        w["EE>E"] = 1.0
    if n_ess >= 3:
        # consuming two essential strands must leave one alive
        w["EE>I"] = 0.7 * grow_i
    if n_ine >= 2:
        w["II>I"] = 0.3 * grow_i
    return w


def random_reeb(params: GenParams) -> ReebGraph:
    """Deterministic-in-seed generator of graphs that pass validation."""
    rng = random.Random(params.seed)
    lo, hi = 0.0, 1.0

    births = sum(rng.random() < params.inessential_bias
                 for _ in range(params.saddle_count // 2))
    deaths = sum(rng.random() < params.inessential_bias
                 for _ in range(params.saddle_count // 3))
    kinds = (["saddle"] * params.saddle_count + ["birth"] * births
             + ["death"] * deaths)
    rng.shuffle(kinds)
    levels = _distinct_levels(rng, len(kinds))

    vertices: list[ReebVertex] = []
    edges: list[ReebEdge] = []
    strands: list[tuple[str, str]] = []   # (label, lower vertex) per strand

    def new_vertex(level: float, kind: VertexKind) -> str:
        vid = "v%d" % len(vertices)
        vertices.append(ReebVertex(vid, level, kind))
        return vid

    # A strand is its number, which names its edge.  pools holds the live
    # strands of each label; twins the live pairs opened together with
    # one label, a pair at positions 2i and 2i + 1 until either closes.
    # Strands open in number order, so both stay sorted for bisection.
    pools: dict[str, list[int]] = {"E": [], "I": []}
    twins: dict[str, list[int]] = {"E": [], "I": []}

    def open_strand(label: str, lower: str) -> int:
        s = len(strands)
        strands.append((label, lower))
        pools[label].append(s)
        return s

    def close_strand(s: int, upper: str) -> None:
        label, lower = strands[s]
        edges.append(ReebEdge("e%d" % s, lower, upper, _LABELS[label]))
        pool = pools[label]
        del pool[bisect_left(pool, s)]
        pair = twins[label]
        k = bisect_left(pair, s)
        if k < len(pair) and pair[k] == s:
            del pair[k & -2:(k | 1) + 1]

    open_strand("E", new_vertex(lo, _MINUS))

    def pick(label: str) -> int:
        pool = pools[label]
        return pool[rng.randrange(len(pool))]

    def pick_pair(la: str, lb: str) -> tuple[int, int]:
        if la == lb:
            pair = twins[la]
            if pair and rng.random() < params.parallel_edge_bias:
                k = rng.randrange(len(pair))
                return pair[k], pair[k ^ 1]
            a, b = rng.sample(pools[la], 2)
            return a, b
        return pick(la), pick(lb)

    for level, kind in zip(levels, kinds):
        n_ine = len(pools["I"])
        if kind == "death" and n_ine == 0:
            kind = "birth"
        if kind == "birth":
            open_strand("I", new_vertex(level, _CENTER))
            continue
        if kind == "death":
            s = pick("I")
            close_strand(s, new_vertex(level, _CENTER))
            continue
        n_ess = len(pools["E"])
        weights = _pattern_weights(n_ess, n_ine, params.inessential_bias)
        names = sorted(weights)
        name = rng.choices(names, weights=[weights[n] for n in names])[0]
        consumed_labels, produced_labels = _PATTERNS[name]
        vid = new_vertex(level, _SADDLE)
        if len(consumed_labels) == 1:
            consumed = [pick(consumed_labels[0])]
        else:
            consumed = list(pick_pair(*consumed_labels))
        for s in consumed:
            close_strand(s, vid)
        produced = [open_strand(lb, vid) for lb in produced_labels]
        if len(produced) == 2 and produced_labels[0] == produced_labels[1]:
            twins[produced_labels[0]] += produced

    for s in sorted(pools["E"] + pools["I"]):
        close_strand(s, new_vertex(hi, _PLUS))

    meta = {
        "generator": {
            "seed": params.seed,
            "saddle_count": params.saddle_count,
            "parallel_edge_bias": params.parallel_edge_bias,
            "inessential_bias": params.inessential_bias,
        }
    }
    return ReebGraph(vertices, edges, lo, hi, meta=meta)
