"""Output checks that hold for any seed.

Each check parses the op's input and output text itself and returns the
counts it read off them; a wrong output raises CheckFailed.  Only the
mesh check calls into the package (``validate``), and only outside the
timed region.
"""
from __future__ import annotations

import json
from collections import Counter


class CheckFailed(Exception):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class GraphFacts:
    """What the checks need from one input graph, parsed with plain json."""

    def __init__(self, text: str):
        data = json.loads(text)
        kinds = {v["id"]: v["kind"] for v in data["vertices"]}
        self.n_vertices = len(kinds)
        self.n_edges = len(data["edges"])
        self.n_bytes = len(text.encode())
        self.essential = {e["id"]: (e["lower"], e["upper"])
                          for e in data["edges"] if e["label"] == "essential"}
        self.incident: dict[str, list[str]] = {}
        for eid, ends in self.essential.items():
            for vid in ends:
                self.incident.setdefault(vid, []).append(eid)
        self.lower_boundary = sorted(
            eid for eid, (lo, _) in self.essential.items()
            if kinds[lo] == "boundary-minus")
        self.upper_boundary = sorted(
            eid for eid, (_, up) in self.essential.items()
            if kinds[up] == "boundary-plus")
        self.valency2 = sum(1 for eids in self.incident.values() if len(eids) == 2)
        self.saddles = sum(1 for k in kinds.values() if k == "saddle")


def check_assignment(facts: GraphFacts, out: str, traced: bool) -> None:
    """The `reebound assign` payload for the graph is consistent."""
    data = json.loads(out)
    values = data["edges"]
    _require(set(values) == set(facts.essential),
             "assigned edges differ from the essential edges")
    _require(all(type(n) is int and n >= 1 for n in values.values()),
             "an edge carries a value that is not a positive integer")
    if traced:
        writes = Counter(eid for entry in data["trace"] for eid in entry["edges"])
        _require(set(writes) == set(facts.essential)
                 and all(n == 1 for n in writes.values()),
                 "the trace does not write each essential edge exactly once")
        _require(all(values[eid] == entry["integer"]
                     for entry in data["trace"] for eid in entry["edges"]),
                 "the trace disagrees with the assignment")
    _require(all(values[eid] == 1 for eid in facts.lower_boundary),
             "a lower-boundary edge does not carry 1")
    for vid, eids in facts.incident.items():
        vals = [values[eid] for eid in eids]
        _require(max(vals) - min(vals) <= 1,
                 "edges at %s differ by more than 1" % vid)
    n_min = min(values[eid] for eid in facts.upper_boundary)
    _require(data["n_min"] == n_min and data["bound"] == n_min + 1,
             "bound is not min(upper-boundary edges) + 1")


def surface_euler(off_text: str) -> tuple[int, int]:
    """(triangle count, Euler characteristic) of an OFF triangle mesh."""
    tokens = off_text.split()
    nv, nf = int(tokens[1]), int(tokens[2])
    faces = tokens[4 + 3 * nv:]
    edges = set()
    for k in range(nf):
        a, b, c = (int(x) for x in faces[4 * k + 1:4 * k + 4])
        edges.update({frozenset((a, b)), frozenset((b, c)), frozenset((c, a))})
    return nf, nv - len(edges) + nf


def check_reeb(lib, chi: int, out: str) -> dict:
    """The labeled graph `reebound from-mesh` prints matches the surface's
    topology; returns its edge, essential-edge and genus counts."""
    data = json.loads(out)
    kinds = Counter(v["kind"] for v in data["vertices"])
    n_v, n_e = len(data["vertices"]), len(data["edges"])
    genus = (2 - chi) // 2
    _require(n_e - n_v + 1 == genus,
             "Reeb cycle rank %d differs from the genus %d" % (n_e - n_v + 1, genus))
    _require(kinds["center"] - kinds["saddle"] == chi,
             "#min + #max - #saddle is %d, not chi = %d"
             % (kinds["center"] - kinds["saddle"], chi))
    report = lib.graph.validate(lib.graph.graph_loads(out), check_coverage=False)
    _require(report.ok, "the graph fails validation: %s" % sorted(report.rules()))
    return {"reeb_edges": n_e, "genus": genus,
            "essential_edges": sum(1 for e in data["edges"]
                                   if e["label"] == "essential")}
