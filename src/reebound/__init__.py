"""Labeled Reeb graphs of level sweeps on surfaces, the integer
assignment that bounds curve-complex distance, and a mesh front-end."""

from .assign import (
    DistanceBoundReport,
    PartialAssignment,
    TraceEntry,
    assign_all,
    assignment_to_dict,
    check_invariants,
    distance_bound,
)
from .gen import GenParams, random_reeb
from .graph import (
    EdgeLabel,
    ReebEdge,
    ReebGraph,
    ReebVertex,
    ValidationReport,
    VertexKind,
    Violation,
    essential_subgraph,
    graph_dumps,
    graph_from_dict,
    graph_loads,
    graph_to_dict,
    restrict,
    validate,
)
from .mesh import (
    LevelCycle,
    ScalarField,
    TriangulatedSurface,
    build_reeb,
    label_reeb,
)

__version__ = "0.1.0"

__all__ = [
    "DistanceBoundReport", "EdgeLabel", "GenParams", "LevelCycle",
    "PartialAssignment", "ReebEdge", "ReebGraph", "ReebVertex",
    "ScalarField", "TraceEntry", "TriangulatedSurface",
    "ValidationReport", "VertexKind", "Violation", "assign_all",
    "assignment_to_dict", "build_reeb", "check_invariants",
    "distance_bound", "essential_subgraph", "graph_dumps",
    "graph_from_dict", "graph_loads", "graph_to_dict", "label_reeb",
    "random_reeb", "restrict", "validate",
]
