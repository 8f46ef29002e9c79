"""Exception types shared across the package.

Graph-structure problems raise MalformedGraph (the input does not even
resolve into a graph) or InvalidGraph (it resolves but violates a
validation rule).  The assignment sweep and the mesh front-end each have
their own small families below.

Each type declares the command-line exit code it maps to as its
``exit_code`` class attribute, here and nowhere else: 2 (algorithm error
or out-of-range parameter) unless overridden with 1 (validation failure:
graph rules, mesh structure, unusable field) or 3 (I/O or parse error).
"""


class ReeboundError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class MalformedGraph(ReeboundError):
    """Vertices or edges that are not iterable, a vertex or an edge that is
    not a ``ReebVertex`` or a ``ReebEdge``, an id that is not a ``str`` or
    repeats, an edge end that names no vertex, a level, lo or hi that is not
    a finite float or a non-bool int that a float holds exactly, a kind or a
    label that is not a member: the payload is not a graph at all.  The first
    bad field of the first bad record in walk order is named (see ReebGraph)."""

    exit_code = 3


class _ReportError(ReeboundError):
    """An error carrying a report in ``self.report``; the message names
    the sorted ids of the rules it violates after ``prefix``."""

    def __init__(self, report):
        self.report = report
        rules = sorted({v.rule for v in report.violations})
        super().__init__("%s: %s" % (self.prefix, ", ".join(rules)))


class InvalidGraph(_ReportError):
    """A structurally well-formed graph failed validation.

    Carries the full report in ``self.report``.
    """

    exit_code = 1
    prefix = "graph failed validation"


class NonGenericCut(ReeboundError):
    """A restriction window boundary passes exactly through an interior
    vertex; nudge the window."""


class EmptyWindow(ReeboundError):
    """No edge of the graph meets the open restriction window."""


class BadWindow(ReeboundError, ValueError):
    """A restriction window end is not a finite float or an int, not a
    bool, that a float holds exactly."""


# -- integer-assignment sweep ------------------------------------------------

class NoLowerBoundary(ReeboundError):
    """The essential subgraph has no lower-boundary vertex to seed from."""


class NoUpperBoundary(ReeboundError):
    """The essential subgraph has no upper-boundary vertex, so no distance
    bound can be read off."""


class ConflictingPropagation(ReeboundError):
    """Copying across a valency-two vertex would contradict an integer that
    is already in place.  assign_all checks each saturation for it, though
    a full run, writing each round's one integer onto unassigned edges
    only, cannot produce it."""


class NonConsecutiveFrontier(ReeboundError):
    """The integers on the frontier are neither all equal nor two
    consecutive values; valid inputs never produce this."""


class NothingToAssign(ReeboundError):
    """The sweep has no step-2 target: no interior vertex meets an
    unassigned edge, so each joins two upper-boundary vertices."""


class BrokenUniqueness(ReeboundError):
    """An unassigned edge starts strictly left of the sweep target, at an
    upper-boundary vertex, as the sweep has passed every interior vertex
    below the target; valid inputs cannot produce this."""


class IncompleteAssignment(ReeboundError):
    """A complete assignment was required but some edge has no integer."""


class InvariantViolation(_ReportError):
    """A mid-run consistency check failed; ``self.report`` holds details."""

    prefix = "assignment invariants violated"


# -- mesh front-end ----------------------------------------------------------

class MalformedMesh(ReeboundError, ValueError):
    """A triangle is degenerate, names a missing vertex or is not three
    vertex indices, the triangles or the scalar field's values are not
    iterable, the vertex count is not an int, or the scalar field's length
    differs from the mesh's vertex count."""

    exit_code = 1


class NotAManifold(ReeboundError):
    """The triangle set is not a closed connected 2-manifold."""

    exit_code = 1


class NotOrientable(ReeboundError):
    """The triangles admit no consistent orientation."""

    exit_code = 1


class DegenerateField(ReeboundError):
    """The scalar field is unusable: a value that is not a finite number
    or one of the largest finite magnitude, a monkey saddle (subdivide the
    mesh around it), or coinciding critical values."""

    exit_code = 1


class ContourSweepFailed(ReeboundError):
    """The mesh sweep lost track of its level-set contours (a contour torn
    at a regular vertex, a split that did not split, a contour left open
    at the end, an edge without a witness segment).  This is a bug in the
    sweep, not a property of the input; the mesh and field reproduce it.
    """

    exit_code = 2


class BadWitnessFraction(ReeboundError, ValueError):
    """The witness fraction is not a number strictly inside (0, 1)."""


class OpenCycle(ReeboundError):
    """A level cycle does not close up."""


class BadWitness(ReeboundError, ValueError):
    """A witness cycle is built with a level outside the level rule or a
    crossing that is not ``(int, (a, b), (x, y))`` of ints rising from 0,
    or it enters and leaves a triangle by one edge, names a missing or
    uncrossed edge, or a triangle lacking its edges or met twice."""


class MissingWitness(ReeboundError):
    """An edge has no witness cycle to classify."""


class ReebTopologyMismatch(ReeboundError):
    """The Reeb graph to label is disconnected, or its cycle rank differs
    from the genus of the surface it was built on."""


class GenerationFailed(ReeboundError):
    """Random graph generation was asked for parameters outside the
    supported range, or could not satisfy its constraints."""


class ParseError(ReeboundError):
    """A command line, mesh, field, or JSON payload could not be parsed, or
    a witness payload's arrays make no cycle that ``LevelCycle`` accepts."""

    exit_code = 3
