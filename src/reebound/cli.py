"""Command-line front door.

Subcommands: validate, assign, bound, from-mesh, gen, render.  Graphs
travel as the JSON wire format on files or stdin ("-"); outputs go to
stdout or --output.  Exit codes: 0 success, 1 validation failure,
2 algorithm error, 3 I/O, parse or usage error; each error type declares
its own as ``exit_code`` in :mod:`reebound.errors`.  Errors, usage errors
too, print one JSON object on stderr with "error" and "message".
"""
from __future__ import annotations

import argparse
import json
import re
import sys

from . import assign as assign_mod
from . import gen as gen_mod
from . import render as render_mod
from .errors import InvalidGraph, ParseError, ReeboundError
from .graph import (
    ReebGraph,
    essential_subgraph,
    graph_dumps,
    graph_loads,
    restrict,
    validate,
)
from .mesh import ScalarField, TriangulatedSurface, build_reeb, label_reeb


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, output: str | None) -> None:
    if output and output != "-":
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _windowed(g: ReebGraph, window) -> ReebGraph:
    if window is None:
        return g
    return restrict(g, window[0], window[1])


def _graph(args) -> ReebGraph:
    """The graph argument, read and restricted to --window."""
    return _windowed(graph_loads(_read_text(args.graph)), args.window)


def _dumps(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":")) + "\n"


def _prepare(args) -> tuple:
    """Load, window, validate and reduce a graph, then assign and bound."""
    g = _graph(args)
    report = validate(g, allow_regular=args.allow_regular)
    if not report.ok:
        raise InvalidGraph(report)
    sub = essential_subgraph(g, prevalidated=True)
    p = assign_mod.assign_all(sub, check=args.check_invariants)
    return p, assign_mod.distance_bound(sub, p)


def _cmd_validate(args) -> int:
    g = _graph(args)
    report = validate(g, allow_regular=args.allow_regular,
                      check_coverage=not args.no_coverage)
    _emit(_dumps(report.to_dict()), args.output)
    return 0 if report.ok else InvalidGraph.exit_code


def _cmd_assign(args) -> int:
    p, bound = _prepare(args)
    payload = assign_mod.assignment_to_dict(p, bound, include_trace=args.trace)
    _emit(_dumps(payload), args.output)
    return 0


def _cmd_bound(args) -> int:
    _, bound = _prepare(args)
    _emit(_dumps(bound.to_dict()), args.output)
    return 0


def _cmd_from_mesh(args) -> int:
    surface = TriangulatedSurface.from_off_text(_read_text(args.mesh))
    field = ScalarField.from_text(_read_text(args.field))
    g = build_reeb(surface, field, witness_fraction=args.witness_fraction)
    g = label_reeb(surface, field, g)
    g = _windowed(g, args.window)
    _emit(graph_dumps(g) + "\n", args.output)
    return 0


def _cmd_gen(args) -> int:
    params = gen_mod.GenParams(seed=args.seed, saddle_count=args.saddles,
                               parallel_edge_bias=args.parallel_bias,
                               inessential_bias=args.inessential_bias)
    g = gen_mod.random_reeb(params)
    _emit(graph_dumps(g) + "\n", args.output)
    return 0


def _cmd_render(args) -> int:
    g = _graph(args)
    assignment = None
    if args.assignment:
        text = _read_text(args.assignment)
        try:   # the decoder raises RecursionError on too deep a nesting
            assignment = json.loads(text)["edges"]
            bad = [(k, type(v).__name__) for k, v in assignment.items()
                   if type(v) is not int]
        except (AttributeError, KeyError, RecursionError, TypeError,
                ValueError) as exc:
            raise ParseError("bad assignment payload: %s" % exc) from None
        if bad:    # only JSON ints: no float, string or bool is coerced
            raise ParseError("bad assignment payload: edge %r carries a %s, "
                             "not an int" % bad[0])
    if args.svg:
        _emit(render_mod.to_svg(g, assignment), args.svg)
    if args.dot or args.output or not args.svg:
        _emit(render_mod.to_dot(g, assignment), args.dot or args.output)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError; -1e-3, -.5 or -inf reads as a value."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.I)

    def error(self, message):
        raise ParseError("%s: %s" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="reebound",
        description="Labeled Reeb graphs, integer assignment, and "
                    "curve-complex distance bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, graph=True):
        if graph:
            p.add_argument("graph", help="graph JSON file, or - for stdin")
        p.add_argument("--window", nargs=2, type=float, metavar=("LO", "HI"),
                       help="restrict to the level window before running")
        p.add_argument("--output", "-o", help="write here instead of stdout")

    p = sub.add_parser("validate", help="check every structural rule")
    add_common(p)
    p.add_argument("--allow-regular", action="store_true",
                   help="tolerate valency-2 subdivision vertices")
    p.add_argument("--no-coverage", action="store_true",
                   help="skip the level-coverage rule")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("assign", help="run the integer sweep")
    add_common(p)
    p.add_argument("--allow-regular", action="store_true")
    p.add_argument("--check-invariants", action="store_true",
                   help="re-verify consistency after every round")
    p.add_argument("--trace", action="store_true",
                   help="include the per-round trace in the output")
    p.set_defaults(func=_cmd_assign)

    p = sub.add_parser("bound", help="emit the distance-bound report")
    add_common(p)
    p.add_argument("--allow-regular", action="store_true")
    p.add_argument("--check-invariants", action="store_true")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("from-mesh",
                       help="labeled graph from an OFF mesh and a scalar file")
    p.add_argument("mesh", help="OFF file, or - for stdin")
    p.add_argument("field", help="one scalar per vertex, or - for stdin")
    add_common(p, graph=False)
    p.add_argument("--witness-fraction", type=float, default=0.5)
    p.set_defaults(func=_cmd_from_mesh)

    p = sub.add_parser("gen", help="emit a random valid graph")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--saddles", type=int, required=True)
    p.add_argument("--parallel-bias", type=float, default=0.25)
    p.add_argument("--inessential-bias", type=float, default=0.35)
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("render", help="emit DOT (and optionally SVG)")
    add_common(p)
    p.add_argument("--assignment", help="assignment JSON to annotate with")
    p.add_argument("--dot", help="write DOT here")
    p.add_argument("--svg", help="write SVG here")
    p.set_defaults(func=_cmd_render)

    return parser


def _fail(exc: Exception, code: int) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    report = getattr(exc, "report", None)
    if report is not None:
        payload["violations"] = report.to_dict()["violations"]
    sys.stderr.write(json.dumps(payload) + "\n")
    return code


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ReeboundError as exc:
        return _fail(exc, exc.exit_code)
    except (OSError, UnicodeError) as exc:    # reading or writing a file
        return _fail(exc, ParseError.exit_code)


if __name__ == "__main__":
    sys.exit(main())
