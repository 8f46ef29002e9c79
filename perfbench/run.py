#!/usr/bin/env python3
"""Benchmark of reebound's two pipelines, run from the root of a checkout:

    python3 perfbench/run.py --workload graph-ladder --seed 0 --seconds 20 --trace 0

The package is imported from this checkout's ``src`` directory.  One run
sets the workload up SETUP_REPS times (fresh import, input generation,
serialization to text), then runs passes over all the workload's ops,
one op at a time in one thread, until ``--seconds`` of passes are
measured.  Every output is checked after its pass, outside the timed
region; an op that raises or prints a wrong output counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones.  A table goes to stdout, and its last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The full results,
with an environment block, go to perfbench/out/, and with ``--trace 1``
so do the spans of the first traced pass.  The exit code is 1 if any op
failed, 2 if the package cannot be imported.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import types
from collections import Counter
from pathlib import Path
from time import perf_counter

import checks
import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
SETUP_REPS = 3
MODULES = ("graph", "assign", "mesh", "gen")

# Spans whose self time is reported as "<name>_s".
SELF_TIMED = (
    "graph.graph_loads", "graph.validate",
    "graph.essential_subgraph", "graph.graph_dumps", "assign.step1_saturate",
    "assign.step2", "assign.classify_frontier", "assign.check_invariants",
    "assign.distance_bound", "assign.serialize", "mesh.load",
    "mesh.pl_criticality", "mesh.build_reeb", "mesh.label_reeb",
    "mesh.classify_essential", "mesh.cut_along", "bench.op",
)
CALLS = ("assign.step1_saturate", "assign.step2", "assign.check_invariants",
         "mesh.cut_along")
SIZES = ("gen.saddles", "graph.vertices", "graph.edges",
         "graph.essential_edges", "graph.input_bytes",
         "assign.valency2_vertices", "mesh.triangles")


def import_package():
    """Import the package afresh from this checkout's src directory."""
    for name in [m for m in sys.modules
                 if m == "reebound" or m.startswith("reebound.")]:
        del sys.modules[name]
    lib = types.SimpleNamespace(
        **{m: importlib.import_module("reebound." + m) for m in MODULES})
    where = Path(lib.graph.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError("reebound imported from %s, not %s" % (where, SRC))
    return lib


def span_targets(lib):
    """(owner, attribute, span name, keep result) for every spanned call."""
    g, a, m = lib.graph, lib.assign, lib.mesh
    out = [(lib.gen, "random_reeb", "gen.random_reeb", False)]
    out += [(g, f, "graph." + f, False)
            for f in ("graph_loads", "validate", "essential_subgraph", "graph_dumps")]
    out.append((a, "assign_all", "assign.assign_all", True))
    out += [(a, f, "assign." + f, False)
            for f in ("step1_saturate", "step2", "classify_frontier",
                      "check_invariants", "distance_bound")]
    out.append((workloads, "assignment_text", "assign.serialize", False))
    for cls, f in (("TriangulatedSurface", "from_off_text"),
                   ("ScalarField", "from_text")):
        if hasattr(m, cls):
            out.append((getattr(m, cls), f, "mesh.load", False))
    out += [(m, f, "mesh." + f, False)
            for f in ("pl_criticality", "build_reeb", "label_reeb",
                      "classify_essential", "cut_along")]
    return out


def set_up(workload, seed, tracer):
    """SETUP_REPS fresh set-ups; returns lib, inputs, and per set-up its
    scaled seconds, raw seconds and gen.random_reeb seconds."""
    times, raw, gen_times = [], [], []
    for _ in range(SETUP_REPS):
        before = speed.median_probe()
        t0 = perf_counter()
        lib = import_package()
        if tracer is not None:
            tracer.clear()
            tracer.install(span_targets(lib))
            root = tracer.root("bench.setup", "setup")
        inputs = workload.make_inputs(lib, seed)
        if tracer is not None:
            tracer.end(root)
            tracer.uninstall()
            gen_times.append(sum(s[spans.END] - s[spans.START]
                                 for s in tracer.spans
                                 if s[spans.NAME] == "gen.random_reeb") / 1e9)
        elapsed = perf_counter() - t0
        raw.append(elapsed)
        times.append(elapsed * 2 * speed.REF_S / (before + speed.median_probe()))
    return lib, inputs, times, raw, gen_times


def layer_metrics(tracer, facts):
    """Per-layer numbers of one traced pass."""
    errors = spans.nesting_errors(tracer.spans)
    own = spans.self_times(tracer.spans)
    self_ns, busy_ns, calls = Counter(), Counter(), Counter()
    op_steps = Counter()
    for s, t in zip(tracer.spans, own):
        if t < 0:
            errors.append("negative self time in %s" % s[spans.NAME])
        self_ns[s[spans.NAME]] += t
        busy_ns[s[spans.NAME]] += s[spans.END] - s[spans.START]
        calls[s[spans.NAME]] += 1
        if s[spans.NAME] == "assign.step1_saturate":
            op_steps[s[spans.OP]] += 1
    if sum(own) != busy_ns["bench.op"]:
        errors.append("self times add up to %d ns, ops to %d ns"
                      % (sum(own), busy_ns["bench.op"]))
    out = {name + "_s": self_ns[name] / 1e9 for name in SELF_TIMED}
    out["assign.assign_all_busy_s"] = busy_ns["assign.assign_all"] / 1e9
    out["assign.assign_all_self_s"] = self_ns["assign.assign_all"] / 1e9
    for name in CALLS:
        out[name + ".calls"] = calls[name]
    copies = entries = 0
    for p in tracer.results:
        trace = getattr(p, "trace", ())
        entries += len(trace)
        copies += sum(len(t.edges) for t in trace if t.step == "step1")
    out["assign.step1_copies"] = copies
    out["assign.trace_entries"] = entries
    scans = sum(n * facts[op].valency2 for op, n in op_steps.items())
    out["assign.step1_scans"] = scans
    out["assign.step1_useful_ratio"] = copies / scans if scans else 0.0
    out["trace.op_total_s"] = busy_ns["bench.op"] / 1e9
    return out, errors


def percentile(values, q):
    """Nearest-rank percentile, and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def digest(out: str) -> str:
    return hashlib.sha256(out.encode()).hexdigest()[:16]


def load_digests(workload, seed):
    """Output digests recorded for the default seed, or None for others."""
    if seed != workloads.DEFAULT_SEED:
        return None
    try:
        recorded = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        recorded = {}
    return recorded.get(workload.name, [])


def check_pass(workload, lib, facts, outs, digests):
    """[(op index, reason)] for every failed op, and the counts the checks
    read off the outputs."""
    failures, counts = [], Counter()
    for k, out in enumerate(outs):
        try:
            if isinstance(out, Exception):
                raise out
            counts.update(workload.verify(lib, facts[k], out))
            if digests is not None and digest(out) != (
                    digests[k] if k < len(digests) else None):
                raise checks.CheckFailed(
                    "output differs from the digest recorded for seed %d"
                    % workloads.DEFAULT_SEED)
        except Exception as exc:  # a failed check or a failed op
            failures.append((k, "%s: %s" % (type(exc).__name__, exc)))
    return failures, counts


def run_passes(workload, lib, inputs, facts, seconds, tracer, digests):
    """Passes until `seconds` of them are measured.  With a tracer, traced
    passes alternate with untraced ones."""
    passes = []
    measured = 0.0
    scaler = speed.Scaler()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.clear()
            tracer.install(span_targets(lib))
        outs, lat, marks = [], [], []
        for k, inp in enumerate(inputs):
            marks.append(scaler.mark())
            if traced:
                root = tracer.root("bench.op", k)
            t0 = perf_counter()
            try:
                out = workload.op(lib, inp)
            except Exception as exc:  # recorded as a failed op by check_pass
                out = exc
            dt = perf_counter() - t0
            if traced:
                tracer.end(root)
            outs.append(out)
            lat.append(dt)
        scaler.close()
        scaled = [dt * scaler.factor(j) for dt, j in zip(lat, marks)]
        record = {"run_s": sum(scaled), "raw_run_s": sum(lat), "traced": traced,
                  "latencies": scaled}
        if traced:
            tracer.uninstall()
            record["layers"], record["span_errors"] = layer_metrics(tracer, facts)
            if not any(p["traced"] for p in passes):
                record["spans"] = tracer.spans
        record["failures"], record["counts"] = check_pass(
            workload, lib, facts, outs, digests)
        passes.append(record)
        measured += record["raw_run_s"]
        if measured >= seconds and (tracer is None or len(passes) >= 2):
            return passes, scaler.times


def git_commit():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, n_passes):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "passes": n_passes,
        "setup_reps": SETUP_REPS,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def median_of(records, key):
    return statistics.median(r[key] for r in records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC))
    tracer = spans.Tracer() if args.trace else None
    try:
        lib, inputs, setup_times, setup_raw, gen_times = set_up(workload, args.seed, tracer)
    except ImportError as exc:
        print("cannot import reebound from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2
    facts = workload.facts(inputs)
    sizes = workload.sizes(facts)
    digests = load_digests(workload, args.seed)
    # The benchmark's own data stays alive for the whole run; keep the
    # collector from traversing it inside every op.
    gc.freeze()
    passes, probes = run_passes(workload, lib, inputs, facts, args.seconds,
                                tracer, digests)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    # an op's latency is its median over the passes
    latencies = [statistics.median(lat)
                 for lat in zip(*(p["latencies"] for p in plain))]
    attempted = len(inputs) * len(passes)
    failures = [(i, k, why) for i, p in enumerate(passes) for k, why in p["failures"]]
    span_errors = [e for p in traced for e in p["span_errors"]]
    p99, beyond = percentile(latencies, 0.99)
    end_to_end = {
        "run_s": (median_of(plain, "run_s"), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_p99_s": (p99, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    notes = {
        "run_s": "median of %d passes of %d ops; raw %.6f s"
                 % (len(plain), len(inputs), median_of(plain, "raw_run_s")),
        "op_p50_s": "of %d ops, each the median of its %d passes"
                    % (len(latencies), len(plain)),
        "op_p99_s": "of %d ops, %d beyond it" % (len(latencies), beyond),
        "setup_s": "median of %d set-ups; raw %.6f s"
                   % (SETUP_REPS, statistics.median(setup_raw)),
        "peak_rss_mib": "whole process",
    }
    counts = passes[-1]["counts"]
    layer = {}
    if traced:
        names = traced[0]["layers"]
        layer = {n: statistics.median(p["layers"][n] for p in traced) for n in names}
        layer["gen.random_reeb_s"] = statistics.median(gen_times)
        layer["trace.overhead_s"] = median_of(traced, "run_s") - end_to_end["run_s"][0]
        for name in SIZES:
            layer[name] = sizes.get(name, 0)
        for name in ("reeb_edges", "essential_edges", "genus"):
            layer["mesh." + name] = counts.get(name, 0)

    size_note = " ".join("%s=%d" % kv for kv in sizes.items())
    print("workload %s  seed %d  passes %d (%d traced)  inputs: %s"
          % (args.workload, args.seed, len(passes), len(traced), size_note))
    for name, (value, unit) in end_to_end.items():
        print("  %-14s %12.6f %-4s %s" % (name, value, unit, notes[name]))
    print("  %-14s %12.6f %-4s %d failed / %d attempted"
          % ("fail_ratio", len(failures) / attempted, "", len(failures), attempted))
    if traced:
        print("  per layer, median of %d traced passes (self time unless busy):"
              % len(traced))
        for name, value in sorted(layer.items()):
            print("    %-32s %14.6f" % (name, value))
        print("    step1_useful_ratio = %d copies / %d valency-two scans"
              % (layer["assign.step1_copies"], layer["assign.step1_scans"]))
    for i, k, why in failures[:5]:
        print("FAILED pass %d op %d: %s" % (i, k, why), file=sys.stderr)
    for err in span_errors[:5]:
        print("SPANS: %s" % err, file=sys.stderr)

    correct = not failures and not span_errors
    values = layer if args.trace else {n: v for n, (v, _) in end_to_end.items()}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    result = {"correct": correct, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    full = {"environment": environment(args, len(passes)), "sizes": sizes,
            "end_to_end": {n: v for n, (v, _) in end_to_end.items()},
            "fail_ratio": len(failures) / attempted,
            "per_layer": layer, "setup_s_each": setup_times,
            "raw_setup_s_each": setup_raw,
            "probe_s_median": statistics.median(probes), "probes": len(probes),
            "run_s_each": [p["run_s"] for p in passes],
            "raw_run_s_each": [p["raw_run_s"] for p in passes],
            "latencies_each": [p["latencies"] for p in passes],
            "traced_each": [p["traced"] for p in passes],
            "failures": failures[:50], "span_errors": span_errors[:50],
            "result": result}
    (OUT / (stem + ".json")).write_text(json.dumps(full, indent=1) + "\n")
    if traced:
        with open(OUT / (stem + ".spans.jsonl"), "w", encoding="utf-8") as fh:
            for s in traced[0]["spans"]:
                fh.write(json.dumps(s) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
