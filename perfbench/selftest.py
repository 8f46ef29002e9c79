#!/usr/bin/env python3
"""Self-test of the benchmark's checks, run from the root of a checkout:

    python3 perfbench/selftest.py

Shows that a wrong output, an op that raises and a mesh the package
rejects are each counted as one failed op; that a non-default seed passes
every check that holds for any seed on every workload; and that the
traced spans of every workload add up.  Exits 1 if any of that is false.
"""
from __future__ import annotations

import json
import random
import sys

import meshes
import run
import spans
import workloads

OTHER_SEED = 7


class Mutated:
    """A workload whose op `bad` returns `mutate(output)` instead."""

    def __init__(self, base, bad, mutate):
        self.base = base
        self.bad = bad
        self.mutate = mutate
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.base, name)

    def op(self, lib, inp):
        out = self.base.op(lib, inp)
        self.calls += 1
        return self.mutate(out) if self.calls - 1 == self.bad else out


def bump_one_integer(edge_of):
    """Output mutator: add 1 to the integer of the edge `edge_of(data)`."""
    def mutate(out):
        data = json.loads(out)
        data["edges"][edge_of(data)] += 1
        return json.dumps(data, separators=(",", ":")) + "\n"
    return mutate


def one_pass(workload, lib, inputs, digests, tracer=None):
    passes, _ = run.run_passes(workload, lib, inputs, workload.facts(inputs),
                               0.0, tracer, digests)
    return passes


def failed_ops(passes):
    return [(k, why) for p in passes for k, why in p["failures"]]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    lib = run.import_package()
    results = []

    def report(ok, what):
        results.append(ok)
        print("%s %s" % ("PASS" if ok else "FAIL", what))

    batch = workloads.WORKLOADS["graph-batch"]
    inputs = batch.make_inputs(lib, workloads.DEFAULT_SEED)[:60]
    digests = run.load_digests(batch, workloads.DEFAULT_SEED)
    bad = 41
    interior = Mutated(batch, bad, bump_one_integer(lambda d: sorted(d["edges"])[-1]))
    got = failed_ops(one_pass(interior, lib, inputs, digests))
    report([k for k, _ in got] == [bad],
           "one changed integer fails the digest check on the default seed: %s" % got)

    facts = batch.facts(inputs)
    lower = Mutated(batch, bad, bump_one_integer(
        lambda d: facts[bad].lower_boundary[0]))
    got = failed_ops(one_pass(lower, lib, inputs, None))
    report([k for k, _ in got] == [bad],
           "a changed lower-boundary integer fails the any-seed checks: %s" % got)

    class Raises(Mutated):
        def op(self, lib, inp):
            self.calls += 1
            if self.calls - 1 == self.bad:
                raise ZeroDivisionError("injected")
            return self.base.op(lib, inp)
    got = failed_ops(one_pass(Raises(batch, 3, None), lib, inputs, None))
    report([k for k, _ in got] == [3] and "ZeroDivisionError" in got[0][1],
           "an op that raises is a failed op with its error class: %s" % got)

    mesh_w = workloads.WORKLOADS["mesh-pipeline"]
    noisy = []
    for seed in range(20):
        rng = random.Random(seed)
        m = meshes.smooth_torus(24, 12, 2, rng)
        m.values = [rng.random() for _ in m.values]
        noisy.append((m.off_text(), m.field_text()))
    got = failed_ops(one_pass(mesh_w, lib, noisy, None))
    report(any("DegenerateField" in why for _, why in got)
           and all("DegenerateField" in why for _, why in got),
           "white-noise fields: %d of %d rejected, each a failed op named "
           "DegenerateField" % (len(got), len(noisy)))

    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.make_inputs(lib, OTHER_SEED)
        tracer = spans.Tracer()
        passes, _ = run.run_passes(workload, lib, inputs, workload.facts(inputs),
                                   1e-9, tracer, None)
        traced = [p for p in passes if p["traced"]]
        got = failed_ops(passes)
        report(not got, "%s passes every check on seed %d: %d failed"
               % (name, OTHER_SEED, len(got)))
        errors = [e for p in traced for e in p["span_errors"]]
        report(len(traced) == 1 and not errors,
               "%s: traced self times add up to the op total %s"
               % (name, errors[:3]))

    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
