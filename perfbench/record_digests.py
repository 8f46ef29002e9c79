#!/usr/bin/env python3
"""Record the output digests of every workload on the default seed.

    python3 perfbench/record_digests.py

Run it only on a commit whose outputs are known to be right: it writes
perfbench/digests.json, which run.py then requires on the default seed.
Every output must first pass the checks that hold for any seed.
"""
from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    recorded = {}
    for name, workload in workloads.WORKLOADS.items():
        lib = run.import_package()
        inputs = workload.make_inputs(lib, workloads.DEFAULT_SEED)
        outs = [workload.op(lib, inp) for inp in inputs]
        failures, _ = run.check_pass(workload, lib, workload.facts(inputs),
                                     outs, None)
        if failures:
            print("%s: op %d fails its check: %s" % ((name,) + failures[0]),
                  file=sys.stderr)
            return 1
        recorded[name] = [run.digest(out) for out in outs]
        print("%s: %d outputs" % (name, len(outs)))
    run.DIGESTS.write_text(json.dumps(recorded, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
