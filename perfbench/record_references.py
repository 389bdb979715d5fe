#!/usr/bin/env python3
"""Record the correctness references from the program as it is now.

    python3 perfbench/record_references.py

Every benchmark run compares its outputs with this file, so run it only
at a commit whose outputs are known to be right.  It runs each request of
each workload once for every seed in ``checks.REFERENCE_SEEDS`` and
rewrites ``perfbench/references.json``.
"""

import json
import shutil
import sys

import run  # pins the BLAS threads before numpy loads

sys.path.insert(0, str(run.ROOT / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    work = run.WORK / "record"
    seeds = checks.REFERENCE_SEEDS
    refs = {"seeds": [seeds[0], seeds[-1]]}
    for wl in workloads.WORKLOADS:
        refs[wl] = {}
        for seed in seeds:
            inputs = workloads.generate(wl, seed, work / wl)
            refs[wl][str(seed)] = []
            for req in inputs.requests:
                rc, stdout, _ = harness.execute(req.argv)
                if rc != 0:
                    print(f"error: {wl} seed {seed}: exit {rc} on {req.argv}",
                          file=sys.stderr)
                    return 1
                refs[wl][str(seed)].append(
                    checks.reference(req.kind, harness.output(req, stdout)))
            print(wl, seed, flush=True)
    with open(checks.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, separators=(",", ":"))
        fh.write("\n")
    shutil.rmtree(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
