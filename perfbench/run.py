#!/usr/bin/env python3
"""pgospa benchmark: drives ``pgospa.cli.main(argv)`` in-process.

    python3 perfbench/run.py --workload eval-ties --seed 1 --seconds 15 --trace 0

One process, closed loop, one request in flight at a time.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes over the workload's requests and
prints the per-layer metrics of the traced passes.  The last line of
standard output is the result object; the line before it carries the
machine, the input properties and the check details.  Inputs, results and
spans go to ``.perfbench_work/`` at the root of the checkout.

``--inject-fault`` swaps ``pgospa.selfcheck.faulty_solver`` in for
``pgospa.metric.solve_assignment`` to show that the correctness gate
fails; it exits 0 only if the gate reported failed evaluations.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# pin BLAS threads before numpy loads: steadier timings, and results that
# do not depend on a thread count
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from workloads import WORKLOADS  # noqa: E402


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="use the deliberately wrong solver (gate self-test)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "pgospa" / "cli.py").is_file():
        print(f"error: no pgospa sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import pgospa.cli  # noqa: F401  (its time is on the info line)

    import harness

    return harness.run(args, T_START, WORK)


if __name__ == "__main__":
    sys.exit(main())
