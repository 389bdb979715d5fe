"""Correction of measured times for the speed the machine gave them.

The machine this benchmark was defined on is shared.  For tens of seconds
at a time other tenants slow every process on it, by up to a half, and the
same request measured a minute apart differs by that much.  The harness
therefore times this fixed kernel of interpreter, ``json`` and small
``numpy`` work next to each measurement, and scales the measurement by
``K_REF_S / (median kernel time there)``.  The kernel does not touch
``pgospa``, so a change to the program moves the scaled times as much as
the raw ones.  Times of fresh processes are scaled the same way by a
fresh process that imports numpy only (:func:`process_speed`).
"""

import json
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

# the kernel's median time when the defining machine (2 vCPUs of an Intel
# Xeon at 2.1 GHz, Python 3.11, numpy 2.4) was quiet, so that there scaled
# and raw times agree
K_REF_S = 0.0011
READINGS = 16  # kernel runs behind one speed reading
# a fresh interpreter that imports numpy, and its wall time on the quiet
# defining machine: the reference for times of fresh processes
PROCESS = [sys.executable, "-c", "import numpy"]
PROCESS_REF_S = 0.12

_A = np.random.default_rng(0).normal(size=(64, 4, 4))
_A = _A @ np.swapaxes(_A, 1, 2)
_DOC = json.dumps([{"r": 0.5, "mean": [1.0, 2.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}] * 40)


def kernel() -> float:
    """Seconds of one pass of the fixed kernel (about 1 ms)."""
    t0 = perf_counter()
    acc = 0
    for i in range(9000):
        acc += (i * 7) % 13
    {str(i): i for i in range(1500)}
    json.loads(_DOC)
    np.linalg.eigvalsh(_A)
    for _ in range(60):
        np.minimum(_A[0], 1.0).sum()
    return perf_counter() - t0


def speed(runs: int = READINGS) -> float:
    """Median seconds of ``runs`` kernel runs made now."""
    return statistics.median(kernel() for _ in range(runs))


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured where the kernel took ``kernel_s``, in reference seconds."""
    return seconds * K_REF_S / kernel_s


def process_speed(cwd, env) -> float:
    """Wall seconds of one :data:`PROCESS` run made now.

    A fresh process spends its time loading files and modules, which the
    machine's tenants slow differently from the in-process kernel, so
    fresh-process times are scaled by this instead."""
    t0 = perf_counter()
    subprocess.run(PROCESS, cwd=cwd, env=env, check=True, capture_output=True, timeout=60)
    return perf_counter() - t0
