"""How fast the host runs right now: a fixed reference kernel.

On a shared host the same code runs up to 1.5x slower for minutes at a time,
and its CPU time slows with it: the other tenants take cache and core, not
only turns on the CPU.  So the benchmark times this kernel, which no change
to commexp can touch, next to every command and every set-up, and reports
each time in *reference seconds*: CPU seconds scaled by the kernel's nominal
time over its time measured alongside.  On a host running the kernel at its
nominal speed a reference second is a CPU second.

The kernel has three parts, each timed on its own: dense complex products in
BLAS, integer steps of the Python interpreter, and dict updates keyed by
short tuples, the way commexp stores a word series.  A workload is scaled by
the parts that do its kind of work (``WORKLOAD_PARTS``).  Over single batches
on a 2-vCPU Xeon virtual machine, with and without competing processes, the
scaled times spread by 4% to 7% (interquartile range over the median) where
the CPU times spread by 15% to 28%.  A part of tiny numpy products (4x4
Taylor steps) tracked every workload worse than these and is left out.
"""

from __future__ import annotations

import functools
import random
import time

PARTS = ("blas", "python", "dict")
# The parts' CPU times on a 2-vCPU Xeon virtual machine at a quiet moment.
# They only fix the unit.
PART_NOMINAL_S = {"blas": 3.5e-4, "python": 2.1e-4, "dict": 5.0e-4}
# series-catalog is pure-Python series arithmetic; the matrix workloads are
# BLAS calls driven from Python loops.  Set-up is imports and basis building.
WORKLOAD_PARTS = {
    "series-catalog": ("python", "dict"),
    "figures-small": ("blas", "python"),
    "dense-random": ("blas", "python"),
}
SETUP_PARTS = ("python", "dict")

_PY_STEPS = 3000


@functools.cache
def _inputs():
    # numpy is imported on first use, after the caller has pinned BLAS threads
    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
    words = random.Random(0)
    keys = [tuple(words.randrange(2) for _ in range(words.randrange(3, 9)))
            for _ in range(1500)]
    return matrix, keys


def reference_parts() -> dict[str, float]:
    """CPU seconds of one pass of each part of the reference kernel."""
    a, keys = _inputs()
    t0 = time.process_time()
    m = a @ a
    m @ a
    t1 = time.process_time()
    s = 0
    for i in range(_PY_STEPS):
        s += i * i % 7
    t2 = time.process_time()
    series: dict[tuple, float] = {}
    for k in keys:
        series[k] = series.get(k, 0.0) + 1.5
    prefixes: dict[tuple, float] = {}
    for k, v in series.items():
        prefixes[k[:2]] = prefixes.get(k[:2], 0.0) + 0.5 * v
    t3 = time.process_time()
    return {"blas": t1 - t0, "python": t2 - t1, "dict": t3 - t2}


def reference_s(parts) -> float:
    """CPU seconds of one pass of the kernel's ``parts`` (all parts run)."""
    times = reference_parts()
    return sum(times[p] for p in parts)


def scale(cpu_s: float, ref_s: float, parts) -> float:
    """``cpu_s`` in reference seconds, with the kernel's ``parts`` measured at ``ref_s``."""
    return cpu_s * sum(PART_NOMINAL_S[p] for p in parts) / ref_s
