"""Host speed reference.

The benchmark host is a shared VM whose speed drifts by up to 2x over
seconds to tens of seconds, and neither CPU frequency nor neighbours can
be controlled. A fixed reference kernel, timed between passes, measures
that drift; timings are reported scaled to the kernel's nominal time, i.e.
as if the host ran at the speed at which the kernel takes NOMINAL_S. The
kernel mixes interpreter work and small numpy calls, like the workloads,
and never changes, so only changes to the program move scaled timings.
"""

from __future__ import annotations

import time

import numpy as np

# Best-of-REPEATS time of kernel() on the host that defined the benchmark
# (2-core x86 VM, Python 3.11, numpy 2.4) in its fast state.
NOMINAL_S = 0.43e-3
REPEATS = 3

_VECTOR = np.linspace(0.0, 1.0, 64)


def kernel() -> float:
    acc = 0.0
    for i in range(480):
        acc += float(np.dot(_VECTOR, _VECTOR)) + sum(range(i % 40))
    return acc


def factor(reference: float) -> float:
    """Scale that turns a time measured next to this reference timing into
    a time at nominal host speed."""
    return NOMINAL_S / reference


def reference_s() -> float:
    """Best of REPEATS timings of the kernel, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best
