"""Host-speed calibration: scales the benchmark's timings to a fixed host speed.

The benchmark's host shares its cores with other tenants.  The speed at
which it runs one and the same Python code drifts by up to 2x, in CPU
time as in wall time, in spells of seconds to minutes, and it moves every
workload's timings together (see NOTES.md, "Host speed").  No statistic
of a run's own timings removes a spell that covers much of the run.

So the benchmark also times a fixed kernel of its own, once before every
item of a workload.  The kernel imports nothing from febvp, so a change
to the program cannot change it: its time measures the host alone.  Set-up
times are not scaled (the kernel does not track them; see NOTES.md).
A timing taken while the kernel ran at
``t`` seconds is multiplied by ``REFERENCE_S / t``; the result is the
time at the speed at which the kernel takes ``REFERENCE_S``.  The kernel
mixes what febvp's hot paths do: 64-bit integer mixing (the law
samplers), scalar float updates with calls into ``math`` (the scalar
integrator and the closed forms), and small NumPy arrays (the states and
residuals).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# A round figure of the order of the kernel's time (0.7-0.8 ms median on
# the reference host, see NOTES.md, Baseline).  Only the ratio of two
# runs' figures matters; this constant only sets their scale.
REFERENCE_S = 1.0e-3
# An item's host speed is the median kernel time over the items within
# this many places of it in run order.
HALF_WINDOW = 8

_MASK64 = (1 << 64) - 1


def kernel() -> float:
    """A fixed mix of integer, scalar-float and small-array work."""
    state, acc = 0x243F6A8885A308D3, 0.0
    for _ in range(120):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        acc += ((z ^ (z >> 31)) >> 11) * 2.0 ** -53
    x, v, h = 1.0, 0.0, 0.01
    for _ in range(120):
        k1 = -math.sin(x)
        k2 = -math.sin(x + 0.5 * h * v)
        x, v = x + h * (v + 0.5 * h * k1), v + 0.5 * h * (k1 + k2)
        acc += math.sqrt(x * x + v * v)
    y = np.array((x, v))
    for _ in range(80):
        y = np.array((y[1], -y[0] + 0.01 * acc))
        acc += float(np.max(np.abs(y)))
    return acc


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def local_scales(kernel_s: list[float]) -> list[float]:
    """For each item in run order, REFERENCE_S over the median kernel time
    of the items within HALF_WINDOW places of it.  The median keeps one
    kernel run that an interrupt or a context switch hit from moving its
    neighbours."""
    n = len(kernel_s)
    return [REFERENCE_S / statistics.median(
        kernel_s[max(0, j - HALF_WINDOW):j + HALF_WINDOW + 1])
        for j in range(n)]
