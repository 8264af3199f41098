"""The host's current speed, from a fixed reference kernel.

On a shared host the same code runs at different speeds from minute to
minute: on a 2-CPU Xeon, a fixed numpy-and-Python kernel timed in
34-second windows over five minutes spread by 0.2 (interquartile range
over median), and a willmorelab op by as much.  The ratio of the op's
time to the kernel's, measured just around it, spread by 0.04.  So the
benchmark times this kernel between ops and reports times at the speed
where the kernel takes REF_S seconds:

    adjusted = measured * REF_S / kernel time around the measurement

The kernel uses numpy and Python only, never willmorelab, so a change to
the program moves the adjusted times by the same factor as the raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the kernel's median time on the host the benchmark was tuned on
# (Intel Xeon, 2 CPUs, one BLAS thread).
REF_S = 0.09


class Kernel:
    """Mixes what the workloads do: small batched matmuls, stencil-like
    shifts, reductions, an SVD batch, and a Python loop."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((128, 128, 6, 6))
        self.b = rng.standard_normal((128, 128, 6))

    def seconds(self) -> float:
        """Wall time of one run of the kernel."""
        a, b = self.a, self.b
        t0 = time.perf_counter()
        for _ in range(3):
            x = a @ a
            np.roll(x, 1, axis=0) - np.roll(x, -1, axis=0)
            np.sum(b[..., 1:] * b[..., 1:], axis=-1) - b[..., 0] * b[..., 0]
            np.linalg.svd(a[:32], compute_uv=False)
        s = 0
        for k in range(30000):
            s += k * k
        return time.perf_counter() - t0

    def median_seconds(self, runs: int = 3) -> float:
        """Median of several runs, after one that warms the kernel up."""
        self.seconds()
        return statistics.median(self.seconds() for _ in range(runs))
