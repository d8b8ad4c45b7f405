"""Host-speed correction for timings taken on a shared, noisy host.

On a shared 2-vCPU VM the same forward pass was measured at 5 ms and at 10 ms
minutes apart: other tenants' load changes the core's speed over seconds to
minutes, so raw medians of separate runs spread by 25-40%. The benchmark
therefore times a small fixed kernel interleaved with its own operations and
scales each operation by `REFERENCE_S / kernel time` measured around it. The
result reads as the time the operation would take at the host speed under
which `REFERENCE_S` was measured. Raw times are printed next to it.

The kernel is plain numpy and shares no code with odegate, so a change to
odegate cannot move it. It has the shape of ten single-window graph-ODE field
evaluations (a 20 x 20 propagate, an affine map, a tanh), which keeps every
BLAS call single-threaded. Batch-sized variants were tried and dropped: their
2-thread BLAS calls changed speed with the BLAS worker's state, not with the
host's, and stopped tracking the workload.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median seconds of one `Pace.kernel` call on the reference host (2-vCPU
# x86-64 VM, Python 3.11, numpy 2.4.6, OpenBLAS 0.3.31).
REFERENCE_S = 3e-4


class Pace:
    """A fixed numpy kernel whose timing tracks the host's current speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((20, 20)) / 20
        self.h0 = rng.standard_normal((1, 20, 40))
        self.w = rng.standard_normal((40, 40)) * 0.1
        self.b = rng.standard_normal(40) * 0.1

    def kernel(self) -> np.ndarray:
        batch, n, d = self.h0.shape
        h, kept = self.h0, []
        for _ in range(10):
            flat = h.transpose(1, 0, 2).reshape(n, batch * d)
            mixed = (self.a @ flat).reshape(n, batch, d).transpose(1, 0, 2)
            y = np.tanh(mixed.reshape(-1, d) @ self.w + self.b).reshape(batch, n, d)
            kept.append((flat, mixed, y))
            h = h + 0.25 * y
        return h

    def sample(self) -> float:
        """Seconds for one kernel call."""
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    def burst(self, n: int = 10) -> float:
        """Median seconds of `n` kernel calls."""
        return statistics.median(self.sample() for _ in range(n))

    def corrected(self, raw_s: float, kernel_s: float) -> float:
        """`raw_s` scaled to the reference host speed."""
        return raw_s * REFERENCE_S / kernel_s
