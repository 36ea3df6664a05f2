"""Host-speed references for the benchmark's timings.

The benchmark runs on machines whose cores are shared with other work. On
the 2-core x86 box it was defined on, the same blocks took up to twice as
long from one minute to the next, in CPU time as well as wall time, so
run-to-run spreads of raw times (0.2-0.44 of the median) exceeded any
useful regression bound.

``HostSpeed`` times two fixed kernels that never touch the package, every
fraction of a second through a run: a numpy kernel shaped like the
estimator's inner loop (steering-matrix exponentials, small solves and
residual norms on a 32 x 40 block, one 32 x 32 ``eigh``) and a pure-Python
kernel shaped like the landscape scans (a loop of scalar math and branches).
A kernel's factor is its median time over its nominal time. A measured
time divided by the factor of the kernel its code resembles (a rate
multiplied by it) is the time at nominal host speed: drift common to the
kernel and the package cancels, while a change in the package shows in
full. Raw times are printed next to the normalised ones.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

SAMPLE_INTERVAL_S = 0.2

_ROWS = np.arange(32)[:, None]
_BLOCK = np.random.default_rng(0).standard_normal((32, 80)).view(complex)


def numpy_kernel() -> float:
    acc = 0.0
    for i in range(40):
        angles = np.array([0.1 + 1e-3 * i, -0.3])
        steer = np.exp(-2j * np.pi * 0.5 * _ROWS * np.sin(angles)[None, :])
        gains = np.linalg.solve(steer.conj().T @ steer + np.eye(2), steer.conj().T @ _BLOCK)
        resid = _BLOCK - steer @ gains
        acc += float(np.real(np.vdot(resid, resid)))
    return acc + float(np.linalg.eigh(_BLOCK @ _BLOCK.conj().T)[0][0])


def python_kernel() -> float:
    acc = 0.0
    for i in range(4000):
        x = 0.001 * i
        if x < 2.0 and (x > 0.5 or i % 3 == 0):
            acc += math.sin(x) * math.cos(x + 0.1)
    return acc


# (kernel, nominal seconds): medians on the 2-core x86 box the benchmark was
# defined on, in its fastest observed state, with BLAS pinned to one thread
KERNELS = {
    "numpy": (numpy_kernel, 1.55e-3),
    "python": (python_kernel, 0.35e-3),
}


class HostSpeed:
    """Kernel timings taken through a run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {name: [] for name in KERNELS}
        self._next = 0.0

    def sample(self) -> None:
        for name, (kernel, _) in KERNELS.items():
            t0 = time.perf_counter()
            kernel()
            self.samples[name].append(time.perf_counter() - t0)
        self._next = time.perf_counter() + SAMPLE_INTERVAL_S

    def sample_if_due(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()

    def factor(self, kernel: str) -> float:
        """Median kernel time over its nominal time; above 1 on a slow host."""
        return statistics.median(self.samples[kernel]) / KERNELS[kernel][1]
