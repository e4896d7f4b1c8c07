"""The host's current speed, read by short fixed kernels between samples.

On a shared host the same work can take up to twice as long from one
second to the next, because other tenants load the cores a VM's vCPUs run
on. A `Gauge` reading times three fixed kernels that use the processor the
way the package does: a Python loop of small numpy calls over many small
arrays (the per-order path and the simplex's pivots), a sparse LU
factorization and solves, and a pass over a large array (the batched
samplers). The kernels are the benchmark's own code, so a change to the
package cannot make them faster or slower.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

KERNELS = ("py", "lu", "bw")
# seconds each kernel takes on the reference machine in its fast spells
# (see perfbench/README.md); they set the scale of every scaled time
REF_S = np.array([0.55e-3, 0.72e-3, 0.6e-3])


def slowdown(reading: np.ndarray, which: str) -> float:
    """How many times slower than the reference the host ran: ``which`` is
    "py" for the Python kernel alone, "all" for the three together."""
    if which == "py":
        return float(reading[0] / REF_S[0])
    return float(reading.sum() / REF_S.sum())


class Gauge:
    def __init__(self):
        rng = np.random.default_rng(0)
        # distinct small arrays, as the per-order path walks many plan rows
        self._rows = [rng.random(12) for _ in range(120)]
        self._m = (sparse.random(150, 150, density=0.02, random_state=1) + 4.0 * sparse.eye(150)).tocsc()
        self._b = rng.random(150)
        self._big = rng.random(500_000)
        self._out = np.empty_like(self._big)
        self.read()  # first call loads the code paths

    def _py(self) -> None:
        s = 0.0
        for row in self._rows:
            a = np.cumsum(row)
            s += float(a[int(np.searchsorted(a, 0.5 * a[-1]))])

    def _lu(self) -> None:
        lu = splu(self._m)
        for _ in range(10):
            lu.solve(self._b)

    def _bw(self) -> None:
        np.multiply(self._big, 1.0001, out=self._out)
        self._out.sum()

    def timed(self, fn, *args):
        """``fn(*args)`` between two readings: (result, seconds, mean reading)."""
        before = self.read()
        t0 = time.perf_counter()
        out = fn(*args)
        seconds = time.perf_counter() - t0
        return out, seconds, (before + self.read()) / 2

    def read(self) -> np.ndarray:
        """Seconds each kernel took just now, in the order of KERNELS."""
        out = np.empty(len(KERNELS))
        clock = time.perf_counter
        for k, fn in enumerate((self._py, self._lu, self._bw)):
            t0 = clock()
            fn()
            out[k] = clock() - t0
        return out
