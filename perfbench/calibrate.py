"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared machine the same CLI call can take 1.5x longer from one minute
to the next, while CPU time follows wall time, so the cores themselves run
slower rather than the process waiting. The benchmark times this kernel
just before and just after each CLI call and rescales the call's wall time
to the speed at which the kernel takes ``REFERENCE_S``. The kernel does what
the program's hot paths do (batched complex 4x4 eigensolves, matrix
products, a scalar Python loop) but shares no code with the program, so a
change to the program cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Kernel time on the machine the benchmark was written on, when unloaded.
REFERENCE_S = 2.0e-3
WINDOW_S = 0.1

_rng = np.random.default_rng(20240617)
_g = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_RHO = _g @ _g.conj().T / np.trace(_g @ _g.conj().T).real
_PHI = np.outer([2**-0.5, 0, 0, 2**-0.5], [2**-0.5, 0, 0, 2**-0.5])
_P = np.linspace(0.5, 0.999, 300)


def _kernel() -> float:
    taus = _P[:, None, None] * _PHI + (1.0 - _P)[:, None, None] * np.eye(4) / 4.0
    w, v = np.linalg.eigh(taus)
    inv_sqrt = (v / np.sqrt(w)[:, None, :]) @ np.conj(np.transpose(v, (0, 2, 1)))
    lam = np.linalg.eigvalsh(inv_sqrt @ _RHO @ inv_sqrt)[:, -1]
    total = 0.0
    for x in lam.tolist():
        total += math.ceil(x * 1000.0) + math.sqrt(x) + math.log2(x)
    return total


def kernel_seconds() -> float:
    """Median time of the reference kernel, run repeatedly for ``WINDOW_S``."""
    times = []
    end = time.perf_counter() + WINDOW_S
    while not times or time.perf_counter() < end:
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def rescale(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """Wall time rescaled to the speed at which the kernel takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / (0.5 * (kernel_before + kernel_after))
