"""A fixed reference computation that gauges how fast the host runs now.

The shared host's CPUs run faster and slower by turns (up to 1.6x), each on
its own, in stretches from a second to minutes, often longer than a run.
run.py times this reference twice after each CLI process it starts and
scales the run's mean times by NOMINAL_S / (the mean of the run's reference
times): the times it reports are seconds on a host where the reference
takes NOMINAL_S.  A change to the program moves the CLI's times and not the
reference's, so it shows; a slow stretch of the host moves both, so it
largely cancels.

The reference mixes the kinds of work the CLI does: integer matmuls (numpy's
own loops, as in the integer kernels), a float matmul through BLAS, array
allocation and copying, and interpreted Python with calls and dicts.  It
never imports `fhespec`, so a change to the program cannot change it.
"""

from __future__ import annotations

import time

import numpy as np

# About the reference's time on the 2-CPU baseline host.  Only its constancy
# matters: it fixes the unit of every reported time.
NOMINAL_S = 0.16

_RNG = np.random.default_rng(12345)
_A = _RNG.integers(-128, 128, (128, 512)).astype(np.int64)
_B = _RNG.integers(-128, 128, (512, 128)).astype(np.int64)
_F = _RNG.standard_normal((384, 384))
_BIG = _RNG.standard_normal(1 << 18)


def _python_work(n: int) -> int:
    table: dict = {}
    total = 0
    for i in range(n):
        key = i % 97
        table[key] = table.get(key, 0) + (i * i) % 7
        total += len(str(key))
    return total + sum(table.values())


def reference_s() -> float:
    """Seconds the fixed reference computation takes now."""
    t0 = time.perf_counter()
    for _ in range(6):
        _A @ _B
        _F @ _F
        np.cumsum(_BIG.copy())
    _python_work(200_000)
    return time.perf_counter() - t0
