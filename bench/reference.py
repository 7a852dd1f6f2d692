"""Reference kernel: a fixed amount of generic work, timed between operations.

A shared machine changes speed by up to about 1.6x for seconds at a time
(each core on its own, with CPU time equal to wall time), so a run's raw
operation times depend on when it ran more than on the code. The closed loop
therefore times this kernel before the first operation and after every
operation, on the same core, and reports operation times in multiples of it
(unit ``ref``). The slow and fast spells then cancel in the ratio.

The kernel mixes the kinds of work the workloads do: interpreted Python
loops, many small numpy calls, and dense products and solves on matrices
from 160 to 400 wide (the larger ones leave the per-core cache, as the
n = 200 and certificate workloads do, and a slow spell hits them harder
than the loops). It calls nothing from the package, so no change to the
package can move it.
"""

from __future__ import annotations

import time

import numpy as np

_SMALL_M = np.eye(5) * 0.5
_SMALL_V = np.arange(5.0)
_RNG = np.random.default_rng(0)
_DENSE = _RNG.standard_normal((160, 160))
_SOLVE_A = _RNG.standard_normal((300, 300)) + 300.0 * np.eye(300)
_SOLVE_B = _RNG.standard_normal(300)
_WIDE = _RNG.standard_normal((400, 400))


def _python_loop() -> int:
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return s


def _small_numpy() -> np.ndarray:
    x = _SMALL_V
    for _ in range(2_000):
        x = np.clip(_SMALL_M @ x + 0.1 * x, -5.0, 5.0)
    return x


def _dense_linear_algebra() -> None:
    for _ in range(20):
        _DENSE @ _DENSE
    for _ in range(6):
        np.linalg.solve(_SOLVE_A, _SOLVE_B)
    for _ in range(2):
        _WIDE @ _WIDE


def reference_s() -> float:
    """Seconds one pass of the reference kernel takes now (30-40 ms)."""
    start = time.perf_counter()
    _python_loop()
    _small_numpy()
    _dense_linear_algebra()
    return time.perf_counter() - start
