"""Reference-speed scaling of measured times.

Shared hosts change how fast they run pure-Python code by 20 % and more,
over spans from milliseconds to minutes, so raw times of identical work
spread too widely between runs to show a regression.  The benchmark
therefore times a fixed probe, a product of two Fraction polynomials that
does not touch coxmap, between consecutive operations, and scales each
operation's time by NOMINAL_S over the median of the nearby probe times:
times are reported as they would read on a host where the probe takes
NOMINAL_S.  Raw times are reported next to them.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.0035  # the probe's median time on the reference host

# 19-digit numerators over 10-digit denominators: the probe spends its time
# in the interpreter and in big-integer gcds, as coxmap's exact arithmetic
# does, which tracks the host's speed on all four workloads better than
# small coefficients do
_A = {(i, j): Fraction((i + 1) * 10 ** 18 + 7 * j, 10 ** 9 + j) for i in range(4) for j in range(6)}
_B = {(i, j): Fraction((2 * j - 5) * 10 ** 18 + i, 10 ** 9 + 2 * i + 1) for i in range(6) for j in range(4)}
WINDOW = 3  # probes on each side of an operation that set its speed


def probe() -> float:
    """Duration of one fixed sparse product, in seconds."""
    start = time.perf_counter()
    out: dict = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            out[e] = out.get(e, 0) + ca * cb
    return time.perf_counter() - start


class Speed:
    """Probe times taken between operations: ``samples[i]`` is the probe
    just before operation i and ``samples[i + 1]`` the one just after."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(probe())

    def scale(self, i: int) -> float:
        """Factor taking operation i's raw time to reference speed."""
        lo = max(0, i + 1 - WINDOW)
        return NOMINAL_S / statistics.median(self.samples[lo:i + 1 + WINDOW])

    def median_ms(self) -> float:
        return statistics.median(self.samples) * 1e3
