"""Host-speed reference: express op times in units of a fixed kernel.

On a shared host the same engine work can run up to twice as slow for
tens of seconds at a time, and CPU time slows down with wall time, so
neither can tell a slower engine from a busier host.  The loop
therefore runs `kernel()` -- fixed pure-Python work that uses no
holebox code: tuples, dicts, strings and `Fraction` arithmetic, the
interpreter paths the engine spends its time in -- a few times for every
`EVERY_S` seconds of op time.  An op's time divided by the median
kernel time measured around it is its time in `ref_ms`: what the op
would take in milliseconds on a host that runs the kernel in 1 ms.  The
kernel takes 0.75-1.6 ms on a shared 2-vCPU x86-64 VM with CPython
3.11, so ref_ms are close to milliseconds there.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

EVERY_S = 0.05      # op time between two bursts of kernel runs
BURST = 2           # kernel runs per EVERY_S of op time since the last burst
MAX_BURST = 10
NEAREST = 6         # kernel runs around an op that set its scale


def kernel() -> int:
    d: dict = {}
    acc = Fraction(0)
    out = 0
    for k in range(300):
        t = (k, str(k), (k % 7, k % 11))
        d[t] = d.get(t[2], 0) + 1
        acc += Fraction(k % 13 + 1, k % 17 + 1)
        out += len(f"{k}:{acc.numerator % 97}")
    return out + len(d)


def timed_kernel() -> float:
    """Seconds one `kernel()` run takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Reference:
    """Kernel timings along one run: (time taken, duration in s)."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self._owed = EVERY_S

    def tick(self, op_seconds: float) -> None:
        """Account for one op; run a burst when enough op time passed."""
        self._owed += op_seconds
        if self._owed < EVERY_S:
            return
        runs = min(MAX_BURST, BURST * int(self._owed / EVERY_S))
        self._owed = 0.0
        for _ in range(runs):
            self.at.append(time.perf_counter())
            self.took.append(timed_kernel())

    def ref_ms(self, t: float, seconds: float) -> float:
        """`seconds` measured at time t, in ref_ms."""
        i = bisect.bisect_left(self.at, t)
        lo = max(0, min(i - NEAREST // 2, len(self.at) - NEAREST))
        return seconds / statistics.median(self.took[lo:lo + NEAREST])
