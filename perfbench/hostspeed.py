"""Host-speed calibration, so that time metrics follow the library and not
the speed of a shared host.

The speed of the measuring host drifts by 20% and more over minutes (see
perfbench/README.md, "Limits"), far more than a run can average out.  So
a fixed pure-Python loop, independent of the library, is timed right
after every item and every set-up.  A time is reported at reference
speed: the raw time times REFERENCE_S / (the loop's mean time over the
last WINDOW samples).  The window holds the samples on both sides of the
item just timed.  The loop does the kind of work the library does:
small integer matrices, tuples, dicts and sets.
"""

from __future__ import annotations

import time
from collections import deque

# The loop's time at reference speed: about its median on a 2-vCPU
# x86-64 VM under Python 3.  Only a scale; it never changes a comparison.
REFERENCE_S = 0.007
WINDOW = 3


def calibration_loop() -> int:
    """Fixed work: integer row reduction of 220 small matrices."""
    seen: dict = {}
    acc = 0
    for n in range(220):
        m = [[(i * 7 + j * 13 + n) % 11 - 5 for j in range(5)] for i in range(5)]
        for c in range(5):
            p = next((r for r in range(c, 5) if m[r][c]), None)
            if p is None:
                continue
            m[c], m[p] = m[p], m[c]
            for r in range(c + 1, 5):
                f, g = m[r][c], m[c][c]
                m[r] = [g * a - f * b for a, b in zip(m[r], m[c])]
        key = tuple(tuple(row) for row in m)
        seen[key] = seen.get(key, 0) + 1
        acc += len({x % 97 for row in m for x in row})
    return acc


class HostSpeed:
    """The calibration of one run: its most recent loop timings."""

    def __init__(self) -> None:
        self.recent: deque[float] = deque(maxlen=WINDOW)
        self.samples = 0  # loop timings taken in this process

    def scale(self) -> float:
        """Time the loop once; the factor that brings a time just measured
        to reference speed."""
        t0 = time.perf_counter()
        calibration_loop()
        self.recent.append(time.perf_counter() - t0)
        self.samples += 1
        return REFERENCE_S * len(self.recent) / sum(self.recent)

