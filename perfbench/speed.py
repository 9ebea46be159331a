"""Host-speed calibration for the end-to-end timings.

The benchmark runs on shared virtual machines whose speed drifts by up to
40% over tens of seconds. A fixed kernel of small numpy eigenvalue calls,
small matrix products and a Python loop (the mix the toolkit itself runs,
but without calling it) is timed every 0.1 s between operations, and
three times right after any operation longer than that. Each operation's
wall time is then scaled by the mean of the scales before and after it,
where a scale is REFERENCE_S over the median of the kernel times: the result
is the time the operation would have taken on a host where the kernel takes
REFERENCE_S. On the reference host, when quiet, the scale is close to 1.
Over ten runs per workload, the scaling cut the run-to-run spread of
items_per_s from 14.7% to 5.4% (orbit) and from 20.6% to 13.1% (certify).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 1.6e-3   # the kernel's time on a quiet 2-core Xeon VM at 2.1 GHz
EVERY_S = 0.1          # sample at most this often
WINDOW = 5             # scale by the median of this many recent samples


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((48, 48)), rng.standard_normal((9, 9))
        self._big, self._small = a + a.T, b + b.T
        self.samples: list[float] = []
        self._last = -float("inf")

    def _kernel(self) -> float:
        acc = 0.0
        for _ in range(5):
            acc += np.linalg.eigvalsh(self._big)[0]
        for _ in range(20):
            acc += np.linalg.eigvalsh(self._small)[0] + float((self._small @ self._small)[0, 0])
        for i in range(6000):
            acc += (i * i) % 7 * 0.5
        return acc

    def sample(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)
        return self.samples[-1]

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def after_op(self, seconds: float) -> float:
        """Scale at the end of an op; a long op gets three fresh samples."""
        if seconds < EVERY_S:
            return self.scale()
        fresh = [self.sample() for _ in range(3)]
        return REFERENCE_S / statistics.median(fresh)

    def scale(self) -> float:
        """Factor that converts a wall time measured now to reference-host time."""
        return REFERENCE_S / statistics.median(self.samples[-WINDOW:])
