"""The host's speed, tracked by a fixed reference loop.

The benchmark runs on small shared hosts whose speed moves by 10-30% within
seconds and by up to 2x over minutes, with much the same effect on every
kind of work, so a run's absolute times mostly say which phase it fell into.
The runner therefore times this loop every SAMPLE_EVERY_S seconds, between
operations and outside their timing, and scales every latency and set-up
time by REF_NOMINAL_S over the loop's median time around it: the reported
times are those the work would take when the loop takes REF_NOMINAL_S. The
loop (interpreted Python and small numpy calls, like the operations) uses no
qbagx code, so no change to the package moves it.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_left
from time import perf_counter

import numpy as np

REF_NOMINAL_S = 0.003   # about the loop's median time in the calibration host's fast phases
SAMPLE_EVERY_S = 0.2    # time between two samples of the loop
WINDOW = 8              # samples around a time that set its speed

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.random((32, 32))
_VECTOR = _RNG.random(1 << 17)


def reference_loop() -> float:
    total = 0.0
    for i in range(160):
        scores = {j: j * 1.5 for j in range(32)}
        total += sum(sorted(scores.values(), reverse=True)[:8])
        total += float(np.tanh(_MATRIX @ _MATRIX[:, i % 32]).sum())
    return total + float(np.sort(_VECTOR)[::1024].sum())


class HostSpeed:
    """Samples of the reference loop: (end time, duration)."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[float] = []
        for _ in range(3):  # warm-up, not kept
            reference_loop()

    def sample(self) -> None:
        # A collection of the operations' garbage must not land in the loop.
        gc.disable()
        try:
            start = perf_counter()
            reference_loop()
            end = perf_counter()
        finally:
            gc.enable()
        self.times.append(end)
        self.samples.append(end - start)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """end - start at the nominal speed: scaled by REF_NOMINAL_S over the
        median of the WINDOW samples nearest the interval's midpoint."""
        i = bisect_left(self.times, (start + end) / 2)
        lo = max(0, min(i - WINDOW // 2, len(self.times) - WINDOW))
        return (end - start) * REF_NOMINAL_S / statistics.median(self.samples[lo:lo + WINDOW])

    def median_s(self) -> float:
        return statistics.median(self.samples)


class SampledCalls:
    """Stands in for the tracer while a set-up runs: samples the loop before
    a call when SAMPLE_EVERY_S have passed since the last sample, so that a
    set-up that lasts seconds is scaled piece by piece, like operations."""

    def __init__(self, host: HostSpeed) -> None:
        self.host = host
        self.pieces: list[tuple[float, float]] = []
        self.host.sample()
        self.mark = perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        now = perf_counter()
        if now - self.mark >= SAMPLE_EVERY_S:
            self.pieces.append((self.mark, now))
            self.host.sample()
            self.mark = perf_counter()
        return fn(*args, **kwargs)

    def scaled_total(self) -> float:
        """The time spent outside the samples, at the nominal speed."""
        self.pieces.append((self.mark, perf_counter()))
        self.host.sample()
        return sum(self.host.scaled(start, end) for start, end in self.pieces)
