"""Scale measured times to one reference speed of the box.

The two-core box this benchmark was written on runs the same single-thread
code up to 1.8x slower for stretches of seconds to minutes, depending on
its neighbours. Minimums and medians within a run cannot remove a slow
stretch that covers the whole run. So the benchmark runs a fixed probe (a
few milliseconds of dict and small-matrix work, the mix the program
itself does) between units of work. It scales each measured interval by
(REFERENCE_S / the median probe time around it) ** exponent: the result
estimates the time the work would have taken at the probe's reference
speed. The probe is the benchmark's own code; no change to the program
moves it.

The serving workloads slow down more than the probe does: over about
forty runs, their times scaled with exponent 1 still rose with the probe
time, and 1.25 removed most of that trend. Training, whose larger matrix
products suffer less, needs less: over sixteen runs its scaled step
times stopped trending with the probe time at exponent 1.1, and 1.25
over-corrected them.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 0.005   # the probe's time on the box when nothing else runs
EXPONENTS = {"serve": 1.25, "serve_wide": 1.25, "train": 1.1}   # fitted; see above
NEIGHBOURS = 5        # probes around an interval whose median sets its speed

_RNG = np.random.default_rng(0)
_A = _RNG.normal(size=(16, 64))
_B = _RNG.normal(size=(64, 64))
_WORDS = [f"w{i}" for i in range(500)]


def _probe_work() -> float:
    counts: dict[str, int] = {}
    total = 0.0
    for _ in range(40):
        for i, word in enumerate(_WORDS):
            counts[word] = counts.get(word, 0) + i
        x = _A
        for _ in range(8):
            x = np.tanh(x @ _B + 0.1)
            total += float(x[0, 0])
    return total + len(counts)


class Speed:
    """Probe timings over one run, and the scaling they imply."""

    def __init__(self, exponent: float):
        self.exponent = exponent
        self.mids: list[float] = []
        self.times: list[float] = []

    def probe(self) -> float:
        """Time one probe; returns the clock at its end."""
        start = time.perf_counter()
        _probe_work()
        end = time.perf_counter()
        self.mids.append((start + end) / 2)
        self.times.append(end - start)
        return end

    def factor(self, start: float, end: float) -> float:
        """Scaling for an interval, from the probes nearest its middle."""
        mid = (start + end) / 2
        at = bisect.bisect(self.mids, mid)
        near = sorted(range(max(0, at - NEIGHBOURS), min(len(self.mids), at + NEIGHBOURS)),
                      key=lambda i: abs(self.mids[i] - mid))[:NEIGHBOURS]
        return (REFERENCE_S / statistics.median(self.times[i] for i in near)) ** self.exponent

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.factor(start, end)
