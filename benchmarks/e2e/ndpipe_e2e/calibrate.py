"""Calibrated host time: what a timed section would have taken on an
undisturbed machine.

The sandbox this runs in shares its cores.  Ten runs of unchanged code
usually spread 3-6 %, but about once in a quarter of an hour the whole
machine runs at half speed for a minute (measured: four consecutive
``serve_upload_ladder`` runs at 17 s instead of 8.5 s).  No statistic
taken *inside* a run survives a slowdown that outlasts the run; medians
over chunks only handle a stall.

So every timed section is scaled by how fast a fixed reference kernel ran
around it.  The kernel is plain numpy / zlib / interpreter work in the
proportions the workloads spend their time — and deliberately none of the
program's own code, or a real speed-up of the program would cancel itself
out.  It is re-timed whenever half a second has passed, at section
boundaries and never inside a timed section.  ``calibrated seconds = raw
seconds x REFERENCE_S / kernel seconds around the section``: equal to raw
seconds on the authoring box when nothing interferes, and both are
printed.  Host-time metrics are computed from calibrated seconds.
"""

from __future__ import annotations

import time
import zlib
from contextlib import contextmanager
from typing import Iterator, List

import numpy as np

__all__ = ["Calibrator", "Timing"]

_clock = time.perf_counter


class Timing:
    """One timed section: raw and calibrated seconds."""

    __slots__ = ("raw_s", "seconds")

    def __init__(self) -> None:
        self.raw_s = 0.0
        #: calibrated; what the metrics use
        self.seconds = 0.0


class Calibrator:
    """Times sections and the reference kernel between them."""

    #: one kernel pass on the undisturbed authoring box
    REFERENCE_S = 0.0262
    #: re-time the kernel when the last sample is older than this
    INTERVAL_S = 0.5

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.random((8, 256, 144)).astype(np.float32)
        self._b = rng.random((144, 64)).astype(np.float32)
        self._blob = (rng.random(24_000) * 16).astype(np.uint8).tobytes()
        self.kernel_s: List[float] = []
        self.sections: List[Timing] = []
        self._sampled_at = float("-inf")

    def _kernel(self) -> float:
        begin = _clock()
        for _ in range(4):
            for _ in range(12):  # conv-as-matmul plus an elementwise pass
                np.maximum(np.matmul(self._a, self._b) * 0.5 + 0.1, 0.0)
            zlib.decompress(zlib.compress(self._blob, 6))
            total = 0
            for i in range(20_000):  # interpreter overhead
                total += i & 7
        return _clock() - begin

    def _sample(self, force: bool = False) -> float:
        if force or _clock() - self._sampled_at >= self.INTERVAL_S:
            self.kernel_s.append(self._kernel())
            self._sampled_at = _clock()
        return self.kernel_s[-1]

    @contextmanager
    def section(self) -> Iterator[Timing]:
        timing = Timing()
        before = self._sample()
        begin = _clock()
        try:
            yield timing
        finally:
            timing.raw_s = _clock() - begin
            after = self._sample(force=timing.raw_s >= self.INTERVAL_S)
            timing.seconds = (timing.raw_s * self.REFERENCE_S
                              / (0.5 * (before + after)))
            self.sections.append(timing)

    @property
    def total_s(self) -> float:
        """Calibrated seconds over every section so far."""
        return sum(t.seconds for t in self.sections)

    @property
    def total_raw_s(self) -> float:
        return sum(t.raw_s for t in self.sections)

    @property
    def speed(self) -> float:
        """Median machine speed seen, 1.0 = the undisturbed authoring box."""
        ordered = sorted(self.kernel_s)
        return self.REFERENCE_S / ordered[len(ordered) // 2]
