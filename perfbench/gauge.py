"""Host-speed gauge: a fixed reference computation timed between operations.

The benchmark host shares its cores with other tenants, and its speed
drifts by up to 1.7x over seconds to minutes; user CPU time tracks wall
time, so the drift is in the host's speed, not in scheduling.  The gauge
times a fixed reference computation, which does not use srgfusion, every
``interval_s`` of measured work.  Each stretch of work between two
reference samples is scaled by the reference's nominal time over the mean
of those two samples, so normalized times read as seconds on a quiet host.
Raw times are kept alongside.

Two references, matched to the work measured: a pure-Python Fraction loop
for the exact-arithmetic workloads, and dense int64 matrix products for
the matrix oracle, which the drift slows much less.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from fractions import Fraction
from time import perf_counter

import numpy as np

# seconds one reference() takes on a quiet 2.1 GHz Xeon vCPU, Python 3.11
REFERENCE_S = 0.0055


def reference() -> dict:
    """Fixed Fraction and dictionary work, independent of the program."""
    acc: dict = {}
    for i in range(1, 1000):
        key = (i % 7, i % 5, i % 3)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7) * Fraction(3, i + 1)
    return acc


# the shape the oracle multiplies for n = 16 graphs, whose working set
# feels the drift like the oracle does
_MATRIX = np.arange(256 * 256, dtype=np.int64).reshape(256, 256) % 7

# seconds one matmul_reference() takes on the same host
MATMUL_REFERENCE_S = 0.023


def matmul_reference() -> np.ndarray:
    """One dense int64 matrix product, the oracle's kind of work."""
    return _MATRIX @ _MATRIX


class Gauge:
    def __init__(self, interval_s: float = 0.3, reference=reference,
                 reference_s: float = REFERENCE_S):
        self.interval_s = interval_s
        self.reference, self.reference_s = reference, reference_s
        self.samples: list[float] = []
        self.sampled_s = 0.0
        self.raw: defaultdict = defaultdict(float)
        self.normalized: defaultdict = defaultdict(float)
        self._pending: defaultdict = defaultdict(float)
        self._since = 0.0
        self._previous = self.sample(5)

    def sample(self, repeat: int = 1) -> float:
        """Median seconds of ``repeat`` reference runs."""
        times = []
        for _ in range(repeat):
            t0 = perf_counter()
            self.reference()
            times.append(perf_counter() - t0)
        self.samples.extend(times)
        self.sampled_s += sum(times)
        return statistics.median(times)

    def scale(self, seconds: float) -> float:
        """``seconds`` just measured, normalized by a fresh sample."""
        return seconds * self.reference_s / self.sample(5)

    def add(self, kind: str, seconds: float) -> None:
        """Charge ``seconds`` of measured work to ``kind``."""
        self.raw[kind] += seconds
        self._pending[kind] += seconds
        self._since += seconds
        if self._since >= self.interval_s:
            self.flush()

    def time(self, kind: str, fn, *args):
        """Run fn(*args) as one measured operation of ``kind``."""
        t0 = perf_counter()
        result = fn(*args)
        self.add(kind, perf_counter() - t0)
        return result

    def call(self, kind: str, hook: tuple, fn, *args):
        """Run fn(*args) as measured work of ``kind``.

        Every call fn makes through the module binding ``hook = (module,
        name)`` is timed on its own, so reference samples are also taken
        while fn runs; their time is left out of the work.
        """
        raw, sampled = self.raw[kind], self.sampled_s
        module, name = hook
        original = getattr(module, name)
        setattr(module, name, functools.partial(self.time, kind, original))
        t0 = perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = perf_counter() - t0
            setattr(module, name, original)
        self.add(kind, wall - (self.raw[kind] - raw) - (self.sampled_s - sampled))
        return result

    def flush(self, repeat: int = 1) -> None:
        """Take a reference sample and normalize the work since the last."""
        current = self.sample(repeat)
        scale = self.reference_s / ((self._previous + current) / 2)
        for kind, seconds in self._pending.items():
            self.normalized[kind] += seconds * scale
        self._pending.clear()
        self._since = 0.0
        self._previous = current
