"""Times at a reference machine speed.

The benchmark shares its host with other work, and the speed of a core
drifts by 15-25 % over seconds to minutes, differently for interpreter-bound
and for numpy-bound code.  A fixed probe runs before the first recorded
interval and again after every ``PROBE_EVERY_S`` of recorded time.  It has
a python part (Fraction and dict arithmetic, like the exact layers) and a
numpy part (a python loop of elementwise passes over 16k-point arrays, like
``poly_on_points`` on grid slabs).  A probe's slowness is the weighted mean
of each part's time over its reference time, with the workload's share of
each kind of work as weight.  Each recorded time is divided by the mean
slowness of the probes on either side of it: the result is the time the
same work would take at the reference speed, at which the parts take
``PYTHON_REF_S`` and ``NUMPY_REF_S``.  The probes run no cliffint code, so
the program cannot change them; they run with the garbage collector off, so
heap growth in the program does not slow them.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

import numpy as np

PYTHON_REF_S = 0.030
NUMPY_REF_S = 0.009
PROBE_EVERY_S = 0.25
_EXPONENTS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1))


def _python_probe() -> float:
    acc: dict = {}
    start = time.perf_counter()
    for i in range(8000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + Fraction(i, 7)
    return time.perf_counter() - start


def _numpy_probe(pts: np.ndarray) -> float:
    start = time.perf_counter()
    for _ in range(24):
        out = np.zeros(pts.shape[0])
        for exps in _EXPONENTS:
            term = np.full(pts.shape[0], 1.5)
            for idx, e in enumerate(exps):
                term *= pts[:, idx] if e == 1 else pts[:, idx] ** e if e else 1.0
            out += term
        pts[np.abs(out) < 1.0].sum()
    return time.perf_counter() - start


class ReferenceClock:
    """Records measured times and rescales them to the reference speed."""

    def __init__(self, python_weight: float):
        self.python_weight = python_weight
        self._pts = np.random.default_rng(0).standard_normal((16384, 3))
        self._slowness: list[float] = []
        self._raw: list[tuple[float, int]] = []  # (seconds, index of the probe before)
        self._since = 0.0
        self.probe()

    def probe(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            w = self.python_weight
            slow = w * _python_probe() / PYTHON_REF_S if w else 0.0
            if w < 1.0:
                slow += (1.0 - w) * _numpy_probe(self._pts) / NUMPY_REF_S
        finally:
            if enabled:
                gc.enable()
        self._slowness.append(slow)

    def record(self, seconds: float):
        self._raw.append((seconds, len(self._slowness) - 1))
        self._since += seconds
        if self._since >= PROBE_EVERY_S:
            self.probe()
            self._since = 0.0

    def raw(self) -> list[float]:
        return [seconds for seconds, _ in self._raw]

    def scaled(self) -> list[float]:
        """Every recorded time at the reference speed."""
        if self._raw and self._raw[-1][1] == len(self._slowness) - 1:
            self.probe()  # close the last interval
        s = self._slowness
        return [seconds * 2.0 / (s[i] + s[i + 1]) for seconds, i in self._raw]

    def mean_slowness(self) -> float:
        return sum(self._slowness) / len(self._slowness)
