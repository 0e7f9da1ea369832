"""Machine-speed probe that scales timings to a reference speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within minutes. On a 2-vCPU VM, the same command mix measured 1.5 ms and
2.6 ms median latency half an hour apart. A fixed probe workload is timed
between commands. It does what kframes commands spend their time on
(argparse, small SVDs, JSON), but runs none of kframes' code. Every
end-to-end time is scaled by ``REFERENCE_S / (probe time around it)``, so a
run on a slowed host reports about what it would report on a calm one. Raw
times are printed next to the scaled ones.
"""

from __future__ import annotations

import argparse
import json
import math
import time

import numpy as np

# Probe duration that defines the reference speed.
REFERENCE_S = 0.010
# Least time between two probe samples during a timed phase.
GAP_S = 0.1
# Bound now, so tracing (which rebinds numpy.linalg.svd) never touches it.
_SVD = np.linalg.svd
_MATRICES = [np.random.default_rng(0).standard_normal((6, k)) for k in range(1, 13)]


def probe_once() -> float:
    """Time one pass of the fixed probe workload."""
    t0 = time.perf_counter()
    for _ in range(20):
        parser = argparse.ArgumentParser(prog="probe")
        parser.add_argument("--x", type=float, default=1.0)
        parser.add_argument("--name")
        parser.parse_args(["--x", "2", "--name", "n"])
        for a in _MATRICES:
            s = _SVD(a, compute_uv=False)
            int(np.sum(s > 1e-10 * s[0]))
        json.loads(json.dumps({"data": _MATRICES[7].tolist()}))
    return time.perf_counter() - t0


class SpeedScale:
    """Probe samples in time order, and the scaling they imply.

    A command latency measured after sample ``i`` and before sample ``i + 1``
    is scaled by the mean of those two samples (``scale``). Set-up has a few
    long repetitions; it is scaled by the median probe over its phase
    (``factor``), which one noisy probe cannot move.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> int:
        """Take a sample now; return its index."""
        self.samples.append(probe_once())
        self._last = time.perf_counter()
        return len(self.samples) - 1

    def due(self) -> int:
        """Index of the latest sample, taking a new one if GAP_S has passed."""
        if time.perf_counter() - self._last >= GAP_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, seconds: float, before: int) -> float:
        around = (self.samples[before] + self.samples[before + 1]) / 2
        return seconds * REFERENCE_S / around

    def factor(self) -> float:
        """Scale factor from the median of all samples so far."""
        return REFERENCE_S / float(np.median(self.samples))
