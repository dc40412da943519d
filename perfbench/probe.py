"""Host speed probe.

The benchmark shares its host, whose speed drifts by a factor of up to
about 1.8 over seconds to minutes (measured with ``probe_kernel`` on a
2-vCPU Xeon container). Every timed interval is therefore bracketed by
probes, and reported at reference speed: scaled by ``REFERENCE_PROBE_S``
over the mean probe time. A change to the program moves the scaled time
exactly as it moves the raw time; the host's drift largely cancels.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds ``probe_kernel`` takes at reference speed; sets the unit only.
REFERENCE_PROBE_S = 0.03


def probe_kernel() -> int:
    """Fixed work in the CLI's mix: interpreter arithmetic and dict updates,
    string building and splitting, and small numpy matrix-vector products."""
    total = 0
    table: dict[int, int] = {}
    for i in range(150_000):
        total += i * i
        table[i % 997] = table.get(i % 997, 0) + 1
    parts = ",".join(str(i) for i in range(30_000)).split(",")
    v = np.ones(81)
    m = np.eye(81) * 0.5
    for _ in range(500):
        v = m @ v + 1.0
    return total + len(parts) + int(v[0])


def probe() -> float:
    """Seconds the probe kernel takes right now: the host's current speed."""
    start = time.perf_counter()
    probe_kernel()
    return time.perf_counter() - start


def at_reference_speed(seconds: float, probes: tuple[float, float]) -> float:
    """Scale a time measured between two probes to the reference speed."""
    return seconds * REFERENCE_PROBE_S / statistics.fmean(probes)
