"""Host-speed probe: scale wall times to a fixed reference speed of the host.

On a shared virtual machine the CPU speed a process gets can swing by up to
80% within minutes, set by load outside the machine. Process CPU time tracks
wall time within 1%, so it is not preemption. Timing a fixed calibration
kernel between ops and scaling each op by REFERENCE_S / (kernel time around
that op) removes most of that swing, while any change in the program's own
cost shows in full. The kernel uses only the interpreter and the standard
library, so no change to siteval can move it.
"""
from __future__ import annotations

import bisect
import json
import statistics
import time

# Kernel time at the reference speed; a round figure near its fast-phase time
# on the 2-core virtual machine the README's reference figures come from.
REFERENCE_S = 1.0e-3
EVERY_S = 0.1  # probe at most this often
WINDOW_S = 0.5  # an op is scaled by the median probe within this distance
MIN_PROBES = 3

_ROWS = [{"id": f"C{i}", "w": i * 0.013, "tags": (i, i + 1)} for i in range(120)]


def kernel() -> float:
    """Interpreter loops, small-object churn and JSON, the mix the ops spend time in."""
    s = 0
    for i in range(5000):
        s += i * i % 7
    text = json.dumps([dict(r, s=s) for r in _ROWS])
    rows = json.loads(text)
    table = {r["id"]: repr(r["w"] * 1.5) for r in rows}
    return sum(float(v) for v in table.values())


class Probe:
    """Calibration samples taken between ops, and the scaling they imply."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.at or now - self.at[-1] >= EVERY_S:
            kernel()
            end = time.perf_counter()
            self.at.append((now + end) / 2)
            self.took.append(end - now)

    def factor(self, t: float) -> float:
        """REFERENCE_S over the median kernel time within WINDOW_S of `t`."""
        lo = bisect.bisect_left(self.at, t - WINDOW_S)
        hi = bisect.bisect_right(self.at, t + WINDOW_S)
        if hi - lo < MIN_PROBES:
            i = bisect.bisect_left(self.at, t)
            lo, hi = max(0, i - MIN_PROBES), min(len(self.at), i + MIN_PROBES)
        return REFERENCE_S / statistics.median(self.took[lo:hi])

    def median_s(self) -> float:
        return statistics.median(self.took)
