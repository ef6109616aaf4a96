"""Machine-speed calibration: latencies in reference seconds.

The benchmark runs on a few cores of a shared host.  There the speed of the
whole machine drifts by up to +-20% over tens of seconds, as other tenants
load it, and every request of a run slows down or speeds up together; a
55 s run cannot average that out.  So a fixed calibration kernel, which uses
nothing from grapde, runs three times before every request and once more
after the last, and each latency is scaled by how fast the kernel ran around
that request:

    ref_latency = latency * KERNEL_REF_S / median kernel time near the request

"Near" is within WINDOW_S of the request's start or end.  One kernel run
varies by +-30%, and the speed at a request's two ends says little about the
seconds in between, so the window holds many runs.

``KERNEL_REF_S`` is the kernel's median time measured once on the machine
the benchmark was written on (a 2-vCPU Intel Xeon VM, Python 3.11, NumPy
2.4, SciPy 1.17), whose kernel time ranged from 4 to 8 ms over a few hours;
a reference second is a second at the speed it had then.  The raw latencies
stay in the run record.  The kernel mixes interpreter work (dict and float
updates) with small NumPy calls, like grapde's requests, so that contention
slows both alike.

Set-up time is scaled the same way, by a different yardstick: next to every
set-up probe, a fresh process that only imports NumPy and scipy.optimize
(``BASELINE``) is timed, and the probes' times are multiplied by
``BASELINE_REF_S`` over the baselines' median time.  Starting a process and
importing the libraries is most of grapde's set-up, and the in-process
kernel did not follow its drift closely enough.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# median kernel time on the reference machine, in seconds
KERNEL_REF_S = 0.0072
# kernel runs within this many seconds of a request scale its latency
WINDOW_S = 10.0
# kernel runs before each request
RUNS = 3

# the baseline process for set-up times, and its time on the reference machine
BASELINE = "import numpy, scipy.optimize"
BASELINE_REF_S = 0.64


def kernel() -> float:
    table = {}
    acc = 0.0
    for i in range(20000):
        key = i % 97
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += (i % 7) * 1.5
    x = np.arange(64.0)
    for _ in range(300):
        x = np.sqrt(x * x + 1.0) - 0.5
        acc += float(x.sum())
    return acc


class Calibration:
    """Kernel times taken during a run, looked up by time."""

    def __init__(self):
        self.at = []  # perf_counter when each kernel run ended, increasing
        self.kernel_s = []
        for _ in range(3):  # the first runs are slower; keep them out
            kernel()

    def measure(self):
        for _ in range(RUNS):
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.at.append(t1)
            self.kernel_s.append(t1 - t0)

    def near(self, start: float, end: float) -> float:
        """Median kernel time within WINDOW_S of the interval [start, end]."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        return statistics.median(self.kernel_s[lo:hi])

    def scale(self, records):
        """Set ``ref_latency_s`` on every record from its raw latency."""
        for rec in records:
            rec["kernel_s"] = self.near(rec["start"], rec["start"] + rec["latency_s"])
            rec["ref_latency_s"] = rec["latency_s"] * KERNEL_REF_S / rec["kernel_s"]
