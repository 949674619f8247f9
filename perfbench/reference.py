"""Fixed reference job that gauges the machine's speed at the moment.

On a shared host the same work can take anywhere from 1x to 2x as long
depending on what other tenants run, and that state changes over tens of
seconds.  The benchmark runs this job between every two repetitions and
reports workload wall and CPU time as multiples of the job's, which
cancels most of that drift.  The job does not touch dualsync and must not
change, or the ratios it anchors are no longer comparable.

It mixes, in roughly equal time, the three kinds of work the workloads
do: a scalar float loop with libm calls (the tick kernel), float-to-text
formatting (CSV emission) and large-array random draws, cumulative sums
and an FFT (clock synthesis and PSD estimation).
"""

from __future__ import annotations

import math
import resource
import time

import numpy as np


def _job() -> None:
    acc = 0.0
    for i in range(150_000):
        x = math.sin(i * 1e-3) + acc * 1e-9
        acc += math.atan2(x * math.cos(i * 2e-3), 1.0 + x * x)
    ",".join(repr(v) for v in (np.linspace(0.0, 1.0, 60_000) * math.pi).tolist())
    a = np.random.default_rng(7).standard_normal(2**19)
    np.fft.rfft(np.cumsum(a) * np.hanning(a.size))


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def measure() -> tuple[float, float]:
    """(wall, CPU) seconds of one run of the reference job."""
    t0, c0 = time.perf_counter(), _cpu_s()
    _job()
    return time.perf_counter() - t0, _cpu_s() - c0
