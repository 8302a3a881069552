"""Calibration kernel: fixed work that tracks the host's current speed.

The host's speed drifts by several per cent within a run and by up to ~40 %
between runs, and process CPU time follows wall time, so the drift is not
preemption.  Every timed sample is therefore scaled by the reference time
of a kernel over its time next to the sample.  The kernel uses no
``asepcross`` code and has two parts, timed separately, because the drift
does not hit all work alike:

* ``array``: chains of complex multiply, divide and add over 2^17 points,
  the chunk size of the contour integrands, each step a fresh 2 MB
  temporary; it scales the contour workload, whose large-array work slows
  with the memory traffic of other tenants while compute-bound work does
  not.
* ``interpreted``: complex numpy arithmetic over 2,048 points and an
  interpreted 4,000-step Python loop, in about equal parts, like per-call
  overhead and the Gillespie core; it scales the exact and oracle
  workloads and the set-up time.

REFERENCE_S holds each part's median time on the 2-core container the
benchmark was written on; ``python3 bench/calib.py`` measures them again.
They only set the scale, so units stay ms and s; they change only together
with a new baseline.
"""

from __future__ import annotations

import ctypes
import statistics
import time

import numpy as np

REFERENCE_S = {"array": 0.0090, "interpreted": 0.00194}

_SMALL = 0.45 * np.exp(2j * np.pi * np.arange(2048) / 2048)
_LARGE = 0.45 * np.exp(2j * np.pi * np.arange(2**17) / 2**17)


def _array() -> float:
    acc = _LARGE.copy()
    for _ in range(6):
        acc = acc * _LARGE / (1.0 - _LARGE) + _LARGE
    return float(acc.real.sum())


def _interpreted() -> float:
    acc = np.ones_like(_SMALL)
    for k in range(1, 7):
        acc = acc * np.exp((1.0 / _SMALL - 1.0) * 0.5) / (1.0 - _SMALL) ** k
    x, y = 0.0, 1
    for _ in range(4000):
        y = (y * 1103515245 + 12345) & 0x7FFFFFFF
        x += y / 2147483648.0 if y & 1 else -1e-3
    return float(acc.real.sum()) + x


def keep_freed_memory() -> bool:
    """Have glibc serve large numpy temporaries from the heap and keep freed
    memory, so that they cost no fresh page faults.  Page-fault cost follows
    the host's memory state and made the contour timings swing by +-10 %
    between runs; with this setting they fall to user time."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(libc.mallopt(m_mmap_threshold, 32 << 20)) and bool(
        libc.mallopt(m_trim_threshold, 1 << 30)
    )


PARTS = {"array": (_array, 1), "interpreted": (_interpreted, 3)}


def time_kernel(part: str, runs: int | None = None) -> float:
    """Median time of back-to-back runs of one kernel part."""
    fn, default_runs = PARTS[part]
    times = []
    for _ in range(runs or default_runs):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


if __name__ == "__main__":
    keep_freed_memory()
    for part in PARTS:
        time_kernel(part, 20)
        times = [time_kernel(part, 1) for _ in range(500)]
        print(f"{part}: median {statistics.median(times):.6f} s over {len(times)} runs")
