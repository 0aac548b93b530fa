"""Machine-speed calibration for the benchmark's timings.

On a small shared host the same code runs up to ~30% slower from one
minute to the next (neighbouring tenants, frequency changes); thread CPU
time moves with wall time, so it does not help.  The benchmark therefore
times a fixed pure-Python kernel -- dict and set work like the
evaluator's -- next to its own work and divides each timing by the
*speed factor*: the kernel's mean time over ``NOMINAL_S``.  A factor of
1.3 means the host ran the kernel 30% slower than nominal, and the
timings taken then are scaled down by that much (rates up).  Result
files keep the factors, so raw times stay recoverable.

The factor must not depend on the code under test, or a change could
hide its own slowdown.  In-process workloads run the kernel between
their ops (:class:`SpeedMeter`) with the garbage collector off, so the
program's heap size and allocation rate do not reach it, and time only
a second run, so the caches the last op evicted are refilled first (an
op that scans 32 MB raised the first run's time by 28%, the second's
by 6%).  What remains is the host's speed at that moment, which a mean over all
samples tracks: over ten seeds on a noisy host it cut the quartile
spread of ``ops_per_s`` from 0.24-0.27 to 0.03-0.08.  A median does
not track it (0.09-0.17), and neither does a separate process that wakes
up to run the kernel (on ``answer_warm``: 0.10 with the mean, 0.27 with
the median, against 0.11 unscaled): an idle vCPU runs it at another
speed than the busy one that runs the workload.

``serve_closed`` cannot run the kernel in its own process: the kernel
would hold the client's interpreter lock while requests are in flight.
There a separate process (:class:`SpeedMonitor`) runs the kernel every
``MONITOR_PERIOD_S`` and records its thread CPU time, which excludes the
time it waits for a CPU that the server or the client holds; both vCPUs
are busy there, so the monitor runs on a busy one.
"""

from __future__ import annotations

import bisect
import gc
import select
import statistics
import subprocess
import sys
import time

#: The kernel's time on the 2-vCPU sandbox the benchmark was defined
#: on (Python 3.11), in seconds: between the warm in-process time
#: (~0.35 ms) and the monitor's (~0.45 ms) on a quiet host.
NOMINAL_S = 0.0004

#: Kernel runs that bracket set-up, just before and just after it.
BRACKET = 20

MONITOR_PERIOD_S = 0.02


def kernel() -> int:
    counts: dict[int, int] = {}
    pairs = set()
    for i in range(1500):
        key = (i * 7919) % 1000
        counts[key] = counts.get(key, 0) + 1
        pairs.add((key, i & 7))
    return len(pairs)


class SpeedMeter:
    """Kernel timings taken in this thread; :meth:`factor` is their mean
    over nominal."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, count: int = 1) -> None:
        # The collector is off, so the size of the measured program's
        # heap does not reach the timing; an untimed first run refills
        # the caches that the program's last op evicted.
        gc.disable()
        try:
            for _ in range(count):
                kernel()
                started = time.perf_counter()
                kernel()
                self.samples.append(time.perf_counter() - started)
        finally:
            gc.enable()

    def factor(self) -> float:
        return statistics.fmean(self.samples) / NOMINAL_S


class SpeedMonitor:
    """A process that times the kernel every ``MONITOR_PERIOD_S`` until
    :meth:`stop`; :meth:`factor` averages the samples of a time window."""

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._times: list[float] = []
        self._cpu: list[float] = []

    def stop(self) -> None:
        """End the monitor and collect its samples (idempotent)."""
        if self._process.stdin.closed:
            return
        self._process.stdin.close()
        output = self._process.stdout.read()
        self._process.wait(timeout=30)
        self._process.stdout.close()
        for line in output.splitlines():
            at, cpu = line.split()
            self._times.append(float(at))
            self._cpu.append(float(cpu))

    def factor(self, start: float, end: float) -> float:
        """The speed factor over ``[start, end]`` (``perf_counter`` times,
        which all processes on the host share); call after :meth:`stop`."""
        low = bisect.bisect_left(self._times, start)
        high = bisect.bisect_right(self._times, end)
        window = self._cpu[low:high] or self._cpu
        return statistics.fmean(window) / NOMINAL_S

    def __enter__(self) -> "SpeedMonitor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def _monitor() -> None:
    """Print ``perf_counter thread_time`` per kernel run until stdin closes."""
    gc.disable()
    samples = []
    while True:
        readable, _, _ = select.select([sys.stdin], [], [], MONITOR_PERIOD_S)
        if readable and not sys.stdin.read(1):
            break
        started, cpu = time.perf_counter(), time.thread_time()
        kernel()
        samples.append(f"{started} {time.thread_time() - cpu}")
    print("\n".join(samples))


if __name__ == "__main__":
    _monitor()
