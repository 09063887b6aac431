"""Time on a dedicated host: wall clock minus the time a shared host took.

The benchmark runs on virtual machines whose host also runs other guests.
While a request runs, the hypervisor can take its vCPU away for tens of
milliseconds; Linux counts that as *steal* time.  On a 2-vCPU guest steal
came and went in bursts of up to a third of the CPU: the per-second median
latency of one request kind varied with a coefficient of 0.35 on the wall
clock and of 0.07 on the client thread's CPU clock.  A user of the program
on their own machine does not pay steal, so the benchmark takes it out:

* a request that runs on the client's thread (``Session.run`` in serial
  mode) is timed by that thread's on-CPU plus run-queue time
  (:func:`thread_seconds`); stolen time is in neither;
* a request spread over several threads (the gateway) is timed by wall
  clock, each moment weighted by the share of CPU time the host did not
  take then (:class:`StealWindows`).

Both need Linux's ``/proc``.
"""

from __future__ import annotations

import bisect
import time
from typing import List, Tuple

CpuTimes = List[Tuple[int, int]]


def thread_seconds() -> float:
    """Seconds the calling thread spent on a CPU or waiting in its run queue.

    Time the hypervisor held the vCPU, and time the thread slept, are in
    neither.  The on-CPU part comes from the thread's CPU clock: the
    schedstat on-CPU field is brought up to date only at scheduler events,
    while its run-queue field is complete whenever the thread itself reads
    it.
    """
    on_cpu = time.thread_time()
    with open("/proc/thread-self/schedstat", encoding="ascii") as handle:
        waiting = int(handle.read().split()[1])
    return on_cpu + waiting / 1e9


def cpu_times() -> CpuTimes:
    """``(busy, steal)`` clock ticks of every CPU so far, from /proc/stat."""
    times = []
    with open("/proc/stat", encoding="ascii") as handle:
        for line in handle:
            if not (line.startswith("cpu") and line[3].isdigit()):
                continue
            user, nice, system, _idle, _iowait, irq, softirq, steal = (
                int(field) for field in line.split()[1:9]
            )
            times.append((user + nice + system + irq + softirq, steal))
    return times


def stolen_share(before: CpuTimes, after: CpuTimes) -> float:
    """Share of the time the CPUs wanted to run that the host took.

    Each CPU's share (steal over busy plus steal) is weighted by how busy
    it was, so an idle CPU's timer ticks do not count.
    """
    deltas = [(b1 - b0, s1 - s0) for (b0, s0), (b1, s1) in zip(before, after)]
    busy_total = sum(busy for busy, _ in deltas)
    if busy_total <= 0:
        return 0.0
    return sum(
        busy / busy_total * steal / (busy + steal)
        for busy, steal in deltas if busy + steal > 0
    )


class StealWindows:
    """:func:`cpu_times` marks over a run, and the time the host left us."""

    def __init__(self) -> None:
        self._times: List[float] = []
        self._shares: List[float] = []  # share of window i, ending at _times[i+1]
        self._last = cpu_times()
        self._times.append(time.perf_counter())

    def mark(self) -> None:
        now, current = time.perf_counter(), cpu_times()
        self._shares.append(stolen_share(self._last, current))
        self._times.append(now)
        self._last = current

    def dedicated_seconds(self, start: float, end: float) -> float:
        """Wall seconds from ``start`` to ``end``, less the stolen share.

        Moments after the last mark count at the last window's share.
        """
        if not self._shares:
            return end - start
        total = 0.0
        index = max(0, bisect.bisect_right(self._times, start) - 1)
        while start < end:
            share = self._shares[min(index, len(self._shares) - 1)]
            stop = end if index + 1 >= len(self._times) else min(end, self._times[index + 1])
            total += (stop - start) * (1.0 - share)
            start = stop
            index += 1
        return total
