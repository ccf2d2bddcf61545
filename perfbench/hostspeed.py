"""Host-speed probe, for times that do not move with a shared host's load.

On a shared 2-vCPU host the throughput of one vCPU swings by about 1.6x in
streaks lasting seconds to minutes, and the two vCPUs swing independently.
CPU time tracks wall time, so the swing is the host's speed, not
scheduling.  The benchmark therefore runs on one vCPU at a time, starting
each timed segment on the vCPU that probes fastest, and times a fixed probe
(benchmark code, never surfscan's) in blocks around every segment and, from
a sampler thread on the same vCPU, about once a second within it.  A
segment's normalized time is its measured time, less the probes' own time,
scaled by `P_REF` over the median probe time around and within it: seconds
at the host's nominal speed.
"""

import os
import statistics
import sys
import threading
import time

P_REF = 0.0053  # s: one probe on a 2-vCPU Xeon VM in its fast state
BLOCK = 5  # probes per block; a block reports their median
PERIOD = 1.0  # s between probes within a segment
CPUS = sorted(os.sched_getaffinity(0))


def probe():
    """Time a fixed interpreted loop.  Pure Python, so it holds the
    interpreter lock throughout and its time is the vCPU's speed alone."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(50_000):
        s += (i * 0.5) % 3.0
    return time.perf_counter() - t0


def probe_block():
    return statistics.median(probe() for _ in range(BLOCK))


def pin_fastest(known=None):
    """Pin this thread to the CPU whose probe block is fastest now, given
    blocks already `known` per CPU; return (cpu, its block)."""
    blocks = dict(known or {})
    for cpu in CPUS:
        if cpu not in blocks:
            os.sched_setaffinity(0, {cpu})
            blocks[cpu] = probe_block()
    best = min(blocks, key=blocks.get)
    os.sched_setaffinity(0, {best})
    return best, blocks[best]


class _Sampler(threading.Thread):
    def __init__(self):
        super().__init__(daemon=True)
        self.probes = []  # (start, duration)
        self._done = threading.Event()

    def run(self):
        while not self._done.wait(PERIOD):
            start = time.perf_counter()
            self.probes.append((start, probe()))

    def stop(self):
        self._done.set()
        self.join()


class Segments:
    """Timed segments, each normalized by the probes around and within it."""

    def __init__(self):
        self.cpu, self.last_block = pin_fastest()

    def measure(self, fn):
        """Run fn() as one segment; return (result, seconds, factor), where
        seconds excludes the probes' time and seconds * factor is the
        normalized time."""
        sampler = _Sampler()
        interval = sys.getswitchinterval()
        # A probe then runs uninterrupted once it holds the interpreter lock.
        sys.setswitchinterval(0.5)
        sampler.start()
        try:
            t0 = time.perf_counter()
            result = fn()
            t1 = time.perf_counter()
        finally:
            sampler.stop()
            sys.setswitchinterval(interval)
        within = [d for start, d in sampler.probes if start + d <= t1]
        seconds = t1 - t0 - sum(within)
        block = probe_block()
        factor = P_REF / statistics.median([self.last_block, block] + within)
        self.cpu, self.last_block = pin_fastest({self.cpu: block})
        return result, seconds, factor
