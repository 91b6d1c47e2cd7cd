"""Machine-speed probes, so that timings compare across runs on a shared host.

On a shared host the speed of the same pure-Python work changes by a fifth
or more within seconds as other tenants contend for the CPU; on a 2-vCPU
Xeon VM this kernel's duration switched between about 4 ms and 7 ms several
times within one 15-second replication.  While a ``SpeedLog`` is active an
interval timer runs the fixed kernel about every ``PROBE_INTERVAL_S``,
wherever the main thread is.  A timed span leaves the probes' own time out,
and each stretch between two probes is scaled by ``REF_S`` over the median
probe duration around it, which reports it in seconds at the kernel's
reference speed.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from bisect import bisect_left, insort

REF_S = 0.005  # about the kernel's median duration on that VM
PROBE_INTERVAL_S = 0.1
WINDOW = 2  # probes on each side of a stretch that set its speed


def _merge_count(a, b) -> int:
    """Number of common elements of sorted ``a`` and ``b``."""
    i = j = n = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            n += 1
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return n


def kernel() -> int:
    """The package's kind of work without calling it: ``insort`` into small
    sorted lists, merge scans between them, dict lookups and ``random``
    draws.  Its data is a few kilobytes, so how fast it runs depends on the
    machine and hardly on what the measured code left in the caches."""
    rng = random.Random(12345)
    adj: dict[int, list[int]] = {}
    n = 0
    for _ in range(2500):
        a = adj.setdefault(rng.randrange(400), [])
        insort(a, rng.randrange(400))
        n += _merge_count(a, adj.get(rng.randrange(400), ()))
    return n


class SpeedLog:
    """Kernel runs as (start, end) pairs of ``perf_counter``, taken every
    ``PROBE_INTERVAL_S`` by a ``SIGALRM`` timer inside a ``with`` block."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []
        self._previous = None
        self._busy = False

    def probe(self, *_signal) -> None:
        """Time one kernel run; a timer signal that arrives during one is
        dropped.  The collector is held off so the kernel never pays for
        collecting the caller's heap."""
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
            self._busy = False
        self.probes.append((t0, t1))

    def __enter__(self) -> "SpeedLog":
        for _ in range(WINDOW + 1):
            self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(WINDOW + 1):
            self.probe()

    def _stretches(self, t0: float, t1: float):
        """(seconds, index of the probe after) of each stretch of [t0, t1]
        between the probes that fall inside it."""
        k = bisect_left(self.probes, (t0,))
        edge = t0
        while k < len(self.probes) and self.probes[k][1] <= t1:
            yield self.probes[k][0] - edge, k
            edge = self.probes[k][1]
            k += 1
        yield t1 - edge, k

    def raw(self, t0: float, t1: float) -> float:
        """Seconds from ``t0`` to ``t1`` without the probes in between."""
        return sum(s for s, _ in self._stretches(t0, t1))

    def scaled(self, t0: float, t1: float) -> float:
        """``raw(t0, t1)`` at reference speed.  The stretch before probe
        ``k`` is scaled by ``REF_S`` over the median duration of probes
        ``k - 1 - WINDOW`` to ``k + WINDOW``: local, because the speed
        switches within seconds, and a median, because a preempted probe
        reads several times too slow.  Call it after the block has ended."""
        dur = [b - a for a, b in self.probes]
        return sum(
            s * REF_S / statistics.median(dur[max(0, k - 1 - WINDOW) : k + WINDOW + 1])
            for s, k in self._stretches(t0, t1)
        )
