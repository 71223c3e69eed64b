"""Interpreter-speed calibration, so timings from a shared machine compare.

On a machine whose cores are shared with other tenants, the same pure-Python
loop runs up to 1.7x slower in some phases (tens of milliseconds to seconds
long) than in others, which swamps any change worth measuring.  The
benchmark therefore times a fixed loop of its own (list, dict and integer
work like the library's) every 20 ms, from a timer signal, so samples are
taken during requests too.  A request's time, less the time its samples
took, is scaled by ``REF_MS`` over the mean of the samples taken during it
and the nearest sample on either side: the time it would take where the
loop takes exactly ``REF_MS``.  Raw times are reported next to scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REF_MS = 1.0
EVERY_S = 0.02

_clock = time.perf_counter


def loop() -> int:
    """The fixed reference work: about 1 ms on a 2 GHz server core."""
    seen = {}
    stack = []
    for i in range(2800):
        x = (i * 7919) % 61 - 30
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
        seen[x] = seen.get(x, 0) + 1
    return len(stack) + len(seen)


def measure_ms(repeats: int = 3) -> float:
    """Median time of ``repeats`` runs of the reference loop, in ms."""
    times = []
    for _ in range(repeats):
        t0 = _clock()
        loop()
        times.append((_clock() - t0) * 1000.0)
    return statistics.median(times)


class Speed:
    """Timestamped calibration samples and the scale they give a time span.

    Use as a context manager to take a sample every EVERY_S from SIGALRM;
    ``sampling_s`` accumulates the time spent in samples, which callers
    subtract from the spans they time.
    """

    def __init__(self):
        self.times: list = []
        self.cal_ms: list = []
        self.sampling_s = 0.0

    def sample(self, *_signal_args) -> None:
        t0 = _clock()
        loop()
        t1 = _clock()
        self.times.append(t0)
        self.cal_ms.append((t1 - t0) * 1000.0)
        self.sampling_s += _clock() - t0

    def sample_if_due(self) -> None:
        if not self.times or _clock() - self.times[-1] >= EVERY_S:
            self.sample()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """REF_MS over the mean sample time during [start, end] and on
        either side of it."""
        lo = max(bisect.bisect_left(self.times, start) - 1, 0)
        hi = bisect.bisect_right(self.times, end) + 1
        near = self.cal_ms[lo:hi] or [REF_MS]
        return REF_MS / statistics.fmean(near)
