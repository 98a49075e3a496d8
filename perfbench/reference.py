"""The host-speed reference that host times are scaled by.

On a 2-vCPU cloud VM shared with other tenants, the host's speed drifts
from one second to the next: within one 20-second stream a fixed piece of
work took up to 2.4 times as long in one second as in another, and the
checkpoint times of the stream moved between a ~21 ms and a ~36 ms
plateau with it.  A pure-ALU loop measured once per run
(``calibration_spin()``) does not follow those drifts; a small piece of
Python object churn sampled while the stream runs does.

So every stream samples :func:`reference_seconds` every ``INTERVAL_S``,
from a timer signal so that a long call is sampled while it runs (a
deploy with dedup on takes seconds), and each timed call is multiplied by
``NOMINAL_S / r``, where ``r`` is the median of the samples taken while
the call ran or within ``WINDOW_S`` of it: the time the call would take
on a host where the reference takes ``NOMINAL_S``.  Times are read from
:meth:`Sampler.clock`, which stops while a sample is taken, so the
samples cost the program nothing.  Scaling each call by the speed of the
host *at that time*, rather than a whole run by its median speed, is what
keeps percentiles steady: over ten seeds of each workload, the largest
run-to-run spread (quartile distance over median) of a host-time metric
was 0.44 raw, 0.29 with one factor per run and 0.12 with a factor per
call.  The calls slow down less than the reference in a slow spell (over
whole runs, stream time went as the reference time to the power 0.6-0.75),
so a slow spell is somewhat over-corrected; scaling by a power below 1 did
not lower the spreads.  The raw times, their start times and the samples
are kept in the run's record.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter
from typing import List, Sequence, Tuple

#: a typical reference time on that VM; only a scale, the same for every
#: commit measured
NOMINAL_S = 0.007
#: host seconds between two reference samples during a stream
INTERVAL_S = 0.1
#: a call is scaled by the samples at most this many seconds outside it
WINDOW_S = 0.1


def reference_seconds() -> float:
    """Host seconds for a fixed piece of dict and str churn."""
    started = perf_counter()
    table = {}
    for i in range(20_000):
        table[i] = str(i) * 3
    sum(len(value) for value in table.values())
    return perf_counter() - started


class Sampler:
    """Takes a reference sample every ``INTERVAL_S`` while in its ``with``
    block, from ``SIGALRM``; :meth:`clock` is the host clock less the time
    spent sampling."""

    def __init__(self):
        #: time-ordered (time on :meth:`clock`, seconds) samples
        self.samples: List[Tuple[float, float]] = []
        #: host seconds spent taking them
        self.spent = 0.0
        self._origin = perf_counter()
        self._busy = False
        self._previous = None

    def clock(self) -> float:
        return perf_counter() - self._origin - self.spent

    def _sample(self, *_signal) -> None:
        if self._busy:  # a sample that outlasted the interval
            return
        self._busy = True
        started = perf_counter()
        at = started - self._origin - self.spent
        self.samples.append((at, reference_seconds()))
        self.spent += perf_counter() - started
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()


def local_factors(at: Sequence[float], ms: Sequence[float],
                  samples: Sequence[Tuple[float, float]], window: float = WINDOW_S) -> List[float]:
    """``NOMINAL_S / r`` for each call starting at ``at`` (seconds) and
    lasting ``ms`` (milliseconds), ``r`` being the median of the ``samples``
    (time-ordered ``(time, seconds)`` pairs) from ``window`` before the call
    to ``window`` after it, or the nearest sample when there is none."""
    times = [t for t, _ in samples]
    factors = []
    for t, duration in zip(at, ms):
        lo, hi = bisect_left(times, t - window), bisect_right(times, t + duration / 1e3 + window)
        if lo == hi:
            nearest = min(range(len(times)), key=lambda i: abs(times[i] - t))
            lo, hi = nearest, nearest + 1
        factors.append(NOMINAL_S / statistics.median(s for _, s in samples[lo:hi]))
    return factors
