"""Host-speed sampling, so that timings of one program on a shared host agree.

On a shared 2-core host the same pure-Python work runs up to 2x slower
while neighbours load the core, in phases lasting seconds, with CPU time
equal to wall time (no steal).  A raw pass time therefore mixes the
program's cost with the host's phase.  The sampler runs a fixed micro-loop
(`probe`) from a SIGALRM handler every `period` seconds, in the same thread
and on the same core as the measured work, and converts a wall interval
into reference seconds: seconds on a host where one probe takes
PROBE_REF_S.  A reference time is the interval minus the probes' own time,
times the mean of PROBE_REF_S / probe duration over the interval.
"""

import signal
from time import perf_counter

PROBE_REF_S = 0.0002


def probe():
    """A fixed dict-and-int loop, the same kind of work as the sparse kernel."""
    acc = {}
    for i in range(1000):
        k = i % 251
        acc[k] = acc.get(k, 0) + i * i
    return acc


class Sampler:
    """Collects probe durations on a wall-clock timer; one per process."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        probe()
        d = perf_counter() - t0
        self.samples.append(d)
        self.spent += d

    def start(self, period: float):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        return len(self.samples), self.spent

    def _window(self, since: tuple) -> list:
        window = self.samples[since[0]:] or self.samples
        if not window:
            raise RuntimeError("no host-speed sample in the interval")
        return window

    def reference_seconds(self, wall: float, since: tuple) -> float:
        """`wall` seconds measured since `mark()` returned `since`, in reference seconds."""
        window = self._window(since)
        factor = sum(PROBE_REF_S / d for d in window) / len(window)
        return (wall - (self.spent - since[1])) * factor

    def median_probe(self, since: tuple) -> float:
        """Median probe duration since `mark()` returned `since`: the host's speed."""
        window = sorted(self._window(since))
        return window[len(window) // 2]
