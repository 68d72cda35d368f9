"""Host-speed probe: times a fixed reference kernel while srings runs.

The speed of a shared host changes by tens of percent within seconds, in
srings and in any other code alike.  A SpeedProbe runs reference_kernel
from a SIGALRM handler every REF_PERIOD_S of wall time while a request
runs, so its samples show the speed the host ran at during the request;
samples taken only between requests would miss it.  The kernel is pure-Python integer work that does
not touch srings and allocates no containers, so it never sets off a
garbage collection whose cost would depend on what srings left on the heap.
"""

import signal
from time import perf_counter

REF_LOOPS = 14_000  # one kernel run takes about 1 ms on the baseline host
REF_PERIOD_S = 0.05


def reference_kernel() -> int:
    s = 0
    for i in range(REF_LOOPS):
        s += i * i
    return s


class SpeedProbe:
    """Collects the kernel's run times in ``samples``.

    Creating a probe installs its SIGALRM handler; the timer runs only inside
    ``with probe:``.  Keep writes to pipes and files outside that block: a
    signal that lands in a large write to a pipe can lose part of it.
    close() puts the previous handler back.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        reference_kernel()
        self.samples.append(perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def close(self) -> None:
        signal.signal(signal.SIGALRM, self._previous)
