"""How fast the host runs right now, sampled from a timer signal.

Other tenants of the host slow its CPUs by up to 2x for tens of seconds at
a time; on the 2-core x86 VM this benchmark was tuned on, a fixed
pure-Python loop ran between 132 and 290 ms per chunk within one minute.
No run is long enough to average that out. So while it measures, the
benchmark times a tiny fixed loop (the probe) from a SIGALRM handler every
PERIOD_S seconds. The probe shares no code or state with the program and
allocates nothing. A measured time divided by the median probe time taken
during it, times REF_PROBE_S, is the time at the reference speed: most of
the host's drift cancels, while a change in the program's speed does not.
The probes add about 1% to every measured time, the same for any program.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.2
PROBE_ITERATIONS = 20_000
REF_PROBE_S = 0.0017  # the probe's median time on the tuning VM


class HostSpeed:
    """Samples probe times between start() and stop(), or in a with block."""

    def __init__(self) -> None:
        self.at: list[float] = []  # when each probe ran
        self.took: list[float] = []  # how long it took

    def start(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def __enter__(self) -> "HostSpeed":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        x = 0
        for i in range(PROBE_ITERATIONS):
            x += i * i
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def scale(self, seconds: float, start: float, end: float) -> float:
        """seconds, measured over [start, end], at the reference speed. Uses
        the probes inside the window plus the nearest one on each side."""
        lo = max(0, bisect.bisect_left(self.at, start) - 1)
        hi = bisect.bisect_right(self.at, end) + 1
        window = self.took[lo:hi]
        if not window:
            return seconds
        return seconds * REF_PROBE_S / statistics.median(window)
