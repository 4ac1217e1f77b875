"""Machine-speed probe: the benchmark's end-to-end times are scaled to one speed.

The 2-core virtual machine this benchmark was built on shares its host with
other tenants, and its interpreter speed moved by up to 50% within minutes:
the same small_many pass took 3.1 s in one run and 5.4 s in another, so raw
times from identical runs spread by 25%. The benchmark therefore samples the
interpreter's speed while it measures. Every PERIOD seconds a SIGALRM handler
times `probe()`, a fixed piece of pure-Python work, and each job's latency is
multiplied by REFERENCE_S / (median probe time during that job): the time the
job would have taken with the probe at REFERENCE_S. A job too short to hold
MIN_SAMPLES samples takes the median of its whole pass. Raw times are printed
next to the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD = 0.01
MIN_SAMPLES = 5
REFERENCE_S = 20e-6  # about the probe's median on the machine above in a quiet spell


def probe() -> int:
    """Fixed work for the interpreter loop: integer arithmetic, no allocation.

    Of the probes tried, this one tracked pass times best; probes that also
    allocate and hash slowed by about twice as much as the workloads did.
    """
    acc = 0
    for i in range(400):
        acc += i * i
    return acc


def timed_probe() -> float:
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


class Sampler:
    """Times the probe every PERIOD seconds of wall time while started."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds inside the handler, taken out of job latencies

    def _handler(self, signum, frame) -> None:
        took = timed_probe()
        self.samples.append(took)
        self.spent += took

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        """Stop sampling; an interval too short for MIN_SAMPLES gets the rest now."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(timed_probe())

    def factor(self, since: int = 0) -> float | None:
        """The factor scaling times since sample `since` to REFERENCE_S, or None
        with fewer than MIN_SAMPLES samples to go on."""
        taken = self.samples[since:]
        return REFERENCE_S / statistics.median(taken) if len(taken) >= MIN_SAMPLES else None
