"""Host-speed probe: scales timed sections to a reference host speed.

On a shared host a vCPU can switch, many times a second and sometimes
for tens of seconds, between its full speed and a state about 2x
slower (another tenant busy on the same physical core).  A run's raw
times then depend on how much of it fell in the slow state, which
varies from run to run far more than the code's own cost.

While a section (a set-up or a unit) is timed, SIGALRM fires every
INTERVAL_S of wall time and runs a fixed numpy kernel, recording its
duration; one more sample is taken just before and just after the
section.  The mean sample over a section measures how fast the host
ran during it, and the section's time is scaled by

    REFERENCE_S / mean(min(sample, CLIP * REFERENCE_S))

REFERENCE_S is the kernel's time on the host the benchmark was built
on (Intel Xeon vCPU at 2.0 GHz) in its fast state, so a scaled time is
the section's time on that host running at full speed.  Samples are
clipped because one that is descheduled for a time slice would
otherwise weigh hundreds of times more than it costs the section.  The
kernel takes ~3 us per iteration; at KERNEL_ITERS and INTERVAL_S it
costs under 1% of the timed work.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.01
KERNEL_ITERS = 20
REFERENCE_S = 6.0e-5
CLIP = 3.0

_VECTOR = np.linspace(-1.0, 1.0, 64)


def kernel() -> float:
    """Duration of the fixed probe kernel: small numpy calls from Python."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(KERNEL_ITERS):
        acc += float((_VECTOR * 0.5 + 1.0).sum())
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the kernel while timed sections run.

    Creating one installs its SIGALRM handler for the rest of the
    process; outside a section the handler does nothing, so a signal
    still pending when a section ends is harmless.
    """

    def __init__(self):
        self._section: list[float] | None = None
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._section is not None:
            self._section.append(kernel())

    @contextmanager
    def section(self):
        """Sample the host while the block runs; yields the section's samples."""
        taken = [kernel()]
        self._section = taken
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield taken
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            self._section = None
            taken.append(kernel())


def slowdown(samples: list[float]) -> float:
    """How many times slower than the reference the host ran over the samples."""
    return float(np.minimum(samples, CLIP * REFERENCE_S).mean()) / REFERENCE_S
