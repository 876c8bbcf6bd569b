"""Wall time corrected for the machine's momentary speed.

On the shared 2-vCPU host this benchmark was tuned on, the same
single-threaded work can take 1.5 times as long from one minute to the next,
and the slowdown also varies at the scale of milliseconds: a 1.3 ms
pure-Python loop repeated for 10 s took 1,076 us at the 1st percentile,
1,332 us at the median and 1,612 us at the 90th.  The process's CPU time
grows with its wall time throughout, so the host does not report this as
stolen time.  Raw run times of ten identical benchmark runs spread by
0.08 to 0.54 (quartile distance over median; see perfbench/README.md).

So while a measurement is open, a timer signal runs a fixed probe every
PERIOD_S seconds, and the measured call's time is rescaled by how slowly the
probe ran meanwhile:

    corrected = (wall - probe time) * REFERENCE_S / mean probe time

The result reads as seconds on a machine where the probe takes REFERENCE_S.
The probe and the statistic were chosen by measurement, on flagship steers
at dt = 1/200 (about 6 s each) in 12 processes run one after another: raw
times spread by 0.32, and corrected ones by 0.041 with this probe and its
mean.  A pure-Python loop as the probe gave 0.068 with its lower quartile
and 0.144 with its mean: the library's work slows down on a busy host the
way small numpy calls do, not the way the interpreter loop does.  The
probes cost about 1.5% of the measured time; the raw times are reported
beside the corrected ones.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
REFERENCE_S = 400e-6  # about the probe's mean time on this host

_ROWS = np.random.default_rng(0).standard_normal((26, 16))


def _probe_work():
    """About 0.4 ms of small-array numpy calls, the library's commonest kind
    of work (per-node forcing over a delay window).  The rows are copied on
    every call, so their memory placement varies from call to call."""
    rows = _ROWS.copy()
    weights = np.exp(np.linspace(-0.25, 0.0, 26))
    for _ in range(6):
        stacked = np.stack([0.05 * v for v in rows])
        float((weights @ stacked).sum()) + float(np.linalg.norm(rows[3]))


class SpeedClock:
    """Installs its probe as the process's SIGALRM handler."""

    def __init__(self):
        self._region = None
        self.last_wall = 0.0
        self.last_probes = []
        signal.signal(signal.SIGALRM, self._probe)

    def _probe(self, *_):
        if self._region is None:  # a timer signal that arrived late
            return
        t0 = time.perf_counter()
        _probe_work()
        self._region.append(time.perf_counter() - t0)

    def measure(self, fn):
        """Call fn() and return its result.  Afterwards, also when fn raised,
        last_wall holds the call's wall seconds without the probes and
        last_probes the probe durations taken around it."""
        self._region = []
        self._probe()  # one probe just before, so a short call has one too
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self.last_probes, self._region = self._region, None
            self.last_wall = wall - sum(self.last_probes[1:])

    def corrected(self) -> float:
        """The last measured call's time, corrected for machine speed."""
        return correct(self.last_wall, self.last_probes)


def correct(wall: float, probes) -> float:
    """wall scaled by REFERENCE_S over the mean of probes."""
    return wall * REFERENCE_S / statistics.fmean(probes)
