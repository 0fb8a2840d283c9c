"""Samples the host's speed while a timed pass runs.

The machine the benchmark runs on is shared.  Its speed drifts by a quarter
and more, in phases that last from seconds to minutes (see README.md), and
a pass time alone swings with it.  While a timed pass runs, an interval
timer interrupts the process ten times a second, and the signal handler
times one probe: a fixed run of interpreter steps that uses nothing from the
library.  The probes run in the pass's own thread, spread over its whole
length, so their mean duration is the host's speed over the same seconds
the pass ran.  ``wall_rel``, the pass time divided by the mean probe, keeps
the program's speed and drops most of the host's.

A probe touches a few kilobytes, so the program's use of the caches does not
move it: its duration inside a pass matches its duration on an idle
process.  Probes that also ran numpy on fresh temporaries or streamed a
megabyte took up to twice as long inside a pass as idle, tracked the program
as well as the host, and steadied ``wall_rel`` less.  The probes take about
0.5% of a pass; their time is taken out of the pass time.
"""

import signal
import time

INTERVAL_S = 0.1
PROBE_STEPS = 4_000      # about 0.5 ms


class SpeedProbe:
    """Times probes during :meth:`start` ... :meth:`stop`."""

    def __init__(self):
        self.probes_s = []

    def probe(self):
        """Run one probe and record its duration."""
        t0 = time.perf_counter()
        acc = 0
        for k in range(PROBE_STEPS):
            acc = (acc + k * k) % 1_000_003
        self.probes_s.append(time.perf_counter() - t0)

    def start(self):
        """Clear the probes, take one at once and then one every INTERVAL_S."""
        self.probes_s = []
        self.probe()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Stop the timer; returns the probes taken since :meth:`start`."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.probes_s
