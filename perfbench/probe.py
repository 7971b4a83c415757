"""Host-speed probe: convert measured time to reference-core seconds.

The benchmark runs on a few virtual CPUs of a shared host.  Whatever the
host puts on the same physical core changes how fast our process runs: on
a 2-vCPU KVM guest of a Xeon (Sapphire Rapids) host the same single-threaded
iteration took from 4.2 s to 9.2 s of wall time, and process CPU time read
the same as wall time, so neither can be compared between runs.

A ``Sampler`` measures the host's speed while the program runs.  A timer
signal interrupts the process every ``INTERVAL_S``; the handler times one
pass of a fixed probe (``_probe``).  The probe never changes, so its mean time
over a window tells how fast the core ran during that window.  A time is
reported in reference-core seconds: the program's own time (the window's
wall time minus the time spent in the probe) scaled by
``NOMINAL_PROBE_S / mean probe time``.  On a core that runs the probe in
``NOMINAL_PROBE_S`` that is plain wall time.  On the host above, over ten
40-second runs per workload, the interquartile range over median of the
reported time was 0.033 (dfm_default), 0.117 (model_free_long) and 0.026
(cli_pipeline), against 0.072, 0.175 and 0.072 for plain wall time.

Limits: Python runs signal handlers between bytecodes of the main thread, so
a long call into C delays a sample.  The probe runs after the program has
used the caches, so a program change that alters its cache footprint moves
the probe's time a little as well.  Contention that slows the program more
than the probe is not removed; that residue is most of model_free_long's
spread.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
# Mean time of one probe pass inside the timed section on the host above;
# it only fixes the scale of the reported seconds.
NOMINAL_PROBE_S = 400e-6

_RNG = np.random.default_rng(0)
_VEC = np.linspace(0.0, 1.0, 11)
_MAT = _RNG.standard_normal((11, 32))
_SQUARE = _RNG.standard_normal((64, 64))


class _Item:
    __slots__ = ("value", "key")

    def __init__(self, value, key):
        self.value = value
        self.key = key


def _probe():
    """One pass: interpreter work on small objects, then small numpy calls.

    The mix follows dvfsflow's own: per-transition Python code, vector-matrix
    products on 11-wide states and matrix products of network layers.
    """
    items = [_Item(float(i), i & 7) for i in range(150)]
    totals = {}
    for item in items:
        totals[item.key] = totals.get(item.key, 0.0) + item.value * 1.5
    items.sort(key=lambda item: -item.value)
    for _ in range(15):
        np.tanh(_VEC @ _MAT)
    for _ in range(6):
        np.tanh(_SQUARE @ _SQUARE)


class Sampler:
    """Time the probe on a timer signal between ``start`` and ``stop``."""

    def __init__(self):
        self.samples = []
        self.began = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        _probe()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.began = time.perf_counter()

    def stop(self):
        """End the window; return its (wall seconds, probe samples)."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return time.perf_counter() - self.began, list(self.samples)


def reference_seconds(elapsed, samples):
    """``elapsed`` wall seconds, probe time removed, at the nominal core speed.

    A window too short to hold a sample is returned unscaled.
    """
    own = elapsed - sum(samples)
    if not samples:
        return own
    return own * NOMINAL_PROBE_S / statistics.fmean(samples)
