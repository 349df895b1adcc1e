"""Reference seconds: wall times corrected for the host's drifting speed.

On a shared host the speed of a core drifts by a third or more over
seconds to minutes as other tenants load the machine, and the drift
moves every wall time alike, so two runs of the same code can differ by
more than a change worth detecting. The benchmark therefore measures
the host's speed while it measures a job: a fixed pure-Python loop of
1,000 GF(2^7) products (``reference.Field``, the benchmark's own code,
which no change to condlab touches) is timed ``EDGE_SAMPLES`` times just
before and just after the job (only after, for a set-up), and once every
``PERIOD_S`` during it by a ``Sampler`` thread. The job's wall time
scaled by ``REF_LOOP_S`` over the median sample is its time in reference
seconds: seconds on a core where the loop takes ``REF_LOOP_S``.

The sampling thread takes the interpreter lock for about a millisecond
every ``PERIOD_S``, which slows a job by about 2%, the same on every
commit. Its own CPU time is reported so that callers can leave it out.

The correction assumes the job leaves a core for the loop. A job that
keeps every core busy (worker processes, or threads that release the
interpreter lock) slows the loop as well, and its reference seconds
then understate its wall time: judge such a change on the raw
``*_wall_s`` figures beside them too.
"""

from __future__ import annotations

import statistics
import threading
import time

import reference

EDGE_SAMPLES = 8
PERIOD_S = 0.05
REF_LOOP_S = 0.001

_MUL = reference.Field(7).mul


def loop_seconds() -> float:
    """Seconds of one run of the calibration loop."""
    mul = _MUL
    t0 = time.perf_counter()
    for a in range(1, 101):
        for b in range(1, 11):
            mul(a, b)
    return time.perf_counter() - t0


def edge_samples() -> list:
    return [loop_seconds() for _ in range(EDGE_SAMPLES)]


def ref_seconds(wall, samples) -> float:
    """Wall seconds measured while the loop took ``samples``, in
    reference seconds."""
    return wall * REF_LOOP_S / statistics.median(samples)


class Sampler:
    """Context manager that times the loop once every ``PERIOD_S`` on a
    thread while its block runs; afterwards ``samples`` holds the
    samples and ``cpu_s`` the thread's CPU seconds."""

    def __init__(self):
        self.samples = []
        self.cpu_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-sampler", daemon=True)

    def _sample(self):
        cpu0 = time.thread_time()
        while not self._stop.wait(PERIOD_S):
            self.samples.append(loop_seconds())
        self.cpu_s = time.thread_time() - cpu0

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False
