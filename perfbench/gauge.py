"""Machine-speed gauge: a fixed kernel, independent of dcopt, read between
the timed phases of a rep so that each phase can be given at one speed.

Shared hosts change speed under a benchmark.  On a 2-vCPU guest of a shared
host, the same pure-Python loop took 5.5 ms or 10 ms within the same minute,
switching every second or two, and a dense 400 x 400 product with a 200 x 200
``eigvalsh`` moved 1.35x with it.  The dcopt flows moved 1.3x (ring set-up,
LAPACK-bound) to 1.7x (per-vector verification, interpreter-bound), and a
run's share of fast time differed from run to run, so raw wall times spread
by half between runs of the same code.

The gauge's kernel has the two kinds of work the flows do, timed apart:
interpreter dispatch over tiny arrays, and BLAS and LAPACK on dense
matrices.  One reading is a slowness: the mean of each part's time over its
time at the reference speed (1.0 when the host runs at the reference
speed).  The flows respond to the host's speed somewhere between the two
parts.  Weighting the interpreter part alone over-corrected the sweep, and a
reading with a third of its time in that part under-corrected it.  Equal
weights held the quartile spread of ten 30 s runs within 7.5% on every
workload with one constant for all.  The gauge is read before and after each
phase and, from a one-shot ``SIGALRM`` timer, every ``PERIOD_S`` inside it,
so no stretch of a phase is longer than the host's speed stays put.  A
stretch that took ``t`` seconds between readings ``s0`` and ``s1`` counts as
``t / mean(s0, s1)``: the time it would take at the reference speed.  The
readings' own time is left out.  A change to dcopt does not move the gauge,
so it moves the scaled times by as much as the raw ones.
"""

import signal
import time

import numpy as np

PY_LOOPS = 5000        # interpreter part
MATMULS = 2            # BLAS part: 400 x 400 by 400 x 200, then a 200 x 200 eigvalsh
PY_REF_S = 0.0045      # the parts' typical times on a 2-vCPU shared host
BLAS_REF_S = 0.0068
PY_SHARE = 0.5         # weight of the interpreter part in a reading
PERIOD_S = 0.2         # time between readings inside a phase


class Gauge:
    """Reads the machine's slowness and scales phase times to the reference
    speed.

    Use it inside ``with gauge:``, which owns ``SIGALRM`` for the block.
    Set ``sample_inside`` to False to read only at phase edges (as a traced
    rep does, so that no reading lands inside a recorded span).
    """

    def __init__(self):
        self.sample_inside = True
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal(8)
        self._L = rng.standard_normal((400, 400))
        self._Q = rng.standard_normal((400, 200))
        S = rng.standard_normal((200, 200))
        self._S = S + S.T
        self.readings = []
        self._last = None
        self._in_phase = False
        self._previous_handler = None
        self._t0 = self._raw = self._scaled = 0.0

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def read(self):
        """Time both parts of the kernel; return the slowness.  The reading
        also starts the next stretch."""
        a, acc = self._small, 0.0
        t0 = time.perf_counter()
        for i in range(PY_LOOPS):
            acc += float(np.abs(a[i & 7]) + a[(i + 3) & 7])
        t1 = time.perf_counter()
        for _ in range(MATMULS):
            self._L @ self._Q
        np.linalg.eigvalsh(self._S)
        t2 = time.perf_counter()
        py, blas = t1 - t0, t2 - t1
        self.readings.append((py, blas))
        self._last = PY_SHARE * py / PY_REF_S + (1.0 - PY_SHARE) * blas / BLAS_REF_S
        return self._last

    def _close_stretch(self):
        """End the stretch begun at ``self._t0``: read, then add its time."""
        t = time.perf_counter() - self._t0
        before = self._last
        after = self.read()
        self._raw += t
        self._scaled += t / (0.5 * (before + after))

    def _on_alarm(self, signum, frame):
        if not self._in_phase:          # a late alarm after its phase ended
            return
        self._close_stretch()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        self._t0 = time.perf_counter()

    def phase(self, fn, *args, **kwargs):
        """Run ``fn``; return (its result, raw seconds, seconds at the
        reference speed).

        The reading taken after the phase is shared with the next one, so
        phases run back to back cost one reading each at their edges."""
        if self._last is None:
            self.read()
        self._raw = self._scaled = 0.0
        self._in_phase = True
        if self.sample_inside:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        self._t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._in_phase = False
        self._close_stretch()
        return out, self._raw, self._scaled
