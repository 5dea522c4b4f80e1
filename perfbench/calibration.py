"""Machine-speed calibration for the benchmark's timings.

The shared host the benchmark runs on changes speed by 20-80 % from one
second to the next (busy neighbours on the same core and the same memory
caches), and every wall time of a run moves with it. ``calibrate()`` times a
fixed piece of pure-Python work of the kinds the program does: building a
dict with tuple and string keys, iterating it and a keyed sort (interpreter
bound), then reads at random places in an 8 MiB buffer (bound by the shared
cache, as the program's larger graphs are). A ``Speed`` runs it before every
query and, from a timer, every INTERVAL_S inside a query that runs longer
than LONG_S; each time is reported scaled to a reference speed:

    scaled = (wall time - calibration time inside it)
             * (REFERENCE_S / median calibration within SPAN_S of it) ** SENSITIVITY

that is, the time the work would take where one calibration takes
``REFERENCE_S`` (about its median on a 2-vCPU Xeon VM). The program's
times move less than the calibration's between the host's fast and slow
phases: regressing one on the other over 0.25-s windows of long runs gave
slopes of 0.7-0.9 (log scale), and SENSITIVITY = 0.8 gave the steadiest
per-run medians and tails on fixture-mix, clique-bridge and wide-interface.
The calibration touches no program code, so a change to the program moves a
scaled time in the same proportion as its wall time.
"""

from __future__ import annotations

import bisect
import contextlib
import random
import signal
import statistics
from time import perf_counter

REFERENCE_S = 0.4e-3
ROUNDS = 400
READS = 1600
LONG_S = 0.5
INTERVAL_S = 0.1
SPAN_S = 0.25
SENSITIVITY = 0.8

_rng = random.Random("calibration")
_BUFFER = bytearray(b"\x01") * (8 << 20)  # written, so every page is real
_PLACES = [_rng.randrange(len(_BUFFER)) for _ in range(READS)]


def _work() -> None:
    table = {}
    for i in range(ROUNDS):
        k = (i * 7919) % 100003
        table[(k, str(k))] = [k, k + 1]
    total = 0
    for (_, text), pair in table.items():
        total += pair[0] + len(text)
    sorted(table, key=lambda key: key[0] % 97)
    buffer = _BUFFER
    for place in _PLACES:
        total += buffer[place]


def calibrate() -> float:
    """Seconds the fixed calibration work takes now. A first, untimed pass
    refills the caches and the allocator's free lists after the program,
    so the time reflects the machine rather than what ran before."""
    _work()
    start = perf_counter()
    _work()
    return perf_counter() - start


class Speed:
    """Calibrations taken through a timed phase (between ``start()`` and
    ``stop()``), with the intervals they took: one right before every query,
    one at the end, and inside a query that runs longer than LONG_S, every
    INTERVAL_S."""

    def __init__(self):
        self.entered: list[float] = []  # calibration start times, ascending
        self.left: list[float] = []  # calibration end times
        self.seconds: list[float] = []  # calibration times
        self._previous = None

    def sample(self, signum=None, frame=None) -> None:
        entered = perf_counter()
        seconds = calibrate()
        self.entered.append(entered)
        self.seconds.append(seconds)
        self.left.append(perf_counter())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self.sample)

    def stop(self) -> None:
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    @contextlib.contextmanager
    def query(self):
        """Around one query: calibrate right before it, and inside it if it
        runs long. Short queries are never interrupted, and every query
        starts after the same work, whatever the benchmark did before it."""
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, LONG_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def inside(self, start: float, end: float) -> float:
        """Seconds the calibrations took between ``start`` and ``end``."""
        lo = bisect.bisect_left(self.entered, start)
        hi = bisect.bisect_left(self.entered, end)
        return sum(min(self.left[i], end) - self.entered[i] for i in range(lo, hi))

    def factor(self, start: float, end: float) -> float:
        """Scale factor for work done from ``start`` to ``end``, from the
        median calibration within SPAN_S of that interval (always including
        the calibrations just before and after it)."""
        lo = max(0, bisect.bisect_left(self.entered, start - SPAN_S) - 1)
        hi = bisect.bisect_right(self.entered, end + SPAN_S) + 1
        return scale(statistics.median(self.seconds[lo:hi]))


def scale(calibration_s: float) -> float:
    """Factor that takes a time measured where one calibration took
    ``calibration_s`` to the reference speed."""
    return (REFERENCE_S / calibration_s) ** SENSITIVITY
