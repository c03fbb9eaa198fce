"""Machine-speed sampling for the benchmark's timings.

On a small shared virtual machine the speed of identical work drifts: it
switches between a fast and a slow state (about 1.5x apart) every second or
so, and the share of slow time changes over minutes.  The guest sees no
steal time for it (README, "Machine-speed scaling").  While ``sampling()``
is open, a SIGPROF timer runs a short fixed pure-Python loop after every
SAMPLE_EVERY_S of the process's CPU time and records how fast it ran.  ``measure`` then
gives a call's wall time, less the time spent in the sampler, and the mean
speed sampled over it; their product is the call's time at the reference
speed, the speed at which one round of the loop takes REF_S.

The loop imports nothing and calls no solver code and no numpy, so no change
to the solver can change its time; only the machine can.  It takes about 1%
of the process's time.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time

ITERS = 4_000
# round time of the loop on the 2-core x86-64 machine of README, "Timing
# noise", in its fast state
REF_S = 0.00062
SAMPLE_EVERY_S = 0.1
# a call shorter than this is given the speed sampled over the last WINDOW_S
WINDOW_S = 1.0
# samples taken at once on either side of a call to ``measure``
BRACKET = 20

_times: list[float] = []  # perf_counter at the end of each sample
_speeds: list[float] = []  # REF_S over the sample's round time
_spent = 0.0  # seconds spent in the sampler so far


def _loop(iters: int) -> float:
    acc, x, seen = 0, 0.5, []
    for i in range(iters):
        acc = (acc + i * i) % 1_000_003
        x = x * 0.999 + 0.001 * (i & 7)
        if i & 63 == 0:
            seen.append(acc)
    return x + len(seen)


def _sample(signum, frame) -> None:
    global _spent
    t0 = time.perf_counter()
    _loop(ITERS)
    t1 = time.perf_counter()
    _spent += t1 - t0
    _times.append(t1)
    _speeds.append(REF_S / (t1 - t0))


@contextlib.contextmanager
def sampling():
    """Sample the machine's speed while the block runs."""
    previous = signal.signal(signal.SIGPROF, _sample)
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def speed_between(t0: float, t1: float) -> float:
    """Mean sampled speed over [min(t0, t1 - WINDOW_S), t1]; 1.0 with no samples."""
    lo = bisect.bisect_left(_times, min(t0, t1 - WINDOW_S))
    hi = bisect.bisect_right(_times, t1)
    window = _speeds[lo:hi] or _speeds[-1:]
    return sum(window) / len(window) if window else 1.0


def spent() -> float:
    """Seconds spent in the sampler so far."""
    return _spent


def _sample_now() -> None:
    """Take BRACKET samples at once, with the timer's signal held back."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
    try:
        for _ in range(BRACKET):
            _sample(signal.SIGPROF, None)
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGPROF})


def measure(fn):
    """Call ``fn`` with samples taken right before and after it, as the timer
    takes none while the process waits; returns (its result, wall seconds
    less the sampler's time, mean speed over the call and the samples)."""
    start = time.perf_counter()
    _sample_now()
    t0, spent0 = time.perf_counter(), _spent
    result = fn()
    t1, spent1 = time.perf_counter(), _spent
    _sample_now()
    return result, (t1 - t0) - (spent1 - spent0), speed_between(start, time.perf_counter())
