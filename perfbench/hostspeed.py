"""Host-speed sampling, and the reference clock the benchmark times with.

The shared host's own speed swings: a fixed pure-Python loop, timed
back to back for a minute on a 2-core container, ran between 0.83x and
1.30x of its median over 5-second windows, with CPU time equal to wall
time.  Repetition within a 20-second run does not average that away,
and it moved whole runs by up to 25 %.

While the sampler runs, a ``SIGALRM`` interval timer interrupts the
process every ``interval`` host seconds and times a fixed reference
loop.  :meth:`HostSpeed.clock` advances by host time, minus the time
spent sampling, scaled by the speed the last sample read (left-point
rule, so the clock never runs backwards).  A reference second is a host
second at the reference speed, where the loop takes ``REFERENCE_S``.
The correction is partial: across passes of one workload, the
program's speed moved by 0.8-0.9x (mesh_echo) of the loop's.  The
sampler touches no program state, so the simulated schedule is
unchanged.
"""

from __future__ import annotations

import signal
import time

#: Iterations of the reference loop, about 2 ms of work.
LOOP_ITERATIONS = 12_000
#: Host seconds of one reference loop at the reference speed: about its
#: median on the machine the benchmark was defined on (2-core x86-64
#: container, Python 3.11).
REFERENCE_S = 0.0018


def reference_loop() -> float:
    """Host seconds of one fixed pure-Python dict loop."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(LOOP_ITERATIONS):
        key = i & 255
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def sample_speed() -> float:
    """Host speed now, as a multiple of the reference speed."""
    return REFERENCE_S / reference_loop()


class HostSpeed:
    """Samples host speed on a timer; :meth:`clock` reads reference
    seconds.  Until :meth:`start`, the clock is plain host time."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        #: Host seconds spent inside samples.
        self.sampled_s = 0.0
        self.speeds: list[float] = []
        self._ref = 0.0
        self._mark: float | None = None
        self._speed = 1.0
        self._sampling = False
        # Bumped by every sample, so a read the timer interrupted retries.
        self._generation = 0

    def host(self) -> float:
        """Host seconds, not counting the time spent sampling."""
        while True:
            generation = self._generation
            value = time.perf_counter() - self.sampled_s
            if generation == self._generation:
                return value

    def _sample(self, *_signal_args) -> None:
        if self._sampling:  # a timer tick during a sample
            return
        self._sampling = True
        begin = time.perf_counter()
        now = begin - self.sampled_s
        speed = sample_speed()
        if self._mark is not None:
            self._ref += (now - self._mark) * self._speed
        self._mark, self._speed = now, speed
        self.speeds.append(speed)
        self._generation += 1
        self.sampled_s += time.perf_counter() - begin
        self._sampling = False

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def pause(self) -> None:
        """Stop the timer; the clock keeps the last speed read."""
        signal.setitimer(signal.ITIMER_REAL, 0)

    def resume(self) -> None:
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """Reference seconds since :meth:`start` (host seconds before)."""
        while True:
            generation = self._generation
            host = time.perf_counter() - self.sampled_s
            if self._mark is not None:
                host = self._ref + (host - self._mark) * self._speed
            if generation == self._generation:
                return host

