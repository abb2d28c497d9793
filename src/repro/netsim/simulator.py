"""Discrete-event simulation engine.

Everything in the reproduction runs on virtual time provided by
:class:`Simulator`.  Events are callbacks scheduled at absolute virtual
times; ties are broken by insertion order, which makes runs fully
deterministic for a given seed.

The queue (DESIGN.md §10) is one binary heap of plain ``(time, seq,
event)`` tuples, so sift comparisons stay in C (``seq`` is unique, so
comparison never reaches the event object).  DESIGN.md §16 records
why the hierarchical timer wheel that once ran beside it was removed.

Cancellation is lazy — a cancelled entry stays queued until it
surfaces at the top of the heap or until cancelled entries outnumber
live ones, at which point the heap is compacted.  :class:`Timer`
absorbs the cancel/reschedule churn of retransmission timers and
heartbeats by re-arming in place: pushing the deadline out does not
touch the queue at all.
"""

from __future__ import annotations

import heapq
import random
from math import inf
from typing import Any, Callable, Optional

#: Compaction threshold: never compact queues smaller than this (the
#: rebuild cost would exceed the lazy-pop cost it saves).
_COMPACT_MIN = 64

#: ``max_events`` stand-in when the caller gave none.
_NO_BUDGET = 1 << 62


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation engine."""


class _Event:
    """A scheduled callback.  Deliberately *not* comparable: ordering
    lives entirely in the ``(time, seq)`` tuple prefix of queue entries."""

    __slots__ = ("callback", "args", "cancelled", "queued")

    def __init__(self, callback: Callable[..., None], args: tuple):
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.queued = True


class EventHandle:
    """Cancellable handle returned by :meth:`Simulator.schedule`."""

    __slots__ = ("_sim", "_event", "_time")

    def __init__(self, sim: "Simulator", event: _Event, time: float):
        self._sim = sim
        self._event = event
        self._time = time

    @property
    def time(self) -> float:
        """Absolute virtual time the event fires at."""
        return self._time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        event = self._event
        if not event.cancelled:
            event.cancelled = True
            if event.queued:
                self._sim._note_cancelled()



class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned random generator.  All stochastic
        behaviour in the network (loss, jitter) must draw from
        :attr:`rng` so that runs are reproducible.
    """

    def __init__(self, seed: int = 0):
        self._now = 0.0
        self._seq = 0
        self._dead = 0  # queued entries whose event was cancelled
        self._running = False
        self._events_processed = 0
        self._peak_queue_len = 0
        #: Attached :class:`~repro.netsim.trace.Tracer`, or None.  Kept
        #: as a real attribute so the no-tracer check in packet hot
        #: paths is a single plain attribute load.
        self.tracer = None
        #: Attached :class:`~repro.invariants.InvariantSet`, or None —
        #: same zero-cost-when-absent contract as :attr:`tracer`: hook
        #: sites test ``sim.invariants is not None`` inline and no
        #: events are ever scheduled by the monitors, so an unarmed run
        #: is byte-identical to one on a build without them.
        self.invariants = None
        self.rng = random.Random(seed)
        # Entries are (time, seq, _Event) for cancellable events and
        # (time, seq, callback, args) for fire-and-forget posts; seq is
        # unique, so heap comparisons never look past it and the mixed
        # tuple widths are safe.
        self._queue: list[tuple] = []

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of queued, non-cancelled events.  O(1): queue length
        minus a maintained count of lazily-cancelled entries — popping
        a live event costs no counter update at all."""
        return len(self._queue) - self._dead

    @property
    def peak_queue_len(self) -> int:
        """High-water mark of the event queue (including entries that
        were later cancelled) — the perf harness reports this."""
        return self._peak_queue_len

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args)

    def run_until_idle(self, max_events: int = 10_000_000) -> float:
        """Run until no events remain.  Guards against runaway loops.

        ``max_events`` counts stale re-armed :class:`Timer` pops too
        (see :meth:`run`), so extremely timer-heavy workloads consume
        the budget slightly faster than their live event count.
        """
        self.run(max_events=max_events)
        if len(self._queue) - self._dead:
            raise SimulationError(
                f"simulation did not go idle within {max_events} events"
            )
        return self._now

    def _note_cancelled(self) -> None:
        """A queued event was cancelled: bump the dead count and
        compact the heap when cancelled entries dominate it.  The
        trigger (``dead * 2 > n``) is algebraically the old
        ``live * 2 < n``, so the compaction points — and therefore the
        queue-length trajectory — are unchanged."""
        dead = self._dead + 1
        queue = self._queue
        n = len(queue)
        if n >= _COMPACT_MIN and dead * 2 > n:
            # In-place so `run`'s local binding of the list stays valid.
            # 4-tuple entries are fire-and-forget posts: never cancelled.
            queue[:] = [
                entry
                for entry in queue
                if len(entry) == 4 or not entry[2].cancelled
            ]
            heapq.heapify(queue)
            self._dead = 0
        else:
            self._dead = dead

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now is {self._now})"
            )
        event = _Event(callback, args)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, event))
        return EventHandle(self, event, time)

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`EventHandle` is
        built and no :class:`_Event` is allocated — the heap entry is a
        plain ``(time, seq, callback, args)`` tuple.  For hot paths
        that never cancel (link serialization, CPU-delay completions)
        this skips two allocations per event."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self._now + delay, seq, callback, args))

    def post_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at` (see :meth:`post`)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now is {self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, callback, args))

    def _requeue(self, time: float, seq: int, callback: Callable[[], None]) -> EventHandle:
        """Push an entry whose ``seq`` was allocated earlier (Timer
        re-arm support — see :meth:`Timer.start`)."""
        event = _Event(callback, ())
        heapq.heappush(self._queue, (time, seq, event))
        return EventHandle(self, event, time)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have been processed.

        Returns the virtual time when the run stopped.  When ``until``
        is given the clock is advanced to ``until`` even if the queue
        drained earlier (matching how wall-clock time would pass).

        Note on accounting: a stale :class:`Timer` entry (one whose
        timer was re-armed in place to a later deadline) pops as a
        counted no-op that re-queues the timer, so ``events_processed``
        and the ``max_events`` budget include these — event counts can
        differ slightly from an engine that cancels eagerly.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        processed = 0
        budget = max_events if max_events is not None else _NO_BUDGET
        until_t = until if until is not None else inf
        queue = self._queue
        heappop = heapq.heappop
        peak = self._peak_queue_len
        try:
            while queue:
                # Heap length only shrinks at pops, so sampling here —
                # rather than on every push — still observes the true
                # high-water mark.
                qlen = len(queue)
                if qlen > peak:
                    peak = qlen
                entry = queue[0]
                if len(entry) == 4:  # fire-and-forget post
                    event = None
                else:
                    event = entry[2]
                    if event.cancelled:
                        heappop(queue)
                        self._dead -= 1
                        continue
                time = entry[0]
                if time > until_t:
                    break
                if processed >= budget:
                    break
                heappop(queue)
                self._now = time
                if event is None:
                    entry[2](*entry[3])
                else:
                    event.queued = False
                    event.callback(*event.args)
                self._events_processed += 1
                processed += 1
        finally:
            self._running = False
            self._peak_queue_len = peak
        if until is not None and self._now < until:
            stop_early = max_events is not None and processed >= max_events
            if not stop_early:
                self._now = until
        return self._now


class Timer:
    """A restartable one-shot timer bound to a simulator.

    Wraps the schedule/cancel dance that protocol code (retransmission
    timers, delayed ACKs, failure detectors) does constantly.

    Restarting to a *strictly later* deadline re-arms in place: the
    queued entry is left untouched and only the logical deadline
    (plus a freshly drawn tie-break ``seq``) is recorded.  When the
    stale entry pops, the timer silently re-queues itself for the real
    deadline under that saved ``seq``.  Because every ``start`` draws a
    sequence number exactly like the old cancel+reschedule dance did,
    tie-break order — and therefore the whole event schedule — is
    byte-identical to the eager implementation.  Restarting to an
    *equal* (or earlier) deadline falls back to cancel+reschedule: an
    in-place re-arm would fire under the old entry's seq, ordering the
    timer ahead of events scheduled between the two ``start`` calls.
    """

    __slots__ = ("_sim", "_callback", "_handle", "_deadline", "_seq")

    def __init__(self, sim: Simulator, callback: Callable[[], None]):
        self._sim = sim
        self._callback = callback
        self._handle: Optional[EventHandle] = None
        self._deadline: Optional[float] = None
        self._seq = 0

    @property
    def running(self) -> bool:
        return self._deadline is not None

    @property
    def expires_at(self) -> Optional[float]:
        return self._deadline

    def start(self, delay: float) -> None:
        """(Re)arm the timer ``delay`` seconds from now."""
        sim = self._sim
        deadline = sim._now + delay
        handle = self._handle
        if (
            handle is not None
            and not handle._event.cancelled
            and deadline > handle._time
            and delay >= 0
        ):
            # Re-arm in place: keep the queued entry, remember the real
            # deadline, and consume a seq so tie-breaks match a full
            # cancel+reschedule.
            seq = sim._seq
            sim._seq = seq + 1
            self._seq = seq
            self._deadline = deadline
        else:
            self.stop()
            self._handle = sim.schedule(delay, self._entry_fired)
            self._deadline = deadline

    def stop(self) -> None:
        self._deadline = None
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _entry_fired(self) -> None:
        deadline = self._deadline
        if deadline is None:  # stopped after the entry was queued
            self._handle = None
            return
        if deadline > self._sim._now:
            # The entry was stale (timer pushed out since it was queued):
            # move to the real deadline under the seq drawn at re-arm.
            self._handle = self._sim._requeue(deadline, self._seq, self._entry_fired)
            return
        self._handle = None
        self._deadline = None
        self._callback()
