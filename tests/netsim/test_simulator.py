"""Tests for the discrete-event engine."""

import math

import pytest

from repro.netsim import SimulationError, Simulator, Timer


def test_initial_time_is_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(3.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(5.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.5]
    assert sim.now == 5.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(10.0, fired.append, 10)
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0
    sim.run()
    assert fired == [1, 10]


def test_run_until_advances_clock_even_when_idle():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []
    assert handle.cancelled


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def first():
        seen.append("first")
        sim.schedule(1.0, lambda: seen.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert seen == ["first", "second"]
    assert sim.now == 2.0


def test_max_events_limit():
    sim = Simulator()
    count = []

    def tick():
        count.append(1)
        sim.schedule(1.0, tick)

    sim.schedule(0.0, tick)
    sim.run(max_events=50)
    assert len(count) == 50


def test_run_until_idle_raises_on_runaway():
    sim = Simulator()

    def tick():
        sim.schedule(1.0, tick)

    sim.schedule(0.0, tick)
    with pytest.raises(SimulationError):
        sim.run_until_idle(max_events=100)


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(0.0, reenter)
    sim.run()
    assert len(errors) == 1


def test_rng_determinism():
    values_a = Simulator(seed=7).rng.random()
    values_b = Simulator(seed=7).rng.random()
    assert values_a == values_b
    assert Simulator(seed=8).rng.random() != values_a


def test_pending_events_counts_uncancelled():
    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    h1.cancel()
    assert sim.pending_events == 1


def test_post_and_schedule_tie_break_by_insertion_order():
    """Fire-and-forget posts share the (time, seq) ordering with
    cancellable events — mixing the two must keep insertion order."""
    sim = Simulator()
    order = []
    sim.schedule(1.0, order.append, "a")
    sim.post(1.0, order.append, "b")
    sim.schedule_at(1.0, order.append, "c")
    sim.post_at(1.0, order.append, "d")
    sim.run()
    assert order == ["a", "b", "c", "d"]


def test_post_rejects_negative_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.post(-0.1, lambda: None)


def test_post_at_rejects_past():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.post_at(0.5, lambda: None)


def test_peak_queue_len_high_water_mark():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i + 1), lambda: None)
    sim.post(6.0, lambda: None)
    sim.run()
    assert sim.peak_queue_len == 6


def test_compaction_preserves_order_and_live_events():
    """Cancelling most of a large heap triggers in-place compaction;
    the surviving events must still run in order."""
    sim = Simulator()
    order = []
    handles = [sim.schedule(float(i), order.append, i) for i in range(200)]
    for i, h in enumerate(handles):
        if i % 10:
            h.cancel()
    assert sim.pending_events == 20
    sim.run()
    assert order == list(range(0, 200, 10))


def test_cancel_then_rearm_at_same_instant():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "old")
    handle.cancel()
    sim.schedule(1.0, fired.append, "new")  # same instant, fresh seq
    sim.run_until_idle()
    assert fired == ["new"]
    assert sim.pending_events == 0


def test_far_future_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    far = 100_000_000.0
    sim.schedule(far, fired.append, "far")
    sim.schedule(0.001, fired.append, "near")
    sim.schedule(far + 1.0, fired.append, "farther")
    sim.post(far, fired.append, "far-post")  # same instant, later seq
    sim.run_until_idle()
    assert fired == ["near", "far", "far-post", "farther"]
    assert sim.now == far + 1.0


def test_infinite_deadline_parks_until_idle_drain():
    sim = Simulator()
    fired = []
    sim.schedule(math.inf, fired.append, "inf-a")
    sim.schedule(1.0, fired.append, "near")
    sim.schedule(math.inf, fired.append, "inf-b")
    sim.run(until=2.0)
    assert fired == ["near"]
    assert sim.pending_events == 2
    sim.run_until_idle()
    assert fired == ["near", "inf-a", "inf-b"]


def test_same_instant_reentry_runs_before_time_advances():
    """Events scheduled from a callback at zero delay run after the
    events already queued for that instant, before time advances."""
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.post(0.0, lambda: fired.append("chained"))
        sim.schedule(0.0, lambda: fired.append("chained-handle"))

    sim.schedule(1.0, first)
    sim.schedule(1.0, fired.append, "second")
    sim.schedule(2.0, fired.append, "later")
    sim.run_until_idle()
    assert fired == ["first", "second", "chained", "chained-handle", "later"]
    assert sim.now == 2.0


class TestTimer:
    def test_fires_once(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(3.0)
        sim.run()
        assert fired == [3.0]
        assert not timer.running

    def test_restart_replaces_previous(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(3.0)
        timer.start(5.0)
        sim.run()
        assert fired == [5.0]

    def test_stop_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(1.0)
        timer.stop()
        sim.run()
        assert fired == []

    def test_expires_at(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        assert timer.expires_at is None
        timer.start(2.5)
        assert timer.expires_at == 2.5

    def test_can_restart_from_callback(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))

        def periodic():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(1.0)

        timer._callback = periodic
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


class TestTimerRearm:
    """Re-arm-in-place semantics: restarting a running timer to a
    strictly later deadline leaves the queued heap entry untouched,
    yet externally behaves exactly like cancel + reschedule."""

    def test_restart_to_earlier_deadline(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(5.0)
        timer.start(1.0)  # earlier: falls back to cancel + reschedule
        sim.run()
        assert fired == [1.0]

    def test_restart_after_fire(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.run()
        timer.start(2.0)
        sim.run()
        assert fired == [1.0, 3.0]

    def test_stop_start_race_with_stale_entry(self):
        """Stop + restart while a stale (re-armed past) entry is still
        queued: the timer fires once, at the newest deadline only."""
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        timer.start(5.0)  # re-arms in place; stale entry stays at 1.0
        timer.stop()
        timer.start(2.0)
        sim.run()
        assert fired == [2.0]
        assert sim.pending_events == 0

    def test_stop_after_in_place_rearm(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        timer.start(5.0)
        timer.stop()
        assert not timer.running
        sim.run()
        assert fired == []
        assert sim.pending_events == 0

    def test_rearm_consumes_seq_like_reschedule(self):
        """The deterministic-schedule contract: a re-armed timer draws
        its tie-break seq at start() time, so it still fires before an
        event scheduled (at the same instant) after the restart."""
        sim = Simulator()
        order = []
        timer = Timer(sim, lambda: order.append("timer"))
        timer.start(1.0)
        timer.start(2.0)  # in-place re-arm draws a seq here
        sim.schedule_at(2.0, order.append, "event")
        sim.run()
        assert order == ["timer", "event"]

    def test_equal_deadline_restart_draws_fresh_seq(self):
        """Restarting to the *same* deadline must behave like cancel +
        reschedule: the timer fires under a seq drawn at the restart,
        so an event scheduled between the two start() calls (at the
        shared deadline) fires first.  Regression test: an in-place
        re-arm here would fire the queued entry under its original seq
        and order the timer ahead of the event."""
        sim = Simulator()
        order = []
        timer = Timer(sim, lambda: order.append("timer"))
        timer.start(1.0)
        sim.schedule_at(1.0, order.append, "event")
        timer.start(1.0)  # equal deadline: falls back to cancel+reschedule
        sim.run()
        assert order == ["event", "timer"]

    def test_equal_deadline_restart_at_zero_delay(self):
        """Same contract with delay=0 (ZERO_COST-style collapsed
        timestamps): the last start() wins the tie-break draw."""
        sim = Simulator()
        order = []
        timer = Timer(sim, lambda: order.append("timer"))
        timer.start(0.0)
        sim.schedule_at(0.0, order.append, "event")
        timer.start(0.0)
        sim.run()
        assert order == ["event", "timer"]

    def test_retransmission_style_pushback(self):
        """The RTO/heartbeat pattern the fast path exists for: the
        deadline is pushed out repeatedly and the timer fires exactly
        once, at the final deadline."""
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        for i in range(1, 6):  # pushes at 0.4, 0.8, ... 2.0
            sim.schedule(0.4 * i, timer.start, 1.0)
        sim.run()
        assert fired == [3.0]

    def test_expires_at_tracks_rearm(self):
        sim = Simulator()
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        timer.start(4.0)
        assert timer.running
        assert timer.expires_at == 4.0
        sim.run()
        assert timer.expires_at is None
