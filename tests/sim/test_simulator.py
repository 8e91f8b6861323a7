"""Simulator clock and main loop."""

import pytest

from repro import obs
from repro.common.counters import GLOBAL_COUNTERS
from repro.common.errors import SimulationError
from repro.sim.simulator import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_and_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [10.0]

    def test_schedule_at_absolute(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(7.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [7.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_callbacks_can_chain(self):
        sim = Simulator()
        times = []

        def tick():
            times.append(sim.now)
            if sim.now < 30:
                sim.schedule(10.0, tick)

        sim.schedule(10.0, tick)
        sim.run()
        assert times == [10.0, 20.0, 30.0]


class TestRunBounds:
    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        sim.schedule(100.0, lambda: None)
        sim.run(until=50.0)
        assert sim.now == 50.0
        assert sim.pending() == 1

    def test_run_until_advances_clock_when_drained(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run(until=80.0)
        assert sim.now == 80.0

    def test_later_event_still_fires_after_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(100.0, lambda: fired.append(True))
        sim.run(until=50.0)
        sim.run()
        assert fired == [True]

    def test_max_events(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(max_events=3)
        assert sim.events_processed == 3
        assert sim.pending() == 2

    def test_step(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.step() is True
        assert sim.step() is False

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as exc:
                errors.append(exc)

        sim.schedule(1.0, nested)
        sim.run()
        assert len(errors) == 1

    def test_horizon_only_inside_bounded_runs(self):
        sim = Simulator()
        seen = []
        for i in range(4):
            sim.schedule(float(i + 1), lambda: seen.append(sim.horizon))
        sim.step()
        sim.run(until=2.0)
        sim.run(until=3.0, max_events=1)
        sim.run()
        assert seen == [None, 2.0, None, None]
        assert sim.horizon is None

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 4


class TestCancelledFastPath:
    def test_cancelled_events_not_counted(self):
        sim = Simulator()
        fired = []
        for i in (1, 3):
            sim.schedule(float(i), lambda: fired.append(sim.now))
        for i in (2, 4):
            sim.schedule(float(i), lambda: fired.append(-1.0)).cancel()
        sim.run()
        assert fired == [1.0, 3.0]
        assert sim.events_processed == 2

    def test_cancelled_events_do_not_consume_max_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1)).cancel()
        sim.schedule(2.0, lambda: fired.append(2)).cancel()
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run(max_events=1)
        assert fired == [3]
        assert sim.events_processed == 1

    def test_step_skips_cancelled_without_counting(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1)).cancel()
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [2]
        assert sim.events_processed == 1
        assert sim.step() is False

    def test_cancelled_head_leaves_clock_alone_when_drained(self):
        sim = Simulator()
        sim.schedule(9.0, lambda: None).cancel()
        sim.run()
        assert sim.now == 0.0
        assert sim.events_processed == 0


class TestRunUntilGuard:
    def test_run_until_lands_exactly_on_bound(self):
        sim = Simulator()
        sim.schedule(100.0, lambda: None)
        assert sim.run_until(40.0) == 40.0
        assert sim.now == 40.0
        assert sim.pending() == 1

    def test_run_until_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run_until(2.0)

    def test_run_until_at_now_is_noop(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert sim.run_until(sim.now) == sim.now


class TestNaNRejection:
    """NaN silently passes every ordered comparison, so a NaN delay would
    sail past the negative-delay guard and corrupt the heap ordering."""

    def test_schedule_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="NaN"):
            sim.schedule(float("nan"), lambda: None, name="bad")

    def test_schedule_at_nan_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="NaN"):
            sim.schedule_at(float("nan"), lambda: None, name="bad")

    def test_valid_schedules_still_accepted(self):
        sim = Simulator()
        sim.schedule(0.0, lambda: None)
        sim.schedule_at(5.0, lambda: None)
        assert sim.pending() == 2


class TestFeed:
    """Pre-sorted entries merged with the heap by ``(time, sequence)``."""

    def test_ties_follow_scheduling_order_with_heap_events(self):
        sim = Simulator()
        order = []
        sim.schedule_at(10.0, lambda: order.append("before"))
        sim.feed([10.0, 10.0], lambda i: order.append(f"feed{i}"))
        sim.schedule_at(10.0, lambda: order.append("after"))
        sim.run()
        assert order == ["before", "feed0", "feed1", "after"]

    def test_unsorted_entries_merge_by_reserved_sequence(self):
        sim = Simulator()
        order = []
        sim.schedule_at(20.0, lambda: order.append("heap20"))
        sim.feed([30.0, 10.0, 20.0, 10.0], lambda i: order.append(f"feed{i}"))
        sim.schedule_at(10.0, lambda: order.append("heap10"))
        sim.run()
        assert order == ["feed1", "feed3", "heap10", "heap20", "feed2", "feed0"]

    def test_second_feed_merges_with_the_first(self):
        sim = Simulator()
        order = []
        sim.feed([5.0, 15.0], lambda i: order.append(("a", i)))
        sim.feed([5.0, 10.0], lambda i: order.append(("b", i)))
        sim.run()
        assert order == [("a", 0), ("b", 0), ("b", 1), ("a", 1)]

    def test_feed_from_a_callback_during_a_run(self):
        sim = Simulator()
        order = []
        sim.feed([2.0], lambda i: sim.feed([3.0, 4.0], lambda j: order.append(j)))
        sim.feed([5.0], lambda i: order.append("last"))
        sim.run()
        assert order == [0, 1, "last"]

    def test_entries_count_as_events(self):
        sim = Simulator()
        g = GLOBAL_COUNTERS
        fired, jumps = g.events_fired, g.events_fast_forwarded
        sim.feed([1.0, 1.0, 2.0], lambda i: None)
        assert sim.pending() == 3
        sim.run()
        assert sim.events_processed == 3
        assert g.events_fired - fired == 3
        assert g.events_fast_forwarded - jumps == 2
        assert sim.pending() == 0

    def test_max_events_and_until_bound_the_feed(self):
        sim = Simulator()
        fired = []
        sim.feed([1.0, 2.0, 3.0, 4.0], fired.append)
        sim.run(max_events=2)
        assert fired == [0, 1]
        sim.run(until=3.5)
        assert fired == [0, 1, 2] and sim.now == 3.5
        assert sim.pending() == 1

    def test_step_merges_feed_and_heap(self):
        sim = Simulator()
        order = []
        sim.feed([1.0, 3.0], lambda i: order.append(f"feed{i}"))
        sim.schedule_at(2.0, lambda: order.append("heap"))
        while sim.step():
            order.append(sim.now)
        assert order == ["feed0", 1.0, "heap", 2.0, "feed1", 3.0]

    def test_peek_next_time_sees_the_live_feed_during_a_run(self):
        sim = Simulator()
        peeked = []
        times = [1.0, 2.0, 4.0]
        sim.feed(times, lambda i: peeked.append(sim.peek_next_time()))
        sim.schedule_at(3.0, lambda: peeked.append(sim.peek_next_time()))
        sim.run()
        assert peeked == [2.0, 3.0, 4.0, None]

    def test_nan_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="NaN"):
            sim.feed([1.0, float("nan")], lambda i: None, name="bad")
        assert sim.pending() == 0

    def test_past_time_rejected(self):
        sim = Simulator()
        sim.run(until=5.0)
        with pytest.raises(SimulationError, match="before now"):
            sim.feed([6.0, 4.0], lambda i: None)
        assert sim.pending() == 0

    def test_traced_under_its_name(self):
        sim = Simulator()
        sim.feed([1.0], lambda i: None, name="arrival")
        sim.schedule_at(2.0, lambda: None, name="tick")
        obs.enable()
        try:
            sim.run()
        finally:
            obs.disable()
        assert [e.name for e in obs.TRACER.events()] == ["arrival", "tick"]

    def test_clear_drops_events_and_feed(self):
        sim = Simulator()
        fired = []
        sim.feed([1.0, 2.0], fired.append)
        sim.schedule_at(1.5, lambda: fired.append("heap"))
        sim.run(until=1.2)
        sim.clear()
        assert sim.pending() == 0 and sim.peek_next_time() is None
        sim.run()
        assert fired == [0] and sim.now == 1.2
