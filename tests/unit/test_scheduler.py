"""Unit tests for the discrete-event scheduler."""

import functools

import pytest

from repro.sim.scheduler import Scheduler


class TestScheduling:
    def test_starts_at_time_zero(self, scheduler):
        assert scheduler.now == 0.0

    def test_call_at_runs_at_absolute_time(self, scheduler):
        seen = []
        scheduler.call_at(5.0, lambda: seen.append(scheduler.now))
        scheduler.run()
        assert seen == [5.0]

    def test_call_after_is_relative(self, scheduler):
        seen = []
        scheduler.call_at(3.0, lambda: scheduler.call_after(2.0, lambda: seen.append(scheduler.now)))
        scheduler.run()
        assert seen == [5.0]

    def test_events_run_in_time_order(self, scheduler):
        order = []
        scheduler.call_at(3.0, order.append, "b")
        scheduler.call_at(1.0, order.append, "a")
        scheduler.call_at(7.0, order.append, "c")
        scheduler.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self, scheduler):
        order = []
        scheduler.call_at(1.0, order.append, "first")
        scheduler.call_at(1.0, order.append, "second")
        scheduler.call_at(1.0, order.append, "third")
        scheduler.run()
        assert order == ["first", "second", "third"]

    def test_zero_delay_event_runs(self, scheduler):
        seen = []
        scheduler.call_after(0.0, seen.append, 1)
        scheduler.run()
        assert seen == [1]

    def test_scheduling_in_the_past_raises(self, scheduler):
        scheduler.call_at(5.0, lambda: None)
        scheduler.run()
        with pytest.raises(ValueError, match="cannot schedule"):
            scheduler.call_at(3.0, lambda: None)

    def test_negative_delay_raises(self, scheduler):
        with pytest.raises(ValueError, match="negative delay"):
            scheduler.call_after(-1.0, lambda: None)

    def test_args_are_passed(self, scheduler):
        seen = []
        scheduler.call_at(1.0, lambda a, b: seen.append((a, b)), 1, 2)
        scheduler.run()
        assert seen == [(1, 2)]


class TestCancellation:
    def test_cancelled_event_does_not_run(self, scheduler):
        seen = []
        handle = scheduler.call_at(1.0, seen.append, "x")
        handle.cancel()
        scheduler.run()
        assert seen == []
        assert not handle.fired

    def test_cancel_after_fire_is_noop(self, scheduler):
        handle = scheduler.call_at(1.0, lambda: None)
        scheduler.run()
        assert handle.fired
        handle.cancel()  # must not raise

    def test_active_property(self, scheduler):
        handle = scheduler.call_at(1.0, lambda: None)
        assert handle.active
        handle.cancel()
        assert not handle.active

    def test_pending_excludes_cancelled(self, scheduler):
        h1 = scheduler.call_at(1.0, lambda: None)
        scheduler.call_at(2.0, lambda: None)
        assert scheduler.pending == 2
        h1.cancel()
        assert scheduler.pending == 1

    def test_cancel_while_queued_is_skipped_between_neighbours(self, scheduler):
        """A cancelled entry sitting between two live ones is skipped at
        pop time without disturbing their order or the clock."""
        order = []
        scheduler.call_at(1.0, order.append, "a")
        victim = scheduler.call_at(2.0, order.append, "victim")
        scheduler.call_at(3.0, order.append, "b")
        victim.cancel()
        scheduler.run()
        assert order == ["a", "b"]
        assert scheduler.now == 3.0
        assert scheduler.events_run == 2

    def test_cancel_from_inside_an_event(self, scheduler):
        seen = []
        later = scheduler.call_at(5.0, seen.append, "late")
        scheduler.call_at(1.0, later.cancel)
        scheduler.run()
        assert seen == []
        assert scheduler.pending == 0

    def test_double_cancel_decrements_once(self, scheduler):
        handle = scheduler.call_at(1.0, lambda: None)
        scheduler.call_at(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert scheduler.pending == 1


    def test_repr_survives_a_callable_without_a_name(self, scheduler):
        handle = scheduler.call_at(1.0, functools.partial(print, "tick"))
        assert "functools.partial" in repr(handle) and "pending" in repr(handle)

    def test_a_spent_handle_lets_go_of_its_callback(self, scheduler):
        fired = scheduler.call_at(1.0, print)
        cancelled = scheduler.call_at(2.0, print, "never")
        cancelled.cancel()
        scheduler.run()
        assert fired.fired and fired.fn is None and fired.args is None
        assert cancelled.fn is None and "cancelled" in repr(cancelled)


class TestClear:
    def test_clear_drops_every_queued_event(self, scheduler):
        ran = []
        scheduler.call_fixed(1.0, ran.append, "fixed")
        handle = scheduler.call_at(2.0, ran.append, "handle")
        scheduler.run_until(0.5)
        scheduler.clear()
        assert scheduler.pending == 0 and not handle.active and handle.fn is None
        handle.cancel()  # already cancelled: the counter must not go negative
        assert scheduler.pending == 0
        assert scheduler.run() == 0.5 and ran == []
        scheduler.call_fixed(3.0, ran.append, "later")  # still a scheduler
        assert scheduler.run() == 3.0 and ran == ["later"]


class TestPendingCounter:
    """The O(1) ``pending`` counter must agree with a queue scan through
    every push / cancel / pop interleaving."""

    def _live_scan(self, scheduler):
        return sum(1 for _, _, h in scheduler._queue if h.active)

    def test_counts_pushes(self, scheduler):
        for t in (1.0, 2.0, 3.0):
            scheduler.call_at(t, lambda: None)
        assert scheduler.pending == 3 == self._live_scan(scheduler)

    def test_counter_through_cancel_and_pop(self, scheduler):
        handles = [scheduler.call_at(float(t + 1), lambda: None) for t in range(6)]
        handles[0].cancel()
        handles[3].cancel()
        assert scheduler.pending == 4 == self._live_scan(scheduler)
        scheduler.step()  # skips cancelled handles[0], runs handles[1]
        assert scheduler.pending == 3 == self._live_scan(scheduler)
        scheduler.step()  # runs handles[2]
        assert scheduler.pending == 2 == self._live_scan(scheduler)
        scheduler.run()
        assert scheduler.pending == 0
        assert scheduler.events_run == 4

    def test_counter_through_run_until(self, scheduler):
        early = scheduler.call_at(1.0, lambda: None)
        scheduler.call_at(2.0, lambda: None)
        late = scheduler.call_at(10.0, lambda: None)
        early.cancel()
        scheduler.run_until(5.0)
        assert scheduler.pending == 1 == self._live_scan(scheduler)
        late.cancel()
        assert scheduler.pending == 0 == self._live_scan(scheduler)
        scheduler.run()
        assert scheduler.pending == 0

    def test_counter_with_events_scheduling_events(self, scheduler):
        def fanout():
            for _ in range(3):
                scheduler.call_after(1.0, lambda: None)

        scheduler.call_at(1.0, fanout)
        assert scheduler.pending == 1
        scheduler.step()
        assert scheduler.pending == 3 == self._live_scan(scheduler)
        scheduler.run()
        assert scheduler.pending == 0

    def test_tie_break_is_fifo_within_same_time(self, scheduler):
        """(time, seq) ordering: equal-time events run in scheduling
        order even when interleaved with cancellations."""
        order = []
        first = scheduler.call_at(1.0, order.append, "first")
        scheduler.call_at(1.0, order.append, "second")
        first.cancel()
        scheduler.call_at(1.0, order.append, "third")
        scheduler.run()
        assert order == ["second", "third"]


class TestRunControl:
    def test_run_returns_final_time(self, scheduler):
        scheduler.call_at(4.5, lambda: None)
        assert scheduler.run() == 4.5

    def test_run_until_stops_at_deadline(self, scheduler):
        seen = []
        scheduler.call_at(1.0, seen.append, "early")
        scheduler.call_at(10.0, seen.append, "late")
        scheduler.run_until(5.0)
        assert seen == ["early"]
        assert scheduler.now == 5.0
        scheduler.run()
        assert seen == ["early", "late"]

    def test_run_until_includes_boundary(self, scheduler):
        seen = []
        scheduler.call_at(5.0, seen.append, "exact")
        scheduler.run_until(5.0)
        assert seen == ["exact"]

    def test_step_returns_false_when_empty(self, scheduler):
        assert scheduler.step() is False

    def test_events_run_counter(self, scheduler):
        for t in (1.0, 2.0, 3.0):
            scheduler.call_at(t, lambda: None)
        scheduler.run()
        assert scheduler.events_run == 3

    def test_event_can_schedule_more_events(self, scheduler):
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                scheduler.call_after(1.0, chain, n + 1)

        scheduler.call_at(0.0, chain, 0)
        scheduler.run()
        assert seen == [0, 1, 2, 3]
        assert scheduler.now == 3.0

    def test_livelock_guard(self):
        scheduler = Scheduler()
        scheduler._max_events = 100

        def forever():
            scheduler.call_after(1.0, forever)

        scheduler.call_at(0.0, forever)
        with pytest.raises(RuntimeError, match="livelock"):
            scheduler.run()

    def test_livelock_guard_counts_only_fired_events(self):
        """Cancelled entries are skipped, not run — they must not eat
        into the event budget."""
        scheduler = Scheduler()
        scheduler._max_events = 10
        for t in range(50):
            scheduler.call_at(float(t), lambda: None).cancel()
        for t in range(10):
            scheduler.call_at(100.0 + t, lambda: None)
        assert scheduler.run() == 109.0  # exactly at budget: no raise
        assert scheduler.events_run == 10

    def test_livelock_guard_boundary(self):
        scheduler = Scheduler()
        scheduler._max_events = 5
        for t in range(6):
            scheduler.call_at(float(t), lambda: None)
        with pytest.raises(RuntimeError, match="exceeded 5 events"):
            scheduler.run()
