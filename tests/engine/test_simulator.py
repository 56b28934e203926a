"""Run-loop behavior of the discrete-event simulator."""

import pytest

from repro.engine.simulator import Simulator


class TestScheduling:
    def test_events_fire_in_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.run()
        assert fired == ["a", "b"]

    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.schedule(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5, 4.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda: None)

    def test_at_schedules_absolute(self):
        sim = Simulator()
        seen = []
        sim.at(3.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.0]

    def test_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.at(1.0, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 5:
                sim.schedule(1.0, lambda: chain(n + 1))

        sim.schedule(0.0, lambda: chain(0))
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]
        assert sim.now == 5.0


class TestRunControl:
    def test_run_until_stops_early(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        end = sim.run(until=5.0)
        assert fired == [1]
        assert end == 5.0
        assert sim.now == 5.0

    def test_run_until_then_continue(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        sim.run()
        assert fired == [1, 10]

    def test_stop_halts_loop(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired[0] == 1
        assert 2 not in fired

    def test_run_is_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except RuntimeError as exc:
                errors.append(exc)

        sim.schedule(1.0, reenter)
        sim.run()
        assert len(errors) == 1

    def test_cancel_via_simulator(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(handle)
        sim.run()
        assert fired == []
        assert len(sim.queue) == 0

    def test_max_events_limits_run(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_cancel_after_fire_does_not_drop_live_events(self):
        """Regression: a late cancel of a fired event made ``bool(queue)``
        go False early, ending the run at t=1.5 with a live t=2.0 event
        still queued (and the next cancel could underflow the count)."""
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1.0))
        sim.schedule(1.5, lambda: (fired.append(1.5), sim.cancel(handle)))
        sim.schedule(2.0, lambda: fired.append(2.0))
        sim.run()
        assert fired == [1.0, 1.5, 2.0]
        assert sim.now == 2.0
        assert len(sim.queue) == 0

    def test_cancel_after_fire_returns_false(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.cancel(handle) is False
        assert handle.fired
        assert not handle.cancelled

    def test_max_events_with_until_does_not_jump_clock(self):
        """Regression: breaking on ``max_events`` with events still queued
        before ``until`` advanced the clock to ``until`` anyway, so the next
        run() raised "clock cannot run backwards"."""
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda t=t: fired.append(t))
        end = sim.run(until=10.0, max_events=1)
        assert fired == [1.0]
        assert end == 1.0  # not jumped to until=10
        sim.run()  # must not raise ValueError
        assert fired == [1.0, 2.0, 3.0]

    def test_until_still_advances_clock_when_queue_drains(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=5.0, max_events=10) == 5.0

    def test_max_events_zero_fires_nothing(self):
        """Regression: ``max_events=0`` fired one event."""
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.run(max_events=0) == 0.0
        assert fired == []
        assert sim.events_fired == 0
        assert len(sim.queue) == 2

    def test_max_events_zero_does_not_advance_to_until(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=5.0, max_events=0) == 0.0
        assert sim.now == 0.0

    @pytest.mark.parametrize("bad", [-1, -10])
    def test_negative_max_events_rejected(self, bad):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(ValueError, match="max_events"):
            sim.run(max_events=bad)
        assert sim.events_fired == 0
        sim.run()  # the rejected call left the simulator usable
        assert sim.events_fired == 1

    def test_max_events_counts_per_run(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        sim.run(max_events=2)
        sim.run(max_events=2)
        assert sim.events_fired == 4
        assert sim.now == 4.0

    @pytest.mark.parametrize("queued", [False, True])
    def test_until_before_now_rejected(self, queued):
        """Regression: only a non-empty queue rejected a past ``until``."""
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        sim.run()
        if queued:
            sim.schedule(1.0, lambda: None)
        with pytest.raises(ValueError, match="until"):
            sim.run(until=1.0)
        assert sim.now == 2.0

    @pytest.mark.parametrize("queued", [False, True])
    def test_until_nan_rejected(self, queued):
        """Regression: ``until=nan`` was accepted and ran every event."""
        sim = Simulator()
        fired = []
        if queued:
            sim.schedule(1.0, lambda: fired.append(1))
        with pytest.raises(ValueError, match="until"):
            sim.run(until=float("nan"))
        assert fired == []
        assert sim.now == 0.0

    def test_until_equal_to_now_is_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, lambda: fired.append(0))
        sim.schedule(1.0, lambda: fired.append(1))
        assert sim.run(until=0.0) == 0.0
        assert fired == [0]

    def test_until_is_inclusive(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(5))
        assert sim.run(until=5.0) == 5.0
        assert fired == [5]

    def test_until_skips_cancelled_head(self):
        """A cancelled event before ``until`` must not let a later live
        event fire early."""
        sim = Simulator()
        fired = []
        sim.cancel(sim.schedule(1.0, lambda: fired.append(1)))
        sim.schedule(7.0, lambda: fired.append(7))
        assert sim.run(until=5.0) == 5.0
        assert fired == []
        sim.run()
        assert fired == [7]

    def test_stop_with_until_does_not_jump_clock(self):
        sim = Simulator()
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, lambda: None)
        assert sim.run(until=10.0) == 1.0

    def test_events_fired_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_fired == 5


class TestReset:
    def test_reset_restores_pristine_state(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        sim.reset()
        assert sim.now == 0.0
        assert sim.events_fired == 0
        assert len(sim.queue) == 0

    def test_reset_cancels_outstanding_handles(self):
        sim = Simulator()
        handle = sim.schedule(5.0, lambda: None)
        sim.reset()
        assert handle.cancelled

    def test_reset_allows_reuse_across_replications(self):
        sim = Simulator()
        totals = []
        for replication in range(3):
            sim.reset(seed=replication)
            fired = []
            sim.schedule(1.0, lambda: fired.append(sim.rng.stream("x").random()))
            sim.run()
            totals.append(fired[0])
        assert sim.events_fired == 1  # per-replication counter, not cumulative
        assert len(set(totals)) == 3  # distinct seeds give distinct draws

    def test_reset_is_deterministic_in_seed(self):
        draws = []
        sim = Simulator()
        for _ in range(2):
            sim.reset(seed=42)
            draws.append(sim.rng.stream("x").random())
        assert draws[0] == draws[1]

    def test_reset_inside_event_rejected(self):
        sim = Simulator()
        errors = []

        def resetter():
            try:
                sim.reset()
            except RuntimeError as exc:
                errors.append(exc)

        sim.schedule(1.0, resetter)
        sim.run()
        assert len(errors) == 1


class TestTraceHooks:
    def test_hook_sees_time_and_label(self):
        sim = Simulator()
        trace = []
        sim.add_trace_hook(lambda t, label: trace.append((t, label)))
        sim.schedule(1.0, lambda: None, label="first")
        sim.schedule(2.0, lambda: None, label="second")
        sim.run()
        assert trace == [(1.0, "first"), (2.0, "second")]


class TestHandlerArgs:
    def test_handler_receives_args(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, args=("a",))
        sim.at(2.0, lambda x, y: seen.append(x + y), args=(1, 2))
        sim.run()
        assert seen == ["a", 3]

    def test_zero_arg_callables_still_work(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.0]

    def test_returned_event_is_the_cancel_handle(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule(1.0, seen.append, label=("tick:{}", 3), args=(1,))
        assert handle.pending and handle.time == 1.0
        assert handle.args == (1,)
        assert sim.cancel(handle) is True
        sim.run()
        assert seen == []
        assert handle.cancelled

    def test_at_stores_float_time(self):
        sim = Simulator()
        handle = sim.at(3, lambda: None)
        assert type(handle.time) is float
        sim.run()
        assert type(sim.now) is float


class TestLazyLabels:
    def test_tuple_label_reaches_hooks_formatted(self):
        sim = Simulator()
        trace = []
        sim.add_trace_hook(lambda t, label: trace.append((t, label)))
        sim.schedule(1.0, lambda: None, label=("complete:{}#{}", "MATRIX", 3))
        sim.schedule(2.0, lambda: None, label="plain")
        sim.run()
        assert trace == [(1.0, "complete:MATRIX#3"), (2.0, "plain")]

    def test_tuple_label_not_formatted_without_a_reader(self):
        class Loud:
            def __format__(self, spec):
                raise AssertionError("label formatted without a reader")

        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, label=("x:{}", Loud()), args=(1,))
        sim.run()
        assert fired == [1]

    def test_profiled_run_groups_tuple_labels_by_prefix(self):
        from repro.obs.profiling import SpanProfiler

        sim = Simulator()
        prof = SpanProfiler()
        sim.attach_profiler(prof)
        for i in range(3):
            sim.schedule(float(i), lambda: None, label=("slice:{}", f"J{i}"))
        sim.schedule(5.0, lambda: None)
        sim.run()
        spans = prof.snapshot()["spans"]
        assert spans["engine/slice"]["calls"] == 3
        assert spans["engine/event"]["calls"] == 1
