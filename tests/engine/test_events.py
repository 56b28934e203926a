"""The event record: its own cancel handle, lazy labels, repr."""

import pytest

from repro.engine import Event, EventHandle, EventState
from repro.engine.queue import EventQueue


def _noop():
    pass


class TestEventIsItsHandle:
    def test_alias(self):
        assert EventHandle is Event
        q = EventQueue()
        handle = q.push(1.0, _noop)
        assert isinstance(handle, EventHandle)

    def test_push_returns_the_event_that_pops(self):
        q = EventQueue()
        handle = q.push(2.5, _noop, priority=7, label="x", args=(1, 2))
        assert q.pop() is handle
        assert (handle.time, handle.priority, handle.seq) == (2.5, 7, 0)
        assert handle.handler is _noop and handle.args == (1, 2)

    def test_handle_api_through_the_lifecycle(self):
        q = EventQueue()
        handle = q.push(1.0, _noop, label="a")
        assert handle.time == 1.0 and handle.label == "a"
        assert handle.state is EventState.PENDING
        assert (handle.pending, handle.fired, handle.cancelled) == (True, False, False)
        q.pop()
        assert handle.state is EventState.FIRED
        assert (handle.pending, handle.fired, handle.cancelled) == (False, True, False)
        assert handle.cancel() is False
        assert handle.fired

    def test_cancel_routes_through_the_queue(self):
        q = EventQueue()
        handle = q.push(1.0, _noop)
        q.push(2.0, _noop)
        assert handle.cancel() is True
        assert handle.state is EventState.CANCELLED
        assert (handle.pending, handle.fired, handle.cancelled) == (False, False, True)
        assert len(q) == 1 == q.pending_events()
        assert handle.cancel() is False
        assert len(q) == 1

    def test_events_have_no_instance_dict(self):
        handle = EventQueue().push(1.0, _noop)
        with pytest.raises(AttributeError):
            handle.extra = 1

    @pytest.mark.parametrize(
        "label, shown",
        [("arrive:MVA-0", "'arrive:MVA-0'"), (("yield:{}", 3), "'yield:3'")],
    )
    def test_repr(self, label, shown):
        q = EventQueue()
        handle = q.push(1.25, _noop, label=label)
        assert repr(handle) == f"Event(t=1.250000, {shown}, pending)"
        handle.cancel()
        assert repr(handle) == f"Event(t=1.250000, {shown}, cancelled)"


class TestLazyLabel:
    @pytest.mark.parametrize(
        "parts",
        [("MATRIX", 0), ("GRAVITY-1", 15), ("a:b", -2), (1.5, None)],
    )
    def test_tuple_label_equals_eager_fstring(self, parts):
        name, index = parts
        handle = EventQueue().push(0.0, _noop, label=("complete:{}#{}", name, index))
        assert handle.label == f"complete:{name}#{index}"

    def test_formatted_once_then_kept(self):
        calls = []

        class Counted:
            def __format__(self, spec):
                calls.append(spec)
                return "C"

        handle = EventQueue().push(0.0, _noop, label=("x:{}", Counted()))
        assert calls == []  # pushing does not format
        assert handle.label == "x:C"
        assert handle.label == "x:C"
        assert calls == [""]

    def test_string_label_unchanged(self):
        handle = EventQueue().push(0.0, _noop, label="complete:{}#{}")
        assert handle.label == "complete:{}#{}"

    def test_default_label_is_empty(self):
        assert EventQueue().push(0.0, _noop).label == ""
