"""Event records for the discrete-event simulator.

Events are ordered by ``(time, priority, seq)``.  ``priority`` breaks ties
between events scheduled for the same instant (smaller runs first), and
``seq`` — a monotonically increasing sequence number assigned by the queue —
makes the ordering total and therefore deterministic: two runs with the same
seed schedule and pop events in exactly the same order.  The queue keeps
that key as a plain tuple next to each event in its heap, so events
themselves need no ordering methods.

An event is also its own cancel handle (``EventHandle`` is an alias of
:class:`Event`), and it carries its action as ``handler(*args)``, so a
scheduler passes a bound method and its arguments instead of building a
closure per event.

Every event moves through an explicit lifecycle::

    PENDING ──pop──▶ FIRED
       │
       └──cancel──▶ CANCELLED

The transitions are one-way: a fired event can never become cancelled and
vice versa, so late ``cancel()`` calls on handles whose event already ran
are harmless no-ops instead of corrupting the queue's live accounting.
"""

from __future__ import annotations

import enum
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.queue import EventQueue


#: Default tie-break priority for events that do not care about intra-instant
#: ordering.  Policies that must observe a consistent state (e.g. the
#: allocator reacting *after* all thread completions at an instant) use
#: larger values.
DEFAULT_PRIORITY = 100


class EventState(enum.Enum):
    """Lifecycle state of a scheduled event."""

    PENDING = "pending"
    FIRED = "fired"
    CANCELLED = "cancelled"


_PENDING = EventState.PENDING

#: An event label: a string, or a ``(fmt, *parts)`` tuple formatted lazily
#: as ``fmt.format(*parts)`` (so it equals the f-string with the same
#: fields).
Label = typing.Union[str, typing.Tuple[typing.Any, ...]]


class Event:
    """A single scheduled occurrence, and the handle to cancel it.

    The queue creates one ``Event`` per push and returns it to the
    scheduler, so an event needs no separate handle object.

    Attributes:
        time: absolute virtual time (seconds) at which the event fires.
        priority: intra-instant ordering; lower fires first.
        seq: queue-assigned sequence number; makes ordering total.
        handler: callable invoked as ``handler(*args)`` when the event fires.
        args: positional arguments for ``handler``.
        state: lifecycle state; only the owning :class:`~repro.engine.queue.
            EventQueue` transitions it (``PENDING → FIRED`` on pop,
            ``PENDING → CANCELLED`` on cancellation).

    The label is stored as given: a string, or a ``(fmt, *parts)`` tuple
    that :attr:`label` formats with ``fmt.format(*parts)`` on first read.
    Run loops that fire events without reading labels never pay for the
    formatting.
    """

    __slots__ = ("time", "priority", "seq", "handler", "args", "_label", "state", "_queue")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        handler: typing.Callable[..., None],
        args: tuple,
        label: Label,
        queue: "EventQueue",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.handler = handler
        self.args = args
        self._label = label
        self.state = _PENDING
        self._queue = queue

    @property
    def label(self) -> str:
        """The label the event was scheduled with, formatted on first read."""
        label = self._label
        if type(label) is tuple:
            label = self._label = label[0].format(*label[1:])
        return label

    @property
    def pending(self) -> bool:
        """True while the event is queued and may still fire."""
        return self.state is _PENDING

    @property
    def fired(self) -> bool:
        """True once the event has been popped for execution."""
        return self.state is EventState.FIRED

    @property
    def cancelled(self) -> bool:
        """True once the event has been cancelled (and will never fire)."""
        return self.state is EventState.CANCELLED

    def cancel(self) -> bool:
        """Prevent the event from firing, if it has not fired already.

        Cancellation is *lazy*: the event stays in the heap but is skipped
        when it reaches the front.  This keeps cancellation O(1) and is the
        standard trick for binary-heap event queues.  The call routes
        through the queue that owns the event, so the queue's live count
        stays exact without callers having to notify it separately.

        Idempotent and safe in every state:

        * ``PENDING`` — transitions to ``CANCELLED``; returns True.
        * ``CANCELLED`` — no-op; returns False.
        * ``FIRED`` — no-op; returns False.  (Before the lifecycle state
          machine, cancelling a fired event silently corrupted the queue's
          live count.)
        """
        return self._queue._cancel(self)

    def __repr__(self) -> str:
        return f"Event(t={self.time:.6f}, {self.label!r}, {self.state.value})"


#: The handle returned when scheduling: the event itself.
EventHandle = Event
