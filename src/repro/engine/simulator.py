"""The discrete-event run loop."""

from __future__ import annotations

import math
import typing

from repro.engine.events import DEFAULT_PRIORITY, Event, EventHandle, Label
from repro.engine.queue import EventQueue
from repro.engine.rng import RngRegistry

TraceHook = typing.Callable[[float, str], None]


class Simulator:
    """Drives virtual time over a cancellable event queue.

    A simulation is built by scheduling handlers (``schedule``/``at``) and
    calling :meth:`run`.  Components receive the simulator instance and use
    ``sim.now`` for the current time and ``sim.schedule`` for future work.
    An event fires as ``handler(*args)``: schedule a bound method with
    ``args=(...)`` rather than a closure, and give a label that needs
    formatting as a ``(fmt, *parts)`` tuple, which is formatted only if a
    trace hook, the profiler or ``repr`` reads it.

    Time only moves forward: the run loop sets it to each fired event's
    time, and every way of scheduling rejects a time before ``now``.

    Trace hooks receive ``(time, label)`` for every fired event; they exist
    for tests and debugging and are never required for correctness.
    """

    def __init__(self, rng: typing.Optional[RngRegistry] = None, seed: int = 0) -> None:
        self._now = 0.0
        self.queue = EventQueue()
        self.rng = rng if rng is not None else RngRegistry(seed)
        self._trace_hooks: typing.List[TraceHook] = []
        self._events_fired = 0
        self._running = False
        self._stopped = False
        self._profiler: typing.Optional[object] = None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._events_fired

    def add_trace_hook(self, hook: TraceHook) -> None:
        """Register a ``(time, label)`` observer called for each fired event."""
        self._trace_hooks.append(hook)

    def attach_tracer(self, tracer: typing.Optional[object]) -> None:
        """Wire a :class:`repro.obs.tracer.Tracer` into the run loop.

        Only a tracer that is enabled *and* asked for engine events
        (``capture_engine_events``) installs a hook; otherwise this is a
        no-op, so the run loop's hook list stays empty and the disabled
        path costs nothing per event.
        """
        if (
            tracer is not None
            and getattr(tracer, "enabled", False)
            and getattr(tracer, "capture_engine_events", False)
        ):
            self.add_trace_hook(tracer.engine_hook)  # type: ignore[attr-defined]

    def attach_profiler(self, profiler: typing.Optional[object]) -> None:
        """Wire a :class:`repro.obs.profiling.SpanProfiler` into the loop.

        When an enabled profiler is attached, :meth:`run` wraps the whole
        loop in an ``engine/run`` span and each fired event in an
        ``engine/<label-prefix>`` span (the label up to the first ``:``,
        so ``slice:GRAVITY`` aggregates under ``engine/slice``).  With no
        profiler — or a :class:`~repro.obs.profiling.NullSpanProfiler` —
        the run loop's only extra cost is one check per :meth:`run` call.
        """
        self._profiler = profiler

    def schedule(
        self,
        delay: float,
        handler: typing.Callable[..., None],
        priority: int = DEFAULT_PRIORITY,
        label: Label = "",
        args: tuple = (),
    ) -> Event:
        """Schedule ``handler(*args)`` to fire ``delay`` seconds from now.

        Returns the event, which is also its cancel handle.

        Raises:
            ValueError: if ``delay`` is negative.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay!r}")
        return self.queue.push(self._now + delay, handler, priority, label, args)

    def at(
        self,
        time: float,
        handler: typing.Callable[..., None],
        priority: int = DEFAULT_PRIORITY,
        label: Label = "",
        args: tuple = (),
    ) -> Event:
        """Schedule ``handler(*args)`` at absolute virtual ``time`` (>= now).

        Raises:
            ValueError: if ``time`` precedes the current time.
        """
        if time < self._now:
            raise ValueError(f"cannot schedule in the past: now={self._now}, time={time}")
        return self.queue.push(float(time), handler, priority, label, args)

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel a previously scheduled event (idempotent).

        A no-op on events that already fired or were already cancelled —
        the queue owns the lifecycle transition, so a late cancel can never
        corrupt its live accounting.  Returns True if this call cancelled
        the event.
        """
        return handle.cancel()

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stopped = True

    def reset(self, seed: typing.Optional[int] = None) -> None:
        """Return the simulator to a pristine state for reuse.

        Cancels everything still queued, rewinds time to zero, and
        zeroes the fired-event counter.  Trace hooks are kept (they are
        observers, not simulation state).  Pass ``seed`` to also replace
        the RNG registry; otherwise the existing registry is kept as-is.

        Raises:
            RuntimeError: if called from within a running event.
        """
        if self._running:
            raise RuntimeError("cannot reset a running simulator")
        self.queue.clear()
        self._now = 0.0
        self._events_fired = 0
        self._stopped = False
        if seed is not None:
            self.rng = RngRegistry(seed)

    def run(self, until: typing.Optional[float] = None, max_events: typing.Optional[int] = None) -> float:
        """Execute events in order until exhaustion, ``until``, or ``stop()``.

        Args:
            until: if given, stop once the next event would fire after this
                time; time is advanced to ``until`` in that case.  It must
                be a number no earlier than ``now``.
            max_events: optional safety valve for tests: fire at most this
                many events (``0`` fires none).

        Returns:
            The virtual time at which the run loop stopped.

        Raises:
            RuntimeError: if called re-entrantly from within an event.
            ValueError: if ``until`` is NaN or precedes ``now``, or if
                ``max_events`` is negative.
        """
        if self._running:
            raise RuntimeError("Simulator.run is not re-entrant")
        if until is not None and not until >= self._now:
            raise ValueError(
                f"until must be a time no earlier than now={self._now!r}, got {until!r}"
            )
        if max_events is not None and max_events < 0:
            raise ValueError(f"max_events must be non-negative, got {max_events!r}")
        if max_events == 0:
            return self._now
        self._running = True
        self._stopped = False
        fired = self._events_fired
        limit = math.inf if max_events is None else fired + max_events
        prof = self._profiler
        profiling = prof is not None and prof.enabled  # type: ignore[attr-defined]
        if profiling:
            prof.push("engine/run")  # type: ignore[attr-defined]
        queue = self.queue
        pop = queue.pop
        hooks = self._trace_hooks
        try:
            while queue._live and not self._stopped:
                if until is not None and queue.peek_time() > until:  # type: ignore[operator]
                    self._now = float(until)
                    break
                event = pop()
                time = self._now = event.time
                fired += 1
                self._events_fired = fired
                if hooks:
                    label = event.label
                    for hook in hooks:
                        hook(time, label)
                if profiling:
                    # Aggregate per label family: "slice:GRAVITY" and
                    # "slice:MATRIX" both land in "engine/slice".
                    prof.push("engine/" + (event.label.split(":", 1)[0] or "event"))  # type: ignore[attr-defined]
                    try:
                        event.handler(*event.args)
                    finally:
                        prof.pop()  # type: ignore[attr-defined]
                else:
                    event.handler(*event.args)
                if fired >= limit:
                    break
            else:
                # No break: the queue drained or stop() was called.  Only
                # a drained queue has nothing left before `until`; after
                # stop() or a max_events break there may still be events
                # at t <= until, and jumping over them would let the next
                # run() fire them in the past.
                if until is not None and not self._stopped:
                    self._now = float(until)
            return self._now
        finally:
            if profiling:
                prof.pop()  # type: ignore[attr-defined]
            self._running = False

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self._now:.6f}, queued={len(self.queue)}, "
            f"fired={self._events_fired})"
        )
