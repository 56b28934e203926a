"""Virtual simulation clock."""

from __future__ import annotations


class VirtualClock:
    """Monotonic virtual clock measured in seconds.

    The clock only advances through :meth:`advance_to`.  Attempting to move
    backwards is a programming error and raises immediately rather than
    silently corrupting causality.  :class:`~repro.engine.simulator.
    Simulator` does not use it: its run loop keeps virtual time itself, so
    reading ``sim.now`` is one attribute read.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time``.

        Raises:
            ValueError: if ``time`` precedes the current time.
        """
        if time < self._now:
            raise ValueError(
                f"clock cannot run backwards: now={self._now!r}, requested={time!r}"
            )
        self._now = float(time)

    def reset(self, start: float = 0.0) -> None:
        """Reset the clock (used between replications)."""
        self._now = float(start)

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now:.9f})"
