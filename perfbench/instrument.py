"""Counters and spans around the simulator's public functions.

The benchmark never edits the program.  For the length of a measurement
it replaces chosen functions and methods with thin wrappers and then puts
the originals back; :meth:`Instrument.restore` checks that every one is
the original object again.

Two modes share the wrappers:

* counting (``spans=False``): only the hooks marked ``counts`` are
  installed.  They are called once per simulation, sweep cell, penalty
  regime or chunk of cache accesses.  They count the work the end-to-end
  rates divide by (engine events, cache accesses, generated blocks),
  note which cache and generator engines ran, and mark the boundaries
  where calibration samples may be taken.
* tracing (``spans=True``): every hook is installed and each wrapped
  call also records a span -- name, start, end, parent span and cell id
  -- into arrays kept in memory and written once when the run ends.

A span's name is ``<layer>.<part>``; the layer is the name of the module
family it wraps (``engine``, ``core``, ``threads``, ``apps``,
``machine``, ``measure``, ``workloads``, ``obs``, ``sweep``) or
``bench`` for the benchmark's own code.  A span's self time is its
duration minus the durations of its direct children, so the self times
of all spans add up to the duration of the root span.
"""

from __future__ import annotations

import array
import contextlib
import functools
import os
import time
import typing

#: A timing segment is closed with a calibration sample once it is this long.
MIN_SEGMENT_S = 0.25

#: Layers in report order.
LAYERS = (
    "engine", "core", "threads", "apps", "machine", "measure",
    "workloads", "obs", "sweep", "bench",
)


def calibration_sample() -> float:
    """Seconds a fixed pure-Python loop takes now (about 10 ms)."""
    start = time.perf_counter()
    table: typing.Dict[int, int] = {}
    acc = 0
    for i in range(50_000):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
        table[acc & 1023] = i
    return time.perf_counter() - start


class Hook(typing.NamedTuple):
    """One function or method to wrap: ``getattr(owner, attr)``."""

    owner: typing.Any
    attr: str
    name: str
    #: ``post(args, result)``, called after the span has ended
    post: typing.Optional[typing.Callable[[tuple, typing.Any], None]] = None
    #: ``namer(args) -> span name``, replaces ``name`` per call
    namer: typing.Optional[typing.Callable[[tuple], str]] = None
    #: installed in counting mode too
    counts: bool = False


class _Span:
    __slots__ = ("inst", "name_id", "index")

    def __init__(self, inst: "Instrument", name_id: int) -> None:
        self.inst = inst
        self.name_id = name_id
        self.index = -1

    def __enter__(self) -> None:
        self.index = self.inst._open(self.name_id)

    def __exit__(self, *exc_info: object) -> None:
        self.inst._close(self.index)


class Instrument:
    """Installs hooks, counts work, times the program and records spans.

    With ``calibrate=True`` the program's time is split into segments of
    at least :data:`MIN_SEGMENT_S`, closed at cell boundaries
    (:meth:`checkpoint`), and each segment is bracketed by calibration
    samples.  The host's speed drifts within seconds, so a pass is
    normalized segment by segment, not by one sample per pass.
    Calibration time is never counted as program time.
    """

    def __init__(self, spans: bool, calibrate: bool = False) -> None:
        self.spans = spans
        self.calibrate = calibrate
        #: (program seconds, calibration before, calibration after)
        self.segments: typing.List[typing.Tuple[float, float, float]] = []
        self._segment_start = 0.0
        self._calibration = 0.0
        self.counters: typing.Dict[str, float] = {}
        self.backends: typing.Set[str] = set()
        #: graphs built during the pass (counted after it, not inside spans)
        self.graphs: typing.List[typing.Any] = []
        self.names: typing.List[str] = []
        self._name_ids: typing.Dict[str, int] = {}
        self.cells: typing.List[str] = []
        self._cell_ids: typing.Dict[str, int] = {}
        self.cell = -1
        self._name = array.array("i")
        self._start = array.array("d")
        self._end = array.array("d")
        self._parent = array.array("i")
        self._span_cell = array.array("i")
        self._stack: typing.List[int] = [-1]
        self._installed: typing.List[typing.Tuple[typing.Any, str, typing.Any]] = []

    # -- counters and cells ------------------------------------------- #

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def count(self, counter: str) -> float:
        return self.counters.get(counter, 0)

    def reset_counts(self) -> None:
        self.counters.clear()
        self.graphs.clear()

    def set_cell(self, label: str) -> None:
        """Tag the spans that follow with ``label`` (a sweep cell)."""
        if not self.spans:
            return
        cell = self._cell_ids.get(label)
        if cell is None:
            cell = self._cell_ids[label] = len(self.cells)
            self.cells.append(label)
        self.cell = cell

    # -- timing --------------------------------------------------------- #

    def start_clock(self) -> None:
        """Start timing the program's work."""
        self.segments = []
        if self.calibrate:
            self._calibration = calibration_sample()
        self._segment_start = time.perf_counter()

    def _close_segment(self, now: float) -> None:
        after = calibration_sample() if self.calibrate else 0.0
        self.segments.append((now - self._segment_start, self._calibration, after))
        self._calibration = after
        self._segment_start = time.perf_counter()

    def checkpoint(self) -> None:
        """A cell boundary: calibrate here if the segment is long enough."""
        now = time.perf_counter()
        if self.calibrate and now - self._segment_start >= MIN_SEGMENT_S:
            self._close_segment(now)

    def lap(self) -> float:
        """Program seconds since :meth:`start_clock`."""
        return sum(s[0] for s in self.segments) + (
            time.perf_counter() - self._segment_start
        )

    def stop_clock(self) -> float:
        """Stop timing; returns the program seconds since :meth:`start_clock`."""
        self._close_segment(time.perf_counter())
        return sum(s[0] for s in self.segments)

    def normalized(self) -> float:
        """Program time of the last timing in calibration-loop units."""
        return sum(s / ((before + after) / 2) for s, before, after in self.segments)

    # -- spans ---------------------------------------------------------- #

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def _open(self, name_id: int) -> int:
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._span_cell.append(self.cell)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> typing.Any:
        """Context manager recording a span of the benchmark's own code."""
        if not self.spans:
            return contextlib.nullcontext()
        return _Span(self, self._name_id(name))

    @property
    def n_spans(self) -> int:
        return len(self._start)

    # -- wrapping --------------------------------------------------------- #

    def _wrap(self, fn: typing.Callable, hook: Hook) -> typing.Callable:
        post = hook.post
        if not self.spans:
            @functools.wraps(fn)
            def counting(*args: typing.Any, **kwargs: typing.Any) -> typing.Any:
                result = fn(*args, **kwargs)
                post(args, result)
                return result

            return counting

        open_span = self._open
        close_span = self._close
        namer = hook.namer
        name_of = self._name_id
        fixed_id = self._name_id(hook.name)

        @functools.wraps(fn)
        def traced(*args: typing.Any, **kwargs: typing.Any) -> typing.Any:
            index = open_span(fixed_id if namer is None else name_of(namer(args)))
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(index)
            if post is not None:
                post(args, result)
            return result

        return traced

    def install(self, hooks: typing.Iterable[Hook]) -> None:
        for hook in hooks:
            if not self.spans and not hook.counts:
                continue
            if not self.spans and hook.post is None:
                raise ValueError(f"counting hook {hook.name} has nothing to count")
            original = vars(hook.owner)[hook.attr]
            if not callable(original):
                raise TypeError(f"{hook.owner!r}.{hook.attr} is not callable")
            setattr(hook.owner, hook.attr, self._wrap(original, hook))
            self._installed.append((hook.owner, hook.attr, original))

    def restore(self) -> typing.List[str]:
        """Put every original back; returns any that did not come back."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        problems = [
            f"{getattr(owner, '__name__', owner)}.{attr} is not the original"
            for owner, attr, original in self._installed
            if vars(owner).get(attr) is not original
        ]
        self._installed.clear()
        return problems

    # -- analysis ----------------------------------------------------------- #

    def span_arrays(self) -> typing.Dict[str, typing.Any]:
        import numpy as np

        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int32).copy(),
            "cell": np.frombuffer(self._span_cell, dtype=np.int32).copy(),
        }

    def write_spans(self, path: str) -> None:
        """Write every span once, as numpy arrays plus the name tables."""
        import numpy as np

        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            cells=np.array(self.cells, dtype=str),
            **self.span_arrays(),
        )


class SpanTimes(typing.NamedTuple):
    """Per-name totals over every recorded span."""

    count: typing.Dict[str, int]
    inclusive: typing.Dict[str, float]
    exclusive: typing.Dict[str, float]
    #: exclusive time of spans grouped by (name, parent name)
    by_parent: typing.Dict[typing.Tuple[str, str], float]
    #: spans whose children outlast them (a nesting error)
    n_negative: int


def span_times(inst: Instrument) -> SpanTimes:
    import numpy as np

    arrays = inst.span_arrays()
    names = inst.names
    n_names = len(names)
    name = arrays["name"]
    parent = arrays["parent"]
    duration = arrays["end"] - arrays["start"]
    has_parent = parent >= 0
    child = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    own = duration - child
    count = np.bincount(name, minlength=n_names)
    inclusive = np.bincount(name, weights=duration, minlength=n_names)
    exclusive = np.bincount(name, weights=own, minlength=n_names)
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    pair = name.astype(np.int64) * (n_names + 1) + (parent_name + 1)
    pair_ids, pair_index = np.unique(pair, return_inverse=True)
    pair_own = np.bincount(pair_index, weights=own)
    by_parent = {}
    for pid, value in zip(pair_ids.tolist(), pair_own.tolist()):
        child_id, parent_id = divmod(pid, n_names + 1)
        parent_label = names[parent_id - 1] if parent_id else ""
        by_parent[(names[child_id], parent_label)] = value
    return SpanTimes(
        count={n: int(c) for n, c in zip(names, count.tolist())},
        inclusive=dict(zip(names, inclusive.tolist())),
        exclusive=dict(zip(names, exclusive.tolist())),
        by_parent=by_parent,
        n_negative=int(np.count_nonzero(own < -1e-6)),
    )


def layer_self_times(times: SpanTimes) -> typing.Dict[str, float]:
    """Exclusive time summed per layer (the first part of a span name)."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, value in times.exclusive.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + value
    return out
