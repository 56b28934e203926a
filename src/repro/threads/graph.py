"""Thread dependence graphs.

A :class:`ThreadGraph` is a DAG whose nodes are user-level threads (with a
service demand in processor-seconds on the base machine) and whose edges
are precedence constraints.  The graph tracks readiness incrementally so
the simulator can ask "which threads became runnable?" in O(out-degree)
per completion.

The module also computes the *parallelism profile* shown in the paper's
Figures 2-4: the percentage of elapsed time an application spends at each
level of physical parallelism when run in isolation on P processors, plus
total execution time and average processor demand.
"""

from __future__ import annotations

import array
import dataclasses
import heapq
import typing


@dataclasses.dataclass(frozen=True)
class ThreadNode:
    """A read-only view of one user-level thread.

    Attributes:
        tid: index within the graph.
        service_time: processor-seconds of work at base machine speed.
        successors: thread ids unblocked (partially) by this completion.
        n_predecessors: static in-degree.
        phase: optional label for grouping (e.g. GRAVITY's phase number).
        data_group: optional tag of the data this thread operates on;
            threads sharing a group benefit from running consecutively on
            one worker (see :mod:`repro.threads.data_affinity`).
    """

    tid: int
    service_time: float
    successors: typing.Tuple[int, ...]
    n_predecessors: int
    phase: str = ""
    data_group: typing.Optional[int] = None


class GraphShape:
    """The immutable structure of a thread DAG, shared by its instances.

    Successors are stored as CSR: the successors of thread ``t`` are
    ``succ_targets[succ_offsets[t]:succ_offsets[t + 1]]``, in the order the
    dependencies were added (that order decides which newly-ready thread
    queues first).  The shape also holds each thread's static in-degree,
    phase label and data group.  An application spec compiles its shape
    once; every job instance shares it and owns only its service times and
    blocked counts.
    """

    __slots__ = (
        "succ_offsets", "succ_targets", "n_predecessors", "phases",
        "data_groups", "roots", "_acyclic",
    )

    def __init__(
        self,
        successors: typing.Sequence[typing.Sequence[int]],
        phases: typing.Sequence[str],
        data_groups: typing.Sequence[typing.Optional[int]],
    ) -> None:
        offsets = [0]
        targets: typing.List[int] = []
        in_degree = [0] * len(successors)
        for succ in successors:
            targets.extend(succ)
            offsets.append(len(targets))
            for after in succ:
                in_degree[after] += 1
        self.succ_offsets: typing.Tuple[int, ...] = tuple(offsets)
        self.succ_targets: typing.Tuple[int, ...] = tuple(targets)
        self.n_predecessors: typing.Tuple[int, ...] = tuple(in_degree)
        self.phases: typing.Tuple[str, ...] = tuple(phases)
        self.data_groups: typing.Tuple[typing.Optional[int], ...] = tuple(data_groups)
        #: threads with no predecessors, in id order
        self.roots: typing.Tuple[int, ...] = tuple(
            tid for tid, degree in enumerate(in_degree) if degree == 0
        )
        self._acyclic: typing.Optional[bool] = None

    @property
    def n_threads(self) -> int:
        """Number of threads in the shape."""
        return len(self.n_predecessors)

    def successors(self, tid: int) -> typing.Tuple[int, ...]:
        """Threads ``tid`` (partially) unblocks, in dependency order."""
        return self.succ_targets[self.succ_offsets[tid]:self.succ_offsets[tid + 1]]

    def topological_order(self) -> typing.Optional[typing.List[int]]:
        """A topological order of the threads, or None if there is a cycle."""
        in_degree = list(self.n_predecessors)
        offsets, targets = self.succ_offsets, self.succ_targets
        queue = list(self.roots)
        order: typing.List[int] = []
        while queue:
            tid = queue.pop()
            order.append(tid)
            for succ in targets[offsets[tid]:offsets[tid + 1]]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    queue.append(succ)
        self._acyclic = len(order) == len(in_degree)
        return order if self._acyclic else None

    @property
    def acyclic(self) -> bool:
        """True if the shape has no cycle (checked once, then remembered)."""
        if self._acyclic is None:
            self.topological_order()
        return bool(self._acyclic)


@dataclasses.dataclass(frozen=True)
class ParallelismProfile:
    """Isolated-run characteristics (the content of Figures 2-4)."""

    #: fraction of elapsed time at each parallelism level, level -> fraction
    time_at_level: typing.Dict[int, float]
    #: total elapsed execution time (seconds)
    execution_time: float
    #: time-averaged processor demand
    average_demand: float
    #: number of processors the run was profiled on
    n_processors: int


class ThreadGraph:
    """A precedence DAG of user-level threads with readiness tracking.

    A graph is either *built* — threads and dependencies added one by one
    with :meth:`add_thread` and :meth:`add_dependency`, then compiled into
    a :class:`GraphShape` on first use — or *instantiated* from a shape an
    application spec compiled once, with this instance's service times.
    Either way the runtime state is one blocked-count vector: the number
    of unfinished predecessors of each thread, or -1 once it completed.
    """

    def __init__(
        self,
        name: str = "",
        shape: typing.Optional[GraphShape] = None,
        service_times: typing.Sequence[float] = (),
    ) -> None:
        self.name = name
        self._shape = shape
        # A float64 array: 8 bytes per thread.  Finished jobs linger as
        # cyclic garbage (job <-> worker) until the collector's next full
        # pass, so the per-instance footprint sets the peak memory.
        self._service = array.array("d", service_times)
        if shape is None:
            if self._service:
                raise ValueError("service_times need a shape")
            self._successors: typing.Optional[typing.List[typing.List[int]]] = []
            self._phases: typing.List[str] = []
            self._groups: typing.List[typing.Optional[int]] = []
        else:
            if len(self._service) != shape.n_threads:
                raise ValueError(
                    f"{len(self._service)} service times for {shape.n_threads} threads"
                )
            if any(service < 0 for service in self._service):
                raise ValueError("service_time must be non-negative")
            self._successors = None
        self._blocked: typing.Optional[typing.List[int]] = None
        self._n_completed = 0

    # ------------------------------------------------------------------ #
    # building

    def _builder(self) -> typing.List[typing.List[int]]:
        if self._successors is None:
            raise RuntimeError(f"graph {self.name!r} is compiled; it can no longer grow")
        return self._successors

    def add_thread(
        self,
        service_time: float,
        phase: str = "",
        data_group: typing.Optional[int] = None,
    ) -> int:
        """Add a thread with ``service_time`` processor-seconds of work."""
        if service_time < 0:
            raise ValueError("service_time must be non-negative")
        successors = self._builder()
        successors.append([])
        self._service.append(service_time)
        self._phases.append(phase)
        self._groups.append(data_group)
        return len(successors) - 1

    def add_dependency(self, before: int, after: int) -> None:
        """Require ``before`` to complete before ``after`` may start."""
        if before == after:
            raise ValueError("a thread cannot depend on itself")
        successors = self._builder()
        for tid in (before, after):
            if not 0 <= tid < len(successors):
                raise IndexError(f"no such thread: {tid}")
        successors[before].append(after)

    @property
    def shape(self) -> GraphShape:
        """The compiled structure; compiling ends the building phase."""
        shape = self._shape
        if shape is None:
            shape = self._shape = GraphShape(self._builder(), self._phases, self._groups)
            self._successors = None
            del self._phases, self._groups
        return shape

    # ------------------------------------------------------------------ #
    # queries

    @property
    def n_threads(self) -> int:
        """Total number of threads."""
        return len(self._service)

    @property
    def n_completed(self) -> int:
        """Number of threads already completed."""
        return self._n_completed

    @property
    def all_done(self) -> bool:
        """True once every thread has completed."""
        return self._n_completed == len(self._service)

    def node(self, tid: int) -> ThreadNode:
        """A read-only view of thread ``tid``."""
        shape = self.shape
        if not 0 <= tid < shape.n_threads:
            raise IndexError(f"no such thread: {tid}")
        return ThreadNode(
            tid=tid,
            service_time=self._service[tid],
            successors=shape.successors(tid),
            n_predecessors=shape.n_predecessors[tid],
            phase=shape.phases[tid],
            data_group=shape.data_groups[tid],
        )

    def service_time(self, tid: int) -> float:
        """Service demand of thread ``tid`` (an id this graph handed out)."""
        return self._service[tid]

    def data_group(self, tid: int) -> typing.Optional[int]:
        """Data group of thread ``tid`` (an id this graph handed out)."""
        return self.shape.data_groups[tid]

    def total_work(self) -> float:
        """Sum of all service times (processor-seconds)."""
        return sum(self._service)

    def initially_ready(self) -> typing.List[int]:
        """Threads with no predecessors, in id order."""
        return list(self.shape.roots)

    # ------------------------------------------------------------------ #
    # readiness

    def complete(self, tid: int) -> typing.List[int]:
        """Mark ``tid`` complete; returns threads that just became ready.

        Raises:
            RuntimeError: on double completion (a simulator bug).
        """
        blocked = self._blocked
        if blocked is None:
            self.reset()
            blocked = self._blocked
            assert blocked is not None
        if blocked[tid] < 0:
            raise RuntimeError(f"thread {tid} completed twice")
        blocked[tid] = -1
        self._n_completed += 1
        shape = self._shape
        assert shape is not None
        offsets = shape.succ_offsets
        newly_ready = []
        for succ in shape.succ_targets[offsets[tid]:offsets[tid + 1]]:
            left = blocked[succ] - 1
            blocked[succ] = left
            if left == 0:
                newly_ready.append(succ)
        return newly_ready

    def reset(self) -> None:
        """Return the graph to its initial (nothing completed) state."""
        self._n_completed = 0
        self._blocked = list(self.shape.n_predecessors)

    # ------------------------------------------------------------------ #
    # analysis

    def validate_acyclic(self) -> None:
        """Raise ValueError if the dependence graph has a cycle."""
        if not self.shape.acyclic:
            raise ValueError(f"dependence graph of {self.name!r} contains a cycle")

    def critical_path(self) -> float:
        """Length (seconds) of the longest dependence chain."""
        shape = self.shape
        service = self._service
        earliest_start: typing.List[float] = [0.0] * len(service)
        order = shape.topological_order()
        if order is None:
            raise ValueError("graph contains a cycle")
        for tid in order:
            end = earliest_start[tid] + service[tid]
            for succ in shape.successors(tid):
                if end > earliest_start[succ]:
                    earliest_start[succ] = end
        return max(
            (earliest_start[tid] + service[tid] for tid in order),
            default=0.0,
        )

    def parallelism_profile(self, n_processors: int) -> ParallelismProfile:
        """Greedy list-schedule the graph on ``n_processors`` and profile it.

        This is how the paper characterizes each application (Figures 2-4):
        run in isolation on 16 processors and record the percentage of time
        spent at each level of physical parallelism, the total execution
        time, and the average processor demand.
        """
        if n_processors <= 0:
            raise ValueError("need at least one processor")
        self.reset()
        ready = list(self.initially_ready())
        running: typing.List[typing.Tuple[float, int]] = []  # (finish, tid)
        now = 0.0
        last_change = 0.0
        time_at_level: typing.Dict[int, float] = {}
        demand_integral = 0.0

        def record(until: float) -> None:
            nonlocal last_change, demand_integral
            span = until - last_change
            if span > 0:
                level = len(running)
                time_at_level[level] = time_at_level.get(level, 0.0) + span
                demand_integral += level * span
            last_change = until

        while ready or running:
            while ready and len(running) < n_processors:
                tid = ready.pop(0)
                heapq.heappush(running, (now + self._service[tid], tid))
            if not running:
                raise RuntimeError("deadlock: ready empty but graph not done")
            finish = running[0][0]
            # Record the interval up to the next completion at the level
            # that actually ran during it, then drain every thread that
            # finishes at that instant.
            record(finish)
            now = finish
            while running and running[0][0] == now:
                _, tid = heapq.heappop(running)
                ready.extend(self.complete(tid))
        self.reset()
        total = now if now > 0 else 1.0
        fractions = {lvl: t / total for lvl, t in time_at_level.items()}
        return ParallelismProfile(
            time_at_level=fractions,
            execution_time=now,
            average_demand=demand_integral / total,
            n_processors=n_processors,
        )

    def max_parallelism(self) -> int:
        """Maximum number of simultaneously runnable threads (greedy, unbounded)."""
        profile = self.parallelism_profile(self.n_threads or 1)
        return max(profile.time_at_level) if profile.time_at_level else 0

    def __repr__(self) -> str:
        return f"ThreadGraph({self.name!r}, threads={self.n_threads})"
