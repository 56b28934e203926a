"""Rebuilding run aggregates from a trace.

A trace is only trustworthy as an oracle if it is *complete*: the
aggregates the untraced run reports must be derivable from the records
alone.  :func:`replay` does that derivation — per-job response times from
arrival/departure timestamps, reallocation counts from non-cheap
dispatches, penalty totals from the charged costs — and
:func:`verify_replay` checks the result against a
:class:`~repro.core.system.SystemResult` exactly (response times are
computed by the identical subtraction, so equality is bit-for-bit).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.system import SystemResult
from repro.obs.records import (
    Dispatch,
    HandlerTable,
    JobArrival,
    JobCancelled,
    JobDeparture,
    RunEnd,
    TraceRecord,
)


@dataclasses.dataclass(frozen=True)
class ReplayedJob:
    """Aggregates for one job, rebuilt purely from trace records."""

    name: str
    response_time: float
    n_reallocations: int
    n_affine: int
    cache_penalty_total: float
    switch_overhead_total: float


@dataclasses.dataclass(frozen=True)
class ReplaySummary:
    """Everything :func:`replay` could rebuild from the record stream."""

    jobs: typing.Dict[str, ReplayedJob]
    makespan: typing.Optional[float]
    #: job name -> cancellation timestamp (open-system disruptions)
    cancelled: typing.Dict[str, float] = dataclasses.field(default_factory=dict)

    def mean_response_time(self) -> float:
        """Average replayed response time (the paper's primary metric)."""
        if not self.jobs:
            return 0.0
        return sum(j.response_time for j in self.jobs.values()) / len(self.jobs)


class _Replay:
    """What :func:`replay` accumulates while walking the records."""

    def __init__(self) -> None:
        self.arrivals: typing.Dict[str, float] = {}
        self.departures: typing.Dict[str, float] = {}
        self.reallocations: typing.Dict[str, int] = {}
        self.affine: typing.Dict[str, int] = {}
        self.penalties: typing.Dict[str, float] = {}
        self.switches: typing.Dict[str, float] = {}
        self.cancelled: typing.Dict[str, float] = {}
        self.makespan: typing.Optional[float] = None

    def arrival(self, record: JobArrival) -> None:
        self.arrivals[record.job] = record.time

    def departure(self, record: JobDeparture) -> None:
        self.departures[record.job] = record.time

    def cancellation(self, record: JobCancelled) -> None:
        self.cancelled[record.job] = record.time

    def dispatch(self, record: Dispatch) -> None:
        if not record.cheap:
            job = record.job
            self.reallocations[job] = self.reallocations.get(job, 0) + 1
            if record.affine:
                self.affine[job] = self.affine.get(job, 0) + 1
            self.penalties[job] = self.penalties.get(job, 0.0) + record.penalty_s
            self.switches[job] = self.switches.get(job, 0.0) + record.switch_s

    def run_end(self, record: RunEnd) -> None:
        self.makespan = record.makespan


#: record type -> the :class:`_Replay` method that folds it in
_REPLAY_STEPS = HandlerTable({
    JobArrival: _Replay.arrival,
    JobDeparture: _Replay.departure,
    JobCancelled: _Replay.cancellation,
    Dispatch: _Replay.dispatch,
    RunEnd: _Replay.run_end,
})


def replay(records: typing.Iterable[TraceRecord]) -> ReplaySummary:
    """Derive per-job aggregates from ``records`` alone."""
    acc = _Replay()
    steps = _REPLAY_STEPS
    for record in records:
        step = steps[type(record)]
        if step is not None:
            step(acc, record)
    arrivals = acc.arrivals
    jobs = {
        name: ReplayedJob(
            name=name,
            response_time=departure - arrivals[name],
            n_reallocations=acc.reallocations.get(name, 0),
            n_affine=acc.affine.get(name, 0),
            cache_penalty_total=acc.penalties.get(name, 0.0),
            switch_overhead_total=acc.switches.get(name, 0.0),
        )
        for name, departure in acc.departures.items()
        if name in arrivals
    }
    return ReplaySummary(jobs=jobs, makespan=acc.makespan, cancelled=acc.cancelled)


def verify_replay(
    records: typing.Iterable[TraceRecord], result: SystemResult
) -> typing.List[str]:
    """Compare a replayed trace against the run's own result.

    Response times and reallocation counts must match *exactly* (they are
    computed by identical operations on identical values); penalty totals
    are compared within float-summation slack, since the run accumulates
    them in a different order than the replay and may refund a partially
    consumed charge on preemption.

    Returns:
        A list of mismatch descriptions (empty = the trace is complete).
    """
    summary = replay(records)
    problems: typing.List[str] = []
    for name, metrics in result.jobs.items():
        replayed = summary.jobs.get(name)
        if replayed is None:
            problems.append(f"job {name!r} finished but never departed in the trace")
            continue
        if replayed.response_time != metrics.response_time:
            problems.append(
                f"job {name!r}: replayed response time {replayed.response_time!r} "
                f"!= reported {metrics.response_time!r}"
            )
        if replayed.n_reallocations != metrics.n_reallocations:
            problems.append(
                f"job {name!r}: replayed {replayed.n_reallocations} reallocations "
                f"!= reported {metrics.n_reallocations}"
            )
    extra = set(summary.jobs) - set(result.jobs)
    if extra:
        problems.append(f"trace contains unreported jobs {sorted(extra)}")
    for name, when in result.cancelled.items():
        replayed_when = summary.cancelled.get(name)
        if replayed_when is None:
            problems.append(
                f"job {name!r} was cancelled but the trace has no "
                "job_cancelled record"
            )
        elif replayed_when != when:
            problems.append(
                f"job {name!r}: replayed cancellation time {replayed_when!r} "
                f"!= reported {when!r}"
            )
    extra_cancelled = set(summary.cancelled) - set(result.cancelled)
    if extra_cancelled:
        problems.append(
            f"trace cancels jobs the run never cancelled {sorted(extra_cancelled)}"
        )
    if summary.makespan is not None and summary.makespan != result.makespan:
        problems.append(
            f"replayed makespan {summary.makespan!r} != reported {result.makespan!r}"
        )
    return problems
