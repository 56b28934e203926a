"""Single-pass streaming pipeline: consume records as the run emits them.

The batch observability path is: run with a :class:`Tracer`, materialize
``tracer.records``, then walk that list once per analysis (invariants,
metrics replay, export).  At fleet scale the list itself is the problem
— a million-job sweep cell emits tens of millions of records.  This
module inverts the flow: a :class:`StreamingTracer` fans each record out
to *consumers* the moment it is emitted and keeps nothing, so a whole
matrix cell can be invariant-checked, metric-aggregated and written to
the columnar store in one pass with bounded memory.

Consumers are anything with ``feed(record)`` — the incremental oracle
(:class:`repro.obs.invariants.StreamingChecker`), the derived-metrics
aggregator (:class:`StreamingMetrics`), the columnar writer
(:class:`repro.obs.store.ColumnarTraceWriter`), or ad-hoc lambdas in
tests.  An optional ``close()`` is called when the tracer is closed.

:class:`StreamingMetrics` rebuilds, from records alone, exactly the
scheduling-run metric catalog :class:`~repro.core.system.SchedulingSystem`
populates — same instruments, same accumulation order (record order ==
emission order), so its registry snapshot is **bit-identical** to the
run's own.  (Only the scheduling catalog: ``penalty/*`` instruments from
the Section-4 measurement harness are not derivable from scheduling
records and are out of scope.)  This is differential-tested across the
full policy × scenario × seed oracle matrix.
"""

from __future__ import annotations

import typing

from repro.obs.metrics import MetricsRegistry
from repro.obs.records import (
    AllocationChange,
    CacheFlush,
    CpuFailure,
    CpuRecovery,
    Dispatch,
    EngineEvent,
    HandlerTable,
    JobArrival,
    JobCancelled,
    JobDeparture,
    PolicyDecision,
    RunEnd,
    TraceRecord,
    Undispatch,
)
from repro.obs.tracer import Tracer


class Consumer(typing.Protocol):
    """What a streaming consumer must provide."""

    def feed(self, record: TraceRecord) -> None:  # pragma: no cover - protocol
        ...


class StreamingMetrics:
    """Rebuild the scheduling-run metric catalog from the record stream.

    Every ``metrics.counter(...)`` / ``gauge`` / ``histogram`` call
    :class:`~repro.core.system.SchedulingSystem` makes during a traced
    run has a corresponding record carrying the same value, emitted at
    the same point in the event order.  Feeding those records through
    this class therefore performs the *identical* sequence of float
    accumulations, which makes ``registry.snapshot()`` bit-identical to
    the live run's — the property the streaming differential tests pin.

    Memory: one :class:`MetricsRegistry` (O(distinct metric names)).
    """

    def __init__(self, registry: typing.Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    def feed(self, record: TraceRecord) -> None:
        """Apply one record's metric contributions to the registry."""
        apply = _METRIC_UPDATES[type(record)]
        if apply is not None:
            apply(self.registry, record)

    def snapshot(self) -> typing.Dict[str, typing.Any]:
        """The derived registry's snapshot (see ``MetricsRegistry``)."""
        return self.registry.snapshot()


def _dispatch_metrics(metrics: MetricsRegistry, record: Dispatch) -> None:
    metrics.counter("dispatch/total").inc()
    metrics.histogram("dispatch/ready_depth").observe(record.ready_depth)
    if not record.cheap:
        metrics.counter("dispatch/reallocations").inc()
        if record.affine:
            metrics.counter("dispatch/affine").inc()
        metrics.counter("dispatch/cache_penalty_s").inc(record.penalty_s)
        metrics.counter("dispatch/switch_overhead_s").inc(record.switch_s)
        metrics.histogram("dispatch/penalty_s").observe(record.penalty_s)


def _undispatch_metrics(metrics: MetricsRegistry, record: Undispatch) -> None:
    if record.reason == "preempt":
        metrics.counter("dispatch/preemptions").inc()


def _decision_metrics(metrics: MetricsRegistry, record: PolicyDecision) -> None:
    metrics.counter(f"policy/decisions/{record.rule}").inc()


def _departure_metrics(metrics: MetricsRegistry, record: JobDeparture) -> None:
    metrics.counter("jobs/completed").inc()
    metrics.histogram("jobs/response_s").observe(record.response_time)


def _cancellation_metrics(metrics: MetricsRegistry, record: JobCancelled) -> None:
    metrics.counter("jobs/cancelled").inc()
    metrics.counter("jobs/cancelled_work_s").inc(record.work_done)


def _flush_metrics(metrics: MetricsRegistry, record: CacheFlush) -> None:
    metrics.counter("cpu/flushed_lines").inc(record.lines)


def _run_end_metrics(metrics: MetricsRegistry, record: RunEnd) -> None:
    metrics.gauge("run/makespan_s").set(record.makespan)
    metrics.counter("run/events_fired").inc(record.events_fired)


def _count(name: str) -> typing.Callable[[MetricsRegistry, TraceRecord], None]:
    """An update that adds one to counter ``name``."""

    def update(metrics: MetricsRegistry, record: TraceRecord) -> None:
        metrics.counter(name).inc()

    return update


#: record type -> its metric contributions; other records contribute none
_METRIC_UPDATES = HandlerTable({
    Dispatch: _dispatch_metrics,
    Undispatch: _undispatch_metrics,
    PolicyDecision: _decision_metrics,
    AllocationChange: _count("alloc/changes"),
    JobArrival: _count("jobs/arrived"),
    JobDeparture: _departure_metrics,
    JobCancelled: _cancellation_metrics,
    CpuFailure: _count("cpu/failures"),
    CacheFlush: _flush_metrics,
    CpuRecovery: _count("cpu/recoveries"),
    RunEnd: _run_end_metrics,
})


def derive_metrics(
    records: typing.Iterable[TraceRecord],
    registry: typing.Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Batch convenience: stream ``records`` through :class:`StreamingMetrics`."""
    streaming = StreamingMetrics(registry)
    for record in records:
        streaming.feed(record)
    return streaming.registry


class StreamingTracer(Tracer):
    """A tracer that forwards records to consumers instead of keeping them.

    Drop-in wherever a :class:`Tracer` is accepted (``enabled`` is True,
    so instrumented guards still construct records), but ``records``
    stays empty forever: each emission is pushed through every consumer
    and then dropped.  ``len()`` reports how many records flowed through.

    Consumers fire in registration order — so registering a
    :class:`~repro.obs.invariants.StreamingChecker` before a columnar
    writer checks each record before it is persisted.
    """

    def __init__(
        self,
        consumers: typing.Iterable[Consumer] = (),
        capture_engine_events: bool = False,
    ) -> None:
        super().__init__(capture_engine_events=capture_engine_events)
        self.consumers: typing.List[Consumer] = list(consumers)
        self._count = 0
        self._closed = False

    def add_consumer(self, consumer: Consumer) -> None:
        """Register another consumer (fires after existing ones)."""
        self.consumers.append(consumer)

    def emit(self, record: TraceRecord) -> None:
        self._count += 1
        for consumer in self.consumers:
            consumer.feed(record)

    def engine_hook(self, time: float, label: str) -> None:
        # Tracer.engine_hook appends to self.records directly; here the
        # record flows through the consumer fan-out like any other.
        self.emit(EngineEvent(time=time, label=label))

    def close(self) -> None:
        """Close every consumer that has a ``close`` (e.g. columnar writers)."""
        if self._closed:
            return
        self._closed = True
        for consumer in self.consumers:
            close = getattr(consumer, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "StreamingTracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> typing.Iterator[TraceRecord]:
        raise TypeError(
            "StreamingTracer retains no records; attach a consumer (e.g. a "
            "ColumnarTraceWriter) to capture the stream"
        )

    def __repr__(self) -> str:
        return (
            f"StreamingTracer(consumers={len(self.consumers)}, "
            f"records_seen={self._count})"
        )
