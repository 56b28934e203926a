"""Typed, timestamped trace records.

Every observable fact about a run — a job arriving, a processor changing
hands, a policy decision with its reasoning, a cache flush — becomes one
immutable record.  Records are plain dataclasses with a stable ``kind``
string, and serialize to flat, key-sorted dicts (see
:func:`record_to_dict` and :mod:`repro.reporting.obs_export`), so a trace
is both a Python object stream and a diff-friendly JSONL artifact.

The record set is the contract the invariant checker
(:mod:`repro.obs.invariants`) and the replay verifier
(:mod:`repro.obs.replay`) consume; extend it, don't repurpose fields.
"""

from __future__ import annotations

import dataclasses
import functools
import typing


@dataclasses.dataclass(frozen=True)
class TraceRecord:
    """Base of every trace record: a timestamp in virtual seconds."""

    kind: typing.ClassVar[str] = "record"
    time: float


@dataclasses.dataclass(frozen=True)
class RunConfig(TraceRecord):
    """Emitted once at run start: everything the checkers need to know."""

    kind: typing.ClassVar[str] = "run_config"
    policy: str
    n_processors: int
    seed: int
    jobs: typing.Tuple[str, ...]
    machine: str
    cache_lines: int
    miss_time_s: float
    context_switch_s: float
    respect_priority: bool
    use_affinity: bool


@dataclasses.dataclass(frozen=True)
class JobArrival(TraceRecord):
    """A job entered the system."""

    kind: typing.ClassVar[str] = "job_arrival"
    job: str


@dataclasses.dataclass(frozen=True)
class JobDeparture(TraceRecord):
    """A job completed; ``response_time`` is the system's own accounting."""

    kind: typing.ClassVar[str] = "job_departure"
    job: str
    response_time: float
    n_reallocations: int


@dataclasses.dataclass(frozen=True)
class AllocationChange(TraceRecord):
    """Processor ``cpu`` changed owner from ``prev`` to ``job`` (None = free)."""

    kind: typing.ClassVar[str] = "alloc"
    cpu: int
    job: typing.Optional[str]
    prev: typing.Optional[str]


@dataclasses.dataclass(frozen=True)
class Dispatch(TraceRecord):
    """A worker was placed on a processor (a reallocation unless ``cheap``)."""

    kind: typing.ClassVar[str] = "dispatch"
    cpu: int
    job: str
    worker: int
    affine: bool
    cheap: bool
    penalty_s: float
    switch_s: float
    ready_depth: int


@dataclasses.dataclass(frozen=True)
class Undispatch(TraceRecord):
    """A worker left its processor (``reason``: preempt | idle | done)."""

    kind: typing.ClassVar[str] = "undispatch"
    cpu: int
    job: str
    worker: int
    reason: str


@dataclasses.dataclass(frozen=True)
class PolicyDecision(TraceRecord):
    """One allocation decision, with the evidence it was based on.

    ``rule`` names the Section 5 rule ("A.1", "D.1", "D.2", "D.3",
    "priority", "EQ"); ``credits`` snapshots the credit-scheduler state of
    every job the decision weighed, which is what lets the invariant layer
    re-check the priority ordering mechanically.
    """

    kind: typing.ClassVar[str] = "decision"
    rule: str
    job: typing.Optional[str]
    cpu: typing.Optional[int]
    reason: str
    credits: typing.Mapping[str, float] = dataclasses.field(default_factory=dict)
    allocations: typing.Mapping[str, int] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class JobCancelled(TraceRecord):
    """A job was cancelled (open-system disruption); ``work_done`` is the
    compute it had completed, which conservation checks must still account."""

    kind: typing.ClassVar[str] = "job_cancelled"
    job: str
    work_done: float


@dataclasses.dataclass(frozen=True)
class CpuFailure(TraceRecord):
    """A processor went offline; its private cache contents are lost."""

    kind: typing.ClassVar[str] = "cpu_failure"
    cpu: int


@dataclasses.dataclass(frozen=True)
class CpuRecovery(TraceRecord):
    """A failed processor came back online (cold cache)."""

    kind: typing.ClassVar[str] = "cpu_recovery"
    cpu: int


@dataclasses.dataclass(frozen=True)
class CacheFlush(TraceRecord):
    """A private cache was invalidated (the Section 4 migrating regime)."""

    kind: typing.ClassVar[str] = "cache_flush"
    cpu: int
    lines: int


@dataclasses.dataclass(frozen=True)
class CacheBatch(TraceRecord):
    """One batched access run through a cache (the measurement hot path)."""

    kind: typing.ClassVar[str] = "cache_batch"
    cpu: int
    owner: str
    n: int
    hits: int


@dataclasses.dataclass(frozen=True)
class EngineEvent(TraceRecord):
    """One fired discrete event (verbose; off by default)."""

    kind: typing.ClassVar[str] = "engine_event"
    label: str


@dataclasses.dataclass(frozen=True)
class RunEnd(TraceRecord):
    """Emitted once at run end."""

    kind: typing.ClassVar[str] = "run_end"
    makespan: float
    events_fired: int


#: kind string -> record class, for deserialization.
RECORD_KINDS: typing.Dict[str, type] = {
    cls.kind: cls
    for cls in (
        RunConfig,
        JobArrival,
        JobDeparture,
        JobCancelled,
        CpuFailure,
        CpuRecovery,
        AllocationChange,
        Dispatch,
        Undispatch,
        PolicyDecision,
        CacheFlush,
        CacheBatch,
        EngineEvent,
        RunEnd,
    )
}


#: kind -> fields holding a mapping, which JSON writes as an object
MAPPING_FIELDS: typing.Dict[str, typing.Tuple[str, ...]] = {
    "decision": ("credits", "allocations"),
}

#: kind -> fields holding a tuple, which JSON writes as a list; decoding
#: turns the list back into a tuple
TUPLE_FIELDS: typing.Dict[str, typing.Tuple[str, ...]] = {"run_config": ("jobs",)}


class HandlerTable(dict):
    """``record type -> handler`` lookup for the consumers of a record stream.

    Built from handlers keyed by record class.  A type the table has not
    seen resolves once, through its MRO, to the handler of its nearest
    registered base (``None`` when it has none) and is cached, so a
    record subclass is handled as an ``isinstance`` chain over the
    registered classes would handle it.
    """

    def __init__(self, handlers: typing.Mapping[type, typing.Any]) -> None:
        super().__init__(handlers)
        self._registered = dict(handlers)

    def __missing__(self, cls: type) -> typing.Any:
        handler = next(
            (self._registered[base] for base in cls.__mro__ if base in self._registered),
            None,
        )
        self[cls] = handler
        return handler


#: value types JSON already writes as themselves (no container to copy)
_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


@functools.lru_cache(maxsize=None)
def field_names(cls: type) -> typing.Tuple[str, ...]:
    """A record class's field names in declaration order (cached per class)."""
    return tuple(field.name for field in dataclasses.fields(cls))


def record_to_dict(record: TraceRecord) -> typing.Dict[str, object]:
    """Flatten a record to a plain dict, with its ``kind`` included."""
    out: typing.Dict[str, object] = {"kind": record.kind}
    for name in field_names(type(record)):
        value = getattr(record, name)
        if type(value) not in _SCALAR_TYPES:
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, typing.Mapping):
                value = dict(value)
        out[name] = value
    return out


def record_from_dict(data: typing.Mapping[str, object]) -> TraceRecord:
    """Rebuild a typed record from :func:`record_to_dict` output.

    Raises:
        ValueError: on an unknown ``kind`` or missing fields.
    """
    kind = data.get("kind")
    cls = RECORD_KINDS.get(typing.cast(str, kind))
    if cls is None:
        raise ValueError(f"unknown trace record kind {kind!r}")
    kwargs = {k: v for k, v in data.items() if k != "kind"}
    for name in TUPLE_FIELDS.get(cls.kind, ()):
        if isinstance(kwargs.get(name), list):
            kwargs[name] = tuple(kwargs[name])
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ValueError(f"malformed {kind!r} record: {exc}") from exc
