"""Typed trace records: construction, serialization, round-tripping."""

import dataclasses
import json
import types
import typing

import pytest

from repro.obs.records import (
    AllocationChange,
    CacheBatch,
    CacheFlush,
    CpuFailure,
    CpuRecovery,
    Dispatch,
    EngineEvent,
    HandlerTable,
    JobArrival,
    JobCancelled,
    JobDeparture,
    MAPPING_FIELDS,
    PolicyDecision,
    RECORD_KINDS,
    RunConfig,
    RunEnd,
    TraceRecord,
    TUPLE_FIELDS,
    Undispatch,
    record_from_dict,
    record_to_dict,
)

SAMPLES = [
    RunConfig(
        time=0.0, policy="Dyn-Aff", n_processors=4, seed=7,
        jobs=("A", "B"), machine="test", cache_lines=64,
        miss_time_s=1e-6, context_switch_s=1e-4,
        respect_priority=True, use_affinity=True,
    ),
    JobArrival(time=0.0, job="A"),
    JobDeparture(time=3.5, job="A", response_time=3.5, n_reallocations=2),
    JobCancelled(time=2.0, job="B", work_done=1.25),
    CpuFailure(time=4.0, cpu=3),
    CpuRecovery(time=5.0, cpu=3),
    AllocationChange(time=1.0, cpu=2, job="A", prev=None),
    Dispatch(
        time=1.0, cpu=2, job="A", worker=0, affine=True, cheap=False,
        penalty_s=1e-5, switch_s=1e-4, ready_depth=3,
    ),
    Undispatch(time=2.0, cpu=2, job="A", worker=0, reason="preempt"),
    PolicyDecision(
        time=1.0, rule="priority", job="A", cpu=2, reason="test",
        credits={"A": 1.0, "B": -0.5}, allocations={"A": 1, "B": 3},
    ),
    CacheFlush(time=2.0, cpu=2, lines=64),
    CacheBatch(time=2.5, cpu=2, owner="('A', 0)", n=256, hits=200),
    EngineEvent(time=0.5, label="arrival/A"),
    RunEnd(time=9.0, makespan=9.0, events_fired=123),
]


class TestRoundTrip:
    @pytest.mark.parametrize("record", SAMPLES, ids=lambda r: r.kind)
    def test_dict_round_trip(self, record):
        payload = record_to_dict(record)
        assert payload["kind"] == record.kind
        assert record_from_dict(payload) == record

    def test_every_kind_is_registered(self):
        kinds = {record.kind for record in SAMPLES}
        assert kinds == set(RECORD_KINDS)

    def test_records_are_immutable(self):
        with pytest.raises(Exception):
            SAMPLES[1].time = 99.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            record_from_dict({"kind": "no_such_record", "time": 0.0})

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError):
            record_from_dict({"time": 0.0})

    def test_malformed_fields_rejected(self):
        with pytest.raises(ValueError):
            record_from_dict({"kind": "job_arrival", "time": 0.0, "bogus": 1})

    def test_float_times_survive_exactly(self):
        """JSON floats round-trip bit-exactly (repr serialization)."""
        time = 74.45978109507048
        record = JobArrival(time=time, job="A")
        assert record_from_dict(record_to_dict(record)).time == time


@dataclasses.dataclass(frozen=True)
class TaggedDispatch(Dispatch):
    """A record subclass with one extra field (consumers see a Dispatch)."""

    tag: str = "x"


class TestToDict:
    def test_containers_become_plain_json_types(self):
        decision = PolicyDecision(
            time=1.0, rule="EQ", job=None, cpu=None, reason="r",
            credits=types.MappingProxyType({"B": 2.0, "A": 1.0}),
            allocations=types.MappingProxyType({"A": 3}),
        )
        payload = record_to_dict(decision)
        assert type(payload["credits"]) is dict
        assert payload["credits"] == {"B": 2.0, "A": 1.0}
        assert type(payload["allocations"]) is dict
        config = record_to_dict(SAMPLES[0])
        assert config["jobs"] == ["A", "B"]

    def test_subclass_fields_are_included(self):
        record = TaggedDispatch(
            time=1.0, cpu=2, job="A", worker=0, affine=True, cheap=False,
            penalty_s=1e-5, switch_s=1e-4, ready_depth=3, tag="t",
        )
        payload = record_to_dict(record)
        assert payload["kind"] == "dispatch"
        assert payload["tag"] == "t"
        assert list(payload)[1:] == [f.name for f in dataclasses.fields(record)]

    @pytest.mark.parametrize("record", SAMPLES, ids=lambda r: r.kind)
    def test_json_matches_generic_flattening(self, record):
        """The fast path writes what the all-fields isinstance walk wrote."""
        generic = {"kind": record.kind}
        for field in dataclasses.fields(record):
            value = getattr(record, field.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, typing.Mapping):
                value = dict(value)
            generic[field.name] = value
        assert json.dumps(record_to_dict(record), sort_keys=True) == json.dumps(
            generic, sort_keys=True
        )


def test_container_field_tables_match_annotations():
    """MAPPING_FIELDS and TUPLE_FIELDS name every mapping and tuple field."""

    def fields_typed(marker):
        found = {}
        for kind, cls in RECORD_KINDS.items():
            names = tuple(
                f.name for f in dataclasses.fields(cls) if marker in str(f.type)
            )
            if names:
                found[kind] = names
        return found

    assert fields_typed("Mapping") == MAPPING_FIELDS
    assert fields_typed("Tuple") == TUPLE_FIELDS


class TestHandlerTable:
    def test_registered_type_and_subclass_resolution(self):
        table = HandlerTable({Dispatch: "dispatch", JobArrival: "arrival"})
        assert table[Dispatch] == "dispatch"
        assert table[TaggedDispatch] == "dispatch"
        assert table[EngineEvent] is None
        assert table[TraceRecord] is None
        # resolutions are cached as plain entries
        assert TaggedDispatch in table and EngineEvent in table

    def test_cached_miss_does_not_hide_a_later_base(self):
        """A cached ``None`` for a base never shadows another registered base."""

        @dataclasses.dataclass(frozen=True)
        class Plain(TraceRecord):
            pass

        class Both(Plain, JobArrival):
            pass

        table = HandlerTable({JobArrival: "arrival"})
        assert table[Plain] is None
        assert table[Both] == "arrival"
