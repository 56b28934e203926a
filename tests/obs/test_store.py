"""Columnar trace store: round-trip fidelity, indexing, and integrity.

The store's contract is threefold: (1) JSONL <-> columnar conversion is
lossless down to the byte, for any record stream the tracer can emit —
including every open-system disruption kind; (2) the footer index lets a
reader pull one record kind or time range without decoding everything;
(3) any corruption — a flipped byte, a truncated tail — is refused
loudly, never returned as quietly wrong data.
"""

import dataclasses
import hashlib
import json
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import DYN_AFF
from repro.core.system import SchedulingSystem
from repro.obs import Tracer
from repro.obs.records import (
    RECORD_KINDS,
    AllocationChange,
    CacheBatch,
    CacheFlush,
    CpuFailure,
    CpuRecovery,
    Dispatch,
    EngineEvent,
    JobArrival,
    JobCancelled,
    JobDeparture,
    PolicyDecision,
    RunConfig,
    RunEnd,
    Undispatch,
    record_to_dict,
)
from repro.obs.store import (
    ColumnarFormatError,
    columnar_to_jsonl,
    iter_columnar,
    iter_jsonl_records,
    jsonl_to_columnar,
    read_columnar,
    read_footer,
    sniff_format,
    write_columnar,
)
from repro.obs.store import format as columnar
from repro.reporting.obs_export import trace_to_jsonl
from tests.core.helpers import flat_job

# --- hypothesis strategies: one per record kind, all finite-JSON-safe ---

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False)
names = st.text(alphabet="ABCJob0123456789_", min_size=1, max_size=8)
cpus = st.integers(min_value=0, max_value=63)
counts = st.integers(min_value=0, max_value=10**6)

record_strategies = (
    st.builds(RunConfig, time=times, policy=names, n_processors=cpus,
              seed=counts, jobs=st.tuples(names, names), machine=names,
              cache_lines=counts, miss_time_s=finite,
              context_switch_s=finite, respect_priority=st.booleans(),
              use_affinity=st.booleans()),
    st.builds(JobArrival, time=times, job=names),
    st.builds(JobDeparture, time=times, job=names, response_time=finite,
              n_reallocations=counts),
    st.builds(JobCancelled, time=times, job=names, work_done=finite),
    st.builds(CpuFailure, time=times, cpu=cpus),
    st.builds(CpuRecovery, time=times, cpu=cpus),
    st.builds(AllocationChange, time=times, cpu=cpus,
              job=st.none() | names, prev=st.none() | names),
    st.builds(Dispatch, time=times, cpu=cpus, job=names, worker=counts,
              affine=st.booleans(), cheap=st.booleans(), penalty_s=finite,
              switch_s=finite, ready_depth=counts),
    st.builds(Undispatch, time=times, cpu=cpus, job=names, worker=counts,
              reason=st.sampled_from(("preempt", "idle", "done"))),
    st.builds(PolicyDecision, time=times,
              rule=st.sampled_from(("A.1", "D.1", "D.2", "D.3", "EQ")),
              job=st.none() | names, cpu=st.none() | cpus, reason=names,
              credits=st.dictionaries(names, finite, max_size=3),
              allocations=st.dictionaries(names, cpus, max_size=3)),
    st.builds(CacheFlush, time=times, cpu=cpus, lines=counts),
    st.builds(CacheBatch, time=times, cpu=cpus, owner=names, n=counts,
              hits=counts),
    st.builds(EngineEvent, time=times, label=names),
    st.builds(RunEnd, time=times, makespan=finite, events_fired=counts),
)
any_record = st.one_of(*record_strategies)
record_streams = st.lists(any_record, min_size=0, max_size=60)


@settings(max_examples=60, deadline=None)
@given(records=record_streams, chunk=st.integers(min_value=1, max_value=16))
def test_round_trip_any_record_stream(tmp_path_factory, records, chunk):
    """Arbitrary interleavings of every record kind survive the store."""
    path = tmp_path_factory.mktemp("col") / "t.col"
    write_columnar(str(path), records, chunk_records=chunk)
    back = read_columnar(str(path))
    assert back == records


@settings(max_examples=30, deadline=None)
@given(records=record_streams)
def test_jsonl_round_trip_is_byte_identical(tmp_path_factory, records):
    """JSONL -> columnar -> JSONL reproduces the original bytes exactly."""
    base = tmp_path_factory.mktemp("rt")
    jsonl, col, back = base / "a.jsonl", base / "a.col", base / "b.jsonl"
    jsonl.write_text(trace_to_jsonl(records), encoding="utf-8")
    jsonl_to_columnar(str(jsonl), str(col), chunk_records=7)
    columnar_to_jsonl(str(col), str(back))
    assert back.read_bytes() == jsonl.read_bytes()


def _real_trace():
    tracer = Tracer()
    system = SchedulingSystem(
        [flat_job("A", 6, 0.2, 3), flat_job("B", 6, 0.2, 3)],
        DYN_AFF, n_processors=4, seed=0, tracer=tracer,
    )
    system.run()
    return tracer.records


@pytest.fixture(scope="module")
def real_trace():
    return _real_trace()


def test_every_kind_has_a_strategy():
    covered = {
        cls.kind for cls in (
            RunConfig, JobArrival, JobDeparture, JobCancelled, CpuFailure,
            CpuRecovery, AllocationChange, Dispatch, Undispatch,
            PolicyDecision, CacheFlush, CacheBatch, EngineEvent, RunEnd,
        )
    }
    assert covered == set(RECORD_KINDS)
    assert len(record_strategies) == len(RECORD_KINDS)


def test_footer_index_and_kind_filter(tmp_path, real_trace):
    path = tmp_path / "t.col"
    write_columnar(str(path), real_trace, chunk_records=256)
    footer = read_footer(str(path))
    assert footer.n_records == len(real_trace)
    assert sum(footer.kind_counts.values()) == len(real_trace)
    for kind, count in footer.kind_counts.items():
        got = list(iter_columnar(str(path), kinds={kind}))
        assert len(got) == count
        assert all(r.kind == kind for r in got)


def test_time_range_filter(tmp_path, real_trace):
    path = tmp_path / "t.col"
    write_columnar(str(path), real_trace, chunk_records=128)
    t_lo = real_trace[len(real_trace) // 3].time
    t_hi = real_trace[2 * len(real_trace) // 3].time
    got = list(iter_columnar(str(path), time_range=(t_lo, t_hi)))
    want = [r for r in real_trace if t_lo <= r.time <= t_hi]
    assert got == want


def test_sniff_format(tmp_path, real_trace):
    col, jsonl = tmp_path / "t.col", tmp_path / "t.jsonl"
    write_columnar(str(col), real_trace)
    jsonl.write_text(trace_to_jsonl(real_trace), encoding="utf-8")
    assert sniff_format(str(col)) == "columnar"
    assert sniff_format(str(jsonl)) == "jsonl"


def test_flipped_byte_fails_digest(tmp_path, real_trace):
    """Every corrupted body byte must be caught by the content digest."""
    path = tmp_path / "t.col"
    write_columnar(str(path), real_trace, chunk_records=512)
    blob = bytearray(path.read_bytes())
    # Flip bytes at seeded offsets through the chunk region (skip the
    # 8-byte magic so we exercise the digest, not the magic check).
    for offset in (9, len(blob) // 3, len(blob) // 2, len(blob) - 60):
        corrupt = bytearray(blob)
        corrupt[offset] ^= 0x40
        bad = tmp_path / f"bad{offset}.col"
        bad.write_bytes(bytes(corrupt))
        with pytest.raises(ColumnarFormatError):
            list(iter_columnar(str(bad)))


def test_truncated_footer_is_refused(tmp_path, real_trace):
    path = tmp_path / "t.col"
    write_columnar(str(path), real_trace)
    blob = path.read_bytes()
    for cut in (1, 20, 48, len(blob) // 2):
        bad = tmp_path / f"cut{cut}.col"
        bad.write_bytes(blob[:-cut])
        with pytest.raises(ColumnarFormatError):
            read_footer(str(bad))
        with pytest.raises(ColumnarFormatError):
            list(iter_columnar(str(bad)))


def test_not_a_columnar_file_is_refused(tmp_path):
    bad = tmp_path / "nope.col"
    bad.write_bytes(b"this is not a columnar trace at all, not even close")
    with pytest.raises(ColumnarFormatError):
        read_footer(str(bad))


def test_jsonl_truncation_refused(tmp_path, real_trace):
    """A JSONL file whose final line lost its newline is refused."""
    path = tmp_path / "t.jsonl"
    text = trace_to_jsonl(real_trace)
    path.write_text(text[:-1], encoding="utf-8")  # drop trailing newline
    with pytest.raises(ValueError, match="truncated"):
        list(iter_jsonl_records(str(path)))


def test_jsonl_stream_matches_batch(tmp_path, real_trace):
    path = tmp_path / "t.jsonl"
    path.write_text(trace_to_jsonl(real_trace), encoding="utf-8")
    assert list(iter_jsonl_records(str(path))) == list(real_trace)


def test_compression_ratio_on_real_trace(tmp_path):
    """The acceptance gate: columnar must be <= 25% of JSONL bytes.

    Uses a run big enough (a few thousand records) for the chunked
    compression to amortize, matching the CI sample trace's scale.
    """
    tracer = Tracer()
    system = SchedulingSystem(
        [flat_job(f"J{i}", 24, 0.2, 4) for i in range(4)],
        DYN_AFF, n_processors=8, seed=0, tracer=tracer,
    )
    system.run()
    jsonl, col = tmp_path / "t.jsonl", tmp_path / "t.col"
    jsonl.write_text(trace_to_jsonl(tracer.records), encoding="utf-8")
    jsonl_to_columnar(str(jsonl), str(col))
    ratio = col.stat().st_size / jsonl.stat().st_size
    assert ratio <= 0.25, f"columnar/jsonl ratio {ratio:.3f} exceeds 0.25"


def test_record_dicts_survive_canonical_json(real_trace):
    """Sanity: every live record is JSON-canonicalizable (the store's
    chunk payloads depend on it)."""
    for record in real_trace[:200]:
        payload = json.dumps(record_to_dict(record), sort_keys=True)
        assert json.loads(payload)["kind"] == record.kind


# --- the writer's chunk payloads, against the record_to_dict encoding ---


def _reference_chunk(records):
    """A chunk payload built record by record from :func:`record_to_dict`."""
    kind_table, order, columns = [], [], {}
    for record in records:
        row = record_to_dict(record)
        kind = row.pop("kind")
        if kind not in columns:
            kind_table.append(kind)
            columns[kind] = {name: [] for name in columnar.KIND_FIELDS[kind]}
        order.append(kind_table.index(kind))
        for name, value in row.items():
            columns[kind][name].append(value)
    return {"kind_table": kind_table, "order": order, "columns": columns}


def _chunk_blobs(data):
    footer = columnar._parse_footer(data, source="test")
    return footer, [
        data[info.offset + 8 : info.offset + 8 + info.length]
        for info in footer.chunks
    ]


@settings(max_examples=60, deadline=None)
@given(records=record_streams, chunk=st.integers(min_value=1, max_value=16))
def test_chunk_payloads_match_record_dicts(records, chunk):
    """Every chunk is the canonical JSON of its records' dicts, and the
    index holds their exact time range and kind counts."""
    footer, blobs = _chunk_blobs(columnar.columnar_to_bytes(records, chunk))
    for k, (info, blob) in enumerate(zip(footer.chunks, blobs)):
        part = records[k * chunk : (k + 1) * chunk]
        assert zlib.decompress(blob) == columnar._canonical_json(
            _reference_chunk(part)
        )
        assert (info.time_min, info.time_max) == (
            min(r.time for r in part), max(r.time for r in part)
        )
        reference = _reference_chunk(part)
        assert info.kind_counts == {
            kind: reference["order"].count(i)
            for i, kind in enumerate(reference["kind_table"])
        }


# --- reader damage: a chunk the digest accepts but the decoder must refuse ---


def _reseal(data, mutate):
    """``data`` with each chunk's decoded payload edited by ``mutate``.

    The chunks, the footer index and the sha256 tail are rebuilt, so the
    file passes every framing and digest check and only the chunk
    decoder can refuse it.
    """
    footer, blobs = _chunk_blobs(data)
    out = bytearray(columnar.MAGIC)
    chunks = []
    for info, blob in zip(footer.chunks, blobs):
        payload = json.loads(zlib.decompress(blob))
        mutate(payload)
        new = zlib.compress(columnar._canonical_json(payload), 6)
        chunks.append(dataclasses.replace(info, offset=len(out), length=len(new)))
        out += columnar.CHUNK_MAGIC + struct.pack(">I", len(new)) + new
    footer_offset = len(out)
    index = zlib.compress(
        columnar._canonical_json(dataclasses.replace(footer, chunks=chunks).to_dict()),
        6,
    )
    out += columnar.FOOTER_MAGIC + struct.pack(">I", len(index)) + index
    out += struct.pack(">Q", footer_offset)
    out += hashlib.sha256(bytes(out)).digest() + columnar.END_MAGIC
    return bytes(out)


def _drop_last_cpu(payload):
    payload["columns"]["dispatch"]["cpu"].pop()


def _drop_worker_column(payload):
    del payload["columns"]["dispatch"]["worker"]


def _order_past_table(payload):
    payload["order"][0] = len(payload["kind_table"])


def _negative_order(payload):
    payload["order"][0] = -1


def _unknown_kind(payload):
    old = payload["kind_table"][0]
    payload["kind_table"][0] = "bogus"
    payload["columns"]["bogus"] = payload["columns"].pop(old)


def _duplicate_kind(payload):
    payload["kind_table"].append(payload["kind_table"][0])


@pytest.mark.parametrize("mutate, message", [
    (_drop_last_cpu, r"columns for 'dispatch' are ragged: 'cpu' has \d+ values, "
                     r"the chunk order assigns \d+ rows"),
    (_drop_worker_column, r"no 'worker' column for 'dispatch'"),
    (_order_past_table, r"order references kind #\d+ outside its kind table"),
    (_negative_order, r"order references kind #-1 outside its kind table"),
    (_unknown_kind, r"unknown record kind 'bogus'"),
    (_duplicate_kind, r"kind table lists '\w+' twice"),
])
def test_damaged_chunk_is_refused(tmp_path, real_trace, mutate, message):
    data = columnar.columnar_to_bytes(real_trace, chunk_records=256)
    assert _reseal(data, lambda payload: None) == data
    bad = tmp_path / "bad.col"
    bad.write_bytes(_reseal(data, mutate))
    read_footer(str(bad))  # the framing and the digest are intact
    with pytest.raises(ColumnarFormatError, match=message):
        list(iter_columnar(str(bad)))
