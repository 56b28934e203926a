"""Byte identity of the observability pipeline against committed goldens.

``tests/data/golden_obs/`` pins two outputs of the trace pipeline that
its fast paths must never change:

* the sha256 of the columnar (``.rct``) bytes of real traces, at the
  default chunk size and at a small one that cuts every trace into many
  chunks.  The traces are the mix-5 Dyn-Aff run behind the CI sample
  artifact and each lite open-system scenario under Dyn-Aff (seed 0,
  8 processors);
* the exact :func:`check_trace` violation lists of four seeded faults
  in real traces: two records with swapped timestamps, a second grant of
  an owned processor, a stripped cancellation and an unlicensed D.3
  preemption.

Regenerate only after an intentional output change::

    PYTHONPATH=src:. python tests/obs/test_golden_obs.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import typing

import pytest

from repro.core.policies import DYN_AFF
from repro.measure.runner import run_mix
from repro.obs import Tracer
from repro.obs.invariants import check_trace
from repro.obs.records import (
    AllocationChange,
    JobArrival,
    JobCancelled,
    PolicyDecision,
    TraceRecord,
)
from repro.obs.store.format import columnar_to_bytes, iter_columnar
from repro.workloads.opensys import built_in_scenarios, run_scenario

GOLDEN_DIR = pathlib.Path(__file__).parent.parent / "data" / "golden_obs"
RCT_DIGESTS = GOLDEN_DIR / "rct_digests.json"
VIOLATIONS = GOLDEN_DIR / "violations.json"

LITE_SCENARIOS = ("steady", "bursty", "cancellations", "failures")
TRACES = ("mix5",) + LITE_SCENARIOS
CHUNK_SIZES = (4096, 64)
P = 8

Records = typing.List[TraceRecord]


def traced(name: str) -> Records:
    """The records of one golden trace (see the module docstring)."""
    tracer = Tracer()
    if name == "mix5":
        run_mix(5, DYN_AFF, seed=0, tracer=tracer)
    else:
        scenario = built_in_scenarios(lite=True, n_processors=P)[name]
        run_scenario(scenario, DYN_AFF, seed=0, n_processors=P, tracer=tracer)
    return tracer.records


def rct_digests() -> typing.Dict[str, str]:
    """``<trace>/<chunk size>`` -> sha256 of the columnar bytes."""
    digests = {}
    for name in TRACES:
        records = traced(name)
        for chunk in CHUNK_SIZES:
            data = columnar_to_bytes(records, chunk_records=chunk)
            digests[f"{name}/{chunk}"] = hashlib.sha256(data).hexdigest()
    return digests


def swapped_timestamp(records: Records) -> Records:
    """Two neighbours in the middle of the trace trade timestamps."""
    i = next(
        k for k in range(len(records) // 2, len(records) - 1)
        if records[k].time < records[k + 1].time
    )
    out = list(records)
    out[i] = dataclasses.replace(records[i], time=records[i + 1].time)
    out[i + 1] = dataclasses.replace(records[i + 1], time=records[i].time)
    return out


def double_grant(records: Records) -> Records:
    """The first grant is followed by a grant of the same cpu to another job."""
    jobs = [r.job for r in records if isinstance(r, JobArrival)]
    i, grant = next(
        (k, r) for k, r in enumerate(records)
        if isinstance(r, AllocationChange) and r.job is not None
    )
    other = next(job for job in jobs if job != grant.job)
    out = list(records)
    out.insert(i + 1, dataclasses.replace(grant, job=other, prev=None))
    return out


def stripped_cancellation(records: Records) -> Records:
    """The first cancellation of a job that had arrived disappears."""
    arrived = set()
    for target in records:
        if isinstance(target, JobArrival):
            arrived.add(target.job)
        elif isinstance(target, JobCancelled) and target.job in arrived:
            return [r for r in records if r is not target]
    raise AssertionError("no post-arrival cancellation in the trace")


def unlicensed_d3(records: Records) -> Records:
    """A mid-run D.3 preemption at parity, with no credit advantage."""
    out = list(records)
    i, decision = next(
        (k, r) for k, r in enumerate(records)
        if isinstance(r, PolicyDecision) and r.rule == "D.3" and r.time > 0
    )
    victim = next(name for name in decision.allocations if name != decision.job)
    out[i] = dataclasses.replace(
        decision,
        credits={decision.job: 0.5, victim: 0.5},
        allocations={decision.job: 2, victim: 3},
    )
    return out


#: fault name -> (trace it is seeded into, how)
FAULTS: typing.Dict[str, typing.Tuple[str, typing.Callable[[Records], Records]]] = {
    "swapped_timestamp": ("mix5", swapped_timestamp),
    "double_grant": ("mix5", double_grant),
    "stripped_cancellation": ("cancellations", stripped_cancellation),
    "unlicensed_d3": ("mix5", unlicensed_d3),
}


def fault_violations() -> typing.Dict[str, typing.List[str]]:
    """fault name -> the violations ``check_trace`` reports for it."""
    cache: typing.Dict[str, Records] = {}
    found = {}
    for fault, (name, seed_fault) in FAULTS.items():
        if name not in cache:
            cache[name] = traced(name)
        found[fault] = check_trace(seed_fault(cache[name]))
    return found


def _load(path: pathlib.Path) -> typing.Any:
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", TRACES)
def test_columnar_bytes_match_golden(name, tmp_path):
    expected = _load(RCT_DIGESTS)
    records = traced(name)
    for chunk in CHUNK_SIZES:
        data = columnar_to_bytes(records, chunk_records=chunk)
        assert hashlib.sha256(data).hexdigest() == expected[f"{name}/{chunk}"]
        path = tmp_path / f"{name}-{chunk}.rct"
        path.write_bytes(data)
        assert list(iter_columnar(str(path))) == records


def test_seeded_fault_violations_match_golden():
    expected = _load(VIOLATIONS)
    found = fault_violations()
    assert set(found) == set(expected)
    for fault, violations in found.items():
        assert violations, f"the checker missed the seeded {fault}"
        assert violations == expected[fault], fault


def _dump(path: pathlib.Path, payload: typing.Any) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    _dump(RCT_DIGESTS, rct_digests())
    _dump(VIOLATIONS, fault_violations())
    print(f"wrote goldens to {GOLDEN_DIR}")
