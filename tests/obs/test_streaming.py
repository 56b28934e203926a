"""Streaming pipeline differential: single-pass == batch, bit for bit.

The streaming invariant checker and metrics aggregator must be
indistinguishable from their batch counterparts: same violation lists,
and metric snapshots that are *bit-identical* (JSON-equal with exact
floats) to the live run's registry.  The differential runs over the
full open-system oracle matrix — 5 policies x 4 scenarios x 3 seeds —
so every disruption kind (cancellations, failures, recoveries, flushes)
flows through the streaming path under test.
"""

import dataclasses
import json

import pytest

from repro.core.policies import (
    DYN_AFF,
    DYN_AFF_DELAY,
    DYN_AFF_NOPRI,
    DYNAMIC,
    EQUIPARTITION,
)
from repro.core.system import SchedulingSystem
from repro.obs import MetricsRegistry, Tracer
from repro.obs.invariants import StreamingChecker, check_trace
from repro.obs.records import CacheBatch, EngineEvent, JobCancelled
from repro.obs.store import ColumnarTraceWriter, read_columnar
from repro.obs.streaming import StreamingMetrics, StreamingTracer, derive_metrics
from repro.workloads.opensys import built_in_scenarios, run_scenario
from tests.core.helpers import flat_job

ALL_POLICIES = [EQUIPARTITION, DYNAMIC, DYN_AFF, DYN_AFF_DELAY, DYN_AFF_NOPRI]
SCENARIO_NAMES = ("steady", "bursty", "cancellations", "failures")
SEEDS = (0, 1, 2)
P = 8


def _traced_run(scenario_name, policy, seed):
    scenario = built_in_scenarios(lite=True, n_processors=P)[scenario_name]
    tracer = Tracer()
    metrics = MetricsRegistry()
    result = run_scenario(
        scenario, policy, seed=seed, n_processors=P,
        tracer=tracer, metrics=metrics,
    )
    return tracer.records, metrics, result


class TestStreamingDifferential:
    """Batch and streaming must agree on every oracle-matrix cell."""

    @pytest.mark.parametrize("policy", ALL_POLICIES, ids=lambda p: p.name)
    @pytest.mark.parametrize("scenario_name", SCENARIO_NAMES)
    def test_cell_streaming_matches_batch(self, scenario_name, policy):
        for seed in SEEDS:
            records, live_metrics, _ = _traced_run(scenario_name, policy, seed)
            cell = (scenario_name, policy.name, seed)

            # invariant checker: incremental feed == one-shot batch walk
            checker = StreamingChecker()
            for record in records:
                checker.feed(record)
            assert checker.violations == check_trace(records), cell

            # metrics: the derived registry snapshot is bit-identical to
            # the live run's (exact float equality via canonical JSON)
            derived = derive_metrics(records)
            assert (
                json.dumps(derived.snapshot(), sort_keys=True)
                == json.dumps(live_metrics.snapshot(), sort_keys=True)
            ), cell

    def test_matrix_exercises_disruption_records(self):
        """The differential isn't vacuous: disruption kinds do stream."""
        records, _, result = _traced_run("cancellations", DYN_AFF, 0)
        assert any(isinstance(r, JobCancelled) for r in records)
        assert result.n_cancelled > 0


class TestStreamingTracer:
    def _run(self, tracer):
        system = SchedulingSystem(
            [flat_job("A", 6, 0.2, 3), flat_job("B", 6, 0.2, 3)],
            DYN_AFF, n_processors=4, seed=0, tracer=tracer,
        )
        return system.run()

    def test_retains_nothing_but_feeds_everything(self):
        batch = Tracer()
        self._run(batch)

        seen = []
        streaming = StreamingTracer([type("C", (), {"feed": staticmethod(seen.append)})()])
        self._run(streaming)

        assert streaming.records == []        # bounded memory: keeps nothing
        assert len(streaming) == len(seen)
        assert seen == list(batch.records)    # same stream, same order

    def test_single_pass_check_and_metrics_and_store(self, tmp_path):
        """One run, one pass: oracle + metrics + columnar persist together."""
        path = tmp_path / "cell.col"
        checker = StreamingChecker()
        metrics = StreamingMetrics()
        writer = ColumnarTraceWriter(str(path))
        with StreamingTracer([checker, metrics, writer]) as tracer:
            self._run(tracer)
        assert checker.violations == []
        assert metrics.snapshot()["counters"]["jobs/completed"] == 2.0

        batch = Tracer()
        self._run(batch)
        assert read_columnar(str(path)) == list(batch.records)

    def test_iteration_is_refused(self):
        with pytest.raises(TypeError, match="retains no records"):
            iter(StreamingTracer())

    def test_engine_events_flow_through_consumers(self):
        seen = []
        tracer = StreamingTracer(capture_engine_events=True)
        tracer.add_consumer(type("C", (), {"feed": staticmethod(seen.append)})())
        tracer.engine_hook(1.5, "tick")
        assert seen == [EngineEvent(time=1.5, label="tick")]
        assert len(tracer) == 1

    def test_consumer_close_is_propagated_once(self):
        closes = []

        class Closing:
            def feed(self, record):
                pass

            def close(self):
                closes.append(1)

        tracer = StreamingTracer([Closing()])
        tracer.close()
        tracer.close()
        assert closes == [1]


class TestStreamingMetricsScope:
    def test_cache_batches_carry_no_metrics(self):
        """CacheBatch is a measurement record; streaming must ignore it."""
        streaming = StreamingMetrics()
        streaming.feed(CacheBatch(time=0.0, cpu=0, owner="A", n=8, hits=4))
        snap = streaming.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}


def _tagged(record, **changes):
    """``record`` (a Dispatch) rebuilt as a TaggedDispatch."""
    from tests.obs.test_records import TaggedDispatch

    fields = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    return TaggedDispatch(**{**fields, **changes})


class TestRecordSubclasses:
    """Consumers dispatch on type, resolving a subclass to its base."""

    def test_subclass_is_handled_as_its_base(self):
        from repro.obs.replay import replay

        records, _, _ = _traced_run("steady", DYN_AFF, 0)
        tagged = [_tagged(r) if r.kind == "dispatch" else r for r in records]
        assert derive_metrics(tagged).snapshot() == derive_metrics(records).snapshot()
        assert replay(tagged) == replay(records)
        # a dispatch onto a cpu its job does not own is still caught
        moved = [
            dataclasses.replace(r, cpu=(r.cpu + 1) % P) if r.kind == "dispatch" else r
            for r in records
        ]
        moved_tagged = [
            _tagged(r, cpu=(r.cpu + 1) % P) if r.kind == "dispatch" else r
            for r in records
        ]
        assert check_trace(moved)
        assert check_trace(moved_tagged) == check_trace(moved)
