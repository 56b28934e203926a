"""Which simulator functions the benchmark wraps, and the per-layer metrics.

Each hook names a public function or method of one layer.  Spans are
named ``<layer>.<part>`` after the module family they wrap:

* ``engine``: the event loop and event queue (``repro.engine``);
* ``core``: the scheduling system and processor allocator (``repro.core``);
* ``threads``: job thread-DAG state and graph construction
  (``repro.threads``, ``AppSpec.build_graph``, ``JobTemplate.build``);
* ``apps``: the reference-stream generator (``repro.apps`` refgen);
* ``machine``: the set-associative cache simulator (``repro.machine``);
* ``measure``: the Section 4 penalty experiment (``repro.measure``);
* ``workloads``: open-system scenario sampling and runs
  (``repro.workloads.opensys``);
* ``obs``: streaming checker, streaming metrics, columnar writer, trace
  read-back and re-check (``repro.obs``);
* ``sweep``: sweep executor and result cache (``repro.sweep``).
"""

from __future__ import annotations

import os
import typing

from instrument import Hook, Instrument, SpanTimes, layer_self_times, span_times


def _subclasses(cls: type) -> typing.List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def hooks(inst: Instrument) -> typing.List[Hook]:
    """Every wrapped function; ``counts=True`` ones also run untraced."""
    from repro.apps.base import AppSpec
    from repro.apps.reference import ReferenceGenerator
    from repro.core.allocator import Allocator
    from repro.core.system import SchedulingSystem
    from repro.engine.queue import EventQueue
    from repro.engine.simulator import Simulator
    from repro.machine.cache import SetAssociativeCache
    from repro.measure.penalty import PenaltyExperiment
    from repro.obs.invariants import StreamingChecker
    from repro.obs.store.format import ColumnarTraceWriter
    from repro.obs.streaming import StreamingMetrics
    from repro.sweep import cells as sweep_cells
    from repro.sweep import executor as sweep_executor
    from repro.sweep.cache import ResultCache
    from repro.threads.graph import ThreadGraph
    from repro.threads.job import Job
    from repro.workloads.opensys import scenario as opensys_scenario
    from repro.workloads.opensys.jobsource import JobTemplate

    add = inst.add

    def events(args: tuple, result: typing.Any) -> None:
        add("engine.events", args[0].events_fired)

    def accesses(args: tuple, hits: int) -> None:
        add("machine.accesses", len(args[2]))
        add("machine.hits", hits)
        inst.backends.add("cache:" + args[0].backend_name)

    def blocks(args: tuple, result: typing.Any) -> None:
        add("apps.blocks", len(result))
        inst.backends.add("generator:" + args[0].backend_name)

    def graph(args: tuple, result: typing.Any) -> None:
        inst.graphs.append(result)

    def job_graph(args: tuple, job: typing.Any) -> None:
        inst.graphs.append(job.graph)

    def jobs(args: tuple, instance: typing.Any) -> None:
        add("workloads.jobs", len(instance.jobs))

    def stored(args: tuple, result: typing.Any) -> None:
        cell_dir = args[0].cell_dir(args[2])
        add("sweep.bytes", sum(
            entry.stat().st_size for entry in os.scandir(cell_dir) if entry.is_file()
        ))

    def cell_label(args: tuple) -> str:
        inst.set_cell(args[0].label)
        return "sweep.run_cell"

    def cell_done(args: tuple, result: typing.Any) -> None:
        inst.checkpoint()  # a sweep cell or a penalty regime has ended

    def quantum(args: tuple) -> str:
        return f"measure.q{round(args[2] * 1000)}"

    table = [
        Hook(Simulator, "run", "engine.run", post=events, counts=True),
        Hook(EventQueue, "push", "engine.queue"),
        Hook(EventQueue, "pop", "engine.queue"),
        Hook(EventQueue, "peek_time", "engine.queue"),
        Hook(SchedulingSystem, "__init__", "core.init"),
        Hook(SchedulingSystem, "run", "core.run"),
    ]
    table += [
        Hook(SchedulingSystem, attr, "core.dispatch")
        for attr in (
            "_arrive", "_complete_job", "cancel_job", "fail_processor",
            "recover_processor", "grant_processor", "_dispatch",
            "preempt_processor", "release_processor", "_on_thread_complete",
            "_worker_idle", "_yield_now", "_place_new_work",
        )
    ]
    table += [
        Hook(Allocator, attr, "core.alloc")
        for attr in (
            "job_arrived", "job_departed", "rebalance_equipartition",
            "processor_available", "new_work",
        )
    ]
    table += [
        Hook(Job, attr, "threads.job")
        for attr in (
            "start", "running_workers", "runnable_units", "demand",
            "additional_request", "dispatchable_workers", "select_worker",
            "desired_processor", "take_ready_thread", "thread_service_for",
            "on_thread_complete",
        )
    ]
    table += [
        Hook(cls, "build_graph", "threads.build", post=graph)
        for cls in _subclasses(AppSpec)
        if "build_graph" in vars(cls)
    ]
    table += [
        Hook(JobTemplate, "build", "threads.build", post=job_graph),
        Hook(ThreadGraph, "validate_acyclic", "threads.build"),
        Hook(ReferenceGenerator, "next_blocks", "apps.refgen", post=blocks, counts=True),
        Hook(ReferenceGenerator, "next_blocks_array", "apps.refgen", post=blocks,
             counts=True),
        Hook(SetAssociativeCache, "access_batch", "machine.cache", post=accesses,
             counts=True),
        Hook(SetAssociativeCache, "flush", "machine.cache"),
        Hook(PenaltyExperiment, "measure", "measure.q", namer=quantum),
        Hook(PenaltyExperiment, "_run_regime", "measure.regime", post=cell_done,
             counts=True),
        Hook(opensys_scenario.Scenario, "instantiate", "workloads.instantiate",
             post=jobs),
        Hook(opensys_scenario, "run_scenario", "workloads.run"),
        Hook(sweep_cells, "run_scenario", "workloads.run"),
        Hook(StreamingChecker, "feed", "obs.checker"),
        Hook(StreamingMetrics, "feed", "obs.metrics"),
        Hook(ColumnarTraceWriter, "feed", "obs.write"),
        Hook(ColumnarTraceWriter, "close", "obs.write"),
        Hook(sweep_executor, "run_sweep", "sweep.run"),
        Hook(sweep_executor, "code_fingerprint", "sweep.run"),
        Hook(sweep_executor, "run_cell", "sweep.run_cell", post=cell_done,
             namer=cell_label, counts=True),
        Hook(ResultCache, "store", "sweep.store", post=stored),
        Hook(ResultCache, "load", "sweep.load"),
    ]
    return table


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    inst: Instrument, outputs: typing.Mapping[str, float]
) -> typing.Tuple[typing.Dict[str, float], SpanTimes]:
    """Per-layer metrics of one traced pass.

    ``*_s`` metrics are exclusive (self) time, except ``measure.q*_s``,
    ``sweep.run_cell_s`` and ``obs.recheck_s``, which are inclusive.
    ``outputs`` carries what the workload counted from the program's
    results.
    """
    times = span_times(inst)
    own = times.exclusive
    count = times.count
    c = inst.count
    layers = layer_self_times(times)
    nodes = sum(g.n_threads for g in inst.graphs)
    edges = sum(
        g.node(tid).n_predecessors for g in inst.graphs for tid in range(g.n_threads)
    )
    checker_own = sum(
        value for (name, parent), value in times.by_parent.items()
        if name == "obs.checker" and parent != "obs.recheck"
    )
    events = c("engine.events")
    blocks = c("apps.blocks")
    accesses = c("machine.accesses")
    records = outputs.get("obs.records", 0)
    metrics = {
        "engine.events": events,
        "engine.queue_ops": count.get("engine.queue", 0),
        "engine.queue_s": own.get("engine.queue", 0.0),
        "engine.self_s": layers["engine"],
        "engine.us_per_event": 1e6 * _ratio(layers["engine"], events),
        "core.alloc_s": own.get("core.alloc", 0.0),
        "core.alloc_calls": count.get("core.alloc", 0),
        "core.dispatch_s": own.get("core.dispatch", 0.0),
        "core.init_s": own.get("core.init", 0.0),
        "core.self_s": layers["core"],
        "threads.job_s": own.get("threads.job", 0.0),
        "threads.job_calls": count.get("threads.job", 0),
        "threads.build_s": own.get("threads.build", 0.0),
        "threads.nodes": nodes,
        "threads.edges": edges,
        "threads.self_s": layers["threads"],
        "apps.blocks": blocks,
        "apps.refgen_s": own.get("apps.refgen", 0.0),
        "apps.ns_per_block": 1e9 * _ratio(own.get("apps.refgen", 0.0), blocks),
        "machine.accesses": accesses,
        "machine.cache_s": own.get("machine.cache", 0.0),
        "machine.ns_per_access": 1e9 * _ratio(own.get("machine.cache", 0.0), accesses),
        "machine.hit_ratio": _ratio(c("machine.hits"), accesses),
        "measure.q25_s": times.inclusive.get("measure.q25", 0.0),
        "measure.q100_s": times.inclusive.get("measure.q100", 0.0),
        "measure.q400_s": times.inclusive.get("measure.q400", 0.0),
        "measure.self_s": layers["measure"],
        "workloads.instantiate_s": own.get("workloads.instantiate", 0.0),
        "workloads.jobs": c("workloads.jobs"),
        "workloads.self_s": layers["workloads"],
        "obs.records": records,
        "obs.checker_s": checker_own,
        "obs.metrics_s": own.get("obs.metrics", 0.0),
        "obs.write_s": own.get("obs.write", 0.0),
        "obs.bytes_per_record": _ratio(outputs.get("obs.bytes", 0), records),
        "obs.read_s": own.get("obs.read", 0.0),
        "obs.recheck_s": times.inclusive.get("obs.recheck", 0.0),
        "obs.self_s": layers["obs"],
        "sweep.cells": count.get("sweep.run_cell", 0),
        "sweep.run_cell_s": times.inclusive.get("sweep.run_cell", 0.0),
        "sweep.store_s": own.get("sweep.store", 0.0),
        "sweep.bytes": c("sweep.bytes"),
        "sweep.load_s": own.get("sweep.load", 0.0),
        "sweep.self_s": layers["sweep"],
        "bench.self_s": layers["bench"],
        "bench.spans": inst.n_spans,
    }
    return metrics, times
