"""The three benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup` and runs
one *pass* of work in :meth:`run_pass`, through the entry points the
command line uses: ``run_sweep`` on a ``SweepSpec`` (which calls
``run_mix``, ``run_scenario`` and ``PenaltyExperiment``), the
``ResultCache``, and the ``repro.obs`` streaming and columnar store API.
Every pass runs serially in this process (``workers=1``).

A pass returns the host time of the program's work (the benchmark's own
checks run outside it), the number of operations it attempted, one
message per failed operation, and a digest of everything the simulator
computed, so passes, seeds and commits can be compared byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import shutil
import statistics
import tempfile
import typing

from instrument import Instrument

#: Policy names in the order the paper's figures list them.
POLICIES = ("Equipartition", "Dynamic", "Dyn-Aff", "Dyn-Aff-Delay", "Dyn-Aff-NoPri")


@dataclasses.dataclass
class PassResult:
    """One pass: its time, its operations and what it computed."""

    wall_s: float
    attempted: int
    failures: typing.List[str]
    digest: str
    #: simulated work done (engine events or cache accesses)
    sim_ops: float
    #: work counts recorded per seed
    work: typing.Dict[str, float]
    #: values for the per-layer report that come from the outputs
    outputs: typing.Dict[str, float] = dataclasses.field(default_factory=dict)


def canonical(payload: typing.Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest_of(payload: typing.Any) -> str:
    return hashlib.sha256(canonical(payload).encode("utf-8")).hexdigest()


def load_paper_values(root: str) -> typing.Any:
    """``benchmarks/paper_values.py``, loaded without importing its package."""
    path = os.path.join(root, "benchmarks", "paper_values.py")
    spec = importlib.util.spec_from_file_location("paper_values", path)
    if spec is None or spec.loader is None:
        raise FileNotFoundError(path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Workload:
    name = ""

    def __init__(self, root: str, seed: int) -> None:
        self.root = root
        self.seed = seed

    def setup(self) -> None:
        """Build the specs and scenarios (timed as ``setup_s``)."""
        raise NotImplementedError

    @property
    def ops_per_pass(self) -> int:
        """Operations one pass attempts: one per sweep cell."""
        return len(self.cells)

    def run_pass(self, inst: Instrument) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        """Remove whatever the passes left on disk."""


class Mix5(Workload):
    """Paper workload #5 (MATRIX + GRAVITY) under all five policies."""

    name = "mix5"

    def setup(self) -> None:
        from repro.sweep.spec import SweepSpec

        self.spec = SweepSpec(
            name="fig5", kind="mix", mixes=(5,), policies=POLICIES,
            seeds=(self.seed,),
        )
        self.cells = self.spec.expand()
        self.paper = load_paper_values(self.root).TABLE3["response_time_s"]

    def run_pass(self, inst: Instrument) -> PassResult:
        from repro.sweep import executor

        inst.reset_counts()
        inst.start_clock()
        result = executor.run_sweep(self.spec, workers=1)
        wall = inst.stop_clock()
        failures = []
        systems = {}
        for outcome in result.outcomes:
            system = outcome.payload["data"]["system"]
            systems[system["policy"]] = system
            jobs = system["jobs"]
            if set(jobs) != {"MATRIX", "GRAVITY"} or not all(
                math.isfinite(j["response_time"]) and j["response_time"] > 0
                for j in jobs.values()
            ):
                failures.append(f"{outcome.cell.label}: jobs {sorted(jobs)} incomplete")
        errors = [
            abs(systems[policy]["jobs"][job]["response_time"] / ref - 1.0)
            for policy, row in self.paper.items()
            for job, ref in row.items()
        ]
        events = inst.count("engine.events")
        return PassResult(
            wall_s=wall,
            attempted=self.ops_per_pass,
            failures=failures,
            digest=digest_of([o.payload["data"] for o in result.outcomes]),
            sim_ops=events,
            work={"engine.events": events},
            outputs={
                "paper_err": statistics.fmean(errors),
                "core.reallocations": sum(
                    j["n_reallocations"]
                    for s in systems.values() for j in s["jobs"].values()
                ),
            },
        )


class Table1(Workload):
    """The Section 4 penalty table on one processor's cache."""

    name = "table1"

    def setup(self) -> None:
        from repro.apps.reference import reduced_machine
        from repro.machine.params import SEQUENT_SYMMETRY
        from repro.sweep.spec import SweepSpec

        self.spec = SweepSpec(name="table1", kind="table1", seeds=(self.seed,), scale=16)
        self.cells = self.spec.expand()
        self.fill_us = 1e6 * reduced_machine(SEQUENT_SYMMETRY, 16).full_fill_time_s
        paper = load_paper_values(self.root)
        self.paper_na = paper.TABLE1_PNA_US
        self.paper_a = paper.TABLE1_PA_US

    def run_pass(self, inst: Instrument) -> PassResult:
        from repro.sweep import cells as sweep_cells
        from repro.sweep import executor

        inst.reset_counts()
        inst.start_clock()
        result = executor.run_sweep(self.spec, workers=1)
        wall = inst.stop_clock()
        table = sweep_cells.penalty_table(self.spec, result.payloads)
        failures = []
        errors = []
        for (app, q_s), cell in table.results.items():
            penalties = {"P^NA": cell.p_na_us}
            penalties.update({f"P^A[{p}]": cell.p_a_us(p) for p in cell.multiprog})
            bad = {k: v for k, v in penalties.items() if not 0.0 <= v <= self.fill_us}
            if bad:
                failures.append(
                    f"table1/{app}/q{q_s:g}: {bad} outside [0, {self.fill_us:.0f}] us"
                )
            errors.append(abs(cell.p_na_us / self.paper_na[app][q_s] - 1.0))
            errors.extend(
                abs(cell.p_a_us(p) / ref - 1.0)
                for p, ref in self.paper_a[app][q_s].items()
            )
        accesses = inst.count("machine.accesses")
        return PassResult(
            wall_s=wall,
            attempted=self.ops_per_pass,
            failures=failures,
            digest=digest_of([o.payload["data"] for o in result.outcomes]),
            sim_ops=accesses,
            work={"machine.accesses": accesses},
            outputs={"paper_err": statistics.fmean(errors)},
        )


class LitePipeline(Workload):
    """The lite open-system matrix through the sweep cache and trace store."""

    name = "lite-pipeline"
    n_seeds = 6
    n_processors = 16

    def setup(self) -> None:
        from repro.sweep.spec import OPENSYS_SCENARIOS, SweepSpec
        from repro.workloads.opensys.scenario import built_in_scenarios

        self.spec = SweepSpec(
            name="lite",
            kind="opensys",
            scenarios=OPENSYS_SCENARIOS,
            policies=POLICIES,
            seeds=tuple(self.n_seeds * self.seed + k for k in range(self.n_seeds)),
            n_processors=self.n_processors,
            lite=True,
        )
        self.cells = self.spec.expand()
        self.scenarios = built_in_scenarios(
            lite=True,
            n_processors=self.n_processors,
            utilization=self.spec.utilization,
        )
        work_root = os.path.join(self.root, ".perfbench_work")
        os.makedirs(work_root, exist_ok=True)
        self.work_root = tempfile.mkdtemp(prefix="lite-", dir=work_root)

    @property
    def ops_per_pass(self) -> int:
        """Every cell once in each of the four stages."""
        return 4 * len(self.cells)

    def close(self) -> None:
        shutil.rmtree(self.work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work_root))
        except OSError:
            pass  # another run still uses it

    def run_pass(self, inst: Instrument) -> PassResult:
        work = tempfile.mkdtemp(dir=self.work_root)
        try:
            return self._run_pass(inst, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _run_pass(self, inst: Instrument, work: str) -> PassResult:
        from repro.obs.invariants import StreamingChecker, check_trace
        from repro.obs.replay import verify_replay
        from repro.obs.store.format import ColumnarTraceWriter, iter_columnar
        from repro.obs.streaming import StreamingMetrics, StreamingTracer
        from repro.sweep import executor
        from repro.sweep.cache import ResultCache
        from repro.sweep.cells import opensys_result_to_dict
        from repro.sweep.spec import POLICIES_BY_NAME
        from repro.workloads.opensys import scenario as opensys_scenario

        inst.reset_counts()
        cache = ResultCache(os.path.join(work, "cache"))
        laps = [0.0]
        inst.start_clock()

        # 1. cold: compute every cell, store it and journal it
        with inst.span("bench.cold"):
            cold = executor.run_sweep(
                self.spec, cache=cache, workers=1, collect_metrics=True
            )
        laps.append(inst.lap())

        # 2. warm: the same spec again, served from the cache
        with inst.span("bench.warm"):
            warm = executor.run_sweep(
                self.spec, cache=cache, workers=1, collect_metrics=True
            )
        laps.append(inst.lap())
        inst.checkpoint()

        # 3. every cell streamed through checker, metrics and columnar writer
        streamed = []
        with inst.span("bench.stream"):
            for index, cell in enumerate(self.cells):
                inst.set_cell(cell.label)
                config = cell.config
                checker = StreamingChecker()
                derived = StreamingMetrics()
                path = os.path.join(work, f"{index:03d}.rct")
                writer = ColumnarTraceWriter(path)
                with StreamingTracer([checker, derived, writer]) as tracer:
                    result = opensys_scenario.run_scenario(
                        self.scenarios[config["scenario"]],
                        POLICIES_BY_NAME[config["policy"]],
                        seed=config["seed"],
                        n_processors=config["n_processors"],
                        tracer=tracer,
                    )
                streamed.append((path, result, len(tracer), checker, derived))
                inst.checkpoint()
        laps.append(inst.lap())

        # 4. read every file back and check it again
        rechecked = []
        with inst.span("bench.readback"):
            for index, (path, result, _, _, _) in enumerate(streamed):
                inst.set_cell(self.cells[index].label)
                with inst.span("obs.read"):
                    records = list(iter_columnar(path))
                with inst.span("obs.recheck"):
                    violations = check_trace(records)
                    mismatches = verify_replay(records, result.system)
                rechecked.append((len(records), violations, mismatches))
                inst.checkpoint()
        wall = inst.stop_clock()
        laps.append(wall)
        stages = dict(zip(
            ("cold_s", "warm_s", "stream_s", "readback_s"),
            (b - a for a, b in zip(laps, laps[1:])),
        ))

        # One message per failed operation: each cell in each stage.
        failures: typing.List[str] = []
        n_records = 0
        n_bytes = 0
        for cell, c, w, s, r in zip(
            self.cells, cold.outcomes, warm.outcomes, streamed, rechecked
        ):
            opensys = c.payload["data"]["opensys"]
            path, result, emitted, checker, derived = s
            read, violations, mismatches = r
            expected = {
                "cold: computed, every job completed or cancelled": not c.cached
                and opensys["n_completed"] + opensys["n_cancelled"] == opensys["n_jobs"],
                "warm: a hit, byte-identical to the cold payload": w.cached
                and canonical(w.payload) == canonical(c.payload),
                "stream: no violation, the sweep's result and metrics":
                not checker.violations
                and canonical(opensys_result_to_dict(result)) == canonical(opensys)
                and canonical(derived.snapshot()) == canonical(c.payload["metrics"]),
                "readback: every record back, check_trace and verify_replay clean":
                read == emitted and not violations and not mismatches,
            }
            failures.extend(
                f"{cell.label}: expected {what}" for what, ok in expected.items() if not ok
            )
            n_records += emitted
            n_bytes += os.path.getsize(path)
        events = inst.count("engine.events")
        digest = digest_of({
            "payloads": [c.payload for c in cold.outcomes],
            "records": [s[2] for s in streamed],
        })
        return PassResult(
            wall_s=wall,
            attempted=self.ops_per_pass,
            failures=failures,
            digest=digest,
            sim_ops=events,
            work={"engine.events": events, "obs.records": n_records},
            outputs={
                **stages,
                "obs.records": n_records,
                "obs.bytes": n_bytes,
                "sweep.hit_ratio": warm.n_hits / len(self.cells),
                "trace_records_per_s": n_records / stages["stream_s"],
                "read_records_per_s": n_records / stages["readback_s"],
                "obs.overhead_ratio": stages["stream_s"] / stages["cold_s"],
                "core.reallocations": sum(
                    c.payload["data"]["opensys"]["total_reallocations"]
                    for c in cold.outcomes
                ),
            },
        )


WORKLOADS = {w.name: w for w in (Mix5, Table1, LitePipeline)}
