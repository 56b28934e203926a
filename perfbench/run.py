#!/usr/bin/env python3
"""The repository benchmark: paper mix #5, Table 1 and the lite pipeline.

Run it from the root of the repository::

    python3 perfbench/run.py --workload mix5 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0     # every workload in turn
    python3 perfbench/run.py --workload table1 --record 0-31

``--trace 0`` repeats passes of the workload for ``--seconds`` seconds
and reports the end-to-end metrics: medians over the passes, and the
median of several set-ups in fresh interpreters.  ``--trace 1`` runs one
untraced pass and one traced pass and reports the per-layer metrics.
``--record`` stores the output digest and work counts of one pass per
seed in ``digests.json``; later runs of a recorded seed must reproduce
them byte for byte.  The metric names and units are read from
``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every operation and output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import typing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
#: Set-ups timed before the first pass, each in a fresh interpreter.  One
#: more follows every pass, so the samples spread over the whole run.
SETUP_PROBES = 3
#: The traced pass's layer self times must add up to its wall time this closely.
SELF_SUM_TOLERANCE = 0.03


def import_program() -> None:
    """Import every module of the program a pass uses."""
    import repro.apps  # noqa: F401
    import repro.measure.penalty  # noqa: F401
    import repro.obs.invariants  # noqa: F401
    import repro.obs.replay  # noqa: F401
    import repro.obs.store  # noqa: F401
    import repro.obs.streaming  # noqa: F401
    import repro.sweep.cache  # noqa: F401
    import repro.sweep.cells  # noqa: F401
    import repro.sweep.executor  # noqa: F401
    import repro.workloads.opensys.scenario  # noqa: F401


def load_benchmark() -> typing.Dict[str, typing.Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_digests() -> typing.Dict[str, typing.Any]:
    if not os.path.exists(DIGESTS):
        return {}
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def environment(
    args: argparse.Namespace, inst_backends: typing.Iterable[str]
) -> typing.Dict[str, typing.Any]:
    """What ran: interpreter, engines, CPUs and the source revision."""
    from repro.apps.refgen import resolve_backend_name as generator_default
    from repro.machine.backends import resolve_backend_name as cache_default

    try:
        import numpy

        numpy_version: typing.Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        status = subprocess.run(
            ["git", "status", "--porcelain", "--", "src"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if head.returncode == 0:
            commit = head.stdout.strip()
            dirty = bool(status.stdout.strip())
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
        "src_dirty": dirty,
        "default_engines": {
            "cache": cache_default(None), "generator": generator_default(None)
        },
        "engines_ran": sorted(inst_backends),
        "caller_REPRO_BACKEND": args.caller_backend,
    }


def emit(
    specs: typing.Sequence[typing.Mapping[str, str]],
    values: typing.Mapping[str, float],
    attempted: int,
    failed: int,
    info: typing.Mapping[str, typing.Any],
) -> int:
    """Print the metric table, the run's details and the result line."""
    known = {spec["name"] for spec in specs}
    unknown = sorted(set(values) - known)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {
        spec["name"]: {"value": values.get(spec["name"], 0), "unit": spec["unit"]}
        for spec in specs
    }
    for name, metric in metrics.items():
        print(f"{name:<28} {metric['value']:>16.6g} {metric['unit']}")
    print("perfbench-info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def setup_probe(workload: str, seed: int) -> float:
    """Time imports plus spec and scenario construction in this interpreter."""
    start = time.perf_counter()
    import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](ROOT, seed)
    wl.setup()
    elapsed = time.perf_counter() - start
    wl.close()
    return elapsed


def probe_setup(workload: str, seed: int) -> float:
    """Time one set-up in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


class Checked(typing.NamedTuple):
    attempted: int
    failed: int
    messages: typing.List[str]
    reference: typing.Optional[str]


def check_passes(
    workload: str, seed: int, passes: typing.Sequence[typing.Any]
) -> Checked:
    """Count failed operations, comparing every pass with the recorded digest.

    An unrecorded seed is compared with its own first pass instead.
    """
    recorded = load_digests().get(workload, {}).get(str(seed))
    reference = recorded["digest"] if recorded else None
    attempted = failed = 0
    messages: typing.List[str] = []
    for index, result in enumerate(passes):
        attempted += result.attempted
        expected = reference if reference is not None else passes[0].digest
        if result.digest != expected:
            failed += result.attempted
            messages.append(
                f"pass {index}: output digest {result.digest[:12]} != "
                f"{'recorded' if reference else 'first pass'} {expected[:12]}"
            )
        else:
            failed += len(result.failures)
        messages.extend(f"pass {index}: {m}" for m in result.failures)
    return Checked(attempted, failed, messages, reference)


def timed_run(args: argparse.Namespace, bench: typing.Mapping[str, typing.Any]) -> int:
    from instrument import Instrument
    from layers import hooks
    from workloads import WORKLOADS

    setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    import_program()
    wl = WORKLOADS[args.workload](ROOT, args.seed)
    wl.setup()
    inst = Instrument(spans=False, calibrate=True)
    inst.install(hooks(inst))
    passes = []
    norms = []
    segments = []
    calibrations: typing.List[float] = []
    errors: typing.List[str] = []
    try:
        start = time.perf_counter()
        while True:
            try:
                passes.append(wl.run_pass(inst))
            except Exception as exc:  # a pass that raises fails its operations
                errors.append(f"{type(exc).__name__}: {exc}")
                break
            norms.append(inst.normalized())
            segments.append(len(inst.segments))
            calibrations.extend(after for _, _, after in inst.segments)
            setups.append(probe_setup(args.workload, args.seed))
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        errors.extend(inst.restore())
        wl.close()
    checked = check_passes(args.workload, args.seed, passes)
    attempted = checked.attempted
    failed = checked.failed
    if errors:
        attempted += wl.ops_per_pass
        failed += wl.ops_per_pass
    # The host's speed swings within seconds.  A pass's host seconds at
    # the run's fast speed are its calibrated time times a low percentile
    # of the run's calibration samples; the raw times go to the info line.
    fast = min(calibrations or [0.0])
    if len(calibrations) >= 20:
        fast = statistics.quantiles(calibrations, n=20)[0]
    fast_walls = [norm * fast for norm in norms]

    def median(values: typing.List[float]) -> float:
        return statistics.median(values) if values else 0.0  # no pass completed

    values = {
        "setup_s": median(setups),
        "wall_s": median(fast_walls),
        "wall_norm": median(norms),
        "sim_ops_per_s": median(
            [p.sim_ops / wall for p, wall in zip(passes, fast_walls)]
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - failed) / attempted if attempted else 0.0,
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "fast_calibration_s": fast,
        "pass_wall_norm": norms,
        "calibrated_segments": segments,
        "setup_samples_s": setups,
        "work": passes[0].work if passes else {},
        "paper_err": passes[0].outputs.get("paper_err") if passes else None,
        "digest": passes[0].digest if passes else None,
        "digest_reference": "recorded" if checked.reference else "first pass",
        "failures": (errors + checked.messages)[:20],
        "env": environment(args, inst.backends),
    }
    for message in info["failures"]:
        print(f"FAILED: {message}", file=sys.stderr)
    return emit(bench["end_to_end"], values, max(attempted, 1), failed, info)


def traced_run(args: argparse.Namespace, bench: typing.Mapping[str, typing.Any]) -> int:
    from instrument import Instrument, layer_self_times
    from layers import hooks, layer_metrics
    from workloads import WORKLOADS

    import_program()
    wl = WORKLOADS[args.workload](ROOT, args.seed)
    wl.setup()
    counting = Instrument(spans=False)
    tracing = Instrument(spans=True)
    try:
        counting.install(hooks(counting))
        try:
            untraced = wl.run_pass(counting)
        finally:
            restored = counting.restore()
        tracing.install(hooks(tracing))
        try:
            start = time.perf_counter()
            with tracing.span("bench.pass"):
                traced = wl.run_pass(tracing)
            traced_wall = time.perf_counter() - start
        finally:
            restored += tracing.restore()
    finally:
        wl.close()

    checked = check_passes(args.workload, args.seed, [untraced, traced])
    metrics, times = layer_metrics(tracing, untraced.outputs)
    self_sum = sum(layer_self_times(times).values())
    self_checks = {
        "self times add up to the traced wall time": (
            abs(self_sum / traced_wall - 1.0) <= SELF_SUM_TOLERANCE
            and times.n_negative == 0
        ),
        "traced outputs match the untraced ones": traced.digest == untraced.digest,
        "every wrapped function is the original again": not restored,
    }
    failed_checks = [name for name, ok in self_checks.items() if not ok]
    attempted = checked.attempted + len(self_checks)
    failed = checked.failed + len(failed_checks)
    metrics.update({
        key: value for key, value in untraced.outputs.items()
        if key not in ("obs.bytes", "stream_s", "readback_s")
    })
    metrics.update({
        "bench.trace_overhead": traced.wall_s - untraced.wall_s,
        "bench.traced_wall_s": traced.wall_s,
        "bench.untraced_wall_s": untraced.wall_s,
        "bench.self_sum_ratio": self_sum / traced_wall,
    })
    spans_path = os.path.join(ROOT, ".perfbench_out", f"spans-{args.workload}.npz")
    tracing.write_spans(spans_path)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "work": untraced.work,
        "digest": untraced.digest,
        "digest_reference": "recorded" if checked.reference else "first pass",
        "spans_file": os.path.relpath(spans_path, ROOT),
        "negative_self_spans": times.n_negative,
        "failures": (failed_checks + restored + checked.messages)[:20],
        "env": environment(args, tracing.backends),
    }
    for message in info["failures"]:
        print(f"FAILED: {message}", file=sys.stderr)
    return emit(bench["per_layer"], metrics, attempted, failed, info)


def record(args: argparse.Namespace) -> int:
    """Store one pass's digest and work counts per seed in ``digests.json``."""
    from instrument import Instrument
    from layers import hooks
    from workloads import WORKLOADS

    first, _, last = args.record.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    import_program()
    digests = load_digests()
    for seed in seeds:
        wl = WORKLOADS[args.workload](ROOT, seed)
        wl.setup()
        inst = Instrument(spans=False)
        inst.install(hooks(inst))
        try:
            result = wl.run_pass(inst)
        finally:
            problems = inst.restore()
            wl.close()
        if result.failures or problems:
            print(f"seed {seed}: {result.failures[:5]} {problems}", file=sys.stderr)
            return 1
        digests.setdefault(args.workload, {})[str(seed)] = {
            "digest": result.digest, "work": result.work,
        }
        print(f"{args.workload} seed {seed}: {result.digest[:16]} {result.work}")
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


def run_all(args: argparse.Namespace, names: typing.Sequence[str]) -> int:
    """Every workload in its own interpreter, one after another."""
    attempted = failed = 0
    metrics: typing.Dict[str, typing.Any] = {}
    for name in names:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {done.returncode})", file=sys.stderr)
            return 1
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FIRST-LAST",
                        help="record output digests for this seed range")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} "
              "is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # Measure the default engines whatever the caller's shell selects;
    # the probes started below inherit the cleared environment.
    args.caller_backend = os.environ.pop("REPRO_BACKEND", None)
    from workloads import WORKLOADS

    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    bench = load_benchmark()
    if args.workload == "all":
        return run_all(args, [w["name"] for w in bench["workloads"]])
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(WORKLOADS)} or 'all'")
    if args.record:
        return record(args)
    if args.trace:
        return traced_run(args, bench)
    return timed_run(args, bench)


if __name__ == "__main__":
    sys.exit(main())
