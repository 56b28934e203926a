"""Byte identity of command outputs against committed goldens.

The goldens under ``tests/data/golden_cli/`` pin the exact stdout (and
written files) of the commands below, plus the summaries of the
Section 6 confidence rule on the lightest Table 2 mix.  Any change to
how experiments execute — fan-out, caching, sharding — must leave every
byte of them unchanged.

Regenerate only after an intentional output change::

    PYTHONPATH=src:. python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import pathlib
import shutil
import typing

import pytest

from repro.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "golden_cli"
SAMPLE_SWF = pathlib.Path(__file__).parent / "data" / "sample.swf"

#: golden name -> (argv, files the command writes in its working directory)
COMMANDS: typing.Dict[str, typing.Tuple[typing.List[str], typing.Tuple[str, ...]]] = {
    "future": (["future", "--mix", "1", "-r", "2", "--metrics"], ()),
    "fig5": (["fig5", "--mix", "1", "-r", "2"], ()),
    "opensys_lite": (
        ["opensys", "--lite", "--seeds", "2", "--json", "matrix.json"],
        ("matrix.json",),
    ),
    "opensys_swf": (
        ["opensys", "--swf", "sample.swf", "--time-scale", "4",
         "--work-scale", "2", "--processors", "8", "--seeds", "2",
         "--json", "matrix.json"],
        ("matrix.json",),
    ),
    "table1": (["table1", "--scale", "64", "--metrics"], ()),
}

#: The confidence-rule case: mix 1, Equipartition vs Dyn-Aff, a loose
#: 20% target so it converges within the 3..6 seed window.
CONFIDENCE_CASE = dict(
    mix=1, policies=("Equipartition", "Dyn-Aff"),
    target_relative=0.2, min_seeds=3, max_seeds=6,
)


def run_command(
    argv: typing.Sequence[str], files: typing.Sequence[str], workdir: pathlib.Path
) -> typing.Dict[str, bytes]:
    """Run one CLI command in ``workdir``; its stdout and written files.

    ``sample.swf`` is copied into ``workdir`` first so SWF commands name
    it by a relative path.
    """
    shutil.copyfile(SAMPLE_SWF, workdir / "sample.swf")
    out = io.StringIO()
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 0
    finally:
        os.chdir(previous)
    captured = {"stdout": out.getvalue().encode("utf-8")}
    for name in files:
        captured[name] = (workdir / name).read_bytes()
    return captured


def golden_path(name: str, part: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{name}.{part}"


def summaries_json(comparison: typing.Any) -> str:
    """A comparison's replication count and per-job summaries, as JSON."""
    document = {
        "n_replications": comparison.n_replications,
        "summaries": {
            policy: {
                job: dataclasses.asdict(summary) for job, summary in jobs.items()
            }
            for policy, jobs in comparison.summaries.items()
        },
    }
    return json.dumps(document, indent=1) + "\n"


def confidence_comparison(workers: typing.Optional[int] = None) -> typing.Any:
    """The confidence case run through :func:`repro.sweep.run_to_confidence`."""
    from repro.sweep import SweepSpec, run_to_confidence
    from repro.sweep.cells import mix_comparison

    case = CONFIDENCE_CASE
    spec = SweepSpec(
        name="confidence", kind="mix", mixes=(case["mix"],),
        policies=case["policies"], seeds=(0,),
    )
    result = run_to_confidence(
        spec,
        target_relative=case["target_relative"],
        min_seeds=case["min_seeds"],
        max_seeds=case["max_seeds"],
        workers=workers,
    )
    return mix_comparison(result.spec, result.payloads, case["mix"])


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_output_matches_golden(name, tmp_path):
    argv, files = COMMANDS[name]
    captured = run_command(argv, files, tmp_path)
    for part, data in captured.items():
        assert data == golden_path(name, part).read_bytes(), (name, part)


def test_table1_numpy_engine_matches_golden(tmp_path):
    """The numpy engines replay Table 1 to the same bytes as the default."""
    pytest.importorskip("numpy")
    argv, files = COMMANDS["table1"]
    captured = run_command([*argv, "--backend", "numpy"], files, tmp_path)
    assert captured["stdout"] == golden_path("table1", "stdout").read_bytes()


def test_confidence_summaries_match_golden():
    text = summaries_json(confidence_comparison())
    assert text == golden_path("confidence", "json").read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for golden_name, (command, outputs) in COMMANDS.items():
        with tempfile.TemporaryDirectory() as tmp:
            for golden_part, blob in run_command(
                command, outputs, pathlib.Path(tmp)
            ).items():
                golden_path(golden_name, golden_part).write_bytes(blob)
    golden_path("confidence", "json").write_text(
        summaries_json(confidence_comparison()), encoding="utf-8"
    )
    print(f"wrote goldens to {GOLDEN_DIR}")
