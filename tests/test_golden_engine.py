"""Byte identity of the discrete-event core against committed goldens.

``tests/data/golden_engine/`` pins two things the CLI goldens do not:

* the sha256 of ``repro trace --mix 5 --engine-events --policy P`` for
  every policy.  Mix 5 (MATRIX + GRAVITY) has many events at one
  instant, and the engine-event records list every fired event, so any
  change to a same-instant ``(time, priority, seq)`` tie-break shows;
* the full result of one open-system ``steady`` cell with the real
  application specs (Dyn-Aff, seed 1).

Regenerate only after an intentional output change::

    PYTHONPATH=src:. python tests/test_golden_engine.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import typing

import pytest

from repro.cli import main
from repro.core.policies import DYN_AFF, POLICIES

GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "golden_engine"
TRACE_DIGESTS = GOLDEN_DIR / "mix5_traces.json"
STEADY_RESULT = GOLDEN_DIR / "opensys_steady.json"

POLICY_NAMES = tuple(POLICIES)


def trace_digest(policy: str, workdir: pathlib.Path) -> str:
    """sha256 of the mix-5 JSONL trace with engine events under ``policy``."""
    out = workdir / f"{policy}.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([
            "trace", "--mix", "5", "--engine-events", "--policy", policy,
            "--out", str(out),
        ]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def steady_result_json() -> str:
    """The steady cell's result (real apps, Dyn-Aff, seed 1) as JSON."""
    from repro.sweep.cells import opensys_result_to_dict
    from repro.workloads.opensys import built_in_scenarios, run_scenario

    scenario = built_in_scenarios()["steady"]
    result = run_scenario(scenario, DYN_AFF, seed=1)
    return json.dumps(opensys_result_to_dict(result), indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_mix5_engine_trace_matches_golden(policy, tmp_path):
    expected = json.loads(TRACE_DIGESTS.read_text(encoding="utf-8"))
    assert trace_digest(policy, tmp_path) == expected[policy]


def test_opensys_steady_result_matches_golden():
    assert steady_result_json() == STEADY_RESULT.read_text(encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    digests: typing.Dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in POLICY_NAMES:
            digests[name] = trace_digest(name, pathlib.Path(tmp))
    TRACE_DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    STEADY_RESULT.write_text(steady_result_json(), encoding="utf-8")
    print(f"wrote goldens to {GOLDEN_DIR}")
