"""SWF replays as sweep cells: keyed on the trace file's bytes."""

import json
import pathlib
import shutil

import pytest

from repro.cli import main
from repro.reporting.opensys_report import render_matrix_table
from repro.sweep import ResultCache, SweepSpec, cell_key, code_fingerprint, run_sweep
from repro.sweep.cells import matrix_comparison, run_cell
from repro.sweep.spec import spec_from_dict
from repro.workloads.opensys import SwfFormatError

SAMPLE = pathlib.Path(__file__).parent.parent / "data" / "sample.swf"


@pytest.fixture
def swf_copy(tmp_path):
    path = tmp_path / "trace.swf"
    shutil.copyfile(SAMPLE, path)
    return path


def _spec(path, **overrides):
    kwargs = dict(
        name="swf", kind="swf", swf=str(path), time_scale=4.0, work_scale=2.0,
        policies=("Equipartition", "Dyn-Aff"), seeds=(0, 1), n_processors=8,
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def _flip_one_byte(path):
    data = path.read_bytes()
    edited = data.replace(b"  4.0 ", b"  5.0 ", 1)  # job 1's runtime
    assert sum(a != b for a, b in zip(data, edited)) == 1
    path.write_bytes(edited)


def _keys(spec):
    fingerprint = code_fingerprint()
    return [cell_key(cell, fingerprint) for cell in spec.expand()]


class TestSwfCells:
    def test_cell_config_holds_file_digest_and_knobs(self, swf_copy):
        cell = _spec(swf_copy, max_jobs=5).expand()[0]
        config = cell.config
        assert config["path"] == str(swf_copy)
        assert len(config["sha256"]) == 64
        assert (config["time_scale"], config["work_scale"]) == (4.0, 2.0)
        assert config["max_jobs"] == 5 and config["n_processors"] == 8
        assert cell.label == "swf:trace.swf/Equipartition/seed0"

    def test_integer_scales_key_like_floats(self, swf_copy):
        assert _spec(swf_copy, time_scale=4, work_scale=2).expand() == \
            _spec(swf_copy).expand()
        with pytest.raises(ValueError, match="time_scale must be a number"):
            _spec(swf_copy, time_scale="4")

    def test_spec_document_roundtrip(self, swf_copy):
        spec = _spec(swf_copy, max_jobs=3)
        assert spec_from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_warm_run_is_all_hits_and_identical(self, swf_copy, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        spec = _spec(swf_copy)
        cold = run_sweep(spec, cache=cache)
        warm = run_sweep(spec, cache=cache)
        assert (cold.n_computed, cold.n_hits) == (4, 0)
        assert (warm.n_computed, warm.n_hits) == (0, 4)
        assert warm.payloads == cold.payloads
        assert render_matrix_table(matrix_comparison(spec, warm.payloads)) == \
            render_matrix_table(matrix_comparison(spec, cold.payloads))

    def test_changed_bytes_change_the_key_and_recompute(self, swf_copy, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        spec = _spec(swf_copy)
        before = _keys(spec)
        cold = run_sweep(spec, cache=cache)
        _flip_one_byte(swf_copy)
        assert set(_keys(spec)).isdisjoint(before)
        rerun = run_sweep(spec, cache=cache)
        assert (rerun.n_computed, rerun.n_hits) == (4, 0)
        assert rerun.payloads != cold.payloads

    def test_file_edited_after_expansion_is_refused(self, swf_copy):
        cell = _spec(swf_copy).expand()[0]
        _flip_one_byte(swf_copy)
        with pytest.raises(ValueError, match="trace.swf: SWF trace changed"):
            run_cell(cell)

    def test_parse_error_survives_the_process_pool(self, swf_copy):
        lines = swf_copy.read_text(encoding="utf-8").splitlines()
        lines[-1] = " ".join(lines[-1].split()[:5])  # truncated record
        swf_copy.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SwfFormatError) as excinfo:
            run_sweep(_spec(swf_copy), workers=2)
        assert excinfo.value.line_no == len(lines)
        assert "truncated record" in str(excinfo.value)

    def test_missing_file_names_the_path(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read SWF trace .*nope.swf"):
            _spec(tmp_path / "nope.swf").expand()

    def test_cli_cache_dir_serves_replays(self, swf_copy, tmp_path, capsys):
        argv = ["opensys", "--swf", str(swf_copy), "--time-scale", "4",
                "--work-scale", "2", "--processors", "8", "--seeds", "2",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == cold
        journal = tmp_path / "cache" / "sweeps" / "opensys-swf" / "journal.jsonl"
        events = [json.loads(line) for line in journal.read_text().splitlines()]
        starts = [e for e in events if e["event"] == "run_start"]
        assert [(e["n_cached"], e["n_pending"]) for e in starts] == [(0, 10), (10, 0)]
