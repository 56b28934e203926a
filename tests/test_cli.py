"""Command line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_apps_defaults(self):
        args = build_parser().parse_args(["apps"])
        assert args.processors == 16
        assert args.seed == 0

    def test_global_seed(self):
        args = build_parser().parse_args(["--seed", "7", "apps"])
        assert args.seed == 7

    def test_fig5_mix_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--mix", "9"])

    def test_table1_scale(self):
        args = build_parser().parse_args(["table1", "--scale", "32"])
        assert args.scale == 32

    def test_table1_full_fidelity_scale_accepted(self):
        args = build_parser().parse_args(["table1", "--scale", "1"])
        assert args.scale == 1

    @pytest.mark.parametrize("bad", ["0", "-4"])
    def test_scale_must_be_positive(self, bad):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--scale", bad])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["all", "--scale", bad])

    @pytest.mark.parametrize("bad,sets", [("3", "682.656"), ("100000", "0")])
    def test_scale_must_leave_whole_cache_sets(self, bad, sets, capsys):
        for command in ("table1", "all"):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args([command, "--scale", bad])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert f"scale {bad} leaves {sets} cache sets" in err
            assert "positive whole number of sets" in err


class TestCommands:
    def test_apps_output(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "MVA" in out and "MATRIX" in out and "GRAVITY" in out
        assert "average processor demand" in out

    def test_fig5_single_mix(self, capsys):
        assert main(["fig5", "--mix", "1", "-r", "2"]) == 0
        out = capsys.readouterr().out
        assert "Workload #1" in out
        assert "Dyn-Aff" in out

    def test_table4_output(self, capsys):
        assert main(["table4", "-r", "1"]) == 0
        out = capsys.readouterr().out
        assert "#1" in out and "#4" in out
        assert "Dyn-Aff-NoPri" in out

    def test_future_single_mix(self, capsys):
        assert main(["future", "--mix", "1", "-r", "2"]) == 0
        out = capsys.readouterr().out
        assert "processor-speed x cache-size" in out

    def test_table1_fast_scale(self, capsys):
        assert main(["table1", "--scale", "128"]) == 0
        out = capsys.readouterr().out
        assert "Q = 25 msec." in out
        assert "P^NA" in out
