"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sedov_defaults(self):
        args = build_parser().parse_args(["sedov"])
        assert args.scales == [512]
        assert not args.paper_scale

    def test_place_arguments(self):
        args = build_parser().parse_args(
            ["place", "--policy", "cplx:25", "--blocks", "100", "--ranks", "10"]
        )
        assert args.policy == "cplx:25"
        assert args.blocks == 100


class TestCommands:
    def test_policies(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "cplx" in out and "zonal" in out

    def test_place(self, capsys):
        assert main(["place", "--policy", "lpt", "--blocks", "64",
                     "--ranks", "8"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "elapsed" in out

    def test_commbench_small(self, capsys):
        assert main(["commbench", "--ranks", "32", "--meshes", "1",
                     "--rounds", "3"]) == 0
        assert "commbench" in capsys.readouterr().out

    def test_scalebench_small(self, capsys):
        assert main(["scalebench", "--scales", "64", "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "normalized makespan" in out
        assert "placement computation" in out

    def test_sedov_small(self, capsys):
        assert main(["sedov", "--scales", "512", "--steps", "150",
                     "--policies", "baseline", "cplx:50"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Fig 6a" in out
        assert "best" in out

    def test_sedov_bad_policy_fails_before_any_cell(self, capsys, monkeypatch):
        from repro.bench import sedov_experiment

        def no_cell(cell):
            raise AssertionError(f"cell {cell.policy} ran")

        monkeypatch.setattr(sedov_experiment, "_run_sweep_cell", no_cell)
        assert main(["sedov", "--scales", "512", "--steps", "40",
                     "--policies", "baseline", "cplx:abc"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: policy 'cplx:abc'" in captured.err

    @pytest.mark.parametrize("name", ["cplx:abc", "nope"])
    def test_place_bad_policy_prints_error(self, capsys, name):
        assert main(["place", "--policy", name, "--blocks", "64",
                     "--ranks", "16"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert repr(name) in captured.err

    def test_sedov_unknown_policy_prints_unquoted(self, capsys):
        assert main(["sedov", "--scales", "512", "--steps", "40",
                     "--policies", "nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown policy 'nope'; known: [")
        assert err.endswith("]\n")

    def test_sedov_profile_prints_phase_breakdown(self, capsys):
        assert main(["sedov", "--scales", "512", "--steps", "100",
                     "--policies", "baseline", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        assert "redistribute" in out
        assert "[512 ranks · baseline]" in out

    def test_resilience_profile_prints_all_arms(self, capsys):
        assert main(["resilience", "--ranks", "64", "--steps", "100",
                     "--no-determinism-check", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out
        for arm in ("[healthy]", "[unmitigated]", "[resilient]"):
            assert arm in out
