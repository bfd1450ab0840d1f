"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "table1" in out
        # The listing covers the subcommand table too, so every tool is
        # discoverable from one place.
        assert "bench" in out and "trace" in out and "traffic" in out

    def test_static_table(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "UHTM" in out
        assert "regenerated" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        assert "Requester-Wins" in capsys.readouterr().out

    def test_unknown_figure_errors(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_abort_claim_runs(self, capsys):
        assert main(["abort_claim", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "signature_only" in out


class TestCacheDir:
    @pytest.mark.parametrize(
        "argv", [["serve", "status"], ["fig2", "--serve", "spool"]],
        ids=["subcommand", "flag"],
    )
    def test_the_job_service_surface_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2

    def test_rerun_over_a_cache_dir_simulates_nothing(
        self, tmp_path, monkeypatch
    ):
        from repro.harness import parallel

        calls = []
        simulate = parallel.run_experiment

        def counted(spec, label=None):
            calls.append(spec)
            return simulate(spec, label)

        monkeypatch.setattr(parallel, "run_experiment", counted)
        argv = ["abort_claim", "--seed", "1", "--cache-dir",
                str(tmp_path / "cache")]
        assert main([*argv, "--json", str(tmp_path / "cold.json")]) == 0
        cold_calls = len(calls)
        assert cold_calls > 0
        assert main([*argv, "--json", str(tmp_path / "warm.json")]) == 0
        assert len(calls) == cold_calls
        assert (tmp_path / "warm.json").read_bytes() == (
            tmp_path / "cold.json"
        ).read_bytes()
