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
        assert "serve" in out and "bench" in out and "trace" in out

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
