"""The checker framework: registry, suppressions, reporters, CLI plumbing."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analyze import registered_checkers, render_json, render_text, run_analysis
from repro.analyze.cli import _merge_allow_marker, main as lint_main
from repro.analyze.layers import assert_acyclic

FIXTURES = Path(__file__).parent.parent / "analyze_fixtures"


class TestRegistry:
    def test_all_rules_registered(self):
        assert {
            "DET001",
            "LAY002",
            "HOOK003",
            "FSM004",
            "TRC009",
        } == set(registered_checkers())

    def test_rules_filter_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            run_analysis([FIXTURES / "det001_good.py"], rules=["NOPE999"])

    def test_layer_dag_is_acyclic(self):
        assert_acyclic()


class TestSuppressions:
    def test_line_suppression_hides_only_its_line(self):
        report = run_analysis([FIXTURES / "suppressed.py"], rules=["DET001"])
        assert report.suppressed == 1
        assert [f.message for f in report.findings] == [
            "'import secrets' bypasses the seeded RngStreams; draw from a "
            "named stream of repro.sim.rng instead"
        ]

    def test_file_suppression_hides_everything(self):
        report = run_analysis([FIXTURES / "suppressed_file.py"], rules=["DET001"])
        assert report.findings == []
        assert report.suppressed >= 2


class TestReporters:
    def test_text_reporter_lists_locations(self):
        report = run_analysis([FIXTURES / "det001_bad.py"], rules=["DET001"])
        text = render_text(report)
        assert "det001_bad.py" in text
        assert "DET001" in text
        assert "finding(s)" in text

    def test_json_reporter_round_trips(self):
        report = run_analysis([FIXTURES / "det001_bad.py"], rules=["DET001"])
        payload = json.loads(render_json(report))
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        assert all(
            {"rule", "path", "line", "col", "message"} == set(f)
            for f in payload["findings"]
        )

    def test_syntax_error_becomes_parse_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        report = run_analysis([bad])
        assert [f.rule for f in report.findings] == ["PARSE"]


class TestCli:
    def test_exit_zero_on_clean_file(self, capsys):
        assert lint_main([str(FIXTURES / "det001_good.py")]) == 0

    def test_exit_one_on_each_bad_fixture(self, capsys):
        for name in (
            "det001_bad.py",
            "lay002_bad.py",
            "hook003_bad.py",
            "fsm004_bad.py",
            "fsm004_unreachable.py",
            "fsm004_bad_directory.py",
            "repro/htm/import_bad.py",
            "trc009_bad.py",
        ):
            assert lint_main([str(FIXTURES / name)]) == 1, name

    def test_exit_two_on_missing_path(self, capsys):
        assert lint_main(["definitely/not/a/path.py"]) == 2

    def test_exit_two_on_unknown_rule(self, capsys):
        assert (
            lint_main(["--rules", "NOPE999", str(FIXTURES / "det001_good.py")])
            == 2
        )

    def test_json_flag_emits_json(self, capsys):
        lint_main(["--json", str(FIXTURES / "det001_good.py")])
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "DET001",
            "LAY002",
            "HOOK003",
            "FSM004",
            "TRC009",
        ):
            assert rule in out

    @pytest.mark.parametrize("option", ["--fail-on=error", "--changed"])
    def test_removed_options_are_rejected(self, option, capsys):
        with pytest.raises(SystemExit) as exit_info:
            lint_main([option, str(FIXTURES / "det001_bad.py")])
        assert exit_info.value.code == 2

    def test_sarif_export(self, tmp_path, capsys):
        out = tmp_path / "lint.sarif"
        lint_main(
            [
                "--rules",
                "DET001",
                "--sarif",
                str(out),
                str(FIXTURES / "det001_bad.py"),
            ]
        )
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert "DET001" in rule_ids
        assert run["results"]
        result = run["results"][0]
        assert result["ruleId"] == "DET001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startColumn"] >= 1

    def test_fix_suppress_silences_a_bad_file(self, tmp_path, capsys):
        scratch = tmp_path / "scratch.py"
        scratch.write_text(
            (FIXTURES / "det001_bad.py").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        assert lint_main(["--rules", "DET001", str(scratch)]) == 1
        assert (
            lint_main(["--rules", "DET001", "--fix-suppress", str(scratch)]) == 1
        )
        assert lint_main(["--rules", "DET001", str(scratch)]) == 0
        assert "repro: allow[DET001]" in scratch.read_text(encoding="utf-8")


class TestFixSuppressIdempotency:
    def test_second_pass_rewrites_nothing(self, tmp_path, capsys):
        scratch = tmp_path / "scratch.py"
        scratch.write_text(
            (FIXTURES / "det001_bad.py").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        lint_main(["--rules", "DET001", "--fix-suppress", str(scratch)])
        once = scratch.read_text(encoding="utf-8")
        # A second pass (running ALL rules) must merge into the existing
        # markers, never stack a duplicate after them.
        lint_main(["--fix-suppress", str(scratch)])
        twice = scratch.read_text(encoding="utf-8")
        for line in twice.splitlines():
            assert line.count("repro: allow[") <= 1, line
        lint_main(["--fix-suppress", str(scratch)])
        assert scratch.read_text(encoding="utf-8") == twice

    def test_marker_merge_unions_rule_ids(self):
        line = "x = 1  # repro: allow[DET001]\n"
        merged = _merge_allow_marker(line, {"TRC009", "DET001"})
        assert merged == "x = 1  # repro: allow[DET001,TRC009]\n"
        # Merging again with the same rules is a no-op.
        assert _merge_allow_marker(merged, {"TRC009"}) == merged

