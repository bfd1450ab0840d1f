"""Tests for the ``repro bench`` perf-regression gate and smoke tier."""

from __future__ import annotations

import json

import pytest

from repro.harness import bench
from repro.harness.bench import (
    ABS_SLACK_S,
    MIN_COMPARABLE_S,
    SMOKE_SCALE,
    comparable_points,
    compare_to_baseline,
    _load_baseline,
)


def _point(label, key, elapsed_s, cached=False):
    return {
        "key": key,
        "label": label,
        "fingerprint": "f" * 12,
        "cached": cached,
        "elapsed_s": elapsed_s,
    }


def _artifact(points, figure="fig7"):
    return {"figure": figure, "points": points}


class TestCompareToBaseline:
    def test_large_slowdown_fails(self):
        baseline = _artifact([_point("a", ["x"], 1.0)])
        current = _artifact([_point("a", ["x"], 2.0)])
        violations = compare_to_baseline(current, baseline)
        assert len(violations) == 1
        assert "2.000s vs baseline 1.000s" in violations[0]

    def test_within_tolerance_passes(self):
        baseline = _artifact([_point("a", ["x"], 1.0)])
        current = _artifact([_point("a", ["x"], 1.1)])
        assert compare_to_baseline(current, baseline) == []

    def test_absolute_slack_shields_small_points(self):
        # 40% slower, but only 60 ms in absolute terms: under the slack.
        baseline = _artifact([_point("a", ["x"], 0.15)])
        current = _artifact([_point("a", ["x"], 0.21)])
        assert compare_to_baseline(current, baseline) == []
        # The same relative slowdown past the slack fails.
        baseline = _artifact([_point("a", ["x"], 1.5)])
        current = _artifact([_point("a", ["x"], 2.1)])
        assert len(compare_to_baseline(current, baseline)) == 1

    def test_boundary_is_exclusive(self):
        baseline = _artifact([_point("a", ["x"], 1.0)])
        exactly = _artifact([_point("a", ["x"], 1.15 + ABS_SLACK_S)])
        assert compare_to_baseline(exactly, baseline) == []

    def test_cached_points_never_gate(self):
        baseline = _artifact([_point("a", ["x"], 1.0, cached=True)])
        current = _artifact([_point("a", ["x"], 99.0)])
        assert compare_to_baseline(current, baseline) == []
        baseline = _artifact([_point("a", ["x"], 1.0)])
        current = _artifact([_point("a", ["x"], 99.0, cached=True)])
        assert compare_to_baseline(current, baseline) == []

    def test_noise_floor_points_never_gate(self):
        tiny = MIN_COMPARABLE_S / 2
        baseline = _artifact([_point("a", ["x"], tiny)])
        current = _artifact([_point("a", ["x"], 99.0)])
        assert compare_to_baseline(current, baseline) == []

    def test_unmatched_points_are_skipped(self):
        baseline = _artifact([_point("a", ["x"], 1.0)])
        current = _artifact(
            [_point("b", ["y"], 99.0), _point("a", ["z"], 99.0)]
        )
        assert compare_to_baseline(current, baseline) == []

    def test_custom_tolerance(self):
        baseline = _artifact([_point("a", ["x"], 10.0)])
        current = _artifact([_point("a", ["x"], 14.0)])
        assert compare_to_baseline(current, baseline, tolerance=0.15)
        assert compare_to_baseline(current, baseline, tolerance=0.5) == []

    def test_multiple_regressions_all_reported(self):
        baseline = _artifact(
            [_point("a", ["x"], 1.0), _point("b", ["y"], 2.0)]
        )
        current = _artifact(
            [_point("a", ["x"], 3.0), _point("b", ["y"], 6.0)]
        )
        assert len(compare_to_baseline(current, baseline)) == 2


class TestComparablePoints:
    def test_pairs_matched_simulated_points(self):
        baseline = _artifact(
            [_point("a", ["x"], 1.0), _point("b", ["y"], 1.0)]
        )
        current = _artifact(
            [_point("a", ["x"], 2.0), _point("c", ["z"], 2.0)]
        )
        pairs = comparable_points(current, baseline)
        assert [(p["label"], b["label"]) for p, b in pairs] == [("a", "a")]

    def test_cached_points_do_not_pair(self):
        baseline = _artifact([_point("a", ["x"], 1.0, cached=True)])
        current = _artifact([_point("a", ["x"], 2.0)])
        assert comparable_points(current, baseline) == []


class TestLoadBaseline:
    def test_directory_resolution(self, tmp_path):
        path = tmp_path / "BENCH_fig7.json"
        path.write_text(json.dumps(_artifact([], figure="fig7")))
        data, resolved = _load_baseline(str(tmp_path), "fig7")
        assert data["figure"] == "fig7"
        assert resolved == path

    def test_missing_file(self, tmp_path):
        data, resolved = _load_baseline(str(tmp_path), "fig7")
        assert data is None
        assert resolved.name == "BENCH_fig7.json"

    def test_figure_mismatch_rejected(self, tmp_path):
        path = tmp_path / "whatever.json"
        path.write_text(json.dumps(_artifact([], figure="fig2")))
        data, _ = _load_baseline(str(path), "fig7")
        assert data is None

    def test_direct_file(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(_artifact([], figure="fig7")))
        data, _ = _load_baseline(str(path), "fig7")
        assert data["figure"] == "fig7"


class TestBenchCliGate:
    """End-to-end: one real smoke run, then gate against doctored baselines."""

    @pytest.fixture(scope="class")
    def smoke_artifact(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("bench-out")
        rc = bench.main(["fig2", "-m", "smoke", "--out-dir", str(out_dir)])
        assert rc == 0
        path = out_dir / "BENCH_fig2.json"
        return json.loads(path.read_text(encoding="utf-8"))

    def test_smoke_tier_sets_scale_and_quick(self, smoke_artifact):
        assert smoke_artifact["scale"] == SMOKE_SCALE
        assert smoke_artifact["quick"] is True
        assert smoke_artifact["simulated"] == smoke_artifact["points_total"]
        assert all(p["elapsed_s"] >= 0 for p in smoke_artifact["points"])

    def test_gate_fails_against_faster_baseline(
        self, smoke_artifact, tmp_path, monkeypatch, capsys
    ):
        # Shrink the guards so the synthetic baseline gates every point
        # regardless of how fast this host is.
        monkeypatch.setattr(bench, "MIN_COMPARABLE_S", 0.0)
        monkeypatch.setattr(bench, "ABS_SLACK_S", 0.0)
        baseline = json.loads(json.dumps(smoke_artifact))
        for point in baseline["points"]:
            point["elapsed_s"] = point["elapsed_s"] / 1000 + 1e-6
        baseline_path = tmp_path / "BENCH_fig2.json"
        baseline_path.write_text(json.dumps(baseline), encoding="utf-8")
        rc = bench.main(
            [
                "fig2",
                "-m",
                "smoke",
                "--compare",
                str(baseline_path),
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "perf gate FAILED" in out

    def test_gate_passes_against_slower_baseline(
        self, smoke_artifact, tmp_path, capsys
    ):
        baseline = json.loads(json.dumps(smoke_artifact))
        for point in baseline["points"]:
            point["elapsed_s"] = point["elapsed_s"] * 100 + 10.0
        baseline_path = tmp_path / "BENCH_fig2.json"
        baseline_path.write_text(json.dumps(baseline), encoding="utf-8")
        rc = bench.main(
            [
                "fig2",
                "-m",
                "smoke",
                "--compare",
                str(tmp_path),
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "perf gate passed" in out

    def test_missing_baseline_is_not_gated(self, tmp_path, capsys):
        rc = bench.main(
            [
                "fig2",
                "-m",
                "smoke",
                "--compare",
                str(tmp_path / "nowhere"),
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        assert "not gated" in capsys.readouterr().out

    def test_vacuous_gate_fails(self, smoke_artifact, tmp_path, capsys):
        # A baseline whose labels match nothing pairs zero points; the
        # gate must fail loudly instead of passing without comparing.
        baseline = json.loads(json.dumps(smoke_artifact))
        for point in baseline["points"]:
            point["label"] = "renamed-" + point["label"]
        baseline_path = tmp_path / "BENCH_fig2.json"
        baseline_path.write_text(json.dumps(baseline), encoding="utf-8")
        rc = bench.main(
            [
                "fig2",
                "-m",
                "smoke",
                "--compare",
                str(baseline_path),
                "--out-dir",
                str(tmp_path / "out"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "compared nothing" in out
