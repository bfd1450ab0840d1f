"""The protocol rules (ATOM005/PKL006/CLK008/TRC009) over fixtures and
mutations of the real tree."""

from __future__ import annotations

from pathlib import Path

import repro
from repro.analyze import run_analysis

FIXTURES = Path(__file__).parent.parent / "analyze_fixtures"
REPRO_ROOT = Path(repro.__file__).parent


def findings_for(name: str, rule: str):
    report = run_analysis([FIXTURES / name], rules=[rule])
    return report.findings


class TestAtom005:
    def test_bad_fixture_flags_every_class(self):
        messages = [f.message for f in findings_for("atom005_bad.py", "ATOM005")]
        assert len(messages) == 3
        assert any("direct write to the published path" in m for m in messages)
        assert any("never renamed into place" in m for m in messages)
        assert any("rename-before-flush" in m for m in messages)

    def test_good_fixture_is_clean(self):
        assert findings_for("atom005_good.py", "ATOM005") == []

    def test_blanket_net_is_warning_tier(self):
        findings = findings_for("repro/harness/cache.py", "ATOM005")
        assert [f.severity for f in findings] == ["warning"]
        assert "durability-critical scope" in findings[0].message

    def test_cross_file_propagation_flags_the_helper(self, tmp_path):
        pkg = tmp_path / "repro" / "store"
        pkg.mkdir(parents=True)
        (pkg / "helper.py").write_text(
            "def save(path, payload):\n"
            "    path.write_text(payload)\n",
            encoding="utf-8",
        )
        (pkg / "caller.py").write_text(
            "from .helper import save\n"
            "\n"
            "\n"
            "def publish(cache, fingerprint):\n"
            "    save(cache.path_for(fingerprint), 'result')\n",
            encoding="utf-8",
        )
        report = run_analysis([tmp_path / "repro"], rules=["ATOM005"])
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.path.endswith("helper.py")
        assert "path_for()" in finding.message


def harness_copy(tmp_path, name, needle="", replacement=""):
    """A copy of the real ``harness/<name>``, optionally with ``needle``
    (which must occur in it) replaced."""
    source = (REPRO_ROOT / "harness" / name).read_text(encoding="utf-8")
    assert needle in source
    copy = tmp_path / name
    copy.write_text(
        source.replace(needle, replacement) if needle else source,
        encoding="utf-8",
    )
    return copy


class TestAtom005Mutations:
    """Break the real cache's publication protocol, watch the rule catch
    it."""

    def test_real_cache_is_clean(self, tmp_path):
        copy = harness_copy(tmp_path, "cache.py")
        assert run_analysis([copy], rules=["ATOM005"]).findings == []

    def test_deleting_the_publish_rename_fires(self, tmp_path):
        mutated = harness_copy(
            tmp_path, "cache.py", "        tmp.replace(path)"
        )
        messages = [
            f.message
            for f in run_analysis([mutated], rules=["ATOM005"]).findings
        ]
        assert any(
            "'tmp' stages a published path but is never renamed" in m
            for m in messages
        )

    def test_writing_the_entry_in_place_fires(self, tmp_path):
        mutated = harness_copy(
            tmp_path,
            "cache.py",
            "        tmp.write_text(\n",
            "        path.write_text(\n",
        )
        messages = [
            f.message
            for f in run_analysis([mutated], rules=["ATOM005"]).findings
        ]
        assert any(
            "direct write to the published path from path_for()" in m
            for m in messages
        )


    def test_renaming_before_the_write_fires(self, tmp_path):
        write = (
            "        tmp.write_text(\n"
            "            json.dumps(payload, indent=2, sort_keys=True), "
            "encoding=\"utf-8\"\n"
            "        )\n"
        )
        rename = (
            "        tmp.replace(path)  # atomic publish: readers never see "
            "a torn entry\n"
        )
        mutated = harness_copy(tmp_path, "cache.py", write + rename,
                               rename + write)
        messages = [
            f.message
            for f in run_analysis([mutated], rules=["ATOM005"]).findings
        ]
        assert any("rename-before-flush" in m for m in messages)

    def test_a_shared_staging_name_is_still_a_staged_write(self, tmp_path):
        """The rule follows the staging derivation, not the unique name:
        a fixed ``.tmp`` suffix is still staged and published."""
        mutated = harness_copy(
            tmp_path,
            "cache.py",
            "        tmp = path.with_name(\n"
            "            f\"{path.name}.{os.getpid()}.{next(_put_sequence)}.tmp\"\n"
            "        )\n",
            "        tmp = path.with_suffix(\".tmp\")\n",
        )
        assert run_analysis([mutated], rules=["ATOM005"]).findings == []


class TestPkl006:
    def test_bad_fixture_flags_every_class(self):
        messages = [f.message for f in findings_for("pkl006_bad.py", "PKL006")]
        assert len(messages) == 5
        assert any(
            "a lambda flows into ProcessPoolExecutor.map" in m
            for m in messages
        )
        assert any(
            "the nested function 'execute' flows into "
            "ProcessPoolExecutor.submit" in m
            for m in messages
        )
        assert any("an open file handle flows into dumps()" in m for m in messages)
        assert any("a threading.Lock flows into dumps()" in m for m in messages)
        assert any(
            "a tracer reference flows into ProcessPoolExecutor.submit" in m
            for m in messages
        )

    def test_good_fixture_is_clean(self):
        assert findings_for("pkl006_good.py", "PKL006") == []


class TestPkl006Mutations:
    """The real grid runner's pool, clean and with a closure shipped."""

    def test_real_pool_is_clean(self, tmp_path):
        copy = harness_copy(tmp_path, "parallel.py")
        assert run_analysis([copy], rules=["PKL006"]).findings == []

    def test_submitting_a_lambda_fires(self, tmp_path):
        mutated = harness_copy(
            tmp_path,
            "parallel.py",
            "pool.submit(execute_point, points[i])",
            "pool.submit(lambda: execute_point(points[i]))",
        )
        messages = [
            f.message
            for f in run_analysis([mutated], rules=["PKL006"]).findings
        ]
        assert any(
            "a lambda flows into ProcessPoolExecutor.submit" in m
            for m in messages
        )


    def test_real_trace_pool_is_clean(self, tmp_path):
        copy = tmp_path / "capture.py"
        copy.write_text(
            (REPRO_ROOT / "obs" / "capture.py").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        assert run_analysis([copy], rules=["PKL006"]).findings == []

    def test_mapping_a_lambda_over_the_trace_pool_fires(self, tmp_path):
        source = (REPRO_ROOT / "obs" / "capture.py").read_text(
            encoding="utf-8"
        )
        needle = "pool.map(_trace_point, items)"
        assert needle in source
        mutated = tmp_path / "capture.py"
        mutated.write_text(
            source.replace(needle, "pool.map(lambda i: _trace_point(i), items)"),
            encoding="utf-8",
        )
        messages = [
            f.message
            for f in run_analysis([mutated], rules=["PKL006"]).findings
        ]
        assert any(
            "a lambda flows into ProcessPoolExecutor.map" in m
            for m in messages
        )


class TestClk008:
    def test_direct_and_transitive_reads_flagged(self):
        messages = [
            f.message
            for f in findings_for("repro/htm/clock_bad.py", "CLK008")
        ]
        assert any("direct wall-clock read" in m for m in messages)
        assert any(
            "'step' reaches time.time()" in m
            and "via clock_bad.py:step -> clock_bad.py:_now" in m
            for m in messages
        )

    def test_cross_file_chain_is_reported(self):
        report = run_analysis(
            [
                FIXTURES / "repro" / "htm" / "clock_xfile_bad.py",
                FIXTURES / "repro" / "harness" / "hostinfo.py",
            ],
            rules=["CLK008"],
        )
        messages = [f.message for f in report.findings]
        assert any(
            "clock_xfile_bad.py:stamp -> hostinfo.py:host_seconds" in m
            for m in messages
        )
        # The finding lands in the sim-critical caller, not the harness file.
        assert all(
            f.path.endswith("clock_xfile_bad.py") for f in report.findings
        )

    def test_funnel_absorbs_the_taint(self):
        report = run_analysis(
            [
                FIXTURES / "repro" / "htm" / "clock_ok.py",
                FIXTURES / "repro" / "harness" / "timer.py",
            ],
            rules=["CLK008"],
        )
        assert report.findings == []



class TestClk008RealFunnels:
    """The real stopwatch and phase timers, at and away from their
    declared funnel paths, read by a sim-critical caller."""

    CALLER = (
        "from ..harness import {module} as host_timer\n"
        "\n"
        "\n"
        "def profile_step(engine):\n"
        "    watch = host_timer.Stopwatch()\n"
        "    engine.step()\n"
        "    return watch.elapsed_s\n"
    )

    def tree(self, tmp_path, module):
        harness = tmp_path / "repro" / "harness"
        htm = tmp_path / "repro" / "htm"
        harness.mkdir(parents=True)
        htm.mkdir(parents=True)
        (harness / f"{module}.py").write_text(
            (REPRO_ROOT / "harness" / "timer.py").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        (htm / "probe.py").write_text(
            self.CALLER.format(module=module), encoding="utf-8"
        )
        return tmp_path / "repro"

    def test_the_real_stopwatch_funnel_absorbs_the_taint(self, tmp_path):
        report = run_analysis([self.tree(tmp_path, "timer")], rules=["CLK008"])
        assert report.findings == []

    def test_the_real_stopwatch_off_its_funnel_path_is_flagged(self, tmp_path):
        report = run_analysis(
            [self.tree(tmp_path, "stopwatch")], rules=["CLK008"]
        )
        assert report.findings
        assert all(f.path.endswith("probe.py") for f in report.findings)
        assert any(
            "time.perf_counter()" in f.message for f in report.findings
        )


class TestTrc009:
    def test_bad_fixture_flags_both_classes(self):
        messages = [f.message for f in findings_for("trc009_bad.py", "TRC009")]
        assert len(messages) == 3
        assert any("is not None-guarded" in m for m in messages)
        assert any(
            "emit('tx.commit') has no adjacent incr('tx.commits')" in m
            for m in messages
        )

    def test_good_fixture_is_clean(self):
        assert findings_for("trc009_good.py", "TRC009") == []
