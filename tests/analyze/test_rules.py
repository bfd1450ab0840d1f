"""Per-rule behaviour over the good/bad fixture pairs."""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analyze import run_analysis
from repro.analyze.tracing import iter_own_nodes

FIXTURES = Path(__file__).parent.parent / "analyze_fixtures"


def findings_for(name: str, rule: str):
    report = run_analysis([FIXTURES / name], rules=[rule])
    return report.findings


class TestDet001:
    def test_bad_fixture_flags_every_class(self):
        messages = [f.message for f in findings_for("det001_bad.py", "DET001")]
        assert any("'import random'" in m for m in messages)
        assert any("'from time import time'" in m for m in messages)
        assert any("time() reads the wall clock" in m for m in messages)
        assert any("datetime.now()" in m for m in messages)
        assert any("(active)" in m for m in messages)
        assert any("(table.keys())" in m for m in messages)
        assert any("({3, 1, 2})" in m for m in messages)

    def test_good_fixture_is_clean(self):
        assert findings_for("det001_good.py", "DET001") == []

    def test_cpu_clocks_in_sim_critical_code_flagged(self):
        """CPU time varies run to run just as the wall clock does."""
        messages = [
            f.message
            for f in findings_for("repro/htm/cpu_clock_bad.py", "DET001")
        ]
        for name in (
            "process_time", "process_time_ns", "thread_time", "thread_time_ns"
        ):
            assert any(f"time.{name}() is nondeterministic" in m for m in messages)


class TestLay002:
    def test_internals_bypass_flagged(self):
        messages = [f.message for f in findings_for("lay002_bad.py", "LAY002")]
        assert any("'.dram'" in m for m in messages)
        assert any("'.nvm_log'" in m for m in messages)

    def test_entry_points_are_clean(self):
        assert findings_for("lay002_good.py", "LAY002") == []

    def test_upward_import_flagged(self):
        messages = [
            f.message for f in findings_for("repro/htm/import_bad.py", "LAY002")
        ]
        assert any(
            "'htm' may not import from 'faults'" in m for m in messages
        )

    def test_downward_import_is_clean(self):
        assert findings_for("repro/htm/import_good.py", "LAY002") == []

    def test_sibling_module_shadowing_a_package_is_clean(self):
        """``from .cache import ...`` inside harness/ is harness.cache,
        not the top-level cache package — one dot never leaves the
        importing file's own package."""
        assert (
            findings_for("repro/harness/import_sibling.py", "LAY002") == []
        )

    def test_two_dot_import_of_the_same_name_still_flagged(self):
        messages = [
            f.message
            for f in findings_for(
                "repro/harness/import_updir_bad.py", "LAY002"
            )
        ]
        assert any(
            "'harness' may not import from 'cache'" in m for m in messages
        )


class TestHook003:
    def test_unguarded_invocations_flagged(self):
        findings = findings_for("hook003_bad.py", "HOOK003")
        roots = {f.message.split("'")[1] for f in findings}
        assert roots == {
            "self.fault_injector",
            "self.on_nvm_commit",
            "injector",
            "self.hierarchy.on_llc_miss",
        }

    def test_guarded_shapes_are_clean(self):
        assert findings_for("hook003_good.py", "HOOK003") == []


class TestFsm004:
    def test_total_reachable_swmr_table_is_clean(self):
        assert findings_for("fsm004_good.py", "FSM004") == []

    def test_unhandled_pair_reported(self):
        messages = [f.message for f in findings_for("fsm004_bad.py", "FSM004")]
        assert messages
        assert all("unhandled pair" in m for m in messages)
        assert any("EXCLUSIVE" in m for m in messages)

    def test_unreachable_state_reported(self):
        messages = [
            f.message for f in findings_for("fsm004_unreachable.py", "FSM004")
        ]
        assert any("unreachable" in m and "EXCLUSIVE" in m for m in messages)

    def test_silent_directory_dispatch_reported(self):
        messages = [
            f.message
            for f in findings_for("fsm004_bad_directory.py", "FSM004")
        ]
        assert messages
        assert all("dispatch gap" in m for m in messages)


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

    def test_iter_own_nodes_skips_nested_function_bodies(self):
        tree = ast.parse(
            "def outer():\n"
            "    a = 1\n"
            "    def inner():\n"
            "        b = 2\n"
            "    return a\n"
        )
        scope = tree.body[0]
        names = {
            node.targets[0].id
            for node in iter_own_nodes(scope)
            if isinstance(node, ast.Assign)
        }
        assert names == {"a"}
