"""Tests for the crash-consistency oracle and the recovery audit."""

from __future__ import annotations

import pytest

from repro.faults import (
    CampaignConfig,
    FaultPlan,
    after_commit_mark,
    after_nvm_append,
    build_system,
    execute_plan,
)
from repro.mem.controller import MemoryController
from repro.mem.log import RECLAIM_FLOOR
from repro.params import LINE_SIZE, LatencyConfig, MemoryConfig

CONFIG = CampaignConfig(workload="hashmap", crashes=1, seed=11)
BUGGY = CampaignConfig(
    workload="hashmap", crashes=1, seed=11, inject_bug="skip_commit_mark"
)


class TestOracleOnSoundMachine:
    def test_clean_run_verifies(self):
        system, _workload, oracle = build_system(CONFIG)
        system.run()
        system.crash()
        system.recover()
        verdict = oracle.verify()
        assert verdict.ok, verdict.describe()
        assert verdict.committed_txs > 0
        assert verdict.words_checked > 0

    def test_crash_in_torn_commit_window_verifies(self):
        outcome = execute_plan(CONFIG, after_nvm_append(1))
        assert outcome.ok, outcome.verdict.describe()
        # The in-flight transaction's record must have been discarded.
        assert outcome.report.discarded_records >= 1

    def test_crash_after_commit_mark_keeps_the_commit(self):
        outcome = execute_plan(CONFIG, after_commit_mark(1))
        assert outcome.ok, outcome.verdict.describe()
        assert outcome.verdict.committed_txs >= 1
        assert outcome.report.replayed_lines >= 1


class TestOracleCatchesDurabilityBugs:
    def test_suppressed_commit_mark_is_flagged_as_lost_commit(self):
        """Oracle self-validation: with durable commit marks dropped, every
        architecturally committed transaction is lost at the crash, and the
        oracle must say so."""
        outcome = execute_plan(BUGGY, FaultPlan())
        assert not outcome.ok
        assert any("lost/torn" in f for f in outcome.verdict.failures)

    def test_bug_is_architectural_not_log_derived(self):
        """The oracle's expectations come from the commit point, not the
        (corrupted) log, so committed_txs still counts the lost commits."""
        outcome = execute_plan(BUGGY, FaultPlan())
        assert outcome.verdict.committed_txs > 0
        assert outcome.report.replayed_lines == 0  # nothing marked committed


class TestRecoveryReport:
    def test_report_fields(self):
        system, _workload, _oracle = build_system(CONFIG)
        system.run()
        crash = system.crash()
        report = system.recover()
        assert crash.lost_dram_words >= 0
        assert report.replayed_lines >= 0
        assert report.surviving_nvm_words > 0
        assert report.idempotent is True

    def test_double_recovery_is_idempotent(self):
        system, _workload, _oracle = build_system(CONFIG)
        system.run()
        system.crash()
        first = system.recover()
        again = system.recover()
        assert again.replayed_lines == 0
        assert again.discarded_records == 0
        assert again.surviving_nvm_words == first.surviving_nvm_words

    def test_uncommitted_records_are_discarded_and_counted(self):
        outcome = execute_plan(CONFIG, after_nvm_append(2))
        assert outcome.report.discarded_records >= 1
        # And a repeat recovery has nothing left to discard:
        system, _workload, _oracle = build_system(CONFIG)
        system.run()
        system.crash()
        system.recover()
        assert system.controller.discard_uncommitted_nvm_records() == 0


class TestReclamationDurabilityOrder:
    """Background reclamation may drop a committed transaction's redo
    records only once its lines are in NVM in place — until the drain,
    those records can be the only durable copy of a committed line."""

    @staticmethod
    def controller(lines):
        return MemoryController(
            MemoryConfig(dram_cache_bytes=lines * LINE_SIZE), LatencyConfig()
        )

    def test_record_outlives_its_undrained_line(self):
        controller = self.controller(lines=4)
        addr = controller.address_space.nvm_heap.base
        controller.commit_nvm_transaction(1, {addr: {addr: 5}})
        controller.nvm_log.reclaim_durable()
        assert len(controller.nvm_log.records_of(1)) == 1
        controller.crash()
        controller.recover()
        assert controller.nvm.load(addr) == 5

    def test_drain_lets_the_record_go(self):
        controller = self.controller(lines=1)
        base = controller.address_space.nvm_heap.base
        controller.commit_nvm_transaction(1, {base: {base: 5}})
        controller.commit_nvm_transaction(2, {base + 64: {base + 64: 6}})
        assert controller.nvm.load(base) == 5  # drained by tx 2's fill
        controller.nvm_log.reclaim_durable()
        assert controller.nvm_log.data_tx_ids() == [2]
        controller.crash()
        controller.recover()
        assert (controller.nvm.load(base), controller.nvm.load(base + 64)) == (5, 6)

    def test_drain_before_the_commit_fills_its_line_does_not_count(self):
        """Tx 2's own fills evict its line ``b`` while ``b`` still holds
        tx 1's image: that drain must not let tx 2's record for ``b`` go."""
        controller = self.controller(lines=2)
        base = controller.address_space.nvm_heap.base
        a, b, c = base, base + 64, base + 128
        controller.commit_nvm_transaction(1, {b: {b + 8: 1}})
        controller.commit_nvm_transaction(
            2, {a: {a: 2}, c: {c: 2}, b: {b: 2}}
        )
        assert controller.nvm.load(b + 8) == 1 and controller.nvm.load(b) == 0
        controller.nvm_log.reclaim_durable()
        assert [r.line_addr for r in controller.nvm_log.records_of(2)] == [c, b]
        controller.crash()
        controller.recover()
        assert controller.nvm.load(b) == 2
        assert controller.nvm.load(b + 8) == 1

    def test_commits_reclaim_in_the_background(self):
        controller = self.controller(lines=8)
        base = controller.address_space.nvm_heap.base
        expected = {}
        for tx_id in range(1, 3001):
            line = base + (tx_id * 7 % 40) * LINE_SIZE
            words = {line + 8 * (tx_id % 3): tx_id}
            expected.update(words)
            controller.commit_nvm_transaction(tx_id, {line: words})
        assert controller.dram_cache.drains > 1000
        assert len(controller.nvm_log) < 2 * RECLAIM_FLOOR
        controller.crash()
        controller.recover()
        assert {addr: controller.nvm.load(addr) for addr in expected} == expected
