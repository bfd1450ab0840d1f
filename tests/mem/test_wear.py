"""Tests for NVM wear accounting."""

from __future__ import annotations

import pytest

from repro import HTMConfig, MachineConfig, System
from repro.mem.address import MemoryKind
from repro.mem.wear import WearTracker
from repro.params import LINE_SIZE
from repro.sim.engine import SimThread


def make_system():
    return System(MachineConfig.scaled(1 / 64, cores=2), HTMConfig())


def commit_lines(system, base, nlines, value=1):
    thread = SimThread(0, "t", lambda t: iter(()))
    tx = system.htm.begin(thread, 0, 1, 1)
    for i in range(nlines):
        system.htm.tx_write(tx, base + i * LINE_SIZE, value)
    system.htm.commit(tx)


class TestWearTracker:
    def test_counts_inplace_writes_after_drain(self):
        system = make_system()
        tracker = WearTracker().attach(system.controller)
        base = system.heap.alloc(4 * LINE_SIZE, MemoryKind.NVM)
        commit_lines(system, base, 4)
        system.controller.dram_cache.drain_all()
        assert tracker.total_line_writes == 4
        assert tracker.distinct_lines == 4

    def test_direct_store_counted_once(self):
        """A non-transactional NVM store to a line the DRAM cache does not
        hold goes straight to the backing store, through the tracked
        ``store``."""
        system = make_system()
        tracker = WearTracker().attach(system.controller)
        addr = system.heap.alloc(LINE_SIZE, MemoryKind.NVM)
        assert system.controller.dram_cache.lookup(addr) is None
        system.controller.store_word(addr, 5)
        assert tracker.line_writes == {addr: 1}
        assert tracker.payload_bytes == 8
        assert system.controller.load_word(addr) == 5

    def test_log_bytes_accounted(self):
        system = make_system()
        tracker = WearTracker().attach(system.controller)
        base = system.heap.alloc(4 * LINE_SIZE, MemoryKind.NVM)
        commit_lines(system, base, 4)
        assert tracker.log_bytes >= 4 * 80  # four redo records

    def test_write_amplification(self):
        system = make_system()
        tracker = WearTracker().attach(system.controller)
        base = system.heap.alloc(2 * LINE_SIZE, MemoryKind.NVM)
        commit_lines(system, base, 2)
        system.controller.dram_cache.drain_all()
        amplification = tracker.write_amplification()
        assert amplification > 1.0  # line-sized records per 8-byte payload

    def test_hot_line_detection(self):
        system = make_system()
        tracker = WearTracker().attach(system.controller)
        base = system.heap.alloc(2 * LINE_SIZE, MemoryKind.NVM)
        for _ in range(5):
            commit_lines(system, base, 1, value=7)
            system.controller.dram_cache.drain_all()
        hottest = tracker.hottest_lines(1)
        assert hottest[0][0] == base
        assert hottest[0][1] == 5
        assert tracker.max_line_writes == 5

    def test_percentiles(self):
        tracker = WearTracker()
        tracker.line_writes.update({0: 1, 64: 1, 128: 10})
        assert tracker.percentile_line_writes(0.5) == 1
        assert tracker.percentile_line_writes(1.0) == 10
        with pytest.raises(ValueError):
            tracker.percentile_line_writes(0.0)

    def test_empty_tracker(self):
        tracker = WearTracker()
        assert tracker.total_line_writes == 0
        assert tracker.max_line_writes == 0
        assert tracker.write_amplification() == 0.0
        assert tracker.percentile_line_writes(0.5) == 0

    def test_detach_restores(self):
        system = make_system()
        tracker = WearTracker().attach(system.controller)
        tracker.detach()
        base = system.heap.alloc(LINE_SIZE, MemoryKind.NVM)
        system.controller.nvm.store(base, 1)
        assert tracker.total_line_writes == 0

    def test_double_attach_rejected(self):
        system = make_system()
        tracker = WearTracker().attach(system.controller)
        with pytest.raises(RuntimeError):
            tracker.attach(system.controller)

    def test_recovery_writes_also_counted(self):
        system = make_system()
        tracker = WearTracker().attach(system.controller)
        base = system.heap.alloc(2 * LINE_SIZE, MemoryKind.NVM)
        commit_lines(system, base, 2)
        system.crash()
        system.recover()
        assert tracker.total_line_writes >= 2
