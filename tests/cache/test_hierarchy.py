"""Tests for the two-level inclusive cache hierarchy."""

from __future__ import annotations

import pytest

from repro.cache.coherence import MesiState
from repro.cache.hierarchy import CacheHierarchy
from repro.mem.controller import MemoryController
from repro.params import (
    CacheGeometry,
    LINE_SIZE,
    LatencyConfig,
    MachineConfig,
    MemoryConfig,
)


def make_hierarchy(cores=2, l1_lines=4, llc_lines=16):
    machine = MachineConfig(
        cores=cores,
        l1=CacheGeometry(size_bytes=l1_lines * LINE_SIZE, ways=2),
        llc=CacheGeometry(size_bytes=llc_lines * LINE_SIZE, ways=4),
        latency=LatencyConfig(),
        memory=MemoryConfig(),
    )
    controller = MemoryController(machine.memory, machine.latency)
    return CacheHierarchy(machine, controller), controller, machine


def dram_line(controller, index):
    return controller.address_space.dram_heap.base + index * LINE_SIZE


def nvm_line(controller, index):
    return controller.address_space.nvm_heap.base + index * LINE_SIZE


class TestAccessPath:
    def test_cold_miss_goes_to_memory(self):
        hierarchy, controller, machine = make_hierarchy()
        addr = dram_line(controller, 0)
        result = hierarchy.access(0, addr, False)
        assert result.level == "mem"
        assert result.llc_miss
        expected = (
            machine.latency.l1_ns + machine.latency.llc_ns + machine.latency.dram_ns
        )
        assert result.latency_ns == pytest.approx(expected)

    def test_l1_hit_after_fill(self):
        hierarchy, controller, machine = make_hierarchy()
        addr = dram_line(controller, 0)
        hierarchy.access(0, addr, False)
        result = hierarchy.access(0, addr, False)
        assert result.level == "l1"
        assert result.latency_ns == pytest.approx(machine.latency.l1_ns)

    def test_llc_hit_from_other_core(self):
        hierarchy, controller, machine = make_hierarchy()
        addr = dram_line(controller, 0)
        hierarchy.access(0, addr, False)
        result = hierarchy.access(1, addr, False)
        assert result.level == "llc"
        assert result.latency_ns == pytest.approx(
            machine.latency.l1_ns + machine.latency.llc_ns
        )

    def test_nvm_latency_charged(self):
        hierarchy, controller, machine = make_hierarchy()
        addr = nvm_line(controller, 0)
        result = hierarchy.access(0, addr, False)
        expected = (
            machine.latency.l1_ns
            + machine.latency.llc_ns
            + machine.latency.nvm_read_ns
        )
        assert result.latency_ns == pytest.approx(expected)


class TestCoherence:
    def test_write_invalidates_other_l1_copies(self):
        hierarchy, controller, _ = make_hierarchy()
        addr = dram_line(controller, 0)
        hierarchy.access(0, addr, False)
        hierarchy.access(1, addr, False)
        assert hierarchy.l1_resident(0, addr)
        assert hierarchy.l1_resident(1, addr)
        hierarchy.access(0, addr, True)
        assert hierarchy.l1_resident(0, addr)
        assert not hierarchy.l1_resident(1, addr)

    def test_tx_write_sets_dirty_and_modified_only(self):
        hierarchy, controller, _ = make_hierarchy()
        addr = dram_line(controller, 0)
        hierarchy.access(0, addr, True, tx_id=7)
        meta = hierarchy.l1s[0].peek(addr)
        assert meta.dirty
        assert meta.mesi is MesiState.MODIFIED
        # Tx-Owner is the HTM design's to record, in the directory.
        assert hierarchy.directory.entry(addr) is None

    def test_tx_read_leaves_tx_state_to_the_directory(self):
        hierarchy, controller, _ = make_hierarchy()
        addr = dram_line(controller, 0)
        hierarchy.access(0, addr, False, tx_id=7)
        meta = hierarchy.l1s[0].peek(addr)
        assert not meta.dirty
        assert meta.mesi is MesiState.EXCLUSIVE
        assert hierarchy.directory.entry(addr) is None


class TestEvictions:
    def test_l1_eviction_propagates_dirty_bit_to_llc(self):
        hierarchy, controller, _ = make_hierarchy(l1_lines=2)
        # 1 set x 2 ways L1: the third distinct line evicts the first.
        lines = [dram_line(controller, i) for i in range(3)]
        hierarchy.access(0, lines[0], True, tx_id=5)
        hierarchy.directory.record_access(lines[0], 5, True)
        hierarchy.access(0, lines[1], False)
        hierarchy.access(0, lines[2], False)
        assert not hierarchy.l1_resident(0, lines[0])
        assert hierarchy.llc.peek(lines[0]).dirty
        # The Tx-Owner stays where it was recorded.
        assert hierarchy.directory.entry(lines[0]).tx_owner == 5

    def test_l1_evict_callback_for_tx_written_lines(self):
        hierarchy, controller, _ = make_hierarchy(l1_lines=2)
        events = []
        hierarchy.on_l1_evict = lambda core, meta, entry: events.append(
            (meta.line_addr, entry.tx_owner)
        )
        lines = [dram_line(controller, i) for i in range(3)]
        hierarchy.access(0, lines[0], True, tx_id=5)
        hierarchy.directory.record_access(lines[0], 5, True)
        hierarchy.access(0, lines[1], False)
        hierarchy.access(0, lines[2], False)
        assert events == [(lines[0], 5)]

    @pytest.mark.parametrize("case", ("nontx_write", "tx_read", "clean_owner"))
    def test_l1_evict_callback_needs_dirty_line_with_owner(self, case):
        hierarchy, controller, _ = make_hierarchy(l1_lines=2)
        events = []
        hierarchy.on_l1_evict = lambda core, meta, entry: events.append(meta)
        lines = [dram_line(controller, i) for i in range(3)]
        if case == "nontx_write":
            hierarchy.access(0, lines[0], True)
        elif case == "tx_read":
            hierarchy.access(0, lines[0], True)
            hierarchy.directory.record_access(lines[0], 5, False)
        else:
            # Owned, but the evicted copy is a clean one on another core.
            hierarchy.access(1, lines[0], False)
            hierarchy.directory.record_access(lines[0], 5, True)
            hierarchy.access(0, lines[0], False)
        hierarchy.access(0, lines[1], False)
        hierarchy.access(0, lines[2], False)
        assert not hierarchy.l1_resident(0, lines[0])
        assert events == []

    def test_llc_eviction_back_invalidates_l1(self):
        hierarchy, controller, _ = make_hierarchy(l1_lines=64, llc_lines=4)
        # LLC: 1 set x 4 ways; fill 5 distinct lines.
        lines = [dram_line(controller, i) for i in range(5)]
        for line in lines:
            hierarchy.access(0, line, False)
        assert not hierarchy.llc_resident(lines[0])
        assert not hierarchy.l1_resident(0, lines[0])

    def test_llc_evict_callback_carries_directory_entry(self):
        hierarchy, controller, _ = make_hierarchy(l1_lines=64, llc_lines=4)
        events = []
        hierarchy.on_llc_evict = lambda meta, entry: events.append((meta, entry))
        lines = [dram_line(controller, i) for i in range(5)]
        hierarchy.access(0, lines[0], True, tx_id=9)
        hierarchy.directory.record_access(lines[0], 9, True)
        for line in lines[1:]:
            hierarchy.access(0, line, False)
        assert len(events) == 1
        meta, entry = events[0]
        assert meta.line_addr == lines[0]
        assert entry is not None and entry.tx_owner == 9

    def test_untracked_eviction_no_callback(self):
        hierarchy, controller, _ = make_hierarchy(l1_lines=64, llc_lines=4)
        events = []
        hierarchy.on_llc_evict = lambda meta, entry: events.append(meta)
        for i in range(5):
            hierarchy.access(0, dram_line(controller, i), False, tx_id=3)
        assert events == []

    def test_dirty_nontx_eviction_counts_writeback(self):
        hierarchy, controller, _ = make_hierarchy(l1_lines=64, llc_lines=4)
        hierarchy.access(0, dram_line(controller, 0), True)
        for i in range(1, 5):
            hierarchy.access(0, dram_line(controller, i), False)
        assert hierarchy.writebacks == 1

    @pytest.mark.parametrize(
        "owner, sharer, counted", ((9, None, False), (None, 9, True))
    )
    def test_writeback_counts_dirty_victims_without_owner(
        self, owner, sharer, counted
    ):
        hierarchy, controller, _ = make_hierarchy(l1_lines=64, llc_lines=4)
        addr = dram_line(controller, 0)
        hierarchy.access(0, addr, True)
        if owner is not None:
            hierarchy.directory.record_access(addr, owner, True)
        if sharer is not None:
            hierarchy.directory.record_access(addr, sharer, False)
        for i in range(1, 5):
            hierarchy.access(0, dram_line(controller, i), False)
        assert not hierarchy.llc_resident(addr)
        assert hierarchy.writebacks == int(counted)


class TestTransactionOps:
    def test_invalidate_written_lines(self):
        hierarchy, controller, _ = make_hierarchy()
        addr = dram_line(controller, 0)
        hierarchy.access(0, addr, True, tx_id=3)
        hierarchy.directory.record_access(addr, 3, True)
        count = hierarchy.invalidate_written_lines(3, {addr})
        assert count == 1
        assert not hierarchy.l1_resident(0, addr)
        assert not hierarchy.llc_resident(addr)

    def test_clear_tx_markers_is_a_noop(self):
        hierarchy, controller, _ = make_hierarchy()
        addr = dram_line(controller, 0)
        hierarchy.access(0, addr, True, tx_id=3)
        hierarchy.directory.record_access(addr, 3, True)
        hierarchy.clear_tx_markers(3, {addr})
        assert hierarchy.l1_resident(0, addr)
        assert hierarchy.l1s[0].peek(addr).dirty
        assert hierarchy.directory.entry(addr).tx_owner == 3

    def test_wipe(self):
        hierarchy, controller, _ = make_hierarchy()
        addr = dram_line(controller, 0)
        hierarchy.access(0, addr, False)
        hierarchy.wipe()
        assert not hierarchy.l1_resident(0, addr)
        assert not hierarchy.llc_resident(addr)
