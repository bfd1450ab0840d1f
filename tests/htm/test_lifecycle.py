"""White-box tests of the HTM transaction lifecycle (UHTM design).

These drive :class:`HTMSystem` directly — begin / tx_read / tx_write /
commit / abort — without the scheduler, asserting on version management,
visibility, rollback, and the staged conflict checks.
"""

from __future__ import annotations

import pytest

from repro import HTMConfig, MachineConfig, SignatureConfig, System, TransactionAborted
from repro.errors import AbortReason, AddressError, TransactionStateError
from repro.htm.tss import TxStatus
from repro.mem.address import MemoryKind
from repro.params import LINE_SIZE
from repro.sim.engine import SimThread


def make_system(design="uhtm", scale=1 / 64, cores=4, **kwargs):
    machine = MachineConfig.scaled(scale, cores=cores)
    return System(machine, HTMConfig(design=design, **kwargs))


def make_thread(thread_id=0):
    return SimThread(thread_id, f"raw{thread_id}", lambda t: iter(()))


def begin(system, thread, core=0, pid=1, domain=1):
    return system.htm.begin(thread, core, pid, domain)


class TestReadWriteVisibility:
    def test_read_own_write(self):
        system = make_system()
        addr = system.heap.alloc_words(1, MemoryKind.DRAM)
        thread = make_thread()
        tx = begin(system, thread)
        system.htm.tx_write(tx, addr, 42)
        assert system.htm.tx_read(tx, addr) == 42

    def test_uncommitted_write_invisible_to_memory(self):
        system = make_system()
        addr = system.heap.alloc_words(1, MemoryKind.DRAM)
        thread = make_thread()
        tx = begin(system, thread)
        system.htm.tx_write(tx, addr, 42)
        assert system.controller.dram.load(addr) == 0

    def test_commit_publishes_dram(self):
        system = make_system()
        addr = system.heap.alloc_words(1, MemoryKind.DRAM)
        thread = make_thread()
        tx = begin(system, thread)
        system.htm.tx_write(tx, addr, 42)
        system.htm.commit(tx)
        assert system.controller.dram.load(addr) == 42

    def test_commit_publishes_nvm_via_dram_cache(self):
        system = make_system()
        addr = system.heap.alloc_words(1, MemoryKind.NVM)
        thread = make_thread()
        tx = begin(system, thread)
        system.htm.tx_write(tx, addr, 7)
        system.htm.commit(tx)
        assert system.controller.load_word(addr) == 7
        assert addr in [
            line for line, _, _ in system.controller.dram_cache.resident_lines()
        ] or system.controller.nvm.load(addr) == 7

    def test_read_sees_committed_state_of_earlier_tx(self):
        system = make_system()
        addr = system.heap.alloc_words(1, MemoryKind.DRAM)
        thread = make_thread()
        tx1 = begin(system, thread)
        system.htm.tx_write(tx1, addr, 5)
        system.htm.commit(tx1)
        tx2 = begin(system, thread)
        assert system.htm.tx_read(tx2, addr) == 5

    def test_accesses_charge_thread_time(self):
        system = make_system()
        addr = system.heap.alloc_words(1, MemoryKind.DRAM)
        thread = make_thread()
        tx = begin(system, thread)
        before = thread.clock_ns
        system.htm.tx_read(tx, addr)
        assert thread.clock_ns > before

    def test_nvm_write_charges_log_append(self):
        system = make_system()
        addr = system.heap.alloc_words(1, MemoryKind.NVM)
        thread = make_thread()
        tx = begin(system, thread)
        system.htm.tx_read(tx, addr)
        after_read = thread.clock_ns
        system.htm.tx_write(tx, addr, 1)
        charged = thread.clock_ns - after_read
        assert charged >= system.machine.latency.nvm_write_ns
        assert system.stats.counter("nvm.log_appends") == 1
        # Second write to the same line: no second log charge.
        system.htm.tx_write(tx, addr + 8, 2)
        assert system.stats.counter("nvm.log_appends") == 1


class TestWriteValueRange:
    """A value no memory word holds is rejected at the write, not at commit."""

    @pytest.mark.parametrize("kind", [MemoryKind.NVM, MemoryKind.DRAM])
    @pytest.mark.parametrize(
        "value", [2**64, 2**63, -(2**63) - 1, 1.5], ids=str
    )
    def test_unstorable_value_rejected_before_any_state_changes(
        self, kind, value
    ):
        system = make_system()
        addr = system.heap.alloc_words(1, kind)
        thread = make_thread()
        tx = begin(system, thread)
        before = thread.clock_ns
        with pytest.raises(AddressError):
            system.htm.tx_write(tx, addr, value)
        assert thread.clock_ns == before
        assert not tx.write_buffer and not tx.written_lines
        assert tx.writes == 0
        assert system.stats.counter("nvm.log_appends") == 0
        # The transaction is still live and commits a word-sized value.
        system.htm.tx_write(tx, addr, 2**63 - 1)
        system.htm.tx_write(tx, addr + 8, -(2**63))
        system.htm.commit(tx)
        assert system.controller.load_word(addr) == 2**63 - 1
        assert system.controller.load_word(addr + 8) == -(2**63)


class TestAbortRollback:
    def test_explicit_abort_discards_writes(self):
        system = make_system()
        addr = system.heap.alloc_words(1, MemoryKind.DRAM)
        system.controller.dram.store(addr, 9)
        thread = make_thread()
        tx = begin(system, thread)
        system.htm.tx_write(tx, addr, 42)
        with pytest.raises(TransactionAborted):
            system.htm.explicit_abort(tx)
        assert system.controller.dram.load(addr) == 9

    def test_aborted_tx_operations_raise(self):
        system = make_system()
        addr = system.heap.alloc_words(1, MemoryKind.DRAM)
        thread = make_thread()
        tx = begin(system, thread)
        system.htm._abort(tx, AbortReason.EXPLICIT)
        with pytest.raises(TransactionAborted):
            system.htm.tx_read(tx, addr)

    def test_commit_of_doomed_tx_raises(self):
        system = make_system()
        thread = make_thread()
        tx = begin(system, thread)
        system.htm._abort(tx, AbortReason.EXPLICIT)
        with pytest.raises(TransactionAborted):
            system.htm.commit(tx)

    def test_double_commit_rejected(self):
        system = make_system()
        thread = make_thread()
        tx = begin(system, thread)
        system.htm.commit(tx)
        with pytest.raises(TransactionStateError):
            system.htm.commit(tx)

    def test_abort_rolls_back_overflowed_dram_lines(self):
        """In-place updated (undo-logged) lines are restored on abort."""
        system = make_system(scale=1 / 256)  # LLC = 64 KB
        thread = make_thread()
        nlines = 2048  # 128 KB: far beyond the LLC
        base = system.heap.alloc(nlines * LINE_SIZE, MemoryKind.DRAM)
        for i in range(nlines):
            system.controller.dram.store(base + i * LINE_SIZE, 100 + i)
        tx = begin(system, thread)
        for i in range(nlines):
            system.htm.tx_write(tx, base + i * LINE_SIZE, 1)
        assert tx.dram_overflowed_lines  # some lines spilled in place
        spilled = sorted(tx.dram_overflowed_lines)
        assert any(
            system.controller.dram.load(line) == 1 for line in spilled
        )
        system.htm._abort(tx, AbortReason.EXPLICIT)
        for i in range(nlines):
            assert system.controller.dram.load(base + i * LINE_SIZE) == 100 + i

    def test_abort_invalidates_buffered_nvm_lines(self):
        system = make_system(scale=1 / 256)
        thread = make_thread()
        nlines = 2048
        base = system.heap.alloc(nlines * LINE_SIZE, MemoryKind.NVM)
        tx = begin(system, thread)
        for i in range(nlines):
            system.htm.tx_write(tx, base + i * LINE_SIZE, 1)
        assert tx.nvm_overflowed_lines
        system.htm._abort(tx, AbortReason.EXPLICIT)
        for i in range(nlines):
            assert system.controller.load_word(base + i * LINE_SIZE) == 0

    def test_abort_charges_victim_thread(self):
        system = make_system(scale=1 / 256)
        thread = make_thread()
        nlines = 2048
        base = system.heap.alloc(nlines * LINE_SIZE, MemoryKind.DRAM)
        tx = begin(system, thread)
        for i in range(nlines):
            system.htm.tx_write(tx, base + i * LINE_SIZE, 1)
        before = thread.clock_ns
        system.htm._abort(tx, AbortReason.EXPLICIT)
        assert thread.clock_ns > before  # undo rollback is on victim's clock


class TestOverflowTracking:
    def test_overflow_sets_tss_bit_and_signature(self):
        system = make_system(scale=1 / 256)
        thread = make_thread()
        nlines = 2048
        base = system.heap.alloc(nlines * LINE_SIZE, MemoryKind.DRAM)
        tx = begin(system, thread)
        for i in range(nlines):
            system.htm.tx_write(tx, base + i * LINE_SIZE, 1)
        assert system.htm.tss.is_overflowed(tx.tx_id)
        assert tx.signature is not None
        assert not tx.signature.is_empty()
        # Every spilled line is findable in the write signature (no false
        # negatives — the correctness property).
        for line in tx.dram_overflowed_lines:
            assert tx.signature.write_may_contain(line)

    def test_l1_eviction_appends_overflow_list(self):
        system = make_system(scale=1 / 64)  # L1 = 8 lines
        thread = make_thread()
        nlines = 64
        base = system.heap.alloc(nlines * LINE_SIZE, MemoryKind.NVM)
        tx = begin(system, thread)
        for i in range(nlines):
            system.htm.tx_write(tx, base + i * LINE_SIZE, 1)
        assert len(tx.overflow_list) > 0

    def test_no_overflow_within_capacity(self):
        system = make_system()
        thread = make_thread()
        addr = system.heap.alloc_words(1, MemoryKind.DRAM)
        tx = begin(system, thread)
        system.htm.tx_write(tx, addr, 1)
        assert not system.htm.tss.is_overflowed(tx.tx_id)
        system.htm.commit(tx)


class TestTssLifecycle:
    def test_commit_reclaims_tss(self):
        system = make_system()
        thread = make_thread()
        tx = begin(system, thread)
        system.htm.commit(tx)
        assert len(system.htm.tss) == 0

    def test_abort_keeps_entry_until_acknowledged(self):
        system = make_system()
        thread = make_thread()
        tx = begin(system, thread)
        system.htm._abort(tx, AbortReason.EXPLICIT)
        assert system.htm.tss.entry(tx.tx_id).status is TxStatus.ABORTED
        system.htm.acknowledge_abort(tx)
        assert len(system.htm.tss) == 0

    def test_begin_registers_signature_in_domain(self):
        system = make_system()
        thread = make_thread()
        tx = begin(system, thread, domain=5)
        assert tx.tx_id in system.htm.domains.active_tx_ids()
        system.htm.commit(tx)
        assert tx.tx_id not in system.htm.domains.active_tx_ids()
