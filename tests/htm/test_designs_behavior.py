"""Design-specific behaviours: what distinguishes the four systems."""

from __future__ import annotations

import pytest

from repro import HTMConfig, MachineConfig, SignatureConfig, System, TransactionAborted
from repro.cache.directory import Directory
from repro.errors import AbortReason
from repro.htm.designs import IdealHTM, LLCBoundedHTM, SignatureOnlyHTM, UHTM, build_htm
from repro.htm.tss import TxStatus
from repro.mem.address import MemoryKind
from repro.params import LINE_SIZE
from repro.sim.engine import SimThread


def make_system(design, scale=1 / 64, **kwargs):
    return System(
        MachineConfig.scaled(scale, cores=4), HTMConfig(design=design, **kwargs)
    )


def make_thread(tid=0):
    return SimThread(tid, f"t{tid}", lambda t: iter(()))


class TestFactory:
    def test_build_htm_dispatch(self):
        for design, cls in (
            ("llc_bounded", LLCBoundedHTM),
            ("signature_only", SignatureOnlyHTM),
            ("uhtm", UHTM),
            ("ideal", IdealHTM),
        ):
            system = make_system(design)
            assert type(system.htm) is cls


class TestSignatureOnly:
    def test_directory_recorded_but_never_checked(self, monkeypatch):
        checks = []
        monkeypatch.setattr(
            Directory, "check_access", lambda self, *args: checks.append(args)
        )
        system = make_system("signature_only", signature=SignatureConfig(bits=4096))
        directory = system.hierarchy.directory
        addr = system.heap.alloc_words(1, MemoryKind.DRAM)
        line = addr & ~(LINE_SIZE - 1)
        t1, t2 = make_thread(0), make_thread(1)
        tx1 = system.htm.begin(t1, 0, 1, 1)
        system.htm.tx_write(tx1, addr, 1)
        assert directory.entry(line).tx_owner == tx1.tx_id
        # A transactional requester loses on the signature, not the directory.
        tx2 = system.htm.begin(t2, 1, 1, 1)
        with pytest.raises(TransactionAborted) as aborted:
            system.htm.tx_read(tx2, addr)
        assert aborted.value.reason is not AbortReason.CONFLICT_COHERENCE
        system.htm.commit(tx1)
        assert len(directory) == 0
        # A non-transactional writer aborts a reader, again by signature.
        tx3 = system.htm.begin(t1, 0, 1, 1)
        system.htm.tx_read(tx3, addr)
        assert tx3.tx_id in directory.entry(line).tx_sharers
        system.htm.nontx_access(t2, 1, 1, addr, True, 5)
        assert system.htm.tss.entry(tx3.tx_id).status is TxStatus.ABORTED
        assert len(directory) == 0
        assert checks == []
        assert system.stats.counter("tx.aborts.conflict_coherence") == 0

    def test_signature_populated_at_access_time(self):
        system = make_system("signature_only")
        thread = make_thread()
        addr = system.heap.alloc_words(1, MemoryKind.DRAM)
        tx = system.htm.begin(thread, 0, 1, 1)
        system.htm.tx_read(tx, addr)
        assert not tx.signature.is_empty()
        assert tx.signature.read_may_contain(addr)

    def test_conflicts_detected_without_eviction(self):
        """Both lines are comfortably cache-resident; signature-only still
        sees the conflict (all coherence traffic is checked)."""
        system = make_system("signature_only", signature=SignatureConfig(bits=4096))
        addr = system.heap.alloc_words(1, MemoryKind.DRAM)
        t1, t2 = make_thread(0), make_thread(1)
        tx1 = system.htm.begin(t1, 0, 1, 1)
        system.htm.tx_write(tx1, addr, 1)
        tx2 = system.htm.begin(t2, 1, 1, 1)
        with pytest.raises(TransactionAborted):
            system.htm.tx_write(tx2, addr, 2)  # requester-aborts off-chip rule

    def test_flat_conflict_domain(self):
        """No isolation: different processes' signatures are checked."""
        system = make_system("signature_only", signature=SignatureConfig(bits=4096))
        addr = system.heap.alloc_words(1, MemoryKind.DRAM)
        t1, t2 = make_thread(0), make_thread(1)
        tx1 = system.htm.begin(t1, 0, 1, 1)
        system.htm.tx_write(tx1, addr, 1)
        tx2 = system.htm.begin(t2, 1, 2, 2)  # different process/domain
        with pytest.raises(TransactionAborted):
            system.htm.tx_write(tx2, addr, 2)


class TestLLCBounded:
    def test_read_set_eviction_also_capacity_aborts(self):
        system = make_system("llc_bounded", scale=1 / 256)
        thread = make_thread()
        nlines = 2048
        base = system.heap.alloc(nlines * LINE_SIZE, MemoryKind.DRAM)
        tx = system.htm.begin(thread, 0, 1, 1)
        with pytest.raises(TransactionAborted) as excinfo:
            for i in range(nlines):
                system.htm.tx_read(tx, base + i * LINE_SIZE)
        assert excinfo.value.reason is AbortReason.CAPACITY

    def test_small_transactions_unaffected(self):
        system = make_system("llc_bounded")
        thread = make_thread()
        addr = system.heap.alloc_words(1, MemoryKind.NVM)
        tx = system.htm.begin(thread, 0, 1, 1)
        system.htm.tx_write(tx, addr, 9)
        system.htm.commit(tx)
        assert system.controller.load_word(addr) == 9


class TestUHTMvsIdeal:
    def _overflow_and_probe(self, design, bits=512):
        system = make_system(design, scale=1 / 256,
                             signature=SignatureConfig(bits=bits))
        thread = make_thread(0)
        nlines = 4096
        base = system.heap.alloc(nlines * LINE_SIZE, MemoryKind.DRAM)
        tx1 = system.htm.begin(thread, 0, 1, 1)
        for i in range(nlines):
            system.htm.tx_write(tx1, base + i * LINE_SIZE, 1)
        probe_base = system.heap.alloc(64 * LINE_SIZE, MemoryKind.DRAM)
        t2 = make_thread(1)
        false_hits = 0
        for i in range(16):
            tx2 = system.htm.begin(t2, 1, 1, 1)
            try:
                system.htm.tx_read(tx2, probe_base + i * LINE_SIZE)
                system.htm.commit(tx2)
            except TransactionAborted:
                system.htm.acknowledge_abort(tx2)
                false_hits += 1
        return false_hits

    def test_uhtm_saturated_signature_false_positives(self):
        assert self._overflow_and_probe("uhtm") > 0

    def test_ideal_never_false_positives(self):
        assert self._overflow_and_probe("ideal") == 0


class TestSuspendedThreadProtocol:
    def test_victim_discovers_abort_flag_on_next_access(self):
        """Section IV-E: the abort flag in the TSS kills a suspended tx
        the next time its thread issues a transactional operation."""
        system = make_system("uhtm")
        addr = system.heap.alloc_words(1, MemoryKind.DRAM)
        other = system.heap.alloc_words(1, MemoryKind.DRAM)
        t1, t2 = make_thread(0), make_thread(1)
        victim = system.htm.begin(t1, 0, 1, 1)
        system.htm.tx_write(victim, addr, 1)
        attacker = system.htm.begin(t2, 1, 1, 1)
        system.htm.tx_write(attacker, addr, 2)  # requester-wins: victim dies
        assert system.htm.tss.entry(victim.tx_id).status is TxStatus.ABORTED
        # The victim thread is "suspended"; when it resumes and touches any
        # address — even an unrelated one — it must unwind.
        with pytest.raises(TransactionAborted):
            system.htm.tx_read(victim, other)
