"""The memory controller: backing stores, hardware logs, and the DRAM cache.

The controller is the only component allowed to touch the reserved log areas
(Section IV-B).  Its methods return the latency in nanoseconds that the
*calling thread* must be charged; operations the paper places off the
critical path (undo-log writes on eviction, background drains, deferred log
deletion) return zero and are accounted in counters instead.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..errors import AddressError
from ..params import LINE_SIZE, LatencyConfig, MemoryConfig
from .address import AddressSpace, DRAM_BASE, MemoryKind, NVM_BASE, line_of

#: Inlined :func:`line_of` for the per-access controller entry points.
_LINE_MASK = ~(LINE_SIZE - 1)
from .backend import PAGE_SHIFT, SLOT_MASK, WORD_SHIFT, BackingStore
from .channel import MemoryChannel
from .dram_cache import DramCache
from .log import HardwareLog, RecordKind


def _unmapped(addr: int) -> AddressError:
    return AddressError(f"address {addr:#x} is not mapped")


class MemoryController:
    """Serialises log appends and mediates all off-chip data movement."""

    def __init__(self, config: MemoryConfig, latency: LatencyConfig) -> None:
        self.address_space = AddressSpace(config)
        self.latency = latency
        self.dram = BackingStore(MemoryKind.DRAM, latency)
        self.nvm = BackingStore(MemoryKind.NVM, latency)
        self.dram_log = HardwareLog(self.address_space.dram_log, "dram")
        self.nvm_log = HardwareLog(self.address_space.nvm_log, "nvm")
        self.dram_cache = DramCache(config, self.nvm)
        # Hot-path hoists: the address-space bounds are immutable after
        # construction (the range compares are inlined below instead of
        # calling is_dram/is_nvm per access), and the DRAM-cache probes are
        # invariant bound methods (wipe() mutates the cache in place, never
        # replaces it).  Every LLC miss goes through them.  Loads read the
        # backing stores' page maps directly, which are likewise only ever
        # mutated in place.
        self._dram_end = self.address_space.dram_end
        self._nvm_end = self.address_space.nvm_end
        self._dc_contains = self.dram_cache.contains
        self._dc_lookup = self.dram_cache.lookup
        self._dram_pages = self.dram.pages
        self._nvm_pages = self.nvm.pages
        if config.model_bandwidth:
            self.dram_channel: Optional[MemoryChannel] = MemoryChannel(
                "dram", latency.dram_line_transfer_ns
            )
            self.nvm_channel: Optional[MemoryChannel] = MemoryChannel(
                "nvm", latency.nvm_line_transfer_ns
            )
        else:
            self.dram_channel = None
            self.nvm_channel = None
        #: NVM writes performed by background drains (bandwidth accounting).
        self.background_nvm_writes = 0
        #: DRAM writes performed by asynchronous undo logging.
        self.background_dram_writes = 0
        #: Fault-injection hook points (see :mod:`repro.faults`).  ``None``
        #: means no campaign is running and every hook is a no-op.
        self.fault_injector = None
        #: Optional event tracer (see :mod:`repro.obs`).  The controller has
        #: no clock of its own, so it emits with ``ts_ns=None`` and the
        #: tracer stamps the caller's last-known simulated time.
        self.tracer = None
        #: Invoked at the architectural NVM commit point — right after the
        #: durable commit mark lands (or would have landed, under an
        #: injected durability bug) — with ``(tx_id, lines)``.  The crash
        #: oracle shadows committed state through this.
        self.on_nvm_commit: Optional[
            Callable[[int, Dict[int, Dict[int, int]]], None]
        ] = None
        #: Invoked with the address of every non-transactional NVM store;
        #: such writes carry no durability guarantee, so the oracle excludes
        #: them from verification.
        self.on_nontx_nvm_store: Optional[Callable[[int], None]] = None

    # -- data-path helpers ---------------------------------------------------

    def read_latency(self, addr: int) -> float:
        """Latency of a demand read that reached this controller.

        A persistent line resident in the DRAM cache is served at DRAM-cache
        speed instead of NVM speed.  Classified once — every LLC miss lands
        here, so the DRAM case pays a single range compare.
        """
        if DRAM_BASE <= addr < self._dram_end:
            return self.dram.read_ns
        if self._dc_contains(addr & _LINE_MASK):
            return self.latency.dram_cache_ns
        return self.nvm.read_ns

    def demand_access_latency(self, addr: int, now_ns: float) -> float:
        """Device latency plus channel queueing (if bandwidth is modelled)."""
        if DRAM_BASE <= addr < self._dram_end:
            base = self.dram.read_ns
            channel = self.dram_channel
        elif self._dc_contains(addr & _LINE_MASK):
            # Served from the DRAM cache, so over the DRAM channel.
            base = self.latency.dram_cache_ns
            channel = self.dram_channel
        else:
            base = self.nvm.read_ns
            channel = self.nvm_channel
        if channel is None:
            return base
        return base + channel.request(now_ns)

    def load_word(self, addr: int) -> int:
        """Architecturally visible value of a word, honouring the DRAM cache.

        An address outside both regions raises :class:`AddressError`.
        """
        if NVM_BASE <= addr < self._nvm_end:
            entry = self._dc_lookup(addr & _LINE_MASK)
            if entry is not None and addr in entry.words:
                return entry.words[addr]
            page = self._nvm_pages.get(addr >> PAGE_SHIFT)
        elif DRAM_BASE <= addr < self._dram_end:
            page = self._dram_pages.get(addr >> PAGE_SHIFT)
        else:
            raise _unmapped(addr)
        # Inlined BackingStore.load: one page lookup instead of a call.
        if page is None:
            return 0
        return page[(addr >> WORD_SHIFT) & SLOT_MASK]

    def store_word(self, addr: int, value: int) -> None:
        """Non-transactional in-place store.

        An NVM store must update a resident DRAM-cache line rather than the
        backing NVM, or the stale cached copy would shadow the new value
        until it drained.  An address outside both regions raises
        :class:`AddressError`.
        """
        if NVM_BASE <= addr < self._nvm_end:
            if self.on_nontx_nvm_store is not None:
                self.on_nontx_nvm_store(addr)
            entry = self._dc_lookup(addr & _LINE_MASK)
            if entry is not None:
                entry.words[addr] = value
                return
            self.nvm.store(addr, value)
            return
        if DRAM_BASE <= addr < self._dram_end:
            self.dram.store(addr, value)
            return
        raise _unmapped(addr)

    def rmw_word(self, addr: int, delta: int) -> None:
        """Fused ``store_word(addr, load_word(addr) + delta)``.

        One address classification instead of two.  Only legal when nothing
        can touch the word between the load and the store —
        ``HTMSystem.nontx_rmw`` calls it when no transaction is active
        anywhere (so no conflict staging, and therefore no rollback, can
        interleave).  The NVM branch keeps the exact composed sequence
        because of the DRAM-cache lookup and store-hook ordering.
        """
        if DRAM_BASE <= addr < self._dram_end:
            self.dram.rmw(addr, delta)
            return
        self.store_word(addr, self.load_word(addr) + delta)

    # -- undo logging (LLC-overflowed DRAM lines) ----------------------------

    def log_undo_and_update(
        self, tx_id: int, line_addr: int, new_words: Dict[int, int]
    ) -> float:
        """Undo-log a DRAM line's old image, then update it in place.

        Happens on LLC eviction, which "is not in the critical path, [so]
        the undo logging can happen asynchronously without stalling the
        transaction" — hence the returned thread charge is zero.
        """
        old_words = {
            word_addr: self.dram.load(word_addr) for word_addr in new_words
        }
        self.dram_log.append_data(RecordKind.UNDO, tx_id, line_addr, old_words)
        for word_addr, value in new_words.items():
            self.dram.store(word_addr, value)
        self.background_dram_writes += 1 + len(new_words)
        return 0.0

    def rollback_undo(self, tx_id: int) -> float:
        """Restore in-place DRAM data from the transaction's undo records.

        Runs on abort, *on* the critical path: "the abort process is
        expensive in exchange for fast commits".  Charges one DRAM write per
        logged line plus one DRAM read to fetch each record.
        """
        records = self.dram_log.records_of(tx_id)
        for record in reversed(records):
            for word_addr, old_value in record.words:
                self.dram.store(word_addr, old_value)
        elapsed = len(records) * (self.latency.dram_ns * 2)
        self.dram_log.append_mark(RecordKind.ABORT, tx_id)
        self.dram_log.reclaim(tx_id)
        if self.tracer is not None:
            self.tracer.emit(
                "mem.rollback.dram",
                tx_id=tx_id,
                records=len(records),
                latency_ns=elapsed,
            )
        return elapsed

    def commit_undo(self, tx_id: int) -> float:
        """Commit DRAM overflow data: a single commit-mark write.

        "undo logging can finalize the commit protocol immediately by
        placing the commit mark on the log because all changes are already
        applied."
        """
        self.dram_log.append_mark(RecordKind.COMMIT, tx_id)
        self.dram_log.reclaim(tx_id)  # background reclamation
        if self.tracer is not None:
            self.tracer.emit("mem.commit.dram", tx_id=tx_id, policy="undo")
        return self.latency.dram_ns

    # -- redo logging for DRAM (Figure 10 ablation) --------------------------

    def log_redo_dram(
        self, tx_id: int, line_addr: int, new_words: Dict[int, int]
    ) -> float:
        """Redo-log a DRAM line's new image, leaving in-place data unmodified."""
        self.dram_log.append_data(RecordKind.REDO, tx_id, line_addr, new_words)
        self.background_dram_writes += 1
        return 0.0

    def redo_dram_lookup(self, tx_id: int, addr: int) -> Optional[int]:
        """Search the DRAM redo log for a transactional read (indirection)."""
        for record in self.dram_log.records_of(tx_id):
            if record.line_addr == line_of(addr):
                for word_addr, value in record.words:
                    if word_addr == addr:
                        return value
        return None

    def redo_dram_indirection_latency(self) -> float:
        """Extra DRAM accesses to index the log area on an overflowed read.

        "Indexing the log area often necessitates multiple DRAM accesses" —
        modelled as two extra DRAM reads (index + record).
        """
        return 2 * self.latency.dram_ns

    def commit_redo_dram(self, tx_id: int) -> float:
        """Commit under the redo-DRAM ablation: copy new values in place.

        "the redo log needs to copy new values to in-place locations,
        making the transaction commit slow."  Charges a read+write per line.
        """
        records = self.dram_log.records_of(tx_id)
        for record in records:
            for word_addr, value in record.words:
                self.dram.store(word_addr, value)
        elapsed = len(records) * (self.latency.dram_ns * 2) + self.latency.dram_ns
        self.dram_log.append_mark(RecordKind.COMMIT, tx_id)
        self.dram_log.reclaim(tx_id)
        if self.tracer is not None:
            self.tracer.emit(
                "mem.commit.dram",
                tx_id=tx_id,
                policy="redo",
                records=len(records),
                latency_ns=elapsed,
            )
        return elapsed

    def discard_redo_dram(self, tx_id: int) -> float:
        """Abort under the redo-DRAM ablation: drop the log (fast)."""
        self.dram_log.append_mark(RecordKind.ABORT, tx_id)
        self.dram_log.reclaim(tx_id)
        return self.latency.dram_ns

    # -- redo logging for NVM -------------------------------------------------

    def log_redo_nvm(
        self, tx_id: int, line_addr: int, new_words: Dict[int, int]
    ) -> float:
        """Append a durable redo record for a persistent line.

        Log writes stream out during execution; the write-pending-queue/ADR
        guarantee means the record is durable once accepted, so the charge
        is a single NVM write.
        """
        self.nvm_log.append_data(RecordKind.REDO, tx_id, line_addr, new_words)
        return self.latency.nvm_write_ns

    def commit_nvm_transaction(
        self, tx_id: int, lines: Dict[int, Dict[int, int]]
    ) -> float:
        """Commit-path entry point: stream the write-set's remaining redo
        records into the NVM log, then run the commit protocol.

        The controller owns the log areas (Section IV-B), so the HTM hands
        over the buffered lines rather than appending records itself.
        """
        for line_addr, words in lines.items():
            self.nvm_log.append_data(RecordKind.REDO, tx_id, line_addr, words)
        return self.commit_nvm(tx_id, lines)

    def publish_dram_words(self, words: Dict[int, int]) -> None:
        """Commit-path publish: buffered volatile words become globally
        visible (in hardware a coherence-state flip; here an in-place store)."""
        for word_addr, value in words.items():
            self.dram.store(word_addr, value)

    def commit_nvm(
        self, tx_id: int, lines: Dict[int, Dict[int, int]]
    ) -> float:
        """Commit persistent data: durable commit mark + DRAM-cache flushes.

        ``lines`` maps line address → word updates of the write-set.  New
        values go to the DRAM cache (fast), not to NVM in place; in-place
        updates happen later via background drains.
        """
        elapsed = self.latency.nvm_write_ns  # durable commit mark
        injector = self.fault_injector
        write_mark = True
        if injector is not None:
            # May crash (the window between the redo records and the mark),
            # or veto the mark entirely (the seeded durability bug).
            write_mark = injector.before_commit_mark(tx_id)
        if write_mark:
            self.nvm_log.append_mark(RecordKind.COMMIT, tx_id)
        if self.on_nvm_commit is not None:
            # Architectural commit point: the transaction is now (supposed
            # to be) durable, whatever happens to the volatile machine.
            self.on_nvm_commit(tx_id, lines)
        if injector is not None:
            injector.after_commit_mark(tx_id)
        drained: List[int] = []
        for line_addr, words in lines.items():
            drained += self.dram_cache.fill(line_addr, words, tx_id, committed=True)
            elapsed += self.latency.dram_cache_ns
        if drained:
            # Background drains tell the NVM log which lines now hold every
            # committed value in place, so that their redo records can go
            # (see HardwareLog.reclaim_durable).  A line of this commit that
            # is resident again drained before the commit filled it: leave
            # that drain out.
            self.background_nvm_writes += len(drained)
            contains = self._dc_contains
            self.nvm_log.note_drained(
                [line for line in drained if line not in lines or not contains(line)]
            )
        # Deferred log deletion (Section IV-C), in the background: no
        # thread is charged for it.
        self.nvm_log.reclaim_when_grown()
        if self.tracer is not None:
            self.tracer.emit(
                "mem.commit.nvm",
                tx_id=tx_id,
                lines=len(lines),
                marked=write_mark,
                latency_ns=elapsed,
            )
        return elapsed

    def buffer_early_evicted_nvm(
        self, tx_id: int, line_addr: int, words: Dict[int, int]
    ) -> float:
        """Place an LLC-evicted, uncommitted persistent line in the DRAM cache."""
        drained = self.dram_cache.fill(line_addr, words, tx_id, committed=False)
        if drained:
            self.background_nvm_writes += len(drained)
            self.nvm_log.note_drained(drained)
        return 0.0  # eviction path, off the critical path

    def abort_nvm(self, tx_id: int, overflow_lines: List[int]) -> float:
        """Abort persistent data: invalidate DRAM-cache entries, defer log
        deletion behind an abort flag (Section IV-C)."""
        for line_addr in overflow_lines:
            self.dram_cache.invalidate(line_addr, tx_id)
        self.nvm_log.append_mark(RecordKind.ABORT, tx_id)
        # Setting invalidate bits is cheap; log deletion is deferred to the
        # background reclaimer, so the thread pays only the abort mark.
        self.nvm_log.reclaim(tx_id)
        if self.tracer is not None:
            self.tracer.emit(
                "mem.abort.nvm", tx_id=tx_id, lines=len(overflow_lines)
            )
        return self.latency.nvm_write_ns

    # -- crash & recovery ------------------------------------------------------

    def volatile_loss_counts(self) -> Tuple[int, int, int]:
        """What a power failure would destroy right now: globally visible
        DRAM words, DRAM log records, and DRAM-cache lines."""
        return (
            self.dram.word_count(),
            len(self.dram_log),
            len(self.dram_cache),
        )

    def marked_nvm_tx_ids(self) -> Set[int]:
        """Transactions with a durable commit or abort mark in the NVM log."""
        return set(self.nvm_log.committed_tx_ids()) | set(
            self.nvm_log.aborted_tx_ids()
        )

    def nvm_word_count(self) -> int:
        """Words currently stored in the NVM backing store."""
        return self.nvm.word_count()

    def nvm_snapshot(self) -> Dict[int, int]:
        """A copy of the NVM backing store's contents (recovery audits)."""
        return self.nvm.clone_contents()

    def nvm_redo_record_count(self) -> int:
        """Redo data records still sitting in the NVM log."""
        return sum(1 for record in self.nvm_log if record.kind is RecordKind.REDO)

    def crash(self) -> None:
        """Power failure: volatile state is lost; NVM and its log survive."""
        self.dram.wipe()
        self.dram_log.wipe()
        self.dram_cache.wipe()

    def recover(self) -> int:
        """Replay committed NVM redo records; returns lines recovered.

        "UHTM replays the committed redo entries in the NVM log area and
        disregards the uncommitted one."
        """
        committed = set(self.nvm_log.committed_tx_ids())
        aborted = set(self.nvm_log.aborted_tx_ids())
        replayed = 0
        for record in self.nvm_log:
            if record.kind is not RecordKind.REDO:
                continue
            if record.tx_id in committed and record.tx_id not in aborted:
                for word_addr, value in record.words:
                    self.nvm.store(word_addr, value)
                replayed += 1
                if self.fault_injector is not None:
                    # A power failure can strike recovery itself; replay is
                    # idempotent, so a later attempt simply starts over.
                    self.fault_injector.on_recovery_replay(replayed)
        self.nvm_log.reclaim_all(committed | aborted, marks=True)
        return replayed

    def discard_uncommitted_nvm_records(self) -> int:
        """Drop NVM redo records whose transaction never committed.

        Post-crash, an in-flight transaction can never complete — its owner
        thread died with the machine — so recovery disregards its records.
        Returns how many data records were discarded.  Kept separate from
        :meth:`recover` because only a post-crash recovery may assume that
        every unmarked transaction is dead.
        """
        committed = set(self.nvm_log.committed_tx_ids())
        dead = [t for t in self.nvm_log.data_tx_ids() if t not in committed]
        discarded = sum(len(self.nvm_log.records_of(t)) for t in dead)
        self.nvm_log.reclaim_all(dead)
        return discarded
