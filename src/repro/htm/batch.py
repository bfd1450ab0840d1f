"""The epoch dispatcher: fused block paths for block memory operations.

The min-clock engine resumes one thread per step, and a step runs atomically
— no other thread can observe or perturb state until the next yield.  Every
workload already issues its memory operations in blocks between yields
(``write_payload``/``read_payload`` walk :data:`~repro.workloads.base
.CHUNK_LINES` lines per chunk, the membound co-runner sweeps
``_SWEEP_CHUNK`` read-modify-write pairs), so a whole block *is* an epoch:
a batch of operations whose interleaving against other threads is fixed by
construction.  What the per-op walk spends on that block is largely
interpreter overhead — context/method frames, per-op result allocation,
per-op counter calls.

:class:`BatchDispatcher` replays each block through fused loops that mirror
:meth:`~repro.htm.base.HTMSystem.tx_read` /
:meth:`~repro.htm.base.HTMSystem.tx_write` /
:meth:`~repro.htm.base.HTMSystem.nontx_access` and
:meth:`~repro.cache.hierarchy.CacheHierarchy.access` operation for
operation — same probe order, same conflict-check staging (the off-chip
check at the LLC miss, before the fill), same float additions to the
thread clock, same counter totals.  Conflict resolution itself is not
restated: the loops call ``HTMSystem._onchip_resolution`` and
``_offchip_resolution``.  The inner eviction handlers
(``handle_l1_eviction``/``handle_llc_eviction``) are inlined
statement-for-statement as well: the three fused loops deliberately repeat
that code, because a shared helper would reintroduce exactly the per-op
call frames the epoch core exists to remove.  Bit-identity against the
per-op walk is enforced by the fused-vs-per-op oracle suite
(``tests/htm/test_fused_oracle.py``), which forces every block down the
per-op walk by overriding :meth:`BatchDispatcher._fence_reason`.

The *dependency fence* drops a block back to per-op dispatch
whenever per-operation ordering could be observed from outside the fused
loop: an event tracer or trace capture attached (per-op events must
interleave exactly as the per-op walk emits them), a fault injector armed
(crash points must see every intermediate hook), or the bandwidth model
enabled (channel queueing is stateful per request).  Conflicts do *not*
fence a block — the fused loops run the per-op conflict checks and
resolution per line, which is what the epoch-fence mutation tests pin
down.
"""

from __future__ import annotations

from typing import List, Optional

from ..cache.coherence import CoherenceRequest, MesiState, next_state_for_holder
from ..errors import AbortReason, TransactionAborted
from ..mem.address import DRAM_BASE
from ..params import LINE_SIZE
from .base import HTMSystem, TxHandle, _LINE_MASK, _WORD_MASK
from .conflict import ResolutionPolicy
from .tss import TxStatus

_GET_S = CoherenceRequest.GET_S
_MODIFIED = MesiState.MODIFIED
_EXCLUSIVE = MesiState.EXCLUSIVE
_SHARED = MesiState.SHARED


class BatchDispatcher:
    """Fused epoch execution over one :class:`~repro.htm.base.HTMSystem`.

    Installed by the runtime as ``htm.batch``; the block-granular context methods
    (:meth:`~repro.runtime.txapi.TxContext.write_block`,
    :meth:`~repro.runtime.txapi.TxContext.read_block`,
    :meth:`~repro.runtime.txapi.DirectContext.rmw_add_block`) route through
    it.  Word-granular operations never enter the dispatcher and always
    take the per-op path.
    """

    def __init__(self, htm: HTMSystem, epoch_stats) -> None:
        self.htm = htm
        self.epoch = epoch_stats
        # Construction-time invariant hoists, mirroring the per-op paths'
        # own per-access hoists in HTMSystem.__init__ / CacheHierarchy.
        hierarchy = htm.hierarchy
        controller = htm.controller
        self.hierarchy = hierarchy
        self.controller = controller
        self._uses_directory = type(htm).USES_DIRECTORY
        self._records_access = htm._records_access
        self._table2 = htm.config.resolution == ResolutionPolicy.TABLE2
        self._l1_hit_ns = hierarchy._l1_hit_ns
        self._llc_hit_ns = hierarchy._llc_hit_ns
        space = controller.address_space
        self._dram_end = space.dram_end
        # One DRAM demand read costs a constant when no channel is modelled
        # (BackingStore.read_ns is latency.dram_ns); the bandwidth fence
        # guarantees the channel term is absent whenever a block is fused.
        self._dram_demand_ns = controller.latency.dram_ns

    # ------------------------------------------------------------- fencing

    def _fence_reason(self) -> Optional[str]:
        """Why batching is forbidden right now, or ``None`` if allowed."""
        htm = self.htm
        if (
            htm.tracer is not None
            or self.hierarchy.tracer is not None
            or self.controller.tracer is not None
        ):
            return "tracer"
        if htm.capture is not None:
            return "capture"
        if self.controller.fault_injector is not None:
            return "fault"
        if self.controller.dram_channel is not None:
            return "bandwidth"
        return None

    # ------------------------------------------------------- tx block paths

    def tx_write_block(
        self, tx: TxHandle, addr: int, nbytes: int, tag: int
    ) -> None:
        """Fused twin of ``write_block`` over ``HTMSystem.tx_write``."""
        width = -(-nbytes // LINE_SIZE)
        reason = self._fence_reason()
        if reason is not None or width < 2:
            self.epoch.note_scalar(width, reason or "narrow")
            htm = self.htm
            offset = 0
            while offset < nbytes:
                htm.tx_write(tx, addr + offset, tag)
                offset += LINE_SIZE
            return
        self.epoch.note_flush(width)

        htm = self.htm
        hierarchy = self.hierarchy
        controller = self.controller
        directory = hierarchy.directory
        l1s = hierarchy.l1s
        l1 = l1s[tx.core_id]
        llc = hierarchy.llc
        l1_holders = hierarchy.l1_holders
        thread = tx.thread
        core_id = tx.core_id
        tx_id = tx.tx_id
        domain_id = tx.domain_id
        uses_directory = self._uses_directory
        records_access = self._records_access
        table2 = self._table2
        offchip_always = htm._offchip_always
        offchip_on_miss = htm._offchip_on_miss_only
        offchip_conflicts = htm._offchip_conflicts
        onchip_resolution = htm._onchip_resolution
        offchip_resolution = htm._offchip_resolution
        l1_hit_ns = self._l1_hit_ns
        llc_hit_ns = self._llc_hit_ns
        nvm_base = htm._nvm_base
        nvm_end = htm._nvm_end
        nvm_write_ns = htm._nvm_write_ns
        dram_end = self._dram_end
        dram_demand_ns = self._dram_demand_ns
        demand_latency = controller.demand_access_latency
        check_access = directory.check_access
        record_access = directory.record_access
        evict_line = directory.evict_line
        on_l1_evict = hierarchy.on_l1_evict
        on_llc_evict = hierarchy.on_llc_evict
        l1_lookup = l1.lookup
        l1_fill = l1.fill
        llc_lookup = llc.lookup
        llc_peek = llc.peek
        llc_fill = llc.fill
        entry = tx.entry
        write_buffer = tx.write_buffer
        written_lines = tx.written_lines
        nvm_logged = tx.nvm_logged_lines
        aborted = TxStatus.ABORTED
        committed = TxStatus.COMMITTED

        log_appends = 0
        offset = 0
        try:
            while offset < nbytes:
                cur_addr = addr + offset
                word_addr = cur_addr & _WORD_MASK
                line_addr = cur_addr & _LINE_MASK
                offset += LINE_SIZE
                # -- tx_write, fused ------------------------------------
                if entry.status is aborted:
                    raise TransactionAborted(
                        entry.abort_reason or AbortReason.EXPLICIT, tx_id
                    )
                if entry.status is committed:
                    htm._check_doomed(tx)  # raises TransactionStateError
                if uses_directory:
                    conflict = check_access(line_addr, tx_id, True)
                    if conflict is not None:
                        onchip_resolution(tx, line_addr, conflict)
                if offchip_always:
                    hits = offchip_conflicts(
                        domain_id,
                        line_addr,
                        True,
                        tx_id,
                        entry.overflowed if table2 else None,
                    )
                    if hits:
                        offchip_resolution(tx, line_addr, hits)
                # -- hierarchy.access(is_write=True), fused -------------
                meta = l1_lookup(line_addr)
                if meta is None:
                    latency = llc_hit_ns
                    if llc_lookup(line_addr) is None:
                        if offchip_on_miss:
                            # The per-op walk's ``on_llc_miss`` check: at
                            # the miss, before anything is filled.
                            hits = offchip_conflicts(
                                domain_id,
                                line_addr,
                                True,
                                tx_id,
                                entry.overflowed if table2 else None,
                            )
                            if hits:
                                offchip_resolution(tx, line_addr, hits)
                        if DRAM_BASE <= line_addr < dram_end:
                            latency += dram_demand_ns
                        else:
                            latency += demand_latency(
                                line_addr, thread.clock_ns + latency
                            )
                        _, llc_victims = llc_fill(line_addr)
                        for victim in llc_victims:
                            # handle_llc_eviction, inlined
                            vline = victim.line_addr
                            vholders = l1_holders.pop(vline, None)
                            if vholders:
                                for vcore in vholders:
                                    vmeta = l1s[vcore].remove(vline)
                                    if vmeta is not None:
                                        victim.dirty = (
                                            victim.dirty or vmeta.dirty
                                        )
                                        if vmeta.tx_writer is not None:
                                            victim.tx_writer = vmeta.tx_writer
                                        if vmeta.tx_readers:
                                            vreaders = victim.tx_readers
                                            if vreaders is None:
                                                victim.tx_readers = set(
                                                    vmeta.tx_readers
                                                )
                                            else:
                                                vreaders.update(
                                                    vmeta.tx_readers
                                                )
                            ventry = evict_line(vline)
                            if victim.dirty and victim.tx_writer is None:
                                hierarchy.writebacks += 1
                            if (
                                victim.tx_writer is not None
                                or victim.tx_readers
                                or ventry is not None
                            ) and on_llc_evict is not None:
                                on_llc_evict(victim, ventry)
                    meta, victims = l1_fill(line_addr)
                    holders = l1_holders.get(line_addr)
                    if holders is None:
                        l1_holders[line_addr] = {core_id}
                    else:
                        holders.add(core_id)
                    for victim in victims:
                        # handle_l1_eviction, inlined
                        vline = victim.line_addr
                        vholders = l1_holders.get(vline)
                        if vholders is not None:
                            vholders.discard(core_id)
                            if not vholders:
                                del l1_holders[vline]
                        llc_meta = llc_peek(vline)
                        if llc_meta is not None:
                            llc_meta.dirty = llc_meta.dirty or victim.dirty
                            if victim.tx_writer is not None:
                                llc_meta.tx_writer = victim.tx_writer
                            if victim.tx_readers:
                                vreaders = llc_meta.tx_readers
                                if vreaders is None:
                                    llc_meta.tx_readers = set(
                                        victim.tx_readers
                                    )
                                else:
                                    vreaders.update(victim.tx_readers)
                        if (
                            victim.tx_writer is not None
                            and on_l1_evict is not None
                        ):
                            on_l1_evict(core_id, victim)
                else:
                    latency = l1_hit_ns
                holders = l1_holders.get(line_addr)
                if holders is not None and (
                    len(holders) != 1 or core_id not in holders
                ):
                    hierarchy.invalidate_other_l1s(core_id, line_addr)
                meta.mesi = _MODIFIED
                meta.dirty = True
                meta.tx_writer = tx_id
                thread.clock_ns += latency
                # -- post-access bookkeeping ----------------------------
                if entry.status is aborted:
                    # The fill may have overflowed us to death.
                    raise TransactionAborted(
                        entry.abort_reason or AbortReason.EXPLICIT, tx_id
                    )
                if uses_directory:
                    record_access(line_addr, tx_id, True)
                written_lines.add(line_addr)
                tx.writes += 1
                if records_access:
                    htm._on_access_recorded(tx, line_addr, is_write=True)
                if nvm_base <= cur_addr < nvm_end and line_addr not in nvm_logged:
                    nvm_logged.add(line_addr)
                    thread.clock_ns += nvm_write_ns
                    log_appends += 1
                words = write_buffer.get(line_addr)
                if words is None:
                    write_buffer[line_addr] = {word_addr: tag}
                else:
                    words[word_addr] = tag
        finally:
            # Counter increments commute, so the epoch's total is flushed
            # in one call — also on the abort unwind, keeping the final
            # counters equal to the per-op walk's increments.
            if log_appends:
                htm.stats.incr("nvm.log_appends", log_appends)

    def tx_read_block(self, tx: TxHandle, addr: int, nbytes: int) -> int:
        """Fused twin of ``read_block`` over ``HTMSystem.tx_read``.

        Loads are pure (backing-store/DRAM-cache dict reads), so only the
        first line's value — the one ``read_block`` returns — is actually
        materialised; the per-op path computes and discards the rest.
        """
        width = -(-nbytes // LINE_SIZE)
        reason = self._fence_reason()
        if reason is not None or width < 2:
            self.epoch.note_scalar(width, reason or "narrow")
            htm = self.htm
            first = 0
            offset = 0
            index = 0
            while offset < nbytes:
                value = htm.tx_read(tx, addr + offset)
                if index == 0:
                    first = value
                offset += LINE_SIZE
                index += 1
            return first
        self.epoch.note_flush(width)

        htm = self.htm
        hierarchy = self.hierarchy
        controller = self.controller
        directory = hierarchy.directory
        l1s = hierarchy.l1s
        l1 = l1s[tx.core_id]
        llc = hierarchy.llc
        l1_holders = hierarchy.l1_holders
        thread = tx.thread
        core_id = tx.core_id
        tx_id = tx.tx_id
        domain_id = tx.domain_id
        uses_directory = self._uses_directory
        records_access = self._records_access
        table2 = self._table2
        offchip_always = htm._offchip_always
        offchip_on_miss = htm._offchip_on_miss_only
        offchip_conflicts = htm._offchip_conflicts
        onchip_resolution = htm._onchip_resolution
        offchip_resolution = htm._offchip_resolution
        l1_hit_ns = self._l1_hit_ns
        llc_hit_ns = self._llc_hit_ns
        dram_end = self._dram_end
        dram_demand_ns = self._dram_demand_ns
        demand_latency = controller.demand_access_latency
        check_access = directory.check_access
        record_access = directory.record_access
        evict_line = directory.evict_line
        on_l1_evict = hierarchy.on_l1_evict
        on_llc_evict = hierarchy.on_llc_evict
        l1_lookup = l1.lookup
        l1_fill = l1.fill
        llc_lookup = llc.lookup
        llc_peek = llc.peek
        llc_fill = llc.fill
        entry = tx.entry
        read_lines = tx.read_lines
        dram_overflowed = tx.dram_overflowed_lines
        nvm_overflowed = tx.nvm_overflowed_lines
        dram_redo = htm._dram_redo
        aborted = TxStatus.ABORTED
        committed = TxStatus.COMMITTED

        first = 0
        redo_indirections = 0
        offset = 0
        index = 0
        try:
            while offset < nbytes:
                cur_addr = addr + offset
                word_addr = cur_addr & _WORD_MASK
                line_addr = cur_addr & _LINE_MASK
                offset += LINE_SIZE
                # -- tx_read, fused -------------------------------------
                if entry.status is aborted:
                    raise TransactionAborted(
                        entry.abort_reason or AbortReason.EXPLICIT, tx_id
                    )
                if entry.status is committed:
                    htm._check_doomed(tx)
                if uses_directory:
                    conflict = check_access(line_addr, tx_id, False)
                    if conflict is not None:
                        onchip_resolution(tx, line_addr, conflict)
                if offchip_always:
                    hits = offchip_conflicts(
                        domain_id,
                        line_addr,
                        False,
                        tx_id,
                        entry.overflowed if table2 else None,
                    )
                    if hits:
                        offchip_resolution(tx, line_addr, hits)
                # -- hierarchy.access(is_write=False), fused ------------
                meta = l1_lookup(line_addr)
                if meta is None:
                    latency = llc_hit_ns
                    if llc_lookup(line_addr) is None:
                        if offchip_on_miss:
                            # The per-op walk's ``on_llc_miss`` check: at
                            # the miss, before anything is filled.
                            hits = offchip_conflicts(
                                domain_id,
                                line_addr,
                                False,
                                tx_id,
                                entry.overflowed if table2 else None,
                            )
                            if hits:
                                offchip_resolution(tx, line_addr, hits)
                        if DRAM_BASE <= line_addr < dram_end:
                            latency += dram_demand_ns
                        else:
                            latency += demand_latency(
                                line_addr, thread.clock_ns + latency
                            )
                        _, llc_victims = llc_fill(line_addr)
                        for victim in llc_victims:
                            # handle_llc_eviction, inlined
                            vline = victim.line_addr
                            vholders = l1_holders.pop(vline, None)
                            if vholders:
                                for vcore in vholders:
                                    vmeta = l1s[vcore].remove(vline)
                                    if vmeta is not None:
                                        victim.dirty = (
                                            victim.dirty or vmeta.dirty
                                        )
                                        if vmeta.tx_writer is not None:
                                            victim.tx_writer = vmeta.tx_writer
                                        if vmeta.tx_readers:
                                            vreaders = victim.tx_readers
                                            if vreaders is None:
                                                victim.tx_readers = set(
                                                    vmeta.tx_readers
                                                )
                                            else:
                                                vreaders.update(
                                                    vmeta.tx_readers
                                                )
                            ventry = evict_line(vline)
                            if victim.dirty and victim.tx_writer is None:
                                hierarchy.writebacks += 1
                            if (
                                victim.tx_writer is not None
                                or victim.tx_readers
                                or ventry is not None
                            ) and on_llc_evict is not None:
                                on_llc_evict(victim, ventry)
                    meta, victims = l1_fill(line_addr)
                    holders = l1_holders.get(line_addr)
                    if holders is None:
                        l1_holders[line_addr] = {core_id}
                    else:
                        holders.add(core_id)
                    for victim in victims:
                        # handle_l1_eviction, inlined
                        vline = victim.line_addr
                        vholders = l1_holders.get(vline)
                        if vholders is not None:
                            vholders.discard(core_id)
                            if not vholders:
                                del l1_holders[vline]
                        llc_meta = llc_peek(vline)
                        if llc_meta is not None:
                            llc_meta.dirty = llc_meta.dirty or victim.dirty
                            if victim.tx_writer is not None:
                                llc_meta.tx_writer = victim.tx_writer
                            if victim.tx_readers:
                                vreaders = llc_meta.tx_readers
                                if vreaders is None:
                                    llc_meta.tx_readers = set(
                                        victim.tx_readers
                                    )
                                else:
                                    vreaders.update(victim.tx_readers)
                        if (
                            victim.tx_writer is not None
                            and on_l1_evict is not None
                        ):
                            on_l1_evict(core_id, victim)
                else:
                    latency = l1_hit_ns
                holders = l1_holders.get(line_addr)
                shared = False
                if holders:
                    for other in holders:
                        if other == core_id:
                            continue
                        shared = True
                        other_meta = l1s[other].peek(line_addr)
                        if other_meta is not None:
                            other_meta.mesi = next_state_for_holder(
                                _GET_S, other_meta.mesi
                            )
                if shared:
                    meta.mesi = _SHARED
                elif meta.mesi is not _MODIFIED:
                    meta.mesi = _EXCLUSIVE
                readers = meta.tx_readers
                if readers is None:
                    meta.tx_readers = {tx_id}
                else:
                    readers.add(tx_id)
                thread.clock_ns += latency
                # -- post-access bookkeeping ----------------------------
                if entry.status is aborted:
                    raise TransactionAborted(
                        entry.abort_reason or AbortReason.EXPLICIT, tx_id
                    )
                if uses_directory:
                    record_access(line_addr, tx_id, False)
                    if (
                        line_addr in dram_overflowed
                        or line_addr in nvm_overflowed
                    ):
                        record_access(line_addr, tx_id, True)
                read_lines.add(line_addr)
                tx.reads += 1
                if records_access:
                    htm._on_access_recorded(tx, line_addr, is_write=False)
                if dram_redo and line_addr in dram_overflowed:
                    thread.clock_ns += (
                        controller.redo_dram_indirection_latency()
                    )
                    redo_indirections += 1
                if index == 0:
                    words = tx.write_buffer.get(line_addr)
                    buffered = None
                    if words is not None:
                        buffered = words.get(word_addr)
                    if buffered is not None:
                        first = buffered
                    else:
                        first = controller.load_word(cur_addr)
                index += 1
        finally:
            if redo_indirections:
                htm.stats.incr(
                    "dram.redo_read_indirections", redo_indirections
                )
        return first

    # --------------------------------------------------- non-tx block path

    def nontx_rmw_block(
        self,
        thread,
        core_id: int,
        domain_id: int,
        addrs: List[int],
        delta: int,
    ) -> None:
        """Fused read-modify-write sweep over ``HTMSystem.nontx_access``.

        Per address: the non-transactional read (directory + off-chip
        staging, GetS, load) followed by the write of ``value + delta``
        (staging, GetM, store) — the membound co-runner's inner loop, which
        is the single largest consumer of per-op dispatch time.
        """
        width = 2 * len(addrs)
        reason = self._fence_reason()
        if reason is not None or width < 4:
            self.epoch.note_scalar(width, reason or "narrow")
            nontx = self.htm.nontx_access
            for addr in addrs:
                value = nontx(thread, core_id, domain_id, addr, False)
                nontx(
                    thread, core_id, domain_id, addr, True, value=value + delta
                )
            return
        self.epoch.note_flush(width)

        htm = self.htm
        hierarchy = self.hierarchy
        controller = self.controller
        directory = hierarchy.directory
        l1s = hierarchy.l1s
        l1 = l1s[core_id]
        llc = hierarchy.llc
        l1_holders = hierarchy.l1_holders
        active = htm._active
        uses_directory = self._uses_directory
        offchip_always = htm._offchip_always
        offchip_on_miss = htm._offchip_on_miss_only
        offchip_conflicts = htm._offchip_conflicts
        offchip_resolution = htm._offchip_resolution
        l1_hit_ns = self._l1_hit_ns
        llc_hit_ns = self._llc_hit_ns
        dram_end = self._dram_end
        dram_demand_ns = self._dram_demand_ns
        demand_latency = controller.demand_access_latency
        check_access = directory.check_access
        evict_line = directory.evict_line
        on_l1_evict = hierarchy.on_l1_evict
        on_llc_evict = hierarchy.on_llc_evict
        load_word = controller.load_word
        store_word = controller.store_word
        rmw_word = controller.rmw_word
        l1_lookup = l1.lookup
        l1_fill = l1.fill
        llc_lookup = llc.lookup
        llc_peek = llc.peek
        llc_fill = llc.fill
        abort_tx_id = htm._abort_tx_id
        non_tx_conflict = AbortReason.NON_TX_CONFLICT

        for addr in addrs:
            line_addr = addr & _LINE_MASK
            # ``value`` stays None when no transaction was active at the
            # write's issue point: then no conflict staging (and so no
            # victim rollback) can run between the per-op sequence's load
            # and store, and the pair fuses into one ``rmw_word`` at the
            # tail.  Otherwise the load happens here — the same point the
            # per-op read returns its value, before the write staging's
            # potential rollbacks — and the store replays it exactly.
            value = None
            for is_write in (False, True):
                # -- nontx_access staging, fused ------------------------
                # The activity test is read once per access, before the
                # directory aborts, exactly as ``nontx_access`` reads it.
                check_on_miss = False
                if active:
                    if is_write:
                        value = load_word(addr)
                    if uses_directory:
                        conflict = check_access(line_addr, None, is_write)
                        if conflict is not None:
                            for victim_id in sorted(conflict.victims):
                                abort_tx_id(
                                    victim_id,
                                    non_tx_conflict,
                                    line_addr=line_addr,
                                )
                    if offchip_always:
                        hits = offchip_conflicts(
                            domain_id, line_addr, is_write, None
                        )
                        if hits:
                            offchip_resolution(None, line_addr, hits)
                    check_on_miss = offchip_on_miss
                # -- hierarchy.access, fused (tx_id None) ---------------
                meta = l1_lookup(line_addr)
                if meta is None:
                    latency = llc_hit_ns
                    if llc_lookup(line_addr) is None:
                        if check_on_miss:
                            hits = offchip_conflicts(
                                domain_id, line_addr, is_write, None
                            )
                            if hits:
                                offchip_resolution(None, line_addr, hits)
                        if DRAM_BASE <= line_addr < dram_end:
                            latency += dram_demand_ns
                        else:
                            latency += demand_latency(
                                line_addr, thread.clock_ns + latency
                            )
                        _, llc_victims = llc_fill(line_addr)
                        for victim in llc_victims:
                            # handle_llc_eviction, inlined
                            vline = victim.line_addr
                            vholders = l1_holders.pop(vline, None)
                            if vholders:
                                for vcore in vholders:
                                    vmeta = l1s[vcore].remove(vline)
                                    if vmeta is not None:
                                        victim.dirty = (
                                            victim.dirty or vmeta.dirty
                                        )
                                        if vmeta.tx_writer is not None:
                                            victim.tx_writer = vmeta.tx_writer
                                        if vmeta.tx_readers:
                                            vreaders = victim.tx_readers
                                            if vreaders is None:
                                                victim.tx_readers = set(
                                                    vmeta.tx_readers
                                                )
                                            else:
                                                vreaders.update(
                                                    vmeta.tx_readers
                                                )
                            ventry = evict_line(vline)
                            if victim.dirty and victim.tx_writer is None:
                                hierarchy.writebacks += 1
                            if (
                                victim.tx_writer is not None
                                or victim.tx_readers
                                or ventry is not None
                            ) and on_llc_evict is not None:
                                on_llc_evict(victim, ventry)
                    meta, victims = l1_fill(line_addr)
                    holders = l1_holders.get(line_addr)
                    if holders is None:
                        l1_holders[line_addr] = {core_id}
                    else:
                        holders.add(core_id)
                    for victim in victims:
                        # handle_l1_eviction, inlined
                        vline = victim.line_addr
                        vholders = l1_holders.get(vline)
                        if vholders is not None:
                            vholders.discard(core_id)
                            if not vholders:
                                del l1_holders[vline]
                        llc_meta = llc_peek(vline)
                        if llc_meta is not None:
                            llc_meta.dirty = llc_meta.dirty or victim.dirty
                            if victim.tx_writer is not None:
                                llc_meta.tx_writer = victim.tx_writer
                            if victim.tx_readers:
                                vreaders = llc_meta.tx_readers
                                if vreaders is None:
                                    llc_meta.tx_readers = set(
                                        victim.tx_readers
                                    )
                                else:
                                    vreaders.update(victim.tx_readers)
                        if (
                            victim.tx_writer is not None
                            and on_l1_evict is not None
                        ):
                            on_l1_evict(core_id, victim)
                else:
                    latency = l1_hit_ns
                if is_write:
                    holders = l1_holders.get(line_addr)
                    if holders is not None and (
                        len(holders) != 1 or core_id not in holders
                    ):
                        hierarchy.invalidate_other_l1s(core_id, line_addr)
                    meta.mesi = _MODIFIED
                    meta.dirty = True
                else:
                    holders = l1_holders.get(line_addr)
                    shared = False
                    if holders:
                        for other in holders:
                            if other == core_id:
                                continue
                            shared = True
                            other_meta = l1s[other].peek(line_addr)
                            if other_meta is not None:
                                other_meta.mesi = next_state_for_holder(
                                    _GET_S, other_meta.mesi
                                )
                    if shared:
                        meta.mesi = _SHARED
                    elif meta.mesi is not _MODIFIED:
                        meta.mesi = _EXCLUSIVE
                thread.clock_ns += latency
            # -- data movement ------------------------------------------
            if value is None:
                rmw_word(addr, delta)
            else:
                store_word(addr, value + delta)
