"""The HTM transaction lifecycle over caches, directory, logs, and signatures.

:class:`HTMSystem` implements everything the four evaluated designs share —
begin, transactional read/write with staged conflict checks, synchronous
abort with full rollback, and the parallel DRAM/NVM commit protocol — and
defers five policy points to subclasses (see :mod:`repro.htm.designs`):

* whether the coherence directory is used for on-chip detection,
* when off-chip conflict checks fire (never / on LLC miss / on every access),
* what happens when a transactional line is evicted from the LLC,
* how off-chip conflicts are detected (signatures, exact sets, nothing),
* what bookkeeping each recorded access needs (signature-only designs
  populate their filters at access time).

Aborts are performed *synchronously* by the winning side, mirroring the
paper's broadcast-and-invalidate: the victim's speculative state is rolled
back immediately (so memory never exposes doomed data), its rollback latency
is charged to the victim's own clock, and the victim's thread observes the
TSS abort flag at its next transactional operation and unwinds to its retry
loop — exactly the suspended-thread protocol of Section IV-E.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..cache.hierarchy import CacheHierarchy
from ..cache.setassoc import CacheLineMeta
from ..cache.directory import DirectoryConflict, DirectoryEntry
from ..errors import (
    AbortReason,
    TransactionAborted,
    TransactionStateError,
)
from ..mem.address import NVM_BASE
from ..mem.backend import WORD_MAX, WORD_MIN, word_error
from ..mem.controller import MemoryController
from ..params import DramLogPolicy, HTMConfig, LINE_SIZE, MachineConfig, WORD_SIZE
from ..sim.engine import SimThread
from ..sim.stats import StatsRegistry
from ..signatures.isolation import ConflictDomainRegistry
from .conflict import (
    ConflictLocation,
    Resolution,
    ResolutionPolicy,
    resolve_conflict,
    resolve_conflict_oldest_wins,
)
from .tss import TransactionStatusStructure, TssEntry, TxStatus
from .txid import TxIdAllocator

#: Inlined forms of :func:`line_of` / :func:`word_of` for the access paths,
#: which run once per simulated memory operation.
_LINE_MASK = ~(LINE_SIZE - 1)
_WORD_MASK = ~(WORD_SIZE - 1)
_ACTIVE = TxStatus.ACTIVE


@dataclass
class TxHandle:
    """All state of one running hardware transaction."""

    tx_id: int
    thread: SimThread
    core_id: int
    process_id: int
    domain_id: int
    started_at_ns: float
    #: Speculative data: line address -> {word address -> value}.
    write_buffer: Dict[int, Dict[int, int]] = field(default_factory=dict)
    written_lines: Set[int] = field(default_factory=set)
    #: L1-evicted written lines, in eviction order (DHTM's overflow list).
    overflow_list: List[int] = field(default_factory=list)
    #: DRAM lines moved off-chip: updated in place under undo logging, or
    #: redo-logged under the Figure 10 ablation.
    dram_overflowed_lines: Set[int] = field(default_factory=set)
    #: NVM lines buffered (uncommitted) in the DRAM cache.
    nvm_overflowed_lines: Set[int] = field(default_factory=set)
    #: NVM lines whose redo-log append has already been charged.
    nvm_logged_lines: Set[int] = field(default_factory=set)
    signature: Optional[object] = None  # SignaturePair for designs that use it
    #: This transaction's TSS entry, so the access paths test the abort flag
    #: without a TSS lookup.
    entry: Optional[TssEntry] = None
    reads: int = 0
    writes: int = 0

    @property
    def cached_written_lines(self) -> Set[int]:
        return (
            self.written_lines
            - self.dram_overflowed_lines
            - self.nvm_overflowed_lines
        )


class HTMSystem:
    """Base class for all evaluated HTM designs."""

    #: Subclasses: does this design check the coherence directory's Tx
    #: fields on-chip?  Every design records and clears them.
    USES_DIRECTORY = True

    def __init__(
        self,
        machine: MachineConfig,
        config: HTMConfig,
        controller: MemoryController,
        hierarchy: CacheHierarchy,
        stats: StatsRegistry,
    ) -> None:
        self.machine = machine
        self.config = config
        self.controller = controller
        self.hierarchy = hierarchy
        self.stats = stats
        self.tss = TransactionStatusStructure()
        self.tx_ids = TxIdAllocator()
        self.domains = ConflictDomainRegistry(self._isolation_enabled())
        self._active: Dict[int, TxHandle] = {}
        #: Optional event tracer (set by ``repro.obs.attach_tracer``); hook
        #: sites guard with ``is not None`` and never import the obs package.
        self.tracer = None
        hierarchy.on_l1_evict = self._handle_l1_evict
        hierarchy.on_llc_evict = self._handle_llc_evict
        # The off-chip trigger is a pure policy function of the miss bit, so
        # sample it once.  Designs that check on every access (signature-only)
        # do so before the cache walk; designs that check only on LLC misses
        # (UHTM, Ideal) get the check called from inside the walk, at the
        # miss and before the fill.
        trigger_on_hit = self._offchip_trigger(False)
        trigger_on_miss = self._offchip_trigger(True)
        self._offchip_always = trigger_on_hit and trigger_on_miss
        self._offchip_on_miss_only = trigger_on_miss and not trigger_on_hit
        if self._offchip_on_miss_only:
            hierarchy.on_llc_miss = self._offchip_check
        #: Does this design override the per-access bookkeeping hook?
        self._records_access = (
            type(self)._on_access_recorded is not HTMSystem._on_access_recorded
        )
        # Per-access invariants, hoisted: the address-space split and the
        # configured log policy never change after construction.
        self._nvm_base = NVM_BASE
        self._nvm_end = controller.address_space.nvm_end
        self._nvm_write_ns = machine.latency.nvm_write_ns
        self._dram_redo = config.dram_log_policy == DramLogPolicy.REDO
        self._table2 = config.resolution == ResolutionPolicy.TABLE2

    # ---------------------------------------------------------------- hooks

    def _isolation_enabled(self) -> bool:
        return self.config.isolation

    def _offchip_trigger(self, llc_miss: bool) -> bool:
        """When must an access be checked against off-chip tracking?

        Evaluated *before* the cache fill, so a losing requester's line is
        never installed (the hardware nacks the request): if it were, later
        requests would hit on-chip, skip the signature check, and read
        uncommitted in-place data.  On-miss checks run from inside
        :meth:`CacheHierarchy.access` through :meth:`_offchip_check`.
        """
        raise NotImplementedError

    def _on_access_recorded(self, tx: TxHandle, line_addr: int, is_write: bool) -> None:
        """Per-design bookkeeping after an access is permitted."""

    def _on_llc_overflow(
        self, tx: TxHandle, line_addr: int, wrote: bool, read: bool
    ) -> None:
        """A transactional line left the LLC; migrate its tracking."""
        raise NotImplementedError

    def _offchip_conflicts(
        self,
        domain_id: int,
        line_addr: int,
        is_write: bool,
        exclude_tx: Optional[int],
        requester_overflowed: Optional[bool] = None,
    ) -> List[Tuple[int, bool]]:
        """(victim tx, is-true-conflict) pairs for an off-chip check.

        ``requester_overflowed`` (None for non-transactional requesters)
        lets implementations stop probing once the requester's fate is
        sealed under Table II.
        """
        raise NotImplementedError

    # ------------------------------------------------------------- lifecycle

    def begin(
        self, thread: SimThread, core_id: int, process_id: int, domain_id: int
    ) -> TxHandle:
        tx_id = self.tx_ids.allocate()
        tx = TxHandle(
            tx_id=tx_id,
            thread=thread,
            core_id=core_id,
            process_id=process_id,
            domain_id=domain_id,
            started_at_ns=thread.clock_ns,
        )
        tx.entry = self.tss.register(
            tx_id, self.domains.effective_domain(domain_id)
        )
        self._active[tx_id] = tx
        self._register_tracking(tx)
        self.stats.incr("tx.begins")
        if self.tracer is not None:
            self.tracer.emit(
                "tx.begin",
                ts_ns=thread.clock_ns,
                tx_id=tx_id,
                thread_id=thread.thread_id,
                core=core_id,
                process=process_id,
                domain=domain_id,
            )
        return tx

    def _register_tracking(self, tx: TxHandle) -> None:
        """Create and register per-design off-chip tracking (signatures)."""

    # --------------------------------------------------------------- access

    def tx_read(self, tx: TxHandle, addr: int, nbytes: int = WORD_SIZE) -> int:
        """Read ``[addr, addr + nbytes)`` transactionally, one access per line.

        Returns the word at ``addr``: only the first line's value is loaded,
        the rest of a block is scanned for its footprint and timing.  With
        ``nbytes <= 0`` nothing is touched and the result is 0.
        """
        entry = tx.entry
        hierarchy = self.hierarchy
        access = hierarchy.access
        directory = hierarchy.directory
        check_access = directory.check_access if self.USES_DIRECTORY else None
        offchip_always = self._offchip_always
        tracer = self.tracer
        records_access = self._records_access
        thread = tx.thread
        tx_id = tx.tx_id
        core_id = tx.core_id
        domain_id = tx.domain_id
        value = 0
        offset = 0
        while offset < nbytes:
            cur_addr = addr + offset
            line_addr = cur_addr & _LINE_MASK
            if entry.status is not _ACTIVE:
                self._check_doomed(tx)
            if check_access is not None:
                conflict = check_access(line_addr, tx_id, False)
                if conflict is not None:
                    self._onchip_resolution(tx, line_addr, conflict)
            if offchip_always:
                self._offchip_check(line_addr, False, tx_id, domain_id)
            latency = access(
                core_id, line_addr, False, tx_id, thread.clock_ns, domain_id
            ).latency_ns
            thread.clock_ns += latency
            if entry.status is not _ACTIVE:
                # The access may have overflowed us to death.
                self._check_doomed(tx)
            directory.record_access(line_addr, tx_id, False)
            if (
                line_addr in tx.dram_overflowed_lines
                or line_addr in tx.nvm_overflowed_lines
            ):
                # Re-fetching one's own spilled line brings *speculative*
                # data back on-chip; ownership must be re-established or
                # a later reader would see it as innocent shared data.
                directory.record_access(line_addr, tx_id, True)
            tx.reads += 1
            if tracer is not None:
                tracer.emit(
                    "tx.read",
                    ts_ns=thread.clock_ns,
                    tx_id=tx_id,
                    thread_id=thread.thread_id,
                    addr=cur_addr,
                )
            if records_access:
                self._on_access_recorded(tx, line_addr, is_write=False)
            if self._dram_redo and line_addr in tx.dram_overflowed_lines:
                # Read indirection: the new value lives in the redo log.
                thread.advance(self.controller.redo_dram_indirection_latency())
                self.stats.incr("dram.redo_read_indirections")
            if offset == 0:
                words = tx.write_buffer.get(line_addr)
                value = None if words is None else words.get(cur_addr & _WORD_MASK)
                if value is None:
                    value = self.controller.load_word(cur_addr)
            offset += LINE_SIZE
        return value

    def tx_write(
        self, tx: TxHandle, addr: int, value: int, nbytes: int = WORD_SIZE
    ) -> None:
        """Write ``value`` transactionally, once per line of the span.

        One access per line of ``[addr, addr + nbytes)``, buffering
        ``value`` at that line's word; with ``nbytes <= 0`` nothing is
        touched.  A value no memory word can hold raises
        :class:`~repro.errors.AddressError` here, before any state changes,
        as a non-transactional store of it would.
        """
        if not (isinstance(value, int) and WORD_MIN <= value <= WORD_MAX):
            raise word_error(value)
        entry = tx.entry
        hierarchy = self.hierarchy
        access = hierarchy.access
        directory = hierarchy.directory
        check_access = directory.check_access if self.USES_DIRECTORY else None
        offchip_always = self._offchip_always
        tracer = self.tracer
        records_access = self._records_access
        nvm_base = self._nvm_base
        nvm_end = self._nvm_end
        thread = tx.thread
        tx_id = tx.tx_id
        core_id = tx.core_id
        domain_id = tx.domain_id
        written_lines = tx.written_lines
        nvm_logged = tx.nvm_logged_lines
        write_buffer = tx.write_buffer
        log_appends = 0
        offset = 0
        try:
            while offset < nbytes:
                cur_addr = addr + offset
                line_addr = cur_addr & _LINE_MASK
                if entry.status is not _ACTIVE:
                    self._check_doomed(tx)
                if check_access is not None:
                    conflict = check_access(line_addr, tx_id, True)
                    if conflict is not None:
                        self._onchip_resolution(tx, line_addr, conflict)
                if offchip_always:
                    self._offchip_check(line_addr, True, tx_id, domain_id)
                latency = access(
                    core_id, line_addr, True, tx_id, thread.clock_ns, domain_id
                ).latency_ns
                thread.clock_ns += latency
                if entry.status is not _ACTIVE:
                    self._check_doomed(tx)
                directory.record_access(line_addr, tx_id, True)
                written_lines.add(line_addr)
                tx.writes += 1
                if tracer is not None:
                    tracer.emit(
                        "tx.write",
                        ts_ns=thread.clock_ns,
                        tx_id=tx_id,
                        thread_id=thread.thread_id,
                        addr=cur_addr,
                    )
                if records_access:
                    self._on_access_recorded(tx, line_addr, is_write=True)
                if nvm_base <= cur_addr < nvm_end and line_addr not in nvm_logged:
                    # Hardware redo logging streams the record out at store
                    # time; ADR makes it durable once the controller accepts
                    # it.
                    nvm_logged.add(line_addr)
                    thread.clock_ns += self._nvm_write_ns
                    log_appends += 1
                words = write_buffer.get(line_addr)
                if words is None:
                    write_buffer[line_addr] = {cur_addr & _WORD_MASK: value}
                else:
                    words[cur_addr & _WORD_MASK] = value
                offset += LINE_SIZE
        finally:
            # Counter increments commute: one call per write, also on the
            # abort unwind, gives the same totals as one per line.
            if log_appends:
                self.stats.incr("nvm.log_appends", log_appends)

    # ------------------------------------------------------- context switches

    def context_switch(self, tx: TxHandle, new_core_id: int) -> None:
        """Migrate a running transaction to another core (Section IV-E).

        The directory and signatures already name transactions by ID rather
        than core, so only the private cache needs handling: modified lines
        are flushed to the LLC (findable later via the overflow list) and
        the transaction simply resumes from the new core with a cold L1.
        The flush cost is charged to the migrating thread; hardware support
        can reduce it, which the paper cites [49].
        """
        self._check_doomed(tx)
        flushed = self.hierarchy.flush_private_cache(tx.core_id)
        tx.thread.advance(flushed * self.machine.latency.llc_ns)
        tx.core_id = new_core_id
        self.stats.incr("tx.context_switches")

    # -------------------------------------------------- non-transactional path

    def nontx_access(
        self,
        thread: SimThread,
        core_id: int,
        domain_id: int,
        addr: int,
        is_write: bool,
        value: Optional[int] = None,
    ) -> int:
        """An access outside any transaction (co-runners, slow paths).

        Non-transactional requests cannot be nacked, so any transaction they
        collide with aborts (Section IV-D's "Optimization" discussion).
        """
        line_addr = addr & _LINE_MASK
        # Fast path: with no transaction active anywhere there is nothing to
        # conflict with — the directory holds no Tx fields and the domain
        # registry holds no signatures, so both checks are vacuous.
        check_domain = (
            self._nontx_staging(line_addr, is_write, domain_id)
            if self._active
            else None
        )
        latency = self.hierarchy.access(
            core_id, line_addr, is_write, None, thread.clock_ns, check_domain
        ).latency_ns
        thread.clock_ns += latency
        if is_write:
            # ``value is None`` means "dirty the line but let the caller
            # manage the data" (slow paths buffer NVM values for atomicity).
            if value is not None:
                self.controller.store_word(addr, value)
            return 0
        return self.controller.load_word(addr)

    def nontx_rmw(
        self,
        thread: SimThread,
        core_id: int,
        domain_id: int,
        addrs: Iterable[int],
        delta: int,
    ) -> None:
        """``mem[a] += delta`` for each address, outside any transaction.

        Per address, the non-transactional read (staging, GetS) and then the
        write (staging, GetM) of :meth:`nontx_access`.  With a transaction
        active at the write, its staging may roll a victim back, so the
        value is loaded before it — where the read returns it — and stored
        after the walk; otherwise nothing can touch the word between the
        read and the store, and one ``rmw_word`` does the update.
        """
        access = self.hierarchy.access
        controller = self.controller
        active = self._active
        for addr in addrs:
            line_addr = addr & _LINE_MASK
            check_domain = (
                self._nontx_staging(line_addr, False, domain_id)
                if active
                else None
            )
            latency = access(
                core_id, line_addr, False, None, thread.clock_ns, check_domain
            ).latency_ns
            thread.clock_ns += latency
            if active:
                value = controller.load_word(addr)
                check_domain = self._nontx_staging(line_addr, True, domain_id)
                latency = access(
                    core_id, line_addr, True, None, thread.clock_ns, check_domain
                ).latency_ns
                thread.clock_ns += latency
                controller.store_word(addr, value + delta)
            else:
                latency = access(
                    core_id, line_addr, True, None, thread.clock_ns, None
                ).latency_ns
                thread.clock_ns += latency
                controller.rmw_word(addr, delta)

    def _nontx_staging(
        self, line_addr: int, is_write: bool, domain_id: int
    ) -> int:
        """Conflict staging of a non-transactional access issued while some
        transaction is active; returns the domain its LLC miss checks.

        The caller reads the activity test once, before the directory
        aborts below may empty ``_active``: the off-chip check must still
        run as it was issued.
        """
        if self.USES_DIRECTORY:
            conflict = self.hierarchy.directory.check_access(
                line_addr, None, is_write
            )
            if conflict is not None:
                for victim_id in sorted(conflict.victims):
                    self._abort_tx_id(
                        victim_id,
                        AbortReason.NON_TX_CONFLICT,
                        line_addr=line_addr,
                    )
        if self._offchip_always:
            # Check before the fill: the victims' rollback must restore the
            # in-place data this request is about to read.
            self._offchip_check(line_addr, is_write, None, domain_id)
        return domain_id

    # ------------------------------------------------------------ conflicts

    def _onchip_resolution(
        self, tx: TxHandle, line_addr: int, conflict: DirectoryConflict
    ) -> None:
        """Resolve a directory conflict the requester ``tx`` ran into.

        The access paths probe the directory themselves
        (``directory.check_access``, once per access) and pay for
        resolution only when a conflict comes back.
        """
        victims = [v for v in sorted(conflict.victims) if self.tss.is_active(v)]
        if not victims:
            return
        self.stats.incr("conflicts.onchip")
        resolution = self._resolve(
            ConflictLocation.ON_CHIP, tx.tx_id, victims, now_ns=tx.thread.clock_ns
        )
        if resolution.requester_aborts:
            self._abort(
                tx,
                AbortReason.CONFLICT_COHERENCE,
                line_addr=line_addr,
                other_tx=victims[0],
            )
            raise TransactionAborted(AbortReason.CONFLICT_COHERENCE, tx.tx_id)
        for victim_id in sorted(resolution.victims_to_abort):
            self._abort_tx_id(
                victim_id,
                AbortReason.CONFLICT_COHERENCE,
                line_addr=line_addr,
                other_tx=tx.tx_id,
            )

    def _offchip_check(
        self,
        line_addr: int,
        is_write: bool,
        tx_id: Optional[int],
        domain_id: int,
    ) -> None:
        """The off-chip conflict check of one access, run before its fill.

        Installed as the hierarchy's ``on_llc_miss`` hook by designs that
        check only on LLC misses; designs that check every access call it
        before the cache walk.  ``tx_id`` is ``None`` for a
        non-transactional requester.
        """
        requester = self._active[tx_id] if tx_id is not None else None
        # The probe short-circuit encodes Table II; under other policies the
        # full hit list must be gathered.
        requester_overflowed = (
            requester.entry.overflowed
            if requester is not None and self._table2
            else None
        )
        hits = self._offchip_conflicts(
            domain_id, line_addr, is_write, tx_id, requester_overflowed
        )
        if hits:
            self._offchip_resolution(requester, line_addr, hits)

    def _offchip_resolution(
        self,
        requester: Optional[TxHandle],
        line_addr: int,
        hits: List[Tuple[int, bool]],
    ) -> None:
        """Resolve off-chip hits: ``(victim tx, is-true-conflict)`` pairs.

        A non-transactional requester (``None``) always wins.
        """
        self.stats.incr("conflicts.offchip")
        victims = [tx_id for tx_id, _ in hits]
        truly = {tx_id: is_true for tx_id, is_true in hits}
        if requester is None:
            for victim_id in victims:
                reason = (
                    AbortReason.NON_TX_CONFLICT
                    if truly[victim_id]
                    else AbortReason.FALSE_POSITIVE
                )
                self._abort_tx_id(victim_id, reason, line_addr=line_addr)
            return
        resolution = self._resolve(
            ConflictLocation.OFF_CHIP,
            requester.tx_id,
            victims,
            now_ns=requester.thread.clock_ns,
        )
        if resolution.requester_aborts:
            reason = (
                AbortReason.CONFLICT_TRUE
                if any(truly.values())
                else AbortReason.FALSE_POSITIVE
            )
            true_victims = [v for v in victims if truly[v]]
            self._abort(
                requester,
                reason,
                line_addr=line_addr,
                other_tx=true_victims[0] if true_victims else victims[0],
            )
            raise TransactionAborted(reason, requester.tx_id)
        for victim_id in sorted(resolution.victims_to_abort):
            reason = (
                AbortReason.CONFLICT_TRUE
                if truly[victim_id]
                else AbortReason.FALSE_POSITIVE
            )
            self._abort_tx_id(
                victim_id, reason, line_addr=line_addr, other_tx=requester.tx_id
            )

    def _resolve(
        self,
        location: ConflictLocation,
        requester_id: int,
        victims: List[int],
        now_ns: float = 0.0,
    ) -> Resolution:
        if self.config.resolution == ResolutionPolicy.OLDEST_WINS:
            return resolve_conflict_oldest_wins(
                requester_id, victims, tracer=self.tracer, now_ns=now_ns
            )
        return resolve_conflict(
            location,
            self.tss.is_overflowed(requester_id),
            victims,
            {v: self.tss.is_overflowed(v) for v in victims},
            tracer=self.tracer,
            now_ns=now_ns,
            requester_id=requester_id,
        )

    # ------------------------------------------------------------- evictions

    def _handle_l1_evict(
        self, core_id: int, meta: CacheLineMeta, entry: DirectoryEntry
    ) -> None:
        writer = entry.tx_owner
        tx = self._active.get(writer)
        if tx is None or not self.tss.is_active(writer):
            return
        tx.overflow_list.append(meta.line_addr)
        self.stats.incr("l1.tx_evictions")

    def _handle_llc_evict(
        self, meta: CacheLineMeta, entry: DirectoryEntry
    ) -> None:
        owner = entry.tx_owner
        sharers = entry.tx_sharers
        involved = sharers if owner is None else sharers | {owner}
        for tx_id in sorted(involved):
            tx = self._active.get(tx_id)
            if tx is None or not self.tss.is_active(tx_id):
                continue
            wrote = tx_id == owner
            read = tx_id in sharers
            self.stats.incr("llc.tx_evictions")
            if self.tracer is not None:
                self.tracer.emit(
                    "llc.overflow",
                    ts_ns=tx.thread.clock_ns,
                    tx_id=tx_id,
                    thread_id=tx.thread.thread_id,
                    line_addr=meta.line_addr,
                    wrote=wrote,
                    read=read,
                )
            self._on_llc_overflow(tx, meta.line_addr, wrote=wrote, read=read)

    # ---------------------------------------------------------------- commit

    def commit(self, tx: TxHandle) -> None:
        self._check_doomed(tx)
        if not self.tss.is_active(tx.tx_id):
            raise TransactionStateError(f"commit of non-active tx {tx.tx_id}")
        latency = self._commit_latency_and_publish(tx)
        tx.thread.advance(latency)
        self.hierarchy.directory.clear_transaction(tx.tx_id)
        self.domains.unregister(tx.tx_id)
        self.tss.mark_committed(tx.tx_id)
        self._active.pop(tx.tx_id, None)
        self.tss.reclaim(tx.tx_id)
        self.stats.incr("tx.commits")
        if self.tracer is not None:
            self.tracer.emit(
                "tx.commit",
                ts_ns=tx.thread.clock_ns,
                tx_id=tx.tx_id,
                thread_id=tx.thread.thread_id,
                latency_ns=max(0.0, tx.thread.clock_ns - tx.started_at_ns),
                reads=tx.reads,
                writes=tx.writes,
            )
        self.stats.histogram("tx.latency_ns").record(
            max(0.0, tx.thread.clock_ns - tx.started_at_ns)
        )

    def _commit_latency_and_publish(self, tx: TxHandle) -> float:
        """Run the parallel DRAM/NVM commit protocols; returns thread charge."""
        space = self.controller.address_space
        nvm_lines: Dict[int, Dict[int, int]] = {}
        dram_words: Dict[int, int] = {}
        for line_addr, words in tx.write_buffer.items():
            if space.is_nvm(line_addr):
                nvm_lines[line_addr] = words
            else:
                dram_words.update(words)

        # Locating the write-set in LLC / DRAM cache via the overflow list
        # (Section IV-B): one LLC reference per overflow-list entry.
        walk_ns = len(tx.overflow_list) * self.machine.latency.llc_ns
        if self.tracer is not None:
            # Also stamps the commit time for the timeless controller/log
            # events emitted during the protocol below.
            self.tracer.emit(
                "tx.commit.phase",
                ts_ns=tx.thread.clock_ns,
                tx_id=tx.tx_id,
                thread_id=tx.thread.thread_id,
                phase="walk",
                phase_ns=walk_ns,
            )

        nvm_ns = 0.0
        if nvm_lines:
            nvm_ns = self.controller.commit_nvm_transaction(tx.tx_id, nvm_lines)
        if self.tracer is not None and nvm_ns:
            self.tracer.emit(
                "tx.commit.phase",
                ts_ns=tx.thread.clock_ns,
                tx_id=tx.tx_id,
                thread_id=tx.thread.thread_id,
                phase="nvm",
                phase_ns=nvm_ns,
            )

        # Fault hook: the window between the (durable) NVM commit protocol
        # and the volatile DRAM publish — a crash here must still recover
        # the transaction's persistent writes.
        injector = self.controller.fault_injector
        if injector is not None:
            injector.on_mid_commit(tx.tx_id)

        dram_ns = 0.0
        if tx.dram_overflowed_lines:
            if self.config.dram_log_policy == DramLogPolicy.UNDO:
                dram_ns = self.controller.commit_undo(tx.tx_id)
            else:
                dram_ns = self.controller.commit_redo_dram(tx.tx_id)
        if self.tracer is not None and dram_ns:
            self.tracer.emit(
                "tx.commit.phase",
                ts_ns=tx.thread.clock_ns,
                tx_id=tx.tx_id,
                thread_id=tx.thread.thread_id,
                phase="dram",
                phase_ns=dram_ns,
            )

        # Publish volatile data: buffered DRAM words become globally visible.
        self.controller.publish_dram_words(dram_words)

        # DRAM and NVM protocols run in parallel (Section IV-B).
        return walk_ns + max(nvm_ns, dram_ns)

    # ----------------------------------------------------------------- abort

    def explicit_abort(self, tx: TxHandle) -> None:
        self._abort(tx, AbortReason.EXPLICIT)
        raise TransactionAborted(AbortReason.EXPLICIT, tx.tx_id)

    def abort_all_in_process(self, process_id: int, reason: AbortReason) -> int:
        """Kill every active transaction of one process (lock acquisition)."""
        doomed = [t for t in self._active.values() if t.process_id == process_id]
        for tx in doomed:
            self._abort(tx, reason)
        return len(doomed)

    def _abort_tx_id(
        self,
        tx_id: int,
        reason: AbortReason,
        line_addr: Optional[int] = None,
        other_tx: Optional[int] = None,
    ) -> None:
        tx = self._active.get(tx_id)
        if tx is None or not self.tss.is_active(tx_id):
            return
        self._abort(tx, reason, line_addr=line_addr, other_tx=other_tx)

    def _abort(
        self,
        tx: TxHandle,
        reason: AbortReason,
        line_addr: Optional[int] = None,
        other_tx: Optional[int] = None,
    ) -> None:
        """Synchronously roll back ``tx``; its thread unwinds on next use.

        ``line_addr``/``other_tx`` attribute conflict aborts: the cache line
        fought over and the transaction on the winning side (``None`` for
        capacity/fallback aborts or non-transactional aggressors).
        """
        self.tss.mark_aborted(tx.tx_id, reason)
        self.stats.incr("tx.aborts")
        self.stats.incr(f"tx.aborts.{reason.value}")
        if self.tracer is not None:
            # The only site that counts ``tx.aborts``, so traced abort
            # events equal the counters exactly (the forensics contract).
            self.tracer.emit(
                "tx.abort",
                ts_ns=tx.thread.clock_ns,
                tx_id=tx.tx_id,
                thread_id=tx.thread.thread_id,
                reason=reason.value,
                line_addr=line_addr,
                other_tx=other_tx,
            )
        cost = 0.0
        self.hierarchy.invalidate_written_lines(tx.tx_id, tx.cached_written_lines)
        self.hierarchy.directory.clear_transaction(tx.tx_id)
        if tx.dram_overflowed_lines:
            if self.config.dram_log_policy == DramLogPolicy.UNDO:
                cost += self.controller.rollback_undo(tx.tx_id)
            else:
                cost += self.controller.discard_redo_dram(tx.tx_id)
        if tx.nvm_overflowed_lines or tx.nvm_logged_lines:
            cost += self.controller.abort_nvm(
                tx.tx_id, sorted(tx.nvm_overflowed_lines)
            )
        self.domains.unregister(tx.tx_id)
        self._active.pop(tx.tx_id, None)
        tx.write_buffer.clear()
        tx.thread.advance(cost)
        self.stats.histogram("tx.aborted_attempt_ns").record(
            max(0.0, tx.thread.clock_ns - tx.started_at_ns)
        )

    def acknowledge_abort(self, tx: TxHandle) -> None:
        """The owning thread saw the abort; reclaim the TSS entry."""
        self.tss.reclaim(tx.tx_id)

    def _check_doomed(self, tx: TxHandle) -> None:
        entry = self.tss.entry(tx.tx_id)
        if entry.status is TxStatus.ABORTED:
            reason = entry.abort_reason or AbortReason.EXPLICIT
            raise TransactionAborted(reason, tx.tx_id)
        if entry.status is TxStatus.COMMITTED:
            raise TransactionStateError(
                f"operation on committed transaction {tx.tx_id}"
            )

    # ------------------------------------------------------------- overflow

    def _mark_overflowed(self, tx: TxHandle) -> None:
        if not self.tss.is_overflowed(tx.tx_id):
            self.tss.set_overflowed(tx.tx_id)
            self.stats.incr("tx.overflows")

    def _spill_written_line(self, tx: TxHandle, line_addr: int) -> None:
        """Move a written line's speculative data off-chip (UHTM/Ideal)."""
        words = tx.write_buffer.get(line_addr)
        if words is None:
            # Defensive: a Tx-Owner is recorded only by a write, which
            # buffers words, or by re-reading a line spilled with them.
            return
        if self.controller.address_space.is_nvm(line_addr):
            if line_addr not in tx.nvm_overflowed_lines:
                self.controller.buffer_early_evicted_nvm(tx.tx_id, line_addr, dict(words))
                tx.nvm_overflowed_lines.add(line_addr)
                self.stats.incr("nvm.early_evictions")
        else:
            if self.config.dram_log_policy == DramLogPolicy.UNDO:
                self.controller.log_undo_and_update(tx.tx_id, line_addr, dict(words))
            else:
                self.controller.log_redo_dram(tx.tx_id, line_addr, dict(words))
            tx.dram_overflowed_lines.add(line_addr)
            self.stats.incr("dram.overflow_spills")
