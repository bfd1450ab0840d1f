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
from typing import Dict, List, Optional, Set, Tuple

from ..cache.hierarchy import CacheHierarchy
from ..cache.setassoc import CacheLineMeta
from ..cache.directory import DirectoryConflict, DirectoryEntry
from ..errors import (
    AbortReason,
    TransactionAborted,
    TransactionStateError,
)
from ..mem.address import NVM_BASE
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
    read_lines: Set[int] = field(default_factory=set)
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

    def buffered_value(self, addr: int) -> Optional[int]:
        words = self.write_buffer.get(addr & _LINE_MASK)
        if words is None:
            return None
        return words.get(addr & _WORD_MASK)

    def buffer_write(self, addr: int, value: int) -> None:
        buffer = self.write_buffer
        line_addr = addr & _LINE_MASK
        words = buffer.get(line_addr)
        if words is None:
            buffer[line_addr] = {addr & _WORD_MASK: value}
        else:
            words[addr & _WORD_MASK] = value


class HTMSystem:
    """Base class for all evaluated HTM designs."""

    #: Subclasses: does this design use the coherence directory on-chip?
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
        #: Optional trace capture (set by the System facade).
        self.capture = None
        #: Epoch dispatcher (:class:`repro.htm.batch.BatchDispatcher`), set
        #: by the System facade; the block-level context methods in
        #: :mod:`repro.runtime.txapi` route through it.
        self.batch = None
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
            hierarchy.on_llc_miss = self._handle_llc_miss
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

    # ---------------------------------------------------------------- hooks

    def _isolation_enabled(self) -> bool:
        return self.config.isolation

    def _offchip_trigger(self, llc_miss: bool) -> bool:
        """When must an access be checked against off-chip tracking?

        Evaluated *before* the cache fill, so a losing requester's line is
        never installed (the hardware nacks the request): if it were, later
        requests would hit on-chip, skip the signature check, and read
        uncommitted in-place data.  On-miss checks run from inside
        :meth:`CacheHierarchy.access` through :meth:`_handle_llc_miss`.
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
        if self.capture is not None:
            self.capture.begin(tx_id, thread.thread_id)
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

    def active_transaction(self, tx_id: int) -> Optional[TxHandle]:
        return self._active.get(tx_id)

    def active_in_process(self, process_id: int) -> List[TxHandle]:
        return [t for t in self._active.values() if t.process_id == process_id]

    # --------------------------------------------------------------- access

    def tx_read(self, tx: TxHandle, addr: int) -> int:
        if tx.entry.status is not _ACTIVE:
            self._check_doomed(tx)
        line_addr = addr & _LINE_MASK
        hierarchy = self.hierarchy
        thread = tx.thread
        tx_id = tx.tx_id
        if self.USES_DIRECTORY:
            conflict = hierarchy.directory.check_access(line_addr, tx_id, False)
            if conflict is not None:
                self._onchip_resolution(tx, line_addr, conflict)
        if self._offchip_always:
            self._offchip_conflict_check(tx, tx.domain_id, line_addr, False)
        result = hierarchy.access(
            tx.core_id, line_addr, False, tx_id, thread.clock_ns, tx.domain_id
        )
        thread.advance(result.latency_ns)
        if tx.entry.status is not _ACTIVE:
            self._check_doomed(tx)  # the access may have overflowed us to death
        if self.USES_DIRECTORY:
            hierarchy.directory.record_access(line_addr, tx_id, False)
            if (
                line_addr in tx.dram_overflowed_lines
                or line_addr in tx.nvm_overflowed_lines
            ):
                # Re-fetching one's own spilled line brings *speculative*
                # data back on-chip; ownership must be re-established or a
                # later reader would see it as innocent shared data.
                hierarchy.directory.record_access(line_addr, tx_id, True)
        tx.read_lines.add(line_addr)
        tx.reads += 1
        if self.capture is not None:
            self.capture.op(tx_id, False, addr)
        if self._records_access:
            self._on_access_recorded(tx, line_addr, is_write=False)
        if self._dram_redo and line_addr in tx.dram_overflowed_lines:
            # Read indirection: the new value lives in the redo log.
            thread.advance(self.controller.redo_dram_indirection_latency())
            self.stats.incr("dram.redo_read_indirections")
        words = tx.write_buffer.get(line_addr)
        if words is not None:
            buffered = words.get(addr & _WORD_MASK)
            if buffered is not None:
                return buffered
        return self.controller.load_word(addr)

    def tx_write(self, tx: TxHandle, addr: int, value: int) -> None:
        if tx.entry.status is not _ACTIVE:
            self._check_doomed(tx)
        line_addr = addr & _LINE_MASK
        hierarchy = self.hierarchy
        thread = tx.thread
        tx_id = tx.tx_id
        if self.USES_DIRECTORY:
            conflict = hierarchy.directory.check_access(line_addr, tx_id, True)
            if conflict is not None:
                self._onchip_resolution(tx, line_addr, conflict)
        if self._offchip_always:
            self._offchip_conflict_check(tx, tx.domain_id, line_addr, True)
        result = hierarchy.access(
            tx.core_id, line_addr, True, tx_id, thread.clock_ns, tx.domain_id
        )
        thread.advance(result.latency_ns)
        if tx.entry.status is not _ACTIVE:
            self._check_doomed(tx)
        if self.USES_DIRECTORY:
            hierarchy.directory.record_access(line_addr, tx_id, True)
        tx.written_lines.add(line_addr)
        tx.writes += 1
        if self.capture is not None:
            self.capture.op(tx_id, True, addr)
        if self._records_access:
            self._on_access_recorded(tx, line_addr, is_write=True)
        if (
            self._nvm_base <= addr < self._nvm_end
            and line_addr not in tx.nvm_logged_lines
        ):
            # Hardware redo logging streams the record out at store time;
            # ADR makes it durable once the controller accepts it.
            tx.nvm_logged_lines.add(line_addr)
            thread.advance(self._nvm_write_ns)
            self.stats.incr("nvm.log_appends")
        tx.buffer_write(addr, value)

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
        # registry holds no signatures, so both checks are vacuous.  The
        # test is read once: directory aborts below may empty ``_active``,
        # and the off-chip check must still run as it was issued.
        check_domain = None
        if self._active:
            check_domain = domain_id
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
                # Check before the fill: the victims' rollback must restore
                # the in-place data this request is about to read.
                self._offchip_conflict_check(None, domain_id, line_addr, is_write)
        result = self.hierarchy.access(
            core_id, line_addr, is_write, None, thread.clock_ns, check_domain
        )
        thread.advance(result.latency_ns)
        if is_write:
            # ``value is None`` means "dirty the line but let the caller
            # manage the data" (slow paths buffer NVM values for atomicity).
            if value is not None:
                self.controller.store_word(addr, value)
            return 0
        return self.controller.load_word(addr)

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

    def _handle_llc_miss(
        self, line_addr: int, is_write: bool, tx_id: Optional[int], domain_id: int
    ) -> None:
        """The hierarchy's ``on_llc_miss`` hook: the off-chip check of an
        access that missed the LLC, run before the line is filled."""
        requester = self._active[tx_id] if tx_id is not None else None
        self._offchip_conflict_check(requester, domain_id, line_addr, is_write)

    def _offchip_conflict_check(
        self,
        requester: Optional[TxHandle],
        domain_id: int,
        line_addr: int,
        is_write: bool,
    ) -> None:
        exclude = requester.tx_id if requester is not None else None
        # The probe short-circuit encodes Table II; under other policies the
        # full hit list must be gathered.
        requester_overflowed = (
            requester.entry.overflowed
            if requester is not None
            and self.config.resolution == ResolutionPolicy.TABLE2
            else None
        )
        hits = self._offchip_conflicts(
            domain_id, line_addr, is_write, exclude, requester_overflowed
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

        The post-probe half of :meth:`_offchip_conflict_check`, for callers
        that run the probe themselves.  A non-transactional requester
        (``None``) always wins.
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

    def _handle_l1_evict(self, core_id: int, meta: CacheLineMeta) -> None:
        writer = meta.tx_writer
        if writer is None:
            return
        tx = self._active.get(writer)
        if tx is None or not self.tss.is_active(writer):
            return
        tx.overflow_list.append(meta.line_addr)
        self.stats.incr("l1.tx_evictions")

    def _handle_llc_evict(
        self, meta: CacheLineMeta, entry: Optional[DirectoryEntry]
    ) -> None:
        writers: Set[int] = set()
        readers: Set[int] = set()
        if meta.tx_writer is not None:
            writers.add(meta.tx_writer)
        if meta.tx_readers:
            readers.update(meta.tx_readers)
        if entry is not None:
            if entry.tx_owner is not None:
                writers.add(entry.tx_owner)
            readers.update(entry.tx_sharers)
        involved = writers | readers
        for tx_id in sorted(involved):
            tx = self._active.get(tx_id)
            if tx is None or not self.tss.is_active(tx_id):
                continue
            self.stats.incr("llc.tx_evictions")
            if self.tracer is not None:
                self.tracer.emit(
                    "llc.overflow",
                    ts_ns=tx.thread.clock_ns,
                    tx_id=tx_id,
                    thread_id=tx.thread.thread_id,
                    line_addr=meta.line_addr,
                    wrote=tx_id in writers,
                    read=tx_id in readers,
                )
            self._on_llc_overflow(
                tx,
                meta.line_addr,
                wrote=tx_id in writers,
                read=tx_id in readers,
            )

    # ---------------------------------------------------------------- commit

    def commit(self, tx: TxHandle) -> None:
        self._check_doomed(tx)
        if not self.tss.is_active(tx.tx_id):
            raise TransactionStateError(f"commit of non-active tx {tx.tx_id}")
        latency = self._commit_latency_and_publish(tx)
        tx.thread.advance(latency)
        self.hierarchy.clear_tx_markers(tx.tx_id, tx.cached_written_lines)
        if self.USES_DIRECTORY:
            self.hierarchy.directory.clear_transaction(tx.tx_id)
        self.domains.unregister(tx.tx_id)
        self.tss.mark_committed(tx.tx_id)
        self._active.pop(tx.tx_id, None)
        self.tss.reclaim(tx.tx_id)
        if self.capture is not None:
            self.capture.commit(tx.tx_id)
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
        if self.USES_DIRECTORY:
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
        if self.capture is not None:
            self.capture.abort(tx.tx_id)
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
            # Written line with no buffered words should not happen, but a
            # line can appear written via stale meta after partial clears.
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
