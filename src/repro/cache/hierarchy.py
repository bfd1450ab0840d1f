"""The two-level inclusive cache hierarchy (Table III).

Private L1 data caches per core sit under one shared LLC.  The hierarchy is
inclusive: installing in the L1 requires LLC residency, and an LLC eviction
back-invalidates every L1 copy.  The HTM design hooks two callbacks:

* ``on_l1_evict(core_id, meta)`` — a transactionally written line left a
  private cache; DHTM-style designs append it to the overflow list so commit
  can locate the write-set in the LLC without scanning.
* ``on_llc_evict(meta, directory_entry)`` — a line left the on-chip domain;
  the design migrates its transactional tracking (capacity abort for bounded
  designs, signature/exact-set insertion for unbounded ones) and, for
  written lines, moves its speculative data off-chip (undo log + in-place
  for DRAM, DRAM-cache buffering for NVM).

Designs that check off-chip tracking only on LLC misses also install
``on_llc_miss(line_addr, is_write, tx_id, domain_id)``.  :meth:`access`
calls it where the LLC lookup missed, before the memory access and the
fill: a request that loses the check raises out of the walk having
installed nothing (the hardware nacks it), so later requests cannot hit
the line on-chip and skip the check.

Data values are *not* stored here: committed values live in the backing
stores, speculative values in per-transaction write buffers.  Dirty bits
exist for write-back traffic accounting only.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Set

from ..mem.controller import MemoryController
from ..params import MachineConfig
from .coherence import CoherenceRequest, MesiState, next_state_for_holder
from .directory import Directory, DirectoryEntry
from .setassoc import CacheLineMeta, SetAssociativeArray

L1EvictCallback = Callable[[int, CacheLineMeta], None]
LLCEvictCallback = Callable[[CacheLineMeta, Optional[DirectoryEntry]], None]
LLCMissCallback = Callable[[int, bool, Optional[int], int], None]


class AccessResult(NamedTuple):
    """Timing and path information for one memory access.

    A named tuple rather than a frozen dataclass: tuple construction is
    several times cheaper than ``object.__setattr__``-based frozen-dataclass
    init.  Hits return one of two results built once per hierarchy, so only
    misses allocate.
    """

    latency_ns: float
    #: "l1", "llc", or "mem" — where the request was satisfied.
    level: str

    @property
    def llc_miss(self) -> bool:
        return self.level == "mem"


class CacheHierarchy:
    """Per-core L1s + shared inclusive LLC + transactional directory."""

    def __init__(
        self,
        machine: MachineConfig,
        controller: MemoryController,
    ) -> None:
        self.machine = machine
        self.controller = controller
        self.l1s = [
            SetAssociativeArray(machine.l1, f"l1[{core}]")
            for core in range(machine.cores)
        ]
        self.llc = SetAssociativeArray(machine.llc, "llc")
        self.directory = Directory()
        # Hot-path constants: LatencyConfig is frozen, so the hit latencies
        # can be summed once instead of per access.
        latency = machine.latency
        self._l1_hit_ns = latency.l1_ns
        self._llc_hit_ns = latency.l1_ns + latency.llc_ns
        self._l1_hit = AccessResult(self._l1_hit_ns, "l1")
        self._llc_hit = AccessResult(self._llc_hit_ns, "llc")
        #: Which cores' L1s hold each line (avoids probing all L1s).
        self.l1_holders: Dict[int, Set[int]] = {}
        self.on_l1_evict: Optional[L1EvictCallback] = None
        self.on_llc_evict: Optional[LLCEvictCallback] = None
        self.on_llc_miss: Optional[LLCMissCallback] = None
        self.writebacks = 0
        #: Optional event tracer (see :mod:`repro.obs`): transactional LLC
        #: evictions are emitted as ``llc.evict`` events when attached.
        self.tracer = None

    # -- the demand access path -----------------------------------------------

    def would_miss_llc(self, core_id: int, line_addr: int) -> bool:
        """Would an access by ``core_id`` go to memory right now?

        A side-effect-free probe: it touches neither LRU state nor the
        hit/miss counters.  The access path answers the same question from
        its own lookups (see :meth:`access`).
        """
        if self.l1s[core_id].peek(line_addr) is not None:
            return False
        return self.llc.peek(line_addr) is None

    def access(
        self,
        core_id: int,
        line_addr: int,
        is_write: bool,
        tx_id: Optional[int] = None,
        now_ns: float = 0.0,
        domain_id: Optional[int] = None,
    ) -> AccessResult:
        """Walk L1 → LLC → memory for one line-granularity access.

        Transactional bookkeeping (directory Tx fields, signatures, write
        buffers) is the HTM design's job; this method only moves tags and
        reports timing.  Writes invalidate other cores' L1 copies (GetM).
        ``now_ns`` (the requester's clock) feeds the optional bandwidth
        model's channel queueing.  ``domain_id`` is the requester's conflict
        domain, or ``None`` for no off-chip check: when it is set and the
        LLC misses, ``on_llc_miss`` runs before the memory access and the
        fill, and if it raises, the request leaves no tag, LRU, holder or
        MESI change behind.

        Coherence resolution (the former ``_finish_access``) is inlined at
        the tail: it runs exactly once per simulated memory operation, and
        the method call was measurable.
        """
        l1 = self.l1s[core_id]
        l1_meta = l1.lookup(line_addr)
        if l1_meta is not None:
            result = self._l1_hit
        else:
            if self.llc.lookup(line_addr) is not None:
                result = self._llc_hit
            else:
                if domain_id is not None and self.on_llc_miss is not None:
                    self.on_llc_miss(line_addr, is_write, tx_id, domain_id)
                latency = self._llc_hit_ns
                latency += self.controller.demand_access_latency(
                    line_addr, now_ns + latency
                )
                # The LLC probe above already missed, so fill unconditionally.
                _, llc_victims = self.llc.fill(line_addr)
                for victim in llc_victims:
                    self.handle_llc_eviction(victim)
                result = AccessResult(latency, "mem")
            l1_meta = self.fill_l1_after_miss(l1, core_id, line_addr)
        if is_write:
            # GetM: invalidate every other copy; this copy goes to M (a
            # sole E holder upgrades silently).
            self.invalidate_other_l1s(core_id, line_addr)
            l1_meta.mesi = MesiState.MODIFIED
            l1_meta.dirty = True
            if tx_id is not None:
                l1_meta.tx_writer = tx_id
        else:
            # GetS: downgrade any M/E holder; requester takes S if the line
            # is shared, E if it is the only copy.
            holders = self.l1_holders.get(line_addr)
            shared = False
            if holders:
                l1s = self.l1s
                for other in holders:
                    if other == core_id:
                        continue
                    shared = True
                    other_meta = l1s[other].peek(line_addr)
                    if other_meta is not None:
                        other_meta.mesi = next_state_for_holder(
                            CoherenceRequest.GET_S, other_meta.mesi
                        )
            if shared:
                l1_meta.mesi = MesiState.SHARED
            elif l1_meta.mesi is not MesiState.MODIFIED:
                l1_meta.mesi = MesiState.EXCLUSIVE
            if tx_id is not None:
                readers = l1_meta.tx_readers
                if readers is None:
                    l1_meta.tx_readers = {tx_id}
                else:
                    readers.add(tx_id)
        return result

    # -- fills and evictions -----------------------------------------------------

    def fill_l1_after_miss(
        self, l1: SetAssociativeArray, core_id: int, line_addr: int
    ) -> CacheLineMeta:
        """Install a line whose L1 probe already missed this access.

        The access path probes the L1 first and LLC evictions only ever
        *remove* L1 lines, so the residency re-check the old ``_fill_l1``
        did here was always a miss — it is omitted.
        """
        meta, victims = l1.fill(line_addr)
        holders = self.l1_holders.get(line_addr)
        if holders is None:
            self.l1_holders[line_addr] = {core_id}
        else:
            holders.add(core_id)
        for victim in victims:
            self.handle_l1_eviction(core_id, victim)
        return meta

    def handle_l1_eviction(self, core_id: int, victim: CacheLineMeta) -> None:
        holders = self.l1_holders.get(victim.line_addr)
        if holders is not None:
            holders.discard(core_id)
            if not holders:
                del self.l1_holders[victim.line_addr]
        # Inclusive hierarchy: the line is still in the LLC; propagate the
        # dirty bit and transactional writer marker down a level.
        llc_meta = self.llc.peek(victim.line_addr)
        if llc_meta is not None:
            llc_meta.dirty = llc_meta.dirty or victim.dirty
            if victim.tx_writer is not None:
                llc_meta.tx_writer = victim.tx_writer
            if victim.tx_readers:
                readers = llc_meta.tx_readers
                if readers is None:
                    llc_meta.tx_readers = set(victim.tx_readers)
                else:
                    readers.update(victim.tx_readers)
        if victim.tx_writer is not None and self.on_l1_evict is not None:
            self.on_l1_evict(core_id, victim)

    def handle_llc_eviction(self, victim: CacheLineMeta) -> None:
        # Back-invalidate L1 copies, folding their freshest state in.
        holders = self.l1_holders.pop(victim.line_addr, None)
        if holders:
            for core_id in holders:
                l1_meta = self.l1s[core_id].remove(victim.line_addr)
                if l1_meta is not None:
                    victim.dirty = victim.dirty or l1_meta.dirty
                    if l1_meta.tx_writer is not None:
                        victim.tx_writer = l1_meta.tx_writer
                    if l1_meta.tx_readers:
                        readers = victim.tx_readers
                        if readers is None:
                            victim.tx_readers = set(l1_meta.tx_readers)
                        else:
                            readers.update(l1_meta.tx_readers)
        entry = self.directory.evict_line(victim.line_addr)
        if victim.dirty and victim.tx_writer is None:
            # Non-speculative dirty data: the backing store already holds
            # the values (non-transactional stores write through); count the
            # write-back for bandwidth accounting only.
            self.writebacks += 1
        if victim.tx_writer is not None or victim.tx_readers or entry is not None:
            if self.tracer is not None:
                readers = set(victim.tx_readers or ())
                if entry is not None:
                    readers.update(entry.tx_sharers)
                self.tracer.emit(
                    "llc.evict",
                    line_addr=victim.line_addr,
                    writer=victim.tx_writer,
                    readers=len(readers),
                )
            if self.on_llc_evict is not None:
                self.on_llc_evict(victim, entry)

    def invalidate_other_l1s(self, core_id: int, line_addr: int) -> None:
        holders = self.l1_holders.get(line_addr)
        if not holders:
            return
        if core_id in holders:
            if len(holders) > 1:
                l1s = self.l1s
                for other in holders:
                    if other != core_id:
                        l1s[other].remove(line_addr)
                holders.clear()
                holders.add(core_id)
        else:
            l1s = self.l1s
            for other in holders:
                l1s[other].remove(line_addr)
            del self.l1_holders[line_addr]

    def flush_private_cache(self, core_id: int) -> int:
        """Flush one core's L1 into the LLC (context switch, Section IV-E).

        "UHTM flushes modified data of both DRAM and NVM in the private
        cache to the LLC on context switch.  Later, UHTM correctly locates
        these blocks in the LLC without asking the other CPUs."  Dirty
        state, MESI ownership, and transactional markers fold into the LLC
        copy; transactionally written lines go through the normal L1-evict
        path so they land on the overflow list.  Returns lines flushed.
        """
        l1 = self.l1s[core_id]
        flushed = 0
        for line_addr in list(l1.resident_lines()):
            meta = l1.remove(line_addr)
            if meta is None:
                continue
            self.handle_l1_eviction(core_id, meta)
            flushed += 1
        return flushed

    # -- transaction-lifetime operations ----------------------------------------

    def invalidate_written_lines(self, tx_id: int, lines: Set[int]) -> int:
        """Drop a transaction's speculatively written lines (abort path).

        "UHTM flushes all pipeline states of a core at first and invalidates
        all cache blocks modified by the aborting transaction."
        """
        invalidated = 0
        for line_addr in sorted(lines):
            holders = self.l1_holders.pop(line_addr, None)
            if holders:
                for core_id in holders:
                    self.l1s[core_id].remove(line_addr)
            meta = self.llc.remove(line_addr)
            if meta is not None or holders:
                invalidated += 1
            self.directory.evict_line(line_addr)
        return invalidated

    def clear_tx_markers(self, tx_id: int, lines: Set[int]) -> None:
        """Commit path: make lines visible by clearing speculative markers."""
        for line_addr in sorted(lines):
            for core_id in self.l1_holders.get(line_addr, ()):
                meta = self.l1s[core_id].peek(line_addr)
                if meta is not None:
                    meta.clear_tx(tx_id)
            meta = self.llc.peek(line_addr)
            if meta is not None:
                meta.clear_tx(tx_id)

    # -- introspection -------------------------------------------------------------

    def llc_resident(self, line_addr: int) -> bool:
        return self.llc.peek(line_addr) is not None

    def l1_resident(self, core_id: int, line_addr: int) -> bool:
        return self.l1s[core_id].peek(line_addr) is not None

    def wipe(self) -> None:
        """Lose all cached state (crash)."""
        for l1 in self.l1s:
            l1.clear()
        self.llc.clear()
        self.l1_holders.clear()
