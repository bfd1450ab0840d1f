"""The two-level inclusive cache hierarchy (Table III).

Private L1 data caches per core sit under one shared LLC.  The hierarchy is
inclusive: installing in the L1 requires LLC residency, and an LLC eviction
back-invalidates every L1 copy.  Cached copies carry tags, dirty bits and
MESI states only: a line's transactional state (Tx-Owner, Tx-Sharers) lives
in the :class:`~repro.cache.directory.Directory`, the one per-line record.
The HTM design hooks two callbacks, both fed from the line's directory
entry:

* ``on_l1_evict(core_id, meta, directory_entry)`` — a dirty line with a
  Tx-Owner left a private cache; DHTM-style designs append it to the
  overflow list so commit can locate the write-set in the LLC without
  scanning.
* ``on_llc_evict(meta, directory_entry)`` — a line with a live directory
  entry left the on-chip domain; the design migrates its transactional
  tracking (capacity abort for bounded designs, signature/exact-set
  insertion for unbounded ones) and, for written lines, moves its
  speculative data off-chip (undo log + in-place for DRAM, DRAM-cache
  buffering for NVM).  The ``llc.evict`` trace event is emitted at the
  same point, its ``writer`` and ``readers`` taken from that entry.

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

L1EvictCallback = Callable[[int, CacheLineMeta, DirectoryEntry], None]
LLCEvictCallback = Callable[[CacheLineMeta, DirectoryEntry], None]
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
        #: Dirty LLC victims without a Tx-Owner (bandwidth accounting).
        self.writebacks = 0
        #: Optional event tracer (see :mod:`repro.obs`): LLC evictions of
        #: lines with a directory entry are emitted as ``llc.evict`` events
        #: when attached.
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

        Fills, the LLC eviction handler and coherence resolution are inlined:
        block operations run this walk once per line, and the method calls
        were measurable.
        """
        l1 = self.l1s[core_id]
        l1_meta = l1.lookup(line_addr)
        if l1_meta is not None:
            result = self._l1_hit
        else:
            llc = self.llc
            l1_holders = self.l1_holders
            if llc.lookup(line_addr) is not None:
                result = self._llc_hit
            else:
                if domain_id is not None and self.on_llc_miss is not None:
                    self.on_llc_miss(line_addr, is_write, tx_id, domain_id)
                latency = self._llc_hit_ns
                latency += self.controller.demand_access_latency(
                    line_addr, now_ns + latency
                )
                # The LLC probe above already missed, so fill unconditionally.
                _, llc_victims = llc.fill(line_addr)
                for victim in llc_victims:
                    # Back-invalidate L1 copies, folding their dirty bits in.
                    victim_line = victim.line_addr
                    holders = l1_holders.pop(victim_line, None)
                    if holders:
                        for holder in holders:
                            held = self.l1s[holder].remove(victim_line)
                            if held is not None and held.dirty:
                                victim.dirty = True
                    entry = self.directory.evict_line(victim_line)
                    if victim.dirty and (entry is None or entry.tx_owner is None):
                        # Non-speculative dirty data: the backing store
                        # already holds the values (non-transactional stores
                        # write through); count the write-back for bandwidth
                        # accounting only.
                        self.writebacks += 1
                    if entry is not None:
                        if self.tracer is not None:
                            self.tracer.emit(
                                "llc.evict",
                                line_addr=victim_line,
                                writer=entry.tx_owner,
                                readers=len(entry.tx_sharers),
                            )
                        if self.on_llc_evict is not None:
                            self.on_llc_evict(victim, entry)
                result = AccessResult(latency, "mem")
            # LLC evictions only ever *remove* L1 lines, so the L1 probe
            # above still holds: install without a residency re-check.
            l1_meta, l1_victims = l1.fill(line_addr)
            holders = l1_holders.get(line_addr)
            if holders is None:
                l1_holders[line_addr] = {core_id}
            else:
                holders.add(core_id)
            for victim in l1_victims:
                self.handle_l1_eviction(core_id, victim)
        if is_write:
            # GetM: invalidate every other copy; this copy goes to M (a
            # sole E holder upgrades silently).
            holders = self.l1_holders.get(line_addr)
            if holders is not None and (
                len(holders) != 1 or core_id not in holders
            ):
                self.invalidate_other_l1s(core_id, line_addr)
            l1_meta.mesi = MesiState.MODIFIED
            l1_meta.dirty = True
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
        return result

    # -- evictions ----------------------------------------------------------------

    def handle_l1_eviction(self, core_id: int, victim: CacheLineMeta) -> None:
        line_addr = victim.line_addr
        holders = self.l1_holders.get(line_addr)
        if holders is not None:
            holders.discard(core_id)
            if not holders:
                del self.l1_holders[line_addr]
        if not victim.dirty:
            return
        # Inclusive hierarchy: the line is still in the LLC; propagate the
        # dirty bit down a level.
        llc_meta = self.llc.peek(line_addr)
        if llc_meta is not None:
            llc_meta.dirty = True
        if self.on_l1_evict is not None:
            entry = self.directory.entry(line_addr)
            if entry is not None and entry.tx_owner is not None:
                self.on_l1_evict(core_id, victim, entry)

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
        state folds into the LLC copy; transactionally written lines go
        through the normal L1-evict path so they land on the overflow
        list.  Returns lines flushed.
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
        """A no-op, kept for the benchmark's entry-point table.

        Cached copies carry no transactional markers: a line's Tx fields
        live only in :attr:`directory`, which commit clears.
        """

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
