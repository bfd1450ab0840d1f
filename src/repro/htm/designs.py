"""The four evaluated HTM designs (Section V's comparison points)."""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..cache.hierarchy import CacheHierarchy
from ..errors import AbortReason, ConfigError
from ..mem.controller import MemoryController
from ..params import HTMConfig, HTMDesign, MachineConfig
from ..sim.stats import StatsRegistry
from ..signatures.addresssig import SignaturePair
from ..signatures.bloom import BloomFilter
from .base import HTMSystem, TxHandle


class LLCBoundedHTM(HTMSystem):
    """The DHTM-like baseline: durable, but bounded by the on-chip caches.

    Conflict detection is coherence-only, so the moment a transactional line
    is evicted from the LLC correctness can no longer be guaranteed and the
    transaction takes a capacity abort.  Per Section V, "a transaction does
    not attempt to retry if the transaction has overflowed and executes the
    slow-path right away" — the retry loop inspects the abort reason.
    """

    def _isolation_enabled(self) -> bool:
        return True  # moot: no signatures exist to isolate

    def _offchip_trigger(self, llc_miss: bool) -> bool:
        return False

    def _on_llc_overflow(
        self, tx: TxHandle, line_addr: int, wrote: bool, read: bool
    ) -> None:
        self._mark_overflowed(tx)
        self.stats.incr("tx.capacity_overflow_events")
        self._abort_tx_id(tx.tx_id, AbortReason.CAPACITY)

    def _offchip_conflicts(
        self,
        domain_id: int,
        line_addr: int,
        is_write: bool,
        exclude_tx: Optional[int],
        requester_overflowed: Optional[bool] = None,
    ) -> List[Tuple[int, bool]]:
        return []


class SignatureOnlyHTM(HTMSystem):
    """Bulk / LogTM-SE style: signatures checked on all coherence traffic.

    Every transactional access inserts its line into the transaction's own
    read/write signature and is checked against *every* other active
    signature, regardless of cache residency.  No directory fields are used.
    With durable transactions' few-hundred-KB footprints the filters
    saturate, which is precisely the >99 % abort-rate pathology the paper
    measures for this design.
    """

    USES_DIRECTORY = False

    def _isolation_enabled(self) -> bool:
        return False  # the naive design has one flat conflict domain

    def _register_tracking(self, tx: TxHandle) -> None:
        # Signature-only filters hold the *entire* footprint, which the
        # machine scale shrinks — so their widths shrink with it to keep
        # occupancy (and therefore the false-positive rate) faithful.  UHTM
        # filters hold only LLC-overflowed lines, whose count the compressed
        # caches already keep at paper magnitude, so those stay nominal.
        tx.signature = SignaturePair(
            self.config.signature, self.machine.scale
        )
        self.domains.register(tx.tx_id, tx.domain_id, tx.signature)

    def _offchip_trigger(self, llc_miss: bool) -> bool:
        return True  # all traffic is checked

    def _on_access_recorded(self, tx: TxHandle, line_addr: int, is_write: bool) -> None:
        assert tx.signature is not None
        if is_write:
            tx.signature.add_write(line_addr)
        else:
            tx.signature.add_read(line_addr)

    def _on_llc_overflow(
        self, tx: TxHandle, line_addr: int, wrote: bool, read: bool
    ) -> None:
        # Tracking already lives entirely in the signatures; only the
        # speculative data of a written line must move off-chip.
        self._mark_overflowed(tx)
        if wrote:
            self._spill_written_line(tx, line_addr)
        if self.tracer is not None and tx.signature is not None:
            self.tracer.emit(
                "sig.saturation",
                ts_ns=tx.thread.clock_ns,
                tx_id=tx.tx_id,
                thread_id=tx.thread.thread_id,
                read=tx.signature.read_filter.saturation,
                write=tx.signature.write_filter.saturation,
            )

    def _offchip_conflicts(
        self,
        domain_id: int,
        line_addr: int,
        is_write: bool,
        exclude_tx: Optional[int],
        requester_overflowed: Optional[bool] = None,
    ) -> List[Tuple[int, bool]]:
        return _signature_hits(
            self, domain_id, line_addr, is_write, exclude_tx,
            requester_overflowed,
        )


class UHTM(HTMSystem):
    """The paper's design: staged detection plus hybrid logging.

    On-chip conflicts come from the directory's Tx fields (precise).  Lines
    evicted from the LLC migrate into per-transaction read/write signatures,
    and *only LLC-missing* requests are checked against them — the staged
    filter that cuts the false-positive abort rate from >99 % to 26 %.
    With ``config.isolation`` the check is further confined to the
    requester's conflict domain (→ 9 %).
    """

    def _register_tracking(self, tx: TxHandle) -> None:
        tx.signature = SignaturePair(self.config.signature)
        self.domains.register(tx.tx_id, tx.domain_id, tx.signature)

    def _offchip_trigger(self, llc_miss: bool) -> bool:
        return llc_miss

    def _on_llc_overflow(
        self, tx: TxHandle, line_addr: int, wrote: bool, read: bool
    ) -> None:
        assert tx.signature is not None
        self._mark_overflowed(tx)
        if read:
            tx.signature.add_read(line_addr)
        if wrote:
            tx.signature.add_write(line_addr)
            self._spill_written_line(tx, line_addr)
        if self.tracer is not None:
            self.tracer.emit(
                "sig.saturation",
                ts_ns=tx.thread.clock_ns,
                tx_id=tx.tx_id,
                thread_id=tx.thread.thread_id,
                read=tx.signature.read_filter.saturation,
                write=tx.signature.write_filter.saturation,
            )

    def _offchip_conflicts(
        self,
        domain_id: int,
        line_addr: int,
        is_write: bool,
        exclude_tx: Optional[int],
        requester_overflowed: Optional[bool] = None,
    ) -> List[Tuple[int, bool]]:
        return _signature_hits(
            self, domain_id, line_addr, is_write, exclude_tx,
            requester_overflowed,
        )


class IdealHTM(HTMSystem):
    """Perfect unbounded conflict detection: exact sets, no false positives.

    Version management is identical to UHTM's (hybrid logging); only the
    off-chip detection is oracular, which is exactly the paper's "Ideal
    Unbounded HTM" comparison point.
    """

    def _isolation_enabled(self) -> bool:
        return True

    def _register_tracking(self, tx: TxHandle) -> None:
        tx.signature = SignaturePair(self.config.signature)
        self.domains.register(tx.tx_id, tx.domain_id, tx.signature)

    def _offchip_trigger(self, llc_miss: bool) -> bool:
        return llc_miss

    def _on_llc_overflow(
        self, tx: TxHandle, line_addr: int, wrote: bool, read: bool
    ) -> None:
        assert tx.signature is not None
        self._mark_overflowed(tx)
        if read:
            tx.signature.exact_read.add(line_addr)
        if wrote:
            tx.signature.exact_write.add(line_addr)
            self._spill_written_line(tx, line_addr)

    def _offchip_conflicts(
        self,
        domain_id: int,
        line_addr: int,
        is_write: bool,
        exclude_tx: Optional[int],
        requester_overflowed: Optional[bool] = None,
    ) -> List[Tuple[int, bool]]:
        hits: List[Tuple[int, bool]] = []
        for tx_id, signature in self.domains.members(domain_id).items():
            if tx_id == exclude_tx or (
                not signature.exact_read and not signature.exact_write
            ):
                continue
            self.stats.incr("sig.checks")
            if signature.truly_conflicts_with_access(line_addr, is_write):
                hits.append((tx_id, True))
                self.stats.incr("sig.hits.true")
        return hits


def _signature_hits(
    system: HTMSystem,
    domain_id: int,
    line_addr: int,
    is_write: bool,
    exclude_tx: Optional[int],
    requester_overflowed: Optional[bool] = None,
) -> List[Tuple[int, bool]]:
    """Probe the relevant signatures, labelling each hit true or false.

    The true/false label comes from the exact shadow sets and is used for
    the Figure 7 abort decomposition; the *hardware* only sees the Bloom
    filter answer.

    ``requester_overflowed`` enables an early exit for transactional
    requesters: under Table II the requester survives a hit only when it is
    overflowed and the victim is not, so the first hit that dooms it makes
    further probing pointless — the outcome is already decided.

    The probe hashes the line once per hash *family*, not once per filter:
    all of a run's signatures share their families (see
    ``shared_multiplicative``), so the write-key and read-key are computed
    for the first populated signature and every subsequent filter test is a
    single AND-compare against the cached key.  A family-identity check
    guards the cache, so heterogeneous signatures still probe correctly.
    """
    hits: List[Tuple[int, bool]] = []
    checks = 0
    tracer = system.tracer
    wfam = rfam = None
    wkey = rkey = None
    flat = False
    for tx_id, signature in system.domains.members(domain_id).items():
        if tx_id == exclude_tx or (
            not signature.exact_read and not signature.exact_write
        ):
            # An unpopulated filter is all-zero and can never hit; the
            # hardware comparators short out, and so do we (hot path).
            continue
        checks += 1
        write_filter = signature.write_filter
        # Direct slot access: the `family` property's descriptor call is
        # measurable at this call frequency.
        family = write_filter._family
        if family is not wfam:
            wfam = family
            flat = type(write_filter) is BloomFilter
            wkey = (
                family.or_mask(line_addr)
                if flat
                else write_filter.probe_key(line_addr)
            )
        if flat:
            # Flat filters are single big-ints; test them inline rather
            # than paying a method call per member (the dominant case).
            conflicts = write_filter._array & wkey == wkey
            if not conflicts and is_write:
                read_filter = signature.read_filter
                family = read_filter._family
                if family is not rfam:
                    rfam = family
                    rkey = family.or_mask(line_addr)
                conflicts = read_filter._array & rkey == rkey
        elif write_filter.contains_key(wkey):
            conflicts = True
        elif is_write:
            read_filter = signature.read_filter
            family = read_filter._family
            if family is not rfam:
                rfam = family
                rkey = read_filter.probe_key(line_addr)
            conflicts = read_filter.contains_key(rkey)
        else:
            conflicts = False
        if conflicts:
            truly = signature.truly_conflicts_with_access(line_addr, is_write)
            hits.append((tx_id, truly))
            system.stats.incr("sig.hits.true" if truly else "sig.hits.false")
            if tracer is not None:
                tracer.emit(
                    "sig.hit",
                    tx_id=exclude_tx,
                    victim=tx_id,
                    line_addr=line_addr,
                    is_write=is_write,
                    truly=truly,
                )
            if requester_overflowed is not None and not (
                requester_overflowed and not system.tss.is_overflowed(tx_id)
            ):
                break  # the requester is already doomed
    if checks:
        system.stats.incr("sig.checks", checks)
        if tracer is not None:
            tracer.emit(
                "sig.check",
                tx_id=exclude_tx,
                line_addr=line_addr,
                is_write=is_write,
                checks=checks,
                hits=len(hits),
            )
    return hits


def build_htm(
    machine: MachineConfig,
    config: HTMConfig,
    controller: MemoryController,
    hierarchy: CacheHierarchy,
    stats: StatsRegistry,
) -> HTMSystem:
    """Instantiate the design named by ``config.design``."""
    classes = {
        HTMDesign.LLC_BOUNDED: LLCBoundedHTM,
        HTMDesign.SIGNATURE_ONLY: SignatureOnlyHTM,
        HTMDesign.UHTM: UHTM,
        HTMDesign.IDEAL: IdealHTM,
    }
    cls = classes.get(config.design)
    if cls is None:
        raise ConfigError(f"unknown HTM design {config.design!r}")
    return cls(machine, config, controller, hierarchy, stats)
