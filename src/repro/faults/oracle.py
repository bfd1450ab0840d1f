"""The crash-consistency oracle: a pure-Python shadow of durable state.

The oracle maintains a reference model of what NVM *must* contain after any
crash + recovery: exactly the writes of architecturally committed
transactions, applied in commit order, over the pre-campaign baseline — no
lost commits, no torn commits, no leakage of uncommitted data.

It observes the machine at three points, all independent of the recovery
code under test:

* ``controller.on_nvm_commit`` — the architectural commit point.  The word
  values of the committing transaction's NVM write-set are folded into the
  reference model *here*, not parsed back out of the log, so a durability
  bug that corrupts the log (e.g. a dropped commit mark) cannot also
  corrupt the oracle's expectation.
* the NVM log's append observer — every redo-logged word is recorded as
  *touched*, giving the anti-leakage check its universe: a touched word
  that never committed must still read its baseline value after recovery.
* ``controller.on_nontx_nvm_store`` — non-transactional NVM stores carry no
  durability guarantee (they may land in the volatile DRAM cache), so those
  words are excluded from verification rather than asserted either way.

``verify`` is meaningful only after a crash + full recovery, when the DRAM
cache is empty and NVM in-place contents are the whole story.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, TYPE_CHECKING

from ..mem.address import word_of
from ..mem.log import LogRecord, RecordKind

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.system import System

#: Cap on recorded failure detail lines (campaigns run hundreds of plans).
_MAX_FAILURES = 16


@dataclass
class OracleVerdict:
    """The outcome of one post-recovery verification."""

    ok: bool
    #: Human-readable descriptions of the first few mismatches.
    failures: List[str] = field(default_factory=list)
    committed_txs: int = 0
    words_checked: int = 0
    #: Words excluded because non-transactional stores touched them.
    words_excluded: int = 0

    def describe(self) -> str:
        if self.ok:
            return (
                f"consistent: {self.words_checked} words checked, "
                f"{self.committed_txs} committed txs accounted for"
            )
        head = self.failures[0] if self.failures else "unknown mismatch"
        return f"INCONSISTENT ({len(self.failures)}+ mismatches): {head}"


class CrashOracle:
    """Shadows committed durable state; verifies it after crash + recovery."""

    def __init__(self, system: "System") -> None:
        self._system = system
        self._controller = system.controller
        self._baseline: Dict[int, int] = {}
        #: word address -> last architecturally committed value.
        self._committed: Dict[int, int] = {}
        #: every word that ever appeared in an NVM redo record.
        self._touched: Set[int] = set()
        #: words written non-transactionally after arming (unverifiable).
        self._excluded: Set[int] = set()
        self._commit_order: List[int] = []
        self._armed = False

    # -- lifecycle ---------------------------------------------------------

    def arm(self) -> None:
        """Snapshot the baseline and start shadowing.  Call after workload
        setup (RawContext pre-population) and before the measured run."""
        if self._armed:
            return
        self._armed = True
        self._baseline = dict(self._controller.nvm.clone_contents())
        self._controller.nvm_log.add_observer(self._observe_log)
        self._controller.on_nvm_commit = self._on_commit
        self._controller.on_nontx_nvm_store = self._on_nontx_store

    # -- observation hooks -------------------------------------------------

    def _observe_log(self, record: LogRecord) -> None:
        if record.kind is RecordKind.REDO:
            for word_addr, _value in record.words:
                self._touched.add(word_of(word_addr))

    def _on_commit(self, tx_id: int, lines: Dict[int, Dict[int, int]]) -> None:
        self._commit_order.append(tx_id)
        for words in lines.values():
            for word_addr, value in words.items():
                addr = word_of(word_addr)
                self._committed[addr] = value
                self._touched.add(addr)

    def _on_nontx_store(self, addr: int) -> None:
        self._excluded.add(word_of(addr))

    # -- verification ------------------------------------------------------

    def verify(self) -> OracleVerdict:
        """Check post-recovery NVM against the reference model.

        Exactly the committed prefix must be visible: every committed word
        holds its last committed value (no lost or torn commits), and every
        touched-but-uncommitted word still holds its baseline value (no
        leakage of uncommitted data).
        """
        load = self._controller.load_word
        failures: List[str] = []
        checked = 0
        for addr, expected in sorted(self._committed.items()):
            if addr in self._excluded:
                continue
            checked += 1
            got = load(addr)
            if got != expected and len(failures) < _MAX_FAILURES:
                failures.append(
                    f"lost/torn commit at {addr:#x}: "
                    f"expected {expected}, found {got}"
                )
        for addr in sorted(self._touched - set(self._committed)):
            if addr in self._excluded:
                continue
            checked += 1
            expected = self._baseline.get(addr, 0)
            got = load(addr)
            if got != expected and len(failures) < _MAX_FAILURES:
                failures.append(
                    f"uncommitted leakage at {addr:#x}: "
                    f"expected baseline {expected}, found {got}"
                )
        return OracleVerdict(
            ok=not failures,
            failures=failures,
            committed_txs=len(self._commit_order),
            words_checked=checked,
            words_excluded=len(self._excluded),
        )
