"""The typed event vocabulary of the tracing subsystem.

Every hook point emits one of the kinds below.  An event is a frozen record
of (kind, simulated time, transaction, thread, payload); the payload is a
sorted tuple of key/value pairs so events hash, pickle, and compare
deterministically — they must survive the process-pool boundary of
``trace_grid`` bit-for-bit.

Event taxonomy (see ``docs/OBSERVABILITY.md`` for the payload of each):

Transaction lifecycle (``htm/base.py``)
    ``tx.begin``, ``tx.commit``, ``tx.commit.phase``, ``tx.abort``

Transactional accesses (``htm/base.py``), one per cache line touched
    ``tx.read``, ``tx.write``

Conflict detection (``htm/conflict.py``, ``htm/designs.py``)
    ``conflict.resolve``, ``sig.check``, ``sig.hit``, ``sig.saturation``

Capacity (``cache/hierarchy.py``, ``htm/base.py``)
    ``llc.evict``, ``llc.overflow``

Version management (``mem/controller.py``, ``mem/log.py``)
    ``mem.commit.nvm``, ``mem.commit.dram``, ``mem.rollback.dram``,
    ``mem.abort.nvm``, ``log.append``

Runtime (``runtime/txapi.py``, ``sim/engine.py``)
    ``slowpath.begin``, ``slowpath.commit``,
    ``thread.block``, ``thread.wake``, ``thread.done``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

# -- transaction lifecycle --------------------------------------------------
TX_BEGIN = "tx.begin"
TX_COMMIT = "tx.commit"
TX_COMMIT_PHASE = "tx.commit.phase"
TX_ABORT = "tx.abort"

# -- transactional accesses (one event per cache line) -----------------------
TX_READ = "tx.read"
TX_WRITE = "tx.write"

# -- conflict detection -----------------------------------------------------
CONFLICT_RESOLVE = "conflict.resolve"
SIG_CHECK = "sig.check"
SIG_HIT = "sig.hit"
SIG_SATURATION = "sig.saturation"

# -- capacity ---------------------------------------------------------------
LLC_EVICT = "llc.evict"
LLC_OVERFLOW = "llc.overflow"

# -- version management -----------------------------------------------------
MEM_COMMIT_NVM = "mem.commit.nvm"
MEM_COMMIT_DRAM = "mem.commit.dram"
MEM_ROLLBACK_DRAM = "mem.rollback.dram"
MEM_ABORT_NVM = "mem.abort.nvm"
LOG_APPEND = "log.append"

# -- runtime ----------------------------------------------------------------
SLOWPATH_BEGIN = "slowpath.begin"
SLOWPATH_COMMIT = "slowpath.commit"
THREAD_BLOCK = "thread.block"
THREAD_WAKE = "thread.wake"
THREAD_DONE = "thread.done"


@dataclass(frozen=True)
class TraceEvent:
    """One emitted event.

    ``ts_ns`` is simulated time; components that do not track time (the
    controller, the logs) emit with the tracer's last explicitly-stamped
    time, which is deterministic because the HTM-level event preceding them
    stamps the calling thread's clock.
    """

    kind: str
    ts_ns: float
    tx_id: Optional[int] = None
    thread_id: Optional[int] = None
    #: Sorted key/value pairs — tuple, not dict, for hash/pickle stability.
    data: Tuple[Tuple[str, Any], ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        for name, value in self.data:
            if name == key:
                return value
        return default

    def payload(self) -> Dict[str, Any]:
        return dict(self.data)

    def to_dict(self) -> Dict[str, Any]:
        """A flat JSON-safe dict (JSONL export format)."""
        out: Dict[str, Any] = {"kind": self.kind, "ts_ns": self.ts_ns}
        if self.tx_id is not None:
            out["tx_id"] = self.tx_id
        if self.thread_id is not None:
            out["thread_id"] = self.thread_id
        for name, value in self.data:
            if isinstance(value, tuple):
                value = list(value)
            out[name] = value
        return out
