"""The declared protocol tables behind the cross-file checkers.

Like :mod:`repro.analyze.layers` for LAY002, this file writes down — once,
reviewable — the conventions ATOM005/PKL006/TRC009 enforce: which calls
produce *published* paths, which helpers are the sanctioned atomic writers,
which constructors ship values across the pickle boundary, and which trace
kinds must stay count-exact against which counters.  A new published file,
pool type, or counted trace kind is added here, not hard-coded in a
checker.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

# -- ATOM005: staged-rename publication --------------------------------------

#: Method/function names whose *result* is a published cache path — a path
#: other processes resolve independently and may read at any moment.
#: Writing one directly exposes a torn file; stage to a tmp sibling and
#: ``os.replace`` it into place instead.
PUBLISHED_PATH_PRODUCERS: FrozenSet[str] = frozenset(
    {"path_for"}  # harness/cache.py — cache entry
)

#: Path methods that derive a staging sibling from a published path.
STAGING_DERIVATIONS: FrozenSet[str] = frozenset({"with_name", "with_suffix"})

#: Modules whose direct writes are durability-critical even when dataflow
#: cannot prove the target is a published path: resuming an interrupted run
#: rests on every file they write appearing atomically.
DURABILITY_CRITICAL_FILES = ("repro/harness/cache.py",)

# -- PKL006: the pickle boundary ---------------------------------------------

#: Executor constructors whose ``submit``/``map`` arguments cross a process
#: boundary (and therefore a pickle boundary).
PROCESS_POOL_CONSTRUCTORS: FrozenSet[str] = frozenset({"ProcessPoolExecutor"})

#: ``threading`` constructors that produce unpicklable synchronisation
#: primitives.
LOCK_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Event",
     "Barrier"}
)

#: Constructors/attributes that reference a live tracer (ring buffers and
#: callbacks never survive pickling; obs/capture.py attaches per-worker
#: tracers inside the worker instead).
TRACER_CONSTRUCTORS: FrozenSet[str] = frozenset({"Tracer"})

# -- TRC009: count-exact trace kinds -----------------------------------------

#: ``trace kind -> stats counter`` pairs PR 4's forensics proved count-exact;
#: the emit and its increment must sit in the same function body so the
#: invariant survives refactors.  (``sig.hit`` is deliberately absent: its
#: counter name is conditional on the probe outcome.)
TRACE_COUNTER_KINDS: Dict[str, str] = {
    "tx.begin": "tx.begins",
    "tx.commit": "tx.commits",
    "tx.abort": "tx.aborts",
    "llc.overflow": "llc.tx_evictions",
}


def is_durability_critical(posix_path: str) -> bool:
    """Is a file in ATOM005's blanket scope?"""
    return posix_path.endswith(DURABILITY_CRITICAL_FILES)
