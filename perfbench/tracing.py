"""Span tracing over the simulator's layer entry points, from outside.

:class:`LayerTracer` wraps the public entry points of each layer declared
in ``repro.analyze.layers`` (plus the HTM's two eviction callbacks, which
the cache layer calls into) with a timing wrapper that records one span
per call: its name, start, end and parent span.  Wrapping is done on the
*classes*, and must happen before the :class:`~repro.runtime.system.System`
is built: the hot paths hoist bound methods at construction
(``hierarchy.on_llc_evict = self._handle_llc_evict``, the epoch
dispatcher's ``check_access = directory.check_access`` ...), and a bound
method taken before the patch would bypass it.

A span's *self time* is its duration minus the time its child spans
cover; a layer's self time is the sum over its spans.  Self times are
accumulated online, so they are exact however many calls a run makes;
the raw span records are kept in memory up to :data:`SPAN_CAPACITY` and
written out once, when the run ends.

Every wrapper costs two clock reads and some bookkeeping per call, on
paths taken hundreds of thousands of times per run, so a traced run is
much slower than an untraced one.  Its self times are a *split* of where
host time goes, not an end-to-end number; ``trace.overhead_ratio``
reports by how much the run was slowed.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cache.directory import Directory
from repro.cache.hierarchy import CacheHierarchy
from repro.htm import designs
from repro.htm.base import HTMSystem
from repro.mem.controller import MemoryController
from repro.signatures.addresssig import SignaturePair
from repro.sim.engine import Engine
from repro.workloads import WORKLOADS, Workload

#: Raw span records kept per traced run; later spans still count toward
#: every aggregate, they are only not written out.
SPAN_CAPACITY = 200_000

#: Layers, in report order.  A span's layer is its name up to the first dot.
LAYERS = ("sim", "cache", "signatures", "htm", "mem", "workloads")

#: (layer, owner, attribute) for every wrapped entry point.
_ENTRY_POINTS: Tuple[Tuple[str, Any, str], ...] = (
    ("sim", Engine, "run"),
    ("cache", CacheHierarchy, "access"),
    ("cache", CacheHierarchy, "would_miss_llc"),
    ("cache", CacheHierarchy, "flush_private_cache"),
    ("cache", CacheHierarchy, "invalidate_written_lines"),
    ("cache", CacheHierarchy, "clear_tx_markers"),
    ("cache", Directory, "check_access"),
    ("cache", Directory, "record_access"),
    ("cache", Directory, "clear_transaction"),
    # Every design funnels its filter probes through this one helper.
    ("signatures", designs, "_signature_hits"),
    ("signatures", SignaturePair, "add_read"),
    ("signatures", SignaturePair, "add_write"),
    ("htm", HTMSystem, "begin"),
    ("htm", HTMSystem, "tx_read"),
    ("htm", HTMSystem, "tx_write"),
    ("htm", HTMSystem, "nontx_access"),
    ("htm", HTMSystem, "commit"),
    ("htm", HTMSystem, "_abort"),
    # The callbacks the cache layer invokes on eviction: UHTM's overflow
    # path (signature inserts, spills) runs under these.
    ("htm", HTMSystem, "_handle_l1_evict"),
    ("htm", HTMSystem, "_handle_llc_evict"),
    ("mem", MemoryController, "demand_access_latency"),
    ("mem", MemoryController, "load_word"),
    ("mem", MemoryController, "store_word"),
    ("mem", MemoryController, "rmw_word"),
    ("mem", MemoryController, "log_undo_and_update"),
    ("mem", MemoryController, "rollback_undo"),
    ("mem", MemoryController, "commit_undo"),
    ("mem", MemoryController, "log_redo_dram"),
    ("mem", MemoryController, "commit_redo_dram"),
    ("mem", MemoryController, "log_redo_nvm"),
    ("mem", MemoryController, "commit_nvm_transaction"),
    ("mem", MemoryController, "publish_dram_words"),
    ("mem", MemoryController, "buffer_early_evicted_nvm"),
    ("mem", MemoryController, "abort_nvm"),
)

#: The epoch dispatcher's fused block loops.  They inline the cache walk
#: and both eviction handlers, so without these spans that work would
#: vanish from the split under the batched engine.
_BLOCK_ENTRY_POINTS = ("tx_read_block", "tx_write_block", "nontx_rmw_block")

#: Entry points whose return value is a simulated latency, in ns, that a
#: metric sums.
_DEMAND_NS = "mem.MemoryController.demand_access_latency"
_COMMIT_NS = (
    "mem.MemoryController.commit_nvm_transaction",
    "mem.MemoryController.commit_undo",
    "mem.MemoryController.commit_redo_dram",
)


class LayerTracer:
    """Records spans around every layer entry point while attached."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        # Per span name: calls, self seconds, outermost inclusive seconds,
        # and the nesting depth (recursive calls count once in ``total_s``).
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.total_s: List[float] = []
        self._depth: List[int] = []
        # Raw span records, column-wise: name id, start, end, parent index.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.spans_dropped = 0
        # Sums of returned values for the entry points that return latency.
        self.returned_ns: Dict[str, float] = {}
        self.llc_misses = 0
        #: ``workloads.setup`` time before the run (see :meth:`start_run`).
        self.setup_s = 0.0
        # One frame per open span: [child seconds, start, name id, index].
        self._stack: List[list] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- attaching -------------------------------------------------------

    def attach(self, batched: bool) -> "LayerTracer":
        """Wrap every entry point; ``batched`` adds the block loops."""
        if self._patched:
            return self
        for layer, owner, attr in _ENTRY_POINTS:
            # A module's __name__ is dotted ("repro.htm.designs"); keep the tail.
            owner_name = owner.__name__.rsplit(".", 1)[-1]
            self._wrap(owner, attr, f"{layer}.{owner_name}.{attr}")
        if batched:
            from repro.htm.batch import BatchDispatcher

            for attr in _BLOCK_ENTRY_POINTS:
                self._wrap(BatchDispatcher, attr, f"htm.BatchDispatcher.{attr}")
        # Workload classes override setup/verify; wrap each definition.
        for cls in (Workload, *WORKLOADS.values()):
            for attr in ("setup", "verify"):
                if attr in cls.__dict__:
                    self._wrap(cls, attr, f"workloads.{attr}")
        return self

    def detach(self) -> None:
        """Restore every wrapped entry point (safe to call twice)."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
        self._stack = []

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.detach()

    def start_run(self) -> None:
        """Called as ``System.run`` starts: keep the set-up time, then
        zero every aggregate and span record so the rest describe the run.
        """
        self.setup_s = self.inclusive_s("workloads.setup")
        # In place: the wrappers hold these very lists.
        self.calls[:] = [0] * len(self.calls)
        self.self_s[:] = [0.0] * len(self.self_s)
        self.total_s[:] = [0.0] * len(self.total_s)
        for column in (
            self.span_name, self.span_start, self.span_end, self.span_parent
        ):
            del column[:]
        self.spans_dropped = 0
        for name in self.returned_ns:
            self.returned_ns[name] = 0.0
        self.llc_misses = 0

    def _name_id(self, name: str) -> int:
        index = self._ids.get(name)
        if index is None:
            index = len(self.names)
            self._ids[name] = index
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self._depth.append(0)
        return index

    def _wrap(self, owner: Any, attr: str, name: str) -> None:
        original = owner.__dict__[attr]
        name_id = self._name_id(name)
        stack = self._stack
        calls, self_s, total_s, depth = (
            self.calls, self.self_s, self.total_s, self._depth
        )
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )
        capacity = SPAN_CAPACITY
        on_return = self._result_hook(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1][3] if stack else -1
            index = len(starts)
            start = perf_counter()
            if index < capacity:
                names.append(name_id)
                starts.append(start)
                ends.append(start)
                parents.append(parent)
            else:
                index = -1
                self.spans_dropped += 1
            frame = [0.0, start, name_id, index]
            stack.append(frame)
            depth[name_id] += 1
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[name_id] -= 1
                elapsed = end - start
                if index >= 0:
                    ends[index] = end
                calls[name_id] += 1
                self_s[name_id] += elapsed - frame[0]
                if not depth[name_id]:
                    total_s[name_id] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if on_return is not None:
                on_return(result)
            return result

        traced.__name__ = getattr(original, "__name__", attr)
        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def _result_hook(self, name: str) -> Optional[Callable[[Any], None]]:
        if name == "cache.CacheHierarchy.access":

            def count_miss(result: Any) -> None:
                if result.llc_miss:
                    self.llc_misses += 1

            return count_miss
        if name == _DEMAND_NS or name in _COMMIT_NS:
            self.returned_ns[name] = 0.0
            sums = self.returned_ns

            def add_ns(result: float) -> None:
                sums[name] += result

            return add_ns
        return None

    # -- reading ---------------------------------------------------------

    def count(self, name: str) -> int:
        index = self._ids.get(name)
        return 0 if index is None else self.calls[index]

    def inclusive_s(self, name: str) -> float:
        index = self._ids.get(name)
        return 0.0 if index is None else self.total_s[index]

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(
            self.self_s[i]
            for i, name in enumerate(self.names)
            if name.startswith(prefix)
        )

    def layer_span_s(self, layer: str) -> float:
        """Time covered by the layer's outermost spans of each name."""
        prefix = layer + "."
        return sum(
            self.total_s[i]
            for i, name in enumerate(self.names)
            if name.startswith(prefix)
        )

    def demand_ns(self) -> float:
        return self.returned_ns.get(_DEMAND_NS, 0.0)

    def commit_ns(self) -> float:
        return sum(self.returned_ns.get(name, 0.0) for name in _COMMIT_NS)

    def write(self, path: str, header: Dict[str, Any]) -> None:
        """Write the span records as JSON lines: a header, then one span
        per line as ``[name id, start s, end s, parent index]``."""
        with open(path, "w", encoding="utf-8") as out:
            meta = dict(header)
            meta["names"] = self.names
            meta["spans"] = len(self.span_start)
            meta["spans_dropped"] = self.spans_dropped
            out.write(json.dumps(meta) + "\n")
            for record in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent
            ):
                out.write(json.dumps(record) + "\n")
