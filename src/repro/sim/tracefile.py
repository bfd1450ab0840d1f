"""Memory-trace capture format: record once, replay anywhere.

A :class:`MemoryTrace` is a per-thread list of committed transactions, each
a list of (is_write, kind, offset) operations with addresses normalised to
offsets within their memory kind — so a trace captured on one machine
configuration replays on any other (the replay workload allocates fresh
arenas of the right size).

The on-disk format is line-oriented text::

    # uhtm-trace v1
    THREAD 0
    TX
    R d 128
    W n 4096
    END
    TX
    ...

``d`` = DRAM, ``n`` = NVM; offsets are byte offsets into the kind's arena.

A trace is recorded from a tracer's event stream: attach a
:class:`~repro.obs.tracer.Tracer` to the system, run it, and fold the
events with :meth:`MemoryTrace.from_events`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, TextIO, Tuple

from ..errors import ReproError
from ..mem.address import MemoryKind

_MAGIC = "# uhtm-trace v1"

_KIND_CODE = {MemoryKind.DRAM: "d", MemoryKind.NVM: "n"}
_CODE_KIND = {"d": MemoryKind.DRAM, "n": MemoryKind.NVM}

#: Fields per record, tag included.
_ARITY = {"THREAD": 2, "TX": 1, "END": 1, "R": 3, "W": 3}


def _count(text: str, line_no: int, line: str) -> int:
    """A non-negative decimal field (thread id or offset) of one record."""
    if not (text.isascii() and text.isdigit()):
        raise ReproError(
            f"line {line_no}: {text!r} is not a non-negative integer in {line!r}"
        )
    return int(text)


@dataclass(frozen=True)
class TracedOp:
    is_write: bool
    kind: MemoryKind
    offset: int


@dataclass
class TracedTx:
    ops: List[TracedOp] = field(default_factory=list)


@dataclass
class ThreadTrace:
    thread_id: int
    txs: List[TracedTx] = field(default_factory=list)


class MemoryTrace:
    """A complete captured workload: one op stream per thread."""

    def __init__(self) -> None:
        self._threads: Dict[int, ThreadTrace] = {}

    def thread(self, thread_id: int) -> ThreadTrace:
        trace = self._threads.get(thread_id)
        if trace is None:
            trace = ThreadTrace(thread_id)
            self._threads[thread_id] = trace
        return trace

    @property
    def threads(self) -> List[ThreadTrace]:
        return [self._threads[k] for k in sorted(self._threads)]

    def total_txs(self) -> int:
        return sum(len(t.txs) for t in self.threads)

    def total_ops(self) -> int:
        return sum(len(tx.ops) for t in self.threads for tx in t.txs)

    def arena_bytes(self, kind: MemoryKind) -> int:
        """Bytes of arena needed to replay all offsets of ``kind``."""
        top = 0
        for thread in self.threads:
            for tx in thread.txs:
                for op in tx.ops:
                    if op.kind is kind:
                        top = max(top, op.offset + 8)
        return top

    # -- serialisation -------------------------------------------------------

    def dump(self, handle: TextIO) -> None:
        handle.write(_MAGIC + "\n")
        for thread in self.threads:
            handle.write(f"THREAD {thread.thread_id}\n")
            for tx in thread.txs:
                handle.write("TX\n")
                for op in tx.ops:
                    tag = "W" if op.is_write else "R"
                    handle.write(f"{tag} {_KIND_CODE[op.kind]} {op.offset}\n")
                handle.write("END\n")

    def dumps(self) -> str:
        import io

        buffer = io.StringIO()
        self.dump(buffer)
        return buffer.getvalue()

    @classmethod
    def load(cls, handle: TextIO) -> "MemoryTrace":
        trace = cls()
        first = handle.readline().rstrip("\n")
        if first != _MAGIC:
            raise ReproError(f"not a uhtm trace (header {first!r})")
        current_thread: ThreadTrace = None
        current_tx: TracedTx = None
        for line_no, raw in enumerate(handle, start=2):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            tag = parts[0]
            if len(parts) != _ARITY.get(tag, 0):
                raise ReproError(f"line {line_no}: bad record {line!r}")
            if tag == "THREAD":
                current_thread = trace.thread(_count(parts[1], line_no, line))
                current_tx = None
            elif tag == "TX":
                if current_thread is None:
                    raise ReproError(f"line {line_no}: TX before THREAD")
                current_tx = TracedTx()
                current_thread.txs.append(current_tx)
            elif tag == "END":
                current_tx = None
            else:
                if current_tx is None:
                    raise ReproError(f"line {line_no}: op outside TX")
                kind = _CODE_KIND.get(parts[1])
                if kind is None:
                    raise ReproError(
                        f"line {line_no}: unknown memory kind in {line!r}"
                    )
                current_tx.ops.append(
                    TracedOp(
                        is_write=tag == "W",
                        kind=kind,
                        offset=_count(parts[2], line_no, line),
                    )
                )
        return trace

    @classmethod
    def loads(cls, text: str) -> "MemoryTrace":
        import io

        return cls.load(io.StringIO(text))

    # -- recording -----------------------------------------------------------

    @classmethod
    def from_events(
        cls, events: Iterable, address_space, *, dropped: int
    ) -> "MemoryTrace":
        """Fold a tracer's event stream into its committed transactions.

        ``events`` are duck-typed trace events (``kind``, ``tx_id``,
        ``thread_id`` and a ``get`` for the payload).  Only transactions
        opened by a ``tx.begin`` in the stream are recorded; their
        ``tx.read`` / ``tx.write`` operations keep emission order, and a
        ``tx.commit`` appends them to the committing thread's stream.
        Aborted and unfinished attempts are dropped: the retry loop issues
        their work again.  Addresses become offsets into the DRAM or NVM
        heap of ``address_space``.

        ``dropped`` is the tracer's ring-overflow count.  A ring that lost
        events yields a partial trace that would replay different work, so
        anything but 0 is an error.
        """
        if dropped:
            raise ReproError(
                f"the tracer dropped {dropped} events; a memory trace needs "
                "the whole stream (attach a tracer with a larger capacity)"
            )
        dram_base = address_space.dram_heap.base
        nvm_base = address_space.nvm_heap.base
        trace = cls()
        pending: Dict[int, Tuple[int, List[TracedOp]]] = {}
        for event in events:
            kind = event.kind
            if kind == "tx.read" or kind == "tx.write":
                entry = pending.get(event.tx_id)
                if entry is None:
                    continue
                addr = event.get("addr")
                if addr >= nvm_base:
                    memory, offset = MemoryKind.NVM, addr - nvm_base
                else:
                    memory, offset = MemoryKind.DRAM, addr - dram_base
                entry[1].append(TracedOp(kind == "tx.write", memory, offset))
            elif kind == "tx.begin":
                pending[event.tx_id] = (event.thread_id, [])
            elif kind == "tx.commit":
                entry = pending.pop(event.tx_id, None)
                if entry is not None:
                    trace.thread(entry[0]).txs.append(TracedTx(entry[1]))
            elif kind == "tx.abort":
                pending.pop(event.tx_id, None)
        return trace
